"""Independent reference calculations used by the tests.

Everything here is deliberately written without the package's model
builders or solver: merit-order dispatch by sorting, window optima by
exhaustive enumeration over mode strings and a coarse dispatch grid,
special functions by bisection, and scenario sampling one draw at a
time.  Slow and obvious on purpose.  The one helper that touches a built
model, ``add_full_scenario_tails``, only appends the scenario blocks'
former mode and transition rows to it, so the lean model can be checked
against the structure it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from pshlac.milp import BINARY, EQ, GE, LE, MilpModel, Tag

MODES = ("off", "gen", "pump")
EPS = 1e-6


def merit_order_cost(
    segments: Sequence[tuple[float, float]],
    no_load: float,
    net_load: float,
    voll: float,
) -> float:
    """Cost of serving one hour with a committed convex unit plus slack.

    Negative net load means forced surplus, charged at the slack price.
    """
    if net_load <= 0.0:
        return no_load + voll * (-net_load)
    cost = no_load
    remaining = net_load
    for mw, price in sorted(segments, key=lambda sp: sp[1]):
        take = min(remaining, mw)
        cost += take * price
        remaining -= take
        if remaining <= 0.0:
            return cost
    return cost + voll * remaining


@dataclass
class ToyWindow:
    """Self-contained description of a one-unit window problem."""

    hours_in: tuple[int, ...]
    hours_post: tuple[int, ...]
    net_load: Mapping[int, float]               # in-window residual demand
    prices: Mapping[tuple[int, int], float]     # (scenario, hour) -> price
    weights: tuple[float, ...]
    da_net: Mapping[int, float]                 # day-ahead net schedule, all hours
    e_init: float
    e_min: float
    e_max: float
    e_target: float
    end_sense: str = "fix"                      # "fix" (equality) or "relax" (floor)
    eta_gen: float = 1.0
    eta_pump: float = 1.0
    gen_min: float = 0.0
    gen_max: float = 20.0
    pump_min: float = 0.0
    pump_max: float = 20.0
    trans_cost_gen: float = 0.0
    trans_cost_pump: float = 0.0
    init_mode: str = "off"
    thermal_segments: tuple[tuple[float, float], ...] = ((100.0, 20.0),)
    thermal_no_load: float = 0.0
    voll: float = 3500.0
    grid_step: float = 10.0

    @property
    def last_hour(self) -> int:
        return self.hours_post[-1] if self.hours_post else self.hours_in[-1]


def _dispatch_options(toy: ToyWindow, mode: str) -> list[tuple[float, float]]:
    g = toy.grid_step
    if mode == "gen":
        n = int(round(toy.gen_max / g))
        return [(k * g, 0.0) for k in range(n + 1) if k * g >= toy.gen_min - EPS]
    if mode == "pump":
        n = int(round(toy.pump_max / g))
        return [(0.0, k * g) for k in range(n + 1) if k * g >= toy.pump_min - EPS]
    return [(0.0, 0.0)]


def _soc_next(toy: ToyWindow, e: float, qg: float, qp: float) -> float:
    return e + toy.eta_pump * qp - qg / toy.eta_gen


def _soc_ok(toy: ToyWindow, e: float) -> bool:
    return toy.e_min - EPS <= e <= toy.e_max + EPS


def _end_ok(toy: ToyWindow, e: float) -> bool:
    if toy.end_sense == "fix":
        return abs(e - toy.e_target) <= EPS
    return e >= toy.e_target - EPS


def _transition_cost(toy: ToyWindow, prev: str, mode: str) -> float:
    if prev == mode:
        return 0.0
    if mode == "gen":
        return toy.trans_cost_gen
    if mode == "pump":
        return toy.trans_cost_pump
    return 0.0


def _post_best_revenue(toy: ToyWindow, s: int, e_start: float) -> float | None:
    """Best post-window sales for one scenario, or None when no grid path
    respects the storage bounds and the end rule.

    Bounds apply to the state entering each hour up to the day's last
    hour; the state after the last hour answers only to the end rule,
    matching the model rows.
    """
    best: float | None = None
    per_hour = [
        [(m, qg, qp) for m in MODES for (qg, qp) in _dispatch_options(toy, m)]
        for _ in toy.hours_post
    ]
    for path in product(*per_hour):
        e = e_start
        rev = 0.0
        feasible = True
        for (t, (m, qg, qp)) in zip(toy.hours_post, path):
            e = _soc_next(toy, e, qg, qp)
            if t == toy.last_hour:
                feasible = _end_ok(toy, e)
            else:
                feasible = _soc_ok(toy, e)
            if not feasible:
                break
            rev += toy.prices[(s, t)] * (qg - qp)
        if not feasible:
            continue
        if best is None or rev > best:
            best = rev
    return best


def _da_revenue(toy: ToyWindow, s: int) -> float:
    return sum(toy.prices[(s, t)] * toy.da_net[t] for t in toy.hours_post)


def enumerate_objective(toy: ToyWindow, variant: str) -> float:
    """Exhaustive optimum of one window under the named variant.

    ``perfect`` expects ``hours_post`` to be empty (whole day in-window);
    the end rule then applies to the deterministic walk.  Scenario-based
    variants apply the end rule on every scenario path.
    """
    S = len(toy.weights)
    close_det = not toy.hours_post
    best = math.inf
    per_hour = [
        [(m, qg, qp) for m in MODES for (qg, qp) in _dispatch_options(toy, m)]
        for _ in toy.hours_in
    ]
    for path in product(*per_hour):
        e = toy.e_init
        cost = 0.0
        prev = toy.init_mode
        feasible = True
        for (t, (m, qg, qp)) in zip(toy.hours_in, path):
            cost += _transition_cost(toy, prev, m)
            prev = m
            e = _soc_next(toy, e, qg, qp)
            if close_det and t == toy.last_hour:
                feasible = _end_ok(toy, e)
            else:
                feasible = _soc_ok(toy, e)
            if not feasible:
                break
            cost += merit_order_cost(
                toy.thermal_segments, toy.thermal_no_load,
                toy.net_load[t] - qg + qp, toy.voll,
            )
        if not feasible:
            continue
        if close_det:
            best = min(best, cost)
            continue

        revs = []
        for s in range(S):
            r = _post_best_revenue(toy, s, e)
            if r is None:
                break
            revs.append(r)
        if len(revs) < S:
            continue
        if variant in ("stochastic", "deterministic"):
            total = cost - sum(w * r for w, r in zip(toy.weights, revs))
        elif variant == "robust":
            total = cost + max(_da_revenue(toy, s) - revs[s] for s in range(S))
        else:
            raise ValueError(f"variant {variant!r} needs an empty post-window instead")
        best = min(best, total)
    return best


def probit_bisect(u: float, tol: float = 1e-12) -> float:
    """Inverse standard normal CDF by bisection on the erf form."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must be inside (0, 1)")

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def covariance_by_definition(samples: Sequence[Sequence[float]], lam: float) -> list[list[float]]:
    """Forgetting-factor second-moment recursion written out longhand."""
    dim = len(samples[0])
    sigma = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    for x in samples:
        for i in range(dim):
            for j in range(dim):
                sigma[i][j] = lam * sigma[i][j] + (1.0 - lam) * x[i] * x[j]
    return sigma


def quantile_by_branches(levels: Sequence[float], values: Sequence[float], w: float, cap_iqrs: float) -> float:
    """Scalar inverse of a piecewise-linear quantile curve, one branch per case.

    Linear interpolation inside the level grid; beyond it the outer
    segment's slope, extended no further than ``cap_iqrs`` interquartile
    ranges.
    """
    L, V = levels, values
    cap = cap_iqrs * float(np.interp(0.75, L, V) - np.interp(0.25, L, V))
    if w <= L[0]:
        slope = (V[1] - V[0]) / (L[1] - L[0])
        return V[0] - min(slope * (L[0] - w), cap)
    if w >= L[-1]:
        slope = (V[-1] - V[-2]) / (L[-1] - L[-2])
        return V[-1] + min(slope * (w - L[-1]), cap)
    return float(np.interp(w, L, V))


def scenarios_by_element(
    point: Mapping[str, Sequence[float]],
    curves: Mapping[str, Sequence],
    sigma: Mapping[str, np.ndarray],
    count: int,
    seed: tuple[int, ...],
    cap_iqrs: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Copula trajectories priced one (scenario, node, hour) at a time.

    Scenario s draws from its own ``SeedSequence([*seed, s])`` stream,
    node by node in sorted order; each draw goes through the node's
    Cholesky factor, the normal CDF and the hour's curve on its own.
    Returns the prices and the levels ``w``, both (count, nodes, hours).
    """
    nodes = sorted(point)
    H = len(point[nodes[0]])
    levels = np.empty((count, len(nodes), H))
    prices = np.empty((count, len(nodes), H))
    for s in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([*seed, s]))
        for ni, node in enumerate(nodes):
            w = ndtr(np.linalg.cholesky(sigma[node][:H, :H]) @ rng.standard_normal(H))
            for h in range(H):
                c = curves[node][h]
                levels[s, ni, h] = w[h]
                prices[s, ni, h] = point[node][h] + quantile_by_branches(
                    c.levels, c.values, float(w[h]), cap_iqrs)
    return prices, levels


def add_full_scenario_tails(model: MilpModel, units: Sequence) -> None:
    """Give every scenario block the full mode logic it once carried.

    Per unit and post-window hour that lacks them: three mode binaries,
    the one-mode row and the four dispatch boxes.  Then, in every cell:
    six cost-free transition binaries, one flow row per mode tying the
    hour's commitment to the previous hour's (the window block's last
    hour for the first post-window hour), and a cap of one switch.  The
    model built without them must reach the optimum of the model with
    them.
    """
    det = model.meta["det_block"]
    edge = det.hours[-1]
    pairs = [(m, n) for m in MODES for n in MODES if m != n]
    for blk in model.meta["scen_blocks"]:
        s = blk.scenario
        for unit in units:
            uid = unit.id
            mode = {}
            for t in blk.hours:
                if (uid, "off", t) in blk.u:
                    mode.update({(m, t): blk.u[(uid, m, t)] for m in MODES})
                    continue
                for m in MODES:
                    mode[(m, t)] = model.add_var(f"u_{m}.{uid}.t{t}.s{s}", kind=BINARY,
                                                 tag=Tag("psh_commit", f"{uid}:{m}", t, s))
                model.add_row(f"r_one_mode.{uid}.t{t}.s{s}",
                              [(mode[(m, t)], 1.0) for m in MODES], EQ, 1.0,
                              Tag("mode_exclusive", uid, t, s))
                qg, qp = blk.q_gen[(uid, t)], blk.q_pump[(uid, t)]
                ug, up = mode[("gen", t)], mode[("pump", t)]
                model.add_row(f"r_gen_hi.{uid}.t{t}.s{s}", [(qg, 1.0), (ug, -unit.gen_max)], LE, 0.0,
                              Tag("gen_box_hi", uid, t, s))
                model.add_row(f"r_gen_lo.{uid}.t{t}.s{s}", [(qg, 1.0), (ug, -unit.gen_min)], GE, 0.0,
                              Tag("gen_box_lo", uid, t, s))
                model.add_row(f"r_pump_hi.{uid}.t{t}.s{s}", [(qp, 1.0), (up, -unit.pump_max)], LE, 0.0,
                              Tag("pump_box_hi", uid, t, s))
                model.add_row(f"r_pump_lo.{uid}.t{t}.s{s}", [(qp, 1.0), (up, -unit.pump_min)], GE, 0.0,
                              Tag("pump_box_lo", uid, t, s))
            for t in blk.hours:
                v = {
                    (m, n): model.add_var(f"v_{m}_{n}.{uid}.t{t}.s{s}", kind=BINARY,
                                          tag=Tag("psh_transition", f"{uid}:{m}>{n}", t, s))
                    for m, n in pairs
                }
                for m in MODES:
                    before = det.u[(uid, m, edge)] if t == blk.hours[0] else mode[(m, t - 1)]
                    coeffs = [(mode[(m, t)], 1.0), (before, -1.0)]
                    for n in MODES:
                        if n != m:
                            coeffs += [(v[(n, m)], -1.0), (v[(m, n)], 1.0)]
                    model.add_row(f"r_mode_flow_{m}.{uid}.t{t}.s{s}", coeffs, EQ, 0.0,
                                  Tag("mode_transition", f"{uid}:{m}", t, s))
                model.add_row(f"r_one_switch.{uid}.t{t}.s{s}", [(i, 1.0) for i in v.values()],
                              LE, 1.0, Tag("transition_limit", uid, t, s))
