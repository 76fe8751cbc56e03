"""Independent reference calculations used by the tests.

Everything here is deliberately written without the package's model
builders or solver: merit-order dispatch by sorting, window optima by
exhaustive enumeration over mode strings and a coarse dispatch grid,
scenario pricing one draw at a time, a day's tail plans one window at
a time, a tail's cut values and slopes one scenario at a time, and a
reservoir's tail revenue as an LP handed to scipy's ``linprog``.  Slow and obvious on purpose.  The
one helper that builds a model, ``full_tail_window``, puts the window's
in-window part together with explicit full-binary scenario blocks from
``psh_model``'s primitives, so that the cut tails can be checked
against the structure they replaced.  ``canonical_form`` and
``causality_check`` compare two models, or two ledgers, structurally;
``model_differences`` compares two models element by element, and
``same_solution`` two solutions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from itertools import product
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtr

from pshlac.lac_models import _base_window_model, _has_floor, _scenario_prices
from pshlac.milp import EQ, GE, LE, MilpModel, RowView, VarView
from pshlac.psh_model import (
    TailCuts,
    _before,
    _tail_pieces,
    add_block_soc,
    add_dispatch_boxes,
    add_mode_logic,
    create_psh_block,
)

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


def covariance_by_definition(samples: Sequence[Sequence[float]], lam: float) -> list[list[float]]:
    """Forgetting-factor second-moment recursion written out longhand."""
    dim = len(samples[0])
    sigma = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    for x in samples:
        for i in range(dim):
            for j in range(dim):
                sigma[i][j] = lam * sigma[i][j] + (1.0 - lam) * x[i] * x[j]
    return sigma


def forecast_by_full_recursion(spec, history: Sequence[float], exog_future: np.ndarray | None,
                               exog_history: np.ndarray | None, steps: int) -> np.ndarray:
    """ARIMAX multi-step forecast carried over the whole history as lists.

    Differences the levels and the regressors ``d`` times (the future
    regressors across the history's end), recovers every innovation of
    the history by the conditional recursion (the first ``p`` stay
    zero), then runs the forecast recursion with future innovations
    zero, reading any lag before the history's start as 0.0, and sums
    the result back to levels ``d`` times.
    """
    p, d, q = spec.p, spec.d, spec.q
    phi, theta, beta = np.asarray(spec.phi), np.asarray(spec.theta), np.asarray(spec.beta)
    levels = np.asarray(history, dtype=float)
    y = levels
    for _ in range(d):
        y = np.diff(y)
    Xf = Xh = None
    if exog_history is not None:
        Xh = np.asarray(exog_history, dtype=float).reshape(len(levels), -1)
    if exog_future is not None:
        Xf = np.asarray(exog_future, dtype=float).reshape(len(exog_future), -1)
        if d:
            Xf = np.diff(np.vstack([Xh[-d:], Xf]), n=d, axis=0)
    eps = [0.0] * len(y)
    if q and len(y):
        xb = np.diff(Xh, n=d, axis=0) @ beta if len(beta) else np.zeros(len(y))
        for t in range(p, len(y)):
            pred = xb[t]
            for i in range(p):
                pred += phi[i] * y[t - 1 - i]
            for j in range(min(q, t)):
                pred += theta[j] * eps[t - 1 - j]
            eps[t] = y[t] - pred
    yy, ee = list(y), list(eps)
    out = np.empty(steps)
    for h in range(steps):
        t = len(yy)
        pred = float(beta @ Xf[h]) if len(beta) else 0.0
        for i in range(p):
            pred += phi[i] * (yy[t - 1 - i] if t - 1 - i >= 0 else 0.0)
        for j in range(q):
            pred += theta[j] * (ee[t - 1 - j] if t - 1 - j >= 0 else 0.0)
        yy.append(pred)
        ee.append(0.0)
        out[h] = pred
    for k in range(d):
        base = levels
        for _ in range(d - 1 - k):
            base = np.diff(base)
        out = (base[-1] if len(base) else 0.0) + np.cumsum(out)
    return out


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


def cdf_by_branches(levels: Sequence[float], values: Sequence[float], x: float) -> float:
    """Scalar level of a piecewise-linear quantile curve at value ``x``.

    Beyond the outer values the edge slope extends the levels, clamped
    to [0, 1], or jumps there when the edge is flat or falling; an exact
    hit on the values, possibly a flat stretch, takes the middle of the
    levels that reach it; otherwise linear interpolation between levels.
    """
    L = levels
    V = np.asarray(values)
    lo_slope = (values[1] - values[0]) / (L[1] - L[0])
    hi_slope = (values[-1] - values[-2]) / (L[-1] - L[-2])
    if x < V[0]:
        if lo_slope <= 0:
            return 0.0
        return max(L[0] - (V[0] - x) / lo_slope, 0.0)
    if x > V[-1]:
        if hi_slope <= 0:
            return 1.0
        return min(L[-1] + (x - V[-1]) / hi_slope, 1.0)
    lo = int(np.searchsorted(V, x, side="left"))
    hi = int(np.searchsorted(V, x, side="right"))
    if lo < hi:
        return (L[lo] + L[hi - 1]) / 2.0
    return L[lo - 1] + (L[lo] - L[lo - 1]) * (x - V[lo - 1]) / (V[lo] - V[lo - 1])


def scenarios_by_element(
    point: Mapping[str, Sequence[float]],
    curves: Mapping[str, Sequence],
    sigma: Mapping[str, np.ndarray],
    count: int,
    seed: tuple[int, ...],
    cap_iqrs: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Copula trajectories priced one (scenario, node, hour) at a time.

    One ``SeedSequence(seed)`` stream draws a (count, nodes, hours)
    block of standard normals, nodes in sorted order; scenario s is row
    s.  Each scenario's row per node goes through the node's Cholesky
    factor and the normal CDF, and each level through the hour's curve,
    on its own.  Returns the prices and the levels ``w``, both
    (count, nodes, hours).
    """
    nodes = sorted(point)
    H = len(point[nodes[0]])
    levels = np.empty((count, len(nodes), H))
    prices = np.empty((count, len(nodes), H))
    z = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((count, len(nodes), H))
    for s in range(count):
        for ni, node in enumerate(nodes):
            w = ndtr(np.linalg.cholesky(sigma[node][:H, :H]) @ z[s, ni])
            for h in range(H):
                c = curves[node][h]
                levels[s, ni, h] = w[h]
                prices[s, ni, h] = point[node][h] + quantile_by_branches(
                    c.levels, c.values, float(w[h]), cap_iqrs)
    return prices, levels


def full_tail_window(variant: str, instance, cfg) -> MilpModel:
    """The window model of a scenario variant with every scenario tail as
    an explicit dispatch block: off/gen/pump binaries, exclusivity and
    dispatch boxes in every (unit, hour) cell, its own storage chain from
    the window-edge column to the end-of-day rule, and its revenue in the
    objective (``stochastic`` at the scenario weights, ``deterministic``
    at weight 1) or in a worst-case row ``w_risk >= DA_s - revenue_s``
    per reservoir (``robust``).  The in-window part is the package's own.
    """
    model = _base_window_model(variant, instance, cfg, True)
    system, scn, da = instance.system, instance.scenario_set, instance.da
    units = system.psh_units
    te = model.meta["window_hours"][-1]
    post = list(range(te + 1, system.grid.horizon_end + 1))
    prices = _scenario_prices(scn, cfg)
    risk = {r.id: model.add_var(f"w_risk.{r.id}", lb=-math.inf, obj=1.0)
            for r in system.reservoirs} if variant == "robust" else {}
    for s in range(scn.count):
        weight = 1.0 if variant == "deterministic" else scn.weights[s]
        blk = create_psh_block(model, units, post, s)
        for u in units:
            add_mode_logic(model, blk, u)
            add_dispatch_boxes(model, blk, u)
        for r in system.reservoirs:
            edge = model.meta["soc"][r.id].e_det[(r.id, te + 1)]
            add_block_soc(model, r, units, blk, edge, da.end_soc[r.id], cfg.end_soc,
                          system.grid.interval_hours)
            coeffs, da_revenue = [], 0.0
            for u in units:
                if u.reservoir_id != r.id:
                    continue
                for h, t in enumerate(post):
                    p = float(prices[s, scn.nodes.index(u.node_id), h])
                    coeffs += [(blk.q_gen[(u.id, t)], p), (blk.q_pump[(u.id, t)], -p)]
                    da_revenue += p * (da.gen[u.id][t - 1] - da.pump[u.id][t - 1])
            if risk:
                model.add_row(f"r_risk.{r.id}.s{s}", [(risk[r.id], 1.0), *coeffs], GE, da_revenue)
            else:
                for i, c in coeffs:
                    model.add_obj(i, -weight * c)
    return model


def tail_value_function_alone(reservoir, units: Sequence, prices: np.ndarray, target: float,
                              end_soc: str = "fix", dt: float = 1.0) -> TailCuts | None:
    """``psh_model.tail_value_functions`` for one window, as each window's
    build ran it before the day pass: the same backward recursion over
    the window's own (S, units, H) array alone."""
    S, _, H = prices.shape
    eta_pump = np.array([u.eta_pump for u in units])
    eta_gen = np.array([u.eta_gen for u in units])
    pump_max = np.array([u.pump_max for u in units])
    length = np.concatenate([pump_max * eta_pump * dt, np.array([u.gen_max for u in units]) * dt / eta_gen])
    drawn_max = float(length[len(units):].sum())
    pumped_max = float(length[: len(units)].sum())
    lo, hi = reservoir.e_min, reservoir.e_max
    if end_soc == "relax":
        a, b = target, np.inf
        slopes, lens = np.zeros((S, 1)), np.full((S, 1), np.inf)
    else:
        a = b = target
        slopes, lens = np.zeros((S, 0)), np.zeros((S, 0))
    val = np.zeros(S)
    rows = np.arange(S)[:, None]
    for h in range(H - 1, -1, -1):
        p = prices[:, :, h]
        a -= pumped_max
        b = min(b + drawn_max, hi)
        val = val - p @ pump_max
        slopes = np.concatenate([slopes, p / (eta_pump * dt), p * eta_gen / dt], axis=1)
        lens = np.concatenate([lens, np.broadcast_to(length, (S, length.size))], axis=1)
        order = np.argsort(-slopes, axis=1, kind="stable")
        slopes = slopes[rows, order]
        lens = lens[rows, order]
        start = a + _before(lens)
        left = max(a, lo)
        if left > b:
            return None
        val = val + (slopes * np.maximum(np.minimum(start + lens, left) - start, 0.0)).sum(axis=1)
        lens = np.maximum(np.minimum(start + lens, b) - np.maximum(start, left), 0.0)
        a = left
    return TailCuts(a, b, *_tail_pieces(a, val, slopes, lens))


def tail_plans_by_window(system, da, sets: Sequence, cfg) -> list[tuple | None]:
    """The tail plans of ``lac_models.plan_tails``, worked out one window
    at a time as each window's build once did: per set, the ramped unit
    prices, the mode cells, the scenarios priced by cuts and their cuts
    (reservoir by reservoir, by :func:`tail_value_function_alone`, with
    every scenario kept as a block once a reservoir's target is out of
    reach).  Returns (prices, mode_cells, by_cuts, cuts) per set, or None
    for a set that is None or has no hour."""
    units = system.psh_units
    plans = []
    for scn in sets:
        if scn is None or scn.prices.shape[2] == 0:
            plans.append(None)
            continue
        prices = _scenario_prices(scn, cfg)[:, [scn.nodes.index(u.node_id) for u in units], :]
        floors = np.array([_has_floor(u) for u in units], dtype=bool)
        mode_cells = floors[None, :, None] | (prices < 0.0)
        by_cuts = tuple(int(s) for s in np.flatnonzero(~mode_cells.any(axis=(1, 2))))
        cuts = {}
        for r in system.reservoirs:
            if not by_cuts:
                break
            idx = [i for i, u in enumerate(units) if u.reservoir_id == r.id]
            found = tail_value_function_alone(r, [units[i] for i in idx], prices[np.ix_(by_cuts, idx)],
                                              float(da.end_soc[r.id]), cfg.end_soc, system.grid.interval_hours)
            if found is None:
                by_cuts, cuts = (), {}
                break
            cuts[r.id] = found
        plans.append((prices, mode_cells, by_cuts, cuts))
    return plans


def plan_differences(plan, reference) -> list[str]:
    """Where a ``lac_models.TailPlan`` differs from an entry of
    :func:`tail_plans_by_window`, to the bit; empty when they agree."""
    if plan is None or reference is None:
        return [] if plan is reference else ["one plan is None"]
    prices, mode_cells, by_cuts, cuts = reference
    out = []
    for name, got, want in (("prices", plan.prices, prices), ("mode_cells", plan.mode_cells, mode_cells)):
        if got.dtype != want.dtype or not np.array_equal(got, want):
            out.append(name)
    if plan.by_cuts != by_cuts:
        out.append(f"by_cuts {plan.by_cuts} != {by_cuts}")
    if list(plan.cuts) != list(cuts):
        return out + [f"cut reservoirs {list(plan.cuts)} != {list(cuts)}"]
    for rid, want in cuts.items():
        got = plan.cuts[rid]
        if (got.lo, got.hi) != (want.lo, want.hi):
            out.append(f"{rid} domain")
        for field in ("start", "x", "y", "slope"):
            a, b = getattr(got, field), getattr(want, field)
            if a.dtype != b.dtype or not np.array_equal(a, b):
                out.append(f"{rid}.{field}")
    return out


def cut_value(cuts, s: int, e: float) -> float:
    """``V_s(e)`` of a ``psh_model.TailCuts``, scenario ``s`` alone: the
    lowest of its lines at ``e``."""
    x, y, slope = cuts.pieces(s)
    return float(np.min(y + slope * (e - x)))


def cut_slope_at(cuts, s: int, e: float) -> float:
    """Slope of ``V_s`` just left of ``e`` (right of it at the left end),
    scenario ``s`` alone: a binary search for the last piece that starts
    more than 1e-9 relative left of ``e``."""
    x, _, slope = cuts.pieces(s)
    k = np.searchsorted(x, e - 1e-9 * max(1.0, abs(e)), side="left") - 1
    return float(slope[max(int(k), 0)])


def water_value_by_scenario(tails, sol) -> tuple[float, ...]:
    """``lac_models.ScenarioTails.water_value`` one scenario at a time,
    from :func:`cut_value` and :func:`cut_slope_at`."""
    if tails.blocks:
        return ()
    out = []
    for rid, cuts in tails.cuts.items():
        e = sol.value(tails.edge[rid])
        slopes = np.array([cut_slope_at(cuts, i, e) for i in range(len(tails.scenarios))])
        if tails.weights is None:
            values = np.array([cut_value(cuts, i, e) for i in range(len(tails.scenarios))])
            out.append(float(slopes[np.argmax(tails.da_revenue[rid][list(tails.scenarios)] - values)]))
        else:
            out.append(float(np.dot([tails.weights[s] for s in tails.scenarios], slopes)))
    return tuple(out)


def same_solution(a, b) -> bool:
    """Two ``MilpSolution`` objects equal to the bit, apart from their
    wall times: status, values, duals, objective, gap, bound, nodes and
    incumbent."""
    def same(x, y):
        return (x is None and y is None) or (x is not None and y is not None and np.array_equal(x, y))
    return ((a.status, a.objective, a.gap, a.nodes, a.incumbent, a.bound)
            == (b.status, b.objective, b.gap, b.nodes, b.incumbent, b.bound)
            and same(a.values, b.values) and same(a.duals, b.duals))


def tail_lp(units: Sequence, reservoir, prices: np.ndarray, e_edge: float, target: float,
            end_soc: str = "fix", dt: float = 1.0) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Best post-window revenue of one reservoir's units from edge storage
    ``e_edge``, as the explicit LP tail: per unit and hour ``qg`` in
    ``[0, gen_max]`` and ``qp`` in ``[0, pump_max]`` with no modes, storage
    in ``[e_min, e_max]`` entering every hour and the end-of-day rule after
    the last.  ``prices`` is (units, hours).  Solved by scipy's
    ``linprog``; returns (revenue, qg, qp) or None when infeasible.
    """
    U, H = prices.shape
    n = 2 * U * H  # qg then qp, unit-major
    # storage entering hour h+1 is e_edge + cum[h] @ (qg, qp)
    step = np.zeros((H, n))
    for i, u in enumerate(units):
        for h in range(H):
            step[h, i * H + h] = -dt / u.eta_gen
            step[h, U * H + i * H + h] = u.eta_pump * dt
    cum = np.cumsum(step, axis=0)
    upper = [cum[:-1], -cum[:-1]]
    rhs = [np.full(H - 1, reservoir.e_max - e_edge), np.full(H - 1, e_edge - reservoir.e_min)]
    if end_soc == "relax":
        upper.append(-cum[-1:])
        rhs.append(np.array([e_edge - target]))
        eq = dict()
    else:
        eq = dict(A_eq=cum[-1:], b_eq=np.array([target - e_edge]))
    if not reservoir.e_min <= e_edge <= reservoir.e_max:
        return None
    cost = np.concatenate([-prices.ravel(), prices.ravel()])
    bounds = [(0.0, u.gen_max) for u in units for _ in range(H)]
    bounds += [(0.0, u.pump_max) for u in units for _ in range(H)]
    res = linprog(cost, A_ub=np.vstack(upper), b_ub=np.concatenate(rhs), bounds=bounds,
                  method="highs", **eq)
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun, res.x[: U * H].reshape(U, H), res.x[U * H:].reshape(U, H)


def max_violation(model: MilpModel, x: np.ndarray) -> float:
    """Largest breach of a bound, a row or the integrality of a binary."""
    worst = max(0.0, float(np.max(np.asarray(model._lb) - x)), float(np.max(x - np.asarray(model._ub))))
    for r in rows_named(model):
        lhs = sum(c * x[j] for j, c in r.coeffs.items())
        worst = max(worst, {LE: lhs - r.rhs, GE: r.rhs - lhs, EQ: abs(lhs - r.rhs)}[r.sense])
    b = model.binary_indices()
    return max(worst, float(np.max(np.abs(x[b] - np.round(x[b])), initial=0.0)))


def columns_named(model: MilpModel, pattern: str = "*") -> list[VarView]:
    """The columns of ``model`` whose names match the shell-style
    ``pattern`` (``fnmatch``, such as ``"pseg*.th1.t2"``), in column order."""
    return [v for v in map(model.var, range(model.n_vars)) if fnmatchcase(v.name, pattern)]


def rows_named(model: MilpModel, pattern: str = "*") -> list[RowView]:
    """The rows of ``model`` whose names match ``pattern`` (such as
    ``"r_cut.*"``), in row order."""
    return [r for r in map(model.row, range(model.n_rows)) if fnmatchcase(r.name, pattern)]


def canonical_form(model: MilpModel):
    """An order-independent description of ``model`` for structural
    equality tests: its columns and its rows by name, each row with its
    coefficients by column name, and its objective constant."""
    columns = columns_named(model)
    names = [v.name for v in columns]
    cols = tuple(sorted((v.name, v.kind, v.lb, v.ub, v.obj) for v in columns))
    rows = tuple(sorted((r.name, r.sense, r.rhs, tuple(sorted((names[j], c) for j, c in r.coeffs.items())))
                        for r in rows_named(model)))
    return cols, rows, model.objective_constant


# what a model holds, list by list, and the builder handles a window carries
_MODEL_LISTS = ("_vnames", "_binary", "_lb", "_ub", "_obj", "_hour", "_rnames", "_row_hour",
                "_start", "_index", "_value", "_row_lo", "_row_hi")
_WINDOW_META = ("det_block", "soc", "thermal_p", "balance_rows", "slack_vars", "window_hours", "commitment",
                "thermal_constant")


def model_differences(a: MilpModel, b: MilpModel) -> list[str]:
    """What differs between two window models, element by element: each
    list of names, bounds, costs, kinds, hours, rows and row bounds (a
    float list to the bit, so ``-0.0`` is not ``0.0``), the objective
    constant, the builder handles in ``meta`` and the rounding's
    columns.  Empty when they are the same model."""

    def bits(v):
        if v and isinstance(v[0], float):
            return np.asarray(v, dtype=np.float64).tobytes()
        return v

    out = [f for f in _MODEL_LISTS if bits(getattr(a, f)) != bits(getattr(b, f))]
    if repr(a.objective_constant) != repr(b.objective_constant):
        out.append("objective_constant")
    out += [k for k in _WINDOW_META if a.meta.get(k) != b.meta.get(k)]
    if (a.rounding is None) != (b.rounding is None):
        out.append("rounding")
    elif a.rounding is not None:
        out += [f"rounding.{f}" for f in ("cols", "q_gen", "q_pump")
                if not np.array_equal(getattr(a.rounding, f), getattr(b.rounding, f))]
    return out


def causality_check(ledger_a, ledger_b, through_hour: int) -> bool:
    """True when both ledgers hold the same frozen hours up to the given
    hour and agree on every one of them."""
    def prefix(ledger):
        return [asdict(h) for h in ledger.hours if h.hour <= through_hour]

    return prefix(ledger_a) == prefix(ledger_b)
