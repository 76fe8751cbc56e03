"""Constraint builders for pumped-storage units.

Each unit runs in exactly one of three modes per hour (off, generating,
pumping); dispatch is boxed by the committed mode and reservoir energy
follows a water-value free linear balance.  The window block (scenario
``None``) charges start-ups with the unit-commitment start-up indicator
(Morales-Espana, Latorre and Ramos, IEEE TPWRS 28(4), 2013): per unit,
hour and mode ``m`` in gen and pump, a continuous ``su_m in [0, 1]``
costing ``startup_cost_m`` and a row ``su_m[t] >= u_m[t] - u_m[t-1]``,
with ``u_m`` before the first hour the constant ``[prev == m]``.  As
every direct switch is allowed and charges are non-negative
(``core.validate_system``), ``su_m`` settles at
``max(0, u_m[t] - u_m[t-1])``: a charge on entering gen or pump from
any mode, none for staying or going off, and the same price for
fractional modes, so a window with every mode fixed is an LP.

Post-window scenario tails are revenue-only and carry no start-ups.
They touch the window through one number per reservoir, the storage
``e`` at the window edge, so a tail is priced by its optimal revenue
``V_s(e)``.  Where no unit has a dispatch floor
(``gen_min = pump_min = 0``) and no tail price is negative,
:func:`tail_value_functions` computes ``V_s`` exactly, without a
solver:

* Modes do not matter there.  Take a point that pumps and generates at
  once, and let ``d = qg/eta_gen - eta_pump*qp`` be its storage change.
  If ``d >= 0``, generating ``eta_gen*d <= qg`` alone gives the same
  change; otherwise pumping ``-d/eta_pump <= qp`` alone does.  Either
  point stays inside the same bounds, and since ``eta_gen*eta_pump <= 1``
  (``core.validate_system`` holds each efficiency to (0, 1]) its net
  sale is at least ``qg - qp``, no loss at a non-negative price.  So the
  tail is the LP with ``qg in [0, gen_max]`` and ``qp in [0, pump_max]``.
* An hour's best revenue as a function of the water ``d`` it draws is
  then a fractional knapsack over unit pieces: pumping less, slope
  ``p/(eta_pump*dt)`` over ``pump_max*eta_pump*dt`` of water, and
  generating, slope ``p*eta_gen/dt`` over ``gen_max*dt/eta_gen``.  Taken
  in descending slope order they give a concave piecewise-linear
  ``R_h(d)``.
* The best revenue from storage ``x`` entering hour ``h`` is
  ``W_h(x) = max_y W_{h+1}(y) + R_h(x - y)`` on ``[e_min, e_max]``,
  starting from the end-of-day target (the point ``target``, or the
  half-line above it under ``end_soc="relax"``).  That is a
  sup-convolution of concave piecewise-linear functions: add the left
  ends and merge the slope lists in descending order (Rockafellar,
  *Convex Analysis*, 1970, sec. 5).  Restricting to the storage bounds
  keeps it concave, so ``V_s = W_{te+1}`` is the minimum of one line
  per piece, each with its exact slope.

A floor forbids the small single-mode point, and a negative price pays
for burning water by pumping and generating at once; a scenario with
such a cell keeps an explicit block (:func:`create_psh_block` with mode
binaries in those cells, chained by :func:`add_block_soc`).

The builders only append variables and rows to a
:class:`~pshlac.milp.MilpModel`; objective terms are the caller's job
except for the window block's start-up charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

import numpy as np

from .core import MODES, PshMode, PshUnit, Reservoir
from .milp import BINARY, EQ, GE, LE, MilpModel, Tag


def _sfx(scenario: int | None) -> str:
    return "" if scenario is None else f".s{scenario}"


@dataclass
class PshBlock:
    """Variable handles for a group of PSH units over a hour range."""

    hours: tuple[int, ...]
    scenario: int | None
    u: dict[tuple[str, str, int], int] = field(default_factory=dict)  # (unit, mode, hour)
    start: dict[tuple[str, str, int], int] = field(default_factory=dict)  # (unit, gen|pump, hour)
    q_gen: dict[tuple[str, int], int] = field(default_factory=dict)
    q_pump: dict[tuple[str, int], int] = field(default_factory=dict)


@dataclass
class SocVars:
    # (reservoir, hour) -> storage entering the hour, the window edge included
    e_det: dict[tuple[str, int], int] = field(default_factory=dict)


def create_psh_block(
    model: MilpModel,
    units: Sequence[PshUnit],
    hours: Sequence[int],
    scenario: int | None = None,
    mode_cells: Collection[tuple[str, int]] | None = None,
) -> PshBlock:
    """Create commitment and dispatch variables, plus start-up columns
    in the window block.

    Each window-block start-up column carries the unit's start-up charge
    for its mode in the objective.  A scenario block is revenue-only and
    gets none: its ``start`` stays empty.  ``mode_cells`` names the
    ``(unit, hour)`` cells of a scenario block that get mode binaries
    (see the module docstring); the window block gets them in every cell.
    """
    blk = PshBlock(tuple(hours), scenario)
    s = _sfx(scenario)
    for u in units:
        for t in hours:
            if mode_cells is None or (u.id, t) in mode_cells:
                for m in MODES:
                    blk.u[(u.id, m, t)] = model.add_var(
                        f"u_{m}.{u.id}.t{t}{s}",
                        kind=BINARY,
                        tag=Tag("psh_commit", f"{u.id}:{m}", t, scenario),
                    )
            if scenario is None:
                for m, cost in ((PshMode.GEN.value, u.startup_cost_gen),
                                (PshMode.PUMP.value, u.startup_cost_pump)):
                    blk.start[(u.id, m, t)] = model.add_var(
                        f"su_{m}.{u.id}.t{t}", ub=1.0, obj=cost,
                        tag=Tag("psh_startup", f"{u.id}:{m}", t),
                    )
            blk.q_gen[(u.id, t)] = model.add_var(
                f"qg.{u.id}.t{t}{s}", ub=u.gen_max, tag=Tag("psh_gen", u.id, t, scenario)
            )
            blk.q_pump[(u.id, t)] = model.add_var(
                f"qp.{u.id}.t{t}{s}", ub=u.pump_max, tag=Tag("psh_pump", u.id, t, scenario)
            )
    return blk


def add_mode_logic(
    model: MilpModel,
    blk: PshBlock,
    unit: PshUnit,
    prev: str | None = None,
) -> None:
    """Mode exclusivity in every block hour that has mode binaries; in
    the window block also the start-up rows of gen and pump.

    ``prev`` is the unit's mode in the hour before the window block's
    first hour.  A scenario block takes no ``prev``: it has no start-ups,
    so only exclusivity ties its modes, and its first hour is free of
    the window-edge mode.
    """
    window = blk.scenario is None
    if window and prev is None:
        raise ValueError(f"{unit.id}: the window block needs the mode before hour {blk.hours[0]}")
    s = _sfx(blk.scenario)
    first = blk.hours[0]
    for t in blk.hours:
        if (unit.id, MODES[0], t) not in blk.u:
            continue
        model.add_row(
            f"r_one_mode.{unit.id}.t{t}{s}",
            {blk.u[(unit.id, m, t)]: 1.0 for m in MODES},
            EQ,
            1.0,
            Tag("mode_exclusive", unit.id, t, blk.scenario),
        )
        if not window:
            continue
        # su_m[t] >= u_m[t] - u_m[t-1], with u_m[first-1] = [prev == m]
        for m in (PshMode.GEN.value, PshMode.PUMP.value):
            coeffs = {blk.start[(unit.id, m, t)]: 1.0, blk.u[(unit.id, m, t)]: -1.0}
            rhs = 0.0
            if t == first:
                rhs = -1.0 if prev == m else 0.0
            else:
                coeffs[blk.u[(unit.id, m, t - 1)]] = 1.0
            model.add_row(
                f"r_startup_{m}.{unit.id}.t{t}", coeffs, GE, rhs,
                Tag("startup", f"{unit.id}:{m}", t),
            )


def add_dispatch_boxes(model: MilpModel, blk: PshBlock, unit: PshUnit) -> None:
    """Dispatch bounded by the committed mode: u*min <= q <= u*max, in
    every block hour that has mode binaries."""
    s = _sfx(blk.scenario)
    for t in blk.hours:
        if (unit.id, PshMode.GEN.value, t) not in blk.u:
            continue
        ug = blk.u[(unit.id, PshMode.GEN.value, t)]
        up = blk.u[(unit.id, PshMode.PUMP.value, t)]
        qg = blk.q_gen[(unit.id, t)]
        qp = blk.q_pump[(unit.id, t)]
        model.add_row(
            f"r_gen_hi.{unit.id}.t{t}{s}", {qg: 1.0, ug: -unit.gen_max}, LE, 0.0,
            Tag("gen_box_hi", unit.id, t, blk.scenario),
        )
        model.add_row(
            f"r_gen_lo.{unit.id}.t{t}{s}", {qg: 1.0, ug: -unit.gen_min}, GE, 0.0,
            Tag("gen_box_lo", unit.id, t, blk.scenario),
        )
        model.add_row(
            f"r_pump_hi.{unit.id}.t{t}{s}", {qp: 1.0, up: -unit.pump_max}, LE, 0.0,
            Tag("pump_box_hi", unit.id, t, blk.scenario),
        )
        model.add_row(
            f"r_pump_lo.{unit.id}.t{t}{s}", {qp: 1.0, up: -unit.pump_min}, GE, 0.0,
            Tag("pump_box_lo", unit.id, t, blk.scenario),
        )


def _flow_coeffs(coeffs: dict[int, float], blk: PshBlock, units: Sequence[PshUnit], t: int, dt: float) -> None:
    # energy added to storage during hour t: eta_pump*qp*dt - qg*dt/eta_gen
    for u in units:
        coeffs[blk.q_pump[(u.id, t)]] = coeffs.get(blk.q_pump[(u.id, t)], 0.0) - u.eta_pump * dt
        coeffs[blk.q_gen[(u.id, t)]] = coeffs.get(blk.q_gen[(u.id, t)], 0.0) + dt / u.eta_gen


def add_soc_dynamics(
    model: MilpModel,
    reservoir: Reservoir,
    units: Sequence[PshUnit],
    det_block: PshBlock,
    e_initial: float,
    dt: float = 1.0,
    edge: bool = True,
) -> SocVars:
    """Reservoir energy balance over the window block's hours.

    With ``edge`` the storage after the block's last hour gets its own
    column ``e.<res>.t<last+1>``, tied to the trajectory by
    ``r_soc_cross.<res>``: the end-of-day state when the block reaches
    the day end (see :func:`add_end_target`), otherwise the window-edge
    storage every scenario tail starts from.  Without it (schedule-
    following windows) the trajectory just stops at the block's end.
    """
    rid = reservoir.id
    members = [u for u in units if u.reservoir_id == rid]
    soc = SocVars()
    hours = det_block.hours
    last = hours[-1]
    for t in hours:
        soc.e_det[(rid, t)] = model.add_var(f"e.{rid}.t{t}", tag=Tag("soc", rid, t, None))

    model.add_row(
        f"r_soc_init.{rid}",
        {soc.e_det[(rid, hours[0])]: 1.0},
        EQ,
        e_initial,
        Tag("soc_initial", rid, hours[0], None),
    )
    for t in hours[:-1]:
        coeffs = {soc.e_det[(rid, t + 1)]: 1.0, soc.e_det[(rid, t)]: -1.0}
        _flow_coeffs(coeffs, det_block, members, t, dt)
        model.add_row(f"r_soc.{rid}.t{t}", coeffs, EQ, 0.0, Tag("soc_link", rid, t, None))
    _add_soc_bounds(model, reservoir, soc.e_det, hours, None)
    if edge:
        end_var = model.add_var(f"e.{rid}.t{last + 1}", tag=Tag("soc", rid, last + 1, None))
        soc.e_det[(rid, last + 1)] = end_var
        coeffs = {end_var: 1.0, soc.e_det[(rid, last)]: -1.0}
        _flow_coeffs(coeffs, det_block, members, last, dt)
        model.add_row(f"r_soc_cross.{rid}", coeffs, EQ, 0.0, Tag("soc_link_cross", rid, last, None))
    return soc


def _add_soc_bounds(model: MilpModel, reservoir: Reservoir, e: Mapping[tuple[str, int], int],
                    hours: Sequence[int], scenario: int | None) -> None:
    rid = reservoir.id
    s = _sfx(scenario)
    for t in hours:
        model.add_row(
            f"r_soc_min.{rid}.t{t}{s}", {e[(rid, t)]: 1.0}, GE, reservoir.e_min,
            Tag("soc_min", rid, t, scenario),
        )
        model.add_row(
            f"r_soc_max.{rid}.t{t}{s}", {e[(rid, t)]: 1.0}, LE, reservoir.e_max,
            Tag("soc_max", rid, t, scenario),
        )


def add_end_target(model: MilpModel, reservoir_id: str, end_var: int, target: float,
                   end_soc: str = "fix", scenario: int | None = None) -> None:
    """End-of-day storage meets ``target``: equality by default, lower
    bound with ``end_soc='relax'``."""
    hour = model.var(end_var).tag.hour
    model.add_row(
        f"r_soc_end.{reservoir_id}{_sfx(scenario)}", {end_var: 1.0},
        GE if end_soc == "relax" else EQ, target, Tag("soc_final", reservoir_id, hour, scenario),
    )


def add_block_soc(
    model: MilpModel,
    reservoir: Reservoir,
    units: Sequence[PshUnit],
    blk: PshBlock,
    edge_var: int,
    target: float,
    end_soc: str = "fix",
    dt: float = 1.0,
) -> dict[tuple[str, int], int]:
    """Storage of one scenario block, from the window-edge column to the
    end-of-day target.

    The block keeps its own copy ``e.<res>.t<h>.s<s>`` of every post-
    window hour and of the day end; ``r_soc_cross.<res>.s<s>`` sets the
    first copy to the edge column.  Returns (reservoir, hour) -> column.
    """
    rid = reservoir.id
    s = blk.scenario
    members = [u for u in units if u.reservoir_id == rid]
    post = blk.hours
    e: dict[tuple[str, int], int] = {}
    for t in (*post, post[-1] + 1):
        e[(rid, t)] = model.add_var(f"e.{rid}.t{t}.s{s}", tag=Tag("soc", rid, t, s))
    model.add_row(
        f"r_soc_cross.{rid}.s{s}", {e[(rid, post[0])]: 1.0, edge_var: -1.0}, EQ, 0.0,
        Tag("soc_link_cross", rid, post[0] - 1, s),
    )
    for t in post:
        coeffs = {e[(rid, t + 1)]: 1.0, e[(rid, t)]: -1.0}
        _flow_coeffs(coeffs, blk, members, t, dt)
        model.add_row(f"r_soc.{rid}.t{t}.s{s}", coeffs, EQ, 0.0, Tag("soc_link_scenario", rid, t, s))
    _add_soc_bounds(model, reservoir, e, post, s)
    add_end_target(model, rid, e[(rid, post[-1] + 1)], target, end_soc, s)
    return e


@dataclass(frozen=True)
class TailCuts:
    """One reservoir's tail revenue ``V_s(e)`` for each of S scenarios,
    on the edge-storage domain ``[lo, hi]`` they share.

    ``x[s]``, ``y[s]`` and ``slope[s]`` list the pieces of ``V_s`` from
    left to right, by start, value at the start and slope, so that
    ``V_s(e) = min_k y_k + slope_k * (e - x_k)`` on the domain.
    """

    lo: float
    hi: float
    x: tuple[np.ndarray, ...]
    y: tuple[np.ndarray, ...]
    slope: tuple[np.ndarray, ...]

    def value(self, s: int, e: float) -> float:
        return float(np.min(self.y[s] + self.slope[s] * (e - self.x[s])))

    def slope_at(self, s: int, e: float) -> float:
        """Slope of ``V_s`` just left of ``e`` (right of it at the left
        end): the value of the last MWh stored.  A breakpoint within
        1e-9 relative of ``e`` counts as ``e``."""
        k = np.searchsorted(self.x[s], e - 1e-9 * max(1.0, abs(e)), side="left") - 1
        return float(self.slope[s][max(int(k), 0)])


def _before(a: np.ndarray) -> np.ndarray:
    """Row-wise sums of the entries before each one; an infinite entry
    (the relaxed end's half-line) makes only the later sums infinite."""
    out = np.zeros_like(a)
    np.cumsum(a[:, :-1], axis=1, out=out[:, 1:])
    return out


def tail_value_functions(
    reservoir: Reservoir,
    units: Sequence[PshUnit],
    prices: np.ndarray,
    target: float,
    end_soc: str = "fix",
    dt: float = 1.0,
) -> TailCuts | None:
    """Exact best tail revenue of a reservoir as a function of edge
    storage, for every scenario at once (the module docstring gives the
    recursion).

    ``prices`` has shape (S, len(units), H): each member unit's price in
    each post-window hour.  Every unit must be free of dispatch floors
    and every price non-negative.  Returns None when no edge storage
    reaches the end-of-day target.
    """
    S, _, H = prices.shape
    eta_pump = np.array([u.eta_pump for u in units])
    eta_gen = np.array([u.eta_gen for u in units])
    pump_max = np.array([u.pump_max for u in units])
    # water per piece is the same in every scenario; only slopes move
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
    val = np.zeros(S)  # W at the domain's left end a
    for h in range(H - 1, -1, -1):
        p = prices[:, :, h]
        a -= pumped_max
        b = min(b + drawn_max, hi)
        val = val - p @ pump_max
        slopes = np.concatenate([slopes, p / (eta_pump * dt), p * eta_gen / dt], axis=1)
        lens = np.concatenate([lens, np.broadcast_to(length, (S, length.size))], axis=1)
        order = np.argsort(-slopes, axis=1, kind="stable")
        slopes = np.take_along_axis(slopes, order, axis=1)
        lens = np.take_along_axis(lens, order, axis=1)
        start = a + _before(lens)
        left = max(a, lo)
        if left > b:
            return None
        val = val + (slopes * np.clip(np.minimum(start + lens, left) - start, 0.0, None)).sum(axis=1)
        lens = np.clip(np.minimum(start + lens, b) - np.maximum(start, left), 0.0, None)
        a = left
    x = a + _before(lens)
    y = val[:, None] + _before(slopes * lens)
    xs, ys, bs = [], [], []
    for s in range(S):
        pos = lens[s] > 0.0
        if not pos.any():  # a one-point domain
            xs.append(np.array([a]))
            ys.append(val[s:s + 1].copy())
            bs.append(np.zeros(1))
            continue
        xk, yk, bk = x[s][pos], y[s][pos], slopes[s][pos]
        keep = np.ones(bk.size, bool)
        keep[1:] = bk[1:] != bk[:-1]  # equal slopes lie on one line
        xs.append(xk[keep])
        ys.append(yk[keep])
        bs.append(bk[keep])
    return TailCuts(a, b, tuple(xs), tuple(ys), tuple(bs))


def modes_from_dispatch(blocks: Sequence[PshBlock], values: np.ndarray,
                        tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray] | None:
    """Round every mode cell of ``blocks`` from the dispatch in
    ``values``, a column vector such as an LP relaxation's.

    A cell generates when its ``q_gen`` exceeds ``tol``, pumps when its
    ``q_pump`` does, and is off otherwise.  Returns the cells' mode
    columns and their 0/1 values, or None when a cell does both.
    Whether the rounded point is feasible, let alone optimal, is the
    caller's to check (``milp.solve`` re-solves with the modes fixed).
    """
    cells = [(blk.u[(uid, PshMode.OFF.value, t)], blk.u[(uid, PshMode.GEN.value, t)],
              blk.u[(uid, PshMode.PUMP.value, t)], qg, blk.q_pump[(uid, t)])
             for blk in blocks for (uid, t), qg in blk.q_gen.items()
             if (uid, PshMode.OFF.value, t) in blk.u]
    if not cells:
        return np.zeros(0, np.intp), np.zeros(0)
    off, gen, pump, qg, qp = np.array(cells, dtype=np.intp).T
    generating = values[qg] > tol
    pumping = values[qp] > tol
    if np.any(generating & pumping):
        return None
    cols = np.concatenate([off, gen, pump])
    fixed = np.concatenate([~(generating | pumping), generating, pumping]).astype(np.float64)
    return cols, fixed


def fix_block_to_schedule(
    model: MilpModel,
    blk: PshBlock,
    unit: PshUnit,
    gen: Mapping[int, float],
    pump: Mapping[int, float],
) -> None:
    """Pin a unit's commitment and dispatch to a given hourly schedule.

    Used by the schedule-following benchmark; the schedule must respect
    the unit's boxes or the fixing is rejected.
    """
    for t in blk.hours:
        qg = float(gen.get(t, 0.0))
        qp = float(pump.get(t, 0.0))
        if qg > 0 and qp > 0:
            raise ValueError(f"{unit.id} hour {t}: schedule generates and pumps at once")
        if qg > 0 and not (unit.gen_min - 1e-9 <= qg <= unit.gen_max + 1e-9):
            raise ValueError(f"{unit.id} hour {t}: gen {qg} MW outside [{unit.gen_min}, {unit.gen_max}]")
        if qp > 0 and not (unit.pump_min - 1e-9 <= qp <= unit.pump_max + 1e-9):
            raise ValueError(f"{unit.id} hour {t}: pump {qp} MW outside [{unit.pump_min}, {unit.pump_max}]")
        mode = PshMode.GEN.value if qg > 0 else PshMode.PUMP.value if qp > 0 else PshMode.OFF.value
        for m in MODES:
            val = 1.0 if m == mode else 0.0
            model.set_var_bounds(blk.u[(unit.id, m, t)], val, val)
        model.set_var_bounds(blk.q_gen[(unit.id, t)], qg, qg)
        model.set_var_bounds(blk.q_pump[(unit.id, t)], qp, qp)


def soc_step(units: Sequence[PshUnit], reservoir: Reservoir, e_now: float,
             gen: Mapping[str, float], pump: Mapping[str, float], dt: float = 1.0) -> float:
    """One bookkeeping step of the reservoir balance for realized dispatch."""
    e_next = e_now
    for u in units:
        if u.reservoir_id != reservoir.id:
            continue
        e_next += u.eta_pump * pump.get(u.id, 0.0) * dt - gen.get(u.id, 0.0) * dt / u.eta_gen
    return e_next
