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

Every window of a day prices hours that end at the day end, from the
same end-of-day target, so :func:`tail_value_functions` runs the
recursion for all of a day's windows in one backward pass; a window
leaves it when its first post-window hour is done.

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

from .core import MODES, PshUnit, Reservoir
from .milp import BINARY, CONTINUOUS, EQ, GE, LE, MilpModel


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
    # unit -> its gen and pump start-up rows of the first hour, whose
    # right-hand sides hold the mode before the block (set_entry_mode)
    entry: dict[str, tuple[int, int]] = field(default_factory=dict)

    def shifted(self, by: int) -> PshBlock:
        """The same handles ``by`` hours later (see ``MilpModel.redated``)."""
        return PshBlock(
            tuple(t + by for t in self.hours), self.scenario,
            {(uid, m, t + by): j for (uid, m, t), j in self.u.items()},
            {(uid, m, t + by): j for (uid, m, t), j in self.start.items()},
            {(uid, t + by): j for (uid, t), j in self.q_gen.items()},
            {(uid, t + by): j for (uid, t), j in self.q_pump.items()},
            dict(self.entry),
        )


@dataclass
class SocVars:
    # (reservoir, hour) -> storage entering the hour, the window edge included
    e_det: dict[tuple[str, int], int] = field(default_factory=dict)
    init_row: int = -1  # r_soc_init, the storage entering the first hour
    end_row: int | None = None  # r_soc_end, where the trajectory meets the end-of-day target

    def shifted(self, by: int) -> SocVars:
        return SocVars({(rid, t + by): j for (rid, t), j in self.e_det.items()}, self.init_row, self.end_row)


_OFF, _GEN, _PUMP = MODES


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
    The columns are one block, unit by unit and hour by hour: the cell's
    modes, the window block's start-ups, then ``q_gen`` and ``q_pump``.
    """
    blk = PshBlock(tuple(hours), scenario)
    s = _sfx(scenario)
    layout = []  # (handles, key, name, ub, obj, kind) per column
    for u in units:
        for t in hours:
            if mode_cells is None or (u.id, t) in mode_cells:
                layout += [(blk.u, (u.id, m, t), f"u_{m}.{u.id}.t{t}{s}", 1.0, 0.0, BINARY) for m in MODES]
            if scenario is None:
                layout += [(blk.start, (u.id, m, t), f"su_{m}.{u.id}.t{t}", 1.0, cost, CONTINUOUS)
                           for m, cost in ((_GEN, u.startup_cost_gen), (_PUMP, u.startup_cost_pump))]
            layout += [(blk.q_gen, (u.id, t), f"qg.{u.id}.t{t}{s}", u.gen_max, 0.0, CONTINUOUS),
                       (blk.q_pump, (u.id, t), f"qp.{u.id}.t{t}{s}", u.pump_max, 0.0, CONTINUOUS)]
    if not layout:
        return blk
    handles, keys, names, ub, obj, kind = zip(*layout)
    cols = model.add_vars(names, ub=ub, obj=obj, kind=kind, hour=[key[-1] for key in keys])
    for handle, key, j in zip(handles, keys, cols.tolist()):
        handle[key] = j
    return blk


def _mode_hours(blk: PshBlock, unit: PshUnit) -> list[int]:
    return [t for t in blk.hours if (unit.id, _OFF, t) in blk.u]


def add_mode_logic(
    model: MilpModel,
    blk: PshBlock,
    unit: PshUnit,
    prev: str | None = None,
) -> None:
    """Mode exclusivity in every block hour that has mode binaries; in
    the window block also the start-up rows of gen and pump.

    ``prev`` is the unit's mode in the hour before the window block's
    first hour (see :func:`set_entry_mode`).  A scenario block takes no
    ``prev``: it has no start-ups, so only exclusivity ties its modes,
    and its first hour is free of the window-edge mode.
    """
    window = blk.scenario is None
    if window and prev is None:
        raise ValueError(f"{unit.id}: the window block needs the mode before hour {blk.hours[0]}")
    uid = unit.id
    s = _sfx(blk.scenario)
    hours = _mode_hours(blk, unit)
    H = len(hours)
    if not H:
        return
    modes = [[blk.u[(uid, m, t)] for m in MODES] for t in hours]
    if not window:
        model.add_rows([f"r_one_mode.{uid}.t{t}{s}" for t in hours], range(0, 3 * H + 1, 3),
                       [j for cell in modes for j in cell], [1.0] * (3 * H), EQ, 1.0, hours)
        return
    # per hour: sum of modes == 1, then su_m[t] - u_m[t] + u_m[t-1] >= 0
    # for gen and pump, with u_m[first-1] = [prev == m] on the rhs (the
    # first hour's zero coefficient drops the entry)
    su = [(blk.start[(uid, _GEN, t)], blk.start[(uid, _PUMP, t)]) for t in hours]
    index = [j for h, ((off, gen, pump), (su_gen, su_pump)) in enumerate(zip(modes, su))
             for j in (off, gen, pump, su_gen, gen, modes[h - 1][1], su_pump, pump, modes[h - 1][2])]
    value = [1.0, 1.0, 1.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0] + [1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0] * (H - 1)
    rows = model.add_rows(
        [name for t in hours for name in (f"r_one_mode.{uid}.t{t}", f"r_startup_{_GEN}.{uid}.t{t}",
                                          f"r_startup_{_PUMP}.{uid}.t{t}")],
        range(0, 9 * H + 1, 3), index, value, [EQ, GE, GE] * H, [1.0, 0.0, 0.0] * H,
        [t for t in hours for _ in range(3)],
    )
    blk.entry[uid] = (int(rows[1]), int(rows[2]))
    set_entry_mode(model, blk, unit, prev)


def set_entry_mode(model: MilpModel, blk: PshBlock, unit: PshUnit, prev: str) -> None:
    """Write the unit's mode before the window block's first hour into
    that hour's start-up rows (see :func:`add_mode_logic`): ``-1`` on the
    row of the mode it was in, ``0`` on the other."""
    model.set_rhs(blk.entry[unit.id], [-1.0 if prev == _GEN else 0.0, -1.0 if prev == _PUMP else 0.0])


def add_dispatch_boxes(model: MilpModel, blk: PshBlock, unit: PshUnit) -> None:
    """Dispatch bounded by the committed mode: u*min <= q <= u*max, in
    every block hour that has mode binaries."""
    uid = unit.id
    s = _sfx(blk.scenario)
    hours = _mode_hours(blk, unit)
    H = len(hours)
    if not H:
        return
    # per hour: gen_hi and gen_lo on (q_gen, u_gen), pump_hi and pump_lo on (q_pump, u_pump)
    index = [j for t in hours
             for j in (*[blk.q_gen[(uid, t)], blk.u[(uid, _GEN, t)]] * 2,
                       *[blk.q_pump[(uid, t)], blk.u[(uid, _PUMP, t)]] * 2)]
    model.add_rows(
        [f"r_{box}.{uid}.t{t}{s}" for t in hours for box in ("gen_hi", "gen_lo", "pump_hi", "pump_lo")],
        range(0, 8 * H + 1, 2), index,
        [1.0, -unit.gen_max, 1.0, -unit.gen_min, 1.0, -unit.pump_max, 1.0, -unit.pump_min] * H, [LE, GE, LE, GE] * H,
        0.0, [t for t in hours for _ in range(4)],
    )


def _add_soc_links(model: MilpModel, names: list[str], hours: Sequence[int], e_next: Sequence[int],
                   e_now: Sequence[int], blk: PshBlock, members: Sequence[PshUnit], dt: float,
                   dated: bool = True) -> None:
    """One storage balance per hour of ``hours``: ``e_next - e_now`` minus
    the energy added during the hour, ``eta_pump*qp*dt - qg*dt/eta_gen``
    per member unit, is zero.  ``dated`` names carry their hour."""
    H = len(hours)
    if not H:
        return
    index = [j for t, after, before in zip(hours, e_next, e_now)
             for j in (after, before, *(q[(u.id, t)] for u in members for q in (blk.q_pump, blk.q_gen)))]
    rates = [c for u in members for c in (-(u.eta_pump * dt), dt / u.eta_gen)]
    w = 2 + len(rates)
    model.add_rows(names, range(0, w * H + 1, w), index, [1.0, -1.0, *rates] * H, EQ, 0.0,
                   list(hours) if dated else None)


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
    stored = (*hours, last + 1) if edge else hours
    e = model.add_vars([f"e.{rid}.t{t}" for t in stored], hour=list(stored)).tolist()
    soc.e_det.update(zip(((rid, t) for t in stored), e))

    soc.init_row = model.add_row(f"r_soc_init.{rid}", {e[0]: 1.0}, EQ, e_initial)
    _add_soc_links(model, [f"r_soc.{rid}.t{t}" for t in hours[:-1]], hours[:-1], e[1:len(hours)],
                   e[:len(hours) - 1], det_block, members, dt)
    _add_soc_bounds(model, reservoir, soc.e_det, hours, None)
    if edge:
        _add_soc_links(model, [f"r_soc_cross.{rid}"], (last,), e[-1:], e[-2:-1], det_block, members, dt,
                       dated=False)
    return soc


def _add_soc_bounds(model: MilpModel, reservoir: Reservoir, e: Mapping[tuple[str, int], int],
                    hours: Sequence[int], scenario: int | None) -> None:
    rid = reservoir.id
    s = _sfx(scenario)
    H = len(hours)
    model.add_rows(
        [name for t in hours for name in (f"r_soc_min.{rid}.t{t}{s}", f"r_soc_max.{rid}.t{t}{s}")],
        range(2 * H + 1), [e[(rid, t)] for t in hours for _ in range(2)], [1.0] * (2 * H), [GE, LE] * H,
        [reservoir.e_min, reservoir.e_max] * H, [t for t in hours for _ in range(2)],
    )


def add_end_target(model: MilpModel, reservoir_id: str, end_var: int, target: float,
                   end_soc: str = "fix", scenario: int | None = None) -> int:
    """End-of-day storage meets ``target``: equality by default, lower
    bound with ``end_soc='relax'``.  Returns the row."""
    return model.add_row(f"r_soc_end.{reservoir_id}{_sfx(scenario)}", {end_var: 1.0},
                         GE if end_soc == "relax" else EQ, target)


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
    stored = (*post, post[-1] + 1)
    cols = model.add_vars([f"e.{rid}.t{t}.s{s}" for t in stored], hour=list(stored)).tolist()
    e = dict(zip(((rid, t) for t in stored), cols))
    model.add_row(f"r_soc_cross.{rid}.s{s}", {cols[0]: 1.0, edge_var: -1.0}, EQ, 0.0)
    _add_soc_links(model, [f"r_soc.{rid}.t{t}.s{s}" for t in post], post, cols[1:], cols[:-1], blk, members, dt)
    _add_soc_bounds(model, reservoir, e, post, s)
    add_end_target(model, rid, cols[-1], target, end_soc, s)
    return e


@dataclass(frozen=True)
class TailCuts:
    """One reservoir's tail revenue ``V_s(e)`` for each of S scenarios,
    on the edge-storage domain ``[lo, hi]`` they share.

    A compressed-sparse-row table: rows ``start[s]:start[s + 1]`` of
    ``x``, ``y`` and ``slope`` list the pieces of ``V_s`` from left to
    right, by start, value at the start and slope, so that
    ``V_s(e) = min_k y_k + slope_k * (e - x_k)`` on the domain.
    """

    lo: float
    hi: float
    start: np.ndarray  # (S + 1,) row offsets; every scenario has a row
    x: np.ndarray
    y: np.ndarray
    slope: np.ndarray

    def pieces(self, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(v[self.start[s]:self.start[s + 1]] for v in (self.x, self.y, self.slope))

    def values(self, e: float) -> np.ndarray:
        return np.minimum.reduceat(self.y + self.slope * (e - self.x), self.start[:-1])

    def slopes_at(self, e: float) -> np.ndarray:
        """Slope of every ``V_s`` just left of ``e`` (right of it at the
        left end): the value of the last MWh stored.  A breakpoint within
        1e-9 relative of ``e`` counts as ``e``."""
        # an integer dtype: the breakpoints left of e are counted, not or-ed
        left = np.add.reduceat(self.x < e - 1e-9 * max(1.0, abs(e)), self.start[:-1], dtype=np.intp)
        return self.slope[self.start[:-1] + np.maximum(left - 1, 0)]


def _before(a: np.ndarray) -> np.ndarray:
    """Row-wise sums of the entries before each one; an infinite entry
    (the relaxed end's half-line) makes only the later sums infinite."""
    out = np.zeros_like(a)
    np.cumsum(a[:, :-1], axis=1, out=out[:, 1:])
    return out


def tail_value_functions(
    reservoir: Reservoir,
    units: Sequence[PshUnit],
    prices: Sequence[np.ndarray],
    target: float,
    end_soc: str = "fix",
    dt: float = 1.0,
) -> list[TailCuts | None]:
    """Exact best tail revenue of a reservoir as a function of edge
    storage, for every scenario of every window at once (the module
    docstring gives the recursion).

    ``prices`` holds one array per window, shaped (S_w, len(units), H_w):
    each member unit's price in each of the window's post-window hours,
    which end at the day end.  Every unit must be free of dispatch
    floors and every price non-negative.  Returns one :class:`TailCuts`
    per window, or None for a window whose edge storage cannot reach
    the end-of-day target.

    All windows run one backward recursion from the last hour.  Their
    rows go in by tail length, shortest first, and a window's rows
    leave the batch as a prefix once its first post-window hour is
    done, so each row takes the steps, column widths and reductions of
    a window alone, and its table is its slice of the leaving windows'
    one table.  The pumping baseline ``p @ pump_max`` is the one product
    taken per window: numpy's matmul rounds by the array's layout and
    row count (a BLAS call for a one-hour tail, a dot for a single
    scenario, an unfused loop otherwise).
    """
    out: list[TailCuts | None] = [None] * len(prices)
    hours = [p.shape[2] for p in prices]
    live = sorted(range(len(prices)), key=hours.__getitem__)  # windows still in, by leaving order
    eta_pump = np.array([u.eta_pump for u in units])
    eta_gen = np.array([u.eta_gen for u in units])
    pump_max = np.array([u.pump_max for u in units])
    # water per piece is the same in every scenario; only slopes move
    length = np.concatenate([pump_max * eta_pump * dt, np.array([u.gen_max for u in units]) * dt / eta_gen])
    drawn_max = float(length[len(units):].sum())
    pumped_max = float(length[: len(units)].sum())
    lo, hi = reservoir.e_min, reservoir.e_max
    S = sum(p.shape[0] for p in prices)
    if end_soc == "relax":
        a, b = target, np.inf
        slopes, lens = np.zeros((S, 1)), np.full((S, 1), np.inf)
    else:
        a = b = target
        slopes, lens = np.zeros((S, 0)), np.zeros((S, 0))
    val = np.zeros(S)  # W at the domain's left end a
    for step in range(max(hours, default=0) + 1):
        done = [w for w in live if hours[w] == step]
        if done:
            live = live[len(done):]
            ends = np.cumsum([prices[w].shape[0] for w in done]).tolist()
            n = ends[-1]
            start, x, y, slope = _tail_pieces(a, val[:n], slopes[:n], lens[:n])
            for w, i, j in zip(done, [0, *ends[:-1]], ends):
                out[w] = TailCuts(a, b, start[i:j + 1] - start[i], *(v[start[i]:start[j]] for v in (x, y, slope)))
            val, slopes, lens = val[n:], slopes[n:], lens[n:]
        if not live:
            break
        cols = [prices[w][:, :, hours[w] - 1 - step] for w in live]
        p = np.concatenate(cols)
        S = len(val)
        a -= pumped_max
        b = min(b + drawn_max, hi)
        val = val - np.concatenate([c @ pump_max for c in cols])
        slopes = np.concatenate([slopes, p / (eta_pump * dt), p * eta_gen / dt], axis=1)
        lens = np.concatenate([lens, np.broadcast_to(length, (S, length.size))], axis=1)
        order = np.argsort(-slopes, axis=1, kind="stable")
        rows = np.arange(S)[:, None]
        slopes = slopes[rows, order]
        lens = lens[rows, order]
        start = a + _before(lens)
        left = max(a, lo)
        if left > b:  # no edge storage of a window still in reaches the target
            break
        val = val + (slopes * np.maximum(np.minimum(start + lens, left) - start, 0.0)).sum(axis=1)
        lens = np.maximum(np.minimum(start + lens, b) - np.maximum(start, left), 0.0)
        a = left
    return out


def _tail_pieces(a: float, val: np.ndarray, slopes: np.ndarray,
                 lens: np.ndarray) -> tuple[np.ndarray, ...]:
    """Close :func:`tail_value_functions`: ``W`` of each scenario (row)
    starts at ``a`` with value ``val`` and runs through pieces of the
    given slopes and lengths.  Returns its :class:`TailCuts` table
    (start, x, y, slope): each piece of positive length, one line per
    run of equal slopes; a row with no such piece has a one-point domain
    and gets the single piece (a, val, 0)."""
    S = len(val)
    pos = lens > 0.0
    # the one-point piece is a last column, kept only where a row has none
    x = np.column_stack([a + _before(lens), np.full(S, a)])
    y = np.column_stack([val[:, None] + _before(slopes * lens), val])
    slopes = np.column_stack([slopes, np.zeros(S)])
    r, c = np.nonzero(np.column_stack([pos, ~pos.any(axis=1)]))
    b = slopes[r, c]
    keep = np.ones(r.size, bool)
    keep[1:] = (b[1:] != b[:-1]) | (r[1:] != r[:-1])
    r, c = r[keep], c[keep]
    return np.concatenate([[0], np.cumsum(np.bincount(r, minlength=S))]), x[r, c], y[r, c], slopes[r, c]


class ModeRounding:
    """Rounds every mode cell of ``blocks`` from a dispatch, such as an
    LP relaxation's column vector: a :data:`~pshlac.milp.Rounding`.

    A cell generates when its ``q_gen`` exceeds ``tol``, pumps when its
    ``q_pump`` does, and is off otherwise.  A call returns the cells'
    mode columns and their 0/1 values, or None when a cell does both.
    The cells' columns are gathered once, here, so a call only indexes
    the dispatch.  Whether the rounded point is feasible, let alone
    optimal, is the caller's to check (``milp.solve`` re-solves with the
    modes fixed).
    """

    def __init__(self, blocks: Sequence[PshBlock], tol: float = 1e-6):
        cells = [(blk.u[(uid, _OFF, t)], blk.u[(uid, _GEN, t)], blk.u[(uid, _PUMP, t)], qg, blk.q_pump[(uid, t)])
                 for blk in blocks for (uid, t), qg in blk.q_gen.items() if (uid, _OFF, t) in blk.u]
        off, gen, pump, self.q_gen, self.q_pump = np.array(cells, dtype=np.intp).reshape(-1, 5).T
        self.cols = np.concatenate([off, gen, pump])
        self.tol = tol

    def __call__(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        generating = values[self.q_gen] > self.tol
        pumping = values[self.q_pump] > self.tol
        if np.any(generating & pumping):
            return None
        return self.cols, np.concatenate([~(generating | pumping), generating, pumping]).astype(np.float64)


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
        mode = _GEN if qg > 0 else _PUMP if qp > 0 else _OFF
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
