"""The window model of each benchmark variant, from one builder.

:func:`build_variant` builds every window.  All variants share one
in-window structure (:func:`_base_window_model`): thermal units at their
day-ahead commitment with convex dispatch cost, pumped-storage units
free to re-commit, a system power balance with value-of-lost-load
slacks, and reservoir dynamics.  A window cannot move a thermal
commitment, so it has no column for one: the plan bounds each unit's
output to ``[c*p_min, c*p_max]``, and its no-load and start-up charges
are the model's objective constant (:func:`_add_thermal_dispatch`; the
settlement builds a ``perfect`` window over the whole day with the
ledger's commitments in its plan).  A window reads the whole day-ahead
plan from ``LacInstance.da``: the thermal commitments, the PSH
schedules and the end-of-day storage targets; the unit records' own
``da_*`` fields are not consulted.  The variants differ only
in how hours after the window are valued, which is the finish
:func:`build_variant` adds:

* ``current_practice``  PSH pinned to the day-ahead schedule, no view
  beyond the window
* ``perfect``           a window that reaches the end of the day, so
  realized load covers every remaining hour and no price proxy is needed
* ``deterministic``     a single point-forecast trajectory prices the
  post-window net sales of each PSH unit: the stochastic model at one
  scenario
* ``stochastic``        the expectation of that revenue over a scenario
  set
* ``robust``            the worst case over scenarios of the revenue
  shortfall relative to the day-ahead position, one epigraph variable
  per reservoir

Windows of one variant and length differ in their block only by hours
and data.  Given the window built before (``previous``),
:func:`build_variant` copies its in-window block, columns, rows, bounds
and costs, moves its names, column hours and handles to the new hours
(``MilpModel.redated``), and writes only what the new instance brings
(:func:`_write_window_data`): the thermal plan, the storage and modes
entering the window, the end-of-day targets and the load.  The variant's
finish follows as in a fresh build, and the model equals one element by
element.  A window that reaches the day end while its predecessor did
not, or one of another length, is built afresh.

The three scenario variants share one tail builder, :func:`_add_tails`.
A tail reaches the window only through the storage at the window edge,
one column ``e.<res>.t<te+1>`` per reservoir, so each scenario's tail is
its exact best revenue ``V_s(e)`` as cuts on that column
(``psh_model.tail_value_functions``; the module docstring there gives
the argument).  This is the water value of Pereira and Pinto (Math.
Programming 52, 1991) in the multi-cut form of Birge and Louveaux
(*Introduction to Stochastic Programming*, 2011, ch. 5); as the recourse
is one-dimensional and known in closed form, the cuts are complete and
no Benders iteration is needed.  A scenario with a cell where that
argument fails (a dispatch floor, a negative price) keeps an explicit
dispatch block tied to the same column.

What a tail needs beyond the model, the ramped prices, the scenarios
priced by cuts and their cuts, depends only on the window's scenario
set, the end-of-day targets and ``cfg``.  :func:`plan_tails` works it out
for all of a day's windows at once, with one backward recursion per
reservoir, and :func:`build_variant` takes each window's plan
(``tails``); a window built without one is planned alone, to the same
model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .core import (
    PowerSystem,
    PriceScenarioSet,
    PshUnit,
    ThermalUnit,
    TimeGrid,
    snap_zero,
)
from .milp import BINARY, CONTINUOUS, EQ, GE, LE, MilpModel, MilpSolution
from .psh_model import (
    ModeRounding,
    PshBlock,
    TailCuts,
    add_block_soc,
    add_dispatch_boxes,
    add_end_target,
    add_mode_logic,
    add_soc_dynamics,
    create_psh_block,
    fix_block_to_schedule,
    set_entry_mode,
    tail_value_functions,
)


class ConfigurationError(ValueError):
    pass


class Variant(str, Enum):
    CURRENT_PRACTICE = "current_practice"
    PERFECT = "perfect"
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"
    ROBUST = "robust"


# variants that value the post-window hours through a scenario set
SCENARIO_VARIANTS = (Variant.STOCHASTIC, Variant.ROBUST, Variant.DETERMINISTIC)


@dataclass(frozen=True)
class ModelConfig:
    voll: float = 3500.0  # $/MWh on balance slacks
    gap_tol: float = 1e-3  # read by nothing: SolveOptions carries the solver's limits
    end_soc: str = "fix"  # "fix" -> equality at the day end, "relax" -> lower bound
    time_preference: float = 1e-5  # $/MWh/h ramp breaking price ties in the post-window range

    def __post_init__(self) -> None:
        if self.end_soc not in ("fix", "relax"):
            raise ConfigurationError(f"end_soc is {self.end_soc!r}, not 'fix' or 'relax'")


@dataclass(frozen=True)
class DaReference:
    """The day-ahead plan every window model leans on: the PSH schedules,
    the thermal commitments it pins and the end-of-day storage targets."""

    gen: Mapping[str, tuple[float, ...]]
    pump: Mapping[str, tuple[float, ...]]
    commitment: Mapping[str, tuple[int, ...]]
    end_soc: Mapping[str, float]


@dataclass
class LacInstance:
    """One rolling window's worth of inputs."""

    system: PowerSystem
    window: TimeGrid  # start_index = t1 of this window
    net_load: tuple[float, ...]  # actual load over the window hours
    da: DaReference  # the whole day-ahead plan the window reads
    soc_state: Mapping[str, float]  # reservoir SOC entering t1
    prev_modes: Mapping[str, str]  # unit mode in hour t1-1
    scenario_set: PriceScenarioSet | None = None  # post-window hours only


def _validate_instance(instance: LacInstance, need_scenarios: bool) -> None:
    win = instance.window
    sys = instance.system
    T = win.horizon_end
    te = win.window_end
    if len(instance.net_load) != len(list(win.window_hours())):
        raise ConfigurationError(
            f"net_load has {len(instance.net_load)} values for a {win.window_length}-hour window"
        )
    for r in sys.reservoirs:
        if r.id not in instance.soc_state:
            raise ConfigurationError(f"missing SOC state for reservoir {r.id}")
        if r.id not in instance.da.end_soc:
            raise ConfigurationError(f"missing day-ahead end SOC target for reservoir {r.id}")
    for u in sys.thermal_units:
        if len(instance.da.commitment.get(u.id, ())) != T:
            raise ConfigurationError(f"thermal unit {u.id} has no day-ahead commitment of {T} hours")
    for u in sys.psh_units:
        if u.id not in instance.prev_modes:
            raise ConfigurationError(f"missing previous mode for unit {u.id}")
        if any(len(plan.get(u.id, ())) != T for plan in (instance.da.gen, instance.da.pump)):
            raise ConfigurationError(f"PSH unit {u.id} has no day-ahead schedule of {T} hours")
    scn = instance.scenario_set
    if scn is not None and scn.prices.shape[2] > 0:
        if scn.start_hour != te + 1 or scn.end_hour != T:
            raise ConfigurationError(
                f"scenario hours [{scn.start_hour}, {scn.end_hour}] do not match post-window [{te + 1}, {T}]"
            )
        w = np.asarray(scn.weights)
        # written so that a NaN weight fails too; HiGHS, given a NaN cost, ran past its time limit
        if not (abs(float(w.sum()) - 1.0) <= 1e-9 and np.all(w > 0)):
            raise ConfigurationError("scenario weights must be positive and sum to 1")
        for u in sys.psh_units:
            if u.node_id not in scn.nodes:
                raise ConfigurationError(f"scenario set lacks node {u.node_id}")
    if need_scenarios and te < T and (scn is None or scn.prices.shape[2] == 0):
        raise ConfigurationError("scenario set required while post-window hours remain")


def _add_thermal_dispatch(model: MilpModel, units: Sequence[ThermalUnit], hours: Sequence[int],
                          commitment: Mapping[str, Sequence[int]] | None = None) -> dict[str, dict]:
    """The thermal units' columns and dispatch rows over ``hours``.

    One block of columns, unit by unit and hour by hour: with no
    ``commitment``, the free commitment ``uT`` with its start and stop
    indicators ``wT`` and ``zT``; then the output ``p`` and one column
    per piecewise-linear cost segment.  Then one block of rows in the
    same order: ``r_pdef`` (output is the sum of the segments) and, with
    a free commitment, the min/max link of output to it.

    ``commitment`` pins each unit to an on/off plan for the whole day,
    one flag per hour from hour 1.  A pinned unit has no commitment
    column, and :func:`_write_thermal_plan` writes the plan into ``p``'s
    bounds and the objective constant.  Returns (unit, hour) -> column
    for each field but the segments.
    """
    H = len(hours)
    pinned = commitment is not None
    lead = () if pinned else ("uT", "wT", "zT")
    L = len(lead)
    R = 1 if pinned else 3  # rows per unit-hour
    cols: dict[str, dict] = {f: {} for f in (*lead, "p")}
    names, lb, ub, obj, kinds, col_hours = [], [], [], [], [], []
    row_names, lengths, index, value = [], [], [], []
    first = model.n_vars
    for u in units:
        K = len(u.cost_curve)
        fields = (*lead, "p", *(f"pseg{k}" for k in range(K)))
        w = len(fields)
        names += [f"{f}.{u.id}.t{t}" for t in hours for f in fields]
        segments = [seg.mw for seg in u.cost_curve]
        lb += [0.0] * (w * H)
        ub += [*(1.0, 1.0, 1.0)[:L], u.p_max, *segments] * H
        obj += [*(u.no_load_cost, u.startup_cost, 0.0)[:L], 0.0, *(seg.price for seg in u.cost_curve)] * H
        kinds += [*(BINARY, CONTINUOUS, CONTINUOUS)[:L], *[CONTINUOUS] * (K + 1)] * H
        col_hours += [t for t in hours for _ in fields]
        for j, f in enumerate(fields[:L + 1]):
            cols[f].update(zip([(u.id, t) for t in hours], range(first + j, first + w * H, w)))
        # per hour: r_pdef on p and its segments, then (free commitment) r_pmin and r_pmax on p and uT
        row_names += [f"{r}.{u.id}.t{t}" for t in hours for r in ("r_pdef", "r_pmin", "r_pmax")[:R]]
        lengths += [1 + K, 2, 2][:R] * H
        offsets = (L, *range(L + 1, L + 1 + K), *(L, 0, L, 0)[:2 * R - 2])
        index += [c + o for c in range(first, first + w * H, w) for o in offsets]
        value += [1.0, *[-1.0] * K, *(1.0, -u.p_min, 1.0, -u.p_max)[:2 * R - 2]] * H
        first += w * H
    model.add_vars(names, lb, ub, obj, kinds, col_hours)
    model.add_rows(row_names, list(itertools.accumulate(lengths, initial=0)), index, value,
                   [EQ, GE, LE][:R] * (len(units) * H), 0.0, [t for _ in units for t in hours for _ in range(R)])
    if pinned:
        _write_thermal_plan(model, units, hours, commitment, cols["p"])
    return cols


def _write_thermal_plan(model: MilpModel, units: Sequence[ThermalUnit], hours: Sequence[int],
                        commitment: Mapping[str, Sequence[int]], p: Mapping[tuple[str, int], int]) -> None:
    """Pin each unit to its day plan ``commitment`` over ``hours``: its
    output ``p`` is bounded to ``[c*p_min, c*p_max]``, and the plan's
    no-load charges and start-up charges (an hour on after an hour off;
    before hour 1 the unit's initial status) join
    ``model.objective_constant``, and each hour's share of them
    ``model.meta["thermal_constant"]`` (see :func:`costs_by_hour`)."""
    by_hour = model.meta.setdefault("thermal_constant", {})
    for u in units:
        plan = commitment[u.id]
        for t in hours:
            c = plan[t - 1]
            was = plan[t - 2] if t > 1 else int(u.initial_status.committed)
            model.set_var_bounds(p[(u.id, t)], c * u.p_min, c * u.p_max)
            charge = c * u.no_load_cost + (u.startup_cost if c > was else 0.0)
            model.objective_constant += charge
            by_hour[t] = by_hour.get(t, 0.0) + charge


def costs_by_hour(model: MilpModel, sol: MilpSolution) -> dict[int | None, float]:
    """A window solution's objective split by hour: its column costs by
    their hour, plus each hour's share of the pinned thermal no-load
    and start-up charges.  The parts sum to ``sol.objective``; columns
    without an hour (a tail's value or risk column) sit under None."""
    parts = model.cost_by_hour(sol.values)
    for t, charge in model.meta.get("thermal_constant", {}).items():
        parts[t] = parts.get(t, 0.0) + charge
    return parts


def _add_balance(
    model: MilpModel,
    system: PowerSystem,
    hours: Sequence[int],
    load: Sequence[float],
    thermal_p: Mapping[tuple[str, int], int],
    det: PshBlock,
    voll: float,
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """Hourly power balance with value-of-lost-load slacks on both sides.

    ``load`` holds one value per hour of ``hours``.  Returns the balance
    row and the (short, surplus) slack pair of each hour.
    """
    H = len(hours)
    if len(load) != H:
        raise ValueError(f"{len(load)} load values for {H} hours")
    first = int(model.add_vars(
        [f"slack_{side}.t{t}" for t in hours for side in ("short", "surplus")], obj=voll,
        hour=[t for t in hours for _ in range(2)],
    )[0])
    slack = [(first + 2 * h, first + 2 * h + 1) for h in range(H)]
    index = [j for t, pair in zip(hours, slack)
             for j in (*pair, *(thermal_p[(u.id, t)] for u in system.thermal_units),
                       *(q[(u.id, t)] for u in system.psh_units for q in (det.q_gen, det.q_pump)))]
    value = [1.0, -1.0] + [1.0] * len(system.thermal_units) + [1.0, -1.0] * len(system.psh_units)
    w = len(value)
    rows = model.add_rows([f"r_balance.t{t}" for t in hours], range(0, w * H + 1, w), index, value * H, EQ,
                          [float(v) for v in load], hours)
    return dict(zip(hours, rows.tolist())), dict(zip(hours, slack))


def _base_window_model(
    name: str,
    instance: LacInstance,
    cfg: ModelConfig,
    with_scenarios: bool,
) -> MilpModel:
    sys = instance.system
    model = MilpModel(name)
    hours = instance.window.window_hours()
    te = hours[-1]
    T = sys.grid.horizon_end

    commitment = instance.da.commitment
    thermal_p = _add_thermal_dispatch(model, sys.thermal_units, hours, commitment)["p"]

    det = create_psh_block(model, sys.psh_units, hours)
    for u in sys.psh_units:
        add_mode_logic(model, det, u, prev=instance.prev_modes[u.id])
        add_dispatch_boxes(model, det, u)

    soc_by_res = {}
    for r in sys.reservoirs:
        soc = add_soc_dynamics(
            model,
            r,
            sys.psh_units,
            det,
            e_initial=float(instance.soc_state[r.id]),
            dt=sys.grid.interval_hours,
            edge=te == T or with_scenarios,
        )
        if te == T:
            soc.end_row = add_end_target(model, r.id, soc.e_det[(r.id, T + 1)],
                                         float(instance.da.end_soc[r.id]), cfg.end_soc)
        soc_by_res[r.id] = soc

    balance_rows, slack_vars = _add_balance(model, sys, hours, instance.net_load, thermal_p, det, cfg.voll)
    # the thermal commitments are pinned, so the PSH modes are every
    # binary; _add_tails widens this to the blocks it keeps
    model.rounding = ModeRounding((det,))

    model.meta.update(
        det_block=det,
        soc=soc_by_res,
        commitment=commitment,
        thermal_p=thermal_p,
        balance_rows=balance_rows,
        slack_vars=slack_vars,
        window_hours=tuple(hours),
        block=_Block(name, sys, cfg, len(hours), te == T, hours[0], model.n_vars, model.n_rows, model.rounding),
    )
    return model


@dataclass(frozen=True)
class _Block:
    """A window model's in-window block, its first ``n_vars`` columns
    and ``n_rows`` rows, and what it is built from besides its first
    hour ``t1`` and the data :func:`_write_window_data` writes."""

    variant: str
    system: PowerSystem
    cfg: ModelConfig
    length: int
    day_end: bool  # the window reaches the day end: no tail, the end-of-day targets
    t1: int
    n_vars: int
    n_rows: int
    rounding: ModeRounding  # of the window block's modes; it names only block columns

    def fits(self, variant: Variant, instance: LacInstance, cfg: ModelConfig) -> bool:
        """Whether ``instance``'s block, under ``variant`` and ``cfg``, is
        this one some hours later."""
        hours = instance.window.window_hours()
        return (self.system is instance.system and self.variant == variant.value and self.cfg == cfg
                and self.length == len(hours) and self.day_end == (hours[-1] == self.system.grid.horizon_end))


def _redated(previous: MilpModel, instance: LacInstance) -> MilpModel:
    """The in-window block of ``previous`` moved to ``instance``'s hours
    (``MilpModel.redated``), its handles with it, and ``instance``'s data
    written in.  The caller checks that the block fits (:meth:`_Block.fits`)."""
    block: _Block = previous.meta["block"]
    t1 = instance.window.start_index
    by = t1 - block.t1
    model = previous.redated(block.n_vars, block.n_rows, by)
    old = previous.meta
    model.meta.update(
        det_block=old["det_block"].shifted(by),
        soc={rid: soc.shifted(by) for rid, soc in old["soc"].items()},
        thermal_p={(uid, t + by): j for (uid, t), j in old["thermal_p"].items()},
        balance_rows={t + by: i for t, i in old["balance_rows"].items()},
        slack_vars={t + by: pair for t, pair in old["slack_vars"].items()},
        window_hours=tuple(t + by for t in old["window_hours"]),
        block=replace(block, t1=t1),
    )
    model.rounding = block.rounding
    _write_window_data(model, instance)
    return model


def _write_window_data(model: MilpModel, instance: LacInstance) -> None:
    """Write what a window block takes from ``instance`` into a re-dated
    one, through the writers the fresh build uses: the thermal plan's
    bounds and constant (:func:`_write_thermal_plan`), the modes entering
    the window (``psh_model.set_entry_mode``), the storage entering it,
    the end-of-day targets of a window that reaches the day end, and the
    load on the balance rows.  The day-ahead schedule of
    ``current_practice`` is written by :func:`build_variant` after either
    build."""
    sys = instance.system
    meta = model.meta
    meta["commitment"] = instance.da.commitment
    _write_thermal_plan(model, sys.thermal_units, meta["window_hours"], instance.da.commitment, meta["thermal_p"])
    det = meta["det_block"]
    for u in sys.psh_units:
        set_entry_mode(model, det, u, instance.prev_modes[u.id])
    for r in sys.reservoirs:
        soc = meta["soc"][r.id]
        model.set_rhs((soc.init_row,), float(instance.soc_state[r.id]))
        if soc.end_row is not None:
            model.set_rhs((soc.end_row,), float(instance.da.end_soc[r.id]))
    model.set_rhs(list(meta["balance_rows"].values()), instance.net_load)


def _has_floor(unit: PshUnit) -> bool:
    """A dispatch floor keeps the unit's scenario mode binaries at any price."""
    return unit.gen_min > 0.0 or unit.pump_min > 0.0


def _scenario_prices(scn: PriceScenarioSet, cfg: ModelConfig) -> np.ndarray:
    """Post-window prices with the tiny time-preference ramp applied.

    The ramp makes later hours marginally dearer, so at equal prices the
    optimizer pumps early and generates late; it keeps solutions unique
    without touching any comparison at reporting precision.
    """
    prices = np.array(scn.prices, dtype=float)
    H = prices.shape[2]
    if cfg.time_preference:
        prices = prices + cfg.time_preference * np.arange(1, H + 1)
    return prices


@dataclass(frozen=True)
class TailPlan:
    """What a window's scenario tails are priced with, worked out before
    its model is built (:func:`plan_tails`)."""

    scenario_set: PriceScenarioSet  # the window's post-window set
    prices: np.ndarray  # (S, units, hours): each PSH unit's ramped price
    mode_cells: np.ndarray  # (S, units, hours): cells that keep mode binaries
    by_cuts: tuple[int, ...]  # scenarios priced by cuts; the others keep blocks
    cuts: dict[str, TailCuts]  # reservoir -> cuts of those scenarios, in that order


def plan_tails(system: PowerSystem, da: DaReference, sets: Sequence[PriceScenarioSet | None],
               cfg: ModelConfig | None = None) -> list[TailPlan | None]:
    """The tail plans of a day's windows, one per post-window scenario
    set (None where a window has no set or no post-window hour).

    Per window: the ramped price of each PSH unit's node, the cells a
    dispatch floor or a negative price keeps in mode binaries, and the
    scenarios without such a cell, which are priced by cuts.  The cuts
    of every window come from one call of
    ``psh_model.tail_value_functions`` per reservoir.  A window where
    no edge storage reaches a reservoir's end-of-day target keeps every
    scenario as a block, so that its IIS names the storage rows at
    fault.  A lone window is a day of one window, and its plan is the
    same to the bit.
    """
    cfg = cfg or ModelConfig()
    units = system.psh_units
    for r in system.reservoirs:
        if r.id not in da.end_soc:
            raise ConfigurationError(f"missing day-ahead end SOC target for reservoir {r.id}")
    floors = np.array([_has_floor(u) for u in units], dtype=bool)
    plans: list[TailPlan | None] = []
    for scn in sets:
        if scn is None or scn.prices.shape[2] == 0:
            plans.append(None)
            continue
        for u in units:
            if u.node_id not in scn.nodes:
                raise ConfigurationError(f"scenario set lacks node {u.node_id}")
        prices = _scenario_prices(scn, cfg)[:, [scn.nodes.index(u.node_id) for u in units], :]
        mode_cells = floors[None, :, None] | (prices < 0.0)
        by_cuts = tuple(int(s) for s in np.flatnonzero(~mode_cells.any(axis=(1, 2))))
        plans.append(TailPlan(scn, prices, mode_cells, by_cuts, {}))
    priced = [p for p in plans if p is not None and p.by_cuts]
    if not priced:
        return plans
    for r in system.reservoirs:
        idx = [i for i, u in enumerate(units) if u.reservoir_id == r.id]
        found = tail_value_functions(r, [units[i] for i in idx], [p.prices[np.ix_(p.by_cuts, idx)] for p in priced],
                                     float(da.end_soc[r.id]), cfg.end_soc, system.grid.interval_hours)
        for p, cuts in zip(priced, found):
            p.cuts[r.id] = cuts
    # no edge storage reaches a target: blocks name the rows at fault
    return [replace(p, by_cuts=(), cuts={}) if p is not None and None in p.cuts.values() else p for p in plans]


@dataclass
class ScenarioTails:
    """Handles of a window's scenario tails (see :func:`_add_tails`)."""

    edge: dict[str, int]  # reservoir -> edge-storage column
    scenarios: tuple[int, ...]  # scenarios priced by cuts
    cuts: dict[str, TailCuts]  # reservoir -> cuts of those scenarios, in that order
    blocks: list[PshBlock]  # scenarios kept as explicit dispatch blocks
    weights: tuple[float, ...] | None  # expected-value weights, None for the worst case
    da_revenue: dict[str, np.ndarray]  # reservoir -> day-ahead revenue per scenario

    def water_value(self, sol: MilpSolution) -> tuple[float, ...]:
        """Per reservoir, the marginal tail value of edge storage at the
        solution: the weighted slope of each scenario's active cut, or in
        the worst case the slope of the binding scenario's.  Empty when a
        scenario kept its block, which reports no slope."""
        if self.blocks:
            return ()
        out = []
        for rid, cuts in self.cuts.items():
            e = sol.value(self.edge[rid])
            slopes = cuts.slopes_at(e)
            if self.weights is None:
                out.append(float(slopes[np.argmax(self.da_revenue[rid][list(self.scenarios)] - cuts.values(e))]))
            else:
                out.append(float(np.dot(np.asarray(self.weights)[list(self.scenarios)], slopes)))
        return tuple(out)


def _add_tails(model: MilpModel, instance: LacInstance, cfg: ModelConfig, plan: TailPlan | None,
               robust: bool) -> None:
    """Price the post-window hours of every scenario.

    By default a tail counts by its revenue at the set's weights, the
    expected value (stochastic; deterministic at its one trajectory).
    ``robust``, it counts by the worst case over scenarios of the
    shortfall against the day-ahead position, one ``w_risk.<res>`` per
    reservoir.  Per
    reservoir and scenario whose tail has no mode cell, each piece
    ``(x_k, y_k, b_k)`` of ``V_s`` on the edge column ``e`` gives

    * expected: ``r_cut.<res>.s<s>.k<k>``, ``theta - b_k*e <= y_k - b_k*x_k``,
      on a free ``theta.<res>.s<s>`` costing ``-w_s``
    * worst case: ``r_risk.<res>.s<s>.k<k>``,
      ``w_risk + b_k*e >= DA_s - y_k + b_k*x_k``

    and the domain of ``V_s`` bounds ``e`` by the rows
    ``r_tail_min.<res>`` and ``r_tail_max.<res>``, so that a window that
    cannot reach it names them in its IIS.  A scenario with a mode cell
    keeps an explicit block tied to ``e``: its revenue in the objective,
    or its own ``r_risk.<res>.s<s>`` row.  The prices, the scenarios
    priced by cuts and their cuts come from ``plan``
    (:func:`plan_tails`); a window without one has no tail.
    """
    if plan is None:
        return
    scn = instance.scenario_set
    weights = None if robust else scn.weights
    sys = instance.system
    units = sys.psh_units
    te = model.meta["window_hours"][-1]
    post = list(range(te + 1, sys.grid.horizon_end + 1))
    dt = sys.grid.interval_hours
    prices, mode_cells, by_cuts, cuts = plan.prices, plan.mode_cells, plan.by_cuts, plan.cuts
    members = {r.id: [i for i, u in enumerate(units) if u.reservoir_id == r.id] for r in sys.reservoirs}
    target = {r.id: float(instance.da.end_soc[r.id]) for r in sys.reservoirs}
    edge = {r.id: model.meta["soc"][r.id].e_det[(r.id, te + 1)] for r in sys.reservoirs}

    da_net = np.array([np.asarray(instance.da.gen[u.id][te:]) - np.asarray(instance.da.pump[u.id][te:])
                       for u in units]).reshape(len(units), len(post))
    da_unit = np.einsum("suh,uh->su", prices, da_net)
    da_revenue = {rid: da_unit[:, idx].sum(axis=1) for rid, idx in members.items()}
    risk = {}
    if weights is None:
        risk = {r.id: model.add_var(f"w_risk.{r.id}", lb=-math.inf, ub=math.inf, obj=1.0) for r in sys.reservoirs}
        model.meta["risk_vars"] = risk

    for rid, found in cuts.items():
        e = edge[rid]
        model.add_rows([f"r_tail_min.{rid}", f"r_tail_max.{rid}"], (0, 1, 2), (e, e), (1.0, 1.0), (GE, LE),
                       (found.lo, found.hi))
        # one row per piece k of each scenario s, s by s
        x, y, b, pieces = found.x, found.y, found.slope, np.diff(found.start)
        owner = np.repeat(by_cuts, pieces)  # the scenario of each row
        ks = list(zip(owner.tolist(), (np.arange(b.size) - np.repeat(found.start[:-1], pieces)).tolist()))
        if weights is not None:
            theta = model.add_vars([f"theta.{rid}.s{s}" for s in by_cuts], -math.inf, math.inf,
                                   [-weights[s] for s in by_cuts])
            names, lead, slope, sense, rhs = ([f"r_cut.{rid}.s{s}.k{k}" for s, k in ks],
                                              np.repeat(theta, pieces), -b, LE, y - b * x)
        else:
            names, lead, slope, sense, rhs = ([f"r_risk.{rid}.s{s}.k{k}" for s, k in ks],
                                              np.full(b.size, risk[rid]), b, GE,
                                              da_revenue[rid][owner] - y + b * x)
        model.add_rows(names, np.arange(0, 2 * b.size + 1, 2), np.column_stack([lead, np.full(b.size, e)]).ravel(),
                       np.column_stack([np.ones(b.size), slope]).ravel(), sense, rhs)

    blocks = []
    for s in sorted(set(range(scn.count)) - set(by_cuts)):
        cells = {(units[i].id, post[h]) for i, h in zip(*np.nonzero(mode_cells[s]))}
        blk = create_psh_block(model, units, post, s, cells)
        for u in units:
            add_mode_logic(model, blk, u)
            add_dispatch_boxes(model, blk, u)
        for r in sys.reservoirs:
            add_block_soc(model, r, units, blk, edge[r.id], target[r.id], cfg.end_soc, dt)
        for rid, idx in members.items():
            revenue: dict[int, float] = {}
            for i in idx:
                for h, t in enumerate(post):
                    revenue[blk.q_gen[(units[i].id, t)]] = float(prices[s, i, h])
                    revenue[blk.q_pump[(units[i].id, t)]] = -float(prices[s, i, h])
            if weights is None:
                model.add_row(f"r_risk.{rid}.s{s}", {risk[rid]: 1.0, **revenue}, GE, float(da_revenue[rid][s]))
            else:
                for j, c in revenue.items():
                    model.add_obj(j, -weights[s] * c)
        blocks.append(blk)
    if blocks:
        model.rounding = ModeRounding((model.meta["det_block"], *blocks))

    model.meta["tails"] = ScenarioTails(
        edge, by_cuts, cuts, blocks,
        None if weights is None else tuple(weights), da_revenue,
    )


def build_variant(
    variant: Variant,
    instance: LacInstance,
    cfg: ModelConfig | None = None,
    previous: MilpModel | None = None,
    tails: TailPlan | None = None,
) -> MilpModel:
    """The window model of ``variant``: the shared in-window structure,
    then the variant's finish (the module docstring lists them).

    ``previous`` is a model this function built earlier, or None.  When
    it has the same variant, system and ``cfg`` and a window of the same
    length that reaches the day end exactly when this one does, its
    in-window block is copied and re-dated instead of built
    (:func:`_redated`), and the result equals a fresh build element by
    element.  The block is copied as it stands: a caller that changed
    bounds of ``previous`` outside the instance's data writes them again
    (as ``accounting.full_day_resolve`` does with the modes it fixes).
    Any other ``previous`` is ignored.

    ``tails`` is the window's entry of :func:`plan_tails`, planned over
    its own scenario set with the same ``cfg``; a scenario variant
    without one plans the window alone, to the same model.
    """
    try:
        variant = Variant(variant)
    except ValueError:
        raise ConfigurationError(f"unknown variant {variant!r}") from None
    cfg = cfg or ModelConfig()
    win = instance.window
    scn = instance.scenario_set
    if win.window_end < win.horizon_end:
        if variant == Variant.PERFECT:
            raise ConfigurationError(
                f"perfect variant needs a window through hour {win.horizon_end}, "
                f"not one ending at hour {win.window_end}"
            )
        if variant == Variant.DETERMINISTIC and (scn is None or scn.count != 1):
            raise ConfigurationError("deterministic variant expects exactly one scenario trajectory")
    with_scenarios = variant in SCENARIO_VARIANTS
    _validate_instance(instance, need_scenarios=with_scenarios)
    block = None if previous is None else previous.meta.get("block")
    if block is not None and block.fits(variant, instance, cfg):
        model = _redated(previous, instance)
    else:
        model = _base_window_model(variant.value, instance, cfg, with_scenarios)
    if variant == Variant.CURRENT_PRACTICE:
        det: PshBlock = model.meta["det_block"]
        hours = win.window_hours()
        for u in instance.system.psh_units:
            gen = {t: instance.da.gen[u.id][t - 1] for t in hours}
            pump = {t: instance.da.pump[u.id][t - 1] for t in hours}
            try:
                fix_block_to_schedule(model, det, u, gen, pump)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from exc
    elif with_scenarios:
        if tails is None:
            tails = plan_tails(instance.system, instance.da, [scn], cfg)[0]
        elif tails.scenario_set is not scn:
            raise ConfigurationError("the tail plan was made for another scenario set")
        _add_tails(model, instance, cfg, tails, robust=variant == Variant.ROBUST)
    return model


# ---------------------------------------------------------------------------
# day-ahead reference problem


def build_da_model(
    system: PowerSystem,
    da_load: Sequence[float],
    cfg: ModelConfig | None = None,
    reserve_margin: float = 0.0,
) -> MilpModel:
    """Full-day unit commitment on day-ahead load with free commitments.

    Thermal units carry start/stop indicator pairs with minimum up and
    down times; PSH units are fully free and reservoirs close the day at
    their configured final target.  A nonzero reserve margin requires
    committed thermal headroom plus storage capability to cover the load
    with that margin in every hour.
    """
    cfg = cfg or ModelConfig()
    T = system.grid.horizon_end
    hours = list(range(1, T + 1))
    if len(da_load) != T:
        raise ConfigurationError(f"da_load has {len(da_load)} values, expected {T}")
    model = MilpModel("da_reference")

    thermal_p: dict[tuple[str, int], int] = {}
    thermal_u: dict[tuple[str, int], int] = {}
    for u in system.thermal_units:
        cols = _add_thermal_dispatch(model, (u,), hours)
        uT, wT, zT = ([cols[f][(u.id, t)] for t in hours] for f in ("uT", "wT", "zT"))
        thermal_u.update(cols["uT"])
        thermal_p.update(cols["p"])
        # u[t] - w[t] + z[t] - u[t-1] == 0, with u[0] the initial status
        # on the rhs (its zero coefficient in hour 1 drops the entry)
        value = np.tile([1.0, -1.0, 1.0, -1.0], (T, 1))
        value[0, 3] = 0.0
        model.add_rows([f"r_commit_flow.{u.id}.t{t}" for t in hours], np.arange(0, 4 * T + 1, 4),
                       np.column_stack([uT, wT, zT, [uT[0], *uT[:-1]]]).ravel(), value.ravel(), EQ,
                       [float(int(u.initial_status.committed))] + [0.0] * (T - 1), hours)
        # a start in the last min_up hours keeps the unit on, a stop in
        # the last min_down hours keeps it off
        for rule, duration, flips, sign, rhs in (("min_up", u.min_up, wT, -1.0, 0.0),
                                                 ("min_down", u.min_down, zT, 1.0, 1.0)):
            if duration <= 1:
                continue
            recent = [flips[max(0, t - duration):t] for t in hours]
            model.add_rows([f"r_{rule}.{u.id}.t{t}" for t in hours], np.r_[0, np.cumsum([len(r) + 1 for r in recent])],
                           [j for r, t in zip(recent, hours) for j in (*r, uT[t - 1])],
                           [c for r in recent for c in (*[1.0] * len(r), sign)], LE, rhs, hours)
        # lock remaining minimum duration from the initial state
        if u.initial_status.committed and u.min_up > u.initial_status.hours:
            for t in range(1, min(T, u.min_up - u.initial_status.hours) + 1):
                model.set_var_bounds(thermal_u[(u.id, t)], 1.0, 1.0)
        if not u.initial_status.committed and u.min_down > u.initial_status.hours:
            for t in range(1, min(T, u.min_down - u.initial_status.hours) + 1):
                model.set_var_bounds(thermal_u[(u.id, t)], 0.0, 0.0)

    det = create_psh_block(model, system.psh_units, hours)
    for u in system.psh_units:
        add_mode_logic(model, det, u, prev=u.initial_mode)
        add_dispatch_boxes(model, det, u)
    for r in system.reservoirs:
        soc = add_soc_dynamics(model, r, system.psh_units, det, e_initial=r.e_initial,
                               dt=system.grid.interval_hours)
        add_end_target(model, r.id, soc.e_det[(r.id, T + 1)], r.e_final_target, cfg.end_soc)

    balance_rows, _ = _add_balance(model, system, hours, da_load, thermal_p, det, cfg.voll)
    if reserve_margin > 0.0:
        quick = sum(u.gen_max for u in system.psh_units)
        n = len(system.thermal_units)
        model.add_rows([f"r_reserve.t{t}" for t in hours], np.arange(0, n * T + 1, n),
                       [thermal_u[(u.id, t)] for t in hours for u in system.thermal_units],
                       np.tile([u.p_max for u in system.thermal_units], T), GE,
                       [(1.0 + reserve_margin) * float(da_load[t - 1]) - quick for t in hours], hours)
    model.meta.update(
        det_block=det, thermal_u=thermal_u, thermal_p=thermal_p, balance_rows=balance_rows,
        window_hours=tuple(hours),
    )
    return model


def extract_da_reference(system: PowerSystem, model: MilpModel, solution: MilpSolution) -> DaReference:
    if not solution.ok:
        raise ConfigurationError(f"day-ahead reference not solved: {solution.status}")
    T = system.grid.horizon_end
    det: PshBlock = model.meta["det_block"]
    gen = {}
    pump = {}
    for u in system.psh_units:
        gen[u.id] = tuple(snap_zero(solution.value(det.q_gen[(u.id, t)])) for t in range(1, T + 1))
        pump[u.id] = tuple(snap_zero(solution.value(det.q_pump[(u.id, t)])) for t in range(1, T + 1))
    commitment = {
        u.id: tuple(solution.binary_value(model.meta["thermal_u"][(u.id, t)]) for t in range(1, T + 1))
        for u in system.thermal_units
    }
    end_soc = {}
    for r in system.reservoirs:
        end_soc[r.id] = float(solution.value(model.var_index(f"e.{r.id}.t{T + 1}")))
    return DaReference(gen, pump, commitment, end_soc)


def apply_da_reference(system: PowerSystem, ref: DaReference) -> PowerSystem:
    """Embed the reference schedules into the unit records."""
    thermal = tuple(replace(u, da_commitment=ref.commitment[u.id]) for u in system.thermal_units)
    psh = tuple(replace(u, da_gen=ref.gen[u.id], da_pump=ref.pump[u.id]) for u in system.psh_units)
    return replace(system, thermal_units=thermal, psh_units=psh)


def da_reference_from_system(system: PowerSystem) -> DaReference:
    """Rebuild the reference from schedules already stored on the units."""
    for u in system.thermal_units:
        if u.da_commitment is None:
            raise ConfigurationError(f"thermal unit {u.id} lacks a day-ahead commitment")
    for u in system.psh_units:
        if u.da_gen is None or u.da_pump is None:
            raise ConfigurationError(f"PSH unit {u.id} lacks a day-ahead schedule")
    return DaReference(
        gen={u.id: tuple(u.da_gen) for u in system.psh_units},
        pump={u.id: tuple(u.da_pump) for u in system.psh_units},
        commitment={u.id: tuple(u.da_commitment) for u in system.thermal_units},
        end_soc={r.id: r.e_final_target for r in system.reservoirs},
    )
