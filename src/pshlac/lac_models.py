"""Window model builders for the benchmark variants.

All variants share one in-window structure: thermal units at their
day-ahead commitment with convex dispatch cost, pumped-storage units
free to re-commit, a system power balance with value-of-lost-load
slacks, and reservoir dynamics.  They differ in how hours after the
window are valued:

* ``current_practice``  PSH pinned to the day-ahead schedule, no view
  beyond the window
* ``perfect``           a window that reaches the end of the day, so
  realized load covers every remaining hour and no price proxy is needed
* ``deterministic``     a single point-forecast trajectory prices the
  post-window net sales of each PSH unit
* ``stochastic``        the expectation of that revenue over a scenario
  set
* ``robust``            the worst case over scenarios of the revenue
  shortfall relative to the day-ahead position, one epigraph variable
  per reservoir

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .core import (
    PowerSystem,
    PriceScenarioSet,
    PshUnit,
    ThermalUnit,
    TimeGrid,
)
from .milp import BINARY, EQ, GE, LE, MilpModel, MilpSolution, Tag
from .psh_model import (
    PshBlock,
    TailCuts,
    add_block_soc,
    add_dispatch_boxes,
    add_end_target,
    add_mode_logic,
    add_soc_dynamics,
    create_psh_block,
    fix_block_to_schedule,
    modes_from_dispatch,
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
    gap_tol: float = 1e-3
    time_limit: float = 60.0
    end_soc: str = "fix"  # "fix" -> equality at the day end, "relax" -> lower bound
    time_preference: float = 1e-5  # $/MWh/h ramp breaking price ties in the post-window range


@dataclass(frozen=True)
class DaReference:
    """Day-ahead schedules every window model leans on."""

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
    da: DaReference
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
    for u in sys.psh_units:
        if u.id not in instance.prev_modes:
            raise ConfigurationError(f"missing previous mode for unit {u.id}")
    scn = instance.scenario_set
    if scn is not None and scn.prices.shape[2] > 0:
        if scn.start_hour != te + 1 or scn.end_hour != T:
            raise ConfigurationError(
                f"scenario hours [{scn.start_hour}, {scn.end_hour}] do not match post-window [{te + 1}, {T}]"
            )
        w = np.asarray(scn.weights)
        if abs(float(w.sum()) - 1.0) > 1e-9 or np.any(w <= 0):
            raise ConfigurationError("scenario weights must be positive and sum to 1")
        for u in sys.psh_units:
            if u.node_id not in scn.nodes:
                raise ConfigurationError(f"scenario set lacks node {u.node_id}")
    if need_scenarios and te < T and (scn is None or scn.prices.shape[2] == 0):
        raise ConfigurationError("scenario set required while post-window hours remain")


def _thermal_da_value(unit: ThermalUnit, hour: int) -> int:
    if unit.da_commitment is None:
        raise ConfigurationError(f"thermal unit {unit.id} has no day-ahead commitment")
    return int(unit.da_commitment[hour - 1])


def _thermal_prev(unit: ThermalUnit, hour: int) -> int:
    if hour == 1:
        return int(unit.initial_status.committed)
    return _thermal_da_value(unit, hour - 1)


def _startup_constant(system: PowerSystem, hours: Sequence[int]) -> float:
    """Start-up charges already decided by the fixed commitment plan."""
    tot = 0.0
    for u in system.thermal_units:
        for t in hours:
            if _thermal_da_value(u, t) == 1 and _thermal_prev(u, t) == 0:
                tot += u.startup_cost
    return tot


def _add_thermal_dispatch(model: MilpModel, unit: ThermalUnit, t: int, u_idx: int) -> int:
    """Piecewise-linear cost segments plus the min/max link to commitment."""
    p = model.add_var(f"p.{unit.id}.t{t}", ub=unit.p_max, tag=Tag("thermal_power", unit.id, t))
    seg_ids = []
    for k, seg in enumerate(unit.cost_curve):
        seg_ids.append(
            model.add_var(
                f"pseg{k}.{unit.id}.t{t}", ub=seg.mw, obj=seg.price,
                tag=Tag("thermal_segment", f"{unit.id}:{k}", t),
            )
        )
    coeffs = {p: 1.0}
    for si in seg_ids:
        coeffs[si] = -1.0
    model.add_row(f"r_pdef.{unit.id}.t{t}", coeffs, EQ, 0.0, Tag("thermal_link", unit.id, t))
    model.add_row(
        f"r_pmin.{unit.id}.t{t}", {p: 1.0, u_idx: -unit.p_min}, GE, 0.0, Tag("thermal_min", unit.id, t)
    )
    model.add_row(
        f"r_pmax.{unit.id}.t{t}", {p: 1.0, u_idx: -unit.p_max}, LE, 0.0, Tag("thermal_max", unit.id, t)
    )
    return p


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
    balance_rows = {}
    slack_vars = {}
    for t, demand in zip(hours, load, strict=True):
        sh = model.add_var(f"slack_short.t{t}", obj=voll, tag=Tag("balance_slack", "short", t))
        su = model.add_var(f"slack_surplus.t{t}", obj=voll, tag=Tag("balance_slack", "surplus", t))
        coeffs: dict[int, float] = {sh: 1.0, su: -1.0}
        for u in system.thermal_units:
            coeffs[thermal_p[(u.id, t)]] = 1.0
        for u in system.psh_units:
            coeffs[det.q_gen[(u.id, t)]] = 1.0
            coeffs[det.q_pump[(u.id, t)]] = -1.0
        balance_rows[t] = model.add_row(
            f"r_balance.t{t}", coeffs, EQ, float(demand), Tag("power_balance", None, t)
        )
        slack_vars[t] = (sh, su)
    return balance_rows, slack_vars


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

    thermal_u: dict[tuple[str, int], int] = {}
    thermal_p: dict[tuple[str, int], int] = {}
    for u in sys.thermal_units:
        for t in hours:
            ui = model.add_var(
                f"uT.{u.id}.t{t}", kind=BINARY, obj=u.no_load_cost, tag=Tag("thermal_commit", u.id, t)
            )
            val = float(_thermal_da_value(u, t))
            model.set_var_bounds(ui, val, val)  # commitments respect the DA plan
            thermal_u[(u.id, t)] = ui
            thermal_p[(u.id, t)] = _add_thermal_dispatch(model, u, t, ui)
    model.objective_constant += _startup_constant(sys, hours)

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
            add_end_target(model, r.id, soc.e_det[(r.id, T + 1)],
                           float(instance.da.end_soc[r.id]), cfg.end_soc)
        soc_by_res[r.id] = soc

    balance_rows, slack_vars = _add_balance(model, sys, hours, instance.net_load, thermal_p, det, cfg.voll)
    # the thermal commitments are fixed, so the PSH modes are every free
    # binary; _add_tails widens this to the blocks it keeps
    model.rounding = partial(modes_from_dispatch, (det,))

    model.meta.update(
        det_block=det,
        soc=soc_by_res,
        thermal_u=thermal_u,
        thermal_p=thermal_p,
        balance_rows=balance_rows,
        slack_vars=slack_vars,
        window_hours=tuple(hours),
    )
    return model


def _has_floor(unit: PshUnit) -> bool:
    """A dispatch floor keeps the unit's scenario mode binaries at any price."""
    return unit.gen_min > 0.0 or unit.pump_min > 0.0


def _scenario_prices(instance: LacInstance, cfg: ModelConfig) -> np.ndarray:
    """Post-window prices with the tiny time-preference ramp applied.

    The ramp makes later hours marginally dearer, so at equal prices the
    optimizer pumps early and generates late; it keeps solutions unique
    without touching any comparison at reporting precision.
    """
    scn = instance.scenario_set
    prices = np.array(scn.prices, dtype=float)
    H = prices.shape[2]
    if cfg.time_preference:
        prices = prices + cfg.time_preference * np.arange(1, H + 1)
    return prices


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
            slopes = np.array([cuts.slope_at(i, e) for i in range(len(self.scenarios))])
            if self.weights is None:
                values = np.array([cuts.value(i, e) for i in range(len(self.scenarios))])
                out.append(float(slopes[np.argmax(self.da_revenue[rid][list(self.scenarios)] - values)]))
            else:
                out.append(float(np.dot([self.weights[s] for s in self.scenarios], slopes)))
        return tuple(out)


def _add_tails(model: MilpModel, instance: LacInstance, cfg: ModelConfig,
               weights: Sequence[float] | None) -> None:
    """Price the post-window hours of every scenario.

    With ``weights`` a tail counts by its weighted revenue, the expected
    value (stochastic; deterministic at weight 1).  With ``None`` it
    counts by the worst case over scenarios of the shortfall against the
    day-ahead position, one ``w_risk.<res>`` per reservoir (robust).  Per
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
    or its own ``r_risk.<res>.s<s>`` row.
    """
    scn = instance.scenario_set
    if scn is None or scn.prices.shape[2] == 0:
        return
    sys = instance.system
    units = sys.psh_units
    te = model.meta["window_hours"][-1]
    post = list(range(te + 1, sys.grid.horizon_end + 1))
    dt = sys.grid.interval_hours
    # (S, units, hours): each unit's ramped price
    prices = _scenario_prices(instance, cfg)[:, [scn.nodes.index(u.node_id) for u in units], :]
    floors = np.array([_has_floor(u) for u in units], dtype=bool)
    mode_cells = floors[None, :, None] | (prices < 0.0)
    members = {r.id: [i for i, u in enumerate(units) if u.reservoir_id == r.id] for r in sys.reservoirs}
    target = {r.id: float(instance.da.end_soc[r.id]) for r in sys.reservoirs}
    edge = {r.id: model.meta["soc"][r.id].e_det[(r.id, te + 1)] for r in sys.reservoirs}

    by_cuts = tuple(int(s) for s in np.flatnonzero(~mode_cells.any(axis=(1, 2))))
    cuts: dict[str, TailCuts] = {}
    for r in sys.reservoirs:
        if not by_cuts:
            break
        idx = members[r.id]
        found = tail_value_functions(r, [units[i] for i in idx], prices[np.ix_(by_cuts, idx)],
                                     target[r.id], cfg.end_soc, dt)
        if found is None:  # no edge storage reaches the target: blocks name the rows at fault
            by_cuts, cuts = (), {}
            break
        cuts[r.id] = found

    da_net = np.array([np.asarray(instance.da.gen[u.id][te:]) - np.asarray(instance.da.pump[u.id][te:])
                       for u in units]).reshape(len(units), len(post))
    da_unit = np.einsum("suh,uh->su", prices, da_net)
    da_revenue = {rid: da_unit[:, idx].sum(axis=1) for rid, idx in members.items()}
    risk = {}
    if weights is None:
        risk = {r.id: model.add_var(f"w_risk.{r.id}", lb=-math.inf, ub=math.inf, obj=1.0, tag=Tag("risk", r.id))
                for r in sys.reservoirs}
        model.meta["risk_vars"] = risk

    for rid, found in cuts.items():
        e = edge[rid]
        model.add_row(f"r_tail_min.{rid}", {e: 1.0}, GE, found.lo, Tag("tail_domain", rid, te + 1))
        model.add_row(f"r_tail_max.{rid}", {e: 1.0}, LE, found.hi, Tag("tail_domain", rid, te + 1))
        for i, s in enumerate(by_cuts):
            if weights is not None:
                theta = model.add_var(f"theta.{rid}.s{s}", lb=-math.inf, ub=math.inf, obj=-weights[s],
                                      tag=Tag("tail_value", rid, None, s))
            for k, (x, y, b) in enumerate(zip(found.x[i], found.y[i], found.slope[i])):
                if weights is not None:
                    model.add_row(f"r_cut.{rid}.s{s}.k{k}", {theta: 1.0, e: -b}, LE, y - b * x,
                                  Tag("value_cut", rid, None, s))
                else:
                    model.add_row(f"r_risk.{rid}.s{s}.k{k}", {risk[rid]: 1.0, e: b}, GE,
                                  da_revenue[rid][s] - y + b * x, Tag("risk_cut", rid, None, s))

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
                model.add_row(f"r_risk.{rid}.s{s}", {risk[rid]: 1.0, **revenue}, GE,
                              float(da_revenue[rid][s]), Tag("risk_cap", rid, None, s))
            else:
                for j, c in revenue.items():
                    model.add_obj(j, -weights[s] * c)
        blocks.append(blk)
    if blocks:
        model.rounding = partial(modes_from_dispatch, (model.meta["det_block"], *blocks))

    model.meta["tails"] = ScenarioTails(
        edge, by_cuts, cuts, blocks,
        None if weights is None else tuple(weights), da_revenue,
    )


def build_stochastic(instance: LacInstance, cfg: ModelConfig | None = None) -> MilpModel:
    """Two-stage window model maximizing expected post-window net sales."""
    cfg = cfg or ModelConfig()
    _validate_instance(instance, need_scenarios=True)
    model = _base_window_model("stochastic", instance, cfg, True)
    scn = instance.scenario_set
    _add_tails(model, instance, cfg, scn.weights if scn is not None else ())
    return model


def build_deterministic(instance: LacInstance, cfg: ModelConfig | None = None) -> MilpModel:
    """Point-forecast model: one post-window trajectory valued at face
    prices, the stochastic tail at one scenario of weight 1."""
    cfg = cfg or ModelConfig()
    win = instance.window
    scn = instance.scenario_set
    if win.window_end < win.horizon_end:
        if scn is None or scn.count != 1:
            raise ConfigurationError("deterministic variant expects exactly one scenario trajectory")
    _validate_instance(instance, need_scenarios=True)
    model = _base_window_model("deterministic", instance, cfg, True)
    _add_tails(model, instance, cfg, (1.0,))
    return model


def build_robust(instance: LacInstance, cfg: ModelConfig | None = None) -> MilpModel:
    """Worst-case model: per reservoir, an epigraph variable bounds the
    revenue shortfall of deviating from the day-ahead position in every
    scenario."""
    cfg = cfg or ModelConfig()
    _validate_instance(instance, need_scenarios=True)
    model = _base_window_model("robust", instance, cfg, True)
    _add_tails(model, instance, cfg, None)
    return model


def build_perfect(instance: LacInstance, cfg: ModelConfig | None = None) -> MilpModel:
    """Full-information model: the instance's window must run from t1 to
    the end of the day, with realized load over all of it."""
    cfg = cfg or ModelConfig()
    win = instance.window
    if win.window_end < win.horizon_end:
        raise ConfigurationError(
            f"perfect variant needs a window through hour {win.horizon_end}, "
            f"not one ending at hour {win.window_end}"
        )
    _validate_instance(instance, need_scenarios=False)
    return _base_window_model("perfect", instance, cfg, False)


def build_current_practice(instance: LacInstance, cfg: ModelConfig | None = None) -> MilpModel:
    """Schedule-following benchmark: PSH pinned to the day-ahead plan."""
    cfg = cfg or ModelConfig()
    _validate_instance(instance, need_scenarios=False)
    model = _base_window_model("current_practice", instance, cfg, False)
    det: PshBlock = model.meta["det_block"]
    for u in instance.system.psh_units:
        gen = {t: instance.da.gen[u.id][t - 1] for t in instance.window.window_hours()}
        pump = {t: instance.da.pump[u.id][t - 1] for t in instance.window.window_hours()}
        try:
            fix_block_to_schedule(model, det, u, gen, pump)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    return model


def build_variant(
    variant: Variant,
    instance: LacInstance,
    cfg: ModelConfig | None = None,
) -> MilpModel:
    if variant == Variant.CURRENT_PRACTICE:
        return build_current_practice(instance, cfg)
    if variant == Variant.PERFECT:
        return build_perfect(instance, cfg)
    if variant == Variant.DETERMINISTIC:
        return build_deterministic(instance, cfg)
    if variant == Variant.STOCHASTIC:
        return build_stochastic(instance, cfg)
    if variant == Variant.ROBUST:
        return build_robust(instance, cfg)
    raise ConfigurationError(f"unknown variant {variant!r}")


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
        w_ids = {}
        z_ids = {}
        for t in hours:
            ui = model.add_var(
                f"uT.{u.id}.t{t}", kind=BINARY, obj=u.no_load_cost, tag=Tag("thermal_commit", u.id, t)
            )
            thermal_u[(u.id, t)] = ui
            # start/stop indicators relax to {0,1} once u is integral
            w_ids[t] = model.add_var(
                f"wT.{u.id}.t{t}", ub=1.0, obj=u.startup_cost, tag=Tag("thermal_start", u.id, t)
            )
            z_ids[t] = model.add_var(f"zT.{u.id}.t{t}", ub=1.0, tag=Tag("thermal_stop", u.id, t))
            thermal_p[(u.id, t)] = _add_thermal_dispatch(model, u, t, ui)
        u0 = int(u.initial_status.committed)
        for t in hours:
            coeffs = {thermal_u[(u.id, t)]: 1.0, w_ids[t]: -1.0, z_ids[t]: 1.0}
            rhs = 0.0
            if t == 1:
                rhs = float(u0)
            else:
                coeffs[thermal_u[(u.id, t - 1)]] = -1.0
            model.add_row(f"r_commit_flow.{u.id}.t{t}", coeffs, EQ, rhs, Tag("commit_flow", u.id, t))
        if u.min_up > 1:
            for t in hours:
                coeffs = {w_ids[tau]: 1.0 for tau in range(max(1, t - u.min_up + 1), t + 1)}
                coeffs[thermal_u[(u.id, t)]] = coeffs.get(thermal_u[(u.id, t)], 0.0) - 1.0
                model.add_row(f"r_min_up.{u.id}.t{t}", coeffs, LE, 0.0, Tag("min_up", u.id, t))
        if u.min_down > 1:
            for t in hours:
                coeffs = {z_ids[tau]: 1.0 for tau in range(max(1, t - u.min_down + 1), t + 1)}
                coeffs[thermal_u[(u.id, t)]] = coeffs.get(thermal_u[(u.id, t)], 0.0) + 1.0
                model.add_row(f"r_min_down.{u.id}.t{t}", coeffs, LE, 1.0, Tag("min_down", u.id, t))
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
        for t in hours:
            coeffs = {thermal_u[(u.id, t)]: u.p_max for u in system.thermal_units}
            rhs = (1.0 + reserve_margin) * float(da_load[t - 1]) - quick
            model.add_row(f"r_reserve.t{t}", coeffs, GE, rhs, Tag("reserve", None, t))
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
        gen[u.id] = tuple(_clean(solution.value(det.q_gen[(u.id, t)])) for t in range(1, T + 1))
        pump[u.id] = tuple(_clean(solution.value(det.q_pump[(u.id, t)])) for t in range(1, T + 1))
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


def _clean(v: float, tol: float = 1e-9) -> float:
    return 0.0 if abs(v) < tol else float(v)
