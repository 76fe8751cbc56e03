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
  set, with one second-stage dispatch copy per scenario
* ``robust``            the worst case over scenarios of the revenue
  shortfall relative to the day-ahead position, one epigraph variable
  per reservoir
"""

from __future__ import annotations

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
)
from .milp import BINARY, EQ, GE, LE, MilpModel, MilpSolution, Tag
from .psh_model import (
    PshBlock,
    add_dispatch_boxes,
    add_mode_logic,
    add_soc_dynamics,
    create_psh_block,
    fix_block_to_schedule,
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

    scen_blocks: list[PshBlock] = []
    scn = instance.scenario_set
    if with_scenarios and scn is not None and scn.prices.shape[2] > 0:
        post = list(range(te + 1, T + 1))
        prices = _scenario_prices(instance, cfg)
        model.meta["scenario_prices"] = prices
        node = {u.id: scn.nodes.index(u.node_id) for u in sys.psh_units}
        for s in range(scn.count):
            # mode binaries only where dropping them could change the
            # optimum (psh_model's module docstring gives the argument)
            mode_cells = {
                (u.id, t)
                for u in sys.psh_units
                for hi, t in enumerate(post)
                if _has_floor(u) or prices[s, node[u.id], hi] < 0.0
            }
            blk = create_psh_block(model, sys.psh_units, post, s, mode_cells)
            for u in sys.psh_units:
                add_mode_logic(model, blk, u)
                add_dispatch_boxes(model, blk, u)
            scen_blocks.append(blk)

    soc_by_res = {}
    for r in sys.reservoirs:
        soc_by_res[r.id] = add_soc_dynamics(
            model,
            r,
            sys.psh_units,
            det,
            scen_blocks,
            e_initial=float(instance.soc_state[r.id]),
            e_final_target=float(instance.da.end_soc[r.id]),
            dt=sys.grid.interval_hours,
            close_horizon=(te == T),
            end_soc=cfg.end_soc,
        )

    balance_rows, slack_vars = _add_balance(model, sys, hours, instance.net_load, thermal_p, det, cfg.voll)

    model.meta.update(
        det_block=det,
        scen_blocks=scen_blocks,
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


def build_stochastic(instance: LacInstance, cfg: ModelConfig | None = None) -> MilpModel:
    """Two-stage window model maximizing expected post-window net sales."""
    cfg = cfg or ModelConfig()
    _validate_instance(instance, need_scenarios=True)
    model = _base_window_model("stochastic", instance, cfg, True)
    scn = instance.scenario_set
    blocks: list[PshBlock] = model.meta["scen_blocks"]
    if blocks:
        prices = model.meta["scenario_prices"]
        for blk in blocks:
            s = blk.scenario
            w = scn.weights[s]
            for u in instance.system.psh_units:
                ni = scn.nodes.index(u.node_id)
                for hi, t in enumerate(blk.hours):
                    lmp = float(prices[s, ni, hi])
                    model.add_obj(blk.q_gen[(u.id, t)], -w * lmp)
                    model.add_obj(blk.q_pump[(u.id, t)], +w * lmp)
    return model


def build_deterministic(instance: LacInstance, cfg: ModelConfig | None = None) -> MilpModel:
    """Point-forecast model: one post-window trajectory valued at face prices.

    Kept as its own objective pass instead of delegating to the two-stage
    builder, so the single-scenario coincidence between the two stays a
    checkable property rather than a tautology.
    """
    cfg = cfg or ModelConfig()
    win = instance.window
    scn = instance.scenario_set
    if win.window_end < win.horizon_end:
        if scn is None or scn.count != 1:
            raise ConfigurationError("deterministic variant expects exactly one scenario trajectory")
    _validate_instance(instance, need_scenarios=True)
    model = _base_window_model("deterministic", instance, cfg, True)
    blocks: list[PshBlock] = model.meta["scen_blocks"]
    if blocks:
        prices = model.meta["scenario_prices"]
        blk = blocks[0]
        for u in instance.system.psh_units:
            ni = scn.nodes.index(u.node_id)
            for hi, t in enumerate(blk.hours):
                lmp = float(prices[0, ni, hi])
                model.add_obj(blk.q_gen[(u.id, t)], -lmp)
                model.add_obj(blk.q_pump[(u.id, t)], +lmp)
    return model


def build_robust(instance: LacInstance, cfg: ModelConfig | None = None) -> MilpModel:
    """Worst-case model: per reservoir, an epigraph variable bounds the
    revenue shortfall of deviating from the day-ahead position in every
    scenario."""
    cfg = cfg or ModelConfig()
    _validate_instance(instance, need_scenarios=True)
    model = _base_window_model("robust", instance, cfg, True)
    scn = instance.scenario_set
    blocks: list[PshBlock] = model.meta["scen_blocks"]
    if not blocks:
        return model
    prices = model.meta["scenario_prices"]
    sys = instance.system
    risk_vars = {}
    for r in sys.reservoirs:
        risk_vars[r.id] = model.add_var(
            f"w_risk.{r.id}", lb=-math.inf, ub=math.inf, obj=1.0, tag=Tag("risk", r.id)
        )
    model.meta["risk_vars"] = risk_vars

    def da_net(u, t):
        return float(instance.da.gen[u.id][t - 1] - instance.da.pump[u.id][t - 1])

    for r in sys.reservoirs:
        members = [u for u in sys.psh_units if u.reservoir_id == r.id]
        for blk in blocks:
            s = blk.scenario
            coeffs: dict[int, float] = {risk_vars[r.id]: 1.0}
            rhs = 0.0
            for u in members:
                ni = scn.nodes.index(u.node_id)
                for hi, t in enumerate(blk.hours):
                    lmp = float(prices[s, ni, hi])
                    coeffs[blk.q_gen[(u.id, t)]] = coeffs.get(blk.q_gen[(u.id, t)], 0.0) + lmp
                    coeffs[blk.q_pump[(u.id, t)]] = coeffs.get(blk.q_pump[(u.id, t)], 0.0) - lmp
                    rhs += lmp * da_net(u, t)
            model.add_row(
                f"r_risk.{r.id}.s{s}", coeffs, GE, rhs, Tag("risk_cap", r.id, None, s)
            )
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
        add_soc_dynamics(
            model,
            r,
            system.psh_units,
            det,
            [],
            e_initial=r.e_initial,
            e_final_target=r.e_final_target,
            dt=system.grid.interval_hours,
            close_horizon=True,
            end_soc=cfg.end_soc,
        )

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


# ---------------------------------------------------------------------------
# structural size bookkeeping


def scenario_block_size(system: PowerSystem, n_post_hours: int, variant: Variant) -> tuple[int, int, int]:
    """(rows, cols, nonzeros) added per extra scenario at non-negative
    prices.

    Derived from the builders' structure; used to check that model size
    grows affinely in the scenario count.  A scenario block holds per
    unit-hour two dispatch variables; units with a dispatch floor also
    get three mode binaries, one exclusivity row and four dispatch boxes
    there.  It has no start-ups.  A negative price adds the mode
    binaries, exclusivity row and boxes of its cell on top.
    """
    R = len(system.reservoirs)
    H = n_post_hours
    floored = [u for u in system.psh_units if _has_floor(u)]
    cols = len(system.psh_units) * H * 2 + len(floored) * H * 3 + R * (H + 1)
    rows = len(floored) * H * (1 + 4) + R * (3 * H + 2)
    # zero dispatch floors drop the commitment coefficient from the lower box
    nnz = sum(H * (3 + 8 - (u.gen_min == 0.0) - (u.pump_min == 0.0)) for u in floored)
    nnz += sum(
        (2 + 2 * len([u for u in system.psh_units if u.reservoir_id == r.id])) * (H + 1) + 2 * H + 1
        for r in system.reservoirs
    )
    if variant == Variant.ROBUST:
        rows += R
        nnz += sum(
            1 + 2 * len([u for u in system.psh_units if u.reservoir_id == r.id]) * H
            for r in system.reservoirs
        )
    return rows, cols, nnz
