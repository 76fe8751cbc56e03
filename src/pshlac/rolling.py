"""Fix-and-slide simulation of one operating day.

Each window [t1, t1+L-1] is solved with actual load inside the window
and forecast-derived information beyond it, the first hour's decisions
are frozen, and the window slides by one hour.  Frozen decisions feed
the next window through the reservoir state and the previous-hour mode;
reservoir bookkeeping uses the same energy balance as the models, so
the ledger trajectory is exact.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, asdict
from typing import Mapping, Protocol, Sequence

from .core import (
    MODES,
    FrozenDecision,
    MarketDay,
    PowerSystem,
    PriceScenarioSet,
    PshMode,
    TimeGrid,
    validate_system,
)
from .lac_models import (
    SCENARIO_VARIANTS,
    ConfigurationError,
    DaReference,
    LacInstance,
    ModelConfig,
    Variant,
    _clean,
    build_variant,
    da_reference_from_system,
)
from .milp import (
    BRANCH_AND_BOUND,
    FEASIBLE,
    TIME_LIMIT,
    MilpModel,
    MilpSolution,
    SolveOptions,
    infeasibility_report,
    solve,
)
from .psh_model import soc_step

logger = logging.getLogger(__name__)


class WindowError(RuntimeError):
    """A window that ended without a schedule; the rolled day stops there."""

    def __init__(self, variant: str, window_index: int, t1: int, message: str):
        self.variant = variant
        self.window_index = window_index
        self.t1 = t1
        super().__init__(f"window {window_index} (t1={t1}) of {variant} {message}")


class WindowTimeoutError(WindowError):
    def __init__(self, variant: str, window_index: int, t1: int, time_limit: float):
        self.time_limit = time_limit
        super().__init__(variant, window_index, t1,
                         f"hit the {time_limit:g} s time limit without an incumbent")


class WindowInfeasibleError(WindowError):
    """An infeasible or unbounded window, with the rows of its IIS and the
    model in LP format for replay."""

    def __init__(self, variant: str, window_index: int, t1: int, status: str,
                 conflict_rows: list[str], lp_text: str):
        self.conflict_rows = conflict_rows
        self.lp_text = lp_text
        rows = "; ".join(conflict_rows) if conflict_rows else "<none identified>"
        super().__init__(variant, window_index, t1, f"ended {status}; conflicting rows: {rows}")


@dataclass(frozen=True)
class WindowView:
    """What a window is allowed to see: actual load inside the window,
    realized prices strictly before it."""

    hours: tuple[int, ...]
    net_load: tuple[float, ...]
    observed_rt_lmp: Mapping[str, tuple[float, ...]]


def reveal_policy(market_day: MarketDay, window: TimeGrid) -> WindowView:
    t0 = window.start_index - 1
    hours = tuple(window.window_hours())
    net_load = tuple(float(market_day.load[t - 1]) for t in hours)
    observed = {
        node: tuple(series[:t0]) for node, series in sorted(market_day.rt_lmp_actual.items())
    }
    return WindowView(hours, net_load, observed)


class ScenarioProvider(Protocol):
    def full_set(self, t0: int, observed_rt: Mapping[str, Sequence[float]]) -> PriceScenarioSet:
        """Trajectories for hours t0+1 .. T."""

    def point_set(self, t0: int, observed_rt: Mapping[str, Sequence[float]]) -> PriceScenarioSet:
        """Single point-forecast trajectory for hours t0+1 .. T."""


class PipelineProvider:
    """Scenario provider backed by a fitted forecast pipeline."""

    def __init__(self, pipeline, day_da: Mapping[str, Sequence[float]], horizon_end: int,
                 count: int, seed: int):
        self.pipeline = pipeline
        self.day_da = {k: tuple(v) for k, v in day_da.items()}
        self.horizon_end = horizon_end
        self.count = count
        self.seed = seed

    def full_set(self, t0, observed_rt):
        return self.pipeline.scenario_set(
            t0, observed_rt, self.day_da, self.horizon_end, self.count, self.seed
        )

    def point_set(self, t0, observed_rt):
        return self.pipeline.point_set(t0, observed_rt, self.day_da, self.horizon_end)


class FrozenSetProvider:
    """Serves scenario sets loaded from files, keyed by forecast origin."""

    def __init__(self, sets: Mapping[int, PriceScenarioSet], points: Mapping[int, PriceScenarioSet] | None = None):
        self._sets = dict(sets)
        self._points = dict(points or {})

    def _lookup(self, table: dict[int, PriceScenarioSet], t0: int) -> PriceScenarioSet:
        if t0 not in table:
            raise KeyError(f"no scenario data for forecast origin {t0}")
        scn = table[t0]
        if scn.start_hour > t0 + 1:
            raise KeyError(f"scenario data at origin {t0} starts after hour {t0 + 1}")
        return scn.slice_hours(t0 + 1)

    def full_set(self, t0, observed_rt):
        return self._lookup(self._sets, t0)

    def point_set(self, t0, observed_rt):
        return self._lookup(self._points, t0)


@dataclass(frozen=True)
class WindowMetric:
    window: int
    t1: int
    status: str
    objective: float
    build_s: float  # building the window model, before HiGHS sees it
    walltime_s: float
    rows: int
    cols: int
    nonzeros: int
    binaries: int
    gap: float | None  # relative MIP gap of the solution, None for an LP
    nodes: int  # branch-and-bound nodes HiGHS explored
    # per reservoir, the tails' marginal value of edge storage ($/MWh);
    # empty without cut tails (see lac_models.ScenarioTails.water_value)
    water_value: tuple[float, ...] = ()
    incumbent: str = ""  # "lp", "root_rounding" or "branch_and_bound" (see milp.MilpSolution)


@dataclass
class WindowDetail:
    """In-memory record of a solved window, kept only on request."""

    window: int
    t1: int
    model: MilpModel
    solution: MilpSolution
    instance: LacInstance


@dataclass
class SimulationLedger:
    variant: str
    day_label: str
    seed: int
    hours: list[FrozenDecision] = field(default_factory=list)
    windows: list[WindowMetric] = field(default_factory=list)
    details: list[WindowDetail] = field(default_factory=list)  # not serialized

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for h in self.hours:
                rec = {
                    "variant": self.variant,
                    "day": self.day_label,
                    "seed": self.seed,
                    **asdict(h),
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def write_metrics_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("window,t1,status,objective,build_s,walltime_s,rows,cols,nonzeros,binaries,gap,nodes,"
                     "water_value,incumbent\n")
            for m in self.windows:
                gap = "" if m.gap is None else repr(m.gap)
                water = ";".join(repr(v) for v in m.water_value)
                fh.write(
                    f"{m.window},{m.t1},{m.status},{m.objective!r},{m.build_s!r},{m.walltime_s!r},"
                    f"{m.rows},{m.cols},{m.nonzeros},{m.binaries},{gap},{m.nodes},{water},"
                    f"{m.incumbent}\n"
                )

    @classmethod
    def from_jsonl(cls, path) -> "SimulationLedger":
        hours = []
        variant = day = ""
        seed = 0
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                variant = rec.pop("variant")
                day = rec.pop("day")
                seed = rec.pop("seed")
                hours.append(FrozenDecision(**rec))
        out = cls(variant, day, seed)
        out.hours = hours
        return out


@dataclass
class RunControl:
    scenario_count: int = 50
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    solver: SolveOptions = field(default_factory=SolveOptions)
    keep_window_details: bool = False


def _freeze_hour(
    system: PowerSystem,
    model: MilpModel,
    sol: MilpSolution,
    t: int,
    soc_in: Mapping[str, float],
) -> FrozenDecision:
    det = model.meta["det_block"]
    psh_mode = {}
    psh_gen = {}
    psh_pump = {}
    for u in system.psh_units:
        mode = PshMode.OFF.value
        for m in MODES:
            if sol.binary_value(det.u[(u.id, m, t)]) == 1:
                mode = m
        psh_mode[u.id] = mode
        psh_gen[u.id] = _clean(sol.value(det.q_gen[(u.id, t)]))
        psh_pump[u.id] = _clean(sol.value(det.q_pump[(u.id, t)]))
    thermal_commit = {}
    thermal_p = {}
    for u in system.thermal_units:
        thermal_commit[u.id] = sol.binary_value(model.meta["thermal_u"][(u.id, t)])
        thermal_p[u.id] = _clean(sol.value(model.meta["thermal_p"][(u.id, t)]))
    soc_after = {
        r.id: soc_step(system.psh_units, r, float(soc_in[r.id]), psh_gen, psh_pump,
                       system.grid.interval_hours)
        for r in system.reservoirs
    }
    sh, su = model.meta["slack_vars"][t]
    return FrozenDecision(
        hour=t,
        psh_mode=psh_mode,
        psh_gen=psh_gen,
        psh_pump=psh_pump,
        thermal_commit=thermal_commit,
        thermal_p=thermal_p,
        soc_after=soc_after,
        slack_short=_clean(sol.value(sh)),
        slack_surplus=_clean(sol.value(su)),
    )


def run_day(
    system: PowerSystem,
    market_day: MarketDay,
    variant: Variant,
    provider: ScenarioProvider | None,
    control: RunControl | None = None,
    da: DaReference | None = None,
) -> SimulationLedger:
    """Simulate the day under one variant and return its ledger.

    Every window sees what the reveal policy shows for its hours; the
    perfect variant's windows run from t1 to the end of the day, so it
    sees the realized load of every remaining hour and prices nothing.
    A window that times out without an
    incumbent raises :class:`WindowTimeoutError`; an infeasible or
    unbounded one raises :class:`WindowInfeasibleError` with the rows of
    its IIS.  A window that stops at its time limit with an incumbent
    goes on, logged as a warning.  A system or day that breaks a rule of
    :func:`~pshlac.core.validate_system` raises
    :class:`~pshlac.lac_models.ConfigurationError` naming every breach.
    """
    violations = validate_system(system, market_day)
    if violations:
        raise ConfigurationError("invalid system or day: " + "; ".join(str(v) for v in violations))
    control = control or RunControl()
    if da is None:
        da = da_reference_from_system(system)
    grid = system.grid
    T = grid.horizon_end
    L = grid.window_length
    needs_scenarios = variant in SCENARIO_VARIANTS
    if needs_scenarios and provider is None:
        raise ValueError(f"variant {variant.value} needs a scenario provider")

    ledger = SimulationLedger(variant.value, market_day.label, control.seed)
    soc = {r.id: float(r.e_initial) for r in system.reservoirs}
    prev_modes = {u.id: u.initial_mode for u in system.psh_units}

    last_start = max(1, T - L + 1)
    for w_index, t1 in enumerate(range(1, last_start + 1), start=1):
        length = T - t1 + 1 if variant == Variant.PERFECT else L
        win = TimeGrid(t1, T, length, grid.interval_hours)
        te = win.window_end
        view = reveal_policy(market_day, win)
        scn = None
        if needs_scenarios and te < T:
            t0 = t1 - 1
            if variant == Variant.DETERMINISTIC:
                full = provider.point_set(t0, view.observed_rt_lmp)
            else:
                full = provider.full_set(t0, view.observed_rt_lmp)
            scn = full.slice_hours(te + 1)
        inst = LacInstance(system, win, view.net_load, da, dict(soc), dict(prev_modes), scn)
        t_build = time.perf_counter()
        model = build_variant(variant, inst, control.model)
        build_s = time.perf_counter() - t_build
        sol = solve(model, control.solver)
        if sol.status == TIME_LIMIT:
            raise WindowTimeoutError(variant.value, w_index, t1, control.solver.time_limit)
        if not sol.ok:
            raise WindowInfeasibleError(variant.value, w_index, t1, sol.status,
                                        infeasibility_report(model), model.to_lp_string())
        if sol.status == FEASIBLE:
            logger.warning("%s window %d (t1=%d) hit the %g s time limit at gap %.3g",
                           variant.value, w_index, t1, control.solver.time_limit, sol.gap)
        if sol.incumbent == BRANCH_AND_BOUND:
            logger.debug("%s window %d (t1=%d) was not closed at the root: branch and bound took %d nodes",
                         variant.value, w_index, t1, sol.nodes)
        frozen = _freeze_hour(system, model, sol, t1, soc)
        ledger.hours.append(frozen)
        tails = model.meta.get("tails")
        ledger.windows.append(
            WindowMetric(
                w_index, t1, sol.status, float(sol.objective), build_s, float(sol.walltime_s),
                model.n_rows, model.n_vars, model.n_nonzeros, model.n_binaries, sol.gap,
                sol.nodes, tails.water_value(sol) if tails else (), sol.incumbent,
            )
        )
        if control.keep_window_details:
            ledger.details.append(WindowDetail(w_index, t1, model, sol, inst))
        soc = dict(frozen.soc_after)
        prev_modes = dict(frozen.psh_mode)

    # tail hours of the final window stay frozen too: the last window
    # already covers them and nothing re-optimizes them afterwards
    for t in range(t1 + 1, T + 1):
        ledger.hours.append(_freeze_hour(system, model, sol, t, ledger.hours[-1].soc_after))
    return ledger


def causality_check(ledger_a: SimulationLedger, ledger_b: SimulationLedger, through_hour: int) -> bool:
    """True when both ledgers hold the same frozen hours up to the given
    hour and agree on every one of them."""
    def prefix(ledger):
        return [asdict(h) for h in ledger.hours if h.hour <= through_hour]

    return prefix(ledger_a) == prefix(ledger_b)
