"""Fix-and-slide simulation of one operating day.

Each window [t1, t1+L-1] is solved with actual load inside the window
and forecast-derived information beyond it, the first hour's decisions
are frozen, and the window slides by one hour.  Frozen decisions feed
the next window through the reservoir state and the previous-hour mode;
reservoir bookkeeping uses the same energy balance as the models, so
the ledger trajectory is exact.  Each window's model is built from the
one built before it (``lac_models.build_variant``'s ``previous``), which
re-dates its in-window block when the two windows have the same length
and kind; every model is still solved cold, in its own HiGHS session.

A ``perfect`` window runs to the day end on realized load, so after a
solved one the next windows only re-derive its plan (Bellman's principle
of optimality, *Dynamic Programming*, 1957).  Let window k be the last
one HiGHS solved, with plan ``x``, objective ``F_k`` and proven bound
``B_k``.  Window j > k has the same data and starts from the state ``x``
reaches, so ``x`` prefixed to any plan of window j is a plan of window
k: ``OPT_j >= B_k - C``, where ``C`` is the cost of ``x``'s hours
k..j-1 (:func:`~pshlac.lac_models.costs_by_hour`), while ``x`` on hours
j..T costs ``F_k - C``.  Window j's absolute gap is therefore at most
window k's, and window j is closed without a model when window k ended
``optimal``, that gap over window j's objective (without its constant,
as :func:`~pshlac.milp.solve` defines ``gap``) is within the solver's
``gap_tol``, and the bookkept storage entering hour j is ``x``'s within
1e-6 MWh.  Such a window freezes hour j from window k's plan and records
incumbent ``carried``, status ``optimal``, objective ``F_k - C`` and that
gap, with no build time, nodes or model size.  Where the certificate
fails the window is built and solved, and later windows carry from it.
The other variants see a new load hour or a new scenario set in every
window, so nothing carries there.
"""

from __future__ import annotations

import json
import logging
import math
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
    snap_zero,
    validate_system,
)
from .lac_models import (
    SCENARIO_VARIANTS,
    ConfigurationError,
    DaReference,
    LacInstance,
    ModelConfig,
    Variant,
    build_variant,
    costs_by_hour,
    da_reference_from_system,
)
from .milp import (
    BRANCH_AND_BOUND,
    FEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    MilpModel,
    MilpSolution,
    SolveOptions,
    infeasibility_report,
    solve,
)
from .psh_model import soc_step

logger = logging.getLogger(__name__)

CARRIED = "carried"  # the incumbent of a perfect window closed by its certificate
SOC_MATCH = 1e-6  # MWh the bookkept storage may differ from a carried plan's


class WindowError(RuntimeError):
    """A window that ended without a schedule; the rolled day stops there."""

    def __init__(self, variant: str, window_index: int, t1: int, message: str):
        self.variant = variant
        self.window_index = window_index
        self.t1 = t1
        self.message = message
        super().__init__(f"window {window_index} (t1={t1}) of {variant} {message}")

    # each class rebuilds itself from its own fields, so that an error
    # raised in a worker process unpickles in the one that reads it
    def __reduce__(self):
        return type(self), (self.variant, self.window_index, self.t1, self.message)


class WindowTimeoutError(WindowError):
    def __init__(self, variant: str, window_index: int, t1: int, time_limit: float):
        self.time_limit = time_limit
        super().__init__(variant, window_index, t1,
                         f"hit the {time_limit:g} s time limit without an incumbent")

    def __reduce__(self):
        return type(self), (self.variant, self.window_index, self.t1, self.time_limit)


class WindowInfeasibleError(WindowError):
    """An infeasible or unbounded window, with the rows of its IIS and the
    model in LP format for replay."""

    def __init__(self, variant: str, window_index: int, t1: int, status: str,
                 conflict_rows: list[str], lp_text: str):
        self.status = status
        self.conflict_rows = conflict_rows
        self.lp_text = lp_text
        rows = "; ".join(conflict_rows) if conflict_rows else "<none identified>"
        super().__init__(variant, window_index, t1, f"ended {status}; conflicting rows: {rows}")

    def __reduce__(self):
        return type(self), (self.variant, self.window_index, self.t1, self.status,
                            self.conflict_rows, self.lp_text)


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
    """Scenario provider backed by a fitted forecast pipeline.

    A set depends only on its origin and the prices observed before it,
    so each one is drawn once and served again to every variant that
    asks with the same origin and the same observed prefix.
    """

    def __init__(self, pipeline, day_da: Mapping[str, Sequence[float]], horizon_end: int,
                 count: int, seed: int):
        self.pipeline = pipeline
        self.day_da = {k: tuple(v) for k, v in day_da.items()}
        self.horizon_end = horizon_end
        self.count = count
        self.seed = seed
        self._sets: dict[tuple, PriceScenarioSet] = {}

    def full_set(self, t0, observed_rt):
        key = (t0, tuple((node, tuple(series[:t0])) for node, series in sorted(observed_rt.items())))
        if key not in self._sets:
            scn = self.pipeline.scenario_set(
                t0, observed_rt, self.day_da, self.horizon_end, self.count, self.seed
            )
            scn.prices.flags.writeable = False  # shared by every caller of this key
            self._sets[key] = scn
        return self._sets[key]

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

    @property
    def counts(self) -> set[int]:
        """Trajectory counts of the scenario sets on file."""
        return {scn.count for scn in self._sets.values()}

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
    # "lp", "root_rounding" or "branch_and_bound" (see milp.MilpSolution),
    # or CARRIED: no model, so no build time, size or nodes
    incumbent: str = ""


@dataclass
class SimulationLedger:
    variant: str
    day_label: str
    seed: int
    hours: list[FrozenDecision] = field(default_factory=list)
    windows: list[WindowMetric] = field(default_factory=list)

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
        psh_gen[u.id] = snap_zero(sol.value(det.q_gen[(u.id, t)]))
        psh_pump[u.id] = snap_zero(sol.value(det.q_pump[(u.id, t)]))
    thermal_commit = {}
    thermal_p = {}
    for u in system.thermal_units:
        thermal_commit[u.id] = int(model.meta["commitment"][u.id][t - 1])
        thermal_p[u.id] = snap_zero(sol.value(model.meta["thermal_p"][(u.id, t)]))
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
        slack_short=snap_zero(sol.value(sh)),
        slack_surplus=snap_zero(sol.value(su)),
    )


class _Carry:
    """A solved ``perfect`` window whose plan later windows may carry
    (the module docstring gives the certificate)."""

    def __init__(self, model: MilpModel, sol: MilpSolution, t1: int):
        self.model = model
        self.sol = sol
        self.t1 = t1
        self.hourly = costs_by_hour(model, sol)
        self.constant = model.meta.get("thermal_constant", {})
        # F_k - B_k; an LP's optimum is its own bound
        self.abs_gap = 0.0 if sol.gap is None else max(sol.objective - sol.bound, 0.0)

    def certify(self, t: int, soc: Mapping[str, float], gap_tol: float) -> tuple[float, float | None] | None:
        """The objective and gap of window ``t`` closed by this plan, or
        None where the certificate fails."""
        sol = self.sol
        for rid, stored in self.model.meta["soc"].items():
            if abs(soc[rid] - sol.value(stored.e_det[(rid, t)])) > SOC_MATCH:
                return None
        objective = sol.objective - sum(self.hourly.get(h, 0.0) for h in range(self.t1, t))
        net = abs(objective - sum(c for h, c in self.constant.items() if h >= t))
        gap = self.abs_gap / net if net else (0.0 if self.abs_gap == 0.0 else math.inf)
        if gap > gap_tol:
            return None
        return objective, None if sol.gap is None else gap


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
    sees the realized load of every remaining hour and prices nothing,
    and a perfect window whose certificate holds carries the plan of the
    last one solved (see the module docstring).
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

    carry: _Carry | None = None
    built: MilpModel | None = None  # the window built last, whose block the next may re-date
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
        certified = None
        if carry is not None:
            t_cert = time.perf_counter()
            certified = carry.certify(t1, soc, control.solver.gap_tol)
        if certified is not None:
            model, sol = carry.model, carry.sol
            metric = WindowMetric(w_index, t1, OPTIMAL, certified[0], 0.0, time.perf_counter() - t_cert,
                                  0, 0, 0, 0, certified[1], 0, (), CARRIED)
        else:
            t_build = time.perf_counter()
            model = built = build_variant(variant, inst, control.model, built)
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
            tails = model.meta.get("tails")
            metric = WindowMetric(
                w_index, t1, sol.status, float(sol.objective), build_s, float(sol.walltime_s),
                model.n_rows, model.n_vars, model.n_nonzeros, model.n_binaries, sol.gap,
                sol.nodes, tails.water_value(sol) if tails else (), sol.incumbent,
            )
            carry = _Carry(model, sol, t1) if variant == Variant.PERFECT and sol.status == OPTIMAL else None
        frozen = _freeze_hour(system, model, sol, t1, soc)
        ledger.hours.append(frozen)
        ledger.windows.append(metric)
        soc = dict(frozen.soc_after)
        prev_modes = dict(frozen.psh_mode)

    # tail hours of the final window stay frozen too: the last window
    # already covers them and nothing re-optimizes them afterwards
    for t in range(t1 + 1, T + 1):
        ledger.hours.append(_freeze_hour(system, model, sol, t, ledger.hours[-1].soc_after))
    return ledger
