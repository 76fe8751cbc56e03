"""Small hand-sized problem builders shared across test modules.

``window_setup`` produces the same problem twice: once as package
objects ready for the model builders, once as an :class:`oracle_tools.
ToyWindow` for the exhaustive reference optimum.  Keeping both views in
one constructor is what makes the equivalence tests meaningful.

``recorded_windows`` looks inside a rolled day from the outside, the way
the benchmark's tracer does: by wrapping what ``rolling.run_day`` calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from pshlac import rolling
from pshlac.core import (
    CostSegment,
    InitialStatus,
    MarketDay,
    PowerSystem,
    PriceScenarioSet,
    PshUnit,
    Reservoir,
    ThermalUnit,
    TimeGrid,
)
from pshlac.lac_models import DaReference, LacInstance, ModelConfig, TailPlan
from pshlac.milp import BINARY, LE, MilpModel, MilpSolution

from oracle_tools import ToyWindow

NODE = "n1"


@dataclass
class WindowSetup:
    system: PowerSystem
    instance: LacInstance
    cfg: ModelConfig
    toy: ToyWindow
    market_day: MarketDay


def window_setup(
    *,
    T: int = 3,
    t1: int = 1,
    L: int = 2,
    loads: Sequence[float] = (50.0, 50.0, 50.0),
    prices: Sequence[Sequence[float]] = ((30.0,),),
    weights: Sequence[float] = (1.0,),
    da_gen: Sequence[float] | None = None,
    da_pump: Sequence[float] | None = None,
    e_init: float = 20.0,
    e_min: float = 0.0,
    e_max: float = 40.0,
    e_target: float = 10.0,
    end_soc: str = "fix",
    eta_gen: float = 1.0,
    eta_pump: float = 1.0,
    gen_min: float = 0.0,
    gen_max: float = 20.0,
    pump_min: float = 0.0,
    pump_max: float = 20.0,
    trans_gen: float = 0.0,
    trans_pump: float = 0.0,
    init_mode: str = "off",
    thermal_segments: Sequence[tuple[float, float]] = ((200.0, 20.0),),
    no_load: float = 0.0,
    voll: float = 3500.0,
    grid_step: float = 10.0,
) -> WindowSetup:
    """One thermal unit, one PSH unit, one reservoir, window [t1, t1+L-1].

    ``loads`` covers the whole day; ``prices`` is per scenario over the
    post-window hours (ignored when the window reaches the day end).
    """
    grid = TimeGrid(t1, T, L, 1.0)
    te = grid.window_end
    thermal = ThermalUnit(
        "th1",
        tuple(CostSegment(mw, pr) for mw, pr in thermal_segments),
        no_load_cost=no_load,
        startup_cost=0.0,
        p_min=0.0,
        p_max=sum(mw for mw, _ in thermal_segments),
        initial_status=InitialStatus(True, 24),
        da_commitment=(1,) * T,
    )
    unit = PshUnit(
        "ps1", "res1", NODE, gen_min, gen_max, pump_min, pump_max, eta_gen, eta_pump,
        startup_cost_gen=trans_gen, startup_cost_pump=trans_pump,
        initial_mode=init_mode,
        da_gen=tuple(da_gen) if da_gen is not None else (0.0,) * T,
        da_pump=tuple(da_pump) if da_pump is not None else (0.0,) * T,
    )
    res = Reservoir("res1", e_min, e_max, e_init, e_target, ("ps1",))
    system = PowerSystem(grid, (thermal,), (unit,), (res,))
    da = DaReference(
        gen={"ps1": unit.da_gen},
        pump={"ps1": unit.da_pump},
        commitment={"th1": thermal.da_commitment},
        end_soc={"res1": e_target},
    )

    post = tuple(range(te + 1, T + 1))
    scn = None
    if post:
        arr = np.asarray(prices, dtype=float).reshape(len(weights), 1, len(post))
        scn = PriceScenarioSet((NODE,), te + 1, arr, tuple(float(w) for w in weights))

    instance = LacInstance(
        system=system,
        window=grid,
        net_load=tuple(float(v) for v in loads[t1 - 1 : te]),
        da=da,
        soc_state={"res1": e_init},
        prev_modes={"ps1": init_mode},
        scenario_set=scn,
    )
    cfg = ModelConfig(voll=voll, end_soc=end_soc, time_preference=0.0)

    toy = ToyWindow(
        hours_in=tuple(range(t1, te + 1)),
        hours_post=post,
        net_load={t: float(loads[t - 1]) for t in range(t1, T + 1)},
        prices={(s, t): float(prices[s][i]) for s in range(len(weights))
                for i, t in enumerate(post)},
        weights=tuple(float(w) for w in weights),
        da_net={t: float(unit.da_gen[t - 1] - unit.da_pump[t - 1]) for t in range(1, T + 1)},
        e_init=e_init, e_min=e_min, e_max=e_max, e_target=e_target,
        end_sense=end_soc if end_soc == "relax" else "fix",
        eta_gen=eta_gen, eta_pump=eta_pump,
        gen_min=gen_min, gen_max=gen_max, pump_min=pump_min, pump_max=pump_max,
        trans_cost_gen=trans_gen, trans_cost_pump=trans_pump,
        init_mode=init_mode,
        thermal_segments=tuple((float(mw), float(pr)) for mw, pr in thermal_segments),
        thermal_no_load=no_load,
        voll=voll,
        grid_step=grid_step,
    )
    flat = tuple(20.0 for _ in range(T))
    market_day = MarketDay("toy", tuple(float(v) for v in loads),
                           {NODE: flat}, {NODE: flat})
    return WindowSetup(system, instance, cfg, toy, market_day)


def rolling_day_setup(
    *,
    T: int = 3,
    L: int = 2,
    loads: Sequence[float] = (50.0, 50.0, 50.0),
    rt_lmp: Sequence[float] = (20.0, 20.0, 20.0),
    da_gen: Sequence[float] = (0.0, 0.0, 10.0),
    e_init: float = 20.0,
    e_target: float = 10.0,
    pump_max: float = 20.0,
    startup_cost_gen: float = 0.0,
) -> tuple[PowerSystem, MarketDay, DaReference]:
    """Whole-day toy for the rolling loop: day-ahead plan already embedded.

    The default day-ahead plan discharges 10 MW in the last hour, which is
    exactly what the end target requires from the initial fill.
    """
    ws = window_setup(T=T, t1=1, L=L, loads=loads, da_gen=da_gen,
                      e_init=e_init, e_target=e_target, pump_max=pump_max,
                      trans_gen=startup_cost_gen, prices=((30.0,) * (T - L),))
    day = MarketDay(
        "toyday",
        tuple(float(v) for v in loads),
        {NODE: tuple(20.0 for _ in range(T))},
        {NODE: tuple(float(v) for v in rt_lmp)},
    )
    return ws.system, day, ws.instance.da


def full_set_for_day(prices_by_scenario: Sequence[Sequence[float]],
                     weights: Sequence[float] | None = None) -> PriceScenarioSet:
    """Whole-day scenario set (start hour 1) for FrozenSetProvider toys."""
    arr = np.asarray(prices_by_scenario, dtype=float)
    S, H = arr.shape
    w = tuple(float(v) for v in (weights or [1.0 / S] * S))
    return PriceScenarioSet((NODE,), 1, arr.reshape(S, 1, H), w)


def two_unit_instance(
    *,
    variant: str,
    loads: Sequence[float],
    prices: Sequence[Sequence[Sequence[float]]],
    startup: Sequence[tuple[float, float]],
    floors: Sequence[tuple[float, float]],
    e_init: Sequence[float],
    e_target: Sequence[float],
    prev_modes: Sequence[str],
    expensive: float = 60.0,
) -> LacInstance:
    """First window of a four-hour day with two PSH units, each on its own
    reservoir of 40 MWh, at one node.

    ``variant`` is ``"perfect"`` (a window through hour 4) or a scenario
    variant (hours 1-2, with ``prices`` per scenario, unit and post-window
    hour); ``loads`` covers the window hours.  Per unit: ``startup`` is
    its (gen, pump) start-up charge and ``floors`` its (gen_min,
    pump_min), each with a 20 MW cap.  The thermal unit serves 45 MW at
    20 $/MWh and 155 MW more at ``expensive``.
    """
    T = 4
    L = T if variant == "perfect" else 2
    grid = TimeGrid(1, T, L, 1.0)
    thermal = ThermalUnit(
        "th1", (CostSegment(45.0, 20.0), CostSegment(155.0, expensive)),
        no_load_cost=0.0, startup_cost=0.0, p_min=0.0, p_max=200.0,
        initial_status=InitialStatus(True, 24), da_commitment=(1,) * T,
    )
    units = tuple(
        PshUnit(f"ps{i}", f"res{i}", NODE, g_min, 20.0, p_min, 20.0, 0.9, 0.85,
                startup_cost_gen=c_gen, startup_cost_pump=c_pump,
                da_gen=(0.0,) * T, da_pump=(0.0,) * T)
        for i, ((c_gen, c_pump), (g_min, p_min)) in enumerate(zip(startup, floors))
    )
    reservoirs = tuple(Reservoir(f"res{i}", 0.0, 40.0, e0, e1, (f"ps{i}",))
                       for i, (e0, e1) in enumerate(zip(e_init, e_target)))
    system = PowerSystem(grid, (thermal,), units, reservoirs)
    da = DaReference(
        gen={u.id: u.da_gen for u in units},
        pump={u.id: u.da_pump for u in units},
        commitment={"th1": thermal.da_commitment},
        end_soc={r.id: r.e_final_target for r in reservoirs},
    )
    scn = None
    if variant != "perfect":
        arr = np.asarray(prices, dtype=float)[:, :1, :]  # both units sit at NODE
        S = arr.shape[0]
        scn = PriceScenarioSet((NODE,), L + 1, arr, (1.0 / S,) * S)
    return LacInstance(
        system=system, window=grid, net_load=tuple(float(v) for v in loads[:L]), da=da,
        soc_state={r.id: r.e_initial for r in reservoirs},
        prev_modes={u.id: m for u, m in zip(units, prev_modes)},
        scenario_set=scn,
    )


def knapsack(n: int = 30, capacity: float = 50.0) -> MilpModel:
    """max sum (i+1) x_i with weights i+3: many binaries, so HiGHS cannot
    finish in presolve."""
    m = MilpModel()
    xs = [m.add_var(f"x{i}", obj=-(i + 1.0), kind=BINARY) for i in range(n)]
    m.add_row("cap", {x: i + 3.0 for i, x in enumerate(xs)}, LE, capacity)
    return m


@dataclass
class WindowRecord:
    """One window of a rolled day: its instance and, when it was solved
    rather than carried, its model, the tail plan and HiGHS session it
    was built and solved with, and its solution."""

    instance: LacInstance
    model: MilpModel | None = None
    solution: MilpSolution | None = None
    tails: TailPlan | None = None
    session: object = None

    @property
    def t1(self) -> int:
        return self.instance.window.start_index


@contextmanager
def recorded_windows() -> Iterator[list[WindowRecord]]:
    """Record each window ``rolling.run_day`` opens inside the block, in
    order, by wrapping ``rolling.LacInstance``, ``rolling.build_variant``
    and ``rolling.solve``; the originals are back on exit."""
    records: list[WindowRecord] = []
    make, build, solve = rolling.LacInstance, rolling.build_variant, rolling.solve

    def instance(*args, **kwargs):
        records.append(WindowRecord(make(*args, **kwargs)))
        return records[-1].instance

    def built(variant, inst, cfg=None, previous=None, tails=None):
        assert records[-1].instance is inst, "a window is built from the instance opened last"
        records[-1].model = build(variant, inst, cfg, previous, tails)
        records[-1].tails = tails
        return records[-1].model

    def solved(model, options=None, session=None):
        assert records[-1].model is model, "a window solves the model built last"
        records[-1].solution = solve(model, options, session)
        records[-1].session = session
        return records[-1].solution

    rolling.LacInstance, rolling.build_variant, rolling.solve = instance, built, solved
    try:
        yield records
    finally:
        rolling.LacInstance, rolling.build_variant, rolling.solve = make, build, solve
