"""End-to-end acceptance checks, one verdict line per numbered property.

Each test prints ``ACCEPTANCE <n>: PASS`` or ``FAIL`` so a plain ``pytest -s``
run reads as a checklist.  The heavyweight fixtures (ten simulated days,
first-window scaling builds) are module scoped and shared across checks.
"""

import filecmp
import re
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest

from pshlac.accounting import evaluate_day
from pshlac.core import MarketDay
from pshlac.forecast import (
    CovarianceTracker,
    ForecastConfig,
    ForecastPipeline,
    fit_arimax,
    update_covariance,
)
from pshlac.lac_models import (
    LacInstance,
    ModelConfig,
    Variant,
    build_variant,
    da_reference_from_system,
)
from pshlac.milp import EQ, GE, LE, SolveOptions, solve
from pshlac.psh_model import soc_step
from pshlac.rolling import PipelineProvider, RunControl, run_day
from pshlac.synth import NODE as BUS, SynthConfig, make_day, make_history, make_system

from conftest import solve_exact
from oracle_tools import (canonical_form, causality_check, columns_named, enumerate_objective, full_tail_window,
                          rows_named, tail_lp)
from toys import recorded_windows, window_setup

BENCH_DAYS = 10
BENCH_SCENARIOS = 10
BENCH_GAP = 1e-5
S_GRID = (10, 20, 50, 75)


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


# -- shared synthetic world --------------------------------------------------


@pytest.fixture(scope="module")
def synth_setup():
    cfg = SynthConfig(seed=11)
    base = make_system(cfg)
    pipe = ForecastPipeline(ForecastConfig()).fit(make_history(cfg))
    return cfg, base, pipe


def _da_storage_path(system, da):
    """Per reservoir, the storage level entering hours 1..T+1 when the
    day-ahead schedule is followed, with the ledger's own balance."""
    path = {}
    for res in system.reservoirs:
        levels = [float(res.e_initial)]
        for t in range(1, system.grid.horizon_end + 1):
            gen = {u: g[t - 1] for u, g in da.gen.items()}
            pump = {u: p[t - 1] for u, p in da.pump.items()}
            levels.append(soc_step(system.psh_units, res, levels[-1], gen, pump,
                                   system.grid.interval_hours))
        path[res.id] = levels
    return path


def _deviation_margins(day, windows, mcfg):
    """Read the robust windows (``toys.recorded_windows``) back through
    their tails.

    Each window prices a scenario's tail by the cuts of ``V_s`` at its
    edge storage ``e``.  Here each scenario's dispatch comes from the
    oracle LP tail solved at that ``e`` (``oracle_tools.tail_lp``), and
    its revenue must equal the cut value.  ``margins`` holds one
    ``(t1, scenario, margin, |DA_s|, on_path)`` per deviating window-
    scenario pair: stage-two revenue minus the day-ahead revenue ``DA_s``
    at the same scenario prices, and whether ``e`` sits on the day-ahead
    trajectory in every reservoir.  ``epigraphs`` holds one ``(t1,
    reservoir, w, shortfall, |DA_s|)`` per window and reservoir, for the
    scenario with the largest shortfall against the day-ahead revenue.
    """
    margins, epigraphs = [], []
    system = day.system
    for rec in windows:
        model, sol = rec.model, rec.solution
        tails = model.meta.get("tails")
        if tails is None:
            continue
        assert not tails.blocks, "a tail kept its block; this check reads cut tails only"
        inst = rec.instance
        scn = inst.scenario_set
        te = model.meta["window_hours"][-1]
        prices = scn.prices + mcfg.time_preference * np.arange(1, scn.prices.shape[2] + 1)
        da_path = _da_storage_path(system, inst.da)
        edge = {}
        on_path = True
        for res in system.reservoirs:
            cuts = tails.cuts[res.id]
            # the solver's edge may overshoot the domain by its tolerance
            edge[res.id] = min(max(sol.value(tails.edge[res.id]), cuts.lo), cuts.hi)
            planned = da_path[res.id][te]
            on_path &= abs(edge[res.id] - planned) <= 1e-6 * max(1.0, abs(planned))
        for res in system.reservoirs:
            members = [u for u in system.psh_units if u.reservoir_id == res.id]
            w_val = sol.value(model.meta["risk_vars"][res.id])
            shortfalls = []
            cut_values = tails.cuts[res.id].values(edge[res.id])
            for i, s in enumerate(tails.scenarios):
                unit_prices = prices[s, [scn.nodes.index(u.node_id) for u in members], :]
                revenue, qg, qp = tail_lp(members, res, unit_prices, edge[res.id], inst.da.end_soc[res.id],
                                          mcfg.end_soc, system.grid.interval_hours)
                cut_value = cut_values[i]
                assert abs(revenue - cut_value) <= 1e-7 * max(1.0, abs(revenue)), (rec.t1, s, revenue, cut_value)
                da_net = np.array([np.asarray(inst.da.gen[u.id][te:]) - np.asarray(inst.da.pump[u.id][te:])
                                   for u in members])
                da_revenue = float(np.sum(unit_prices * da_net))
                margin = revenue - da_revenue
                shortfalls.append((-margin, abs(da_revenue)))
                if np.any(np.abs(qg - qp - da_net) > 1e-6):
                    margins.append((rec.t1, s, margin, abs(da_revenue), on_path))
            epigraphs.append((rec.t1, res.id, w_val, *max(shortfalls)))
    return margins, epigraphs


@pytest.fixture(scope="module")
def bench(synth_setup):
    cfg, base, pipe = synth_setup
    mcfg = ModelConfig()
    sopt = SolveOptions(gap_tol=BENCH_GAP, time_limit=120.0)
    objectives, cp_profits, margins, epigraphs = [], [], [], []
    started = time.perf_counter()
    for i in range(BENCH_DAYS):
        day = make_day(cfg, i, base)
        provider = PipelineProvider(
            pipe, day.market_day.da_lmp, cfg.horizon, BENCH_SCENARIOS, seed=i
        )
        ctl = RunControl(seed=i, model=mcfg, solver=sopt)
        ledgers = {}
        for v in Variant:
            if v is not Variant.ROBUST:
                ledgers[v.value] = run_day(day.system, day.market_day, v, provider, ctl, day.da)
        with recorded_windows() as windows:
            ledgers[Variant.ROBUST.value] = run_day(day.system, day.market_day, Variant.ROBUST, provider, ctl, day.da)
        day_margins, day_epigraphs = _deviation_margins(day, windows, mcfg)
        margins.extend(day_margins)
        epigraphs.extend(day_epigraphs)
        ev = evaluate_day(day.system, day.market_day, ledgers, day.da)
        objectives.append({n: o.objective for n, o in ev.outcomes.items()})
        cp_profits.append(dict(ev.outcomes[Variant.CURRENT_PRACTICE.value].profit))
    return {
        "objectives": objectives,
        "cp_profits": cp_profits,
        "margins": margins,
        "epigraphs": epigraphs,
        "elapsed": time.perf_counter() - started,
    }


def _first_window_instance(day, scenario_set):
    system = day.system
    te = system.grid.window_end
    return LacInstance(
        system,
        system.grid,
        tuple(day.market_day.load[:te]),
        da_reference_from_system(system),
        {r.id: float(r.e_initial) for r in system.reservoirs},
        {u.id: u.initial_mode for u in system.psh_units},
        scenario_set.slice_hours(te + 1),
    )


@pytest.fixture(scope="module")
def scaling(synth_setup):
    cfg, base, pipe = synth_setup
    day = make_day(cfg, 0, base)
    opts = SolveOptions(gap_tol=1e-3, time_limit=90.0)
    out = {"day": day}
    for variant in (Variant.STOCHASTIC, Variant.ROBUST):
        sizes, walltimes, cuts = {}, {}, {}
        for S in S_GRID:
            scn = pipe.scenario_set(
                0, day.market_day.rt_lmp_actual, day.market_day.da_lmp,
                cfg.horizon, S, seed=0,
            )
            model = build_variant(variant, _first_window_instance(day, scn), ModelConfig())
            sizes[S] = (model.n_rows, model.n_vars, model.n_nonzeros)
            tails = model.meta["tails"]
            assert not tails.blocks and tails.scenarios == tuple(range(S))
            cuts[S] = [tails.cuts[r.id].pieces(i)[2] for r in day.system.reservoirs for i in range(S)]
            sol = solve(model, opts)
            assert sol.ok, (variant, S, sol.status)
            walltimes[S] = sol.walltime_s
        out[variant] = {"sizes": sizes, "walltimes": walltimes, "cuts": cuts}
    return out


# -- 1: named rows against hand arithmetic -----------------------------------


def test_01_named_rows_match_hand_arithmetic():
    started = time.perf_counter()
    ws = window_setup(
        eta_gen=0.5, eta_pump=0.25,
        prices=((30.0,), (40.0,)), weights=(0.5, 0.5), da_gen=(0.0, 0.0, 10.0),
    )
    m = build_variant(Variant.ROBUST, ws.instance, ws.cfg)

    def check(name, coeffs, sense, rhs, model=m):
        for i in range(model.n_rows):
            r = model.row(i)
            if r.name == name:
                named = {model.var(j).name: c for j, c in r.coeffs.items()}
                assert (named, r.sense, r.rhs) == (coeffs, sense, rhs), name
                return
        raise AssertionError(f"row {name} missing")

    def scenario_named(model, prefixes):
        # the rows and columns of a scenario block end in .s<scenario>
        pattern = re.compile(rf"({'|'.join(prefixes)})\..*\.s\d+")
        return sorted(x.name for x in rows_named(model) + columns_named(model) if pattern.fullmatch(x.name))

    with verdict(1):
        # power balance with slacks, 50 MW residual load
        check("r_balance.t1", {
            "slack_short.t1": 1.0, "slack_surplus.t1": -1.0,
            "p.th1.t1": 1.0, "qg.ps1.t1": 1.0, "qp.ps1.t1": -1.0,
        }, EQ, 50.0)
        # thermal segment linkage; the committed unit's output is boxed by
        # its bounds to [1 * p_min, 1 * p_max], with no commitment column
        check("r_pdef.th1.t1", {"p.th1.t1": 1.0, "pseg0.th1.t1": -1.0}, EQ, 0.0)
        p = m.var(m.var_index("p.th1.t1"))
        assert (p.kind, p.lb, p.ub) == ("continuous", 0.0, 200.0)
        assert not columns_named(m, "uT.*") and not rows_named(m, "r_pmax.*")
        # exactly one mode; a start-up column per entered mode, charged
        # when the mode is on now and was not in the hour before
        check("r_one_mode.ps1.t1", {
            "u_off.ps1.t1": 1.0, "u_gen.ps1.t1": 1.0, "u_pump.ps1.t1": 1.0,
        }, EQ, 1.0)
        check("r_startup_gen.ps1.t1", {"su_gen.ps1.t1": 1.0, "u_gen.ps1.t1": -1.0},
              GE, 0.0)  # unit starts from "off"
        check("r_startup_pump.ps1.t1", {"su_pump.ps1.t1": 1.0, "u_pump.ps1.t1": -1.0}, GE, 0.0)
        check("r_startup_gen.ps1.t2", {
            "su_gen.ps1.t2": 1.0, "u_gen.ps1.t2": -1.0, "u_gen.ps1.t1": 1.0,
        }, GE, 0.0)
        check("r_startup_pump.ps1.t2", {
            "su_pump.ps1.t2": 1.0, "u_pump.ps1.t2": -1.0, "u_pump.ps1.t1": 1.0,
        }, GE, 0.0)
        gen_start = m.var(m.var_index("su_gen.ps1.t2"))
        assert (gen_start.kind, gen_start.lb, gen_start.ub) == ("continuous", 0.0, 1.0)
        assert m.n_binaries == 2 * 3  # the window modes only
        # dispatch boxes; the zero floor drops its commitment coefficient
        check("r_gen_hi.ps1.t1", {"qg.ps1.t1": 1.0, "u_gen.ps1.t1": -20.0}, LE, 0.0)
        check("r_gen_lo.ps1.t1", {"qg.ps1.t1": 1.0}, GE, 0.0)
        check("r_pump_hi.ps1.t1", {"qp.ps1.t1": 1.0, "u_pump.ps1.t1": -20.0}, LE, 0.0)
        check("r_pump_lo.ps1.t1", {"qp.ps1.t1": 1.0}, GE, 0.0)
        # storage chain: eta_gen 0.5 -> +2.0 on qg, eta_pump 0.25 -> -0.25 on qp
        check("r_soc_init.res1", {"e.res1.t1": 1.0}, EQ, 20.0)
        check("r_soc.res1.t1", {
            "e.res1.t2": 1.0, "e.res1.t1": -1.0, "qg.ps1.t1": 2.0, "qp.ps1.t1": -0.25,
        }, EQ, 0.0)
        check("r_soc_min.res1.t2", {"e.res1.t2": 1.0}, GE, 0.0)
        check("r_soc_max.res1.t2", {"e.res1.t2": 1.0}, LE, 40.0)
        check("r_soc_cross.res1", {
            "e.res1.t3": 1.0, "e.res1.t2": -1.0, "qg.ps1.t2": 2.0, "qp.ps1.t2": -0.25,
        }, EQ, 0.0)
        # the tail of hour 3 to the target 10: from e = 5 (all pumping,
        # 20 MW * 0.25) to 10 each MWh stored less earns p/0.25, above it
        # each MWh generated earns p*0.5, up to e_max 40
        check("r_tail_min.res1", {"e.res1.t3": 1.0}, GE, 5.0)
        check("r_tail_max.res1", {"e.res1.t3": 1.0}, LE, 40.0)
        # risk cuts: w >= DA_s - V_s(e) with DA_s = 10 p and V_s(e) the
        # smaller of -20 p + (p/0.25)(e - 5) and (p*0.5)(e - 10)
        check("r_risk.res1.s0.k0", {"w_risk.res1": 1.0, "e.res1.t3": 120.0}, GE, 300.0 + 600.0 + 600.0)
        check("r_risk.res1.s0.k1", {"w_risk.res1": 1.0, "e.res1.t3": 15.0}, GE, 300.0 + 150.0)
        check("r_risk.res1.s1.k0", {"w_risk.res1": 1.0, "e.res1.t3": 160.0}, GE, 400.0 + 800.0 + 800.0)
        check("r_risk.res1.s1.k1", {"w_risk.res1": 1.0, "e.res1.t3": 20.0}, GE, 400.0 + 200.0)
        # with no dispatch floor and no negative price the tails carry no
        # dispatch, modes, transitions or storage copies at all
        modal = ("u_off", "u_gen", "u_pump", "su_gen", "su_pump", "r_startup_gen", "r_startup_pump", "r_one_mode",
                 "qg", "qp", "r_gen_hi", "r_gen_lo", "r_pump_hi", "r_pump_lo", "e", "r_soc")
        assert scenario_named(m, modal) == []
        assert sorted(r.name for r in rows_named(m, "r_risk.*.s*.k*")) == [
            "r_risk.res1.s0.k0", "r_risk.res1.s0.k1", "r_risk.res1.s1.k0", "r_risk.res1.s1.k1"]

        # a negative price brings back the scenario's dispatch block, with
        # the cell's modes, exclusivity and boxes, where pumping and
        # generating at once would earn money; its storage copy starts
        # from the edge column
        neg = window_setup(
            eta_gen=0.5, eta_pump=0.25,
            prices=((-30.0,), (40.0,)), weights=(0.5, 0.5), da_gen=(0.0, 0.0, 10.0),
        )
        mn = build_variant(Variant.ROBUST, neg.instance, neg.cfg)
        check("r_one_mode.ps1.t3.s0", {
            "u_off.ps1.t3.s0": 1.0, "u_gen.ps1.t3.s0": 1.0, "u_pump.ps1.t3.s0": 1.0,
        }, EQ, 1.0, mn)
        check("r_gen_hi.ps1.t3.s0", {"qg.ps1.t3.s0": 1.0, "u_gen.ps1.t3.s0": -20.0}, LE, 0.0, mn)
        check("r_pump_hi.ps1.t3.s0", {"qp.ps1.t3.s0": 1.0, "u_pump.ps1.t3.s0": -20.0}, LE, 0.0, mn)
        assert scenario_named(mn, ("u_off", "u_gen", "u_pump")) == [
            "u_gen.ps1.t3.s0", "u_off.ps1.t3.s0", "u_pump.ps1.t3.s0"]
        check("r_soc_cross.res1.s0", {"e.res1.t3.s0": 1.0, "e.res1.t3": -1.0}, EQ, 0.0, mn)
        check("r_soc.res1.t3.s0", {
            "e.res1.t4.s0": 1.0, "e.res1.t3.s0": -1.0, "qg.ps1.t3.s0": 2.0, "qp.ps1.t3.s0": -0.25,
        }, EQ, 0.0, mn)
        check("r_soc_min.res1.t3.s0", {"e.res1.t3.s0": 1.0}, GE, 0.0, mn)
        check("r_soc_end.res1.s0", {"e.res1.t4.s0": 1.0}, EQ, 10.0, mn)
        check("r_risk.res1.s0", {
            "w_risk.res1": 1.0, "qg.ps1.t3.s0": -30.0, "qp.ps1.t3.s0": 30.0,
        }, GE, -300.0, mn)
        check("r_risk.res1.s1.k1", {"w_risk.res1": 1.0, "e.res1.t3": 20.0}, GE, 400.0 + 200.0, mn)

        # a unit already generating enters hour 1 with u_gen[0] = 1
        running = window_setup(init_mode="gen", trans_gen=40.0, trans_pump=25.0)
        mg = build_variant(Variant.ROBUST, running.instance, running.cfg)
        check("r_startup_gen.ps1.t1", {"su_gen.ps1.t1": 1.0, "u_gen.ps1.t1": -1.0}, GE, -1.0, mg)
        check("r_startup_pump.ps1.t1", {"su_pump.ps1.t1": 1.0, "u_pump.ps1.t1": -1.0}, GE, 0.0, mg)
        assert mg.var(mg.var_index("su_gen.ps1.t2")).obj == 40.0
        assert mg.var(mg.var_index("su_pump.ps1.t2")).obj == 25.0

        # relaxed, the tail may end above the target 10: V(e) = 30 (e - 10)
        # up to e = 30, then flat at 600 up to e_max 40
        relaxed = window_setup(end_soc="relax")
        mr = build_variant(Variant.STOCHASTIC, relaxed.instance, relaxed.cfg)
        check("r_cut.res1.s0.k0", {"theta.res1.s0": 1.0, "e.res1.t3": -30.0}, LE, -300.0, mr)
        check("r_cut.res1.s0.k1", {"theta.res1.s0": 1.0}, LE, 600.0, mr)
        check("r_tail_max.res1", {"e.res1.t3": 1.0}, LE, 40.0, mr)
        assert time.perf_counter() - started < 1.0


# -- 2: exhaustive enumeration against the solver ----------------------------


ENUM_CASES = [
    ("unit_eta", dict(), ("stochastic", "robust", "deterministic")),
    ("two_scenario", dict(prices=((30.0,), (40.0,)), weights=(0.5, 0.5)),
     ("stochastic", "robust")),
    ("dyadic_eta", dict(eta_gen=0.5, eta_pump=0.25, grid_step=2.5),
     ("stochastic", "robust", "deterministic")),
    ("planned_da", dict(da_gen=(0.0, 0.0, 10.0), prices=((30.0,), (25.0,)),
                        weights=(0.5, 0.5)), ("stochastic", "robust")),
    ("relaxed_end", dict(end_soc="relax"), ("stochastic", "robust", "deterministic")),
    # cases where the scenario blocks' mode binaries bind: dispatch floors
    # the optimum would otherwise undercut, and a negative price at which
    # pumping and generating at once would burn water for money
    ("dispatch_floors", dict(gen_min=10.0, pump_min=10.0, e_min=10.0, e_target=15.0,
                             grid_step=5.0, prices=((10.0,), (12.0,)), weights=(0.5, 0.5)),
     ("stochastic", "robust")),
    ("three_hour_tail", dict(T=5, L=2, loads=(50.0,) * 5, gen_min=10.0, pump_min=10.0,
                             e_min=10.0, e_target=15.0, grid_step=5.0,
                             prices=((30.0, 10.0, 50.0), (45.0, 20.0, 15.0)),
                             weights=(0.5, 0.5)), ("stochastic", "robust")),
    ("charged_gen_start", dict(init_mode="gen", trans_gen=40.0, trans_pump=25.0,
                               eta_gen=0.5, eta_pump=0.25, grid_step=2.5,
                               prices=((-30.0,), (40.0,)), weights=(0.5, 0.5)),
     ("stochastic", "robust")),
    ("full_horizon", dict(L=3), ("perfect",)),
    # start-up charges that shape the optimum: pump, then gen, then gen
    # (one gen start in hour 2, 10650), and two gen starts (11600)
    ("gen_start_after_pump", dict(L=3, loads=(30.0, 210.0, 30.0),
                                  thermal_segments=((100.0, 20.0), (150.0, 80.0)),
                                  trans_gen=50.0, trans_pump=30.0, init_mode="pump"),
     ("perfect",)),
    ("two_gen_starts", dict(T=4, L=4, loads=(150.0, 50.0, 150.0, 50.0),
                            thermal_segments=((100.0, 20.0), (150.0, 80.0)),
                            e_init=30.0, trans_gen=200.0), ("perfect",)),
]


def test_02_enumeration_matches_milp_optima():
    started = time.perf_counter()
    with verdict(2):
        for label, kwargs, variants in ENUM_CASES:
            ws = window_setup(**kwargs)
            for name in variants:
                reference = enumerate_objective(ws.toy, name)
                model = build_variant(Variant(name), ws.instance, ws.cfg)
                got = solve_exact(model).objective  # already includes model.objective_constant
                # every case has an optimum on the enumeration's dispatch
                # grid, so the grid optimum is the model optimum
                assert abs(got - reference) <= 1e-6, (label, name, got, reference)
        assert time.perf_counter() - started < 60.0


# -- 3 and 4: ten simulated days ---------------------------------------------


def test_03_perfect_is_the_floor_and_plan_following_books_zero(bench):
    with verdict(3):
        assert len(bench["objectives"]) == BENCH_DAYS
        for objs in bench["objectives"]:
            perfect = objs[Variant.PERFECT.value]
            assert len(objs) == 5
            for name, obj in objs.items():
                assert perfect <= obj + 2.0 * BENCH_GAP * abs(obj), (name, obj, perfect)
        for profits in bench["cp_profits"]:
            assert profits
            for unit, value in profits.items():
                assert abs(value) < 1e-9, (unit, value)
        assert bench["elapsed"] < 600.0


def test_04_robust_deviations_profitable_in_every_scenario(bench):
    margins, epigraphs = bench["margins"], bench["epigraphs"]
    with verdict(4):
        assert margins, "robust never deviated from the da plan; nothing to check"
        # with edge storage on the da trajectory the da post-window schedule
        # is feasible in every scenario's tail at zero shortfall, so w <= 0
        # and every deviation beats the da position in every scenario
        on_path = [m for m in margins if m[4]]
        assert on_path, "no deviation from a window with edge storage on the da path"
        bad = [m for m in on_path if m[2] < -1e-4 * m[3]]
        assert not bad, (
            f"{len(bad)} of {len(on_path)} deviating window-scenario pairs with "
            f"edge storage on the da path lose money against the da position; "
            f"worst shortfall {min(m[2] for m in bad):.2f} $"
        )
        # off the da trajectory the fixed end-of-day storage can force a
        # deviation; the promise left is that every accepted loss is priced:
        # the epigraph variable equals the worst scenario's shortfall
        loose = [e for e in epigraphs if abs(e[2] - e[3]) > 1e-4 * e[4]]
        assert not loose, (
            f"{len(loose)} of {len(epigraphs)} robust windows have a slack "
            f"epigraph; first (t1, reservoir, w, shortfall, |rhs|): {loose[0]}"
        )


# -- 5 and 6: first-window growth in the scenario count ----------------------


def test_05_size_grows_affinely_with_scenarios(scaling):
    """Each scenario adds its cuts on the edge storage and nothing else:
    one row per cut, with the tail value (stochastic) or the risk
    variable (robust) and, unless the cut is flat, the edge column; and
    in the stochastic model one tail-value column per reservoir.  What
    is left is the same window at every S.  A tail has at most one cut
    per unit piece of each post-window hour, plus the relaxed end's."""
    day = scaling["day"]
    system = day.system
    n_post = system.grid.horizon_end - system.grid.window_end
    R = len(system.reservoirs)
    with verdict(5):
        for variant in (Variant.STOCHASTIC, Variant.ROBUST):
            sizes, cuts = scaling[variant]["sizes"], scaling[variant]["cuts"]
            fixed = set()
            for S in S_GRID:
                rows, cols, nnz = sizes[S]
                n_cuts = sum(b.size for b in cuts[S])
                cut_nnz = sum(b.size + np.count_nonzero(b) for b in cuts[S])
                per_scenario = R if variant is Variant.STOCHASTIC else 0
                fixed.add((rows - n_cuts, cols - per_scenario * S, nnz - cut_nnz))
                assert all(1 <= b.size <= 2 * len(system.psh_units) * n_post + 1 for b in cuts[S])
            assert len(fixed) == 1, (variant, fixed)


def test_05b_lean_scenario_tails_match_the_full_binary_tail(synth_setup):
    """Scenario tails enter as exact cuts on the edge storage, and keep a
    block only where a cell has a dispatch floor or a negative price.
    The window with every tail an explicit dispatch block with mode
    binaries in every cell (``oracle_tools.full_tail_window``) must have
    the same optimum."""
    cfg, base, pipe = synth_setup
    day = make_day(cfg, 0, base)
    cases = []
    for S in (1, 10, 50):
        scn = pipe.scenario_set(
            0, day.market_day.rt_lmp_actual, day.market_day.da_lmp, cfg.horizon, S, seed=0,
        )
        first = _first_window_instance(day, scn)
        variants = (Variant.STOCHASTIC, Variant.ROBUST) + ((Variant.DETERMINISTIC,) if S == 1 else ())
        cases += [(f"day 0 first window, S={S}", v, first, ModelConfig()) for v in variants]
    for label, kwargs, variants in ENUM_CASES:
        ws = window_setup(**kwargs)
        cases += [(label, Variant(name), ws.instance, ws.cfg)
                  for name in variants if name != "perfect"]
    with verdict("5b"):
        for label, variant, instance, mcfg in cases:
            lean = build_variant(variant, instance, mcfg)
            reference = full_tail_window(variant.value, instance, mcfg)
            assert reference.n_binaries >= lean.n_binaries
            got, want = solve_exact(lean).objective, solve_exact(reference).objective
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (label, variant, got, want)


def test_06_first_window_stays_tractable(scaling):
    # wall time is bounded at every S but not ordered: the root bound meets
    # the optimum within seconds, and how long HiGHS then searches for a
    # matching integral point depends on its build, not on S.  Growth in S
    # is checked on model sizes by test 5.
    with verdict(6):
        for variant in (Variant.STOCHASTIC, Variant.ROBUST):
            wt = scaling[variant]["walltimes"]
            times = [wt[S] for S in S_GRID]
            assert all(t < 60.0 for t in times), (variant, times)
            if wt[S_GRID[-1]] >= 20.0:
                print(f"note: {variant.value} at S={S_GRID[-1]} took "
                      f"{wt[S_GRID[-1]]:.1f} s (over the 20 s target)")


# -- 7: forecast calibration -------------------------------------------------


def test_07a_arimax_recovery_within_three_standard_errors():
    with verdict("7a"):
        rng = np.random.default_rng(3)
        n, phi, alpha, beta = 3000, 0.7, 2.0, 1.5
        x = np.sin(np.arange(n) / 5.0) + 0.1 * rng.standard_normal(n)
        y = np.empty(n)
        prev = alpha / (1 - phi)
        for i in range(n):
            prev = alpha + phi * prev + beta * x[i] + rng.standard_normal()
            y[i] = prev
        spec = fit_arimax(y, np.column_stack([np.ones(n), x]), (1, 0, 0))
        for est, true, se in zip(
            (spec.phi[0], spec.beta[0], spec.beta[1]), (phi, alpha, beta), spec.se
        ):
            assert abs(est - true) <= 3.0 * se, (est, true, se)

        rng = np.random.default_rng(7)
        phi, theta = 0.6, 0.3
        eps = rng.standard_normal(3100)
        z = np.zeros(3100)
        for i in range(1, 3100):
            z[i] = phi * z[i - 1] + eps[i] + theta * eps[i - 1]
        spec = fit_arimax(z[100:], None, (1, 0, 1))
        for est, true, se in zip((spec.phi[0], spec.theta[0]), (phi, theta), spec.se):
            assert abs(est - true) <= 3.0 * se, (est, true, se)


@pytest.fixture(scope="module")
def calibration():
    cfg = SynthConfig(seed=0, history_days=190)
    rt, da = make_history(cfg)[BUS]
    cut = 160 * cfg.horizon
    pipe = ForecastPipeline(ForecastConfig()).fit({BUS: (rt[:cut], da[:cut])})
    return pipe.diagnostics({BUS: (rt[cut:], da[cut:])}, count=200, seed=0)[BUS]


def test_07b_pit_sample_is_uniform(calibration):
    with verdict("7b"):
        assert calibration["n_pits"] == 30
        assert calibration["ks_pvalue"] >= 0.01, calibration


def test_07c_envelope_coverage_near_nominal(calibration):
    with verdict("7c"):
        assert calibration["n_days"] == 30
        assert 0.85 <= calibration["coverage_90"] <= 0.95, calibration


def test_07d_tracker_converges_to_the_true_covariance():
    with verdict("7d"):
        rho, dim = 0.9, 24
        idx = np.arange(dim)
        truth = rho ** np.abs(idx[:, None] - idx[None, :])
        chol = np.linalg.cholesky(truth)
        rng = np.random.default_rng(0)
        tracker = CovarianceTracker.identity(dim, 0.998)
        for _ in range(2000):
            tracker = update_covariance(tracker, chol @ rng.standard_normal(dim))
        rel = np.linalg.norm(np.asarray(tracker.sigma) - truth) / np.linalg.norm(truth)
        assert rel < 0.10, rel


# -- 8: determinism and causality --------------------------------------------


def test_08_reruns_are_byte_identical_and_causal(synth_setup, tmp_path):
    cfg, base, pipe = synth_setup
    day = make_day(cfg, 0, base)
    provider = PipelineProvider(pipe, day.market_day.da_lmp, cfg.horizon, 6, seed=5)
    ctl = RunControl(seed=5)
    bumped = MarketDay(
        day.market_day.label,
        day.market_day.load[:23] + (day.market_day.load[23] + 60.0,),
        day.market_day.da_lmp,
        day.market_day.rt_lmp_actual,
    )
    with verdict(8):
        a = run_day(day.system, day.market_day, Variant.STOCHASTIC, provider, ctl)
        # a provider keeps the sets it drew, so the rerun gets its own
        fresh = PipelineProvider(pipe, day.market_day.da_lmp, cfg.horizon, 6, seed=5)
        b = run_day(day.system, day.market_day, Variant.STOCHASTIC, fresh, ctl)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.to_jsonl(pa)
        b.to_jsonl(pb)
        assert filecmp.cmp(pa, pb, shallow=False)

        # a load change in the last hour must not reach into any hour frozen
        # before that hour first enters a window
        for v in (Variant.CURRENT_PRACTICE, Variant.DETERMINISTIC,
                  Variant.STOCHASTIC, Variant.ROBUST):
            plain = a if v is Variant.STOCHASTIC else run_day(
                day.system, day.market_day, v, provider, ctl)
            shifted = run_day(day.system, bumped, v, provider, ctl)
            assert causality_check(plain, shifted, 21), v
            if v is Variant.STOCHASTIC:
                assert asdict(plain.hours[23]) != asdict(shifted.hours[23])


# -- 9: one scenario collapses the two-stage model ---------------------------


def test_09_one_scenario_collapses_to_deterministic(synth_setup):
    # one trajectory of weight 1: the two-stage model prices it by the same
    # cuts as the point-forecast model, column for column and row for row
    cfg, base, pipe = synth_setup
    with verdict(9):
        ws = window_setup()  # single-trajectory toy
        toy_s = build_variant(Variant.STOCHASTIC, ws.instance, ws.cfg)
        toy_d = build_variant(Variant.DETERMINISTIC, ws.instance, ws.cfg)
        assert canonical_form(toy_s) == canonical_form(toy_d)
        os_, od = solve_exact(toy_s).objective, solve_exact(toy_d).objective
        assert abs(os_ - od) <= 1e-9 * max(1.0, abs(os_))

        day = make_day(cfg, 0, base)
        scn = pipe.scenario_set(
            0, day.market_day.rt_lmp_actual, day.market_day.da_lmp,
            cfg.horizon, 1, seed=2,
        )
        inst = _first_window_instance(day, scn)
        big_s = build_variant(Variant.STOCHASTIC, inst, ModelConfig())
        big_d = build_variant(Variant.DETERMINISTIC, inst, ModelConfig())
        assert canonical_form(big_s) == canonical_form(big_d)
        opts = SolveOptions(gap_tol=1e-9, time_limit=90.0)
        ss, sd = solve(big_s, opts), solve(big_d, opts)
        assert ss.ok and sd.ok
        assert abs(ss.objective - sd.objective) <= 1e-9 * max(1.0, abs(ss.objective))
