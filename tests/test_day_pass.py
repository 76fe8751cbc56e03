"""A rolled day's fixed costs, paid once per day.

``rolling.run_day`` plans every window's scenario tails in one pass
(``lac_models.plan_tails``, one ``psh_model.tail_value_functions`` call
per reservoir) and solves every window in one HiGHS session.  Both must
give what a window alone gives, to the bit: the plans equal the
per-window recursion of ``oracle_tools.tail_plans_by_window``, and each
solve in the day's session equals a solve in a session of its own.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlac.core import PowerSystem, PriceScenarioSet, PshUnit, Reservoir, TimeGrid
from pshlac.lac_models import ConfigurationError, DaReference, ModelConfig, Variant, build_variant, plan_tails
from pshlac.milp import SolveOptions, highs_session, solve
from pshlac.psh_model import tail_value_functions
from pshlac.rolling import PipelineProvider, RunControl, run_day

from conftest import EXACT
from oracle_tools import (
    plan_differences,
    same_solution,
    tail_plans_by_window,
    tail_value_function_alone,
    water_value_by_scenario,
)
from toys import recorded_windows, window_setup

GAP5 = SolveOptions(gap_tol=1e-5, time_limit=120.0)
SCENARIO_VARIANTS = (Variant.DETERMINISTIC, Variant.STOCHASTIC, Variant.ROBUST)


@pytest.fixture(scope="module")
def seed11_rolled(seed11_study):
    """Every window of seed-11 days 0-1 at S=10 and gap 1e-5, as the
    benchmark rolls them, recorded per (day, variant), and the ledgers."""
    pipe, days = seed11_study
    control = RunControl(scenario_count=10, seed=11, model=ModelConfig(gap_tol=1e-5), solver=GAP5)
    rolled, ledgers = {}, {}
    for k, sd in enumerate(days):
        provider = PipelineProvider(pipe, sd.market_day.da_lmp, 24, 10, 11)
        for variant in Variant:
            with recorded_windows() as windows:
                ledgers[k, variant] = run_day(sd.system, sd.market_day, variant, provider, control, sd.da)
            rolled[k, variant] = windows
    return days, control, rolled, ledgers


# -- one tails pass per day ----------------------------------------------------


def test_the_day_pass_plans_every_seed11_window_as_the_window_alone(seed11_rolled):
    days, control, rolled, _ = seed11_rolled
    for k, sd in enumerate(days):
        for variant in SCENARIO_VARIANTS:
            windows = rolled[k, variant]
            sets = [rec.instance.scenario_set for rec in windows]
            assert sum(s is not None for s in sets) == 21  # every window but the day-end one
            reference = tail_plans_by_window(sd.system, sd.da, sets, control.model)
            for rec, want in zip(windows, reference, strict=True):
                assert (rec.tails is None) == (rec.instance.scenario_set is None)
                assert rec.tails is None or rec.tails.scenario_set is rec.instance.scenario_set
                assert plan_differences(rec.tails, want) == [], (k, variant.value, rec.t1)
            # the same plans again, from a call of its own
            again = plan_tails(sd.system, sd.da, sets, control.model)
            assert all(plan_differences(p, want) == [] for p, want in zip(again, reference))


def test_every_seed11_cut_window_reports_the_reference_water_value(seed11_rolled):
    # the cut tables are read every scenario at once; the ledger's water
    # value equals the one-scenario reference to the bit
    _, _, rolled, ledgers = seed11_rolled
    for variant in SCENARIO_VARIANTS:
        windows, metrics = rolled[0, variant], ledgers[0, variant].windows
        cut = 0
        for rec, metric in zip(windows, metrics, strict=True):
            tails = rec.model.meta.get("tails")
            want = water_value_by_scenario(tails, rec.solution) if tails else ()
            assert list(map(repr, metric.water_value)) == list(map(repr, want)), (variant.value, rec.t1)
            cut += bool(want)
        assert cut == 21, variant.value  # every window but the day-end one


@st.composite
def ragged_days(draw):
    """A day of 2-7 hours whose windows reach the day end with 0 to T-1
    post-window hours and 1-4 scenarios each, over 1-2 units on one or
    two reservoirs.  Prices hold ties and zeros; a scenario may carry a
    negative price (a mode cell), and a window may have one in every
    scenario, so that it keeps only blocks.  The end-of-day targets may
    lie out of every edge storage's reach."""
    T = draw(st.integers(2, 7))
    n_units = draw(st.integers(1, 2))
    shared = n_units == 2 and draw(st.booleans())
    dt = draw(st.sampled_from([1.0, 0.5]))
    floats = st.floats(0.5, 1.0)
    units = tuple(
        PshUnit(f"u{i}", "r0" if shared else f"r{i}", "n1", 0.0, draw(st.floats(5.0, 30.0)), 0.0,
                draw(st.floats(5.0, 30.0)), draw(floats), draw(floats))
        for i in range(n_units))
    reservoirs, targets = [], {}
    for rid in sorted({u.reservoir_id for u in units}):
        members = tuple(u.id for u in units if u.reservoir_id == rid)
        lo = draw(st.floats(0.0, 20.0))
        hi = lo + draw(st.floats(20.0, 80.0))
        reach = draw(st.sampled_from(["inside", "above", "below"]))
        if reach == "inside":
            targets[rid] = draw(st.floats(lo, hi))
        else:  # beyond what the last hour can pump or draw: the domain collapses there
            swing = sum(u.pump_max * u.eta_pump + u.gen_max / u.eta_gen for u in units if u.id in members) * dt
            targets[rid] = hi + swing + 1.0 if reach == "above" else lo - swing - 1.0
        reservoirs.append(Reservoir(rid, lo, hi, (lo + hi) / 2, targets[rid], members))
    system = PowerSystem(TimeGrid(1, T, 1, dt), (), units, tuple(reservoirs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        H = draw(st.integers(0, T - 1))
        S = draw(st.integers(1, 4))
        prices = rng.choice([0.0, 12.5, 30.0], size=(S, 1, H)) + rng.uniform(0.0, 40.0, (S, 1, H)) * (
            rng.random((S, 1, H)) < 0.6)
        negative = draw(st.sampled_from(["none", "some", "all"]))
        for s in range(S):
            if H and (negative == "all" or (negative == "some" and rng.random() < 0.5)):
                prices[s, 0, rng.integers(H)] = -5.0
        weights = tuple(np.full(S, 1.0 / S))
        sets.append(PriceScenarioSet(("n1",), T - H + 1, prices, weights))
    if draw(st.booleans()):
        sets.insert(draw(st.integers(0, len(sets))), None)  # a window at the day end
    cfg = ModelConfig(end_soc=draw(st.sampled_from(["fix", "relax"])))
    da = DaReference({}, {}, {}, targets)
    return system, da, sets, cfg


# a relaxed end with no post-window hour multiplies the half-line's
# infinite length by its zero slope in a product it does not keep
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(ragged_days())
def test_the_day_pass_equals_the_window_by_window_recursion(day):
    system, da, sets, cfg = day
    plans = plan_tails(system, da, sets, cfg)
    reference = tail_plans_by_window(system, da, sets, cfg)
    assert len(plans) == len(sets)
    for plan, want in zip(plans, reference, strict=True):
        assert plan_differences(plan, want) == []

    # reservoir by reservoir: exactly the windows whose post-window hours
    # include the day's last hour lose their cuts where a target is out of
    # reach, and a window with no hour keeps the one-point domain
    units = system.psh_units
    for r in system.reservoirs:
        idx = [i for i, u in enumerate(units) if u.reservoir_id == r.id]
        arrays = [s.prices[:, [0] * len(idx), :] for s in sets if s is not None]
        found = tail_value_functions(r, [units[i] for i in idx], arrays, da.end_soc[r.id], cfg.end_soc,
                                     system.grid.interval_hours)
        alone = [tail_value_function_alone(r, [units[i] for i in idx], a, da.end_soc[r.id], cfg.end_soc,
                                           system.grid.interval_hours) for a in arrays]
        # a target is inside [e_min, e_max] or beyond the last hour's swing,
        # and a relaxed end reaches any target below e_min
        target = da.end_soc[r.id]
        out_of_reach = target > r.e_max or (cfg.end_soc == "fix" and target < r.e_min)
        for a, f, g in zip(arrays, found, alone, strict=True):
            assert (f is None) == (out_of_reach and a.shape[2] > 0)
            assert (f is None) == (g is None)
            if f is not None:
                assert (f.lo, f.hi) == (g.lo, g.hi)
                assert all(np.array_equal(getattr(f, k), getattr(g, k)) for k in ("start", "x", "y", "slope"))


def test_a_plan_for_another_set_is_refused(basic_window):
    inst, cfg = basic_window.instance, basic_window.cfg
    [plan] = plan_tails(inst.system, inst.da, [inst.scenario_set], cfg)
    assert build_variant(Variant.STOCHASTIC, inst, cfg, None, plan).n_rows == \
        build_variant(Variant.STOCHASTIC, inst, cfg).n_rows
    other = replace(inst, scenario_set=replace(inst.scenario_set))
    with pytest.raises(ConfigurationError, match="another scenario set"):
        build_variant(Variant.STOCHASTIC, other, cfg, None, plan)


# -- one HiGHS session per day --------------------------------------------------


def _check_fresh(windows, options):
    """Each window solved in the day's session equals a solve of its model
    in a session of its own; returns how many were solved."""
    solved = [rec for rec in windows if rec.solution is not None]
    assert solved and all(rec.session is not None for rec in solved)
    assert len({id(rec.session) for rec in solved}) == 1  # one session for the day
    for rec in solved:
        assert same_solution(rec.solution, solve(rec.model, options)), rec.t1
    return len(solved)


def test_the_day_session_solves_each_seed11_window_as_a_fresh_one(seed11_rolled):
    days, control, rolled, _ = seed11_rolled
    counts = {v: _check_fresh(rolled[0, v], control.solver) for v in Variant}
    # one solve per window, the benchmark's count; a perfect day carries all but one
    assert counts == {v: 1 if v == Variant.PERFECT else 22 for v in Variant}


def test_the_day_session_keeps_the_branch_and_bound_fallback_fresh():
    # the toy day of test_a_window_below_its_floor_falls_back_to_branch_and_bound:
    # its first window goes to branch and bound, and its second, built
    # here since the day carries it, closes at the root
    ws = window_setup(T=3, L=2, e_init=15.0, e_target=10.0, gen_min=10.0, eta_pump=0.8,
                      thermal_segments=((45.0, 20.0), (155.0, 100.0)))
    control = RunControl(solver=EXACT)
    with recorded_windows() as windows:
        ledger = run_day(ws.system, ws.market_day, Variant.PERFECT, None, control, ws.instance.da)
    assert [w.incumbent for w in ledger.windows] == ["branch_and_bound", "carried"]
    assert _check_fresh(windows, EXACT) == 1
    fallback = windows[0].model
    rounded = build_variant(Variant.PERFECT, windows[1].instance, control.model)
    assert solve(rounded, EXACT).incumbent == "root_rounding"
    # in a used session, after a root rounding and after itself
    session = highs_session()
    for model in (rounded, fallback, fallback, rounded, fallback):
        assert same_solution(solve(model, EXACT, session), solve(model, EXACT))
