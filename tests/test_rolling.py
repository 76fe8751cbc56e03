import filecmp
import pickle
from dataclasses import replace

import pytest

from pshlac import rolling, synth
from pshlac.accounting import full_day_resolve
from pshlac.core import MarketDay
from pshlac.lac_models import ConfigurationError, Variant, build_variant, costs_by_hour
from pshlac.milp import FEASIBLE, INFEASIBLE, OPTIMAL, MilpModel, SolveOptions, infeasibility_report, solve
from pshlac.rolling import (
    CARRIED,
    FrozenSetProvider,
    PipelineProvider,
    RunControl,
    SimulationLedger,
    WindowError,
    WindowInfeasibleError,
    WindowTimeoutError,
    reveal_policy,
    run_day,
)
from pshlac.core import TimeGrid

from conftest import EXACT
from oracle_tools import causality_check, columns_named, max_violation, rows_named
from toys import NODE, full_set_for_day, recorded_windows, rolling_day_setup, window_setup

CONTROL = RunControl(solver=EXACT)


def _provider():
    full = full_set_for_day(((30.0, 30.0, 30.0), (10.0, 10.0, 10.0)))
    point = full_set_for_day(((20.0, 20.0, 20.0),))
    return FrozenSetProvider({0: full}, {0: point})


# -- reveal policy -----------------------------------------------------------


def test_reveal_policy_hides_prices_from_the_window_on(toy_day):
    system, day, da = toy_day
    view = reveal_policy(day, TimeGrid(2, 3, 2, 1.0))
    assert view.hours == (2, 3)
    assert view.net_load == (50.0, 50.0)
    # only hour 1 is realized when the window starts at hour 2
    assert view.observed_rt_lmp[NODE] == (20.0,)
    first = reveal_policy(day, TimeGrid(1, 3, 2, 1.0))
    assert first.observed_rt_lmp[NODE] == ()


# -- providers ---------------------------------------------------------------


def test_frozen_provider_slices_to_the_requested_origin():
    full = full_set_for_day(((30.0, 31.0, 32.0),))
    prov = FrozenSetProvider({0: full, 1: full})
    assert prov.full_set(0, {}).start_hour == 1
    sliced = prov.full_set(1, {})  # same stored set, clipped to hours 2..3
    assert sliced.start_hour == 2
    assert sliced.price(0, NODE, 2) == 31.0


def test_frozen_provider_errors():
    full = full_set_for_day(((30.0, 31.0, 32.0),))
    strict = FrozenSetProvider({0: full})
    with pytest.raises(KeyError, match="no scenario data for forecast origin 1"):
        strict.full_set(1, {})
    late = FrozenSetProvider({0: full_set_for_day(((30.0,),)).slice_hours(1)})
    with pytest.raises(KeyError, match="no scenario data"):
        late.point_set(0, {})
    tail_only = FrozenSetProvider({1: replace_start(full, 3)})
    with pytest.raises(KeyError, match="starts after hour 2"):
        tail_only.full_set(1, {})


def replace_start(scn, start_hour):
    from pshlac.core import PriceScenarioSet

    return PriceScenarioSet(scn.nodes, start_hour, scn.prices[:, :, : 4 - start_hour], scn.weights)


class _CountingPipeline:
    """A stand-in forecast pipeline: records each ``scenario_set`` call
    and prices hour t of a set at t plus the sum of the observed prefix."""

    def __init__(self):
        self.calls = []

    def scenario_set(self, t0, day_rt, day_da, horizon_end, count, seed):
        self.calls.append((t0, {n: tuple(v) for n, v in day_rt.items()}))
        base = sum(day_rt[NODE][:t0])
        return full_set_for_day([[base + t for t in range(1, horizon_end + 1)]] * count).slice_hours(t0 + 1)


def test_pipeline_provider_draws_each_origin_and_prefix_once():
    pipe = _CountingPipeline()
    prov = PipelineProvider(pipe, {NODE: (20.0, 20.0, 20.0)}, 3, 2, seed=0)
    a = prov.full_set(1, {NODE: (5.0,)})
    assert prov.full_set(1, {NODE: (5.0,)}) is a
    # prices from the origin on are not part of what the set depends on
    assert prov.full_set(1, {NODE: (5.0, 7.0)}) is a
    assert len(pipe.calls) == 1
    # another observed prefix or origin is another draw
    b = prov.full_set(1, {NODE: (6.0,)})
    c = prov.full_set(2, {NODE: (5.0, 7.0)})
    assert len(pipe.calls) == 3
    assert b.prices[0, 0, 0] == 8.0 and c.prices[0, 0, 0] == 15.0
    # a served set is shared, so it cannot be written to
    with pytest.raises(ValueError):
        a.prices[0, 0, 0] = 0.0


def test_scenario_variants_of_one_day_share_the_drawn_sets(toy_day):
    system, day, da = toy_day
    pipe = _CountingPipeline()
    prov = PipelineProvider(pipe, day.da_lmp, system.grid.horizon_end, 2, seed=0)
    for v in (Variant.STOCHASTIC, Variant.ROBUST):
        run_day(system, day, v, prov, CONTROL, da)
    # one window (t1=1) of the 3-hour day prices a tail: origin 0, drawn once
    assert [t0 for t0, _ in pipe.calls] == [0]


# -- the fix-and-slide loop --------------------------------------------------


def test_current_practice_follows_the_plan(toy_day):
    system, day, da = toy_day
    ledger = run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    assert len(ledger.windows) == 2  # T - L + 1
    assert [h.hour for h in ledger.hours] == [1, 2, 3]
    assert [h.psh_gen["ps1"] for h in ledger.hours] == [0.0, 0.0, 10.0]
    assert [h.psh_pump["ps1"] for h in ledger.hours] == [0.0, 0.0, 0.0]
    assert [h.thermal_p["th1"] for h in ledger.hours] == [50.0, 50.0, 40.0]
    assert [h.soc_after["res1"] for h in ledger.hours] == [20.0, 20.0, 10.0]
    assert all(h.slack_short == 0.0 and h.slack_surplus == 0.0 for h in ledger.hours)
    assert ledger.variant == "current_practice"
    assert ledger.day_label == "toyday"


def test_scenario_variants_cover_every_hour(toy_day):
    system, day, da = toy_day
    for variant in (Variant.STOCHASTIC, Variant.ROBUST, Variant.DETERMINISTIC):
        ledger = run_day(system, day, variant, _provider(), CONTROL, da)
        assert [h.hour for h in ledger.hours] == [1, 2, 3]
        assert len(ledger.windows) == 2
        # tail hour frozen from the final window still respects the day end
        assert ledger.hours[-1].soc_after["res1"] == pytest.approx(10.0, abs=1e-6)


def test_soc_bookkeeping_recurses_hour_by_hour(toy_day):
    system, day, da = toy_day
    ledger = run_day(system, day, Variant.STOCHASTIC, _provider(), CONTROL, da)
    unit = system.psh_units[0]
    e = system.reservoirs[0].e_initial
    for h in ledger.hours:
        e = e + unit.eta_pump * h.psh_pump["ps1"] - h.psh_gen["ps1"] / unit.eta_gen
        assert h.soc_after["res1"] == pytest.approx(e, abs=1e-9)


def test_scenario_variants_need_a_provider(toy_day):
    system, day, da = toy_day
    with pytest.raises(ValueError, match="needs a scenario provider"):
        run_day(system, day, Variant.STOCHASTIC, None, CONTROL, da)
    # non-scenario variants run without one
    run_day(system, day, Variant.PERFECT, None, CONTROL, da)


def test_perfect_windows_reach_the_day_end(toy_day):
    system, day, da = toy_day
    T = system.grid.horizon_end
    with recorded_windows() as windows:
        ledger = run_day(system, day, Variant.PERFECT, None, CONTROL, da)
    assert [w.t1 for w in windows] == [1, 2]
    # the second window carries the first one's plan, so its model is
    # built here from the instance it was given
    assert windows[1].model is None
    for w in windows:
        model = w.model or build_variant(Variant.PERFECT, w.instance, CONTROL.model)
        assert model.meta["window_hours"] == tuple(range(w.t1, T + 1))
        assert w.instance.net_load == tuple(day.load[w.t1 - 1 :])
    assert [h.hour for h in ledger.hours] == list(range(1, T + 1))


def test_infeasible_window_reports_conflicts():
    system, day, da = rolling_day_setup(da_gen=(20.0, 20.0, 20.0))
    with pytest.raises(WindowInfeasibleError) as err:
        run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    # hour 1 drains the reservoir; the second window cannot keep following
    assert err.value.window_index == 2
    assert err.value.t1 == 2
    assert err.value.conflict_rows
    assert "conflicting rows" in str(err.value)
    assert err.value.lp_text.startswith("\\ current_practice\n")


@pytest.mark.parametrize("exc", [
    WindowError("robust", 4, 4, "stopped"),
    WindowTimeoutError("stochastic", 2, 2, 0.5),
    WindowInfeasibleError("perfect", 3, 3, "infeasible", ["r_soc.res1.t3", "r_bal.t3"], "\\ perfect\nEnd\n"),
])
def test_window_errors_survive_pickling(exc):
    # a worker process sends its window error back pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert (back.variant, back.window_index, back.t1) == (exc.variant, exc.window_index, exc.t1)
    assert vars(back) == vars(exc)
    if isinstance(exc, WindowTimeoutError):
        assert back.time_limit == 0.5
    if isinstance(exc, WindowInfeasibleError):
        assert back.conflict_rows == ["r_soc.res1.t3", "r_bal.t3"]
        assert back.lp_text == "\\ perfect\nEnd\n"


def _rows_only(model, names):
    """The model's variable bounds, relaxed to continuous, with only the
    named rows and no objective."""
    out = MilpModel()
    for v in columns_named(model):
        out.add_var(v.name, v.lb, v.ub)
    for r in rows_named(model):
        if r.name in names:
            out.add_row(r.name, r.coeffs, r.sense, r.rhs)
    return out


def test_infeasible_window_rows_are_an_irreducible_conflict(monkeypatch):
    seen = []

    def keep_model(model):
        seen.append(model)
        return infeasibility_report(model)

    monkeypatch.setattr(rolling, "infeasibility_report", keep_model)
    system, day, da = rolling_day_setup(da_gen=(20.0, 20.0, 20.0))
    with pytest.raises(WindowInfeasibleError) as err:
        run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    rows = set(err.value.conflict_rows)
    assert rows and not any(r.startswith("<") for r in rows)
    (model,) = seen
    assert solve(_rows_only(model, rows), EXACT).status == INFEASIBLE
    for r in rows:
        assert solve(_rows_only(model, rows - {r}), EXACT).status == OPTIMAL, r


def test_unreachable_end_target_names_the_tail_domain(monkeypatch):
    seen = []

    def keep_model(model):
        seen.append(model)
        return infeasibility_report(model)

    monkeypatch.setattr(rolling, "infeasibility_report", keep_model)
    # pumping 4 MW for two hours from 20 MWh: the window edge reaches at
    # most 28, while the tail needs 32 to end at 40 after two more hours
    system, day, da = rolling_day_setup(T=4, loads=(50.0,) * 4, rt_lmp=(20.0,) * 4,
                                        da_gen=(0.0,) * 4, e_target=40.0, pump_max=4.0)
    # the day draws the sets of both its tail-pricing windows (origins 0
    # and 1) before the first window solves
    provider = FrozenSetProvider({t0: full_set_for_day(((30.0,) * 4,)) for t0 in (0, 1)})
    with pytest.raises(WindowInfeasibleError) as err:
        run_day(system, day, Variant.STOCHASTIC, provider, CONTROL, da)
    rows = set(err.value.conflict_rows)
    assert err.value.window_index == 1 and "r_tail_min.res1" in rows
    # no edge storage at all reaches a day-ahead end of 70 MWh (at most 40
    # before the last hour and 20 pumped in it): the tails keep explicit
    # blocks and the conflict names their rows
    with pytest.raises(WindowInfeasibleError) as err_far:
        run_day(system, day, Variant.STOCHASTIC, provider, CONTROL,
                replace(da, end_soc={"res1": 70.0}))
    far = set(err_far.value.conflict_rows)
    assert "r_soc_end.res1.s0" in far
    for model, conflict in zip(seen, (rows, far)):
        assert not any(r.startswith("<") for r in conflict)
        assert solve(_rows_only(model, conflict), EXACT).status == INFEASIBLE
        for r in conflict:
            assert solve(_rows_only(model, conflict - {r}), EXACT).status == OPTIMAL, r


def test_a_missing_late_origin_stops_the_day_before_any_window_solves(monkeypatch):
    # the day draws every window's set before its first window: a file
    # set that lacks origin 1 raises its KeyError before window 1 solves
    solves = []

    def counted(model, options=None, session=None):
        solves.append(model)
        return solve(model, options, session)

    monkeypatch.setattr(rolling, "solve", counted)
    system, day, da = rolling_day_setup(T=4, loads=(50.0,) * 4, rt_lmp=(20.0,) * 4, da_gen=(0.0,) * 3 + (10.0,))
    provider = FrozenSetProvider({0: full_set_for_day(((30.0,) * 4,))})
    with pytest.raises(KeyError, match="no scenario data for forecast origin 1"):
        run_day(system, day, Variant.STOCHASTIC, provider, CONTROL, da)
    assert solves == []
    # with origin 1 on file the same day rolls: one solve per window
    provider = FrozenSetProvider({t0: full_set_for_day(((30.0,) * 4,)) for t0 in (0, 1)})
    assert len(run_day(system, day, Variant.STOCHASTIC, provider, CONTROL, da).windows) == len(solves) == 3


def test_time_limited_windows_are_logged(toy_day, monkeypatch, caplog):
    # every window ends as a time-limited search with an incumbent: its
    # optimum, reported as ``feasible`` at a gap HiGHS did not close
    def stopped(model, options, session=None):
        return replace(solve(model, EXACT, session), status=FEASIBLE, gap=0.25)

    monkeypatch.setattr(rolling, "solve", stopped)
    system, day, da = toy_day
    with caplog.at_level("WARNING", logger="pshlac.rolling"):
        ledger = run_day(system, day, Variant.PERFECT, None,
                         RunControl(solver=SolveOptions(time_limit=0.0)), da)
    assert [(w.status, w.gap) for w in ledger.windows] == [("feasible", 0.25), ("feasible", 0.25)]
    assert [(r.name, r.levelname) for r in caplog.records] == [("pshlac.rolling", "WARNING")] * 2
    assert [r.getMessage() for r in caplog.records] == [
        f"perfect window {w.window} (t1={w.t1}) hit the 0 s time limit at gap {w.gap:.3g}"
        for w in ledger.windows
    ]
    # a window that closes its gap logs nothing
    caplog.clear()
    monkeypatch.undo()
    with caplog.at_level("WARNING", logger="pshlac.rolling"):
        run_day(system, day, Variant.PERFECT, None, CONTROL, da)
    assert caplog.records == []


def test_invalid_systems_are_refused_before_the_first_window():
    # a negative start-up charge would be booked in every hour (the
    # indicator settles at 1), and an efficiency above 1 would break the
    # exactness of the mode-free tails: both are named
    system, day, da = rolling_day_setup(startup_cost_gen=-5.0)
    unit = replace(system.psh_units[0], eta_gen=1.2)
    bad = replace(system, psh_units=(unit,))
    with pytest.raises(ConfigurationError) as err:
        run_day(bad, day, Variant.PERFECT, None, CONTROL, da)
    assert str(err.value) == ("invalid system or day: ps1.eta_gen: efficiency must lie in (0, 1]; "
                              "ps1.startup_cost_gen: start-up charges cannot be negative")
    # the day is checked against the system too
    system, day, da = rolling_day_setup()
    short = MarketDay(day.label, day.load[:2], day.da_lmp, day.rt_lmp_actual)
    with pytest.raises(ConfigurationError, match=r"^invalid system or day: toyday.load: expected 3 hourly values$"):
        run_day(system, short, Variant.PERFECT, None, CONTROL, da)


def test_negative_storage_floor_is_refused():
    # every storage column is non-negative, so a floor below 0 would be
    # silently raised to 0; with a target below 0 the day is infeasible
    ws = window_setup(L=3, e_min=-30.0, e_init=0.0, e_target=-30.0)
    with pytest.raises(ConfigurationError, match=r"^invalid system or day: res1\.e_min: storage cannot go below 0$"):
        run_day(ws.system, ws.market_day, Variant.PERFECT, None, CONTROL, ws.instance.da)


def test_a_window_below_its_floor_falls_back_to_branch_and_bound(caplog):
    # 5 MWh must leave the reservoir (15 -> 10) but the unit generates 10
    # MW or nothing.  The relaxation generates 5 MW in hour 1 at u_gen =
    # 1/4 and is off after; rounded, hour 1 generates at least 10 MW with
    # no pumping to make up for it, so the fixed LP is infeasible and the
    # first window goes to branch and bound.  Its optimum generates 10 MW
    # and pumps 6.25 MW back: 3 h at 1400 $ (45 MW at 20, 5 at 100), less
    # 600 $ for the 10 MW generated, plus 625 $ for the pumping, is 4225 $.
    ws = window_setup(T=3, L=2, e_init=15.0, e_target=10.0, gen_min=10.0, eta_pump=0.8,
                      thermal_segments=((45.0, 20.0), (155.0, 100.0)))
    control = RunControl(solver=EXACT)
    with caplog.at_level("DEBUG", logger="pshlac.rolling"), recorded_windows() as windows:
        ledger = run_day(ws.system, ws.market_day, Variant.PERFECT, None, control, ws.instance.da)
    first = ledger.windows[0]
    assert (first.status, first.incumbent, first.nodes) == ("optimal", "branch_and_bound", 1)
    assert first.objective == pytest.approx(4225.0, abs=1e-6)
    assert [r.getMessage() for r in caplog.records] == [
        "perfect window 1 (t1=1) was not closed at the root: branch and bound took 1 nodes"]
    # every window reaches the optimum of a solve without the rounding
    for rec, w in zip(windows, ledger.windows, strict=True):
        model = rec.model or build_variant(Variant.PERFECT, rec.instance, control.model)
        model.rounding = None
        forced = solve(model, EXACT)
        assert forced.objective == pytest.approx(w.objective, rel=EXACT.gap_tol)


def test_infeasible_mip_window_still_names_its_conflict():
    # a perfect window keeps its modes free and carries a rounding; its
    # relaxation is infeasible, so the window ends as branch and bound
    # ends it and names its rows
    system, day, da = rolling_day_setup(T=4, loads=(50.0,) * 4, rt_lmp=(20.0,) * 4,
                                        da_gen=(0.0,) * 4, e_target=40.0, pump_max=4.0)
    with pytest.raises(WindowInfeasibleError) as err:
        run_day(system, day, Variant.PERFECT, None, CONTROL, da)
    assert (err.value.window_index, err.value.t1) == (1, 1)
    assert "r_soc_end.res1" in err.value.conflict_rows


def test_time_out_is_reported_as_a_time_out(toy_day, monkeypatch):
    def no_report(model):
        raise AssertionError("a time-out runs no infeasibility report")

    monkeypatch.setattr(rolling, "infeasibility_report", no_report)
    system, day, da = toy_day
    with pytest.raises(WindowTimeoutError) as err:
        run_day(system, day, Variant.CURRENT_PRACTICE, None,
                RunControl(solver=SolveOptions(time_limit=0.0)), da)
    assert (err.value.window_index, err.value.t1, err.value.time_limit) == (1, 1, 0.0)
    assert not isinstance(err.value, WindowInfeasibleError)
    assert str(err.value).startswith("window 1 (t1=1) of current_practice hit the 0 s time limit")
    # a MIP window whose relaxation has no time either ends the same way
    with pytest.raises(WindowTimeoutError) as err:
        run_day(system, day, Variant.PERFECT, None, RunControl(solver=SolveOptions(time_limit=0.0)), da)
    assert (err.value.window_index, err.value.t1) == (1, 1)


def test_perfect_day_settles_no_higher_than_its_first_window(toy_day):
    # Bellman: each perfect window re-optimizes the tail of its
    # predecessor's plan on the same data, so the settled day costs no
    # more than the first window's plan
    system, day, da = toy_day
    ledger = run_day(system, day, Variant.PERFECT, None, CONTROL, da)
    first = ledger.windows[0].objective
    _, settled = full_day_resolve(system, day, ledger, da)
    assert settled.objective <= first + EXACT.gap_tol * abs(first)


# -- carried perfect windows -------------------------------------------------

GAP5 = SolveOptions(gap_tol=1e-5, time_limit=120.0)


@pytest.fixture(scope="module")
def seed11_day():
    cfg = synth.SynthConfig(seed=11)
    return synth.make_day(cfg, 0, base_system=synth.make_system(cfg))


def test_carried_perfect_windows_match_a_fresh_solve(seed11_day):
    # every window after the first closes by the first one's certificate;
    # solved afresh, each reaches the carried objective within the gap,
    # and the carried plan is a plan of the rebuilt window
    sd = seed11_day
    control = RunControl(solver=GAP5)
    with recorded_windows() as windows:
        ledger = run_day(sd.system, sd.market_day, Variant.PERFECT, None, control, sd.da)
    assert [w.incumbent for w in ledger.windows] == ["root_rounding"] + [CARRIED] * 21
    source = windows[0]
    assert [rec.model for rec in windows[1:]] == [None] * 21
    for w, rec in zip(ledger.windows[1:], windows[1:], strict=True):
        assert (w.status, w.nodes, w.build_s, w.rows, w.cols, w.nonzeros, w.binaries) == (OPTIMAL, 0, 0.0, 0, 0, 0, 0)
        assert 0.0 <= w.gap <= GAP5.gap_tol
        model = build_variant(Variant.PERFECT, rec.instance, control.model)
        fresh = solve(model, GAP5)
        assert fresh.status == OPTIMAL
        assert abs(w.objective - fresh.objective) <= GAP5.gap_tol * abs(fresh.objective)
        # the first window's values, mapped onto this window's columns by name
        carried = source.solution.values[[source.model.var_index(v.name) for v in columns_named(model)]]
        assert max_violation(model, carried) <= 1e-6


def test_a_certified_perfect_day_builds_one_window(seed11_day, monkeypatch):
    built = []

    def counted(variant, instance, cfg=None, previous=None, tails=None):
        built.append(instance.window.start_index)
        return build_variant(variant, instance, cfg, previous, tails)

    monkeypatch.setattr(rolling, "build_variant", counted)
    sd = seed11_day
    ledger = run_day(sd.system, sd.market_day, Variant.PERFECT, None,
                     RunControl(solver=GAP5), sd.da)
    assert built == [1]
    assert len(ledger.windows) == 22 and len(ledger.hours) == 24


def test_a_carried_gap_past_the_tolerance_is_solved_again():
    # at a 10% tolerance the floor keeps window 1 at a 6.6% gap.  Its
    # absolute gap carries over while the windows' objectives (without
    # the no-load charges) shrink, and over window 4's it would pass 10%:
    # window 4 is solved again, and window 5 carries from window 4
    gap = 0.1
    ws = window_setup(T=6, L=2, loads=(40.0, 50.0, 60.0) * 2, e_init=15.0, e_target=10.0, gen_min=10.0,
                      eta_pump=0.8, prices=((30.0,) * 4,), thermal_segments=((45.0, 20.0), (155.0, 100.0)),
                      no_load=500.0)
    control = RunControl(solver=SolveOptions(gap_tol=gap))
    with recorded_windows() as windows:
        ledger = run_day(ws.system, ws.market_day, Variant.PERFECT, None, control, ws.instance.da)
    assert [w.incumbent for w in ledger.windows] == ["root_rounding", CARRIED, CARRIED, "root_rounding", CARRIED]
    solved = {rec.t1: rec for rec in windows if rec.solution is not None}
    assert sorted(solved) == [1, 4]

    def certified_gap(source, t):
        """The source plan's absolute gap over its cost from hour t on
        without the no-load charges, and that cost with them."""
        cost = sum(c for h, c in costs_by_hour(source.model, source.solution).items() if h >= t)
        return (source.solution.objective - source.solution.bound) / (cost - 500.0 * (6 - t + 1)), cost

    assert certified_gap(solved[1], 4)[0] > gap
    for w in ledger.windows:
        assert w.status == OPTIMAL and 0.0 <= w.gap <= gap
        if w.incumbent == CARRIED:
            rel, cost = certified_gap(solved[max(t for t in solved if t < w.t1)], w.t1)
            assert w.objective == pytest.approx(cost, rel=1e-12)
            assert w.gap == pytest.approx(rel, rel=1e-9)


@pytest.mark.parametrize("drift, carried", [(1e-7, True), (1e-3, False)])
def test_a_window_whose_storage_drifts_from_the_plan_is_solved(toy_day, monkeypatch, drift, carried):
    # the bookkeeping adds ``drift`` MWh per hour: within 1e-6 MWh of the
    # plan the window still carries it, further off it is solved
    step = rolling.soc_step
    monkeypatch.setattr(rolling, "soc_step", lambda *args: step(*args) + drift)
    system, day, da = toy_day
    ledger = run_day(system, day, Variant.PERFECT, None, CONTROL, da)
    assert (ledger.windows[1].incumbent == CARRIED) == carried


def test_run_control_defaults():
    ctl = RunControl()
    assert ctl.scenario_count == 50
    assert ctl.seed == 0


# -- ledgers on disk ---------------------------------------------------------


def test_ledger_round_trip(tmp_path, toy_day):
    system, day, da = toy_day
    ledger = run_day(system, day, Variant.ROBUST, _provider(), CONTROL, da)
    p = tmp_path / "ledger.jsonl"
    ledger.to_jsonl(p)
    back = SimulationLedger.from_jsonl(p)
    assert back.variant == ledger.variant
    assert back.day_label == ledger.day_label
    assert back.seed == ledger.seed
    assert back.hours == ledger.hours


def test_ledger_reruns_are_byte_identical(tmp_path, toy_day):
    system, day, da = toy_day
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_day(system, day, Variant.STOCHASTIC, _provider(), CONTROL, da).to_jsonl(a)
    run_day(system, day, Variant.STOCHASTIC, _provider(), CONTROL, da).to_jsonl(b)
    assert filecmp.cmp(a, b, shallow=False)


def test_metrics_csv_shape(tmp_path, toy_day):
    system, day, da = toy_day
    header = ("window,t1,status,objective,build_s,walltime_s,rows,cols,nonzeros,binaries,gap,"
              "nodes,water_value,incumbent")
    # a plan-following window has every mode fixed and no binary left to
    # branch on: HiGHS solves it as an LP, with no gap and no nodes
    ledger = run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    p = tmp_path / "metrics.csv"
    ledger.write_metrics_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + len(ledger.windows)
    first = lines[1].split(",")
    w = ledger.windows[0]
    assert first[0] == "1" and first[1] == "1"
    assert float(first[4]) == w.build_s > 0.0
    assert float(first[5]) == w.walltime_s > 0.0
    assert int(first[6]) > 0 and int(first[7]) > 0
    assert int(first[9]) == w.binaries > 0
    assert (w.gap, w.nodes, w.incumbent) == (None, 0, "lp")
    assert lines[1].endswith(f",{w.binaries},,0,,lp")
    # a perfect window keeps its modes free and is a MIP, which its LP
    # relaxation's rounding closes at the root
    ledger = run_day(system, day, Variant.PERFECT, None, CONTROL, da)
    ledger.write_metrics_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == header
    first = lines[1].split(",")
    w = ledger.windows[0]
    assert float(first[4]) == w.build_s > 0.0
    assert float(first[10]) == w.gap
    assert 0.0 <= w.gap <= EXACT.gap_tol
    assert int(first[11]) == w.nodes == 0
    assert first[12] == "" and w.water_value == ()
    assert first[13] == w.incumbent == "root_rounding"
    # a solve that reports no gap leaves the column empty
    ledger.windows[0] = replace(w, gap=None)
    ledger.write_metrics_csv(p)
    assert p.read_text().splitlines()[1].endswith(f",{w.binaries},,{w.nodes},,root_rounding")
    # a window with cut tails records the water value of its one
    # reservoir; the last window reaches the day end and has no tail
    ledger = run_day(system, day, Variant.STOCHASTIC, _provider(), CONTROL, da)
    ledger.write_metrics_csv(p)
    rows = [line.split(",") for line in p.read_text().splitlines()[1:]]
    first, last = ledger.windows
    assert len(first.water_value) == 1 and float(rows[0][12]) == first.water_value[0]
    assert rows[1][12] == "" and last.water_value == ()


# -- causality ---------------------------------------------------------------


def test_frozen_prefix_survives_late_load_changes(toy_day):
    system, day, da = toy_day
    bumped = MarketDay(day.label, (50.0, 50.0, 70.0), day.da_lmp, day.rt_lmp_actual)
    a = run_day(system, day, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    b = run_day(system, bumped, Variant.CURRENT_PRACTICE, None, CONTROL, da)
    assert causality_check(a, b, through_hour=2)
    assert not causality_check(a, b, through_hour=3)
    assert b.hours[2].thermal_p["th1"] == pytest.approx(60.0, abs=1e-6)
    # a ledger cut short before the checked hour does not agree on it
    truncated = SimulationLedger(a.variant, a.day_label, a.seed, hours=a.hours[:1])
    assert not causality_check(a, truncated, through_hour=2)
    assert not causality_check(truncated, a, through_hour=2)
    assert causality_check(a, truncated, through_hour=1)
