"""Structural checks of the window builders against hand-written rows."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlac import milp as milp_module
from pshlac import synth
from pshlac.accounting import full_day_resolve
from pshlac.core import CostSegment, InitialStatus, PriceScenarioSet, ThermalUnit
from pshlac.lac_models import (
    ConfigurationError,
    ModelConfig,
    Variant,
    _add_thermal_dispatch,
    apply_da_reference,
    build_da_model,
    build_variant,
    costs_by_hour,
    da_reference_from_system,
    extract_da_reference,
)
from pshlac.milp import (BRANCH_AND_BOUND, EQ, FROM_LP, GE, LE, OPTIMAL, ROOT_ROUNDING, MilpModel, SolveOptions, _highs_lp,
                         solve)
from pshlac.rolling import RunControl, run_day

from conftest import EXACT, solve_exact
from oracle_tools import (
    columns_named,
    enumerate_objective,
    full_tail_window,
    max_violation,
    rows_named,
    same_solution,
)
from toys import NODE, rolling_day_setup, two_unit_instance, window_setup


def row_named(model, name):
    for i in range(model.n_rows):
        r = model.row(i)
        if r.name == name:
            return r
    raise KeyError(name)


def named_coeffs(model, row):
    return {model.var(i).name: c for i, c in row.coeffs.items()}


def check_row(model, name, coeffs, sense, rhs):
    r = row_named(model, name)
    assert r.sense == sense, name
    assert r.rhs == rhs, name
    assert named_coeffs(model, r) == coeffs, name


# -- instance validation -----------------------------------------------------


def test_rejects_wrong_net_load_length(basic_window):
    inst = replace(basic_window.instance, net_load=(50.0,))
    with pytest.raises(ConfigurationError, match="net_load has 1 values"):
        build_variant(Variant.STOCHASTIC, inst, basic_window.cfg)


def test_rejects_missing_states(basic_window):
    ws = basic_window
    with pytest.raises(ConfigurationError, match="missing SOC state"):
        build_variant(Variant.STOCHASTIC, replace(ws.instance, soc_state={}), ws.cfg)
    with pytest.raises(ConfigurationError, match="missing day-ahead end SOC"):
        build_variant(Variant.STOCHASTIC, replace(ws.instance, da=replace(ws.instance.da, end_soc={})), ws.cfg)
    with pytest.raises(ConfigurationError, match="missing previous mode"):
        build_variant(Variant.STOCHASTIC, replace(ws.instance, prev_modes={}), ws.cfg)


def test_rejects_misaligned_scenario_hours(basic_window):
    bad = PriceScenarioSet((NODE,), 2, np.full((1, 1, 2), 30.0), (1.0,))
    inst = replace(basic_window.instance, scenario_set=bad)
    with pytest.raises(ConfigurationError, match=r"do not match post-window \[3, 3\]"):
        build_variant(Variant.STOCHASTIC, inst, basic_window.cfg)


def test_rejects_bad_weights_and_missing_node(basic_window):
    arr = np.full((2, 1, 1), 30.0)
    for weights in ((0.7, 0.7), (float("nan"), 0.5), (1.2, -0.2)):
        lopsided = PriceScenarioSet((NODE,), 3, arr, weights)
        with pytest.raises(ConfigurationError, match="sum to 1"):
            build_variant(Variant.STOCHASTIC, replace(basic_window.instance, scenario_set=lopsided), basic_window.cfg)
    elsewhere = PriceScenarioSet(("other",), 3, np.full((1, 1, 1), 30.0), (1.0,))
    with pytest.raises(ConfigurationError, match="lacks node n1"):
        build_variant(Variant.STOCHASTIC, replace(basic_window.instance, scenario_set=elsewhere), basic_window.cfg)


def test_scenario_variants_insist_on_scenarios(basic_window):
    inst = replace(basic_window.instance, scenario_set=None)
    with pytest.raises(ConfigurationError, match="scenario set required"):
        build_variant(Variant.STOCHASTIC, inst, basic_window.cfg)
    # schedule-following windows do not need one
    build_variant(Variant.CURRENT_PRACTICE, inst, basic_window.cfg)


def test_deterministic_wants_exactly_one_trajectory():
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.5, 0.5))
    with pytest.raises(ConfigurationError, match="exactly one scenario"):
        build_variant(Variant.DETERMINISTIC, ws.instance, ws.cfg)


def test_thermal_without_plan_is_rejected(basic_window):
    # the plan comes from instance.da; one that lacks the unit, or is
    # shorter than the day, is refused
    inst = basic_window.instance
    for plan in ({}, {"th1": (1, 1)}):
        bare = replace(inst, da=replace(inst.da, commitment=plan))
        with pytest.raises(ConfigurationError, match="th1 has no day-ahead commitment of 3 hours"):
            build_variant(Variant.STOCHASTIC, bare, basic_window.cfg)


@pytest.mark.parametrize("field", ["gen", "pump"])
def test_psh_without_schedule_is_rejected(basic_window, field):
    inst = basic_window.instance
    for plan in ({}, {"ps1": (0.0,)}):
        bare = replace(inst, da=replace(inst.da, **{field: plan}))
        for variant in (Variant.CURRENT_PRACTICE, Variant.STOCHASTIC):
            with pytest.raises(ConfigurationError, match="ps1 has no day-ahead schedule of 3 hours"):
                build_variant(variant, bare, basic_window.cfg)


def test_a_window_pins_thermal_output_by_the_instance_plan(basic_window):
    # the unit record's own plan (all on, or none at all) is not read
    inst = basic_window.instance
    da = replace(inst.da, commitment={"th1": (1, 0, 1)})
    unit = inst.system.thermal_units[0]
    for record in (unit, replace(unit, da_commitment=None)):
        system = replace(inst.system, thermal_units=(record,))
        model = build_variant(Variant.STOCHASTIC, replace(inst, system=system, da=da), basic_window.cfg)
        assert model.meta["commitment"] == da.commitment
        p = [model.var(model.meta["thermal_p"][("th1", t)]) for t in (1, 2)]
        assert [(v.lb, v.ub) for v in p] == [(0.0, unit.p_max), (0.0, 0.0)]


# -- fixed startup charges ---------------------------------------------------


def test_startup_constant_counts_plan_starts():
    unit = ThermalUnit(
        "a", (CostSegment(60.0, 10.0), CostSegment(40.0, 25.0)), no_load_cost=7.0, startup_cost=100.0,
        p_min=20.0, p_max=100.0, initial_status=InitialStatus(False, 4),
    )
    plan = {"a": (0, 1, 1, 0, 1)}

    def pinned(hours):
        m = MilpModel()
        cols = _add_thermal_dispatch(m, (unit,), hours, plan)
        return m, cols

    m, cols = pinned([1, 2, 3, 4, 5])
    assert m.objective_constant == 2 * 100.0 + 3 * 7.0  # starts at t2 and t5, on in t2, t3, t5
    assert pinned([2, 3])[0].objective_constant == 100.0 + 2 * 7.0
    assert pinned([3])[0].objective_constant == 7.0
    assert pinned([4])[0].objective_constant == 0.0
    # output boxed by the plan, the segments free below their widths
    assert [(v.lb, v.ub) for v in (m.var(cols["p"][("a", t)]) for t in range(1, 6))] == [
        (0.0, 0.0), (20.0, 100.0), (20.0, 100.0), (0.0, 0.0), (20.0, 100.0)]
    assert (m.var(m.var_index("pseg1.a.t4")).ub, m.var(m.var_index("pseg1.a.t4")).obj) == (40.0, 25.0)
    assert set(cols) == {"p"} and m.n_binaries == 0
    assert [m.row(i).name for i in range(m.n_rows)] == [f"r_pdef.a.t{t}" for t in range(1, 6)]
    check_row(m, "r_pdef.a.t2", {"p.a.t2": 1.0, "pseg0.a.t2": -1.0, "pseg1.a.t2": -1.0}, EQ, 0.0)


def test_startup_charge_lands_in_objective_constant(basic_window):
    sys = basic_window.instance.system
    cold = replace(sys.thermal_units[0], initial_status=InitialStatus(False, 24), startup_cost=500.0,
                   no_load_cost=30.0)
    inst = replace(basic_window.instance, system=replace(sys, thermal_units=(cold,)))
    model = build_variant(Variant.STOCHASTIC, inst, basic_window.cfg)
    assert model.objective_constant == 500.0 + 2 * 30.0  # one start, two committed hours
    assert solve_exact(model).objective == pytest.approx(1600.0 + 560.0, abs=1e-6)


# -- row-by-row fidelity -----------------------------------------------------


def test_balance_and_thermal_rows(basic_window):
    m = build_variant(Variant.STOCHASTIC, basic_window.instance, basic_window.cfg)
    check_row(m, "r_balance.t1", {
        "slack_short.t1": 1.0, "slack_surplus.t1": -1.0,
        "p.th1.t1": 1.0, "qg.ps1.t1": 1.0, "qp.ps1.t1": -1.0,
    }, EQ, 50.0)
    check_row(m, "r_pdef.th1.t2", {"p.th1.t2": 1.0, "pseg0.th1.t2": -1.0}, EQ, 0.0)
    # the plan commits th1, so its output is boxed to [p_min, p_max]
    p = m.var(m.var_index("p.th1.t1"))
    assert (p.kind, p.lb, p.ub) == ("continuous", 0.0, 200.0)
    with pytest.raises(KeyError):
        m.var_index("uT.th1.t1")
    assert not rows_named(m, "r_pmin.*") and not rows_named(m, "r_pmax.*")


def test_reservoir_rows_carry_the_efficiencies():
    ws = window_setup(eta_gen=0.5, eta_pump=0.25, grid_step=2.5)
    m = build_variant(Variant.STOCHASTIC, ws.instance, ws.cfg)
    check_row(m, "r_soc_init.res1", {"e.res1.t1": 1.0}, EQ, 20.0)
    check_row(m, "r_soc.res1.t1", {
        "e.res1.t2": 1.0, "e.res1.t1": -1.0, "qg.ps1.t1": 2.0, "qp.ps1.t1": -0.25,
    }, EQ, 0.0)
    check_row(m, "r_soc_min.res1.t2", {"e.res1.t2": 1.0}, GE, 0.0)
    check_row(m, "r_soc_max.res1.t2", {"e.res1.t2": 1.0}, LE, 40.0)
    # the window-edge column takes the last window hour's flow
    check_row(m, "r_soc_cross.res1", {
        "e.res1.t3": 1.0, "e.res1.t2": -1.0, "qg.ps1.t2": 2.0, "qp.ps1.t2": -0.25,
    }, EQ, 0.0)
    # hour 3 at 30 $/MWh to the target 10: pumping less earns 30/0.25
    # per MWh of storage over 20*0.25 MWh, generating 30*0.5 over 20/0.5
    # MWh (clipped at e_max 40); all pumping from e = 5 earns -600
    check_row(m, "r_tail_min.res1", {"e.res1.t3": 1.0}, GE, 5.0)
    check_row(m, "r_tail_max.res1", {"e.res1.t3": 1.0}, LE, 40.0)
    check_row(m, "r_cut.res1.s0.k0", {"theta.res1.s0": 1.0, "e.res1.t3": -120.0}, LE, -600.0 - 120.0 * 5.0)
    check_row(m, "r_cut.res1.s0.k1", {"theta.res1.s0": 1.0, "e.res1.t3": -15.0}, LE, 0.0 - 15.0 * 10.0)
    assert [r.name for r in rows_named(m, "r_cut.*")] == ["r_cut.res1.s0.k0", "r_cut.res1.s0.k1"]


def test_end_rule_switches_sense():
    # relaxed, the tail may end above the target: it reaches e_max 40 and
    # its last piece is flat; fixed, it ends at 30 = 10 + 20 MWh generated
    relaxed = window_setup(end_soc="relax")
    m = build_variant(Variant.STOCHASTIC, relaxed.instance, relaxed.cfg)
    check_row(m, "r_tail_max.res1", {"e.res1.t3": 1.0}, LE, 40.0)
    check_row(m, "r_cut.res1.s0.k1", {"theta.res1.s0": 1.0}, LE, 600.0)
    fixed = window_setup()
    m = build_variant(Variant.STOCHASTIC, fixed.instance, fixed.cfg)
    check_row(m, "r_tail_max.res1", {"e.res1.t3": 1.0}, LE, 30.0)
    assert [r.name for r in rows_named(m, "r_cut.*")] == ["r_cut.res1.s0.k0"]
    # a window that reaches the day end closes on the target itself
    whole_day = window_setup(L=3, end_soc="relax")
    check_row(build_variant(Variant.PERFECT, whole_day.instance, whole_day.cfg), "r_soc_end.res1",
              {"e.res1.t4": 1.0}, GE, 10.0)


def test_stochastic_objective_weights_the_scenarios():
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.25, 0.75))
    m = build_variant(Variant.STOCHASTIC, ws.instance, ws.cfg)
    assert m.var(m.var_index("theta.res1.s0")).obj == -0.25
    assert m.var(m.var_index("theta.res1.s1")).obj == -0.75
    theta = m.var(m.var_index("theta.res1.s1"))
    assert (theta.lb, theta.ub) == (-math.inf, math.inf)
    # a scenario kept as a block weights its dispatch revenue instead
    ws = window_setup(prices=((-30.0,), (40.0,)), weights=(0.25, 0.75))
    m = build_variant(Variant.STOCHASTIC, ws.instance, ws.cfg)
    assert m.var(m.var_index("qg.ps1.t3.s0")).obj == -0.25 * -30.0
    assert m.var(m.var_index("qp.ps1.t3.s0")).obj == +0.25 * -30.0
    assert m.var(m.var_index("theta.res1.s1")).obj == -0.75
    with pytest.raises(KeyError):
        m.var_index("qg.ps1.t3.s1")


def test_time_preference_ramps_post_window_prices():
    ws = window_setup(T=4, L=2, loads=(50.0,) * 4, prices=((30.0, 25.0),))
    cfg = replace(ws.cfg, time_preference=0.5)
    m = build_variant(Variant.STOCHASTIC, ws.instance, cfg)
    # unit efficiencies: the cut slopes are the ramped prices 30.5 and 26
    slopes = [-r.coeffs[m.var_index("e.res1.t3")] for r in rows_named(m, "r_cut.*")]
    assert slopes == [pytest.approx(30.5), pytest.approx(26.0)]


def test_risk_rows_per_scenario():
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.5, 0.5), da_gen=(0.0, 0.0, 10.0))
    m = build_variant(Variant.ROBUST, ws.instance, ws.cfg)
    w = m.var(m.var_index("w_risk.res1"))
    assert (w.lb, w.ub, w.obj) == (-math.inf, math.inf, 1.0)
    # V_s(e) = p*(e - 10) on [0, 30]; the da position sells 10 MW at p:
    # w >= 10p - p*(e - 10)
    check_row(m, "r_risk.res1.s0.k0", {"w_risk.res1": 1.0, "e.res1.t3": 30.0}, GE, 600.0)
    check_row(m, "r_risk.res1.s1.k0", {"w_risk.res1": 1.0, "e.res1.t3": 40.0}, GE, 800.0)
    # a scenario kept as a block prices its own dispatch
    neg = window_setup(prices=((-30.0,), (40.0,)), weights=(0.5, 0.5), da_gen=(0.0, 0.0, 10.0))
    m = build_variant(Variant.ROBUST, neg.instance, neg.cfg)
    check_row(m, "r_risk.res1.s0", {
        "w_risk.res1": 1.0, "qg.ps1.t3.s0": -30.0, "qp.ps1.t3.s0": 30.0,
    }, GE, -300.0)
    check_row(m, "r_risk.res1.s1.k0", {"w_risk.res1": 1.0, "e.res1.t3": 40.0}, GE, 800.0)


def test_scenario_modes_follow_floors_and_negative_prices():
    # ramped prices: s0 (-2e-5 + 1e-5, 5, -1 + 3e-5), s1 (5 + 1e-5, 5, -2e-5 + 3e-5)
    ws = window_setup(T=5, L=2, loads=(50.0,) * 5, weights=(0.5, 0.5),
                      prices=((-2e-5, 5.0, -1.0), (5.0, 5.0, -2e-5)))
    cfg = replace(ws.cfg, time_preference=1e-5)
    for variant in (Variant.STOCHASTIC, Variant.ROBUST):
        m = build_variant(variant, ws.instance, cfg)
        tails = m.meta["tails"]
        # s0 keeps a block with modes in its negative cells, s1 is cut
        assert [b.scenario for b in tails.blocks] == [0] and tails.scenarios == (1,)
        assert sorted({t for (_, _, t) in tails.blocks[0].u}) == [3, 5]
        assert row_named(m, "r_one_mode.ps1.t5.s0").rhs == 1.0
        check_row(m, "r_soc_cross.res1.s0", {"e.res1.t3.s0": 1.0, "e.res1.t3": -1.0}, EQ, 0.0)
        with pytest.raises(KeyError):
            row_named(m, "r_one_mode.ps1.t5.s1")
    # a dispatch floor keeps every cell's modes at any price
    ws = window_setup(T=5, L=2, loads=(50.0,) * 5, gen_min=5.0, prices=((30.0, 30.0, 30.0),))
    tails = build_variant(Variant.STOCHASTIC, ws.instance, ws.cfg).meta["tails"]
    assert tails.scenarios == () and tails.cuts == {}
    assert sorted({t for (_, _, t) in tails.blocks[0].u}) == [3, 4, 5]


# -- schedule-following and full-information variants ------------------------


def test_current_practice_pins_the_da_schedule():
    ws = window_setup(da_gen=(5.0, 0.0, 10.0), e_init=25.0)
    m = build_variant(Variant.CURRENT_PRACTICE, ws.instance, ws.cfg)
    qg1 = m.var(m.var_index("qg.ps1.t1"))
    assert (qg1.lb, qg1.ub) == (5.0, 5.0)
    ug1 = m.var(m.var_index("u_gen.ps1.t1"))
    assert (ug1.lb, ug1.ub) == (1.0, 1.0)
    qg2 = m.var(m.var_index("qg.ps1.t2"))
    assert (qg2.lb, qg2.ub) == (0.0, 0.0)
    sol = solve_exact(m)
    # thermal covers what the pinned unit does not: 45 + 50 MW at 20 $/MWh
    assert sol.objective == pytest.approx(1900.0, abs=1e-6)


def test_current_practice_rejects_contradictory_schedule():
    ws = window_setup(da_gen=(5.0, 0.0, 0.0), da_pump=(5.0, 0.0, 0.0))
    with pytest.raises(ConfigurationError, match="generates and pumps at once"):
        build_variant(Variant.CURRENT_PRACTICE, ws.instance, ws.cfg)


def test_perfect_stretches_to_the_day_end(basic_window):
    whole_day = window_setup(L=3)  # the window runs to the end of the day
    m = build_variant(Variant.PERFECT, whole_day.instance, whole_day.cfg)
    assert m.meta["window_hours"] == (1, 2, 3)
    assert "tails" not in m.meta
    row_named(m, "r_balance.t3")
    assert solve_exact(m).objective == pytest.approx(
        enumerate_objective(whole_day.toy, "perfect"), abs=1e-6
    )
    # a window that stops short of the day end is not a perfect window
    with pytest.raises(ConfigurationError, match="window through hour 3"):
        build_variant(Variant.PERFECT, basic_window.instance, basic_window.cfg)


def test_build_variant_dispatch(basic_window):
    inst, cfg = basic_window.instance, basic_window.cfg
    assert build_variant(Variant.STOCHASTIC, inst, cfg).name == "stochastic"
    assert build_variant("robust", inst, cfg).name == "robust"
    assert build_variant(Variant.DETERMINISTIC, inst, cfg).name == "deterministic"
    assert build_variant(Variant.CURRENT_PRACTICE, inst, cfg).name == "current_practice"
    whole_day = window_setup(L=3).instance
    assert build_variant(Variant.PERFECT, whole_day, cfg).name == "perfect"
    # each refusal, in the order the builder checks them: the name, the
    # perfect window's reach and the deterministic trajectory count come
    # before the instance checks
    broken = replace(inst, soc_state={})
    with pytest.raises(ConfigurationError, match="unknown variant 'garbage'"):
        build_variant("garbage", broken, cfg)
    with pytest.raises(ConfigurationError, match="needs a window through hour 3, not one ending at hour 2"):
        build_variant(Variant.PERFECT, broken, cfg)
    pair = window_setup(prices=((30.0,), (40.0,)), weights=(0.5, 0.5)).instance
    for scn in (pair.scenario_set, None):
        with pytest.raises(ConfigurationError, match="exactly one scenario trajectory"):
            build_variant(Variant.DETERMINISTIC, replace(broken, scenario_set=scn), cfg)
    for variant in (Variant.STOCHASTIC, Variant.ROBUST):
        with pytest.raises(ConfigurationError, match="scenario set required while post-window hours remain"):
            build_variant(variant, replace(inst, scenario_set=None), cfg)
    for variant in Variant:
        with pytest.raises(ConfigurationError, match="missing SOC state"):
            build_variant(variant, replace(whole_day if variant == Variant.PERFECT else inst, soc_state={}), cfg)
    # a window through the day end needs no scenario set
    for variant in Variant:
        assert "tails" not in build_variant(variant, replace(whole_day, scenario_set=None), cfg).meta


# -- optima against the exhaustive reference ---------------------------------


def test_window_optima_match_enumeration(basic_window):
    for variant in (Variant.STOCHASTIC, Variant.ROBUST, Variant.DETERMINISTIC):
        got = solve_exact(build_variant(variant, basic_window.instance, basic_window.cfg)).objective
        assert got == pytest.approx(enumerate_objective(basic_window.toy, variant.value), abs=1e-6)


def test_mixed_window_matches_the_full_binary_tail():
    # s0's negative price keeps its block, s1 is priced by cuts; both tie
    # to the same edge column, and the window's optimum is that of every
    # tail an explicit block with modes in every cell
    ws = window_setup(eta_gen=0.5, eta_pump=0.25, prices=((-30.0,), (40.0,)),
                      weights=(0.5, 0.5), da_gen=(0.0, 0.0, 10.0))
    for variant in (Variant.STOCHASTIC, Variant.ROBUST):
        m = build_variant(variant, ws.instance, ws.cfg)
        tails = m.meta["tails"]
        assert [b.scenario for b in tails.blocks] == [0] and tails.scenarios == (1,)
        want = solve_exact(full_tail_window(variant.value, ws.instance, ws.cfg)).objective
        assert solve_exact(m).objective == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_water_value_reads_the_active_cuts():
    # V_s(e) = p_s (e - 10) on [0, 30] at p = 30 and 40: the expected
    # water value is the weighted slope 35; the robust shortfall
    # -p_s (e - 10) binds for the cheaper scenario once e >= 10
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.5, 0.5))
    for variant, want in ((Variant.STOCHASTIC, 35.0), (Variant.ROBUST, 30.0)):
        m = build_variant(variant, ws.instance, ws.cfg)
        sol = solve_exact(m)
        assert sol.value(m.var_index("e.res1.t3")) >= 10.0
        assert m.meta["tails"].water_value(sol) == (want,)
    # a scenario kept as a block reports no slope
    neg = window_setup(prices=((-30.0,), (40.0,)), weights=(0.5, 0.5))
    m = build_variant(Variant.STOCHASTIC, neg.instance, neg.cfg)
    assert m.meta["tails"].water_value(solve_exact(m)) == ()


def test_two_scenario_optima_split_by_attitude():
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.5, 0.5))
    stoch = solve_exact(build_variant(Variant.STOCHASTIC, ws.instance, ws.cfg)).objective
    rob = solve_exact(build_variant(Variant.ROBUST, ws.instance, ws.cfg)).objective
    assert stoch == pytest.approx(enumerate_objective(ws.toy, "stochastic"), abs=1e-6)
    assert rob == pytest.approx(enumerate_objective(ws.toy, "robust"), abs=1e-6)
    assert stoch < rob  # hedged model forgoes expected revenue


# -- day-ahead reference problem ---------------------------------------------


def _uc_system(basic, min_up=3, min_down=2, initial=InitialStatus(True, 1)):
    sys = basic.instance.system
    unit = replace(
        sys.thermal_units[0], min_up=min_up, min_down=min_down,
        initial_status=initial, startup_cost=40.0, da_commitment=None,
    )
    return replace(sys, thermal_units=(unit,))


def test_da_model_guards(basic_window):
    with pytest.raises(ConfigurationError, match="da_load has 2 values, expected 3"):
        build_da_model(basic_window.instance.system, (50.0, 50.0))


def test_da_commitment_flow_rows(basic_window):
    sys = _uc_system(basic_window)
    m = build_da_model(sys, (50.0,) * 3)
    check_row(m, "r_commit_flow.th1.t1", {
        "uT.th1.t1": 1.0, "wT.th1.t1": -1.0, "zT.th1.t1": 1.0,
    }, EQ, 1.0)
    check_row(m, "r_commit_flow.th1.t2", {
        "uT.th1.t2": 1.0, "uT.th1.t1": -1.0, "wT.th1.t2": -1.0, "zT.th1.t2": 1.0,
    }, EQ, 0.0)
    check_row(m, "r_min_up.th1.t3", {
        "wT.th1.t1": 1.0, "wT.th1.t2": 1.0, "wT.th1.t3": 1.0, "uT.th1.t3": -1.0,
    }, LE, 0.0)
    check_row(m, "r_min_down.th1.t2", {
        "zT.th1.t1": 1.0, "zT.th1.t2": 1.0, "uT.th1.t2": 1.0,
    }, LE, 1.0)
    # committed 1 h into a 3 h minimum: hours 1 and 2 stay on
    for t, expect in ((1, (1.0, 1.0)), (2, (1.0, 1.0)), (3, (0.0, 1.0))):
        v = m.var(m.var_index(f"uT.th1.t{t}"))
        assert (v.lb, v.ub) == expect, t


def test_da_initial_down_time_locks_off(basic_window):
    sys = _uc_system(basic_window, min_down=3, initial=InitialStatus(False, 1))
    m = build_da_model(sys, (50.0,) * 3)
    for t, expect in ((1, (0.0, 0.0)), (2, (0.0, 0.0)), (3, (0.0, 1.0))):
        v = m.var(m.var_index(f"uT.th1.t{t}"))
        assert (v.lb, v.ub) == expect, t


def test_da_reserve_rows(basic_window):
    m = build_da_model(basic_window.instance.system, (50.0, 60.0, 50.0), reserve_margin=0.12)
    check_row(m, "r_reserve.t2", {"uT.th1.t2": 200.0}, GE, 1.12 * 60.0 - 20.0)
    plain = build_da_model(basic_window.instance.system, (50.0, 60.0, 50.0))
    with pytest.raises(KeyError):
        row_named(plain, "r_reserve.t2")


def test_da_reference_round_trip(basic_window):
    sys = basic_window.instance.system
    model = build_da_model(sys, (50.0,) * 3, basic_window.cfg)
    sol = solve(model, EXACT)
    assert sol.status == "optimal" and math.isfinite(sol.objective)
    ref = extract_da_reference(sys, model, sol)
    assert ref.commitment["th1"] == (1, 1, 1)
    assert len(ref.gen["ps1"]) == 3
    # day closes on the configured target
    assert ref.end_soc["res1"] == pytest.approx(10.0, abs=1e-6)
    loaded = apply_da_reference(sys, ref)
    assert loaded.psh_units[0].da_gen == ref.gen["ps1"]
    assert loaded.thermal_units[0].da_commitment == ref.commitment["th1"]
    again = da_reference_from_system(loaded)
    assert again.gen == ref.gen and again.pump == ref.pump
    assert again.commitment == ref.commitment
    assert again.end_soc == {"res1": 10.0}


def test_da_reference_from_system_requires_schedules(basic_window):
    sys = basic_window.instance.system
    no_commit = replace(sys, thermal_units=(replace(sys.thermal_units[0], da_commitment=None),))
    with pytest.raises(ConfigurationError, match="lacks a day-ahead commitment"):
        da_reference_from_system(no_commit)
    no_plan = replace(sys, psh_units=(replace(sys.psh_units[0], da_gen=None),))
    with pytest.raises(ConfigurationError, match="lacks a day-ahead schedule"):
        da_reference_from_system(no_plan)


def test_extract_rejects_failed_solutions(basic_window):
    sys = basic_window.instance.system
    m = build_da_model(sys, (50.0,) * 3)
    dead = MilpModel("dead")
    x = dead.add_var("x", lb=2.0, ub=2.0)
    dead.add_row("cap", {x: 1.0}, LE, 1.0)
    bad = solve(dead, EXACT)
    assert not bad.ok
    with pytest.raises(ConfigurationError, match="not solved"):
        extract_da_reference(sys, m, bad)


# -- size bookkeeping --------------------------------------------------------


def _measured_delta(make):
    a, b = make(2), make(3)
    return (b.n_rows - a.n_rows, b.n_vars - a.n_vars, b.n_nonzeros - a.n_nonzeros), b


@pytest.mark.parametrize("variant", [Variant.STOCHASTIC, Variant.ROBUST])
@pytest.mark.parametrize("kwargs,n_post", [
    (dict(), 1),
    (dict(T=5, L=2, loads=(50.0,) * 5), 3),
    (dict(gen_min=5.0, pump_min=4.0), 1),
])
def test_per_scenario_size_is_what_the_formula_says(variant, kwargs, n_post):
    def make(S):
        prices = tuple((30.0,) * n_post for _ in range(S))
        ws = window_setup(prices=prices, weights=(1.0 / S,) * S, **kwargs)
        return build_variant(variant, ws.instance, ws.cfg)

    delta, model = _measured_delta(make)
    tails = model.meta["tails"]
    H = n_post
    if "gen_min" in kwargs:
        # floors keep an explicit block: per hour 2 dispatch and 3 mode
        # columns, the exclusivity row and 4 boxes (11 nonzeros), the
        # storage chain (4 nonzeros) and its bounds; then the storage
        # copy after the last hour, the link to the edge column and the
        # end row; robust adds the scenario's risk row
        assert tails.scenarios == ()
        expect = (8 * H + 2, 6 * H + 1, 17 * H + 3)
        if variant is Variant.ROBUST:
            expect = (expect[0] + 1, expect[1], expect[2] + 1 + 2 * H)
    else:
        # a cut scenario adds one row per cut (the tail value or the
        # risk variable, and the edge column unless the cut is flat) and,
        # stochastic, one tail-value column; at one flat price the
        # revenue is linear in the edge storage: a single cut
        assert len(tails.blocks) == 0
        b = tails.cuts["res1"].pieces(2)[2]  # the added scenario's cut slopes
        assert b.tolist() == [30.0]
        expect = (b.size, int(variant is Variant.STOCHASTIC), int(b.size + np.count_nonzero(b)))
    assert delta == expect


# -- root rounding against branch and bound ------------------------------------

ROUNDING_GAP = SolveOptions(gap_tol=1e-6, time_limit=30.0)


_price = st.floats(min_value=-40.0, max_value=80.0, allow_nan=False).map(lambda v: round(v, 1))
_floor = st.sampled_from((0.0, 5.0, 12.0))


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(("perfect", "deterministic", "stochastic", "robust")),
    loads=st.lists(st.floats(min_value=20.0, max_value=90.0).map(round), min_size=4, max_size=4),
    prices=st.lists(st.lists(_price, min_size=2, max_size=2), min_size=2, max_size=2),
    startup=st.lists(st.tuples(st.sampled_from((0.0, 15.0, 80.0)), st.sampled_from((0.0, 15.0, 80.0))),
                     min_size=2, max_size=2),
    floors=st.lists(st.tuples(_floor, _floor), min_size=2, max_size=2),
    e_init=st.lists(st.sampled_from((10.0, 20.0, 30.0)), min_size=2, max_size=2),
    shift=st.lists(st.sampled_from((-8.0, 0.0, 8.0)), min_size=2, max_size=2),
    prev_modes=st.lists(st.sampled_from(("off", "gen", "pump")), min_size=2, max_size=2),
    expensive=st.sampled_from((25.0, 60.0)),
)
def test_root_rounding_agrees_with_branch_and_bound(variant, loads, prices, startup, floors, e_init,
                                                     shift, prev_modes, expensive):
    scenario_prices = [[p] for p in prices[: 1 if variant == "deterministic" else 2]]
    instance = two_unit_instance(
        variant=variant, loads=loads, prices=scenario_prices, startup=startup, floors=floors,
        e_init=e_init, e_target=[e + d for e, d in zip(e_init, shift)], prev_modes=prev_modes,
        expensive=expensive,
    )
    model = build_variant(Variant(variant), instance, ModelConfig(time_preference=0.0))
    sol = solve(model, ROUNDING_GAP)
    model.rounding = None
    forced = solve(model, ROUNDING_GAP)
    assert sol.status == forced.status
    if sol.status != OPTIMAL:
        return
    scale = max(abs(sol.objective), abs(forced.objective))
    assert abs(sol.objective - forced.objective) <= ROUNDING_GAP.gap_tol * scale + 1e-7
    if sol.incumbent == ROOT_ROUNDING:
        assert sol.nodes == 0 and 0.0 <= sol.gap <= ROUNDING_GAP.gap_tol
        assert max_violation(model, sol.values) <= 1e-6


# -- what each builder hands HiGHS, pinned to the bit ----------------------------


def _two_unit(variant, prices, floors=((0.0, 0.0), (0.0, 0.0))):
    return two_unit_instance(
        variant=variant, loads=(60.0, 85.0, 40.0, 70.0), prices=prices,
        startup=((15.0, 0.0), (0.0, 80.0)), floors=floors, e_init=(10.0, 30.0),
        e_target=(18.0, 22.0), prev_modes=("gen", "off"),
    )


_CUT_PRICES = [[[30.0, 45.0]], [[12.0, 60.0]], [[50.0, 20.0]]]
_NEGATIVE_PRICES = [[[30.0, 45.0]], [[12.0, -6.0]], [[50.0, 20.0]]]


def _settlement_model():
    system, day, da = rolling_day_setup()
    ledger = run_day(system, day, Variant.PERFECT, None, RunControl(solver=EXACT), da)
    return full_day_resolve(system, day, ledger, da)[0]


def _synth_da_model():
    system = synth.make_system()
    return build_da_model(system, tuple(2200.0 * synth.base_load_shape()), ModelConfig(), reserve_margin=0.12)


def _two_unit_window(variant, prices, **floors):
    return build_variant(variant, _two_unit(variant.value, prices, **floors), ModelConfig())


_PINNED_BUILDS = {
    "perfect": lambda: build_variant(
        Variant.PERFECT,
        window_setup(L=3, eta_gen=0.9, eta_pump=0.85, trans_gen=5.0, trans_pump=3.0,
                     thermal_segments=((30.0, 20.0), (170.0, 45.0))).instance, ModelConfig()),
    "current_practice": lambda: build_variant(
        Variant.CURRENT_PRACTICE, window_setup(da_gen=(5.0, 0.0, 10.0), e_init=25.0).instance, ModelConfig()),
    "deterministic": lambda: _two_unit_window(Variant.DETERMINISTIC, _CUT_PRICES[:1]),
    "stochastic": lambda: _two_unit_window(Variant.STOCHASTIC, _CUT_PRICES),
    "robust": lambda: _two_unit_window(Variant.ROBUST, _CUT_PRICES),
    "stochastic_floor": lambda: _two_unit_window(Variant.STOCHASTIC, _CUT_PRICES,
                                                 floors=((5.0, 0.0), (0.0, 4.0))),
    "robust_negative_price": lambda: _two_unit_window(Variant.ROBUST, _NEGATIVE_PRICES),
    "da_reserve": lambda: build_da_model(_uc_system(window_setup()), (50.0, 60.0, 50.0), ModelConfig(),
                                         reserve_margin=0.12),
    "da_synth_reserve": _synth_da_model,
    "settlement": _settlement_model,
}

# _highs_digest of each build.  The day-ahead ones hold since the
# row-by-row builders that the block builders replaced; the others since
# thermal units pinned to a plan carry it as bounds on their output
_PINNED_DIGESTS = {
    "current_practice": "1bd6746637a05212eaf6c238348fa83bd65bcbac3356af8f8ff107339c8bda7c",
    "da_reserve": "f1db5450de85c731823096af623e75adeed20b3c8f2672facbfc046e3f6d9517",
    "da_synth_reserve": "e9022a9558474e0c53e621e9484c1f060fbba308d89ec3bf5f9c9882f7178d73",
    "deterministic": "37e5727a173854de766a99c8e01aa73f1b5bb64c70c9ce4410de59e29f4b326a",
    "perfect": "87fffe59b411afe006e0f2d928e7330b6c32214dd0df0b541452d039885b05e0",
    "robust": "6fa1a5c13d5ef15d4f6743c11d16ed9f18bb58498b5bc06ffa7fb102b21583dc",
    "robust_negative_price": "bd2f6499e86161df947ec0affb94dbd891521decb96ad5c6ab77df3dee29b1c7",
    "settlement": "f5db1ab58426c889a50f5b1a9a5dab0892d45597c0156a45f95ad37fe7f4a460",
    "stochastic": "4a380544a2d700998f84ba806284b80711125abb8240e77ef9e7ba5a6868efc6",
    "stochastic_floor": "b68fa300a912d412099d613155cf7839ddf5055747e0e92a5a14413fc8b918b0",
}


def _highs_digest(model):
    """What ``solve`` hands HiGHS for ``model`` (with its integrality),
    plus the name of every column and row, as one digest."""
    lp = _highs_lp(model, integral=True)
    h = hashlib.sha256()
    for a in (lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_,
              lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_,
              np.array([int(k) for k in lp.integrality_], np.int64)):
        h.update(np.ascontiguousarray(a).tobytes())
    for view in [model.var(i) for i in range(model.n_vars)] + [model.row(i) for i in range(model.n_rows)]:
        h.update(f"{view.name}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(_PINNED_BUILDS))
def test_builders_hand_highs_the_pinned_matrix(case):
    model = _PINNED_BUILDS[case]()
    tails = model.meta.get("tails")
    if case in ("deterministic", "stochastic", "robust"):
        assert tails.cuts and not tails.blocks
    elif case in ("stochastic_floor", "robust_negative_price"):
        assert tails.blocks  # a scenario with a mode cell keeps its block
    assert _highs_digest(model) == _PINNED_DIGESTS[case]


_PINNED_THERMAL = sorted(c for c in _PINNED_BUILDS if not c.startswith("da_"))


@pytest.mark.parametrize("case", _PINNED_THERMAL)
def test_window_and_settlement_models_pin_thermal_units_by_bounds(case):
    model = _PINNED_BUILDS[case]()
    assert not [v.name for f in ("uT", "wT", "zT") for v in columns_named(model, f"{f}.*")]
    assert not [r.name for f in ("r_pmin", "r_pmax") for r in rows_named(model, f"{f}.*")]
    # the toys' units have p_min 0 and segments as wide as p_max in all
    plan = model.meta["commitment"]
    for (uid, t), j in model.meta["thermal_p"].items():
        width = sum(v.ub for v in columns_named(model, f"pseg*.{uid}.t{t}"))
        assert (model.var(j).lb, model.var(j).ub) == (0.0, plan[uid][t - 1] * width)


@pytest.mark.parametrize("case", sorted(_PINNED_BUILDS))
def test_each_solve_path_keeps_its_presolve(case, monkeypatch):
    model = _PINNED_BUILDS[case]()
    seen = []
    inner = milp_module.milp

    def recording(lp, options, rounding=None, session=None):
        highs, bound = inner(lp, options, rounding, session)
        seen.append(highs.getOptionValue("presolve")[1])
        return highs, bound

    monkeypatch.setattr(milp_module, "milp", recording)
    sol = solve(model, EXACT)
    # only the LPs of a root rounding run without presolve
    assert seen == ["off" if sol.incumbent == ROOT_ROUNDING else "choose"]
    expected = {"da_reserve": BRANCH_AND_BOUND, "perfect": BRANCH_AND_BOUND, "deterministic": ROOT_ROUNDING,
                "current_practice": FROM_LP, "settlement": FROM_LP}
    assert sol.incumbent == expected.get(case, sol.incumbent)


def test_a_used_session_solves_as_a_fresh_one(monkeypatch):
    # a root rounding leaves its session with presolve off; each later
    # solve sets HiGHS's options back first, so every model solved after
    # it in the session, LPs included, matches a fresh solve to the bit,
    # duals included, and its LPs run with HiGHS's default presolve
    seen = []
    inner = milp_module.milp
    mine = milp_module.highs_session()

    def recording(lp, options, rounding=None, session=None):
        highs, bound = inner(lp, options, rounding, session)
        if session is mine:
            seen.append(highs.getOptionValue("presolve")[1])
        return highs, bound

    monkeypatch.setattr(milp_module, "milp", recording)
    cases = ["deterministic", "settlement", "current_practice", "robust", "perfect", "settlement"]
    for case in cases:
        model = _PINNED_BUILDS[case]()
        assert same_solution(solve(model, EXACT, mine), solve(model, EXACT)), case
    # only the root roundings' LPs skip presolve
    assert seen == ["off", "choose", "choose", "off", "choose", "choose"]


# -- a window solution's cost by hour ------------------------------------------


@pytest.mark.parametrize("variant, prices", [("perfect", None), ("stochastic", _CUT_PRICES),
                                             ("robust", _NEGATIVE_PRICES)])
def test_costs_by_hour_sum_to_the_objective(variant, prices):
    # a no-load charge and a start-up in hour 3 give the thermal constant
    # a share in every hour; cut tails have no hour and sit under None
    instance = _two_unit(variant, prices)
    unit = replace(instance.system.thermal_units[0], no_load_cost=40.0, startup_cost=300.0,
                   da_commitment=(1, 0, 1, 1))
    system = replace(instance.system, thermal_units=(unit,))
    da = replace(instance.da, commitment={unit.id: unit.da_commitment})
    model = build_variant(Variant(variant), replace(instance, system=system, da=da), ModelConfig())
    sol = solve_exact(model)
    parts = costs_by_hour(model, sol)
    assert math.isclose(math.fsum(parts.values()), sol.objective, rel_tol=1e-9)
    assert model.meta["thermal_constant"] == {t: 40.0 * c + (300.0 if t == 3 else 0.0)
                                              for t, c in zip(model.meta["window_hours"], (1, 0, 1, 1))}
    assert set(parts) - {None} <= set(model.meta["window_hours"])
    assert (None in parts) == (variant != "perfect")
