"""Structural checks of the window builders against hand-written rows."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pshlac.core import CostSegment, InitialStatus, PriceScenarioSet, ThermalUnit
from pshlac.lac_models import (
    ConfigurationError,
    LacInstance,
    ModelConfig,
    Variant,
    _startup_constant,
    apply_da_reference,
    build_current_practice,
    build_da_model,
    build_da_reference,
    build_deterministic,
    build_perfect,
    build_robust,
    build_stochastic,
    build_variant,
    da_reference_from_system,
    extract_da_reference,
    scenario_block_size,
)
from pshlac.milp import EQ, GE, LE, MilpModel, SolveOptions, Tag, solve

from conftest import EXACT, solve_exact
from oracle_tools import enumerate_objective
from toys import NODE, window_setup


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
        build_stochastic(inst, basic_window.cfg)


def test_rejects_wrong_history_length():
    late = window_setup(T=4, t1=2, L=2, loads=(50.0,) * 4)
    inst = replace(late.instance, fixed_history=())
    with pytest.raises(ConfigurationError, match="fixed_history covers 0 hours, expected 1"):
        build_stochastic(inst, late.cfg)


def test_rejects_missing_states(basic_window):
    ws = basic_window
    with pytest.raises(ConfigurationError, match="missing SOC state"):
        build_stochastic(replace(ws.instance, soc_state={}), ws.cfg)
    with pytest.raises(ConfigurationError, match="missing day-ahead end SOC"):
        build_stochastic(replace(ws.instance, da=replace(ws.instance.da, end_soc={})), ws.cfg)
    with pytest.raises(ConfigurationError, match="missing previous mode"):
        build_stochastic(replace(ws.instance, prev_modes={}), ws.cfg)


def test_rejects_misaligned_scenario_hours(basic_window):
    bad = PriceScenarioSet((NODE,), 2, np.full((1, 1, 2), 30.0), (1.0,))
    inst = replace(basic_window.instance, scenario_set=bad)
    with pytest.raises(ConfigurationError, match=r"do not match post-window \[3, 3\]"):
        build_stochastic(inst, basic_window.cfg)


def test_rejects_bad_weights_and_missing_node(basic_window):
    arr = np.full((2, 1, 1), 30.0)
    lopsided = PriceScenarioSet((NODE,), 3, arr, (0.7, 0.7))
    with pytest.raises(ConfigurationError, match="sum to 1"):
        build_stochastic(replace(basic_window.instance, scenario_set=lopsided), basic_window.cfg)
    elsewhere = PriceScenarioSet(("other",), 3, np.full((1, 1, 1), 30.0), (1.0,))
    with pytest.raises(ConfigurationError, match="lacks node n1"):
        build_stochastic(replace(basic_window.instance, scenario_set=elsewhere), basic_window.cfg)


def test_scenario_variants_insist_on_scenarios(basic_window):
    inst = replace(basic_window.instance, scenario_set=None)
    with pytest.raises(ConfigurationError, match="scenario set required"):
        build_stochastic(inst, basic_window.cfg)
    # schedule-following windows do not need one
    build_current_practice(inst, basic_window.cfg)


def test_deterministic_wants_exactly_one_trajectory():
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.5, 0.5))
    with pytest.raises(ConfigurationError, match="exactly one scenario"):
        build_deterministic(ws.instance, ws.cfg)


def test_thermal_without_plan_is_rejected(basic_window):
    sys = basic_window.instance.system
    bare = replace(sys, thermal_units=(replace(sys.thermal_units[0], da_commitment=None),))
    inst = replace(basic_window.instance, system=bare)
    with pytest.raises(ConfigurationError, match="no day-ahead commitment"):
        build_stochastic(inst, basic_window.cfg)


# -- fixed startup charges ---------------------------------------------------


def test_startup_constant_counts_plan_starts(basic_window):
    unit = ThermalUnit(
        "a", (CostSegment(100.0, 10.0),), no_load_cost=0.0, startup_cost=100.0,
        p_min=0.0, p_max=100.0, initial_status=InitialStatus(False, 4),
        da_commitment=(0, 1, 1, 0, 1),
    )
    sys = replace(basic_window.instance.system, thermal_units=(unit,))
    assert _startup_constant(sys, [1, 2, 3, 4, 5]) == 200.0  # starts at t2 and t5
    assert _startup_constant(sys, [2, 3]) == 100.0
    assert _startup_constant(sys, [3]) == 0.0


def test_startup_charge_lands_in_objective_constant(basic_window):
    sys = basic_window.instance.system
    cold = replace(sys.thermal_units[0], initial_status=InitialStatus(False, 24), startup_cost=500.0)
    inst = replace(basic_window.instance, system=replace(sys, thermal_units=(cold,)))
    model = build_stochastic(inst, basic_window.cfg)
    assert model.objective_constant == 500.0
    assert solve_exact(model).objective == pytest.approx(1600.0 + 500.0, abs=1e-6)


# -- row-by-row fidelity -----------------------------------------------------


def test_balance_and_thermal_rows(basic_window):
    m = build_stochastic(basic_window.instance, basic_window.cfg)
    check_row(m, "r_balance.t1", {
        "slack_short.t1": 1.0, "slack_surplus.t1": -1.0,
        "p.th1.t1": 1.0, "qg.ps1.t1": 1.0, "qp.ps1.t1": -1.0,
    }, EQ, 50.0)
    check_row(m, "r_pdef.th1.t2", {"p.th1.t2": 1.0, "pseg0.th1.t2": -1.0}, EQ, 0.0)
    # p_min = 0 drops the commitment coefficient entirely
    check_row(m, "r_pmin.th1.t1", {"p.th1.t1": 1.0}, GE, 0.0)
    check_row(m, "r_pmax.th1.t1", {"p.th1.t1": 1.0, "uT.th1.t1": -200.0}, LE, 0.0)
    # commitment is bounds-fixed to the plan
    u = m.var(m.var_index("uT.th1.t1"))
    assert (u.lb, u.ub) == (1.0, 1.0)


def test_reservoir_rows_carry_the_efficiencies():
    ws = window_setup(eta_gen=0.5, eta_pump=0.25, grid_step=2.5)
    m = build_stochastic(ws.instance, ws.cfg)
    check_row(m, "r_soc_init.res1", {"e.res1.t1": 1.0}, EQ, 20.0)
    check_row(m, "r_soc.res1.t1", {
        "e.res1.t2": 1.0, "e.res1.t1": -1.0, "qg.ps1.t1": 2.0, "qp.ps1.t1": -0.25,
    }, EQ, 0.0)
    check_row(m, "r_soc_min.res1.t2", {"e.res1.t2": 1.0}, GE, 0.0)
    check_row(m, "r_soc_max.res1.t2", {"e.res1.t2": 1.0}, LE, 40.0)
    # branch into the scenario copies re-applies the window-edge flow
    check_row(m, "r_soc_cross.res1.s0", {
        "e.res1.t3.s0": 1.0, "e.res1.t2": -1.0, "qg.ps1.t2": 2.0, "qp.ps1.t2": -0.25,
    }, EQ, 0.0)
    check_row(m, "r_soc.res1.t3.s0", {
        "e.res1.t4.s0": 1.0, "e.res1.t3.s0": -1.0, "qg.ps1.t3.s0": 2.0, "qp.ps1.t3.s0": -0.25,
    }, EQ, 0.0)
    check_row(m, "r_soc_end.res1.s0", {"e.res1.t4.s0": 1.0}, EQ, 10.0)


def test_end_rule_switches_sense():
    relaxed = window_setup(end_soc="relax")
    m = build_stochastic(relaxed.instance, relaxed.cfg)
    r = row_named(m, "r_soc_end.res1.s0")
    assert r.sense == GE and r.rhs == 10.0


def test_stochastic_objective_weights_the_scenarios():
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.25, 0.75))
    m = build_stochastic(ws.instance, ws.cfg)
    assert m.var(m.var_index("qg.ps1.t3.s0")).obj == -0.25 * 30.0
    assert m.var(m.var_index("qp.ps1.t3.s0")).obj == +0.25 * 30.0
    assert m.var(m.var_index("qg.ps1.t3.s1")).obj == -0.75 * 40.0


def test_time_preference_ramps_post_window_prices():
    ws = window_setup(T=4, L=2, loads=(50.0,) * 4, prices=((30.0, 25.0),))
    cfg = replace(ws.cfg, time_preference=0.5)
    m = build_stochastic(ws.instance, cfg)
    assert m.var(m.var_index("qg.ps1.t3.s0")).obj == pytest.approx(-30.5)
    assert m.var(m.var_index("qg.ps1.t4.s0")).obj == pytest.approx(-26.0)
    assert m.var(m.var_index("qp.ps1.t4.s0")).obj == pytest.approx(+26.0)


def test_risk_rows_per_scenario():
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.5, 0.5), da_gen=(0.0, 0.0, 10.0))
    m = build_robust(ws.instance, ws.cfg)
    w = m.var(m.var_index("w_risk.res1"))
    assert (w.lb, w.ub, w.obj) == (-math.inf, math.inf, 1.0)
    check_row(m, "r_risk.res1.s0", {
        "w_risk.res1": 1.0, "qg.ps1.t3.s0": 30.0, "qp.ps1.t3.s0": -30.0,
    }, GE, 300.0)
    check_row(m, "r_risk.res1.s1", {
        "w_risk.res1": 1.0, "qg.ps1.t3.s1": 40.0, "qp.ps1.t3.s1": -40.0,
    }, GE, 400.0)


# -- schedule-following and full-information variants ------------------------


def test_current_practice_pins_the_da_schedule():
    ws = window_setup(da_gen=(5.0, 0.0, 10.0), e_init=25.0)
    m = build_current_practice(ws.instance, ws.cfg)
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
        build_current_practice(ws.instance, ws.cfg)


def test_perfect_stretches_to_the_day_end(basic_window):
    m = build_perfect(basic_window.instance, (50.0, 50.0, 50.0), basic_window.cfg)
    assert m.meta["window_hours"] == (1, 2, 3)
    assert m.meta["scen_blocks"] == []
    row_named(m, "r_balance.t3")
    whole_day = window_setup(L=3)  # same problem posed with the window at full length
    assert solve_exact(m).objective == pytest.approx(
        enumerate_objective(whole_day.toy, "perfect"), abs=1e-6
    )


def test_build_variant_dispatch(basic_window):
    inst, cfg = basic_window.instance, basic_window.cfg
    assert build_variant(Variant.STOCHASTIC, inst, cfg).name == "stochastic"
    assert build_variant("robust", inst, cfg).name == "robust"
    assert build_variant(Variant.CURRENT_PRACTICE, inst, cfg).name == "current_practice"
    assert build_variant(Variant.PERFECT, inst, cfg, full_day_load=(50.0,) * 3).name == "perfect"
    with pytest.raises(ConfigurationError, match="full-day load"):
        build_variant(Variant.PERFECT, inst, cfg)
    with pytest.raises(ConfigurationError, match="unknown variant"):
        build_variant("garbage", inst, cfg)


# -- optima against the exhaustive reference ---------------------------------


def test_window_optima_match_enumeration(basic_window):
    for variant, builder in (
        ("stochastic", build_stochastic),
        ("robust", build_robust),
        ("deterministic", build_deterministic),
    ):
        got = solve_exact(builder(basic_window.instance, basic_window.cfg)).objective
        assert got == pytest.approx(enumerate_objective(basic_window.toy, variant), abs=1e-6)


def test_two_scenario_optima_split_by_attitude():
    ws = window_setup(prices=((30.0,), (40.0,)), weights=(0.5, 0.5))
    stoch = solve_exact(build_stochastic(ws.instance, ws.cfg)).objective
    rob = solve_exact(build_robust(ws.instance, ws.cfg)).objective
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
    ref = build_da_reference(sys, (50.0,) * 3, basic_window.cfg, EXACT)
    assert ref.commitment["th1"] == (1, 1, 1)
    assert len(ref.gen["ps1"]) == 3
    # day closes on the configured target
    assert ref.end_soc["res1"] == pytest.approx(10.0, abs=1e-6)
    assert math.isfinite(ref.objective)
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
    x = dead.add_var("x", lb=2.0, ub=2.0, tag=Tag("aux"))
    dead.add_row("cap", {x: 1.0}, LE, 1.0, Tag("aux"))
    bad = solve(dead, EXACT)
    assert not bad.ok
    with pytest.raises(ConfigurationError, match="not solved"):
        extract_da_reference(sys, m, bad)


# -- size bookkeeping --------------------------------------------------------


def _measured_delta(make):
    a, b = make(2), make(3)
    return (b.n_rows - a.n_rows, b.n_vars - a.n_vars, b.n_nonzeros - a.n_nonzeros)


@pytest.mark.parametrize("variant,builder", [
    (Variant.STOCHASTIC, build_stochastic),
    (Variant.ROBUST, build_robust),
])
@pytest.mark.parametrize("kwargs,n_post", [
    (dict(), 1),
    (dict(T=5, L=2, loads=(50.0,) * 5), 3),
    (dict(gen_min=5.0, pump_min=4.0), 1),
])
def test_per_scenario_size_is_what_the_formula_says(variant, builder, kwargs, n_post):
    def make(S):
        prices = tuple((30.0,) * n_post for _ in range(S))
        ws = window_setup(prices=prices, weights=(1.0 / S,) * S, **kwargs)
        return builder(ws.instance, ws.cfg)

    ws = window_setup(prices=((30.0,) * n_post,), **kwargs)
    expect = scenario_block_size(ws.instance.system, n_post, variant)
    assert _measured_delta(make) == expect
