from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlac.core import MODES, PshUnit, Reservoir
from pshlac.milp import BINARY, CONTINUOUS, GE, INFEASIBLE, MilpModel, SolveOptions, solve
from pshlac.psh_model import (
    add_block_soc,
    add_dispatch_boxes,
    add_end_target,
    add_mode_logic,
    add_soc_dynamics,
    create_psh_block,
    fix_block_to_schedule,
    _tail_pieces,
    soc_step,
    tail_value_functions,
)
from pshlac import psh_model

from oracle_tools import tail_lp

OPTS = SolveOptions(gap_tol=1e-9, time_limit=30.0)


def _unit(**kw):
    base = dict(id="ps1", reservoir_id="res1", node_id="n1",
                gen_min=0.0, gen_max=20.0, pump_min=0.0, pump_max=20.0,
                eta_gen=0.5, eta_pump=0.25,
                startup_cost_gen=7.0, startup_cost_pump=3.0)
    base.update(kw)
    return PshUnit(**base)


def _res(**kw):
    base = dict(id="res1", e_min=0.0, e_max=40.0, e_initial=20.0,
                e_final_target=10.0, member_units=("ps1",))
    base.update(kw)
    return Reservoir(**base)


def _fix(model, idx, val):
    model.set_var_bounds(idx, val, val)


def test_soc_step_bookkeeping():
    u1 = _unit(id="a", eta_gen=0.5, eta_pump=0.25)
    u2 = _unit(id="b", eta_gen=1.0, eta_pump=1.0)
    other = _unit(id="c", reservoir_id="elsewhere")
    res = _res(member_units=("a", "b"))
    # a: pump 8 adds 2, gen 0; b: gen 5 removes 5; c ignored
    e = soc_step([u1, u2, other], res, 10.0, {"a": 0.0, "b": 5.0, "c": 99.0},
                 {"a": 8.0, "c": 99.0})
    assert e == pytest.approx(10.0 + 0.25 * 8.0 - 5.0, abs=1e-12)
    # half-hour interval halves both flows
    e2 = soc_step([u2], res, 10.0, {"b": 4.0}, {}, dt=0.5)
    assert e2 == pytest.approx(8.0, abs=1e-12)


def test_block_variable_counts():
    m = MilpModel()
    blk = create_psh_block(m, [_unit()], [1, 2, 3])
    # per unit-hour: 3 commitments, 2 start-ups (gen, pump), 2 dispatch
    assert m.n_vars == 3 * (3 + 2 + 2)
    assert m.n_binaries == 3 * 3
    assert blk.scenario is None
    blk_s = create_psh_block(m, [_unit()], [4], scenario=2)
    assert m.var(blk_s.u[("ps1", "off", 4)]).name == "u_off.ps1.t4.s2"
    # a scenario block has 3 commitments and 2 dispatch, no start-ups
    assert m.n_vars == 3 * (3 + 2 + 2) + 3 + 2
    # and commitments only in the cells it names
    before = (m.n_vars, m.n_binaries)
    blk_m = create_psh_block(m, [_unit()], [5, 6, 7], scenario=3, mode_cells={("ps1", 6)})
    assert (m.n_vars - before[0], m.n_binaries - before[1]) == (3 * 2 + 3, 3)
    assert sorted(t for (_, _, t) in blk_m.u) == [6, 6, 6]
    assert sorted(blk_m.q_gen) == sorted(blk_m.q_pump) == [("ps1", 5), ("ps1", 6), ("ps1", 7)]


def test_transition_charges_only_when_requested():
    m = MilpModel()
    blk = create_psh_block(m, [_unit()], [1])
    assert sorted(blk.start) == [("ps1", "gen", 1), ("ps1", "pump", 1)]
    gen, pump = m.var(blk.start[("ps1", "gen", 1)]), m.var(blk.start[("ps1", "pump", 1)])
    assert (gen.name, gen.kind, gen.lb, gen.ub, gen.obj) == ("su_gen.ps1.t1", CONTINUOUS, 0.0, 1.0, 7.0)
    assert (pump.name, pump.kind, pump.lb, pump.ub, pump.obj) == ("su_pump.ps1.t1", CONTINUOUS, 0.0, 1.0, 3.0)
    # the modes are the only binaries
    assert [m.var(i).kind for i in blk.u.values()] == [BINARY] * 3
    # scenario blocks are revenue-only and have no start-ups to charge
    blk2 = create_psh_block(m, [_unit()], [2], scenario=0)
    assert blk2.start == {}


def test_scenario_mode_logic_is_exclusivity_only():
    u = _unit()
    m = MilpModel()
    blk = create_psh_block(m, [u], [4, 5], scenario=1)
    add_mode_logic(m, blk, u)
    assert [m.row(i).name for i in range(m.n_rows)] == ["r_one_mode.ps1.t4.s1", "r_one_mode.ps1.t5.s1"]
    # any mode may follow any other, with no edge mode to start from
    _fix(m, blk.u[("ps1", "pump", 4)], 1)
    _fix(m, blk.u[("ps1", "gen", 5)], 1)
    sol = solve(m, OPTS)
    assert sol.ok and sol.binary_value(blk.u[("ps1", "off", 5)]) == 0
    # mode logic and boxes skip the cells without commitments
    m2 = MilpModel()
    blk2 = create_psh_block(m2, [u], [4, 5], scenario=1, mode_cells={("ps1", 5)})
    add_mode_logic(m2, blk2, u)
    add_dispatch_boxes(m2, blk2, u)
    assert [m2.row(i).name for i in range(m2.n_rows)] == [
        "r_one_mode.ps1.t5.s1", "r_gen_hi.ps1.t5.s1", "r_gen_lo.ps1.t5.s1",
        "r_pump_hi.ps1.t5.s1", "r_pump_lo.ps1.t5.s1",
    ]
    # a cell without commitments may pump and generate at once
    _fix(m2, blk2.q_gen[("ps1", 4)], 20.0)
    _fix(m2, blk2.q_pump[("ps1", 4)], 20.0)
    assert solve(m2, OPTS).ok
    # the window block cannot start without the mode before it
    det = create_psh_block(m, [u], [1])
    with pytest.raises(ValueError, match="mode before hour 1"):
        add_mode_logic(m, det, u)


def _mode_model(hours=(1, 2), prev="off"):
    m = MilpModel()
    u = _unit()
    blk = create_psh_block(m, [u], list(hours))
    add_mode_logic(m, blk, u, prev=prev)
    add_dispatch_boxes(m, blk, u)
    return m, blk


def _charges(prev, modes):
    """Start-up charges of a mode sequence, by hand: 7 to enter gen, 3 to
    enter pump, from whatever mode came before."""
    cost = {"off": 0.0, "gen": 7.0, "pump": 3.0}
    return sum(cost[b] for a, b in zip((prev, *modes), modes) if a != b)


def _solve_modes(prev, modes):
    m, blk = _mode_model(hours=range(1, len(modes) + 1), prev=prev)
    for t, mode in enumerate(modes, start=1):
        _fix(m, blk.u[("ps1", mode, t)], 1)
    sol = solve(m, OPTS)
    assert sol.ok, (prev, modes, sol.status)
    return sol, blk


def test_mode_logic_derives_transitions_from_history():
    # every mode before the window and every two-hour mode sequence:
    # entering gen or pump is charged once, from any mode
    for prev, m1, m2 in product(MODES, repeat=3):
        sol, blk = _solve_modes(prev, (m1, m2))
        assert sol.objective == pytest.approx(_charges(prev, (m1, m2)), abs=1e-9), (prev, m1, m2)
        # exclusivity zeroes the other modes
        assert sum(sol.binary_value(blk.u[("ps1", m, 1)]) for m in MODES) == 1
        # each start-up column sits at its indicator
        for t, (a, b) in enumerate(zip((prev, m1), (m1, m2)), start=1):
            for mode in ("gen", "pump"):
                want = 1.0 if b == mode and a != mode else 0.0
                assert sol.value(blk.start[("ps1", mode, t)]) == pytest.approx(want, abs=1e-9)


def test_staying_in_mode_needs_no_transition():
    for prev, modes in (("gen", ("gen", "gen")), ("pump", ("pump", "pump")),
                        ("gen", ("off", "off")), ("pump", ("off", "off"))):
        sol, blk = _solve_modes(prev, modes)
        assert sol.objective == pytest.approx(0.0, abs=1e-9), (prev, modes)
        for idx in blk.start.values():
            assert sol.value(idx) == pytest.approx(0.0, abs=1e-9)


def test_pre_window_mode_applies_at_hour_one():
    # hour 1 reads the mode before the window as the constant [prev == m]
    for prev in MODES:
        m, _ = _mode_model(prev=prev)
        rows = {m.row(i).name: m.row(i) for i in range(m.n_rows)}
        for mode in ("gen", "pump"):
            r = rows[f"r_startup_{mode}.ps1.t1"]
            assert (r.sense, r.rhs) == (GE, -1.0 if prev == mode else 0.0)
            assert sorted(r.coeffs.values()) == [-1.0, 1.0]
            later = rows[f"r_startup_{mode}.ps1.t2"]
            assert (later.sense, later.rhs, sorted(later.coeffs.values())) == (GE, 0.0, [-1.0, 1.0, 1.0])
    # so generating in hour 1 is charged after off or pump, not after gen
    assert [_solve_modes(prev, ("gen",))[0].objective for prev in MODES] == pytest.approx([7.0, 0.0, 7.0])
    assert [_solve_modes(prev, ("pump",))[0].objective for prev in MODES] == pytest.approx([3.0, 3.0, 0.0])


def test_dispatch_boxes_follow_commitment():
    u = _unit(gen_min=5.0)
    m = MilpModel()
    blk = create_psh_block(m, [u], [1])
    add_mode_logic(m, blk, u, prev="off")
    add_dispatch_boxes(m, blk, u)
    qg = blk.q_gen[("ps1", 1)]
    # off -> no generation possible
    _fix(m, blk.u[("ps1", "off", 1)], 1)
    _fix(m, qg, 5.0)
    assert solve(m, OPTS).status == INFEASIBLE
    # gen -> output must reach the floor
    m2 = MilpModel()
    blk2 = create_psh_block(m2, [u], [1])
    add_mode_logic(m2, blk2, u, prev="off")
    add_dispatch_boxes(m2, blk2, u)
    _fix(m2, blk2.u[("ps1", "gen", 1)], 1)
    _fix(m2, blk2.q_gen[("ps1", 1)], 2.0)  # below gen_min
    assert solve(m2, OPTS).status == INFEASIBLE
    m3 = MilpModel()
    blk3 = create_psh_block(m3, [u], [1])
    add_mode_logic(m3, blk3, u, prev="off")
    add_dispatch_boxes(m3, blk3, u)
    _fix(m3, blk3.u[("ps1", "gen", 1)], 1)
    _fix(m3, blk3.q_gen[("ps1", 1)], 5.0)
    assert solve(m3, OPTS).ok


def _soc_model(dispatch, e_init=20.0, e_final=None, end_soc="fix", scen=None,
               res_kw=None, dt=1.0):
    """Three in-window hours with dispatch fixed, then the storage column
    entering hour 4, closed by ``e_final`` when given or carrying the
    scenario blocks' hours 4 and 5 (ending at ``e_final``, or anywhere
    above 0); returns (model, soc, per-block storage columns)."""
    u = _unit()
    res = _res(**(res_kw or {}))
    m = MilpModel()
    det = create_psh_block(m, [u], [1, 2, 3])
    add_mode_logic(m, det, u, prev="off")
    add_dispatch_boxes(m, det, u)
    for t, (qg, qp) in enumerate(dispatch, start=1):
        mode = "gen" if qg > 0 else "pump" if qp > 0 else "off"
        _fix(m, det.u[("ps1", mode, t)], 1)
        _fix(m, det.q_gen[("ps1", t)], qg)
        _fix(m, det.q_pump[("ps1", t)], qp)
    soc = add_soc_dynamics(m, res, [u], det, e_init, dt=dt)
    edge = soc.e_det[("res1", 4)]
    blocks = []
    if scen is None and e_final is not None:
        add_end_target(m, "res1", edge, e_final, end_soc)
    for s, post_dispatch in enumerate(scen or ()):
        blk = create_psh_block(m, [u], [4, 5], scenario=s)
        add_mode_logic(m, blk, u)
        add_dispatch_boxes(m, blk, u)
        for t, (qg, qp) in zip([4, 5], post_dispatch):
            mode = "gen" if qg > 0 else "pump" if qp > 0 else "off"
            _fix(m, blk.u[("ps1", mode, t)], 1)
            _fix(m, blk.q_gen[("ps1", t)], qg)
            _fix(m, blk.q_pump[("ps1", t)], qp)
        target, sense = (0.0, "relax") if e_final is None else (e_final, end_soc)
        blocks.append(add_block_soc(m, res, [u], blk, edge, target, sense, dt))
    return m, soc, blocks


def test_deterministic_soc_recursion_values():
    # gen 10 (removes 20), pump 8 (adds 2), off
    m, soc, _ = _soc_model([(10.0, 0.0), (0.0, 8.0), (0.0, 0.0)], e_final=None)
    sol = solve(m, OPTS)
    assert sol.ok
    assert sol.value(soc.e_det[("res1", 1)]) == pytest.approx(20.0, abs=1e-9)
    assert sol.value(soc.e_det[("res1", 2)]) == pytest.approx(0.0, abs=1e-9)
    assert sol.value(soc.e_det[("res1", 3)]) == pytest.approx(2.0, abs=1e-9)
    assert sol.value(soc.e_det[("res1", 4)]) == pytest.approx(2.0, abs=1e-9)


def test_soc_bounds_reject_overdraw():
    # generating 15 MW removes 30 MWh, below e_min at hour 2
    m, _, _ = _soc_model([(15.0, 0.0), (0.0, 0.0), (0.0, 0.0)], e_final=None)
    assert solve(m, OPTS).status == INFEASIBLE


def test_final_target_equality_and_floor():
    # no dispatch: end SOC stays 20, target 10 unreachable under "fix"
    m, _, _ = _soc_model([(0.0, 0.0)] * 3, e_final=10.0, end_soc="fix")
    assert solve(m, OPTS).status == INFEASIBLE
    m2, _, _ = _soc_model([(0.0, 0.0)] * 3, e_final=10.0, end_soc="relax")
    assert solve(m2, OPTS).ok
    m3, _, _ = _soc_model([(5.0, 0.0)] * 3, e_final=20.0, end_soc="relax")
    # ends at 20 - 3*10 = -10, under the floor
    assert solve(m3, OPTS).status == INFEASIBLE


def test_scenario_branch_copies_the_window_edge():
    # det: pump 8 every hour -> e enters hour 4 at 20 + 3*2 = 26
    # scenario 0 gens 10 then 3 (removes 20 then 6), scenario 1 idles
    m, soc, blocks = _soc_model(
        [(0.0, 8.0)] * 3,
        e_final=None,
        scen=[[(10.0, 0.0), (3.0, 0.0)], [(0.0, 0.0), (0.0, 0.0)]],
    )
    sol = solve(m, OPTS)
    assert sol.ok
    assert sol.value(soc.e_det[("res1", 4)]) == pytest.approx(26.0, abs=1e-9)
    assert sol.value(blocks[0][("res1", 4)]) == pytest.approx(26.0, abs=1e-9)
    assert sol.value(blocks[0][("res1", 5)]) == pytest.approx(6.0, abs=1e-9)
    assert sol.value(blocks[0][("res1", 6)]) == pytest.approx(0.0, abs=1e-9)
    assert sol.value(blocks[1][("res1", 6)]) == pytest.approx(26.0, abs=1e-9)
    # each copy of hour 4 is the edge column, not the hour-3 flow again
    cross = [m.row(i) for i in range(m.n_rows) if m.row(i).name == "r_soc_cross.res1.s0"]
    assert [{m.var(j).name: c for j, c in r.coeffs.items()} for r in cross] == [
        {"e.res1.t4.s0": 1.0, "e.res1.t4": -1.0}]


def test_scenario_end_target_binds_every_scenario():
    m, _, _ = _soc_model(
        [(0.0, 8.0)] * 3,
        e_final=6.0, end_soc="fix",
        scen=[[(10.0, 0.0), (3.0, 0.0)], [(0.0, 0.0), (0.0, 0.0)]],  # s1 misses target
    )
    assert solve(m, OPTS).status == INFEASIBLE


def test_interval_scaling_enters_the_flow():
    m, soc, _ = _soc_model([(10.0, 0.0), (0.0, 0.0), (0.0, 0.0)], e_final=None, dt=0.5)
    sol = solve(m, OPTS)
    assert sol.ok
    # half-hour steps: 10 MW for 0.5 h at eta 0.5 removes 10 MWh
    assert sol.value(soc.e_det[("res1", 2)]) == pytest.approx(10.0, abs=1e-9)


def test_fix_block_to_schedule_pins_and_validates():
    u = _unit(gen_min=5.0)
    m = MilpModel()
    blk = create_psh_block(m, [u], [1, 2])
    fix_block_to_schedule(m, blk, u, {1: 10.0}, {2: 8.0})
    assert m.var(blk.q_gen[("ps1", 1)]).lb == 10.0
    assert m.var(blk.q_gen[("ps1", 1)]).ub == 10.0
    assert m.var(blk.u[("ps1", "gen", 1)]).lb == 1.0
    assert m.var(blk.u[("ps1", "off", 1)]).ub == 0.0
    assert m.var(blk.u[("ps1", "pump", 2)]).lb == 1.0

    with pytest.raises(ValueError, match="generates and pumps"):
        fix_block_to_schedule(m, blk, u, {1: 1.0}, {1: 1.0})
    with pytest.raises(ValueError, match="outside"):
        fix_block_to_schedule(m, blk, u, {1: 2.0}, {})  # below gen_min
    with pytest.raises(ValueError, match="outside"):
        fix_block_to_schedule(m, blk, u, {}, {1: 50.0})  # above pump_max


# -- exact tail value functions ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["fix", "relax"]),
    st.sampled_from([1.0, 0.5]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tail_cuts_equal_the_explicit_tail_lp(hours, end_soc, dt, seed):
    # two units at different prices (nodes) and efficiencies, random
    # non-negative prices with exact zeros and ties, random edge storage
    rng = np.random.default_rng(seed)
    units = [_unit(id="a", eta_gen=0.9, eta_pump=0.87, gen_max=18.0, pump_max=12.0),
             _unit(id="b", eta_gen=0.6, eta_pump=0.75, gen_max=7.0, pump_max=15.0)]
    res = _res(e_min=float(rng.uniform(0.0, 10.0)), e_max=float(rng.uniform(50.0, 80.0)),
               member_units=("a", "b"))
    target = float(rng.uniform(res.e_min, res.e_max))
    prices = rng.choice([0.0, 12.5, 30.0, 41.0], size=(3, 2, hours)) + rng.uniform(0.0, 5.0, (3, 2, hours)) * (
        rng.random((3, 2, hours)) < 0.5)
    [cuts] = tail_value_functions(res, units, [prices], target, end_soc, dt)
    assert cuts is not None  # every target in [e_min, e_max] is reachable from itself
    for s in range(3):
        assert cuts.x[s].size <= 2 * len(units) * hours + 1
        assert np.all(np.diff(cuts.slope[s]) < 0.0)  # concave, one line per slope
        for e in (cuts.lo, cuts.hi, *rng.uniform(cuts.lo, cuts.hi, 4)):
            best = tail_lp(units, res, prices[s], e, target, end_soc, dt)
            assert best is not None, (s, e)
            assert cuts.value(s, e) == pytest.approx(best[0], rel=1e-9, abs=1e-9)
        # just outside the domain no tail reaches the end rule
        for e in (cuts.lo - 1e-6, cuts.hi + 1e-6):
            assert e < res.e_min or e > res.e_max or tail_lp(units, res, prices[s], e, target, end_soc, dt) is None


def test_unreachable_target_has_no_tail():
    # two hours of pumping store at most 2 * 12 * 0.87 MWh: from e_max 100
    # a target above 120.88 is out of reach, one at 100 is reached from
    # 100 - 20.88 up
    unit = _unit(pump_max=12.0, eta_pump=0.87)
    res = _res(e_min=0.0, e_max=100.0)
    prices = np.full((1, 1, 2), 20.0)
    [reach] = tail_value_functions(res, [unit], [prices], 100.0, "fix")
    assert (reach.lo, reach.hi) == (pytest.approx(100.0 - 2 * 12.0 * 0.87), 100.0)
    assert tail_value_functions(res, [unit], [prices], 121.0, "fix") == [None]


def test_slope_at_a_breakpoint_is_the_slope_to_its_left():
    # hour 3 at 30 $/MWh, eta 0.5/0.25, to the target 10: slope 120 on
    # [5, 10] (pumping less), 15 on [10, 40] (generating)
    [cuts] = tail_value_functions(_res(), [_unit()], [np.full((1, 1, 1), 30.0)], 10.0)
    assert (cuts.x[0].tolist(), cuts.y[0].tolist(), cuts.slope[0].tolist()) == (
        [5.0, 10.0], [-600.0, 0.0], [120.0, 15.0])
    assert [cuts.slope_at(0, e) for e in (5.0, 7.0, 10.0, 10.0 + 1e-12, 25.0, 40.0)] == [
        120.0, 120.0, 120.0, 120.0, 15.0, 15.0]
    assert [cuts.value(0, e) for e in (5.0, 10.0, 40.0)] == [-600.0, 0.0, 450.0]


def _pieces_by_loop(a, val, slopes, lens):
    """The per-scenario pieces of ``_tail_pieces`` one scenario at a time:
    positive lengths only, equal neighbouring slopes merged, and a
    one-point domain as the single piece (a, val, 0)."""
    before = lambda m: np.concatenate([np.zeros((len(m), 1)), np.cumsum(m[:, :-1], axis=1)], axis=1)
    x = a + before(lens)
    y = val[:, None] + before(slopes * lens)
    xs, ys, bs = [], [], []
    for s in range(len(val)):
        pos = lens[s] > 0.0
        if not pos.any():
            xs.append(np.array([a]))
            ys.append(val[s:s + 1].copy())
            bs.append(np.zeros(1))
            continue
        xk, yk, bk = x[s][pos], y[s][pos], slopes[s][pos]
        keep = np.ones(bk.size, bool)
        keep[1:] = bk[1:] != bk[:-1]
        xs.append(xk[keep])
        ys.append(yk[keep])
        bs.append(bk[keep])
    return tuple(xs), tuple(ys), tuple(bs)


def _same_pieces(got, expect):
    return all(len(g) == len(e) and all(np.array_equal(gi, ei) and gi.dtype == ei.dtype for gi, ei in zip(g, e))
               for g, e in zip(got, expect))


def test_tail_pieces_equal_the_loop_over_scenarios(monkeypatch):
    # crafted rows: a one-point row among others, rows whose equal slopes
    # are split by a zero-length piece, and a row with a zero slope
    a = 3.0
    val = np.array([10.0, -2.0, 0.0, 5.0])
    slopes = np.array([[9.0, 4.0, 4.0, 1.0], [7.0, 7.0, 7.0, 0.0], [5.0, 3.0, 3.0, 3.0], [6.0, 6.0, 2.0, 0.0]])
    lens = np.array([[2.0, 0.0, 1.5, 3.0], [0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 4.0], [1.0, 0.0, 2.0, 5.0]])
    assert _same_pieces(_tail_pieces(a, val, slopes, lens), _pieces_by_loop(a, val, slopes, lens))
    # a whole set of one-point domains
    zero = np.zeros((3, 4))
    assert _same_pieces(_tail_pieces(a, val[:3], slopes[:3], zero), _pieces_by_loop(a, val[:3], slopes[:3], zero))

    # and the inputs of real tails: tied prices merge slopes, a target on
    # the reach boundary leaves a one-point domain
    seen = []

    def spy(*args):
        seen.append(args)
        return _tail_pieces(*args)

    monkeypatch.setattr(psh_model, "_tail_pieces", spy)
    units = [_unit(id="a", eta_gen=0.9, eta_pump=0.87, gen_max=18.0, pump_max=12.0),
             _unit(id="b", eta_gen=0.6, eta_pump=0.75, gen_max=7.0, pump_max=15.0)]
    res = _res(e_min=0.0, e_max=60.0, member_units=("a", "b"))
    rng = np.random.default_rng(5)
    for end_soc in ("fix", "relax"):
        for hours in (1, 2, 4):
            prices = rng.choice([0.0, 12.5, 30.0], size=(40, 2, hours))
            assert tail_value_functions(res, units, [prices], 30.0, end_soc) != [None]
    [point] = tail_value_functions(_res(e_min=0.0, e_max=40.0), [_unit(pump_max=0.0, gen_max=0.0)],
                                   [np.full((3, 1, 2), 30.0)], 10.0)
    assert (point.lo, point.hi) == (10.0, 10.0)
    assert len(seen) == 7
    for args in seen:
        assert _same_pieces(_tail_pieces(*args), _pieces_by_loop(*args))

