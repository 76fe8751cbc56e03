import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlac.milp import (
    BINARY,
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    MilpModel,
    MilpSolution,
    SolveOptions,
    SolverError,
    Tag,
    fix_and_resolve_lp,
    infeasibility_report,
    solve,
)

T = Tag("test")
OPTS = SolveOptions(gap_tol=1e-9, time_limit=30.0)


def test_construction_guards():
    m = MilpModel()
    with pytest.raises(ValueError, match="kind"):
        m.add_var("x", kind="integer", tag=T)
    with pytest.raises(ValueError, match="tag"):
        m.add_var("x")
    m.add_var("x", tag=T)
    with pytest.raises(ValueError, match="duplicate"):
        m.add_var("x", tag=T)
    with pytest.raises(ValueError, match="sense"):
        m.add_row("r", {0: 1.0}, "<", 0.0, T)
    with pytest.raises(ValueError, match="tag"):
        m.add_row("r", {0: 1.0}, LE, 0.0)


def test_zero_coefficients_are_dropped_and_duplicates_merge():
    m = MilpModel()
    x = m.add_var("x", tag=T)
    y = m.add_var("y", tag=T)
    r = m.add_row("r", [(x, 1.0), (x, 2.0), (y, 0.0)], LE, 5.0, T)
    assert m.row(r).coeffs == {x: 3.0}
    assert m.n_nonzeros == 1


def test_lp_optimum_by_hand():
    # min 2x + 3y  s.t. x + y >= 10, x <= 6  ->  x=6, y=4, obj=24
    m = MilpModel()
    x = m.add_var("x", obj=2.0, ub=6.0, tag=T)
    y = m.add_var("y", obj=3.0, tag=T)
    m.add_row("cover", {x: 1.0, y: 1.0}, GE, 10.0, T)
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(24.0, abs=1e-8)
    assert sol.value(x) == pytest.approx(6.0, abs=1e-8)
    assert sol.value(y) == pytest.approx(4.0, abs=1e-8)


def test_milp_optimum_by_hand():
    # max 5a + 4b + 3c with weights 2a + 3b + 4c <= 5  ->  {a, b}, value 9
    m = MilpModel()
    a = m.add_var("a", obj=-5.0, kind=BINARY, tag=T)
    b = m.add_var("b", obj=-4.0, kind=BINARY, tag=T)
    c = m.add_var("c", obj=-3.0, kind=BINARY, tag=T)
    m.add_row("cap", {a: 2.0, b: 3.0, c: 4.0}, LE, 5.0, T)
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-9.0, abs=1e-9)
    assert (sol.binary_value(a), sol.binary_value(b), sol.binary_value(c)) == (1, 1, 0)


def test_objective_constant_is_added():
    m = MilpModel()
    x = m.add_var("x", obj=1.0, lb=2.0, ub=5.0, tag=T)
    m.objective_constant = 100.0
    sol = solve(m, OPTS)
    assert sol.objective == pytest.approx(102.0, abs=1e-9)
    lp = fix_and_resolve_lp(m, {})
    assert lp.objective == pytest.approx(102.0, abs=1e-9)


def test_equality_row_solves_exactly():
    m = MilpModel()
    x = m.add_var("x", obj=1.0, tag=T)
    y = m.add_var("y", obj=2.0, tag=T)
    m.add_row("fix", {x: 1.0, y: 1.0}, EQ, 7.0, T)
    sol = solve(m, OPTS)
    assert sol.objective == pytest.approx(7.0, abs=1e-8)
    assert sol.value(x) == pytest.approx(7.0, abs=1e-8)


def test_infeasible_and_unbounded_statuses():
    m = MilpModel()
    x = m.add_var("x", tag=T)
    m.add_row("lo", {x: 1.0}, GE, 2.0, T)
    m.add_row("hi", {x: 1.0}, LE, 1.0, T)
    assert solve(m, OPTS).status == INFEASIBLE

    m2 = MilpModel()
    m2.add_var("x", obj=-1.0, tag=T)
    assert solve(m2, OPTS).status == UNBOUNDED


def test_infeasibility_report_names_the_conflict():
    m = MilpModel()
    x = m.add_var("x", ub=1.0, tag=T)
    m.add_row("fine", {x: 1.0}, LE, 5.0, T)
    m.add_row("impossible", {x: 1.0}, GE, 4.0, T)
    rows = infeasibility_report(m)
    assert any(r.startswith("impossible") for r in rows)
    assert not any(r.startswith("fine") for r in rows)
    assert infeasibility_report(MilpModel()) == []


def test_binary_value_guards_integrality():
    sol = MilpSolution(OPTIMAL, np.array([0.4]), 0.0, 0.0, 0.0)
    with pytest.raises(SolverError, match="not integral"):
        sol.binary_value(0)


def test_lp_duals_follow_the_marginal_cost_convention():
    # one committed generator at 20 $/MWh serving 50 MW: the balance dual
    # is the marginal cost; the GE floor row below is slack, dual zero
    m = MilpModel()
    u = m.add_var("u", kind=BINARY, tag=T)
    p = m.add_var("p", obj=20.0, ub=100.0, tag=T)
    m.add_row("balance", {p: 1.0}, EQ, 50.0, T)
    floor = m.add_row("floor", {p: 1.0, u: -10.0}, GE, 0.0, T)
    sol = fix_and_resolve_lp(m, {u: 1})
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1000.0, abs=1e-8)
    bal = sol.duals[0]
    assert bal == pytest.approx(20.0, abs=1e-8)
    assert sol.duals[floor] == pytest.approx(0.0, abs=1e-8)


def test_lp_dual_sign_on_binding_ge_row():
    # min 5x s.t. x >= 10: raising the floor by 1 costs 5, dual +5
    m = MilpModel()
    x = m.add_var("x", obj=5.0, tag=T)
    r = m.add_row("floor", {x: 1.0}, GE, 10.0, T)
    sol = fix_and_resolve_lp(m, {})
    assert sol.duals[r] == pytest.approx(5.0, abs=1e-8)


def test_lp_duals_map_back_to_interleaved_rows():
    # three generators at 10/30/50 $/MWh serve 50 MW; the cheap one is capped
    # at 20, the dear one held at a 5 MW floor, so the middle one is marginal:
    # 20*10 + 25*30 + 5*50 = 1200.  Each dual is d(objective)/d(rhs).
    m = MilpModel()
    g = [m.add_var(f"g{i}", obj=c, tag=T) for i, c in enumerate((10.0, 30.0, 50.0))]
    rows = [
        m.add_row("cap_cheap", {g[0]: 1.0}, LE, 20.0, T),           # 1 MW more replaces 30 by 10
        m.add_row("balance", {x: 1.0 for x in g}, EQ, 50.0, T),     # served by the marginal unit
        m.add_row("floor_dear", {g[2]: 1.0}, GE, 5.0, T),           # 1 MW more replaces 30 by 50
        m.add_row("cap_middle", {g[1]: 1.0}, LE, 40.0, T),          # slack
    ]
    sol = fix_and_resolve_lp(m, {})
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1200.0, abs=1e-8)
    assert [sol.duals[r] for r in rows] == pytest.approx([-20.0, 30.0, 20.0, 0.0], abs=1e-8)


def test_fix_and_resolve_requires_all_binaries():
    m = MilpModel()
    m.add_var("u", kind=BINARY, tag=T)
    with pytest.raises(ValueError, match="missing fixed values"):
        fix_and_resolve_lp(m, {})
    with pytest.raises(ValueError, match="non-integral"):
        fix_and_resolve_lp(m, {0: 0.5})


def test_tag_filtering():
    m = MilpModel()
    m.add_var("a", tag=Tag("soc", "r1", 3, None))
    m.add_var("b", tag=Tag("soc", "r1", 3, 1))
    m.add_row("r1", {0: 1.0}, LE, 0.0, Tag("balance", None, 3, None))
    m.add_row("r2", {1: 1.0}, LE, 0.0, Tag("balance", None, 4, None))
    assert [v.name for v in m.variables("soc")] == ["a", "b"]
    assert [v.name for v in m.variables("soc", scenario=None)] == ["a"]
    assert [r.name for r in m.rows("balance", hour=4)] == ["r2"]
    assert m.var_index("b") == 1
    assert m.var(1).tag.scenario == 1
    assert m.n_binaries == 0


def _tiny_named(rows_order):
    m = MilpModel()
    x = m.add_var("x", obj=1.0, tag=T)
    y = m.add_var("y", obj=2.0, kind=BINARY, tag=T)
    defs = {
        "r_a": ({x: 1.0, y: 3.0}, LE, 4.0),
        "r_b": ({x: -1.0}, GE, -9.0),
    }
    for name in rows_order:
        coeffs, sense, rhs = defs[name]
        m.add_row(name, coeffs, sense, rhs, Tag(name))
    return m


def test_canonical_form_ignores_row_order():
    assert _tiny_named(["r_a", "r_b"]).canonical_form() == _tiny_named(["r_b", "r_a"]).canonical_form()
    other = _tiny_named(["r_a", "r_b"])
    other.add_obj(0, 0.5)
    assert other.canonical_form() != _tiny_named(["r_a", "r_b"]).canonical_form()


def test_lp_string_render(tmp_path):
    m = _tiny_named(["r_a", "r_b"])
    text = m.to_lp_string()
    for token in ("Minimize", "Subject To", "r_a:", "Binaries", "y", "End"):
        assert token in text
    path = tmp_path / "model.lp"
    m.write_lp(path)
    assert path.read_text() == text


bounded = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(bounded, bounded, bounded), min_size=1, max_size=6))
def test_box_lp_matches_closed_form(triples):
    # with only variable bounds the minimum separates per coordinate
    m = MilpModel()
    expected = 0.0
    for i, (c, a, b) in enumerate(triples):
        lo, hi = min(a, b), max(a, b)
        m.add_var(f"x{i}", lb=lo, ub=hi, obj=c, tag=T)
        expected += min(c * lo, c * hi)
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(expected, abs=1e-6, rel=1e-9)
