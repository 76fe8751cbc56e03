import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pshlac.milp import (
    BINARY,
    BRANCH_AND_BOUND,
    CONTINUOUS,
    EQ,
    FEASIBLE,
    FROM_LP,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    ROOT_ROUNDING,
    TIME_LIMIT,
    UNBOUNDED,
    VarView,
    _highs_lp,
    MilpModel,
    MilpSolution,
    RowView,
    SolveOptions,
    SolverError,
    highs_session,
    infeasibility_report,
    milp,
    solve,
)
from pshlac.lac_models import Variant, build_variant

from oracle_tools import canonical_form
from toys import knapsack, window_setup

OPTS = SolveOptions(gap_tol=1e-9, time_limit=30.0)


def test_construction_guards():
    m = MilpModel()
    with pytest.raises(ValueError, match="kind"):
        m.add_var("x", kind="integer")
    m.add_var("x")
    with pytest.raises(ValueError, match="duplicate"):
        m.add_var("x")
    with pytest.raises(ValueError, match="sense"):
        m.add_row("r", {0: 1.0}, "<", 0.0)
    m.add_var("y")
    assert m.var_index("y") == 1
    assert m.n_binaries == 0


def test_zero_coefficients_are_dropped_and_duplicates_merge():
    m = MilpModel()
    x = m.add_var("x")
    y = m.add_var("y")
    r = m.add_row("r", [(x, 1.0), (x, 2.0), (y, 0.0)], LE, 5.0)
    assert m.row(r).coeffs == {x: 3.0}
    assert m.n_nonzeros == 1


def test_lp_optimum_by_hand():
    # min 2x + 3y  s.t. x + y >= 10, x <= 6  ->  x=6, y=4, obj=24
    m = MilpModel()
    x = m.add_var("x", obj=2.0, ub=6.0)
    y = m.add_var("y", obj=3.0)
    m.add_row("cover", {x: 1.0, y: 1.0}, GE, 10.0)
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(24.0, abs=1e-8)
    assert sol.value(x) == pytest.approx(6.0, abs=1e-8)
    assert sol.value(y) == pytest.approx(4.0, abs=1e-8)


def test_milp_optimum_by_hand():
    # max 5a + 4b + 3c with weights 2a + 3b + 4c <= 5  ->  {a, b}, value 9
    m = MilpModel()
    a = m.add_var("a", obj=-5.0, kind=BINARY)
    b = m.add_var("b", obj=-4.0, kind=BINARY)
    c = m.add_var("c", obj=-3.0, kind=BINARY)
    m.add_row("cap", {a: 2.0, b: 3.0, c: 4.0}, LE, 5.0)
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-9.0, abs=1e-9)
    assert (sol.binary_value(a), sol.binary_value(b), sol.binary_value(c)) == (1, 1, 0)


def test_objective_constant_is_added():
    m = MilpModel()
    x = m.add_var("x", obj=1.0, lb=2.0, ub=5.0)
    m.objective_constant = 100.0
    sol = solve(m, OPTS)
    assert sol.objective == pytest.approx(102.0, abs=1e-9)
    u = m.add_var("u", kind=BINARY, obj=3.0, lb=1.0)
    lp = solve(m, OPTS)
    assert lp.objective == pytest.approx(105.0, abs=1e-9)
    assert lp.duals is not None and lp.value(u) == 1.0


def test_equality_row_solves_exactly():
    m = MilpModel()
    x = m.add_var("x", obj=1.0)
    y = m.add_var("y", obj=2.0)
    m.add_row("fix", {x: 1.0, y: 1.0}, EQ, 7.0)
    sol = solve(m, OPTS)
    assert sol.objective == pytest.approx(7.0, abs=1e-8)
    assert sol.value(x) == pytest.approx(7.0, abs=1e-8)


def test_infeasible_and_unbounded_statuses():
    m = MilpModel()
    x = m.add_var("x")
    m.add_row("lo", {x: 1.0}, GE, 2.0)
    m.add_row("hi", {x: 1.0}, LE, 1.0)
    assert solve(m, OPTS).status == INFEASIBLE

    m2 = MilpModel()
    m2.add_var("x", obj=-1.0)
    assert solve(m2, OPTS).status == UNBOUNDED


def test_infeasibility_report_names_the_conflict():
    m = MilpModel()
    x = m.add_var("x", ub=1.0)
    m.add_row("fine", {x: 1.0}, LE, 5.0)
    m.add_row("impossible", {x: 1.0}, GE, 4.0)
    rows = infeasibility_report(m)
    assert any(r.startswith("impossible") for r in rows)
    assert not any(r.startswith("fine") for r in rows)
    assert infeasibility_report(MilpModel()) == []
    # only integrality is at fault: the relaxed rows have no IIS to name
    odd = MilpModel()
    u = odd.add_var("u", kind=BINARY)
    odd.add_row("half", {u: 2.0}, EQ, 1.0)
    assert solve(odd, OPTS).status == INFEASIBLE
    assert infeasibility_report(odd) == ["<IIS unavailable: Optimal>"]


def test_time_limit_without_incumbent():
    sol = solve(knapsack(), SolveOptions(gap_tol=1e-9, time_limit=0.0))
    assert sol.status == TIME_LIMIT
    assert sol.values is None and sol.objective is None and sol.gap is None
    assert not sol.ok


def _stable_set(n=120, p=0.5, seed=0):
    """Maximum stable set of a G(n, p) random graph: one binary per
    vertex, one row x_i + x_j <= 1 per edge.  The empty set is feasible,
    so HiGHS finds an incumbent at once, but closing the gap on n=120
    takes far longer than a second."""
    rng = np.random.default_rng(seed)
    m = MilpModel()
    xs = m.add_vars([f"x{i}" for i in range(n)], obj=-1.0, kind=BINARY)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    m.add_rows([f"e{i}_{j}" for i, j in edges], np.arange(0, 2 * len(edges) + 1, 2),
               xs[np.ravel(edges)], np.ones(2 * len(edges)), LE, 1.0)
    return m, edges


def test_time_limit_with_incumbent_reports_feasible():
    m, edges = _stable_set()
    sol = solve(m, SolveOptions(gap_tol=1e-9, time_limit=1.0))
    assert sol.status == FEASIBLE and sol.ok
    assert sol.incumbent == BRANCH_AND_BOUND
    assert sol.gap > 1e-9  # stopped short of the requested gap
    chosen = {i for i in range(len(sol.values)) if sol.binary_value(i) == 1}
    assert all(not (i in chosen and j in chosen) for i, j in edges)
    assert sol.objective == -len(chosen)


def test_milp_solve_reports_nodes():
    sol = solve(knapsack(), OPTS)
    assert sol.nodes >= 1
    lp = MilpModel()
    lp.add_var("x", obj=1.0, ub=1.0)
    assert solve(lp, OPTS).nodes == 0


# -- closing a MIP at the root ----------------------------------------------


def _rounded(how):
    """A rounding of every binary of ``knapsack`` by ``how`` (np.floor,
    np.ceil, np.round) of the relaxation's values."""
    def rounding(values):
        cols = np.arange(values.size)
        return cols, how(values + 1e-9)
    return rounding


def _cover_model():
    # min 3a + 4b + 2c with a + b >= 1, b + c >= 1: the relaxation's
    # vertex is integral ({b}, cost 4), so its rounding is optimal
    m = MilpModel()
    a = m.add_var("a", obj=3.0, kind=BINARY)
    b = m.add_var("b", obj=4.0, kind=BINARY)
    c = m.add_var("c", obj=2.0, kind=BINARY)
    m.add_row("ab", {a: 1.0, b: 1.0}, GE, 1.0)
    m.add_row("bc", {b: 1.0, c: 1.0}, GE, 1.0)
    return m


def test_an_integral_relaxation_is_closed_at_the_root():
    m = _cover_model()
    m.rounding = _rounded(np.round)
    sol = solve(m, OPTS)
    assert (sol.status, sol.incumbent, sol.nodes) == (OPTIMAL, ROOT_ROUNDING, 0)
    assert sol.objective == pytest.approx(4.0, abs=1e-9)
    assert sol.gap == pytest.approx(0.0, abs=1e-12) and sol.duals is None
    assert [sol.binary_value(i) for i in range(3)] == [0, 1, 0]
    m.rounding = None
    assert solve(m, OPTS).incumbent == BRANCH_AND_BOUND


def test_a_rounding_outside_the_gap_falls_back():
    # the knapsack's relaxation fills the last item fractionally: rounded
    # down it is feasible but short of the bound, rounded up infeasible
    cold = solve(knapsack(), OPTS)
    for how in (np.floor, np.ceil):
        m = knapsack()
        m.rounding = _rounded(how)
        sol = solve(m, OPTS)
        assert (sol.status, sol.incumbent) == (OPTIMAL, BRANCH_AND_BOUND)
        assert sol.nodes == cold.nodes and sol.objective == pytest.approx(cold.objective, abs=1e-9)
    # the rounded-down point (the last item, 30 against a bound of about
    # 46.8) is kept at a gap wide enough for it
    m = knapsack()
    m.rounding = _rounded(np.floor)
    loose = solve(m, SolveOptions(gap_tol=0.6, time_limit=30.0))
    assert loose.incumbent == ROOT_ROUNDING and loose.objective == pytest.approx(-30.0, abs=1e-9)
    assert loose.gap == pytest.approx((46.0 + 26.0 / 31.0 - 30.0) / 30.0, rel=1e-9)


def test_a_rounding_that_misses_a_binary_or_gives_up_falls_back():
    m = _cover_model()
    extra = m.add_var("d", obj=-1.0, kind=BINARY)  # a binary the rounding does not name
    m.add_row("d_cap", {extra: 1.0, 0: 1.0}, LE, 1.0)

    def named(values):
        return np.arange(3), np.round(values[:3])

    m.rounding = named
    sol = solve(m, OPTS)
    assert (sol.status, sol.incumbent) == (OPTIMAL, BRANCH_AND_BOUND)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    m.rounding = lambda values: None
    assert solve(m, OPTS).incumbent == BRANCH_AND_BOUND
    # a binary fixed by its bounds needs no rounding
    m.set_var_bounds(extra, 1.0, 1.0)
    m.rounding = named
    assert solve(m, OPTS).incumbent == ROOT_ROUNDING


def test_a_rounding_changes_nothing_at_a_zero_time_limit():
    # the relaxation stops at once, so the MIP ends as it would without
    # a rounding: at its time limit with no incumbent
    m = knapsack()
    no_time = SolveOptions(gap_tol=1e-9, time_limit=0.0)
    assert solve(m, no_time).status == TIME_LIMIT
    m.rounding = _rounded(np.floor)
    sol = solve(m, no_time)
    assert sol.status == TIME_LIMIT and sol.values is None and sol.incumbent is None


def test_only_the_root_lps_skip_presolve():
    opts = {"mip_rel_gap": 1e-9, "time_limit": 30.0}

    def presolve(model, rounding, integral=True, options=opts):
        highs, bound = milp(_highs_lp(model, integral), options, rounding)
        return highs.getOptionValue("presolve")[1], bound is not None

    assert presolve(_cover_model(), _rounded(np.round)) == ("off", True)
    # the knapsack's rounding is not certified: branch and bound runs with presolve back
    assert presolve(knapsack(), _rounded(np.floor)) == ("choose", False)
    assert presolve(knapsack(), None) == ("choose", False)
    assert presolve(knapsack(), None, integral=False) == ("choose", False)
    assert presolve(knapsack(), _rounded(np.floor), options={**opts, "presolve": "on"}) == ("on", False)


def test_a_used_session_times_each_solve_from_its_own_start():
    # HiGHS's run clock adds up over every run of a session and no clear
    # resets it, so each solve's time limit counts from the clock's
    # reading as that solve starts: solves whose summed HiGHS time passes
    # the limit all end optimal
    limit = 0.02
    model = build_variant(Variant.CURRENT_PRACTICE, window_setup(da_gen=(5.0, 0.0, 10.0)).instance)
    fresh = solve(model, OPTS)
    session = highs_session()
    solves = 0
    while session.getRunTime() < 3 * limit and solves < 20000:
        sol = solve(model, SolveOptions(time_limit=limit), session)
        assert (sol.status, sol.objective) == (OPTIMAL, fresh.objective), solves
        solves += 1
    assert session.getRunTime() > 3 * limit


def test_an_infeasible_mip_with_a_rounding_stays_infeasible():
    m = _cover_model()
    m.add_row("none", {0: 1.0, 1: 1.0, 2: 1.0}, LE, 0.0)
    m.rounding = _rounded(np.round)
    sol = solve(m, OPTS)
    assert sol.status == INFEASIBLE and sol.incumbent is None


def test_an_lp_reports_its_source():
    m = MilpModel()
    m.add_var("x", obj=1.0, lb=1.0)
    u = m.add_var("u", kind=BINARY, lb=1.0)
    m.rounding = lambda values: None  # never consulted: no binary is free
    sol = solve(m, OPTS)
    assert (sol.incumbent, sol.nodes, sol.gap) == (FROM_LP, 0, None)
    assert sol.binary_value(u) == 1


def test_highs_bindings_expose_what_the_adapter_uses():
    # the adapter drives scipy's private HiGHS module; this pins its surface
    from scipy.optimize._highspy import _core

    for name in ("passModel", "setOptionValue", "run", "getModelStatus",
                 "getInfo", "getSolution", "getIis", "changeColsBounds"):
        assert callable(getattr(_core._Highs, name)), name
    for name in ("HighsLp", "HighsIis"):
        assert isinstance(getattr(_core, name), type), name


def test_binary_value_guards_integrality():
    sol = MilpSolution(OPTIMAL, np.array([0.4]), 0.0, 0.0, 0.0)
    with pytest.raises(SolverError, match="not integral"):
        sol.binary_value(0)


def test_lp_duals_follow_the_marginal_cost_convention():
    # one committed generator at 20 $/MWh serving 50 MW: the balance dual
    # is the marginal cost; the GE floor row below is slack, dual zero
    m = MilpModel()
    u = m.add_var("u", kind=BINARY)
    p = m.add_var("p", obj=20.0, ub=100.0)
    m.add_row("balance", {p: 1.0}, EQ, 50.0)
    floor = m.add_row("floor", {p: 1.0, u: -10.0}, GE, 0.0)
    m.set_var_bounds(u, 1.0, 1.0)
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1000.0, abs=1e-8)
    bal = sol.duals[0]
    assert bal == pytest.approx(20.0, abs=1e-8)
    assert sol.duals[floor] == pytest.approx(0.0, abs=1e-8)


def test_lp_dual_sign_on_binding_ge_row():
    # min 5x s.t. x >= 10: raising the floor by 1 costs 5, dual +5
    m = MilpModel()
    x = m.add_var("x", obj=5.0)
    r = m.add_row("floor", {x: 1.0}, GE, 10.0)
    sol = solve(m, OPTS)
    assert sol.duals[r] == pytest.approx(5.0, abs=1e-8)


def test_lp_duals_map_back_to_interleaved_rows():
    # three generators at 10/30/50 $/MWh serve 50 MW; the cheap one is capped
    # at 20, the dear one held at a 5 MW floor, so the middle one is marginal:
    # 20*10 + 25*30 + 5*50 = 1200.  Each dual is d(objective)/d(rhs).
    m = MilpModel()
    g = [m.add_var(f"g{i}", obj=c) for i, c in enumerate((10.0, 30.0, 50.0))]
    rows = [
        m.add_row("cap_cheap", {g[0]: 1.0}, LE, 20.0),           # 1 MW more replaces 30 by 10
        m.add_row("balance", {x: 1.0 for x in g}, EQ, 50.0),     # served by the marginal unit
        m.add_row("floor_dear", {g[2]: 1.0}, GE, 5.0),           # 1 MW more replaces 30 by 50
        m.add_row("cap_middle", {g[1]: 1.0}, LE, 40.0),          # slack
    ]
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1200.0, abs=1e-8)
    assert [sol.duals[r] for r in rows] == pytest.approx([-20.0, 30.0, 20.0, 0.0], abs=1e-8)


def test_lp_needs_every_binary_fixed_at_an_integer():
    # a free binary makes the model a MIP, which has no duals
    m = MilpModel()
    u = m.add_var("u", kind=BINARY, obj=-1.0)
    m.add_var("w", kind=BINARY, lb=1.0)
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL and sol.value(u) == 1.0
    assert sol.duals is None and sol.gap is not None
    # fixed at 0.5 it is no binary at all
    m.set_var_bounds(u, 0.5, 0.5)
    with pytest.raises(SolverError, match="fractional"):
        solve(m, OPTS)


# -- blocks and single elements: one storage path ---------------------------


_COLUMN = st.tuples(st.sampled_from([CONTINUOUS, BINARY]), st.sampled_from([-2.0, 0.0, 0.5]),
                    st.sampled_from([0.5, 1.0, 3.0, math.inf]), st.sampled_from([0.0, -1.5, 2.0]),
                    st.sampled_from([None, 1, 2]))


@st.composite
def _models(draw):
    """Columns (with an hour) and rows of a random model, and how each is
    cut into blocks: rows use distinct columns, zero coefficients and
    every sense."""
    columns = draw(st.lists(_COLUMN, min_size=1, max_size=8))
    n = len(columns)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        cols = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
        coeffs = [draw(st.sampled_from([0.0, 1.0, -2.5, 3.0])) for _ in cols]
        rows.append((list(zip(cols, coeffs)), draw(st.sampled_from([LE, EQ, GE])),
                     draw(st.sampled_from([0.0, -1.0, 4.5]))))
    cuts = st.lists(st.integers(1, 3), min_size=8, max_size=8)
    return columns, rows, draw(cuts), draw(cuts)


def _blocks(items, sizes):
    at = 0
    for k in sizes:
        if at < len(items):
            yield items[at:at + k]
            at += k
    if at < len(items):
        yield items[at:]


@settings(max_examples=60, deadline=None)
@given(_models())
def test_blocks_build_the_model_element_by_element_does(spec):
    columns, rows, col_cuts, row_cuts = spec
    one = MilpModel("m")
    for i, (kind, lb, ub, obj, _) in enumerate(columns):
        one.add_var(f"x{i}", lb, ub, obj, kind)
    for i, (coeffs, sense, rhs) in enumerate(rows):
        one.add_row(f"r{i}", coeffs, sense, rhs)

    blocked = MilpModel("m")
    first = 0
    for block in _blocks(columns, col_cuts):
        kind, lb, ub, obj, hour = zip(*block)
        got = blocked.add_vars([f"x{first + j}" for j in range(len(block))], lb, ub, obj, kind, list(hour))
        assert got.tolist() == list(range(first, first + len(block)))
        first += len(block)
    first = 0
    for block in _blocks(rows, row_cuts):
        coeffs, sense, rhs = zip(*block)
        start = np.cumsum([0] + [len(c) for c in coeffs])
        index = [j for c in coeffs for j, _ in c]
        value = [v for c in coeffs for _, v in c]
        got = blocked.add_rows([f"r{first + i}" for i in range(len(block))], start, index, value, list(sense),
                               list(rhs))
        assert got.tolist() == list(range(first, first + len(block)))
        first += len(block)

    lp_one, lp_blocked = _highs_lp(one, integral=True), _highs_lp(blocked, integral=True)
    assert (lp_one.row_lower_, lp_one.row_upper_) == (lp_blocked.row_lower_, lp_blocked.row_upper_)
    for field in ("start_", "index_", "value_"):
        assert getattr(lp_one.a_matrix_, field) == getattr(lp_blocked.a_matrix_, field)
    assert one.to_lp_string() == blocked.to_lp_string()
    assert canonical_form(one) == canonical_form(blocked)
    assert (one.n_vars, one.n_rows, one.n_nonzeros, one.n_binaries) == \
        (blocked.n_vars, blocked.n_rows, blocked.n_nonzeros, blocked.n_binaries)
    # against the spec itself: binaries clipped to [0, 1], zeros dropped,
    # and each column's cost under its own hour
    values = np.arange(1.0, len(columns) + 1.0)
    by_hour: dict = {}
    for i, (kind, lb, ub, obj, hour) in enumerate(columns):
        clipped = (max(lb, 0.0), min(ub, 1.0)) if kind == BINARY else (lb, ub)
        assert blocked.var(i) == VarView(i, f"x{i}", kind, *clipped, obj)
        if obj != 0.0:
            by_hour[hour] = by_hour.get(hour, 0.0) + obj * values[i]
    assert blocked.cost_by_hour(values) == pytest.approx(by_hour)
    for i, (coeffs, sense, rhs) in enumerate(rows):
        assert blocked.row(i) == RowView(i, f"r{i}", {j: c for j, c in coeffs if c != 0.0}, sense, rhs)


def test_block_guards():
    m = MilpModel()
    with pytest.raises(ValueError, match="duplicate variable name 'x'"):
        m.add_vars(["x", "y", "x"])
    m.add_vars(["x", "y"])
    with pytest.raises(ValueError, match="duplicate variable name 'y'"):
        m.add_vars(["z", "y"])
    with pytest.raises(ValueError, match="duplicate variable name 'x'"):
        m.add_var("x")
    # a refused block leaves the model as it was
    assert (m.n_vars, m.var_index("y")) == (2, 1)
    assert m.add_var("z") == 2
    with pytest.raises(ValueError, match="row 'r1' repeats column 0"):
        m.add_rows(["r0", "r1"], [0, 2, 5], [0, 1, 0, 2, 0], [1.0, 1.0, 1.0, 1.0, 2.0], LE, 0.0)
    # a repeat that only a zero coefficient names is dropped with the zero
    m.add_rows(["r0"], [0, 2], [0, 0], [0.0, 1.0], LE, 0.0)
    assert m.row(0).coeffs == {0: 1.0}
    with pytest.raises(ValueError, match="unknown sense '<'"):
        m.add_rows(["r"], [0, 1], [0], [1.0], "<", 0.0)
    with pytest.raises(ValueError, match="unknown sense '=>'"):
        m.add_rows(["r", "s"], [0, 1, 2], [0, 1], [1.0, 1.0], [LE, "=>"], 0.0)
    # a row's sense is read back from its bounds, which an infinite rhs would blur
    with pytest.raises(ValueError, match="row 'r' has a right-hand side that is not finite"):
        m.add_rows(["r", "s"], [0, 1, 2], [0, 1], [1.0, 1.0], [GE, LE], [-math.inf, 0.0])
    # the error names the row at fault, not the first of its block
    with pytest.raises(ValueError, match="row 's' has a right-hand side that is not finite"):
        m.add_rows(["r", "s"], [0, 1, 2], [0, 1], [1.0, 1.0], EQ, [0.0, math.nan])
    with pytest.raises(ValueError, match="unknown variable kind 'integer'"):
        m.add_vars(["w"], kind="integer")
    with pytest.raises(ValueError, match="do not describe 2 rows"):
        m.add_rows(["r", "s"], [0, 1], [0], [1.0], LE, 0.0)
    with pytest.raises(ValueError, match="name a column outside 0..2"):
        m.add_rows(["r"], [0, 1], [3], [1.0], LE, 0.0)
    with pytest.raises(ValueError, match="name a column outside"):
        m.add_row("r", {-1: 1.0}, LE, 0.0)
    with pytest.raises(ValueError, match="rhs"):
        m.add_rows(["r", "s"], [0, 1, 2], [0, 1], [1.0, 1.0], LE, [0.0])
    with pytest.raises(ValueError, match="hour has 1 entries for 2 elements"):
        m.add_vars(["v", "w"], hour=[3])
    assert (m.n_vars, m.n_rows) == (3, 1)


def _tiny_named(rows_order):
    m = MilpModel()
    x = m.add_var("x", obj=1.0)
    y = m.add_var("y", obj=2.0, kind=BINARY)
    defs = {
        "r_a": ({x: 1.0, y: 3.0}, LE, 4.0),
        "r_b": ({x: -1.0}, GE, -9.0),
    }
    for name in rows_order:
        coeffs, sense, rhs = defs[name]
        m.add_row(name, coeffs, sense, rhs)
    return m


def test_canonical_form_ignores_row_order():
    assert canonical_form(_tiny_named(["r_a", "r_b"])) == canonical_form(_tiny_named(["r_b", "r_a"]))
    other = _tiny_named(["r_a", "r_b"])
    other.add_obj(0, 0.5)
    assert canonical_form(other) != canonical_form(_tiny_named(["r_a", "r_b"]))


def test_lp_string_render():
    m = _tiny_named(["r_a", "r_b"])
    text = m.to_lp_string()
    for token in ("Minimize", "Subject To", "r_a:", "Binaries", "y", "End"):
        assert token in text


bounded = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


# HiGHS's default dual feasibility tolerance: it may treat a cost this
# small as zero and leave the variable at either bound
HIGHS_DUAL_TOL = 1e-7


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(bounded, bounded, bounded), min_size=1, max_size=6))
@example(triples=[(-5.960464477539063e-08, 0.0, 17.0)])
def test_box_lp_matches_closed_form(triples):
    # with only variable bounds the minimum separates per coordinate
    m = MilpModel()
    low = high = 0.0
    for i, (c, a, b) in enumerate(triples):
        lo, hi = min(a, b), max(a, b)
        m.add_var(f"x{i}", lb=lo, ub=hi, obj=c)
        low += min(c * lo, c * hi)
        high += max(c * lo, c * hi) if abs(c) <= HIGHS_DUAL_TOL else min(c * lo, c * hi)
    sol = solve(m, OPTS)
    assert sol.status == OPTIMAL
    nearest = min(max(sol.objective, low), high)
    assert sol.objective == pytest.approx(nearest, abs=1e-6, rel=1e-9)
