import hashlib
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlac.forecast import (
    DEFAULT_LEVELS,
    PIT_EPS,
    TAIL_IQR_CAP,
    ArimaxSpec,
    CovarianceTracker,
    EstimationError,
    ForecastConfig,
    ForecastPipeline,
    NumericalError,
    QuantileCurve,
    QuantileTable,
    _cholesky_with_jitter,
    fit_arimax,
    fit_quantiles,
    generate_scenarios,
    pit_transform,
    point_scenario_set,
    predict_point,
    update_covariance,
)

from pshlac import forecast as forecast_module
from pshlac.synth import SynthConfig, make_history

from oracle_tools import (
    cdf_by_branches,
    covariance_by_definition,
    forecast_by_full_recursion,
    quantile_by_branches,
    scenarios_by_element,
)


# -- ARIMAX estimation -------------------------------------------------------


def _ar1_series(rng, n, phi, sigma=1.0):
    y = np.empty(n)
    prev = rng.normal(0.0, sigma / math.sqrt(1.0 - phi * phi))
    for i in range(n):
        prev = phi * prev + rng.normal(0.0, sigma)
        y[i] = prev
    return y


def test_ar1_recovery_within_three_standard_errors():
    rng = np.random.default_rng(11)
    y = _ar1_series(rng, 3000, 0.6)
    spec = fit_arimax(y, None, (1, 0, 0))
    assert spec.p == 1 and spec.q == 0 and spec.d == 0
    assert len(spec.se) == 1
    assert abs(spec.phi[0] - 0.6) <= 3.0 * spec.se[0]
    assert spec.sigma2 == pytest.approx(1.0, rel=0.15)


def test_arx_recovery_with_intercept_column():
    rng = np.random.default_rng(3)
    n = 3000
    x = 5.0 + rng.normal(size=n)
    y = np.empty(n)
    prev = 0.0
    for i in range(n):
        prev = 1.0 + 0.55 * prev + 0.43 * x[i] + rng.normal(0.0, 0.8)
        y[i] = prev
    X = np.column_stack([np.ones(n), x])
    spec = fit_arimax(y, X, (1, 0, 0))
    # se order: phi, then the exogenous columns
    assert len(spec.se) == 3
    assert abs(spec.phi[0] - 0.55) <= 3.0 * spec.se[0]
    assert abs(spec.beta[0] - 1.0) <= 3.0 * spec.se[1]
    assert abs(spec.beta[1] - 0.43) <= 3.0 * spec.se[2]


def test_arma_recovery_through_the_gauss_newton_path():
    rng = np.random.default_rng(7)
    n = 3000
    y = np.empty(n)
    prev, eps_prev = 0.0, 0.0
    for i in range(n):
        eps = rng.normal()
        prev = 0.5 * prev + eps + 0.3 * eps_prev
        eps_prev = eps
        y[i] = prev
    spec = fit_arimax(y, None, (1, 0, 1))
    assert abs(spec.phi[0] - 0.5) <= 3.0 * spec.se[0]
    assert abs(spec.theta[0] - 0.3) <= 3.0 * spec.se[1]


def test_white_noise_fit_has_no_parameters():
    y = np.random.default_rng(0).normal(2.0, 1.0, size=500)
    spec = fit_arimax(y, None, (0, 0, 0))
    assert spec.phi == () and spec.theta == () and spec.beta == ()
    assert spec.se == ()
    assert spec.sigma2 == pytest.approx(float(y @ y / len(y)), rel=1e-12)


def test_fit_guards():
    with pytest.raises(ValueError, match="non-negative"):
        fit_arimax([1.0] * 100, None, (-1, 0, 0))
    with pytest.raises(EstimationError, match="too short"):
        fit_arimax([1.0] * 5, None, (1, 0, 0))
    with pytest.raises(ValueError, match="length"):
        fit_arimax([1.0] * 100, np.ones(50), (1, 0, 0))


def test_ar1_point_forecast_closed_form():
    rng = np.random.default_rng(1)
    y = _ar1_series(rng, 400, 0.7)
    spec = fit_arimax(y, None, (1, 0, 0))
    fc = predict_point(spec, y, steps=4)
    phi = spec.phi[0]
    expect = [y[-1] * phi ** (h + 1) for h in range(4)]
    assert fc == pytest.approx(expect, rel=1e-10)


def test_random_walk_forecast_is_flat():
    y = np.cumsum(np.random.default_rng(2).normal(size=300))
    spec = fit_arimax(y, None, (0, 1, 0))
    fc = predict_point(spec, y, steps=5)
    assert fc == pytest.approx([y[-1]] * 5, abs=1e-9)


def test_one_step_arx_forecast_closed_form():
    rng = np.random.default_rng(5)
    n = 500
    x = rng.normal(size=n)
    y = np.empty(n)
    prev = 0.0
    for i in range(n):
        prev = 0.5 * prev + 1.5 * x[i] + rng.normal(0.0, 0.3)
        y[i] = prev
    spec = fit_arimax(y, x, (1, 0, 0))
    x_next = 0.8
    fc = predict_point(spec, y, exog_future=np.array([x_next]), steps=1)
    assert fc[0] == pytest.approx(spec.phi[0] * y[-1] + spec.beta[0] * x_next, rel=1e-10)


def test_predict_point_requires_exog_when_fitted_with_it():
    y = np.arange(100, dtype=float)
    spec = fit_arimax(y, np.ones(100), (1, 0, 0))
    with pytest.raises(ValueError, match="exog_future"):
        predict_point(spec, y, steps=3)
    with pytest.raises(ValueError, match="shorter"):
        predict_point(spec, y, exog_future=np.ones(2), steps=3)


def test_predict_point_matches_the_full_history_recursion():
    # the forecast reads only the last p levels and q innovations; over
    # every small order, with 0-2 regressors, the full-history recursion
    # gives the same forecast to the bit, also when the (differenced)
    # history is shorter than p
    rng = np.random.default_rng(17)
    steps = 6
    for p, d, q, n_exog, n in product(range(4), range(3), range(3), range(3), (2, 40)):
        spec = ArimaxSpec(p, d, q, tuple(rng.uniform(-0.6, 0.6, p)), tuple(rng.uniform(-0.5, 0.5, q)),
                          tuple(rng.uniform(-1.0, 1.0, n_exog)), 1.0)
        y = np.cumsum(rng.normal(size=n)) + 20.0
        Xh = rng.normal(size=(n, n_exog)) if n_exog else None
        Xf = rng.normal(size=(steps, n_exog)) if n_exog else None
        got = predict_point(spec, y, exog_future=Xf, steps=steps, exog_history=Xh)
        expect = forecast_by_full_recursion(spec, y, Xf, Xh, steps)
        assert np.array_equal(got, expect), (p, d, q, n_exog, n)


# -- quantile curves and transforms -----------------------------------------


def test_fit_quantiles_matches_order_statistics():
    rng = np.random.default_rng(9)
    sample = rng.normal(size=100)
    levels = (0.1, 0.25, 0.5, 0.9)
    curves = fit_quantiles([sample], levels, min_obs=50)
    x = np.sort(sample)
    expect = tuple(x[math.ceil(100 * a) - 1] for a in levels)
    assert curves[0].values == expect
    assert curves[0].levels == levels


def test_fit_quantiles_guards():
    sample = list(range(100))
    with pytest.raises(EstimationError, match="observations"):
        fit_quantiles([sample[:10]], DEFAULT_LEVELS)
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_quantiles([sample], (0.5, 0.5))
    with pytest.raises(ValueError, match="inside"):
        fit_quantiles([sample], (0.0, 0.5))
    with pytest.raises(ValueError, match="two quantile"):
        fit_quantiles([sample], (0.5,))


def _line_curve():
    # quantile(w) = 10w on the default grid
    return QuantileCurve(DEFAULT_LEVELS, tuple(10.0 * a for a in DEFAULT_LEVELS))


def test_curve_interpolation_and_tails():
    c = _line_curve()
    assert c.quantile(0.5) == pytest.approx(5.0, abs=1e-12)
    assert c.quantile(0.3) == pytest.approx(3.0, abs=1e-12)
    assert c.iqr() == pytest.approx(5.0, abs=1e-12)
    # linear extension below 0.05 and above 0.95 with the edge slope 10
    assert c.quantile(0.01) == pytest.approx(0.5 - 0.4, abs=1e-12)
    assert c.quantile(0.99) == pytest.approx(9.5 + 0.4, abs=1e-12)


def test_steep_tails_are_capped_by_the_iqr():
    # edge slope 5000 but iqr 1, so the extension hits the cap immediately
    c = QuantileCurve((0.05, 0.25, 0.75, 0.95), (-1000.0, 0.0, 1.0, 1001.0))
    assert c.iqr() == pytest.approx(1.0, abs=1e-12)
    assert c.quantile(1e-12) == pytest.approx(-1000.0 - TAIL_IQR_CAP, abs=1e-9)
    assert c.quantile(1.0 - 1e-12) == pytest.approx(1001.0 + TAIL_IQR_CAP, abs=1e-9)


def test_curve_cdf_inverts_and_handles_flats():
    c = _line_curve()
    assert c.cdf(5.0) == pytest.approx(0.5, abs=1e-12)
    assert c.cdf(-100.0) == 0.0
    assert c.cdf(100.0) == 1.0
    flat = QuantileCurve((0.25, 0.5, 0.75), (1.0, 1.0, 2.0))
    # exact hit on a flat stretch reports the midpoint of its level span
    assert flat.cdf(1.0) == pytest.approx((0.25 + 0.5) / 2.0, abs=1e-12)


def test_pit_transform_clamps():
    c = _line_curve()
    assert pit_transform(-1e9, c) == PIT_EPS
    assert pit_transform(1e9, c) == 1.0 - PIT_EPS
    assert pit_transform(5.0, c) == pytest.approx(0.5, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-10000, max_value=10000),
                min_size=19, max_size=19, unique=True),
       st.floats(min_value=0.05, max_value=0.95))
def test_curve_cdf_quantile_round_trip(vals, w):
    # integer knots keep adjacent values at least 1 apart, so inverting
    # the interpolation cannot amplify rounding error
    c = QuantileCurve(DEFAULT_LEVELS, tuple(float(v) for v in sorted(vals)))
    assert c.cdf(c.quantile(w)) == pytest.approx(w, abs=1e-9)


# -- recursive covariance ----------------------------------------------------


def test_update_matches_longhand_definition():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(10, 3))
    trk = CovarianceTracker.identity(3, lam=0.9)
    for x in xs:
        trk = update_covariance(trk, x)
    expect = np.asarray(covariance_by_definition(xs.tolist(), 0.9))
    assert np.allclose(trk.sigma, expect, atol=1e-12)


def test_tracker_guards():
    with pytest.raises(ValueError, match="forgetting factor"):
        CovarianceTracker.identity(3, lam=1.0)
    trk = CovarianceTracker.identity(3, lam=0.9)
    with pytest.raises(ValueError, match="shape"):
        update_covariance(trk, [1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                         min_size=4, max_size=4), min_size=1, max_size=12))
def test_tracker_stays_symmetric_psd(rows):
    trk = CovarianceTracker.identity(4, lam=0.95)
    for x in rows:
        trk = update_covariance(trk, x)
    assert np.array_equal(trk.sigma, trk.sigma.T)
    assert np.linalg.eigvalsh(trk.sigma).min() >= -1e-9


def test_cholesky_jitter_handles_singular_and_rejects_negative():
    v = np.array([1.0, 2.0, 3.0])
    rank1 = np.outer(v, v)
    L = _cholesky_with_jitter(rank1)
    assert np.allclose(L @ L.T, rank1, atol=1e-5)
    with pytest.raises(NumericalError):
        _cholesky_with_jitter(-np.eye(2))


# -- sampling ----------------------------------------------------------------


def _sampling_inputs(H=4):
    point = {"n1": [10.0] * H, "n2": [20.0] * H}
    curves = {n: [_line_curve()] * H for n in ("n1", "n2")}
    trk = CovarianceTracker.identity(H, lam=0.99)
    return point, curves, trk


def test_generate_scenarios_shape_weights_and_determinism():
    point, curves, trk = _sampling_inputs()
    a = generate_scenarios(point, curves, trk, 5, seed=42, start_hour=7)
    b = generate_scenarios(point, curves, trk, 5, seed=42, start_hour=7)
    c = generate_scenarios(point, curves, trk, 5, seed=43, start_hour=7)
    assert a.prices.shape == (5, 2, 4)
    assert a.nodes == ("n1", "n2")
    assert a.start_hour == 7
    assert a.weights == (0.2,) * 5
    assert np.array_equal(a.prices, b.prices)
    assert not np.array_equal(a.prices, c.prices)
    # tuple seeds give their own stream
    d = generate_scenarios(point, curves, trk, 5, seed=(42, 1), start_hour=7)
    assert not np.array_equal(a.prices, d.prices)
    # one stream per seed fills the set row by row, so a smaller set is
    # the exact prefix of a larger one drawn with the same seed
    e = generate_scenarios(point, curves, trk, 3, seed=42, start_hour=7)
    assert np.array_equal(e.prices, a.prices[:3])
    few = generate_scenarios(point, curves, trk, 50, seed=(42, 1), start_hour=7)
    many = generate_scenarios(point, curves, trk, 200, seed=(42, 1), start_hour=7)
    assert few.nodes == many.nodes == ("n1", "n2")
    assert np.array_equal(few.prices, many.prices[:50])
    assert np.array_equal(few.prices[:5], d.prices)


def test_generate_scenarios_builds_one_generator_per_set(monkeypatch):
    built = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    point, curves, trk = _sampling_inputs()
    scn = generate_scenarios(point, curves, trk, 200, seed=(42, 1), start_hour=7)
    assert scn.count == 200
    assert len(built) == 1


def test_generated_prices_stay_inside_curve_support():
    point, curves, trk = _sampling_inputs()
    scn = generate_scenarios(point, curves, trk, 200, seed=0, start_hour=1)
    c = _line_curve()
    lo = c.values[0] - TAIL_IQR_CAP * c.iqr()
    hi = c.values[-1] + TAIL_IQR_CAP * c.iqr()
    for ni, node in enumerate(scn.nodes):
        base = point[node][0]
        assert scn.prices[:, ni, :].min() >= base + lo - 1e-9
        assert scn.prices[:, ni, :].max() <= base + hi + 1e-9


def _correlated_trackers(H):
    rng = np.random.default_rng(7)
    trackers = {}
    for node, scale in (("n1", 1.5), ("n2", 0.6)):
        trk = CovarianceTracker.identity(H, lam=0.8)
        for x in rng.normal(scale=scale, size=(12, H)) + np.linspace(0.0, 1.0, H):
            trk = update_covariance(trk, x)
        trackers[node] = trk
    return trackers


def test_generate_scenarios_matches_element_by_element_reference():
    H, count, seed = 6, 200, (5, 3)
    trackers = _correlated_trackers(H)
    sigma = {n: t.sigma for n, t in trackers.items()}
    point = {"n1": [10.0 + h for h in range(H)], "n2": [-3.0 * h for h in range(H)]}
    # a gentle curve per node and hour: its tails stay under the cap
    line = {n: [QuantileCurve(DEFAULT_LEVELS, tuple((10.0 + h + 30.0 * k) * a for a in DEFAULT_LEVELS))
                for h in range(H)]
            for k, n in enumerate(sorted(point))}
    _, w = scenarios_by_element(point, line, sigma, count, seed, TAIL_IQR_CAP)
    # hour 0 of each node gets a curve whose outer levels are drawn levels,
    # so some draws sit exactly on levels[0] and levels[-1]; its edge
    # slopes are steep enough that the tail cap binds
    curves = {}
    for ni, node in enumerate(sorted(point)):
        col = np.sort(w[:, ni, 0])
        assert col[1] < 0.25 and col[-2] > 0.75
        steep = QuantileCurve((col[1], 0.25, 0.5, 0.75, col[-2]), (-1e6, -1.0, 0.0, 1.0, 1e6))
        curves[node] = [steep] + line[node][1:]
    expect, _ = scenarios_by_element(point, curves, sigma, count, seed, TAIL_IQR_CAP)
    scn = generate_scenarios(point, curves, trackers, count, seed, start_hour=2)
    assert np.array_equal(scn.prices, expect)

    hit = set()
    for ni, node in enumerate(scn.nodes):
        for h in range(H):
            c = curves[node][h]
            L, V = c.levels, c.values
            cap = TAIL_IQR_CAP * c.iqr()
            lo_slope = (V[1] - V[0]) / (L[1] - L[0])
            hi_slope = (V[-1] - V[-2]) / (L[-1] - L[-2])
            for x in w[:, ni, h]:
                if x == L[0] or x == L[-1]:
                    hit.add("on levels[0]" if x == L[0] else "on levels[-1]")
                elif x < L[0]:
                    hit.add("low capped" if lo_slope * (L[0] - x) > cap else "low")
                elif x > L[-1]:
                    hit.add("high capped" if hi_slope * (x - L[-1]) > cap else "high")
    assert hit == {"on levels[0]", "on levels[-1]", "low", "low capped", "high", "high capped"}


def test_array_quantile_equals_scalar_calls():
    w = np.random.default_rng(3).uniform(size=300)
    steep = QuantileCurve((0.05, 0.25, 0.75, 0.95), (-1000.0, 0.0, 1.0, 1001.0))
    for c in (_line_curve(), steep):
        levels = np.concatenate([w, [c.levels[0], c.levels[-1], 0.5, 1e-12, 1.0 - 1e-12]])
        scalar = [c.quantile(float(x)) for x in levels]
        assert all(type(q) is float for q in scalar)
        assert np.array_equal(c.quantile(levels), scalar)
        assert scalar == [quantile_by_branches(c.levels, c.values, float(x), TAIL_IQR_CAP) for x in levels]
        grid = levels.reshape(-1, 5)
        assert c.quantile(grid).shape == grid.shape


def _mixed_grid_curves():
    # three level grids interleaved over eight hours, with flat stretches
    # (tied values) inside, at the edges and across a whole curve
    fine = DEFAULT_LEVELS
    coarse = (0.1, 0.3, 0.5, 0.7, 0.9)
    wide = (0.02, 0.5, 0.98)
    return [
        QuantileCurve(fine, tuple(10.0 * a for a in fine)),
        QuantileCurve(coarse, (-4.0, -1.0, -1.0, 2.0, 2.0)),
        QuantileCurve(wide, (-50.0, 0.0, 75.0)),
        QuantileCurve(fine, tuple(float(min(max(round(20 * a), 4), 15)) for a in fine)),
        QuantileCurve(coarse, (-2.0, -2.0, 0.5, 3.0, 1e4)),
        QuantileCurve(wide, (1.0, 1.0, 1.0)),
        QuantileCurve(coarse, (0.0, 1.0, 2.0, 3.0, 4.0)),
        QuantileCurve(fine, tuple(-1e3 + (2e3 if a > 0.5 else 0.0) + a for a in fine)),
    ]


def test_stacked_quantile_map_equals_each_curve_on_mixed_grids():
    curves = _mixed_grid_curves()
    table = QuantileTable(curves)
    rng = np.random.default_rng(11)
    # every column sees random levels, each of its own curve's levels and
    # those of the other grids, 0 and 1, and points just inside the edges
    on_levels = sorted({x for c in curves for x in c.levels})
    fixed = on_levels + [0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.5]
    w = np.vstack([rng.uniform(size=(300, len(curves))),
                   np.repeat(np.array(fixed)[:, None], len(curves), axis=1)])
    got = table.quantile(w)
    per_curve = np.column_stack([c.quantile(w[:, k]) for k, c in enumerate(curves)])
    assert np.array_equal(got, per_curve)
    for k, c in enumerate(curves):
        assert got[:, k].tolist() == [quantile_by_branches(c.levels, c.values, x, TAIL_IQR_CAP)
                                      for x in w[:, k].tolist()]
    # a shorter horizon maps through the leading curves; more columns
    # than curves is an error
    assert np.array_equal(table.quantile(w[:, :5]), got[:, :5])
    assert np.array_equal(table.quantile(w[:40].reshape(4, 10, -1)), got[:40].reshape(4, 10, -1))
    with pytest.raises(ValueError, match="9 columns"):
        table.quantile(np.full((2, 9), 0.5))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_stacked_cdf_equals_the_scalar_branches():
    curves = _mixed_grid_curves()
    table = QuantileTable(curves)
    rng = np.random.default_rng(12)
    # every column sees random values over and beyond its curve's range,
    # each of its values (exact hits, flat stretches), the midpoints
    # between them and values far out in both tails
    cols = []
    for c in curves:
        v = np.array(c.values)
        span = max(v[-1] - v[0], 1.0)
        cols.append(np.concatenate([rng.uniform(v[0] - span, v[-1] + span, 200), np.resize(v, 19),
                                    np.resize((v[:-1] + v[1:]) / 2.0, 18), [v[0] - 1e6, v[-1] + 1e6]]))
    x = np.column_stack(cols)
    got = table.cdf(x)
    want = [[cdf_by_branches(c.levels, c.values, xi) for xi in x[:, k].tolist()] for k, c in enumerate(curves)]
    assert np.array_equal(_bits(got), _bits(np.array(want).T))
    for k, c in enumerate(curves):
        assert np.array_equal(_bits(c.cdf(x[:, k])), _bits(got[:, k]))
        scalar = [c.cdf(xi) for xi in x[:5, k].tolist()]
        assert all(type(w) is float for w in scalar) and scalar == got[:5, k].tolist()
    assert np.array_equal(table.cdf(x[:40].reshape(4, 10, -1)), got[:40].reshape(4, 10, -1))
    with pytest.raises(ValueError, match="9 columns"):
        table.cdf(np.zeros((2, 9)))
    # falling edges jump to 0 or 1, and a value below the first value
    # takes the lower tail even where it also lies above the last one
    falling = [QuantileCurve((0.1, 0.5, 0.9), (3.0, 1.0, 2.0)), QuantileCurve((0.1, 0.5, 0.9), (0.0, 2.0, 1.5))]
    x = np.array([[-100.0, -1.0], [1.5, 1.7], [2.5, 5.0], [100.0, 1.6]])
    want = [[cdf_by_branches(c.levels, c.values, xi) for c, xi in zip(falling, row)] for row in x.tolist()]
    assert np.array_equal(_bits(QuantileTable(falling).cdf(x)), _bits(want))
    assert want == [[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]]


def test_generate_scenarios_takes_a_prebuilt_table():
    curves = _mixed_grid_curves()
    H = len(curves)
    point = {"n1": [float(h) for h in range(H)]}
    trk = _correlated_trackers(H)["n1"]
    a = generate_scenarios(point, {"n1": curves}, trk, 50, (3, 1), start_hour=1)
    b = generate_scenarios(point, {"n1": QuantileTable(curves)}, trk, 50, (3, 1), start_hour=1)
    assert np.array_equal(a.prices, b.prices)


def test_tracker_factors_each_horizon_once():
    trk = _correlated_trackers(6)["n1"]
    with pytest.raises(ValueError):
        trk.sigma[0, 0] = 1.0  # read-only, so a kept factor cannot go stale
    for H in (6, 3):
        L = trk.factor(H)
        assert trk.factor(H) is L
        assert np.array_equal(L, _cholesky_with_jitter(np.array(trk.sigma[:H, :H])))


def test_generate_scenarios_guards():
    point, curves, trk = _sampling_inputs()
    with pytest.raises(ValueError, match="at least one"):
        generate_scenarios(point, curves, trk, 0, seed=0, start_hour=1)
    small = CovarianceTracker.identity(2, lam=0.99)
    with pytest.raises(ValueError, match="tracker dim"):
        generate_scenarios(point, curves, small, 3, seed=0, start_hour=1)


def test_point_scenario_set_is_degenerate():
    scn = point_scenario_set({"n1": [4.0, 5.0]}, start_hour=3)
    assert scn.count == 1
    assert scn.weights == (1.0,)
    assert scn.price(0, "n1", 3) == 4.0
    assert scn.price(0, "n1", 4) == 5.0


# -- pipeline ----------------------------------------------------------------


def _toy_history(n_days=60, H=8, seed=0, phi=0.6, beta=0.4):
    rng = np.random.default_rng(seed)
    da = np.tile(20.0 + 5.0 * np.sin(np.arange(H) / H * 2 * np.pi), n_days)
    rt = np.empty(n_days * H)
    prev = 20.0
    for i in range(n_days * H):
        prev = phi * prev + beta * da[i] + rng.normal(0.0, 1.5)
        rt[i] = prev
    return {"bus": (rt, da)}


@pytest.fixture(scope="module")
def fitted_pipeline():
    cfg = ForecastConfig(horizon=8, min_train_days=40)
    return ForecastPipeline(cfg).fit(_toy_history()), cfg


def test_pipeline_fit_guards():
    cfg = ForecastConfig(horizon=8)
    with pytest.raises(EstimationError, match="training days"):
        ForecastPipeline(cfg).fit(_toy_history(n_days=10))
    hist = _toy_history()
    rt, da = hist["bus"]
    with pytest.raises(EstimationError, match="differ in length"):
        ForecastPipeline(cfg).fit({"bus": (rt[:-1], da)})
    with pytest.raises(EstimationError, match="no fitted model"):
        ForecastPipeline(cfg).point_forecast("ghost", 0, [], [], 8)


def test_pipeline_fit_names_the_first_non_finite_hour():
    history = make_history(SynthConfig(seed=11))
    rt, da = history["bus"]
    rt = rt.copy()
    rt[500] = np.nan
    with pytest.raises(EstimationError, match="node bus: RT history at hour 501 is nan, not a finite price"):
        ForecastPipeline(ForecastConfig()).fit({"bus": (rt, da)})
    da = da.copy()
    da[[7, 9]] = np.inf
    with pytest.raises(EstimationError, match="node bus: DA history at hour 8 is inf"):
        ForecastPipeline(ForecastConfig()).fit({"bus": (history["bus"][0], da)})


def test_pipeline_scenario_sets_line_up_with_the_origin(fitted_pipeline):
    pipe, cfg = fitted_pipeline
    day = _toy_history(n_days=1, seed=99)
    rt = {"bus": day["bus"][0]}
    da = {"bus": day["bus"][1]}
    scn = pipe.scenario_set(2, rt, da, 8, count=7, seed=5)
    assert scn.start_hour == 3
    assert scn.end_hour == 8
    assert scn.count == 7
    assert scn.prices.shape == (7, 1, 6)
    again = pipe.scenario_set(2, rt, da, 8, count=7, seed=5)
    assert np.array_equal(scn.prices, again.prices)
    point = pipe.point_set(2, rt, da, 8)
    assert point.count == 1
    fc = pipe.point_forecast("bus", 2, rt["bus"], da["bus"], 8)
    assert np.array_equal(point.prices[0, 0, :], fc)


def test_pipeline_diagnostics_reports_per_day_pits(fitted_pipeline):
    pipe, cfg = fitted_pipeline
    test = _toy_history(n_days=12, seed=123)
    out = pipe.diagnostics(test, count=40, seed=1)
    d = out["bus"]
    assert d["n_days"] == 12
    assert d["n_pits"] == 12
    assert 0.0 <= d["coverage_90"] <= 1.0
    assert 0.0 <= d["ks_pvalue"] <= 1.0


@pytest.mark.parametrize("orders", [(1, 0, 0), (2, 1, 0), (1, 0, 1)])
def test_point_forecasts_read_only_the_history_they_need(monkeypatch, orders):
    # without moving-average terms the recursion reads the last p + d
    # levels, and the pipeline hands predict_point no more; with them it
    # recovers innovations over the whole history.  Both forecast what
    # the whole history gives, to the bit
    cfg = ForecastConfig(horizon=8, min_train_days=40, orders=orders)
    history = _toy_history()
    pipe = ForecastPipeline(cfg).fit(history)
    rt, da = history["bus"]
    test_rt, test_da = _toy_history(n_days=2, seed=99)["bus"]
    p, d, q = orders
    seen = []

    def spy(spec, hist, *args, **kwargs):
        seen.append(len(hist))
        return predict_point(spec, hist, *args, **kwargs)

    monkeypatch.setattr(forecast_module, "predict_point", spy)
    spec = pipe._nodes["bus"].spec
    for t0 in (0, 3):
        whole = predict_point(spec, np.concatenate([rt, test_rt[:t0]]), exog_future=test_da[t0:8, None],
                              exog_history=np.concatenate([da, test_da[:t0]])[:, None], steps=8 - t0)
        assert np.array_equal(pipe.point_forecast("bus", t0, test_rt[:8], test_da[:8], 8), whole)
    pipe.diagnostics({"bus": (test_rt, test_da)}, count=5, seed=1)
    n = len(rt)
    assert seen == ([p + d] * 4 if q == 0 else [n, n + 3, n, n + 8])


def test_seed_11_sets_keep_their_digest():
    # the point forecasts and S=200 sets of the seed-11 pipeline, fitted
    # on 90 days, for held-out day 90 at three origins, pinned as SHA-256
    # prefixes of their float64 bytes.  A sampler change that keeps every
    # draw keeps these; one that changes the draws (such as scaling the
    # copula's covariance to unit diagonal) re-pins them on purpose.  The
    # bytes depend on numpy's and the BLAS's arithmetic on this platform.
    H = 24
    history = make_history(SynthConfig(seed=11, history_days=91))
    pipe = ForecastPipeline(ForecastConfig()).fit(
        {n: (rt[:90 * H], da[:90 * H]) for n, (rt, da) in history.items()})
    rt = {n: rt[90 * H:] for n, (rt, da) in history.items()}
    da = {n: da[90 * H:] for n, (rt, da) in history.items()}
    digests = {}
    for t0 in (0, 9, 20):
        h = hashlib.sha256()
        h.update(pipe.point_set(t0, rt, da, H).prices.tobytes())
        h.update(pipe.scenario_set(t0, rt, da, H, 200, 11).prices.tobytes())
        digests[t0] = h.hexdigest()[:16]
    assert digests == {0: "43fd9dc6e55ecc57", 9: "db385eb3df9cd9ff", 20: "27fa5f29549c6723"}
