"""Probabilistic price forecasting.

The chain is: an ARIMAX point forecast per node, per-look-ahead-hour
quantile curves of the forecast error, a probability-integral transform
(PIT) of observed errors, the inverse normal CDF into Gaussian space, a
recursive exponentially-forgetting covariance over the look-ahead hours,
and correlated trajectory sampling back through the inverse maps.  Each
stage is exposed on its own; :class:`ForecastPipeline` wires them
together for the rolling simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import least_squares
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from .core import PriceScenarioSet

PIT_EPS = 1e-6
TAIL_IQR_CAP = 5.0
DEFAULT_LEVELS = tuple(i / 20 for i in range(1, 20))  # 0.05 .. 0.95


class EstimationError(RuntimeError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NumericalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# ARIMAX


@dataclass(frozen=True)
class ArimaxSpec:
    """Fitted ARIMAX(p, d, q) with exogenous regressors.

    On the d-times differenced scale the model is
    y_t = sum_i phi_i y_{t-i} + sum_j theta_j eps_{t-j} + beta'x_t + eps_t.
    """

    p: int
    d: int
    q: int
    phi: tuple[float, ...]
    theta: tuple[float, ...]
    beta: tuple[float, ...]
    sigma2: float
    se: tuple[float, ...] = ()  # asymptotic standard errors, (phi, theta, beta) order


def _difference(y: np.ndarray, d: int) -> np.ndarray:
    for _ in range(d):
        y = np.diff(y)
    return y


def _css_eps(y: np.ndarray, X: np.ndarray | None, phi: np.ndarray, theta: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Innovation recursion conditioning on the first p observations."""
    n = len(y)
    p, q = len(phi), len(theta)
    eps = np.zeros(n)
    xb = X @ beta if X is not None and len(beta) else np.zeros(n)
    for t in range(p, n):
        pred = xb[t]
        for i in range(p):
            pred += phi[i] * y[t - 1 - i]
        for j in range(min(q, t)):
            pred += theta[j] * eps[t - 1 - j]
        eps[t] = y[t] - pred
    return eps


def fit_arimax(
    history: Sequence[float],
    exog: np.ndarray | None,
    orders: tuple[int, int, int],
    max_nfev: int = 400,
) -> ArimaxSpec:
    """Estimate coefficients by conditional sum of squares.

    A linear least-squares fit of the AR and exogenous terms seeds a
    Gauss-Newton refinement over the full parameter vector when moving
    average terms are present.  Raises :class:`EstimationError` when the
    history is too short or the refinement fails to converge.
    """
    p, d, q = orders
    if min(p, d, q) < 0:
        raise ValueError("orders must be non-negative")
    y = np.asarray(history, dtype=float)
    X = None
    n_exog = 0
    if exog is not None:
        X = np.asarray(exog, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if len(X) != len(y):
            raise ValueError("exog length must match history length")
        n_exog = X.shape[1]
    need = p + q + n_exog + d + 10
    if len(y) <= need:
        raise EstimationError(f"history too short: {len(y)} points, need more than {need}")
    y = _difference(y, d)
    if X is not None:
        X = np.diff(X, n=d, axis=0) if d else X

    # seed: ordinary least squares on AR lags and exog, theta at zero
    cols = []
    for i in range(1, p + 1):
        cols.append(y[p - i : len(y) - i])
    if X is not None:
        cols.append(X[p:])
    if cols:
        design = np.column_stack(cols) if len(cols) > 1 else (
            cols[0][:, None] if cols[0].ndim == 1 else cols[0]
        )
        sol, *_ = np.linalg.lstsq(design, y[p:], rcond=None)
        phi0 = sol[:p]
        beta0 = sol[p:]
    else:
        phi0 = np.zeros(0)
        beta0 = np.zeros(0)
    theta0 = np.zeros(q)

    if q == 0:
        phi, theta, beta = phi0, theta0, beta0
        jac = design if cols else None
    else:
        def resid(params):
            ph = params[:p]
            th = params[p : p + q]
            be = params[p + q :]
            return _css_eps(y, X, ph, th, be)[p:]

        x0 = np.concatenate([phi0, theta0, beta0])
        res = least_squares(resid, x0, method="trf", max_nfev=max_nfev)
        if res.status == 0:
            raise EstimationError(
                "conditional sum of squares refinement did not converge",
                {"last_iterate": res.x.tolist(), "cost": float(res.cost), "nfev": int(res.nfev)},
            )
        phi = res.x[:p]
        theta = res.x[p : p + q]
        beta = res.x[p + q :]
        jac = res.jac

    eps = _css_eps(y, X, np.asarray(phi), np.asarray(theta), np.asarray(beta))[p:]
    sigma2 = float(eps @ eps / max(len(eps), 1))
    se: tuple[float, ...] = ()
    if jac is not None and jac.size:
        # asymptotic covariance sigma2 * (J'J)^-1; pinv guards collinear exog
        cov = sigma2 * np.linalg.pinv(jac.T @ jac)
        se = tuple(float(v) for v in np.sqrt(np.maximum(np.diag(cov), 0.0)))
    return ArimaxSpec(
        p, d, q, tuple(map(float, phi)), tuple(map(float, theta)),
        tuple(map(float, beta)), sigma2, se,
    )


def predict_point(
    spec: ArimaxSpec,
    history: Sequence[float],
    exog_future: np.ndarray | None = None,
    steps: int | None = None,
    exog_history: np.ndarray | None = None,
) -> np.ndarray:
    """Recursive multi-step forecast; future innovations are zero.

    ``exog_history`` is required when the model has both exogenous and
    moving-average terms, because the innovation recursion over the
    history needs the regression part.
    """
    y_lvl = np.asarray(history, dtype=float)
    Xf = None
    if exog_future is not None:
        Xf = np.asarray(exog_future, dtype=float)
        if Xf.ndim == 1:
            Xf = Xf[:, None]
    if spec.beta and Xf is None:
        raise ValueError("model has exogenous terms; exog_future is required")
    H = steps if steps is not None else (len(Xf) if Xf is not None else 24)
    if Xf is not None and len(Xf) < H:
        raise ValueError("exog_future shorter than requested horizon")

    Xh = None
    if exog_history is not None:
        Xh = np.asarray(exog_history, dtype=float)
        if Xh.ndim == 1:
            Xh = Xh[:, None]
        if len(Xh) != len(y_lvl):
            raise ValueError("exog_history length must match history length")
    if spec.beta and spec.q > 0 and Xh is None:
        raise ValueError("exog_history required to recover innovations with MA terms")

    p, d, q = spec.p, spec.d, spec.q
    if d and Xf is not None:
        # difference future exog across the history boundary
        Xf = _diff_future(Xh, Xf, d)
    # the exogenous term of every step in one call; vecdot takes each
    # row's dot product, so it equals beta @ Xf[h] to the bit
    xb = np.vecdot(Xf[:H], np.asarray(spec.beta)).tolist() if spec.beta else [0.0] * H
    # the recursion reads only the last p levels and q innovations of the
    # differenced history; before its start both count as zero
    if q:
        y = _difference(y_lvl, d)
        if d and Xh is not None:
            Xh = np.diff(Xh, n=d, axis=0)
        eps = _css_eps(y, Xh, np.asarray(spec.phi), np.asarray(spec.theta), np.asarray(spec.beta))
        ee = _last(eps, q)
    else:
        y = _difference(y_lvl[len(y_lvl) - min(len(y_lvl), p + d):], d)
        ee = []
    yy = _last(y, p)
    out = np.empty(H)
    for h in range(H):
        pred = xb[h]
        for i in range(p):
            pred += spec.phi[i] * yy[-1 - i]
        for j in range(q):
            pred += spec.theta[j] * ee[-1 - j]
        yy.append(pred)
        ee.append(0.0)  # future innovations
        out[h] = pred

    # integrate d times back to levels: the last entry of the m-th
    # difference needs only the last m + 1 levels
    for k in range(d):
        base = _difference(y_lvl[len(y_lvl) - min(len(y_lvl), d - k):], d - 1 - k)
        last = base[-1] if len(base) else 0.0
        out = last + np.cumsum(out)
    return out


def _last(a: np.ndarray, n: int) -> list[float]:
    """The last ``n`` entries of ``a``, padded with zeros in front when
    ``a`` is shorter."""
    k = min(n, len(a))
    return [0.0] * (n - k) + a[len(a) - k:].tolist()


def _recent(train: np.ndarray, day: np.ndarray, n: int | None) -> np.ndarray:
    """The training series followed by the day's values: the last ``n``
    entries of the two, or all of them when ``n`` is None."""
    if n is None:
        return np.concatenate([train, day])
    if n <= len(day):
        return day[len(day) - n:]
    return np.concatenate([train[max(0, len(train) - (n - len(day))):], day])


def _diff_future(exog_history: np.ndarray | None, exog_future: np.ndarray, d: int) -> np.ndarray:
    """Difference future exog d times using trailing history for the boundary."""
    Xf = exog_future if exog_future.ndim == 2 else exog_future[:, None]
    if exog_history is not None:
        Xh = exog_history if exog_history.ndim == 2 else exog_history[:, None]
        joined = np.vstack([Xh[-d:], Xf])
    else:
        joined = np.vstack([np.zeros((d, Xf.shape[1])), Xf])
    return np.diff(joined, n=d, axis=0)


# ---------------------------------------------------------------------------
# quantile curves and the PIT


@dataclass(frozen=True)
class QuantileCurve:
    """Piecewise-linear quantile function on a fixed level grid.

    ``values`` are non-decreasing by construction.  Beyond the outermost
    levels the curve extends linearly with the outer segment's slope,
    but never further than ``TAIL_IQR_CAP`` interquartile ranges.
    """

    levels: tuple[float, ...]
    values: tuple[float, ...]

    def iqr(self) -> float:
        L = np.asarray(self.levels)
        V = np.asarray(self.values)
        return float(np.interp(0.75, L, V) - np.interp(0.25, L, V))

    @cached_property
    def _tails(self) -> tuple[float, float, float]:
        """The tail cap and the lower and upper edge slopes, once per curve."""
        L = self.levels
        V = self.values
        lo_slope = (V[1] - V[0]) / (L[1] - L[0])
        hi_slope = (V[-1] - V[-2]) / (L[-1] - L[-2])
        return TAIL_IQR_CAP * self.iqr(), lo_slope, hi_slope

    @cached_property
    def _table(self) -> "QuantileTable":
        return QuantileTable((self,))

    def quantile(self, w: float | np.ndarray) -> float | np.ndarray:
        """Inverse of the curve at level(s) ``w``, scalar or array.

        An array is mapped element by element in one pass; a scalar
        level gives a ``float``.
        """
        w = np.asarray(w, dtype=float)
        q = self._table.quantile(w[..., None])[..., 0]
        return float(q) if q.ndim == 0 else q

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """The curve's level at value(s) ``x``, scalar or array.

        Between values the level interpolates linearly; a value hit
        exactly, possibly on a flat stretch, gets the middle of the
        levels that reach it.  Beyond the outer values the edge slopes
        extend the levels, clamped to [0, 1]; a flat edge jumps there.
        """
        x = np.asarray(x, dtype=float)
        w = self._table.cdf(x[..., None])[..., 0]
        return float(w) if w.ndim == 0 else w


class _LevelGroup:
    """The curves of a :class:`QuantileTable` that share one level grid,
    stacked: their positions in the table, the grid, the value table and
    each curve's segment slopes, tail cap and edge slopes."""

    def __init__(self, positions: Sequence[int], curves: Sequence[QuantileCurve]):
        self.positions = np.asarray(positions, dtype=np.intp)
        self.levels = np.asarray(curves[0].levels, dtype=float)
        self.values = np.array([c.values for c in curves], dtype=float)
        # np.interp's own slopes: (y[j+1] - y[j]) / (x[j+1] - x[j])
        self.slopes = np.diff(self.values, axis=1) / np.diff(self.levels)
        self.cap, self.lo_slope, self.hi_slope = np.array([c._tails for c in curves]).T

    def quantile(self, w: np.ndarray) -> np.ndarray:
        """Map ``w`` (..., n), column k through curve k, as
        :meth:`QuantileCurve.quantile` documents."""
        L, V = self.levels, self.values
        n = w.shape[-1]
        rows = np.arange(n)
        # np.interp's arithmetic: the segment with L[j] <= w < L[j + 1],
        # its start value exactly on a level, else slope * (w - x0) + y0
        j = np.clip(np.searchsorted(L, w, side="right") - 1, 0, len(L) - 2)
        x0 = L[j]
        y0 = V[rows, j]
        q = np.where(w == x0, y0, self.slopes[rows, j] * (w - x0) + y0)
        q = np.where(w <= L[0], V[:n, 0] - np.minimum(self.lo_slope[:n] * (L[0] - w), self.cap[:n]), q)
        return np.where(w >= L[-1], V[:n, -1] + np.minimum(self.hi_slope[:n] * (w - L[-1]), self.cap[:n]), q)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Map ``x`` (..., n), column k through the inverse of curve k,
        as :meth:`QuantileCurve.cdf` documents."""
        L = self.levels
        n = x.shape[-1]
        V = self.values[:n]
        rows = np.arange(n)
        # searchsorted on each curve's non-decreasing values, left and right
        lo = np.count_nonzero(V < x[..., None], axis=-1)
        hi = np.count_nonzero(V <= x[..., None], axis=-1)
        # the branches not taken may divide by zero; np.where drops them
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.maximum(lo - 1, 0)
            b = np.minimum(lo, len(L) - 1)
            w = np.where(lo < hi, (L[b] + L[np.maximum(hi - 1, 0)]) / 2.0,
                         L[a] + (L[b] - L[a]) * (x - V[rows, a]) / (V[rows, b] - V[rows, a]))
            lo_slope, hi_slope = self.lo_slope[:n], self.hi_slope[:n]
            above = np.where(hi_slope <= 0, 1.0, np.minimum(L[-1] + (x - V[:, -1]) / hi_slope, 1.0))
            below = np.where(lo_slope <= 0, 0.0, np.maximum(L[0] - (V[:, 0] - x) / lo_slope, 0.0))
        w = np.where(x > V[:, -1], above, w)
        return np.where(x < V[:, 0], below, w)


class QuantileTable:
    """A sequence of quantile curves, one per look-ahead hour, stacked
    once so that levels (:meth:`quantile`) or values (:meth:`cdf`) for
    many hours map in one call.

    Curves are grouped by level grid; within a group, one
    ``searchsorted`` on the shared levels finds every segment of the
    quantile map, and one comparison with the value table every segment
    of the CDF.  :meth:`QuantileCurve.quantile` and
    :meth:`QuantileCurve.cdf` are these maps on a table of one curve.
    """

    def __init__(self, curves: Sequence[QuantileCurve]):
        self.size = len(curves)
        by_grid: dict[tuple[float, ...], list[int]] = {}
        for k, c in enumerate(curves):
            by_grid.setdefault(c.levels, []).append(k)
        self._groups = tuple(_LevelGroup(ks, [curves[k] for k in ks]) for ks in by_grid.values())

    def __len__(self) -> int:
        return self.size

    def _by_group(self, fn, a: np.ndarray) -> np.ndarray:
        """``fn`` of each level group on its columns of ``a`` (..., H)."""
        H = a.shape[-1]
        if H > self.size:
            raise ValueError(f"{H} columns for {self.size} curves")
        out = np.empty_like(a)
        for g in self._groups:
            pos = g.positions[: np.searchsorted(g.positions, H)]
            if pos.size:
                out[..., pos] = fn(g, a[..., pos])
        return out

    def quantile(self, w: np.ndarray) -> np.ndarray:
        """Map levels ``w`` of shape (..., H), H at most the table's
        length, column k through curve k."""
        return self._by_group(_LevelGroup.quantile, w)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Map values ``x`` of shape (..., H), H at most the table's
        length, column k through the inverse of curve k."""
        return self._by_group(_LevelGroup.cdf, x)


def fit_quantiles(
    samples_per_hour: Sequence[Sequence[float]],
    levels: Sequence[float] = DEFAULT_LEVELS,
    min_obs: int = 50,
) -> list[QuantileCurve]:
    """Pinball-loss-minimizing quantiles per look-ahead hour.

    For an unconditional sample the minimizer at level a is the order
    statistic of rank ceil(n*a); any crossing (impossible here, kept for
    safety with other estimators) is repaired by rearrangement.
    """
    lv = np.asarray(levels, dtype=float)
    if lv.ndim != 1 or len(lv) < 2:
        raise ValueError("need at least two quantile levels")
    if np.any(lv <= 0) or np.any(lv >= 1):
        raise ValueError("levels must lie strictly inside (0, 1)")
    if np.any(np.diff(lv) <= 0):
        raise ValueError("levels must be strictly increasing")
    curves = []
    for h, sample in enumerate(samples_per_hour):
        x = np.sort(np.asarray(sample, dtype=float))
        n = len(x)
        if n < min_obs:
            raise EstimationError(
                f"look-ahead hour {h}: {n} observations, need at least {min_obs}"
            )
        ranks = np.ceil(n * lv).astype(int) - 1
        vals = np.sort(x[np.clip(ranks, 0, n - 1)])  # rearrangement repair
        curves.append(QuantileCurve(tuple(lv), tuple(vals)))
    return curves


def pit_transform(observation: float, curve: QuantileCurve, eps: float = PIT_EPS) -> float:
    """w = F(observation) clamped away from 0 and 1 for the inverse normal CDF."""
    return float(np.clip(curve.cdf(observation), eps, 1.0 - eps))


# ---------------------------------------------------------------------------
# recursive covariance


@dataclass(frozen=True, eq=False)
class CovarianceTracker:
    """Exponentially forgetting covariance over look-ahead hours.

    ``sigma`` is read-only, so that the Cholesky factors of its leading
    blocks can be kept: :meth:`factor` computes each one once.
    """

    dim: int
    lam: float
    sigma: np.ndarray
    _factors: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        sigma = np.array(self.sigma, dtype=float)
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def identity(cls, dim: int = 24, lam: float = 0.99) -> "CovarianceTracker":
        if not 0.0 <= lam < 1.0:
            raise ValueError("forgetting factor must lie in [0, 1)")
        return cls(dim, lam, np.eye(dim))

    def factor(self, H: int) -> np.ndarray:
        """Lower Cholesky factor of ``sigma[:H, :H]``, jittered if need
        be, computed once per horizon ``H``."""
        if H not in self._factors:
            chol = _cholesky_with_jitter(self.sigma[:H, :H])
            chol.flags.writeable = False  # shared by every later call
            self._factors[H] = chol
        return self._factors[H]


def update_covariance(tracker: CovarianceTracker, x: Sequence[float]) -> CovarianceTracker:
    """One rank-one forgetting step: S <- lam*S + (1-lam)*x x'.

    Symmetry is preserved exactly; positive semi-definiteness follows
    from the convex combination of PSD terms.
    """
    v = np.asarray(x, dtype=float)
    if v.shape != (tracker.dim,):
        raise ValueError(f"update vector has shape {v.shape}, tracker dim is {tracker.dim}")
    sigma = tracker.lam * tracker.sigma + (1.0 - tracker.lam) * np.outer(v, v)
    return CovarianceTracker(tracker.dim, tracker.lam, sigma)


def _cholesky_with_jitter(S: np.ndarray) -> np.ndarray:
    scale = max(float(np.mean(np.diag(S))), 1e-12)
    for jit in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
        try:
            return np.linalg.cholesky(S + jit * scale * np.eye(len(S)))
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("covariance not factorizable even with jitter")


# ---------------------------------------------------------------------------
# trajectory sampling


def generate_scenarios(
    point_forecast: Mapping[str, Sequence[float]],
    curves: Mapping[str, Sequence[QuantileCurve] | QuantileTable],
    tracker: CovarianceTracker | Mapping[str, CovarianceTracker],
    count: int,
    seed: int | tuple[int, ...],
    start_hour: int,
) -> PriceScenarioSet:
    """Sample equally weighted correlated price trajectories.

    One generator, seeded by ``SeedSequence(seed)``, draws a single
    (count, nodes, hours) block of standard normals; trajectory s is row
    s.  Numpy fills the block in C order, so the first k trajectories of
    a set are the same whatever count the set is drawn with.  Per node,
    every trajectory's normals go through the Cholesky factor of the
    tracked covariance (leading submatrix when the horizon is shorter
    than the tracker) and the normal CDF in one call.  Then the levels
    of all scenarios and hours go through the hours' inverse PITs in one
    :class:`QuantileTable` call and are shifted by the point forecast.
    A node's curves may come as a table, built once; hour h uses the
    node's curve h.
    """
    if count < 1:
        raise ValueError("need at least one scenario")
    nodes = tuple(sorted(point_forecast))
    H = len(point_forecast[nodes[0]])
    for node in nodes:
        if len(point_forecast[node]) != H or len(curves[node]) < H:
            raise ValueError(f"node {node}: point forecast and curves must cover {H} hours")
    z = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((count, len(nodes), H))
    prices = np.empty_like(z)
    for ni, node in enumerate(nodes):
        trk = tracker[node] if isinstance(tracker, Mapping) else tracker
        if trk.dim < H:
            raise ValueError(f"tracker dim {trk.dim} smaller than horizon {H}")
        # a stack of matrix-vector products: row s is chol @ z[s, ni] to the bit
        w = ndtr((trk.factor(H) @ z[:, ni, :, None])[..., 0])
        table = curves[node]
        if not isinstance(table, QuantileTable):
            table = QuantileTable(table)
        prices[:, ni, :] = np.asarray(point_forecast[node], dtype=float) + table.quantile(w)
    weights = tuple([1.0 / count] * count)
    return PriceScenarioSet(nodes, start_hour, prices, weights)


def point_scenario_set(point_forecast: Mapping[str, Sequence[float]], start_hour: int) -> PriceScenarioSet:
    """Degenerate single-trajectory set carrying the point forecast."""
    nodes = tuple(sorted(point_forecast))
    H = len(point_forecast[nodes[0]])
    prices = np.empty((1, len(nodes), H))
    for ni, node in enumerate(nodes):
        prices[0, ni, :] = np.asarray(point_forecast[node], dtype=float)
    return PriceScenarioSet(nodes, start_hour, prices, (1.0,))


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class ForecastConfig:
    orders: tuple[int, int, int] = (1, 0, 0)
    levels: tuple[float, ...] = DEFAULT_LEVELS
    lam: float = 0.99
    horizon: int = 24
    min_train_days: int = 60


@dataclass
class _NodeModel:
    spec: ArimaxSpec
    curves: list[QuantileCurve]  # indexed by look-ahead hour (lead - 1)
    table: QuantileTable  # the curves, stacked once per fit
    tracker: CovarianceTracker
    rt: np.ndarray
    da: np.ndarray

    def history_read(self) -> int | None:
        """How many of the last levels a point forecast reads: ``p + d``
        without moving-average terms, every one (None) with them, whose
        innovations are recovered over the whole history."""
        return None if self.spec.q else self.spec.p + self.spec.d


class ForecastPipeline:
    """Fit once on history, then produce per-origin scenario sets.

    History per node is a pair of aligned hourly series (realized RT
    price, DA price) spanning whole days.  Error quantile curves are
    indexed by look-ahead hour; the day-of-interest conditioning uses
    realized prices up to the forecast origin only.
    """

    def __init__(self, config: ForecastConfig | None = None):
        self.cfg = config or ForecastConfig()
        self._nodes: dict[str, _NodeModel] = {}

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def fit(self, history: Mapping[str, tuple[Sequence[float], Sequence[float]]]) -> "ForecastPipeline":
        cfg = self.cfg
        for node, (rt_raw, da_raw) in history.items():
            rt = np.asarray(rt_raw, dtype=float)
            da = np.asarray(da_raw, dtype=float)
            if len(rt) != len(da):
                raise EstimationError(f"node {node}: RT and DA histories differ in length")
            n_days = len(rt) // cfg.horizon
            if n_days < cfg.min_train_days:
                raise EstimationError(
                    f"node {node}: {n_days} training days, need at least {cfg.min_train_days}"
                )
            rt = rt[: n_days * cfg.horizon]
            da = da[: n_days * cfg.horizon]
            for kind, series in (("RT", rt), ("DA", da)):
                bad = np.flatnonzero(~np.isfinite(series))
                if bad.size:
                    raise EstimationError(
                        f"node {node}: {kind} history at hour {bad[0] + 1} is {series[bad[0]]}, not a finite price"
                    )
            spec = fit_arimax(rt, da[:, None], cfg.orders)
            resid = np.empty((n_days - 1, cfg.horizon))
            for k in range(1, n_days):
                o = k * cfg.horizon
                fc = predict_point(
                    spec, rt[:o], exog_future=da[o : o + cfg.horizon, None],
                    exog_history=da[:o, None],
                )
                resid[k - 1] = rt[o : o + cfg.horizon] - fc
            curves = fit_quantiles(resid.T, cfg.levels)
            table = QuantileTable(curves)
            # every day's PIT in one call, then the inverse normal CDF
            z = ndtri(np.clip(table.cdf(resid), PIT_EPS, 1.0 - PIT_EPS))
            tracker = CovarianceTracker.identity(cfg.horizon, cfg.lam)
            for x in z:
                tracker = update_covariance(tracker, x)
            self._nodes[node] = _NodeModel(spec, curves, table, tracker, rt, da)
        return self

    def _require(self, node: str) -> _NodeModel:
        if node not in self._nodes:
            raise EstimationError(f"no fitted model for node {node}")
        return self._nodes[node]

    def point_forecast(
        self, node: str, t0: int, day_rt: Sequence[float], day_da: Sequence[float], horizon_end: int
    ) -> np.ndarray:
        """Forecast hours t0+1 .. horizon_end conditioning on the day prefix."""
        nm = self._require(node)
        rt_prefix = np.asarray(day_rt, dtype=float)[:t0]
        da_day = np.asarray(day_da, dtype=float)
        keep = nm.history_read()
        hist = _recent(nm.rt, rt_prefix, keep)
        ehist = _recent(nm.da, da_day[:t0], keep)
        H = horizon_end - t0
        if H < 1:
            raise ValueError("horizon_end must exceed the forecast origin")
        return predict_point(
            nm.spec, hist, exog_future=da_day[t0:horizon_end, None],
            exog_history=ehist[:, None], steps=H,
        )

    def scenario_set(
        self,
        t0: int,
        day_rt: Mapping[str, Sequence[float]],
        day_da: Mapping[str, Sequence[float]],
        horizon_end: int,
        count: int,
        seed: int,
    ) -> PriceScenarioSet:
        """Correlated trajectories for hours t0+1 .. horizon_end."""
        points = {
            node: self.point_forecast(node, t0, day_rt[node], day_da[node], horizon_end)
            for node in self.nodes
        }
        tables = {node: self._nodes[node].table for node in self.nodes}
        trackers = {node: self._nodes[node].tracker for node in self.nodes}
        return generate_scenarios(points, tables, trackers, count, (seed, t0), start_hour=t0 + 1)

    def point_set(
        self,
        t0: int,
        day_rt: Mapping[str, Sequence[float]],
        day_da: Mapping[str, Sequence[float]],
        horizon_end: int,
    ) -> PriceScenarioSet:
        points = {
            node: self.point_forecast(node, t0, day_rt[node], day_da[node], horizon_end)
            for node in self.nodes
        }
        return point_scenario_set(points, start_hour=t0 + 1)

    def diagnostics(
        self,
        test_history: Mapping[str, tuple[Sequence[float], Sequence[float]]],
        count: int = 200,
        seed: int = 0,
    ) -> dict:
        """PIT uniformity and central-envelope coverage on held-out days.

        The KS statistic uses first-lead PITs only: one per day, so the
        sample is independent across days.  Pooling every lead would mix
        serially correlated values and overstate the statistic.
        """
        cfg = self.cfg
        out: dict = {}
        for node, (rt_raw, da_raw) in test_history.items():
            nm = self._require(node)
            keep = nm.history_read()
            rt = np.asarray(rt_raw, dtype=float)
            da = np.asarray(da_raw, dtype=float)
            n_days = len(rt) // cfg.horizon
            pits: list[float] = []
            inside = 0
            total = 0
            for k in range(n_days):
                o = k * cfg.horizon
                day_rt = rt[o : o + cfg.horizon]
                day_da = da[o : o + cfg.horizon]
                hist = _recent(nm.rt, rt[:o], keep)
                ehist = _recent(nm.da, da[:o], keep)
                fc = predict_point(nm.spec, hist, exog_future=day_da[:, None], exog_history=ehist[:, None])
                resid = day_rt - fc
                pits.append(pit_transform(resid[0], nm.curves[0]))
                scn = generate_scenarios(
                    {node: fc}, {node: nm.table}, nm.tracker, count, (seed, k), start_hour=1
                )
                lo = np.quantile(scn.prices[:, 0, :], 0.05, axis=0)
                hi = np.quantile(scn.prices[:, 0, :], 0.95, axis=0)
                inside += int(np.sum((day_rt >= lo) & (day_rt <= hi)))
                total += cfg.horizon
            ks = kstest(pits, "uniform")
            out[node] = {
                "ks_stat": float(ks.statistic),
                "ks_pvalue": float(ks.pvalue),
                "n_pits": len(pits),
                "coverage_90": inside / total if total else float("nan"),
                "n_days": n_days,
            }
        return out
