"""A thin MILP layer on HiGHS.

Models are plain coefficient containers: variables with bounds and
objective weights plus sparse rows in one of the three senses
``<=``, ``==``, ``>=``.  Rows and columns are found by name, the one
handle that tests, IIS reports and LP dumps share.  Both keep the hour
their name carries: a column's is the hour whose cost it is, by which
:meth:`MilpModel.cost_by_hour` splits the objective, and
:meth:`MilpModel.redated` moves both to re-use a model's rows and columns
some hours later.

Every solve runs once through :func:`milp`, an adapter on the HiGHS
bindings scipy ships, which takes the model's own lists of rows and row
bounds (:func:`_highs_lp`), in a new HiGHS session or in one that a
caller passes on from solve to solve (:func:`highs_session`), where each
model still runs as it would in a new one.  :func:`solve` is the one entry point: a
model with no free binary (each fixed by ``lb == ub``) is solved as the
LP it is and comes back with its row duals, which is how prices are
read from a dispatch with its commitments fixed.  A MIP whose builder
attached a :attr:`MilpModel.rounding` is first tried at the root: the
LP relaxation, its rounding, and the LP with those binaries fixed, kept
when it lies within the gap of the relaxation's bound.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize._highspy import _core as _highs

CONTINUOUS = "continuous"
BINARY = "binary"

LE, EQ, GE = "<=", "==", ">="
_SENSES = (LE, EQ, GE)

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"

# where a solution's incumbent came from (MilpSolution.incumbent)
FROM_LP = "lp"  # a model with no free binary, solved as the LP it is
ROOT_ROUNDING = "root_rounding"  # the LP relaxation rounded and certified by its bound
BRANCH_AND_BOUND = "branch_and_bound"  # HiGHS's own MIP search

# Fixings of binary columns, (column indices, 0/1 values), read off a
# column vector of the model's LP relaxation; None when it rounds nothing.
Rounding = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray] | None]


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class RowView:
    index: int
    name: str
    coeffs: dict[int, float]
    sense: str
    rhs: float


@dataclass(frozen=True)
class VarView:
    index: int
    name: str
    kind: str
    lb: float
    ub: float
    obj: float


def _spread(value, k: int, what: str) -> list:
    """``value`` as a list of ``k`` entries: a list, tuple, range or array
    gives one entry per element, anything else is repeated."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple, range)):
        if len(value) != k:
            raise ValueError(f"{what} has {len(value)} entries for {k} elements")
        return value if isinstance(value, list) else list(value)
    return [value] * k


def _as_list(value) -> list:
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value if isinstance(value, list) else list(value)


def _floats(value, k: int, what: str) -> list[float]:
    """``value`` as ``k`` floats, repeated when it is one number."""
    if isinstance(value, (float, int)):
        return [float(value)] * k
    out = np.asarray(value, dtype=np.float64)
    if out.shape != (k,):
        raise ValueError(f"{what} has shape {out.shape} for {k} elements")
    return out.tolist()


def _check_finite(names: Sequence[str], rhs: list[float]) -> None:
    if not all(map(math.isfinite, rhs)):
        bad = next(name for name, r in zip(names, rhs) if not math.isfinite(r))
        raise ValueError(f"row {bad!r} has a right-hand side that is not finite")


def _moved(names: list[str], hours: list[int | None], shift: int) -> list[str]:
    """``names`` of elements with ``hours``, ``shift`` hours later: the
    hour a dated name ends in is replaced, by position, not by search."""
    if not shift:
        return names
    ends = {t: (-len(str(t)), str(t + shift)) for t in set(hours) if t is not None}
    out = []
    for name, t in zip(names, hours):
        if t is None:
            out.append(name)
        else:
            cut, end = ends[t]
            out.append(name[:cut] + end)
    return out


def _row_bounds(sense, rhs: list[float]) -> tuple[list[float], list[float]]:
    """The lower and upper bounds of rows with ``sense`` and ``rhs`` (one
    sense for all or one per row), as HiGHS reads a row: ``<=`` leaves it
    unbounded below, ``>=`` above, ``==`` bounds it at ``rhs`` on both
    sides."""
    m = len(rhs)
    if isinstance(sense, str):
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        return ([-math.inf] * m if sense == LE else rhs), ([math.inf] * m if sense == GE else rhs)
    senses = _spread(sense, m, "sense")
    for s in senses:
        if s not in _SENSES:
            raise ValueError(f"unknown sense {s!r}")
    return ([-math.inf if s == LE else r for s, r in zip(senses, rhs)],
            [math.inf if s == GE else r for s, r in zip(senses, rhs)])


class MilpModel:
    """Mutable model under construction; read-only once handed to a solver.

    Columns and rows are appended a block at a time: :meth:`add_vars`
    and :meth:`add_rows` take arrays or lists, and :meth:`add_var` and
    :meth:`add_row` are their one-element forms.  Each column keeps its
    bounds, cost, kind and hour; the rows of every block go into one
    store in compressed sparse row form, with one list of lower and one
    of upper row bounds, the lists HiGHS reads (:func:`_highs_lp`).  A
    row's sense and right-hand side are read back from its bounds, so a
    right-hand side must be finite.  Rows and columns are found by name
    (a column name is unique); :class:`VarView` and :class:`RowView`
    objects are built only when a row or column is looked at.  A column
    or row may carry an hour, the one in its name (see :meth:`redated`).

    ``rounding`` is the builder's rounding heuristic, or None: given the
    values of the LP relaxation it fixes binary columns, and
    :func:`solve` keeps the LP with those fixed when it certifies it
    against the relaxation's bound.  A rounding that leaves a free
    binary unfixed is never certified.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.objective_constant = 0.0
        self.meta: dict = {}  # builder handles, free-form
        self.rounding: Rounding | None = None
        self._vnames: list[str] = []
        self._name_to_var: dict[str, int] = {}
        self._binary: list[bool] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._hour: list[int | None] = []  # per column, for cost_by_hour and redated
        self._rnames: list[str] = []
        self._row_hour: list[int | None] = []  # per row, for redated
        # the rows in compressed sparse row form, block after block, and
        # their bounds: -inf below a <= row, +inf above a >= row
        self._start: list[int] = [0]
        self._index: list[int] = []
        self._value: list[float] = []
        self._row_lo: list[float] = []
        self._row_hi: list[float] = []

    # -- construction -------------------------------------------------

    def add_vars(self, names: Sequence[str], lb=0.0, ub=math.inf, obj=0.0, kind=CONTINUOUS,
                 hour=None) -> np.ndarray:
        """Append one column per name and return their indices.

        Every other argument is one value for the whole block or one per
        column (a list, tuple, range or array).  ``hour`` is the hour
        whose cost a column is (see :meth:`cost_by_hour`) and the one its
        name carries, None for none.  A binary column's bounds are
        clipped to [0, 1].
        """
        names = list(names)
        k = len(names)
        kinds = _spread(kind, k, "kind")
        unknown = set(kinds) - {CONTINUOUS, BINARY}
        if unknown:
            raise ValueError(f"unknown variable kind {unknown.pop()!r}")
        hours = _spread(hour, k, "hour")
        lb, ub, obj = _floats(lb, k, "lb"), _floats(ub, k, "ub"), _floats(obj, k, "obj")
        binary = [c == BINARY for c in kinds]
        if BINARY in kinds:
            for i in (i for i, b in enumerate(binary) if b):
                lb[i] = lb[i] if lb[i] > 0.0 else 0.0
                ub[i] = ub[i] if ub[i] < 1.0 else 1.0
        # the last check, so that a refused block leaves the model as it was
        n0 = len(self._vnames)
        known = self._name_to_var
        known.update(zip(names, range(n0, n0 + k)))
        if len(known) != n0 + k:
            self._name_to_var = dict(zip(self._vnames, range(n0)))
            seen = set(self._vnames)
            for name in names:
                if name in seen:
                    raise ValueError(f"duplicate variable name {name!r}")
                seen.add(name)
        self._vnames.extend(names)
        self._binary.extend(binary)
        self._lb.extend(lb)
        self._ub.extend(ub)
        self._obj.extend(obj)
        self._hour.extend(hours)
        return np.arange(n0, n0 + k)

    def add_rows(self, names: Sequence[str], start, index, value, sense, rhs, hour=None) -> np.ndarray:
        """Append a block of rows in compressed sparse row form and return
        their indices.

        Row ``i`` has the coefficients ``value[start[i]:start[i + 1]]`` on
        the columns ``index[start[i]:start[i + 1]]``, in that order; every
        column must exist already.  Zero coefficients are dropped, and a
        column may appear once per row.
        ``sense``, ``rhs`` and ``hour`` (the hour a row's name carries,
        None for none) are one value for the block or one per row, as in
        :meth:`add_vars`.
        """
        names = list(names)
        m = len(names)
        rhs = _floats(rhs, m, "rhs")
        _check_finite(names, rhs)
        row_lo, row_hi = _row_bounds(sense, rhs)
        hours = _spread(hour, m, "hour")
        # small blocks are the common case: plain lists beat numpy calls
        start, index, value = _as_list(start), _as_list(index), _as_list(value)
        if len(start) != m + 1 or start[0] != 0 or start[-1] != len(index) or len(value) != len(index):
            raise ValueError(f"rows from {names[0] if names else None!r}: start, index and value do not "
                             f"describe {m} rows")
        if index and (min(index) < 0 or max(index) >= len(self._vnames)):
            raise ValueError(f"rows from {names[0]!r} name a column outside 0..{len(self._vnames) - 1}")
        if 0.0 in value:  # drop the zero coefficients
            kept = list(itertools.accumulate((c != 0.0 for c in value), initial=0))
            start = [kept[i] for i in start]
            index = [j for j, c in zip(index, value) if c != 0.0]
            value = [c for c in value if c != 0.0]
        for name, lo, hi in zip(names, start, start[1:]):
            if hi - lo > 1 and len(set(index[lo:hi])) < hi - lo:
                twice = next(j for j in index[lo:hi] if index[lo:hi].count(j) > 1)
                raise ValueError(f"row {name!r} repeats column {twice}")
        r0 = len(self._rnames)
        nnz = len(self._index)
        self._rnames.extend(names)
        self._row_hour.extend(hours)
        self._start.extend([i + nnz for i in start[1:]])
        self._index.extend(index)
        self._value.extend(value)
        self._row_lo.extend(row_lo)
        self._row_hi.extend(row_hi)
        return np.arange(r0, r0 + m)

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf, obj: float = 0.0,
                kind: str = CONTINUOUS) -> int:
        return int(self.add_vars((name,), lb, ub, obj, kind)[0])

    def add_row(self, name: str, coeffs: Mapping[int, float] | Iterable[tuple[int, float]], sense: str,
                rhs: float) -> int:
        """One row; a column named twice in ``coeffs`` gets the sum of its
        coefficients."""
        merged: dict[int, float] = {}
        for idx, c in (coeffs.items() if isinstance(coeffs, Mapping) else coeffs):
            if c != 0.0:
                merged[idx] = merged.get(idx, 0.0) + float(c)
        return int(self.add_rows((name,), (0, len(merged)), list(merged), list(merged.values()), sense, rhs)[0])

    def set_var_bounds(self, idx: int, lb: float, ub: float) -> None:
        self._lb[idx] = float(lb)
        self._ub[idx] = float(ub)

    def set_rhs(self, rows: Sequence[int], rhs) -> None:
        """Move the right-hand side of each of ``rows`` to ``rhs`` (one
        value for all or one per row); their senses stay."""
        rhs = _floats(rhs, len(rows), "rhs")
        _check_finite([self._rnames[i] for i in rows], rhs)
        lo, hi = self._row_lo, self._row_hi
        for i, r in zip(rows, rhs):
            if lo[i] != -math.inf:
                lo[i] = r
            if hi[i] != math.inf:
                hi[i] = r

    def redated(self, n_vars: int, n_rows: int, shift: int) -> MilpModel:
        """A new model of this one's first ``n_vars`` columns and first
        ``n_rows`` rows, ``shift`` hours later, under the same name.

        Bounds, costs, kinds and the rows are copied as they stand; each
        column and row with an hour gets ``hour + shift``, and so does its
        name, which must end in that hour (``qg.<unit>.t5`` becomes
        ``qg.<unit>.t6``; a name without an hour, such as ``r_soc_init.
        <res>``, stays as it is).  The rows must name only those columns.
        The new model starts with no objective constant, meta or rounding.
        """
        out = MilpModel(self.name)
        nnz = self._start[n_rows]
        col_hour, row_hour = self._hour[:n_vars], self._row_hour[:n_rows]
        out._vnames = _moved(self._vnames[:n_vars], col_hour, shift)
        out._rnames = _moved(self._rnames[:n_rows], row_hour, shift)
        if shift:
            col_hour = [t if t is None else t + shift for t in col_hour]
            row_hour = [t if t is None else t + shift for t in row_hour]
        out._hour, out._row_hour = col_hour, row_hour
        out._name_to_var = dict(zip(out._vnames, range(n_vars)))
        if len(out._name_to_var) != n_vars:
            raise ValueError(f"{self.name}: moving its names {shift} hours makes two of them equal")
        out._binary = self._binary[:n_vars]
        out._lb = self._lb[:n_vars]
        out._ub = self._ub[:n_vars]
        out._obj = self._obj[:n_vars]
        out._start = self._start[:n_rows + 1]
        out._index = self._index[:nnz]
        out._value = self._value[:nnz]
        out._row_lo = self._row_lo[:n_rows]
        out._row_hi = self._row_hi[:n_rows]
        return out

    def add_obj(self, idx: int, delta: float) -> None:
        self._obj[idx] += float(delta)

    # -- inspection ---------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self._vnames)

    @property
    def n_rows(self) -> int:
        return len(self._rnames)

    @property
    def n_nonzeros(self) -> int:
        return len(self._index)

    @property
    def n_binaries(self) -> int:
        return self._binary.count(True)

    def var_index(self, name: str) -> int:
        return self._name_to_var[name]

    def cost_by_hour(self, values: np.ndarray) -> dict[int | None, float]:
        """The objective terms of ``values`` summed by their columns' hour
        (None for columns without one), the constant left out."""
        obj = np.asarray(self._obj)
        hours = np.array([-1 if t is None else t for t in self._hour], dtype=np.int64)
        sums = np.bincount(hours + 1, weights=obj * values)
        return {(None if t < 0 else int(t)): float(sums[t + 1]) for t in np.unique(hours[obj != 0.0])}

    def var(self, idx: int) -> VarView:
        kind = BINARY if self._binary[idx] else CONTINUOUS
        return VarView(idx, self._vnames[idx], kind, self._lb[idx], self._ub[idx], self._obj[idx])

    def row(self, idx: int) -> RowView:
        a, b = self._start[idx], self._start[idx + 1]
        lo, hi = self._row_lo[idx], self._row_hi[idx]
        sense, rhs = (EQ, lo) if lo == hi else (LE, hi) if lo == -math.inf else (GE, lo)
        return RowView(idx, self._rnames[idx], dict(zip(self._index[a:b], self._value[a:b])), sense, rhs)

    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(np.array(self._binary, dtype=bool))

    # -- export -------------------------------------------------------

    def to_lp_string(self) -> str:
        """Render in the CPLEX LP text format."""

        def fmt(c: float) -> str:
            return f"{c:.17g}"

        lines = ["\\ " + self.name, "Minimize", " obj:"]
        terms = []
        for i, c in enumerate(self._obj):
            if c != 0.0:
                terms.append(f"{'+' if c >= 0 else '-'} {fmt(abs(c))} {self._vnames[i]}")
        lines.append("  " + (" ".join(terms) if terms else "0 " + (self._vnames[0] if self._vnames else "x0")))
        lines.append("Subject To")
        for i in range(self.n_rows):
            r = self.row(i)
            body = " ".join(
                f"{'+' if c >= 0 else '-'} {fmt(abs(c))} {self._vnames[j]}" for j, c in r.coeffs.items()
            )
            op = {LE: "<=", EQ: "=", GE: ">="}[r.sense]
            lines.append(f" {r.name}: {body or '0 ' + self._vnames[0]} {op} {fmt(r.rhs)}")
        lines.append("Bounds")
        for i in range(self.n_vars):
            lb, ub = self._lb[i], self._ub[i]
            if self._binary[i] and lb == 0.0 and ub == 1.0:
                continue
            lo = "-inf" if lb == -math.inf else fmt(lb)
            hi = "+inf" if ub == math.inf else fmt(ub)
            lines.append(f" {lo} <= {self._vnames[i]} <= {hi}")
        bins = [self._vnames[i] for i in self.binary_indices()]
        if bins:
            lines.append("Binaries")
            for chunk in range(0, len(bins), 8):
                lines.append(" " + " ".join(bins[chunk : chunk + 8]))
        lines.append("End")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float = 1e-3  # relative MIP gap
    time_limit: float = 60.0  # seconds


@dataclass
class MilpSolution:
    status: str
    values: np.ndarray | None
    objective: float | None
    gap: float | None
    walltime_s: float
    duals: np.ndarray | None = None  # HiGHS's row duals, when no binary was free
    nodes: int = 0  # branch-and-bound nodes HiGHS explored, 0 for an LP or a root rounding
    incumbent: str | None = None  # FROM_LP, ROOT_ROUNDING or BRANCH_AND_BOUND; None without values
    # the proven lower bound on the optimum, constant included like
    # ``objective``: the relaxation's for a root rounding, HiGHS's dual
    # bound after branch and bound, the objective of an LP
    bound: float | None = None

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)

    def value(self, idx: int) -> float:
        assert self.values is not None
        return float(self.values[idx])

    def binary_value(self, idx: int) -> int:
        v = self.value(idx)
        r = round(v)
        if abs(v - r) > 1e-6:
            raise SolverError(f"variable {idx} not integral: {v}")
        return int(r)


# -- the HiGHS adapter ------------------------------------------------------
#
# ``_core`` is the private pybind module that scipy's own ``milp`` and
# ``linprog`` drive.  The adapter uses it directly because only it hands
# out the row duals as HiGHS computes them, changes column bounds inside a
# session (``changeColsBounds``, for the root rounding) and finds an
# irreducible infeasible subsystem (``getIis``).

# a column's HiGHS type, indexed by whether it is binary
_VAR_TYPE = (_highs.HighsVarType.kContinuous, _highs.HighsVarType.kInteger)

_MODEL_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kTimeLimit: TIME_LIMIT,
    _highs.HighsModelStatus.kIterationLimit: TIME_LIMIT,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}


def _highs_lp(model: MilpModel, integral: bool) -> _highs.HighsLp:
    # the model's own lists: the bindings copy a Python list into HiGHS
    # much faster than they walk a numpy array, element by element
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.n_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = model.n_rows
    lp.col_cost_ = model._obj
    lp.col_lower_ = model._lb
    lp.col_upper_ = model._ub
    lp.row_lower_ = model._row_lo
    lp.row_upper_ = model._row_hi
    lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = model._start
    lp.a_matrix_.index_ = model._index
    lp.a_matrix_.value_ = model._value
    if integral:
        lp.integrality_ = [_VAR_TYPE[b] for b in model._binary]
    return lp


def highs_session() -> _highs._Highs:
    """A HiGHS session for :func:`solve` and :func:`milp` to run one
    model after another in (see :func:`milp`)."""
    return _highs._Highs()


def milp(
    lp: _highs.HighsLp,
    options: Mapping[str, float | int],
    rounding: Rounding | None = None,
    session: _highs._Highs | None = None,
) -> tuple[_highs._Highs, float | None]:
    """Run HiGHS on ``lp`` in one session and return the finished
    session, with the bound that certified a root rounding or None.

    The session is ``session`` (from :func:`highs_session`), or a new
    one when it is None, and every session runs ``lp`` alike, as a new
    one would: ``passModel`` drops the last model's basis, so every
    solve starts cold, and the options go back to HiGHS's defaults
    before ``options`` are set, so that no ``presolve`` a root rounding
    turned off is left behind.  HiGHS measures ``time_limit`` on the
    session's run clock, which adds up over every run in the session and
    which no ``clear`` resets; so ``time_limit`` counts from the clock's
    reading as this call starts (0 in a new session).

    ``rounding`` (a MIP only) must fix every free integer column of
    ``lp`` or return None.  The session then first tries to close the
    MIP at the root, the rounding-heuristic argument of Achterberg
    (*Constraint Integer Programming*, TU Berlin 2007, ch. 9):

    1. solve the LP relaxation, whose objective bounds every integral
       point from below;
    2. round its solution with ``rounding``;
    3. fix the rounded columns (``changeColsBounds``) and re-solve from
       the relaxation's basis;
    4. keep that integral point when ``obj - bound <= gap * |obj|``, with
       ``gap`` the ``mip_rel_gap`` of ``options``, the test HiGHS stops
       its own search on.

    Both LPs of the root run without presolve: a window's relaxation
    has a few hundred rows, and at that size presolve costs HiGHS more
    than it saves (Andersen and Andersen, *Math. Programming* 71, 1995,
    weigh when it pays).  When any step fails (a relaxation or fixed LP
    that is not optimal, a rounding that returns None, a point outside
    the gap) presolve is set back and the MIP goes to branch and bound
    as it would without ``rounding``.  An LP or a MIP without
    ``rounding`` keeps the presolve of ``options`` (HiGHS's default
    unless they set one).
    """
    highs = _highs._Highs() if session is None else session
    highs.resetOptions()
    highs.setOptionValue("output_flag", False)
    for key, val in options.items():
        if highs.setOptionValue(key, val) == _highs.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected option {key}={val!r}")
    if "time_limit" in options:
        highs.setOptionValue("time_limit", highs.getRunTime() + float(options["time_limit"]))
    if rounding is not None:
        integrality, lp.integrality_ = lp.integrality_, []
        _, presolve = highs.getOptionValue("presolve")
        highs.setOptionValue("presolve", "off")
        bound = _root_rounding(highs, lp, rounding, float(options["mip_rel_gap"]))
        if bound is not None:
            return highs, bound
        highs.setOptionValue("presolve", presolve)
        lp.integrality_ = integrality
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    highs.run()
    return highs, None


def _root_rounding(highs: _highs._Highs, relaxation: _highs.HighsLp, rounding: Rounding,
                   gap: float) -> float | None:
    """Steps 1-4 of :func:`milp` in ``highs``: the relaxation's bound
    when the rounded LP is certified, else None."""
    optimal = _highs.HighsModelStatus.kOptimal
    if highs.passModel(relaxation) == _highs.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    highs.run()
    if highs.getModelStatus() != optimal:
        return None
    bound = highs.getInfo().objective_function_value
    fixed = rounding(np.asarray(highs.getSolution().col_value))
    if fixed is None:
        return None
    cols, vals = fixed
    highs.changeColsBounds(len(cols), np.asarray(cols, dtype=np.int32), vals, vals)
    highs.run()
    if highs.getModelStatus() != optimal:
        return None
    obj = highs.getInfo().objective_function_value
    return bound if obj - bound <= gap * abs(obj) else None


def _status(highs: _highs._Highs) -> str:
    model_status = highs.getModelStatus()
    if model_status not in _MODEL_STATUS:
        raise SolverError(f"HiGHS ended with model status {highs.modelStatusToString(model_status)}")
    return _MODEL_STATUS[model_status]


def _naming_every(rounding: Rounding, free: np.ndarray) -> Rounding:
    """``rounding``, or None where it leaves a column of ``free`` unfixed
    (an extra binary its builder does not know about)."""
    def rounded(values: np.ndarray):
        fixed = rounding(values)
        if fixed is None or not np.isin(free, fixed[0]).all():
            return None
        return fixed
    return rounded


def solve(model: MilpModel, options: SolveOptions | None = None,
          session: _highs._Highs | None = None) -> MilpSolution:
    """Solve the model with HiGHS, in ``session`` when one is given
    (:func:`highs_session`; see :func:`milp`), else in a new session.

    A model with a free binary is a MIP.  Status ``optimal`` implies the
    relative gap is within ``options.gap_tol``; a time-limited run with
    an incumbent reports ``feasible`` together with the reached gap, one
    without reports ``time_limit``.  A MIP with a
    :attr:`MilpModel.rounding` is first closed at the root where it can
    be (see :func:`milp`): such a solution reports the certified gap,
    no nodes, and ``incumbent == ROOT_ROUNDING``.

    A model whose binaries are all fixed (``lb == ub``) is the LP it is
    and goes to HiGHS without integrality.  Its solution carries HiGHS's
    row duals, d(objective)/d(row bound): the dual of a balance row is
    the cost of serving one more MWh at that hour, which is how
    locational prices are extracted.  A binary fixed at a fractional
    value raises :class:`SolverError`.
    """
    options = options or SolveOptions()
    t_start = time.perf_counter()
    lb = np.asarray(model._lb)
    ub = np.asarray(model._ub)
    binaries = model.binary_indices()
    free = binaries[lb[binaries] != ub[binaries]]
    is_mip = free.size > 0
    rounding = _naming_every(model.rounding, free) if is_mip and model.rounding is not None else None
    lp = _highs_lp(model, integral=is_mip)
    highs, bound = milp(lp, {"mip_rel_gap": float(options.gap_tol), "time_limit": float(options.time_limit)},
                        rounding, session)
    wall = time.perf_counter() - t_start
    status = _status(highs)
    info = highs.getInfo()
    incumbent = status == OPTIMAL or (
        is_mip and status == TIME_LIMIT and info.objective_function_value < _highs.kHighsInf
    )
    if not incumbent:
        return MilpSolution(status, None, None, None, wall)
    solution = highs.getSolution()
    values = np.array(solution.col_value)
    _check_primal(model, values, lb, ub, binaries)
    objective = float(info.objective_function_value) + model.objective_constant
    if not is_mip:
        return MilpSolution(OPTIMAL, values, objective, None, wall, np.array(solution.row_dual),
                            incumbent=FROM_LP, bound=objective)
    if bound is not None:
        obj = info.objective_function_value
        gap = max(obj - bound, 0.0) / abs(obj) if obj else 0.0
        return MilpSolution(OPTIMAL, values, objective, gap, wall, incumbent=ROOT_ROUNDING,
                            bound=bound + model.objective_constant)
    return MilpSolution(FEASIBLE if status == TIME_LIMIT else status, values, objective,
                        float(info.mip_gap), wall, nodes=int(info.mip_node_count),
                        incumbent=BRANCH_AND_BOUND, bound=float(info.mip_dual_bound) + model.objective_constant)


def _check_primal(model: MilpModel, values: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                  binaries: np.ndarray, tol: float = 1e-6) -> None:
    if np.any(values < lb - tol) or np.any(values > ub + tol):
        raise SolverError("backend returned values outside variable bounds")
    off = np.abs(values[binaries] - np.round(values[binaries])) > tol
    if off.any():
        i = binaries[np.argmax(off)]
        raise SolverError(f"binary variable {model._vnames[i]} fractional: {values[i]}")


def infeasibility_report(model: MilpModel) -> list[str]:
    """Names of the rows in an irreducible infeasible subsystem (IIS) of
    the model with its binaries relaxed (see :func:`relaxed_iis`)."""
    if model.n_rows == 0:
        return []
    return relaxed_iis(_highs_lp(model, integral=False), model._rnames)


def relaxed_iis(lp: _highs.HighsLp, row_names: Sequence[str]) -> list[str]:
    """Names of the rows in an IIS of ``lp`` with its integrality
    dropped (in place).

    HiGHS finds the IIS of that LP (Chinneck, *Feasibility and
    Infeasibility in Optimization*, 2008): the named rows, with the
    variable bounds, admit no solution, and dropping any one of them
    makes the rest feasible.  When HiGHS finds none, say because only
    integrality is at fault, the report is one ``<IIS unavailable: ...>``
    line.
    """
    lp.integrality_ = []
    highs, _ = milp(lp, {"iis_strategy": int(_highs.IisStrategy.kIisStrategyFromLpColPriority)})
    iis = _highs.HighsIis()
    if highs.getIis(iis) == _highs.HighsStatus.kError or not iis.valid or not len(iis.row_index):
        return [f"<IIS unavailable: {highs.modelStatusToString(highs.getModelStatus())}>"]
    return [row_names[i] for i in iis.row_index]


def reset_scheduler() -> None:
    """Stop the worker threads of HiGHS's process-wide task scheduler.

    Call it just before the process forks.  A fork copies the scheduler
    but not its threads, so a MIP in the child would wait for ever on
    workers it does not have.  After the reset, the next solve in either
    process starts the scheduler afresh with the threads it asks for.
    """
    _highs._Highs.resetGlobalScheduler(True)


def read_lp(path: str) -> _highs.HighsLp:
    """The model of an LP file (such as :meth:`MilpModel.to_lp_string`
    writes) as HiGHS reads it, row names included."""
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.readModel(str(path)) == _highs.HighsStatus.kError:
        raise SolverError(f"HiGHS cannot read {path}")
    return highs.getLp()
