"""Thin solver-agnostic MILP layer.

Models are plain coefficient containers: variables with bounds and
objective weights plus sparse rows in one of the three senses
``<=``, ``==``, ``>=``.  Every row and variable carries a :class:`Tag`
(structural kind, entity, hour, scenario) so tests and reporting can
find constraints without parsing names.

Every solve runs once through :func:`milp`, an adapter on the HiGHS
bindings scipy ships, and takes its constraint matrix from
:func:`_constraint_arrays`.  :func:`solve` is the one entry point: a
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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.optimize._highspy import _core as _highs

CONTINUOUS = "continuous"
BINARY = "binary"

LE, EQ, GE = "<=", "==", ">="
_SENSES = (LE, EQ, GE)  # indexed by a row's sense code
_SENSE_CODE = {s: i for i, s in enumerate(_SENSES)}

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
class Tag:
    kind: str
    entity: str | None = None
    hour: int | None = None
    scenario: int | None = None

    def matches(self, kind=None, entity=None, hour=None, scenario="*") -> bool:
        return _tag_matches((self.kind, self.entity, self.hour, self.scenario), kind, entity, hour, scenario)


@dataclass(frozen=True)
class RowView:
    index: int
    name: str
    coeffs: dict[int, float]
    sense: str
    rhs: float
    tag: Tag


@dataclass(frozen=True)
class VarView:
    index: int
    name: str
    kind: str
    lb: float
    ub: float
    obj: float
    tag: Tag


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


def _sense_codes(sense, m: int) -> list[int]:
    try:
        if isinstance(sense, str):
            return [_SENSE_CODE[sense]] * m
        return [_SENSE_CODE[s] for s in _spread(sense, m, "sense")]
    except KeyError as err:
        raise ValueError(f"unknown sense {err.args[0]!r}") from None


def _tag_matches(tag: tuple, kind, entity, hour, scenario) -> bool:
    """Whether the fields ``(kind, entity, hour, scenario)`` of ``tag``
    match a query; None (``"*"`` for the scenario) matches anything."""
    return ((kind is None or tag[0] == kind) and (entity is None or tag[1] == entity)
            and (hour is None or tag[2] == hour) and (scenario == "*" or tag[3] == scenario))


class _Tags:
    """The tags of a model's columns or of its rows, one list per field."""

    def __init__(self, what: str):
        self.what = what  # "variable" or "row", for messages
        self.kind: list[str] = []
        self.entity: list[str | None] = []
        self.hour: list[int | None] = []
        self.scenario: list[int | None] = []

    def spread(self, names: list[str], kind, entity, hour, scenario) -> tuple[list, ...]:
        """The four fields for the elements ``names``, each one value per
        element or one for all; every element needs a kind."""
        k = len(names)
        kinds = _spread(kind, k, "tag")
        if None in kinds:
            raise ValueError(f"{self.what} {names[kinds.index(None)]!r} needs a tag")
        return kinds, _spread(entity, k, "entity"), _spread(hour, k, "hour"), _spread(scenario, k, "scenario")

    def extend(self, fields: tuple[list, ...]) -> None:
        for mine, more in zip((self.kind, self.entity, self.hour, self.scenario), fields):
            mine.extend(more)

    def __getitem__(self, i: int) -> Tag:
        return Tag(self.kind[i], self.entity[i], self.hour[i], self.scenario[i])

    def matching(self, kind, entity, hour, scenario) -> list[int]:
        fields = zip(self.kind, self.entity, self.hour, self.scenario)
        return [i for i, tag in enumerate(fields) if _tag_matches(tag, kind, entity, hour, scenario)]


class MilpModel:
    """Mutable model under construction; read-only once handed to a solver.

    Columns and rows are appended a block at a time: :meth:`add_vars`
    and :meth:`add_rows` take arrays or lists, and :meth:`add_var` and
    :meth:`add_row` are their one-element forms.  Each column keeps its
    bounds, cost and kind; the rows of every block go into one store in
    compressed sparse row form, which :func:`_constraint_arrays` hands
    out as arrays.  Names are kept per element from the start (a column
    name is unique), tags as one list per field; :class:`Tag`,
    :class:`VarView` and :class:`RowView` objects are built only when a
    row or column is looked at.

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
        self._vtags = _Tags("variable")
        self._rnames: list[str] = []
        self._rtags = _Tags("row")
        self._codes: list[int] = []  # per row, its sense's place in _SENSES
        self._rhs: list[float] = []
        # the rows in compressed sparse row form, block after block
        self._start: list[int] = [0]
        self._index: list[int] = []
        self._value: list[float] = []
        self._csr_cache: tuple[np.ndarray, ...] | None = None

    # -- construction -------------------------------------------------

    def add_vars(self, names: Sequence[str], lb=0.0, ub=math.inf, obj=0.0, kind=CONTINUOUS,
                 tag=None, entity=None, hour=None, scenario=None) -> np.ndarray:
        """Append one column per name and return their indices.

        Every other argument is one value for the whole block or one per
        column (a list, tuple, range or array).  ``tag`` is the kind of each
        column's :class:`Tag`, ``entity``, ``hour`` and ``scenario`` its
        other fields.  A binary column's bounds are clipped to [0, 1].
        """
        names = list(names)
        k = len(names)
        kinds = _spread(kind, k, "kind")
        unknown = set(kinds) - {CONTINUOUS, BINARY}
        if unknown:
            raise ValueError(f"unknown variable kind {unknown.pop()!r}")
        tags = self._vtags.spread(names, tag, entity, hour, scenario)
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
        self._vtags.extend(tags)
        return np.arange(n0, n0 + k)

    def add_rows(self, names: Sequence[str], start, index, value, sense, rhs,
                 tag=None, entity=None, hour=None, scenario=None) -> np.ndarray:
        """Append a block of rows in compressed sparse row form and return
        their indices.

        Row ``i`` has the coefficients ``value[start[i]:start[i + 1]]`` on
        the columns ``index[start[i]:start[i + 1]]``, in that order; every
        column must exist already.  Zero coefficients are dropped, and a
        column may appear once per row.
        ``sense``, ``rhs`` and the tag fields are one value for the block
        or one per row, as in :meth:`add_vars`.
        """
        names = list(names)
        m = len(names)
        tags = self._rtags.spread(names, tag, entity, hour, scenario)
        codes = _sense_codes(sense, m)
        rhs = _floats(rhs, m, "rhs")
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
        self._rtags.extend(tags)
        self._codes.extend(codes)
        self._rhs.extend(rhs)
        self._start.extend([i + nnz for i in start[1:]])
        self._index.extend(index)
        self._value.extend(value)
        self._csr_cache = None
        return np.arange(r0, r0 + m)

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        obj: float = 0.0,
        kind: str = CONTINUOUS,
        tag: Tag | None = None,
    ) -> int:
        if tag is None:
            raise ValueError(f"variable {name!r} needs a tag")
        return int(self.add_vars((name,), lb, ub, obj, kind, tag.kind, tag.entity, tag.hour, tag.scenario)[0])

    def add_row(
        self,
        name: str,
        coeffs: Mapping[int, float] | Iterable[tuple[int, float]],
        sense: str,
        rhs: float,
        tag: Tag | None = None,
    ) -> int:
        """One row; a column named twice in ``coeffs`` gets the sum of its
        coefficients."""
        if tag is None:
            raise ValueError(f"row {name!r} needs a tag")
        merged: dict[int, float] = {}
        for idx, c in (coeffs.items() if isinstance(coeffs, Mapping) else coeffs):
            if c != 0.0:
                merged[idx] = merged.get(idx, 0.0) + float(c)
        return int(self.add_rows((name,), (0, len(merged)), list(merged), list(merged.values()), sense, rhs,
                                 tag.kind, tag.entity, tag.hour, tag.scenario)[0])

    def set_var_bounds(self, idx: int, lb: float, ub: float) -> None:
        self._lb[idx] = float(lb)
        self._ub[idx] = float(ub)

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

    def _csr(self) -> tuple[np.ndarray, ...]:
        """The rows as arrays: (start, index, value, sense codes, rhs)."""
        if self._csr_cache is None:
            self._csr_cache = (np.array(self._start, dtype=np.int32), np.array(self._index, dtype=np.int32),
                               np.array(self._value, dtype=np.float64), np.array(self._codes, dtype=np.int8),
                               np.array(self._rhs, dtype=np.float64))
        return self._csr_cache

    def var(self, idx: int) -> VarView:
        kind = BINARY if self._binary[idx] else CONTINUOUS
        return VarView(idx, self._vnames[idx], kind, self._lb[idx], self._ub[idx], self._obj[idx], self._vtags[idx])

    def row(self, idx: int) -> RowView:
        start, index, value, codes, rhs = self._csr()
        lo, hi = start[idx], start[idx + 1]
        return RowView(idx, self._rnames[idx], dict(zip(index[lo:hi].tolist(), value[lo:hi].tolist())),
                       _SENSES[codes[idx]], float(rhs[idx]), self._rtags[idx])

    def rows(self, kind=None, entity=None, hour=None, scenario="*") -> Iterator[RowView]:
        for i in self._rtags.matching(kind, entity, hour, scenario):
            yield self.row(i)

    def variables(self, kind_tag=None, entity=None, hour=None, scenario="*") -> Iterator[VarView]:
        for i in self._vtags.matching(kind_tag, entity, hour, scenario):
            yield self.var(i)

    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(np.array(self._binary, dtype=bool))

    def canonical_form(self):
        """Order-independent description for structural equality tests."""
        vmap = self._vnames
        vars_desc = tuple(sorted(
            (vmap[i], BINARY if self._binary[i] else CONTINUOUS, self._lb[i], self._ub[i], self._obj[i])
            for i in range(self.n_vars)
        ))
        rows_desc = []
        for i in range(self.n_rows):
            r = self.row(i)
            rows_desc.append((
                (r.tag.kind, r.tag.entity, r.tag.hour, r.tag.scenario),
                r.sense,
                r.rhs,
                tuple(sorted((vmap[j], c) for j, c in r.coeffs.items())),
            ))
        # None sorts first in a tag field, which may mix it with strings or ints
        rows_desc.sort(key=lambda d: (tuple((f is not None, f) for f in d[0]), *d[1:]))
        return (vars_desc, tuple(rows_desc), self.objective_constant)

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


def _constraint_arrays(model: MilpModel):
    """Row-wise sparse matrix (start, index, value) and row bounds."""
    start, index, value, codes, rhs = model._csr()
    lo = np.where(codes == _SENSE_CODE[LE], -np.inf, rhs)
    hi = np.where(codes == _SENSE_CODE[GE], np.inf, rhs)
    return start, index, value, lo, hi


def _highs_lp(model: MilpModel, integral: bool) -> _highs.HighsLp:
    # the bindings copy a Python list into HiGHS much faster than they
    # walk a numpy array, element by element; the values are the same
    start, index, value, lo, hi = _constraint_arrays(model)
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.n_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = model.n_rows
    lp.col_cost_ = model._obj
    lp.col_lower_ = model._lb
    lp.col_upper_ = model._ub
    lp.row_lower_ = lo.tolist()
    lp.row_upper_ = hi.tolist()
    lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = index.tolist()
    lp.a_matrix_.value_ = value.tolist()
    if integral:
        lp.integrality_ = [_VAR_TYPE[b] for b in model._binary]
    return lp


def milp(
    lp: _highs.HighsLp,
    options: Mapping[str, float | int],
    rounding: Rounding | None = None,
) -> tuple[_highs._Highs, float | None]:
    """Run HiGHS on ``lp`` in one session and return the finished
    session, with the bound that certified a root rounding or None.

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

    When any step fails (a relaxation or fixed LP that is not optimal, a
    rounding that returns None, a point outside the gap) the MIP goes to
    branch and bound as it would without ``rounding``.
    """
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    for key, val in options.items():
        if highs.setOptionValue(key, val) == _highs.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected option {key}={val!r}")
    if rounding is not None:
        integrality, lp.integrality_ = lp.integrality_, []
        bound = _root_rounding(highs, lp, rounding, float(options["mip_rel_gap"]))
        if bound is not None:
            return highs, bound
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


def solve(model: MilpModel, options: SolveOptions | None = None) -> MilpSolution:
    """Solve the model with HiGHS.

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
                        rounding)
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
                            incumbent=FROM_LP)
    if bound is not None:
        obj = info.objective_function_value
        gap = max(obj - bound, 0.0) / abs(obj) if obj else 0.0
        return MilpSolution(OPTIMAL, values, objective, gap, wall, incumbent=ROOT_ROUNDING)
    return MilpSolution(FEASIBLE if status == TIME_LIMIT else status, values, objective,
                        float(info.mip_gap), wall, nodes=int(info.mip_node_count),
                        incumbent=BRANCH_AND_BOUND)


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


def read_lp(path: str) -> _highs.HighsLp:
    """The model of an LP file (such as :meth:`MilpModel.to_lp_string`
    writes) as HiGHS reads it, row names included."""
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.readModel(str(path)) == _highs.HighsStatus.kError:
        raise SolverError(f"HiGHS cannot read {path}")
    return highs.getLp()
