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
class Tag:
    kind: str
    entity: str | None = None
    hour: int | None = None
    scenario: int | None = None

    def matches(self, kind=None, entity=None, hour=None, scenario="*") -> bool:
        if kind is not None and self.kind != kind:
            return False
        if entity is not None and self.entity != entity:
            return False
        if hour is not None and self.hour != hour:
            return False
        if scenario != "*" and self.scenario != scenario:
            return False
        return True


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


class MilpModel:
    """Mutable model under construction; read-only once handed to a solver.

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
        self._vkind: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._vtags: list[Tag] = []
        self._rows: list[tuple[str, tuple[int, ...], tuple[float, ...], str, float, Tag]] = []
        self._name_to_var: dict[str, int] = {}

    # -- construction -------------------------------------------------

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        obj: float = 0.0,
        kind: str = CONTINUOUS,
        tag: Tag | None = None,
    ) -> int:
        if kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind {kind!r}")
        if tag is None:
            raise ValueError(f"variable {name!r} needs a tag")
        if name in self._name_to_var:
            raise ValueError(f"duplicate variable name {name!r}")
        idx = len(self._vnames)
        self._vnames.append(name)
        self._vkind.append(kind)
        if kind == BINARY:
            lb, ub = max(0.0, lb), min(1.0, ub)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(obj))
        self._vtags.append(tag)
        self._name_to_var[name] = idx
        return idx

    def add_row(
        self,
        name: str,
        coeffs: Mapping[int, float] | Iterable[tuple[int, float]],
        sense: str,
        rhs: float,
        tag: Tag | None = None,
    ) -> int:
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        if tag is None:
            raise ValueError(f"row {name!r} needs a tag")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[int, float] = {}
        for idx, c in items:
            if c != 0.0:
                merged[idx] = merged.get(idx, 0.0) + float(c)
        idx = len(self._rows)
        self._rows.append((name, tuple(merged), tuple(merged.values()), sense, float(rhs), tag))
        return idx

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
        return len(self._rows)

    @property
    def n_nonzeros(self) -> int:
        return sum(len(r[1]) for r in self._rows)

    @property
    def n_binaries(self) -> int:
        return sum(1 for k in self._vkind if k == BINARY)

    @property
    def var_names(self) -> list[str]:
        return self._vnames

    def var_index(self, name: str) -> int:
        return self._name_to_var[name]

    def var(self, idx: int) -> VarView:
        return VarView(idx, self._vnames[idx], self._vkind[idx], self._lb[idx], self._ub[idx], self._obj[idx], self._vtags[idx])

    def row(self, idx: int) -> RowView:
        name, idxs, coefs, sense, rhs, tag = self._rows[idx]
        return RowView(idx, name, dict(zip(idxs, coefs)), sense, rhs, tag)

    def rows(self, kind=None, entity=None, hour=None, scenario="*") -> Iterator[RowView]:
        for i, r in enumerate(self._rows):
            if r[5].matches(kind, entity, hour, scenario):
                yield self.row(i)

    def variables(self, kind_tag=None, entity=None, hour=None, scenario="*") -> Iterator[VarView]:
        for i, t in enumerate(self._vtags):
            if t.matches(kind_tag, entity, hour, scenario):
                yield self.var(i)

    def binary_indices(self) -> np.ndarray:
        kinds = self._vkind
        return np.flatnonzero(np.fromiter((k == BINARY for k in kinds), bool, len(kinds)))

    def canonical_form(self):
        """Order-independent description for structural equality tests."""
        vmap = self._vnames
        vars_desc = tuple(
            sorted((vmap[i], self._vkind[i], self._lb[i], self._ub[i], self._obj[i]) for i in range(self.n_vars))
        )
        rows_desc = tuple(
            sorted(
                (
                    (tag.kind, tag.entity, tag.hour, tag.scenario),
                    sense,
                    rhs,
                    tuple(sorted((vmap[i], c) for i, c in zip(idxs, coefs))),
                )
                for (_, idxs, coefs, sense, rhs, tag) in self._rows
            )
        )
        return (vars_desc, rows_desc, self.objective_constant)

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
        for name, idxs, coefs, sense, rhs, _ in self._rows:
            body = " ".join(
                f"{'+' if c >= 0 else '-'} {fmt(abs(c))} {self._vnames[i]}" for i, c in zip(idxs, coefs)
            )
            op = {LE: "<=", EQ: "=", GE: ">="}[sense]
            lines.append(f" {name}: {body or '0 ' + self._vnames[0]} {op} {fmt(rhs)}")
        lines.append("Bounds")
        for i in range(self.n_vars):
            lb, ub = self._lb[i], self._ub[i]
            if self._vkind[i] == BINARY and lb == 0.0 and ub == 1.0:
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
# ``linprog`` drive.  The adapter uses it directly because only it takes a
# start (``setSolution``), hands out the row duals as HiGHS computes them
# and finds an irreducible infeasible subsystem (``getIis``).

_VAR_TYPE = {
    CONTINUOUS: _highs.HighsVarType.kContinuous,
    BINARY: _highs.HighsVarType.kInteger,
}

_MODEL_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kTimeLimit: TIME_LIMIT,
    _highs.HighsModelStatus.kIterationLimit: TIME_LIMIT,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}


def _constraint_arrays(model: MilpModel):
    """Row-wise sparse matrix (start, index, value) and row bounds."""
    rows = model._rows
    m = len(rows)
    start = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.fromiter((len(r[1]) for r in rows), np.int32, m), out=start[1:])
    nnz = int(start[-1])
    index = np.fromiter(itertools.chain.from_iterable(r[1] for r in rows), np.int32, nnz)
    value = np.fromiter(itertools.chain.from_iterable(r[2] for r in rows), np.float64, nnz)
    rhs = np.fromiter((r[4] for r in rows), np.float64, m)
    lo = np.where(np.fromiter((r[3] == LE for r in rows), bool, m), -np.inf, rhs)
    hi = np.where(np.fromiter((r[3] == GE for r in rows), bool, m), np.inf, rhs)
    return start, index, value, lo, hi


def _highs_lp(model: MilpModel, integral: bool) -> _highs.HighsLp:
    start, index, value, lo, hi = _constraint_arrays(model)
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.n_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = model.n_rows
    lp.col_cost_ = np.asarray(model._obj, dtype=np.float64)
    lp.col_lower_ = np.asarray(model._lb, dtype=np.float64)
    lp.col_upper_ = np.asarray(model._ub, dtype=np.float64)
    lp.row_lower_ = lo
    lp.row_upper_ = hi
    lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    if integral:
        lp.integrality_ = [_VAR_TYPE[k] for k in model._vkind]
    return lp


def milp(
    lp: _highs.HighsLp,
    options: Mapping[str, float | int],
    start: np.ndarray | None = None,
    rounding: Rounding | None = None,
) -> tuple[_highs._Highs, float | None]:
    """Run HiGHS on ``lp`` in one session and return the finished
    session, with the bound that certified a root rounding or None.

    ``start`` is a complete column vector handed to HiGHS as a candidate
    incumbent; HiGHS checks it and ignores it when it is infeasible.

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
    branch and bound as it would without ``rounding``, and ``start`` is
    offered there.
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
    if start is not None:
        candidate = _highs.HighsSolution()
        candidate.col_value = start
        candidate.value_valid = True
        highs.setSolution(candidate)
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


def solve(
    model: MilpModel, options: SolveOptions | None = None, start: np.ndarray | None = None
) -> MilpSolution:
    """Solve the model with HiGHS.

    A model with a free binary is a MIP.  Status ``optimal`` implies the
    relative gap is within ``options.gap_tol``; a time-limited run with
    an incumbent reports ``feasible`` together with the reached gap, one
    without reports ``time_limit``.  ``start`` is an optional complete
    column vector offered to HiGHS as a first incumbent.  A MIP with a
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
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (model.n_vars,):
            raise ValueError(f"start has shape {start.shape}, the model has {model.n_vars} columns")
    lb = np.asarray(model._lb)
    ub = np.asarray(model._ub)
    binaries = model.binary_indices()
    free = binaries[lb[binaries] != ub[binaries]]
    is_mip = free.size > 0
    rounding = _naming_every(model.rounding, free) if is_mip and model.rounding is not None else None
    lp = _highs_lp(model, integral=is_mip)
    highs, bound = milp(lp, {"mip_rel_gap": float(options.gap_tol), "time_limit": float(options.time_limit)},
                        start, rounding)
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
    return relaxed_iis(_highs_lp(model, integral=False), [r[0] for r in model._rows])


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
