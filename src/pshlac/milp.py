"""Thin solver-agnostic MILP layer.

Models are plain coefficient containers: variables with bounds and
objective weights plus sparse rows in one of the three senses
``<=``, ``==``, ``>=``.  Every row and variable carries a :class:`Tag`
(structural kind, entity, hour, scenario) so tests and reporting can
find constraints without parsing names.

Solving drives HiGHS through scipy, and every solve takes its
constraint matrix from :func:`_constraint_arrays`.  Duals are available
from LP solves only, see :func:`fix_and_resolve_lp`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

CONTINUOUS = "continuous"
BINARY = "binary"

LE, EQ, GE = "<=", "==", ">="
_SENSES = (LE, EQ, GE)

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"


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
    """Mutable model under construction; read-only once handed to a solver."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.objective_constant = 0.0
        self.meta: dict = {}  # builder handles, free-form
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

    def binary_indices(self) -> list[int]:
        return [i for i, k in enumerate(self._vkind) if k == BINARY]

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

    def write_lp(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_lp_string())


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
    duals: dict[int, float] | None = None  # row index -> marginal, LP solves only

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


def _constraint_arrays(model: MilpModel):
    n = model.n_vars
    rows_i, cols, data = [], [], []
    lo = np.empty(model.n_rows)
    hi = np.empty(model.n_rows)
    for ri, (_, idxs, coefs, sense, rhs, _) in enumerate(model._rows):
        for i, c in zip(idxs, coefs):
            rows_i.append(ri)
            cols.append(i)
            data.append(c)
        if sense == LE:
            lo[ri], hi[ri] = -np.inf, rhs
        elif sense == GE:
            lo[ri], hi[ri] = rhs, np.inf
        else:
            lo[ri], hi[ri] = rhs, rhs
    A = sp.csr_matrix((data, (rows_i, cols)), shape=(model.n_rows, n))
    return A, lo, hi


def solve(model: MilpModel, options: SolveOptions | None = None) -> MilpSolution:
    """Solve the model with HiGHS.

    Status ``optimal`` implies the relative gap is within
    ``options.gap_tol``; a time-limited run with an incumbent reports
    ``feasible`` together with the reached gap.
    """
    options = options or SolveOptions()
    t_start = time.perf_counter()
    c = np.asarray(model._obj, dtype=float)
    integrality = np.array([1 if k == BINARY else 0 for k in model._vkind], dtype=np.uint8)
    bounds = Bounds(np.asarray(model._lb), np.asarray(model._ub))
    constraints = []
    if model.n_rows:
        A, lo, hi = _constraint_arrays(model)
        constraints.append(LinearConstraint(A, lo, hi))
    res = milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options={
            "mip_rel_gap": options.gap_tol,
            "time_limit": options.time_limit,
            "disp": False,
        },
    )
    wall = time.perf_counter() - t_start
    gap = getattr(res, "mip_gap", None)
    gap = float(gap) if gap is not None else None
    if res.status == 0:
        status = OPTIMAL
    elif res.status == 1:
        status = TIME_LIMIT
    elif res.status == 2:
        status = INFEASIBLE
    elif res.status == 3:
        status = UNBOUNDED
    else:
        raise SolverError(f"backend failure: {res.message}")
    values = None
    objective = None
    if res.x is not None:
        values = np.asarray(res.x, dtype=float)
        _check_primal(model, values)
        objective = float(res.fun) + model.objective_constant
        if status == TIME_LIMIT:
            status = FEASIBLE
    return MilpSolution(status, values, objective, gap, wall)


def _check_primal(model: MilpModel, values: np.ndarray, tol: float = 1e-6) -> None:
    lb = np.asarray(model._lb)
    ub = np.asarray(model._ub)
    if np.any(values < lb - tol) or np.any(values > ub + tol):
        raise SolverError("backend returned values outside variable bounds")
    for i in model.binary_indices():
        if abs(values[i] - round(values[i])) > tol:
            raise SolverError(f"binary variable {model._vnames[i]} fractional: {values[i]}")


def fix_and_resolve_lp(
    model: MilpModel,
    binary_values: Mapping[int, float] | np.ndarray,
    options: SolveOptions | None = None,
) -> MilpSolution:
    """Freeze every binary at the given value and re-solve as a pure LP.

    The LP marginals of equality rows follow the usual convention:
    the dual of a balance row is the cost of serving one more MWh at
    that hour, which is how locational prices are extracted.
    """
    options = options or SolveOptions()
    t_start = time.perf_counter()
    lb = np.asarray(model._lb, dtype=float).copy()
    ub = np.asarray(model._ub, dtype=float).copy()
    bins = model.binary_indices()
    if isinstance(binary_values, np.ndarray):
        fixed = {i: float(binary_values[i]) for i in bins}
    else:
        fixed = {int(i): float(v) for i, v in binary_values.items()}
    missing = [i for i in bins if i not in fixed]
    if missing:
        raise ValueError(f"missing fixed values for binaries {missing[:5]}")
    for i, v in fixed.items():
        r = round(v)
        if abs(v - r) > 1e-6:
            raise ValueError(f"binary {model._vnames[i]} fixed to non-integral {v}")
        lb[i] = ub[i] = float(r)

    c = np.asarray(model._obj, dtype=float)
    A, lo, hi = _constraint_arrays(model)
    eq = lo == hi
    eq_rows, ub_rows = np.flatnonzero(eq), np.flatnonzero(~eq)
    # GE rows (hi = +inf) are negated into <= form; their duals flip sign on the way back
    sign = np.where(np.isposinf(hi[ub_rows]), -1.0, 1.0)
    A_eq = b_eq = A_ub = b_ub = None
    if eq_rows.size:
        A_eq, b_eq = A[eq_rows], hi[eq_rows]
    if ub_rows.size:
        # diag(sign) @ A[ub_rows], scaled in place so explicit zeros stay
        A_ub = A[ub_rows]
        A_ub.data *= np.repeat(sign, np.diff(A_ub.indptr))
        b_ub = np.where(sign < 0, -lo[ub_rows], hi[ub_rows])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lb, ub]),
        method="highs",
        options={"time_limit": options.time_limit},
    )
    wall = time.perf_counter() - t_start
    if res.status == 2:
        return MilpSolution(INFEASIBLE, None, None, None, wall)
    if res.status == 3:
        return MilpSolution(UNBOUNDED, None, None, None, wall)
    if res.status != 0:
        raise SolverError(f"LP re-solve failed: {res.message}")
    duals = {int(ri): float(m) for ri, m in zip(eq_rows, res.eqlin.marginals)}
    duals.update((int(ri), float(g * m)) for ri, g, m in zip(ub_rows, sign, res.ineqlin.marginals))
    values = np.asarray(res.x, dtype=float)
    return MilpSolution(OPTIMAL, values, float(res.fun) + model.objective_constant, 0.0, wall, duals)


def infeasibility_report(model: MilpModel, top: int = 10) -> list[str]:
    """Names of rows that cannot be satisfied, found by elastic relaxation.

    Binaries are relaxed to their boxes and every row receives a slack;
    rows needing nonzero slack in the minimum-total-slack LP are the
    conflict witnesses.  Approximate, but enough to point at the
    offending constraints.
    """
    if model.n_rows == 0:
        return []
    A, lo, hi = _constraint_arrays(model)
    n = model.n_vars
    m = model.n_rows
    # x plus one slack pair per row; keep only finite-sided inequalities
    S_pos = sp.identity(m, format="csr")
    A_full = sp.hstack([A, S_pos, -S_pos], format="csr")
    upper = np.isfinite(hi)
    lower = np.isfinite(lo)
    A_ub = sp.vstack([A_full[upper], -A_full[lower]], format="csr")
    b_ub = np.concatenate([hi[upper], -lo[lower]])
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    lb = np.concatenate([np.asarray(model._lb), np.zeros(2 * m)])
    ub = np.concatenate([np.asarray(model._ub), np.full(2 * m, np.inf)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=np.column_stack([lb, ub]), method="highs")
    if res.status != 0 or res.x is None:
        return ["<relaxation failed>"]
    slack = res.x[n : n + m] + res.x[n + m :]
    order = np.argsort(-slack)
    out = []
    for ri in order[:top]:
        if slack[ri] > 1e-6:
            out.append(f"{model._rows[ri][0]} (violation {slack[ri]:.4g})")
    return out
