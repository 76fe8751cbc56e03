"""Shared domain types for the rolling look-ahead study.

Conventions used everywhere in this package:

* hours are 1-based integers; a day is hours 1..T
* power in MW, energy in MWh, prices in $/MWh
* every container here is a frozen dataclass, safe to share across
  worker threads once built; validation never mutates or raises, it
  returns a list of :class:`Violation` records instead
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum
from typing import Mapping, Sequence

import numpy as np


class PshMode(str, Enum):
    """Operating mode of a pumped-storage unit. Exactly one holds per hour."""

    OFF = "off"
    GEN = "gen"
    PUMP = "pump"


MODES = (PshMode.OFF.value, PshMode.GEN.value, PshMode.PUMP.value)

# solver values smaller than this in magnitude are recorded as zero
ZERO_TOL = 1e-9


def snap_zero(v: float) -> float:
    """``v`` as a float, or 0.0 when it lies within ``ZERO_TOL`` of zero."""
    return 0.0 if abs(v) < ZERO_TOL else float(v)


@dataclass(frozen=True)
class TimeGrid:
    """Hourly grid with a sliding commitment window.

    ``start_index`` is the first hour of the current window (t1),
    ``horizon_end`` the last hour of the day (T) and ``window_length``
    the look-ahead span (L).  The window covers
    [t1, min(t1 + L - 1, T)]; hours after the window up to T form the
    post-window range.
    """

    start_index: int
    horizon_end: int
    window_length: int
    interval_hours: float = 1.0

    @property
    def window_end(self) -> int:
        return min(self.start_index + self.window_length - 1, self.horizon_end)

    def window_hours(self) -> range:
        return range(self.start_index, self.window_end + 1)


@dataclass(frozen=True)
class CostSegment:
    mw: float  # segment width, MW
    price: float  # marginal cost on the segment, $/MWh


@dataclass(frozen=True)
class InitialStatus:
    committed: bool
    hours: int  # hours already spent in the current state


@dataclass(frozen=True)
class ThermalUnit:
    """Non-PSH generator with a convex piecewise-linear energy cost.

    ``cost_curve`` segments stack from zero output; their widths should
    sum to ``p_max``.  ``da_commitment`` is the day-ahead on/off plan
    (one flag per hour of the day) and may be absent until a day-ahead
    reference has been produced.
    """

    id: str
    cost_curve: tuple[CostSegment, ...]
    no_load_cost: float  # $/h while committed
    startup_cost: float  # $ per start
    p_min: float
    p_max: float
    min_up: int = 1
    min_down: int = 1
    initial_status: InitialStatus = InitialStatus(True, 24)
    da_commitment: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Reservoir:
    id: str
    e_min: float  # MWh
    e_max: float
    e_initial: float  # state of charge entering hour 1
    e_final_target: float  # required state of charge after hour T
    member_units: tuple[str, ...] = ()


@dataclass(frozen=True)
class PshUnit:
    """Pumped-storage unit attached to one reservoir.

    Pumping stores ``eta_pump`` MWh per MWh drawn from the grid and
    generating releases ``1 / eta_gen`` MWh of storage per MWh delivered.
    ``da_gen`` / ``da_pump`` hold the day-ahead dispatch in MW per hour
    when a day-ahead reference exists.
    """

    id: str
    reservoir_id: str
    node_id: str
    gen_min: float
    gen_max: float
    pump_min: float
    pump_max: float
    eta_gen: float
    eta_pump: float
    startup_cost_gen: float = 0.0
    startup_cost_pump: float = 0.0
    initial_mode: str = PshMode.OFF.value
    da_gen: tuple[float, ...] | None = None
    da_pump: tuple[float, ...] | None = None


@dataclass(frozen=True)
class PowerSystem:
    grid: TimeGrid
    thermal_units: tuple[ThermalUnit, ...]
    psh_units: tuple[PshUnit, ...]
    reservoirs: tuple[Reservoir, ...]

    def reservoir(self, rid: str) -> Reservoir:
        return _by_id(self.reservoirs, rid)

    def psh_nodes(self) -> tuple[str, ...]:
        seen: list[str] = []
        for u in self.psh_units:
            if u.node_id not in seen:
                seen.append(u.node_id)
        return tuple(seen)


@dataclass(frozen=True)
class MarketDay:
    """Realized market data for one operating day.

    ``load`` is the hourly net load D_t.  ``da_lmp`` and
    ``rt_lmp_actual`` map a price node to its hourly series; the RT
    series is after-the-fact information and is only revealed to models
    according to the rolling loop's reveal policy.
    """

    label: str
    load: tuple[float, ...]
    da_lmp: Mapping[str, tuple[float, ...]]
    rt_lmp_actual: Mapping[str, tuple[float, ...]]


@dataclass(frozen=True, eq=False)
class PriceScenarioSet:
    """Equally indexed price trajectories for the post-window range.

    ``prices`` has shape (S, n_nodes, n_hours) and covers hours
    ``start_hour`` .. ``start_hour + n_hours - 1``; the forecast origin
    t0 is ``start_hour - 1``.  Weights sum to one.
    """

    nodes: tuple[str, ...]
    start_hour: int
    prices: np.ndarray
    weights: tuple[float, ...]

    @property
    def count(self) -> int:
        return int(self.prices.shape[0])

    @property
    def end_hour(self) -> int:
        return self.start_hour + int(self.prices.shape[2]) - 1

    def hours(self) -> range:
        return range(self.start_hour, self.end_hour + 1)

    def price(self, scenario: int, node: str, hour: int) -> float:
        return float(self.prices[scenario, self.nodes.index(node), hour - self.start_hour])

    def slice_hours(self, first_hour: int) -> "PriceScenarioSet":
        """Drop hours before ``first_hour``; used to keep only the post-window range."""
        if first_hour < self.start_hour:
            raise ValueError(f"cannot extend scenario set backwards to hour {first_hour}")
        off = first_hour - self.start_hour
        return PriceScenarioSet(self.nodes, first_hour, self.prices[:, :, off:], self.weights)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PriceScenarioSet)
            and self.nodes == other.nodes
            and self.start_hour == other.start_hour
            and self.weights == other.weights
            and np.array_equal(self.prices, other.prices)
        )


@dataclass(frozen=True)
class FrozenDecision:
    """Committed outcome of one hour, produced by the rolling loop.

    ``soc_after`` is the reservoir state entering the next hour, derived
    from the frozen dispatch through the energy balance.
    """

    hour: int
    psh_mode: Mapping[str, str]
    psh_gen: Mapping[str, float]
    psh_pump: Mapping[str, float]
    thermal_commit: Mapping[str, int]
    thermal_p: Mapping[str, float]
    soc_after: Mapping[str, float]
    slack_short: float = 0.0
    slack_surplus: float = 0.0


@dataclass(frozen=True)
class Violation:
    entity: str
    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.entity}.{self.field}: {self.rule}"


def _by_id(items, wanted):
    for it in items:
        if it.id == wanted:
            return it
    raise KeyError(wanted)


def validate_system(system: PowerSystem, market_day: MarketDay | None = None) -> list[Violation]:
    """Collect rule violations across the whole description.

    Total by design: any parsed input yields a (possibly empty) list,
    never an exception, so callers can report everything at once.
    """
    out: list[Violation] = []
    g = system.grid
    T = g.horizon_end
    if g.start_index < 1:
        out.append(Violation("grid", "start_index", "must be >= 1"))
    if T < g.start_index:
        out.append(Violation("grid", "horizon_end", "must be >= start_index"))
    if not (1 <= g.window_length <= T - g.start_index + 1):
        out.append(Violation("grid", "window_length", "must lie in [1, T - t1 + 1]"))
    if g.interval_hours <= 0:
        out.append(Violation("grid", "interval_hours", "must be positive"))

    seen_ids: set[str] = set()
    for u in system.thermal_units:
        if u.id in seen_ids:
            out.append(Violation(u.id, "id", "duplicate unit id"))
        seen_ids.add(u.id)
        if not (0 <= u.p_min <= u.p_max):
            out.append(Violation(u.id, "p_min", "need 0 <= p_min <= p_max"))
        prices = [s.price for s in u.cost_curve]
        if any(b < a for a, b in zip(prices, prices[1:])):
            out.append(Violation(u.id, "cost_curve", "segment prices must be non-decreasing (convexity)"))
        if any(s.mw <= 0 for s in u.cost_curve):
            out.append(Violation(u.id, "cost_curve", "segment widths must be positive"))
        if not math.isclose(sum(s.mw for s in u.cost_curve), u.p_max, rel_tol=1e-9):
            out.append(Violation(u.id, "cost_curve", "segment widths must sum to p_max"))
        if u.da_commitment is not None and len(u.da_commitment) != T:
            out.append(Violation(u.id, "da_commitment", f"expected {T} hourly flags"))
        if u.min_up < 0 or u.min_down < 0:
            out.append(Violation(u.id, "min_up", "durations cannot be negative"))

    res_ids = {r.id for r in system.reservoirs}
    for p in system.psh_units:
        if p.id in seen_ids:
            out.append(Violation(p.id, "id", "duplicate unit id"))
        seen_ids.add(p.id)
        if not (0 <= p.gen_min <= p.gen_max):
            out.append(Violation(p.id, "gen_min", "need 0 <= gen_min <= gen_max"))
        if not (0 <= p.pump_min <= p.pump_max):
            out.append(Violation(p.id, "pump_min", "need 0 <= pump_min <= pump_max"))
        for name, eta in (("eta_gen", p.eta_gen), ("eta_pump", p.eta_pump)):
            if not (0 < eta <= 1):
                out.append(Violation(p.id, name, "efficiency must lie in (0, 1]"))
        for name, cost in (("startup_cost_gen", p.startup_cost_gen),
                           ("startup_cost_pump", p.startup_cost_pump)):
            if cost < 0:
                out.append(Violation(p.id, name, "start-up charges cannot be negative"))
        if p.reservoir_id not in res_ids:
            out.append(Violation(p.id, "reservoir_id", f"unknown reservoir '{p.reservoir_id}'"))
        if p.initial_mode not in MODES:
            out.append(Violation(p.id, "initial_mode", f"unknown mode '{p.initial_mode}'"))
        for name, sched in (("da_gen", p.da_gen), ("da_pump", p.da_pump)):
            if sched is not None and len(sched) != T:
                out.append(Violation(p.id, name, f"expected {T} hourly values"))
        if p.da_gen is not None and p.da_pump is not None and len(p.da_gen) == len(p.da_pump):
            for h, (qg, qp) in enumerate(zip(p.da_gen, p.da_pump), start=1):
                if qg > 0 and qp > 0:
                    out.append(Violation(p.id, "da_gen", f"hour {h}: generating and pumping at once"))

    psh_ids = {p.id for p in system.psh_units}
    for r in system.reservoirs:
        if r.e_min < 0:
            out.append(Violation(r.id, "e_min", "storage cannot go below 0"))
        if not (r.e_min <= r.e_initial <= r.e_max):
            out.append(Violation(r.id, "e_initial", "initial SOC outside [e_min, e_max]"))
        if not (r.e_min <= r.e_final_target <= r.e_max):
            out.append(Violation(r.id, "e_final_target", "target SOC outside [e_min, e_max]"))
        if not r.member_units:
            out.append(Violation(r.id, "member_units", "reservoir has no member units"))
        for uid in r.member_units:
            if uid not in psh_ids:
                out.append(Violation(r.id, "member_units", f"unknown PSH unit '{uid}'"))
    for p in system.psh_units:
        if p.reservoir_id in res_ids and p.id not in system.reservoir(p.reservoir_id).member_units:
            out.append(Violation(p.id, "reservoir_id", "unit not listed in reservoir member_units"))

    if market_day is not None:
        if len(market_day.load) != T:
            out.append(Violation(market_day.label, "load", f"expected {T} hourly values"))
        for name, series_map in (("da_lmp", market_day.da_lmp), ("rt_lmp_actual", market_day.rt_lmp_actual)):
            for node, series in series_map.items():
                if len(series) != T:
                    out.append(Violation(market_day.label, name, f"node {node}: expected {T} hourly values"))
        for node in system.psh_nodes():
            if node not in market_day.da_lmp:
                out.append(Violation(market_day.label, "da_lmp", f"missing series for node {node}"))

    return out


# ---------------------------------------------------------------------------
# serialization


def system_to_dict(system: PowerSystem) -> dict:
    return {
        "grid": asdict(system.grid),
        "thermal_units": [asdict(u) for u in system.thermal_units],
        "psh_units": [asdict(u) for u in system.psh_units],
        "reservoirs": [asdict(r) for r in system.reservoirs],
    }


# what a JSON value of each scalar annotation must be; a bool is no number
_JSON_SCALARS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
}


def _json_mismatch(value, annotation: str) -> str | None:
    """How ``value`` fails the field annotation ``annotation`` (a scalar,
    or ``tuple[X, ...]`` for a list, either ``| None``), or None where it
    fits.  A record is left to its own :func:`_record`."""
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation.removesuffix(" | None")
    if annotation.startswith("tuple["):
        if not isinstance(value, (list, tuple)):
            return f"is {value!r}, not a list"
        item = annotation.removeprefix("tuple[").removesuffix(", ...]")
        for i, v in enumerate(value):
            mismatch = _json_mismatch(v, item)
            if mismatch is not None:
                return f"item {i} {mismatch}"
    if annotation in _JSON_SCALARS:
        what, fits = _JSON_SCALARS[annotation]
        return None if fits(value) else f"is {value!r}, not {what}"
    return None


def _record(cls, rec: Mapping, name: str, **convert):
    """A ``cls`` from its :func:`system_to_dict` record ``rec``: each field
    from the key of its name, through its function in ``convert`` if it
    has one.  A field with a default may be absent; another, or a value
    of the wrong JSON type for the field, raises ValueError naming
    ``name`` and the field."""
    if not isinstance(rec, Mapping):
        raise ValueError(f"{name} is {rec!r}, not an object")
    args = {}
    for f in fields(cls):
        if f.name in rec:
            value = rec[f.name]
            mismatch = _json_mismatch(value, f.type)
            if mismatch is not None:
                raise ValueError(f"{name} field {f.name!r} {mismatch}")
            args[f.name] = convert[f.name](value) if f.name in convert else value
        elif f.default is MISSING:
            raise ValueError(f"{name} lacks field {f.name!r}")
    return cls(**args)


def system_from_dict(doc: Mapping) -> PowerSystem:
    """The system of a :func:`system_to_dict` document; a missing field,
    or one whose JSON type is not its annotation's (an integer written
    ``24.0``, a bool for a number), raises ValueError naming its entity
    and the field."""
    def _tuple_or_none(v):
        return None if v is None else tuple(v)

    def _each(kind: str, make):
        # the records of a list, each named by its id or its place
        def name(i: int, rec) -> str:
            return f"{kind} {rec['id'] if isinstance(rec, Mapping) and 'id' in rec else f'#{i}'}"
        return lambda recs: tuple(make(r, name(i, r)) for i, r in enumerate(recs))

    def _thermal(u: Mapping, name: str) -> ThermalUnit:
        return _record(ThermalUnit, u, name, da_commitment=_tuple_or_none,
                       cost_curve=_each(f"{name} cost segment", lambda s, n: _record(CostSegment, s, n)),
                       initial_status=lambda s: _record(InitialStatus, s, f"{name} initial status"))

    return _record(
        PowerSystem, doc, "system",
        grid=lambda g: _record(TimeGrid, g, "grid"),
        thermal_units=_each("thermal unit", _thermal),
        psh_units=_each("PSH unit", lambda u, n: _record(PshUnit, u, n, da_gen=_tuple_or_none,
                                                          da_pump=_tuple_or_none)),
        reservoirs=_each("reservoir", lambda r, n: _record(Reservoir, r, n, member_units=tuple)),
    )


def write_system_json(system: PowerSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(system), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_system_json(path) -> PowerSystem:
    """The system in ``path``; a file that is not JSON or lacks a field
    raises ValueError naming the file."""
    with open(path) as fh:
        try:
            return system_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_series_csv(path) -> dict[str, list[float]]:
    """Read an ``hour,entity_id,value`` file into per-entity hourly lists.

    Hours must be 1-based and contiguous per entity.  A malformed row, a
    value that is not a finite number, or an (hour, entity) listed before
    raises ValueError naming the offending line.
    """
    series: dict[str, dict[int, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:3]] != ["hour", "entity_id", "value"]:
            raise ValueError(f"{path}: expected header 'hour,entity_id,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                hour = int(row[0])
                entity = row[1].strip()
                value = float(row[2])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed row {row!r}") from exc
            if hour < 1:
                raise ValueError(f"{path}: line {lineno}: hour must be >= 1")
            _require_finite(value, row[2], path, lineno)
            values = series.setdefault(entity, {})
            if hour in values:
                raise ValueError(f"{path}: line {lineno}: hour {hour} of '{entity}' is listed twice")
            values[hour] = value
    out: dict[str, list[float]] = {}
    for entity, values in series.items():
        hours = sorted(values)
        if hours != list(range(1, len(hours) + 1)):
            raise ValueError(f"{path}: entity '{entity}' hours are not contiguous from 1")
        out[entity] = [values[h] for h in hours]
    return out


def write_series_csv(path, series: Mapping[str, Sequence[float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", "entity_id", "value"])
        for entity in sorted(series):
            for h, v in enumerate(series[entity], start=1):
                writer.writerow([h, entity, repr(float(v))])


def write_scenario_csv(path, scn: PriceScenarioSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "node", "hour", "price"])
        for s in range(scn.count):
            for ni, node in enumerate(scn.nodes):
                for hi, hour in enumerate(scn.hours()):
                    writer.writerow([s, node, hour, repr(float(scn.prices[s, ni, hi]))])


def _require_finite(value: float, text: str, path, lineno: int) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {lineno}: {text.strip()!r} is not a finite number")


def read_scenario_csv(path, weights_path=None) -> PriceScenarioSet:
    """The scenario set of a ``scenario,node,hour,price`` file, weighted
    by a ``scenario,weight`` file or uniformly.  A malformed row, a price
    that is not a finite number, a (scenario, node, hour) listed before,
    or one the file lacks raises ValueError naming the file (and the
    line)."""
    rows: list[tuple[int, str, int, float]] = []
    seen: set[tuple[int, str, int]] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:4]] != ["scenario", "node", "hour", "price"]:
            raise ValueError(f"{path}: expected header 'scenario,node,hour,price'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append((int(row[0]), row[1].strip(), int(row[2]), float(row[3])))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed row {row!r}") from exc
            _require_finite(rows[-1][3], row[3], path, lineno)
            key = rows[-1][:3]
            if key in seen:
                raise ValueError(f"{path}: line {lineno}: scenario {key[0]}, node '{key[1]}', hour {key[2]} "
                                 "is listed twice")
            seen.add(key)
    if not rows:
        raise ValueError(f"{path}: no scenario rows")
    scenarios = sorted({r[0] for r in rows})
    nodes = tuple(sorted({r[1] for r in rows}))
    hours = sorted({r[2] for r in rows})
    if scenarios != list(range(len(scenarios))):
        raise ValueError(f"{path}: scenario ids must be 0..S-1")
    if hours != list(range(hours[0], hours[0] + len(hours))):
        raise ValueError(f"{path}: hours must be contiguous")
    prices = np.full((len(scenarios), len(nodes), len(hours)), np.nan)
    for s, node, hour, price in rows:
        prices[s, nodes.index(node), hour - hours[0]] = price
    if np.isnan(prices).any():
        raise ValueError(f"{path}: missing (scenario, node, hour) combinations")
    if weights_path is not None:
        weights = _read_weights_csv(weights_path, len(scenarios))
    else:
        weights = tuple([1.0 / len(scenarios)] * len(scenarios))
    return PriceScenarioSet(nodes, hours[0], prices, weights)


def _read_weights_csv(path, count: int) -> tuple[float, ...]:
    """The weights of scenarios 0..count-1 in a ``scenario,weight`` file,
    which lists each of them once.  A malformed row, a weight that is not
    a finite number, or a scenario id out of range or listed before
    raises ValueError naming the file and the line; a scenario the file
    does not list, naming the file and the scenarios."""
    weights: list[float | None] = [None] * count
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["scenario", "weight"]:
            raise ValueError(f"{path}: expected header 'scenario,weight'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                s, w = int(row[0]), float(row[1])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: malformed row {row!r}") from exc
            _require_finite(w, row[1], path, lineno)
            if not 0 <= s < count:
                raise ValueError(f"{path}: line {lineno}: scenario {s} is outside 0..{count - 1}")
            if weights[s] is not None:
                raise ValueError(f"{path}: line {lineno}: scenario {s} is listed twice")
            weights[s] = w
    missing = [str(s) for s, w in enumerate(weights) if w is None]
    if missing:
        raise ValueError(f"{path}: no weight for scenario {', '.join(missing)}")
    return tuple(weights)


def write_weights_csv(path, scn: PriceScenarioSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "weight"])
        for s, w in enumerate(scn.weights):
            writer.writerow([s, repr(float(w))])
