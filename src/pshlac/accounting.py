"""Post-simulation settlement.

A day's ledger is re-priced by fixing every commitment decision in a
full-day dispatch model and re-solving the continuous part; the duals
of the hourly balance rows are the realized prices.  Storage profit is
measured against the day-ahead schedule at those prices, so a run that
never deviates from its day-ahead plan books exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .core import MODES, MarketDay, PowerSystem, TimeGrid, FrozenDecision
from .lac_models import (
    DaReference,
    LacInstance,
    ModelConfig,
    Variant,
    build_variant,
)
from .milp import TIME_LIMIT, MilpModel, MilpSolution, SolveOptions, infeasibility_report, solve
from .rolling import SimulationLedger

class AccountingError(RuntimeError):
    pass


def _variant_sort_key(name: str):
    """Variants in the order of :class:`Variant`, then other labels by name."""
    try:
        return (0, list(Variant).index(name))
    except ValueError:
        return (1, name)


def _ledger_by_hour(ledger: SimulationLedger, T: int) -> dict[int, FrozenDecision]:
    by_hour = {h.hour: h for h in ledger.hours}
    missing = [t for t in range(1, T + 1) if t not in by_hour]
    if missing:
        raise AccountingError(f"ledger {ledger.variant}/{ledger.day_label} missing hours {missing}")
    return by_hour


def full_day_resolve(
    system: PowerSystem,
    market_day: MarketDay,
    ledger: SimulationLedger,
    da: DaReference,
    cfg: ModelConfig | None = None,
    options: SolveOptions | None = None,
    previous: MilpModel | None = None,
) -> tuple[MilpModel, MilpSolution]:
    """Fix every commitment to the ledger and re-solve the day as an LP
    under ``options`` (its time limit; the LP has no gap).

    The model's plan is ``da`` with the ledger's thermal commitments, so
    each unit is pinned to them and their no-load and start-up charges
    are its objective constant; it carries the ledger's PSH modes as
    fixed binaries in its bounds, and the PSH start-up columns are
    continuous and settle at the charges the ledger's mode sequence
    incurs.  ``previous``, the model of an earlier settlement of the same
    day, is re-dated at shift 0 (``lac_models.build_variant``): the new
    plan is written in, and every mode bound it fixed is fixed again."""
    options = options or SolveOptions()
    T = system.grid.horizon_end
    by_hour = _ledger_by_hour(ledger, T)
    plan = replace(da, commitment={u.id: tuple(by_hour[t].thermal_commit[u.id] for t in range(1, T + 1))
                                   for u in system.thermal_units})
    inst = LacInstance(
        system, TimeGrid(1, T, T, system.grid.interval_hours),
        tuple(market_day.load), plan,
        {r.id: float(r.e_initial) for r in system.reservoirs},
        {u.id: u.initial_mode for u in system.psh_units},
    )
    model = build_variant(Variant.PERFECT, inst, cfg, previous)
    det = model.meta["det_block"]

    for u in system.psh_units:
        for t in range(1, T + 1):
            for m in MODES:
                val = 1.0 if m == by_hour[t].psh_mode[u.id] else 0.0
                model.set_var_bounds(det.u[(u.id, m, t)], val, val)
    sol = solve(model, options)
    if sol.status == TIME_LIMIT:
        raise AccountingError(
            f"ledger {ledger.variant}/{ledger.day_label} settlement LP hit its "
            f"{options.time_limit} s time limit"
        )
    if not sol.ok:
        rows = infeasibility_report(model)
        raise AccountingError(
            f"ledger {ledger.variant}/{ledger.day_label} infeasible on actual load; "
            f"conflicting rows: {'; '.join(rows) if rows else '<none identified>'}"
        )
    return model, sol


def realized_lmp(model: MilpModel, sol: MilpSolution) -> tuple[float, ...]:
    """Hourly balance duals of a dispatch solved as an LP: the realized
    prices of the fixed full-day re-solve, the day-ahead prices of the
    clearing with its commitments fixed."""
    rows = model.meta["balance_rows"]
    return tuple(float(sol.duals[rows[t]]) for t in sorted(rows))


def lac_profit(
    ledger: SimulationLedger,
    da: DaReference,
    lmp: Sequence[float],
    system: PowerSystem,
) -> dict[str, float]:
    """Per-unit storage profit: price times deviation from the day-ahead net."""
    T = system.grid.horizon_end
    by_hour = _ledger_by_hour(ledger, T)
    out = {}
    for u in system.psh_units:
        total = 0.0
        for t in range(1, T + 1):
            net = by_hour[t].psh_gen[u.id] - by_hour[t].psh_pump[u.id]
            da_net = da.gen[u.id][t - 1] - da.pump[u.id][t - 1]
            total += lmp[t - 1] * (net - da_net)
        out[u.id] = total
    return out


def da_profit(
    da: DaReference,
    da_lmp: Mapping[str, Sequence[float]],
    system: PowerSystem,
) -> dict[str, float]:
    T = system.grid.horizon_end
    out = {}
    for u in system.psh_units:
        prices = da_lmp[u.node_id]
        out[u.id] = sum(
            float(prices[t - 1]) * (da.gen[u.id][t - 1] - da.pump[u.id][t - 1])
            for t in range(1, T + 1)
        )
    return out


def objective_delta_table(objectives: Mapping[str, float]) -> list[dict]:
    """Percent change of each variant's realized objective against the
    schedule-following benchmark.  Negative means cheaper."""
    if Variant.CURRENT_PRACTICE.value not in objectives:
        raise AccountingError("delta table needs a current_practice run as the baseline")
    base = objectives[Variant.CURRENT_PRACTICE.value]
    if base == 0.0:
        raise AccountingError("current_practice objective is zero; deltas undefined")
    rows = []
    for name in sorted(objectives, key=_variant_sort_key):
        obj = objectives[name]
        rows.append({
            "variant": name,
            "objective": obj,
            "delta_pct": (obj - base) / abs(base) * 100.0,
        })
    return rows


@dataclass
class VariantOutcome:
    variant: str
    objective: float
    lmp: tuple[float, ...]
    profit: dict[str, float]
    slack_short_total: float
    slack_surplus_total: float


@dataclass
class DayEvaluation:
    day_label: str
    outcomes: dict[str, VariantOutcome]
    da_profit: dict[str, float]
    delta: list[dict] | None

    def objective_rows(self) -> list[dict]:
        if self.delta is not None:
            return self.delta
        return [
            {"variant": n, "objective": o.objective, "delta_pct": float("nan")}
            for n, o in sorted(self.outcomes.items(), key=lambda kv: _variant_sort_key(kv[0]))
        ]

    def write_objective_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("variant,objective,delta_pct\n")
            for row in self.objective_rows():
                fh.write(f"{row['variant']},{row['objective']!r},{row['delta_pct']!r}\n")

    def write_profit_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("variant,unit,da_profit,lac_profit\n")
            for name in sorted(self.outcomes, key=_variant_sort_key):
                out = self.outcomes[name]
                for uid in sorted(out.profit):
                    fh.write(
                        f"{name},{uid},{self.da_profit.get(uid, 0.0)!r},{out.profit[uid]!r}\n"
                    )

    def write_lmp_csv(self, path, market_day: MarketDay, node: str) -> None:
        names = sorted(self.outcomes, key=_variant_sort_key)
        da_series = market_day.da_lmp[node]
        with open(path, "w") as fh:
            fh.write("hour,da_lmp," + ",".join(f"lmp_{n}" for n in names) + "\n")
            for t in range(1, len(da_series) + 1):
                vals = ",".join(repr(self.outcomes[n].lmp[t - 1]) for n in names)
                fh.write(f"{t},{float(da_series[t - 1])!r},{vals}\n")

    def write_dispatch_csv(self, path, system: PowerSystem, da: DaReference,
                           ledgers: Mapping[str, SimulationLedger]) -> None:
        names = sorted(self.outcomes, key=_variant_sort_key)
        T = system.grid.horizon_end
        by_hour = {n: _ledger_by_hour(ledgers[n], T) for n in names}
        with open(path, "w") as fh:
            fh.write("hour,unit,da_net," + ",".join(f"net_{n}" for n in names) + "\n")
            for u in system.psh_units:
                for t in range(1, T + 1):
                    da_net = da.gen[u.id][t - 1] - da.pump[u.id][t - 1]
                    vals = ",".join(
                        repr(by_hour[n][t].psh_gen[u.id] - by_hour[n][t].psh_pump[u.id])
                        for n in names
                    )
                    fh.write(f"{t},{u.id},{da_net!r},{vals}\n")

    def format_text(self) -> str:
        lines = [f"day {self.day_label}"]
        lines.append(f"{'variant':<18}{'objective':>14}{'delta_pct':>12}")
        for row in self.objective_rows():
            lines.append(
                f"{row['variant']:<18}{row['objective']:>14.2f}{row['delta_pct']:>12.3f}"
            )
        units = sorted({uid for o in self.outcomes.values() for uid in o.profit})
        if units:
            lines.append("")
            lines.append(f"{'variant':<18}" + "".join(f"{('profit_' + u):>16}" for u in units))
            for name in sorted(self.outcomes, key=_variant_sort_key):
                out = self.outcomes[name]
                lines.append(
                    f"{name:<18}" + "".join(f"{out.profit.get(u, 0.0):>16.2f}" for u in units)
                )
        return "\n".join(lines) + "\n"


def settle(
    system: PowerSystem,
    market_day: MarketDay,
    ledger: SimulationLedger,
    da: DaReference,
    cfg: ModelConfig | None = None,
    options: SolveOptions | None = None,
) -> VariantOutcome:
    """Settle one ledger: its full-day re-solve (:func:`full_day_resolve`),
    the realized prices, the storage profit and the slack totals."""
    return _outcome(system, ledger, da, *full_day_resolve(system, market_day, ledger, da, cfg, options))


def _outcome(system: PowerSystem, ledger: SimulationLedger, da: DaReference, model: MilpModel,
             sol: MilpSolution) -> VariantOutcome:
    lmp = realized_lmp(model, sol)
    profit = lac_profit(ledger, da, lmp, system)
    sh = sum(h.slack_short for h in ledger.hours)
    su = sum(h.slack_surplus for h in ledger.hours)
    return VariantOutcome(ledger.variant, float(sol.objective), lmp, profit, sh, su)


def assemble_day(
    system: PowerSystem,
    market_day: MarketDay,
    outcomes: Mapping[str, VariantOutcome],
    da: DaReference,
) -> DayEvaluation:
    """The day's evaluation from each variant's settled outcome: the
    day-ahead profits, and the delta table when current practice ran."""
    outcomes = {name: outcomes[name] for name in sorted(outcomes, key=_variant_sort_key)}
    objectives = {n: o.objective for n, o in outcomes.items()}
    delta = None
    if Variant.CURRENT_PRACTICE.value in objectives:
        delta = objective_delta_table(objectives)
    return DayEvaluation(market_day.label, outcomes, da_profit(da, market_day.da_lmp, system), delta)


def evaluate_day(
    system: PowerSystem,
    market_day: MarketDay,
    ledgers: Mapping[str, SimulationLedger],
    da: DaReference,
    cfg: ModelConfig | None = None,
    options: SolveOptions | None = None,
) -> DayEvaluation:
    """Settle every ledger as :func:`settle` does, each settlement model
    re-dated from the one before (:func:`full_day_resolve`), then
    assemble the day."""
    outcomes = {}
    model = None
    for name in sorted(ledgers, key=_variant_sort_key):
        model, sol = full_day_resolve(system, market_day, ledgers[name], da, cfg, options, model)
        outcomes[name] = _outcome(system, ledgers[name], da, model, sol)
    return assemble_day(system, market_day, outcomes, da)
