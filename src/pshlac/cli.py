"""Command line front end.

Four subcommands cover the study workflow:

  gen-instance  materialize a seeded synthetic system, day, and history
  forecast      fit the price model and write per-origin scenario files
  simulate      roll one day under one or more variants and settle it
  report        re-read ledgers from a run directory and print the tables

A run config is a small JSON file of file paths and model knobs; paths
are resolved relative to the config file itself.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import glob
import json
import multiprocessing
import os
import re
import shutil
import sys
import time
from dataclasses import dataclass, fields

from .accounting import AccountingError, VariantOutcome, assemble_day, evaluate_day, settle
from .core import (
    MarketDay,
    PowerSystem,
    read_scenario_csv,
    read_series_csv,
    read_system_json,
    json_mismatch,
    validate_system,
    write_scenario_csv,
    write_weights_csv,
)
from .forecast import EstimationError, ForecastConfig, ForecastPipeline
from .lac_models import (
    SCENARIO_VARIANTS,
    ConfigurationError,
    DaReference,
    ModelConfig,
    Variant,
    da_reference_from_system,
)
from .milp import FEASIBLE, SolveOptions, SolverError, reset_scheduler
from .rolling import (
    CARRIED,
    FrozenSetProvider,
    RunControl,
    SimulationLedger,
    WindowError,
    WindowInfeasibleError,
    run_day,
)
from .synth import SynthConfig, read_history_csv, write_bundle


class CliError(RuntimeError):
    pass


@dataclass
class RunConfig:
    system: str
    load: str
    da_lmp: str
    rt_lmp: str
    history: str | None = None
    label: str = "day"
    variant: str = "stochastic"
    scenarios: int = 50
    seed: int = 0
    end_soc: str = "fix"
    voll: float = 3500.0
    gap_tol: float = 1e-3
    time_limit: float = 60.0
    time_preference: float = 1e-5

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise CliError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise CliError(f"config {path} is {raw!r}, not a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(raw) - set(types))
        if unknown:
            raise CliError(f"config {path} has unknown keys: {', '.join(unknown)}")
        missing = [k for k in ("system", "load", "da_lmp", "rt_lmp") if k not in raw]
        if missing:
            raise CliError(f"config {path} is missing required keys: {', '.join(missing)}")
        for key, value in raw.items():
            mismatch = json_mismatch(value, types[key])
            if mismatch is not None:
                raise CliError(f"config {path} field {key!r} {mismatch}")
        cfg = cls(**raw)
        base = os.path.dirname(os.path.abspath(path))
        for key in ("system", "load", "da_lmp", "rt_lmp", "history"):
            val = getattr(cfg, key)
            if val is not None and not os.path.isabs(val):
                setattr(cfg, key, os.path.join(base, val))
        return cfg

    def run_control(self) -> RunControl:
        """The model knobs and the solver's limits of every window and of
        the settlement: ``gap_tol`` bounds the window MIPs, ``time_limit``
        each window and the settlement LP."""
        return RunControl(
            seed=self.seed,
            model=ModelConfig(voll=self.voll, end_soc=self.end_soc, time_preference=self.time_preference),
            solver=SolveOptions(gap_tol=self.gap_tol, time_limit=self.time_limit),
        )


def _load_day(cfg: RunConfig) -> MarketDay:
    load = read_series_csv(cfg.load)
    if "system" in load:
        load_series = load["system"]
    elif len(load) == 1:
        load_series = next(iter(load.values()))
    else:
        raise CliError(f"{cfg.load}: expected one load series, found {sorted(load)}")
    da = {k: tuple(v) for k, v in read_series_csv(cfg.da_lmp).items()}
    rt = {k: tuple(v) for k, v in read_series_csv(cfg.rt_lmp).items()}
    return MarketDay(cfg.label, tuple(load_series), da, rt)


def _read_checked(cfg: RunConfig) -> tuple[PowerSystem, MarketDay]:
    """The run's system and day, checked against each other."""
    system = read_system_json(cfg.system)
    day = _load_day(cfg)
    violations = validate_system(system, day)
    if violations:
        lines = "\n  ".join(str(v) for v in violations)
        raise CliError(f"input validation failed:\n  {lines}")
    return system, day


def _read_inputs(cfg: RunConfig) -> tuple[PowerSystem, MarketDay, DaReference]:
    """The run's system and day, checked, and the day-ahead plan the
    system carries; a plan the system lacks names the system file."""
    system, day = _read_checked(cfg)
    try:
        return system, day, da_reference_from_system(system)
    except ConfigurationError as exc:
        raise CliError(f"{cfg.system}: {exc}")


def _forecast_origins(system) -> list[int]:
    T = system.grid.horizon_end
    L = system.grid.window_length
    # origins whose window still leaves post-window hours to price
    return list(range(0, max(0, T - L)))


def cmd_gen_instance(args) -> int:
    cfg = SynthConfig(
        seed=args.seed, divergence=args.divergence,
        history_days=args.history_days, peak_load=args.peak_load,
    )
    paths = write_bundle(cfg, args.out, day_index=args.day_index)
    run_cfg = {
        "system": "system.json",
        "load": "load.csv",
        "da_lmp": "da_lmp.csv",
        "rt_lmp": "rt_lmp.csv",
        "history": "history.csv",
        "label": f"day{args.day_index:03d}",
        "scenarios": 50,
        "seed": cfg.seed,
    }
    cfg_path = os.path.join(args.out, "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(run_cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    print(f"wrote {cfg_path}")
    return 0


def cmd_forecast(args) -> int:
    cfg = RunConfig.from_file(args.config)
    if cfg.history is None:
        raise CliError("config has no 'history' entry; forecasting needs training data")
    system, day = _read_checked(cfg)
    count = args.scenarios if args.scenarios is not None else cfg.scenarios
    seed = args.seed if args.seed is not None else cfg.seed
    history = read_history_csv(cfg.history)

    T = system.grid.horizon_end
    fc_cfg = ForecastConfig(horizon=T)
    pipe = ForecastPipeline(fc_cfg).fit(history)

    os.makedirs(args.out, exist_ok=True)
    origins = _forecast_origins(system)
    for t0 in origins:
        point = pipe.point_set(t0, day.rt_lmp_actual, day.da_lmp, T)
        write_scenario_csv(os.path.join(args.out, f"point_t{t0:02d}.csv"), point)
        if count == 1:
            scn = point
        else:
            scn = pipe.scenario_set(t0, day.rt_lmp_actual, day.da_lmp, T, count, seed)
        write_scenario_csv(os.path.join(args.out, f"scenarios_t{t0:02d}.csv"), scn)
        write_weights_csv(os.path.join(args.out, f"weights_t{t0:02d}.csv"), scn)

    meta = {"scenarios": count, "seed": seed, "origins": origins, "horizon": T,
            "nodes": list(pipe.nodes)}
    with open(os.path.join(args.out, "forecast_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if not args.no_diagnostics:
        diag = _holdout_diagnostics(history, fc_cfg, seed)
        with open(os.path.join(args.out, "diagnostics.json"), "w") as fh:
            json.dump(diag, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for node, d in sorted(diag.items()):
            print(
                f"{node}: holdout KS p={d['ks_pvalue']:.3f} "
                f"90% envelope coverage={d['coverage_90']:.3f} over {d['n_days']} days"
            )
    print(f"wrote forecasts for {len(origins)} origins to {args.out}")
    return 0


def _holdout_diagnostics(history, fc_cfg: ForecastConfig, seed: int) -> dict:
    """Refit on the first 80 percent of days and score the rest."""
    split: dict[str, tuple] = {}
    test: dict[str, tuple] = {}
    H = fc_cfg.horizon
    for node, (rt, da) in history.items():
        n_days = len(rt) // H
        k = max(fc_cfg.min_train_days, int(n_days * 0.8))
        if k >= n_days:
            return {node: {"ks_stat": float("nan"), "ks_pvalue": float("nan"), "n_pits": 0,
                           "coverage_90": float("nan"), "n_days": 0}
                    for node in history}
        split[node] = (rt[: k * H], da[: k * H])
        test[node] = (rt[k * H:], da[k * H:])
    probe = ForecastPipeline(fc_cfg).fit(split)
    return probe.diagnostics(test, seed=seed)


def _parse_variants(raw: list[str] | None, cfg: RunConfig) -> list[Variant]:
    if not raw:
        names = [cfg.variant]
    else:
        names = []
        for item in raw:
            names.extend(x.strip() for x in item.split(",") if x.strip())
    if names == ["all"]:
        return list(Variant)
    out = []
    for name in names:
        try:
            out.append(Variant(name))
        except ValueError:
            choices = ", ".join(v.value for v in Variant)
            raise CliError(f"unknown variant {name!r}; choose from {choices} or 'all'")
    return out


def _load_forecast_dir(path: str) -> FrozenSetProvider:
    if not path or not os.path.isdir(path):
        raise CliError(
            f"forecast directory {path!r} not found; "
            "run `pshlac forecast --config <run.json> --out <dir>` first"
        )
    sets = {}
    points = {}
    for f in glob.glob(os.path.join(path, "scenarios_t*.csv")):
        t0 = int(re.search(r"scenarios_t(\d+)\.csv$", f).group(1))
        weights = os.path.join(path, f"weights_t{t0:02d}.csv")
        sets[t0] = read_scenario_csv(f, weights if os.path.exists(weights) else None)
    for f in glob.glob(os.path.join(path, "point_t*.csv")):
        t0 = int(re.search(r"point_t(\d+)\.csv$", f).group(1))
        points[t0] = read_scenario_csv(f)
    if not sets and not points:
        raise CliError(
            f"no scenario files in {path}; "
            "run `pshlac forecast --config <run.json> --out <dir>` first"
        )
    return FrozenSetProvider(sets, points)


def _missing_forecast_files(path: str, variants: list[Variant], origins: list[int]) -> list[str]:
    """The files of ``path`` that rolling ``variants`` would read and
    that are not there: the point forecasts of a deterministic day, the
    scenario sets of a stochastic or robust one, one per origin."""
    kinds = []
    if any(v in (Variant.STOCHASTIC, Variant.ROBUST) for v in variants):
        kinds.append("scenarios")
    if Variant.DETERMINISTIC in variants:
        kinds.append("point")
    names = [f"{kind}_t{t0:02d}.csv" for kind in kinds for t0 in origins]
    return [name for name in names if not os.path.exists(os.path.join(path, name))]


def _run_variant(system, day, provider, control, da, variant: Variant) -> tuple[SimulationLedger, VariantOutcome]:
    # looks run_day up in this module when it runs, in a worker as in
    # this process, so a replacement set on the module applies to both;
    # each ledger is settled where it was rolled
    ledger = run_day(system, day, variant, provider, control, da)
    return ledger, settle(system, day, ledger, da, control.model, control.solver)


def fork_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A pool of ``workers`` processes, forked from this one at the first
    submit.

    Forked workers start from this process's modules as they are, with
    nothing to import again, and send back their results pickled.
    HiGHS's scheduler threads do not survive a fork, so they are stopped
    here; submit before solving anything else.
    """
    reset_scheduler()
    return concurrent.futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, not {args.jobs}")
    cfg = RunConfig.from_file(args.config)
    control = cfg.run_control()
    variants = _parse_variants(args.variant, cfg)
    system, day, da = _read_inputs(cfg)

    needs = [v for v in variants if v in SCENARIO_VARIANTS]
    provider = _load_forecast_dir(args.forecast_dir) if needs else None
    missing = _missing_forecast_files(args.forecast_dir, needs, _forecast_origins(system))
    if missing:
        raise CliError(f"{args.forecast_dir} lacks forecast files the requested variants read: "
                       f"{', '.join(missing)}; run `pshlac forecast --config <run.json> --out <dir>` first")
    if provider is not None and provider.counts - {cfg.scenarios}:
        held = ", ".join(map(str, sorted(provider.counts)))
        print(f"warning: {args.config} asks for {cfg.scenarios} scenarios, but the scenario files in "
              f"{args.forecast_dir} hold {held}; simulating with the trajectories on file", file=sys.stderr)

    label = args.label or time.strftime("run_%Y%m%d_%H%M%S")
    outdir = os.path.join(args.out, label)
    os.makedirs(outdir, exist_ok=True)
    shutil.copy(args.config, os.path.join(outdir, "run_config.json"))

    # a rolled day is mostly Python, which threads cannot overlap, so the
    # variants go to processes; one worker runs them here and forks none
    task = functools.partial(_run_variant, system, day, provider, control, da)
    workers = min(args.jobs, len(variants))
    try:
        if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            with fork_pool(workers) as pool:
                results = list(pool.map(task, variants))
        else:
            results = [task(v) for v in variants]
    except WindowInfeasibleError as exc:
        path = os.path.join(outdir, f"failed_{exc.variant}_w{exc.window_index}.lp")
        with open(path, "w") as fh:
            fh.write(exc.lp_text)
        raise CliError(f"{exc}; window model written to {path}") from exc

    ledgers: dict[str, SimulationLedger] = {}
    outcomes: dict[str, VariantOutcome] = {}
    for variant, (led, outcome) in zip(variants, results):
        ledgers[variant.value] = led
        outcomes[variant.value] = outcome
        limited = sum(w.status == FEASIBLE for w in led.windows)
        carried = sum(w.incumbent == CARRIED for w in led.windows)
        print(f"{variant.value}: {len(led.windows) - carried} windows solved, {limited} time-limited"
              + (f", {carried} carried by their certificate" if carried else ""))

    for name, led in sorted(ledgers.items()):
        led.to_jsonl(os.path.join(outdir, f"ledger_{name}.jsonl"))
        led.write_metrics_csv(os.path.join(outdir, f"metrics_{name}.csv"))

    ev = assemble_day(system, day, outcomes, da)
    ev.write_objective_csv(os.path.join(outdir, "objective_table.csv"))
    ev.write_profit_csv(os.path.join(outdir, "profit_table.csv"))
    node = system.psh_units[0].node_id if system.psh_units else sorted(day.da_lmp)[0]
    ev.write_lmp_csv(os.path.join(outdir, "fig_lmp.csv"), day, node)
    ev.write_dispatch_csv(os.path.join(outdir, "fig_dispatch.csv"), system, da, ledgers)
    summary = ev.format_text()
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")
    print(f"run written to {outdir}")
    return 0


def cmd_report(args) -> int:
    cfg = RunConfig.from_file(args.config)
    system, day, da = _read_inputs(cfg)
    paths = sorted(glob.glob(os.path.join(args.run_dir, "ledger_*.jsonl")))
    if not paths:
        raise CliError(f"no ledger_*.jsonl files in {args.run_dir}")
    ledgers = {}
    for p in paths:
        led = SimulationLedger.from_jsonl(p)
        ledgers[led.variant] = led
    control = cfg.run_control()
    ev = evaluate_day(system, day, ledgers, da, control.model, control.solver)
    print(ev.format_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pshlac", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-instance", help="write a seeded synthetic study bundle")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--day-index", type=int, default=0)
    g.add_argument("--divergence", type=float, default=SynthConfig.divergence)
    g.add_argument("--history-days", type=int, default=SynthConfig.history_days)
    g.add_argument("--peak-load", type=float, default=SynthConfig.peak_load)
    g.set_defaults(func=cmd_gen_instance)

    f = sub.add_parser("forecast", help="fit the price model and write scenario files")
    f.add_argument("--config", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--scenarios", type=int, default=None, help="override config scenario count")
    f.add_argument("--seed", type=int, default=None, help="override config seed")
    f.add_argument("--no-diagnostics", action="store_true")
    f.set_defaults(func=cmd_forecast)

    s = sub.add_parser("simulate", help="roll one day and settle it")
    s.add_argument("--config", required=True)
    s.add_argument("--forecast-dir", default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--variant", action="append", default=None,
                   help="variant name, 'all', or comma separated list (repeatable)")
    s.add_argument("--label", default=None, help="run directory name (default: timestamp)")
    s.add_argument("--jobs", type=int, default=1, help="roll the variants in up to N forked worker processes")
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("report", help="reprint tables for an existing run directory")
    r.add_argument("--config", required=True)
    r.add_argument("--run-dir", required=True)
    r.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigurationError, EstimationError, AccountingError,
            SolverError, WindowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
