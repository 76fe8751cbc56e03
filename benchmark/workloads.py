"""The benchmark's three workloads.

Each workload has a ``setup`` (the untimed preparation, which the runner
repeats to time it) and a ``round`` of operations.  A round always runs
the same operations, so the share of failed operations does not depend
on the seed or on how many rounds fit in a run.

Layer functions are called through their module or class attribute
(``synth.make_day``, ``rolling.run_day``), so the wrappers of a traced run
see the benchmark's calls as well as the calls between layers.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from dataclasses import asdict
from statistics import mean

import numpy as np

from pshlac import accounting, cli, forecast, rolling, synth
from pshlac.lac_models import ModelConfig, Variant
from pshlac.milp import SolveOptions

import checks

STUDY_SEED = 11
HORIZON = 24
WINDOWS_PER_DAY = 22  # 3-hour windows starting at hours 1..22
VARIANTS = tuple(v.value for v in Variant)


class RollS10:
    """Days 0-1 of the seed-11 study, every variant at S=10, gap 1e-5.

    The seed orders the ten rolls and the settlements; the instances
    and the scenario sampler's seed are fixed, because MILP wall time
    depends on the instance (the robust days of one sampler seed took
    9.8 s to 14.8 s over five seeds) and a seeded instance would put that
    spread into every comparison.
    """

    name = "roll_s10"
    days = (0, 1)
    scenarios = 10
    gap = 1e-5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.control = rolling.RunControl(
            scenario_count=self.scenarios, seed=STUDY_SEED,
            model=ModelConfig(gap_tol=self.gap),
            solver=SolveOptions(gap_tol=self.gap, time_limit=120.0),
        )
        self.settled: dict[str, dict[str, float]] = {}

    def setup(self) -> None:
        cfg = synth.SynthConfig(seed=STUDY_SEED)
        base = synth.make_system(cfg)
        pipe = forecast.ForecastPipeline(forecast.ForecastConfig()).fit(synth.make_history(cfg))
        self.study = [synth.make_day(cfg, k, base_system=base) for k in self.days]
        self.pipe = pipe

    def round(self, tally) -> None:
        order = random.Random(self.seed)
        days = list(range(len(self.days)))
        order.shuffle(days)
        for k in days:
            sd = self.study[k]
            provider = rolling.PipelineProvider(
                self.pipe, sd.market_day.da_lmp, HORIZON, self.scenarios, STUDY_SEED
            )
            system = asdict(sd.system)
            variants = list(VARIANTS)
            order.shuffle(variants)
            ledgers = {}
            for name in variants:
                with tally.op(f"day_{name}", day=k) as op:
                    ledgers[name] = rolling.run_day(
                        sd.system, sd.market_day, Variant(name), provider, self.control, sd.da
                    )
                if op.ok:
                    led = ledgers[name]
                    tally.verify(checks.check_ledger(
                        system, sd.market_day.load, [asdict(h) for h in led.hours], sd.da.end_soc))
                    tally.verify(checks.check_windows([w.status for w in led.windows], WINDOWS_PER_DAY))
            with tally.op("settle", day=k) as op:
                ev = accounting.evaluate_day(sd.system, sd.market_day, ledgers, sd.da, self.control.model)
            if op.ok:
                objectives = {n: o.objective for n, o in ev.outcomes.items()}
                self.settled[sd.market_day.label] = objectives
                tally.verify(checks.check_settlement(
                    objectives, ev.outcomes["current_practice"].profit, self.gap))

    def details(self, times: dict[str, list[float]]) -> dict:
        out = {f"day_{v}_s": mean(times[f"day_{v}"]) for v in ("deterministic", "stochastic", "robust")}
        out["day_references_s"] = mean(times["day_current_practice"]) + mean(times["day_perfect"])
        out["settle_s"] = mean(times["settle"])
        out["settled_cost"] = self.settled
        return out


class CliS20Jobs2:
    """The README walkthrough through ``pshlac.cli.main``.

    ``gen-instance --seed 11`` is the set-up; a round is ``forecast
    --scenarios 20`` with holdout diagnostics, ``simulate --variant all
    --jobs 2`` at the command line defaults (gap 1e-3, 60 s) and
    ``report``.  The inputs are the walkthrough's and do not depend on
    the seed, which only names the run directories.
    """

    name = "cli_s20_jobs2"
    scenarios = 20
    gap = 1e-3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.study = os.path.join(workdir, "study")
        self.config = os.path.join(self.study, "run.json")
        self.rounds = 0
        self.settled: dict[str, float] = {}

    def _main(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def setup(self) -> None:
        shutil.rmtree(self.study, ignore_errors=True)
        rc, _ = self._main(["gen-instance", "--seed", str(STUDY_SEED), "--out", self.study])
        if rc != 0:
            raise RuntimeError(f"gen-instance exited {rc}")
        self.system = checks.read_system(os.path.join(self.study, "system.json"))
        self.load = checks.read_load(os.path.join(self.study, "load.csv"))

    def round(self, tally) -> None:
        self.rounds += 1
        label = f"s{self.seed}r{self.rounds}"
        fc_dir = os.path.join(self.study, f"forecasts_{label}")
        runs = os.path.join(self.study, "runs")
        run_dir = os.path.join(runs, label)
        T = int(self.system["grid"]["horizon_end"])
        origins = range(0, T - int(self.system["grid"]["window_length"]))

        with tally.op("forecast_cmd") as op:
            rc, _ = self._main(["forecast", "--config", self.config, "--out", fc_dir,
                                "--scenarios", str(self.scenarios)])
            op.require(rc == 0, f"forecast exited {rc}")
        if op.ok:
            names = ["forecast_meta.json", "diagnostics.json"]
            names += [f"{kind}_t{t0:02d}.csv" for t0 in origins for kind in ("scenarios", "point", "weights")]
            missing = checks.check_files(fc_dir, names)
            tally.verify(missing)
            if not missing:
                for t0 in origins:
                    tally.verify(checks.check_scenario_file(
                        os.path.join(fc_dir, f"scenarios_t{t0:02d}.csv"),
                        os.path.join(fc_dir, f"weights_t{t0:02d}.csv"), t0, T, self.scenarios))

        with tally.op("simulate_cmd") as op:
            rc, _ = self._main(["simulate", "--config", self.config, "--forecast-dir", fc_dir,
                                "--out", runs, "--variant", "all", "--jobs", "2", "--label", label])
            op.require(rc == 0, f"simulate exited {rc}")
        if op.ok:
            names = ["objective_table.csv", "profit_table.csv", "summary.txt"]
            names += [f"{kind}_{v}.{ext}" for v in VARIANTS
                      for kind, ext in (("ledger", "jsonl"), ("metrics", "csv"))]
            missing = checks.check_files(run_dir, names)
            tally.verify(missing)
            if not missing:
                targets = {r["id"]: r["e_final_target"] for r in self.system["reservoirs"]}
                for v in VARIANTS:
                    hours = checks.read_ledger(os.path.join(run_dir, f"ledger_{v}.jsonl"))
                    tally.verify(checks.check_ledger(self.system, self.load, hours, targets))
                    tally.verify(checks.check_windows(
                        checks.read_window_statuses(os.path.join(run_dir, f"metrics_{v}.csv")),
                        WINDOWS_PER_DAY))
                self.settled = checks.read_objective_table(os.path.join(run_dir, "objective_table.csv"))
                profits = checks.read_profit_table(os.path.join(run_dir, "profit_table.csv"))
                tally.verify(checks.check_settlement(self.settled, profits["current_practice"], self.gap))

        with tally.op("report_cmd") as op:
            rc, text = self._main(["report", "--config", self.config, "--run-dir", run_dir])
            op.require(rc == 0, f"report exited {rc}")
        if op.ok and self.settled:
            with open(os.path.join(run_dir, "summary.txt")) as fh:
                tally.verify(checks.check_report(text, fh.read(), self.settled))

    def details(self, times: dict[str, list[float]]) -> dict:
        return {
            "forecast_cmd_s": mean(times["forecast_cmd"]),
            "simulate_cmd_s": mean(times["simulate_cmd"]),
            "report_cmd_s": mean(times["report_cmd"]),
            "settled_cost": self.settled,
        }


class ForecastS200:
    """The scenario forecaster alone, no MILP.

    Set-up fits the pipeline on days 1-90 of the seed-11 history and a
    holdout probe on days 1-72.  A round draws the S=200 scenario set and
    the point set for the 21 origins of each held-out day 91-100, then
    scores the probe on days 73-90 at count 200.  The sets use the
    study's sampler seed, so the marginal check, which fails on every set
    until the copula fault is mended, fails the same way on every run.
    The seed draws the holdout diagnostics' trajectories.
    """

    name = "forecast_s200"
    count = 200
    train_days = 90
    probe_days = 72
    heldout_days = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        H = HORIZON
        cfg = synth.SynthConfig(seed=STUDY_SEED, history_days=self.train_days + self.heldout_days)
        history = synth.make_history(cfg)

        def days(a: int, b: int) -> dict:
            return {n: (rt[a * H:b * H], da[a * H:b * H]) for n, (rt, da) in history.items()}

        self.pipe = forecast.ForecastPipeline(forecast.ForecastConfig()).fit(days(0, self.train_days))
        self.probe = forecast.ForecastPipeline(forecast.ForecastConfig()).fit(days(0, self.probe_days))
        self.test = days(self.probe_days, self.train_days)
        self.heldout = [days(d, d + 1) for d in range(self.train_days, self.train_days + self.heldout_days)]
        # 0.05 and 0.95 error quantiles of the fitted curves, per node and lead
        self.bands = {}
        for node in self.pipe.nodes:
            curves = self.pipe._nodes[node].curves
            idx = [curves[0].levels.index(q) for q in checks.MARGINAL_LEVELS]
            self.bands[node] = np.array([[c.values[i] for c in curves] for i in idx])

    def round(self, tally) -> None:
        for day in self.heldout:
            rt = {n: tuple(v[0]) for n, v in day.items()}
            da = {n: tuple(v[1]) for n, v in day.items()}
            for t0 in range(0, HORIZON - 3):
                with tally.op("point_set") as op:
                    point = self.pipe.point_set(t0, rt, da, HORIZON)
                if op.ok:
                    tally.verify(checks.check_scenario_set(
                        point.prices, point.weights, point.start_hour, t0, HORIZON, 1))
                with tally.op("scenario_set") as op:
                    scn = self.pipe.scenario_set(t0, rt, da, HORIZON, self.count, STUDY_SEED)
                if op.ok:
                    tally.verify(checks.check_scenario_set(
                        scn.prices, scn.weights, scn.start_hour, t0, HORIZON, self.count))
                    for ni, node in enumerate(scn.nodes):
                        H = HORIZON - t0
                        tally.known_fault(op, checks.check_marginal(
                            scn.prices[:, ni, :], point.prices[0, ni, :], self.bands[node][:, :H],
                            f"t0={t0} {node}"))
        with tally.op("diagnostics") as op:
            diag = self.probe.diagnostics(self.test, count=self.count, seed=self.seed)
        if op.ok:
            tally.verify(checks.check_diagnostics(diag))

    def details(self, times: dict[str, list[float]]) -> dict:
        rounds = len(times["diagnostics"])
        return {
            "sample_s": (sum(times["scenario_set"]) + sum(times["point_set"])) / rounds,
            "calibration_s": mean(times["diagnostics"]),
        }


WORKLOADS = {w.name: w for w in (RollS10, CliS20Jobs2, ForecastS200)}
