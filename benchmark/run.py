#!/usr/bin/env python3
"""Benchmark of the pshlac study kit.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload roll_s10 --seed 1 --seconds 32 --trace 0

It builds nothing and installs nothing: the package is imported from
``src/`` next to this directory.  Set-up is timed three times and its
median reported as ``setup_s``; then whole rounds of the workload run,
at least one, while a round as long as the median one so far would still
end within ``--seconds``, and ``study_s`` is the mean round time: the
machine's speed drifts over tens of seconds, so every round's time counts.
Every output is checked; a problem is printed on standard error.

With ``--trace 1`` the same run records spans around the calls into each
layer, writes them to ``.bench_out/``, and reports the per-layer metrics
instead of the end-to-end ones.  The last line of standard output is the
result as one JSON object; the line before it holds the workload's own
figures (per-variant day times, command times, settled costs) for
reference.
"""

from __future__ import annotations

import os

# one thread of native work per caller: the load must come from at most
# the two threads the command line pool starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

PER_LAYER_UNITS = {
    "synth.history_s": "s",
    "synth.make_day_s": "s",
    "forecast.fit_s": "s",
    "forecast.sample_s": "s",
    "forecast.trajectories": "count",
    "forecast.diagnostics_s": "s",
    "lac_models.build_s": "s",
    "lac_models.windows": "count",
    "lac_models.rows": "count",
    "lac_models.nonzeros": "count",
    "lac_models.binaries": "count",
    "milp.solve_s": "s",
    "milp.highs_s": "s",
    "milp.assembly_s": "s",
    "milp.first_window_highs_s": "s",
    "milp.degraded": "count",
    "rolling.self_s": "s",
    "accounting.resolve_s": "s",
    "accounting.resolves": "count",
    "core.io_s": "s",
    "core.bytes_written": "bytes",
    "cli.pool_busy_s": "s",
    "cli.critical_path_s": "s",
    "trace.study_s": "s",
    "trace.overhead_s": "s",
}


class Op:
    def __init__(self) -> None:
        self.ok = True
        self.problems: list[str] = []

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.ok = False
            self.problems.append(problem)


class Tally:
    """Counts operations, times them and collects check results.

    An operation fails when the program raises, exits non-zero, or shows
    the known copula fault.  Any other failed check marks the run
    incorrect.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times: dict[str, list[float]] = defaultdict(list)
        self.round_s = 0.0
        self._reported: set[str] = set()

    @contextmanager
    def op(self, name: str, **attrs):
        self.attempted += 1
        op = Op()
        span = self.tracer.operation(name, **attrs) if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                yield op
        except Exception:
            op.ok = False
            op.problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.times[name].append(elapsed)
        self.round_s += elapsed
        if not op.ok:
            self.failed += 1
            self._report(f"failed {name}", op.problems)

    def verify(self, problems: list[str]) -> None:
        if problems:
            self.correct = False
            self._report("check", problems)

    def known_fault(self, op: Op, problems: list[str]) -> None:
        """Fail a finished operation on a check of the known copula fault."""
        if problems and op.ok:
            op.ok = False
            self.failed += 1
            self._report("known fault", problems)

    def _report(self, what: str, problems: list[str]) -> None:
        # one line per kind of problem, so a fault on every set stays readable
        for p in problems:
            key = what + ":" + p.split(":", 1)[0]
            if key not in self._reported:
                self._reported.add(key)
                print(f"{what}: {p}", file=sys.stderr)


def install_tracing(tracer) -> None:
    from pshlac import accounting, cli, forecast, milp, rolling, synth

    def trajectories(args, kwargs, result):
        return {"trajectories": result.count}

    def model_size(args, kwargs, model):
        return {"rows": model.n_rows, "nonzeros": model.n_nonzeros, "binaries": model.n_binaries}

    def solve_outcome(args, kwargs, sol):
        return {"t1": args[0].meta["window_hours"][0], "status": sol.status}

    def written(position):
        def attrs(args, kwargs, result):
            return {"bytes": os.path.getsize(args[position])}
        return attrs

    pipeline = forecast.ForecastPipeline
    tracer.wrap(synth, "make_history", "synth.make_history")
    tracer.wrap(synth, "make_day", "synth.make_day")
    tracer.wrap(pipeline, "fit", "forecast.fit")
    tracer.wrap(pipeline, "scenario_set", "forecast.sample", trajectories)
    tracer.wrap(pipeline, "point_set", "forecast.sample", trajectories)
    tracer.wrap(pipeline, "diagnostics", "forecast.diagnostics")
    tracer.wrap(rolling, "build_variant", "lac_models.build", model_size)
    tracer.wrap(rolling, "solve", "milp.solve", solve_outcome)
    tracer.wrap(milp, "milp", "milp.highs", under="milp.solve")
    tracer.wrap(rolling, "run_day", "rolling.run_day")
    tracer.wrap(cli, "run_day", "rolling.run_day")
    tracer.wrap(accounting, "full_day_resolve", "accounting.resolve")
    tracer.wrap(cli, "write_scenario_csv", "core.io", written(0))
    tracer.wrap(cli, "write_weights_csv", "core.io", written(0))
    tracer.wrap(cli, "read_scenario_csv", "core.io")
    tracer.wrap(rolling.SimulationLedger, "to_jsonl", "core.io", written(1))
    tracer.wrap(rolling.SimulationLedger, "write_metrics_csv", "core.io", written(1))
    tracer.wrap(rolling.SimulationLedger, "from_jsonl", "core.io")
    for attr in ("write_objective_csv", "write_profit_csv", "write_lmp_csv", "write_dispatch_csv"):
        tracer.wrap(accounting.DayEvaluation, attr, "core.io", written(1))


def layer_metrics(tracer, setups: int, rounds: int, study_s: float) -> dict[str, float]:
    """Per-layer figures per set-up plus per round, from self times."""
    from tracing import self_times

    spans = tracer.spans
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    longest: dict[int, float] = defaultdict(float)

    def add(metric: str, value: float, phase: str) -> None:
        out[metric] += value / (setups if phase == "setup" else rounds)

    for s in spans:
        name, attrs, phase = s["name"], s["attrs"], s["phase"]
        length = s["end"] - s["start"]
        t_own = own[s["id"]]
        if name == "synth.make_history":
            add("synth.history_s", t_own, phase)
        elif name == "synth.make_day":
            add("synth.make_day_s", t_own, phase)
        elif name == "forecast.fit":
            add("forecast.fit_s", t_own, phase)
        elif name == "forecast.sample":
            add("forecast.sample_s", t_own, phase)
            add("forecast.trajectories", attrs["trajectories"], phase)
        elif name == "forecast.diagnostics":
            add("forecast.diagnostics_s", t_own, phase)
        elif name == "lac_models.build":
            add("lac_models.build_s", t_own, phase)
            add("lac_models.windows", 1, phase)
            for key in ("rows", "nonzeros", "binaries"):
                add(f"lac_models.{key}", attrs[key], phase)
        elif name == "milp.solve":
            add("milp.solve_s", length, phase)
            add("milp.assembly_s", t_own, phase)
            add("milp.degraded", attrs.get("status") == "feasible", phase)
        elif name == "milp.highs":
            add("milp.highs_s", length, phase)
            if by_id[s["parent"]]["attrs"].get("t1") == 1:
                add("milp.first_window_highs_s", length, phase)
        elif name == "rolling.run_day":
            add("rolling.self_s", t_own, phase)
            root = by_id[s["op"]]
            if root["name"] == "simulate_cmd":
                add("cli.pool_busy_s", length, phase)
                longest[root["id"]] = max(longest[root["id"]], length)
        elif name == "accounting.resolve":
            add("accounting.resolve_s", t_own, phase)
            add("accounting.resolves", 1, phase)
        elif name == "core.io":
            add("core.io_s", t_own, phase)
            add("core.bytes_written", attrs.get("bytes", 0), phase)
    out["cli.critical_path_s"] = sum(longest.values()) / rounds
    out["trace.study_s"] = study_s
    out["trace.overhead_s"] = tracer.overhead_s["round"] / rounds
    return out


def write_trace(tracer, path: Path, metrics: dict) -> None:
    t0 = min((s["start"] for s in tracer.spans), default=0.0)
    spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in tracer.spans]
    spans.sort(key=lambda s: s["start"])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, "spans": spans}, fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pshlac" / "__init__.py").is_file():
        print(f"error: no pshlac package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    tracer = Tracer() if args.trace else None
    if tracer:
        install_tracing(tracer)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            with tracer.operation("setup") if tracer else nullcontext():
                workload.setup()
            setup_times.append(time.perf_counter() - start)

        tally = Tally(tracer)
        if tracer:
            tracer.phase = "round"
        round_times = []
        round_walls = []
        started = time.perf_counter()
        # another round only if one as long as the median so far still ends
        # within --seconds, so a run never overshoots by most of a round
        while not round_times or (time.perf_counter() - started
                                  + statistics.median(round_walls) <= args.seconds):
            tally.round_s = 0.0
            round_start = time.perf_counter()
            workload.round(tally)
            round_walls.append(time.perf_counter() - round_start)
            round_times.append(tally.round_s)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    study_s = statistics.fmean(round_times)
    if tracer:
        values = layer_metrics(tracer, SETUP_REPEATS, len(round_times), study_s)
        write_trace(tracer, OUT / f"trace-{args.workload}-seed{args.seed}.json", values)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "study_s": {"value": study_s, "unit": "s"},
        }
    detail = {"workload": args.workload, "seed": args.seed, "rounds": len(round_times),
              "round_wall_s": round_walls, "setup_runs_s": setup_times, **workload.details(tally.times)}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
