"""The package surface the benchmark uses must exist.

``benchmark/run.py`` times each layer by replacing module and class
attributes (``rolling.build_variant``, ``cli.run_day``, ``milp.milp``, ...)
with recording wrappers, and ``benchmark/workloads.py`` builds its run
controls from package fields (``RunControl.scenario_count``,
``ModelConfig.gap_tol``, ...).  A refactor that renames or drops one of
them breaks the benchmark; installing the tracer and constructing each
workload here makes that fail in the unit suite instead.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmark")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import pytest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pshlac import rolling  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_constructs(name, tmp_path):
    # the constructor only: set-up and rounds belong to the benchmark run
    workload = workloads.WORKLOADS[name](seed=1, workdir=str(tmp_path))
    assert workload.name == name


def test_tracer_targets_exist_and_restore():
    original = rolling.build_variant
    tracer = tracing.Tracer()
    try:
        run.install_tracing(tracer)
        assert rolling.build_variant is not original
    finally:
        tracer.restore()
    assert rolling.build_variant is original


def test_highs_span_sits_inside_each_window_solve(toy_day):
    # ``milp.highs`` times the one HiGHS call of each ``solve``; matrix
    # assembly stays outside it, in the ``milp.solve`` span's own time.
    # current_practice and stochastic solve every window (a perfect day
    # carries its later windows without a solve).  A stochastic day plans
    # its tails before its first window, in ``rolling.run_day``'s own
    # time, and builds and solves each window once
    from pshlac.lac_models import Variant
    from toys import full_set_for_day

    system, day, da = toy_day
    provider = rolling.FrozenSetProvider({0: full_set_for_day(((30.0, 30.0, 30.0),))})
    for variant in (Variant.CURRENT_PRACTICE, Variant.STOCHASTIC):
        tracer = tracing.Tracer()
        try:
            run.install_tracing(tracer)
            with tracer.operation("day"):
                rolling.run_day(system, day, variant, provider, None, da)
        finally:
            tracer.restore()
        solves = {s["id"]: s for s in tracer.spans if s["name"] == "milp.solve"}
        builds = [s for s in tracer.spans if s["name"] == "lac_models.build"]
        highs = [s for s in tracer.spans if s["name"] == "milp.highs"]
        assert len(solves) == len(builds) == 2  # T - L + 1 windows of the toy day
        assert sorted(s["parent"] for s in highs) == sorted(solves)
        for s in highs:
            outer = solves[s["parent"]]
            assert outer["start"] < s["start"] and s["end"] < outer["end"]
