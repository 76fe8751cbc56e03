"""The package attributes the benchmark's tracer wraps must exist.

``benchmark/run.py`` times each layer by replacing module and class
attributes (``rolling.build_variant``, ``cli.run_day``, ``milp.milp``, ...)
with recording wrappers.  A refactor that renames or drops one of them
breaks the traced benchmark; installing the tracer here makes that fail
in the unit suite instead.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmark")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
from pshlac import rolling  # noqa: E402


def test_tracer_targets_exist_and_restore():
    original = rolling.build_variant
    tracer = tracing.Tracer()
    try:
        run.install_tracing(tracer)
        assert rolling.build_variant is not original
    finally:
        tracer.restore()
    assert rolling.build_variant is original
