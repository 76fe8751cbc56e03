"""Smoke runs of the study scripts: each exits cleanly and prints its summary."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from pshlac.lac_models import Variant
from pshlac.rolling import RunControl, WindowInfeasibleError, run_day

from conftest import EXACT
from toys import rolling_day_setup

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args, timeout):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scaling_study_block_size_matches_the_built_models():
    # the tails enter as cuts on the edge storage: beyond a fixed window
    # part, rows grow by the printed cut count and, in the stochastic
    # model, columns by one tail value per scenario (one reservoir)
    T, L, units = 24, 3, 2
    for variant, cols_per_scenario in (("stochastic", 1), ("robust", 0)):
        out = _run("run_scaling_study.py", "--scenarios", "5", "10", "--variant", variant, timeout=120)
        found = {
            int(m[1]): tuple(int(v) for v in m.groups()[1:])
            for m in re.finditer(r"S=\s*(\d+): rows=\s*(\d+) cols=\s*(\d+) nnz=\s*\d+\s+optimal "
                                 r"build=\s*\d+\.\d{3}s wall=\s*[\d.]+s cuts=(\d+) per scenario (\d+)-(\d+) "
                                 r"blocks=0", out)
        }
        assert sorted(found) == [5, 10], out
        (r5, c5, n5, lo5, hi5), (r10, c10, n10, lo10, hi10) = found[5], found[10]
        assert r10 - n10 == r5 - n5, out
        assert c10 - c5 == 5 * cols_per_scenario, out
        assert 1 <= min(lo5, lo10) and max(hi5, hi10) <= 2 * units * (T - L) + 1, out


def test_synthetic_study_reports_every_variant():
    out = _run("run_synthetic_study.py", "--days", "1", "--scenarios", "2", timeout=300)
    assert re.search(r"^day000: ", out, re.M), out
    assert "mean realized objective over 1 days" in out
    for v in Variant:
        assert re.search(rf"^\s+{v.value}\s+-?\d+\.\d+\s+-?\d+\.\d+%$", out, re.M), (v, out)


def test_forecast_calibration_prints_the_fit_and_the_holdout_scores():
    out = _run("run_forecast_calibration.py", "--history-days", "80", "--holdout-days", "15",
               "--scenarios", "20", timeout=120)
    assert re.search(r"^bus: ar=\(-?\d\.\d+,\) ma=\(\) exog=\(-?\d\.\d+,\) sigma2=\d+\.\d\d$", out, re.M), out
    scores = re.search(
        r"^bus: KS stat=(\d\.\d{4}) p=(\d\.\d{4})  90% envelope coverage=(\d\.\d{3}) over 15 held-out days$",
        out, re.M,
    )
    assert scores, out
    assert all(0.0 <= float(v) <= 1.0 for v in scores.groups()), out


def test_replay_window_prints_the_status_and_the_conflict_rows(tmp_path):
    # the day-ahead plan drains the reservoir in hour 1, so the second
    # plan-following window is infeasible
    system, day, da = rolling_day_setup(da_gen=(20.0, 20.0, 20.0))
    with pytest.raises(WindowInfeasibleError) as err:
        run_day(system, day, Variant.CURRENT_PRACTICE, None, RunControl(solver=EXACT), da)
    dump = tmp_path / "failed_current_practice_w2.lp"
    dump.write_text(err.value.lp_text)
    out = _run("replay_window.py", str(dump), timeout=60)
    lines = out.splitlines()
    assert lines[0] == "status: Infeasible", out
    assert [ln.removeprefix("iis row: ") for ln in lines[1:]] == err.value.conflict_rows
    assert err.value.conflict_rows and all(ln.startswith("iis row: ") for ln in lines[1:])
