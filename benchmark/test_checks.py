"""Tests of the benchmark's own output checks and span arithmetic.

Run from the root of the checkout:

    python3 -m pytest benchmark/test_checks.py -q

Every check must accept a correct output and reject a deliberately
broken one.
"""

import copy
import os
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), HERE]

import checks  # noqa: E402
from tracing import self_times  # noqa: E402
from pshlac.accounting import evaluate_day  # noqa: E402
from pshlac.core import PriceScenarioSet, write_scenario_csv, write_weights_csv  # noqa: E402
from pshlac.forecast import (  # noqa: E402
    CovarianceTracker,
    ForecastConfig,
    ForecastPipeline,
    generate_scenarios,
)
from pshlac.lac_models import Variant  # noqa: E402
from pshlac.rolling import run_day  # noqa: E402
from pshlac.synth import NODE, SynthConfig, make_day, make_history  # noqa: E402

T = 24


@pytest.fixture(scope="module")
def day():
    sd = make_day(SynthConfig(seed=11), 0)
    ledgers = {v.value: run_day(sd.system, sd.market_day, v, None, da=sd.da)
               for v in (Variant.CURRENT_PRACTICE, Variant.PERFECT)}
    return sd, ledgers


@pytest.fixture(scope="module")
def pipe():
    return ForecastPipeline(ForecastConfig()).fit(make_history(SynthConfig(seed=11)))


def _hours(ledger):
    return [asdict(h) for h in ledger.hours]


def _check(sd, hours):
    return checks.check_ledger(asdict(sd.system), sd.market_day.load, hours, sd.da.end_soc)


def _kinds(problems):
    return {p.split(":", 1)[0] for p in problems}


def _bands(pipe, H):
    curves = pipe._nodes[NODE].curves
    idx = [curves[0].levels.index(q) for q in checks.MARGINAL_LEVELS]
    return np.array([[c.values[i] for c in curves[:H]] for i in idx])


def _fan(pipe, tracker, t0, seed=11, count=200):
    H = T - t0
    nm = pipe._nodes[NODE]
    point = pipe.point_forecast(NODE, t0, nm.rt[:T], nm.da[:T], T)
    scn = generate_scenarios({NODE: point}, {NODE: nm.curves[:H]},
                             tracker, count, (seed, t0), t0 + 1)
    return scn, point


def test_rolled_ledgers_pass(day):
    sd, ledgers = day
    for led in ledgers.values():
        assert _check(sd, _hours(led)) == []
        assert checks.check_windows([w.status for w in led.windows], 22) == []


def test_hour_out_of_balance_rejected(day):
    sd, ledgers = day
    hours = copy.deepcopy(_hours(ledgers["current_practice"]))
    hours[4]["slack_surplus"] += 1e-5
    problems = _check(sd, hours)
    assert _kinds(problems) == {"balance"}
    assert "hour 5" in problems[0]


def test_reservoir_out_of_bounds_rejected(day):
    sd, ledgers = day
    hours = copy.deepcopy(_hours(ledgers["current_practice"]))
    for h in hours[:8]:  # 8 h at full output drain 1600 MWh from a 1300 MWh start
        h["psh_mode"]["psh1"] = "gen"
        h["psh_gen"]["psh1"] = 180.0
        h["psh_pump"]["psh1"] = 0.0
    problems = _check(sd, hours)
    assert any(p.startswith("reservoir:") and "outside" in p for p in problems)


def test_generation_outside_its_mode_rejected(day):
    sd, ledgers = day
    hours = copy.deepcopy(_hours(ledgers["current_practice"]))
    off = next(h for h in hours if h["psh_mode"]["psh1"] == "off")
    off["psh_gen"]["psh1"] = 1.0
    off["thermal_p"]["nuke1"] -= 1.0  # keep the balance, break the mode
    assert "psh" in _kinds(_check(sd, hours))


def test_missing_hour_and_degraded_window_rejected(day):
    sd, ledgers = day
    hours = _hours(ledgers["current_practice"])[:-1]
    assert _kinds(_check(sd, hours)) == {"hours"}
    statuses = ["optimal"] * 21 + ["feasible"]
    assert checks.check_windows(statuses, 22) == ["windows: window 22 ended 'feasible'"]


def test_settlement(day):
    sd, ledgers = day
    ev = evaluate_day(sd.system, sd.market_day, ledgers, sd.da)
    objectives = {n: o.objective for n, o in ev.outcomes.items()}
    profit = ev.outcomes["current_practice"].profit
    assert checks.check_settlement(objectives, profit, 1e-3) == []

    raised = dict(objectives, perfect=objectives["current_practice"] * 1.01)
    assert _kinds(checks.check_settlement(raised, profit, 1e-3)) == {"settlement"}
    booked = {u: 1e-6 for u in profit}
    assert len(checks.check_settlement(objectives, booked, 1e-3)) == len(profit)


def test_scenario_set_shape_and_weights(pipe):
    day_da = {NODE: tuple(pipe._nodes[NODE].da[:T])}
    day_rt = {NODE: tuple(pipe._nodes[NODE].rt[:T])}
    scn = pipe.scenario_set(5, day_rt, day_da, T, 20, 11)
    assert checks.check_scenario_set(scn.prices, scn.weights, scn.start_hour, 5, T, 20) == []

    bad = [0.06] * 20
    assert len(checks.check_scenario_set(scn.prices, bad, scn.start_hour, 5, T, 20)) == 1
    assert len(checks.check_scenario_set(scn.prices[:19], scn.weights[:19], 7, 5, T, 20)) == 3
    nan = scn.prices.copy()
    nan[0, 0, 0] = np.nan
    assert checks.check_scenario_set(nan, scn.weights, scn.start_hour, 5, T, 20) == [
        "set t0=5: prices not finite"]


def test_marginal_check_passes_unit_diagonal_copula(pipe):
    sigma = pipe._nodes[NODE].tracker.sigma
    d = np.sqrt(np.diag(sigma))
    unit = CovarianceTracker(T, 0.99, sigma / np.outer(d, d))
    for t0 in range(0, T - 3):
        scn, point = _fan(pipe, unit, t0)
        assert checks.check_marginal(scn.prices[:, 0, :], point, _bands(pipe, T - t0), f"t0={t0}") == []


def test_marginal_check_rejects_widened_fan(pipe):
    wide = CovarianceTracker(T, 0.99, 2.0 * np.eye(T))
    for t0 in (0, 10, 20):
        scn, point = _fan(pipe, wide, t0)
        problems = checks.check_marginal(scn.prices[:, 0, :], point, _bands(pipe, T - t0), f"t0={t0}")
        assert _kinds(problems) == {"marginal"}


def test_diagnostics_bounds():
    good = {"bus": {"ks_pvalue": 0.3, "coverage_90": 0.9}}
    assert checks.check_diagnostics(good) == []
    assert len(checks.check_diagnostics({"bus": {"ks_pvalue": 0.001, "coverage_90": 0.97}})) == 2
    assert len(checks.check_diagnostics({"bus": {"ks_pvalue": float("nan"), "coverage_90": 0.9}})) == 1


def test_scenario_files(tmp_path):
    prices = np.arange(20 * 1 * 4, dtype=float).reshape(20, 1, 4)
    scn = PriceScenarioSet((NODE,), 21, prices, tuple([1.0 / 20] * 20))
    path, wpath = str(tmp_path / "s.csv"), str(tmp_path / "w.csv")
    write_scenario_csv(path, scn)
    write_weights_csv(wpath, scn)
    assert checks.check_scenario_file(path, wpath, 20, T, 20) == []
    assert len(checks.check_scenario_file(path, wpath, 19, T, 20)) == 1

    write_weights_csv(wpath, replace(scn, weights=tuple([1.0 / 19] * 20)))
    assert len(checks.check_scenario_file(path, wpath, 20, T, 20)) == 1


def test_report_must_reprint_the_summary():
    summary = ("day day000\nvariant objective delta_pct\nperfect 100.25 0.000\n\n"
               "variant profit_psh1 profit_psh2\nperfect 3.00 4.00\n")
    assert checks.check_report(summary, summary, {"perfect": 100.25}) == []
    assert len(checks.check_report(summary, summary, {"perfect": 100.5})) == 1
    assert len(checks.check_report(summary.replace("100.25", "100.26"), summary, {"perfect": 100.25})) == 2


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 6.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 8.0},  # a second pool thread
        {"id": 4, "parent": 2, "start": 2.0, "end": 3.0},
    ]
    assert self_times(spans) == {1: 3.0, 2: 4.0, 3: 6.0, 4: 1.0}


def test_benchmark_json_lists_what_the_runner_reports():
    import json

    import run
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "study_s"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
