import concurrent.futures
import json
import multiprocessing
import shutil

import numpy as np
import pytest

from pshlac import accounting, cli
from pshlac.cli import (
    CliError,
    RunConfig,
    _forecast_origins,
    _load_forecast_dir,
    _missing_forecast_files,
    _parse_variants,
    build_parser,
    fork_pool,
    main,
)
from pshlac.core import PriceScenarioSet, read_system_json, write_scenario_csv
from pshlac.forecast import ForecastConfig
from pshlac.lac_models import Variant
from pshlac.milp import BRANCH_AND_BOUND, OPTIMAL, SolveOptions, _highs_lp, milp, solve
from pshlac.rolling import SimulationLedger, WindowInfeasibleError
from pshlac.synth import make_system

from toys import knapsack


def _write_config(tmp_path, name="run.json", **overrides):
    doc = {"system": "sys.json", "load": "load.csv",
           "da_lmp": "da.csv", "rt_lmp": "rt.csv"}
    doc.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# -- run config --------------------------------------------------------------


def test_config_resolves_paths_against_its_own_directory(tmp_path):
    p = _write_config(tmp_path, history="hist.csv", rt_lmp="/abs/rt.csv")
    cfg = RunConfig.from_file(str(p))
    assert cfg.system == str(tmp_path / "sys.json")
    assert cfg.history == str(tmp_path / "hist.csv")
    assert cfg.rt_lmp == "/abs/rt.csv"
    assert cfg.scenarios == 50 and cfg.variant == "stochastic"


def test_config_error_catalog(tmp_path):
    with pytest.raises(CliError, match="config file not found"):
        RunConfig.from_file(str(tmp_path / "absent.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(CliError, match="not valid JSON"):
        RunConfig.from_file(str(broken))
    listed = tmp_path / "listed.json"
    listed.write_text("[1]")
    with pytest.raises(CliError, match=r"is \[1\], not a JSON object"):
        RunConfig.from_file(str(listed))
    with pytest.raises(CliError, match="unknown keys: frobnicate"):
        RunConfig.from_file(str(_write_config(tmp_path, "u.json", frobnicate=1)))
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"system": "s.json", "load": "l.csv"}))
    with pytest.raises(CliError, match="missing required keys: da_lmp, rt_lmp"):
        RunConfig.from_file(str(partial))


@pytest.mark.parametrize("key, value, message", [
    ("time_limit", None, "is None, not a number"),
    ("voll", "3500", "is '3500', not a number"),
    ("seed", 1.5, "is 1.5, not an integer"),
    ("scenarios", True, "is True, not an integer"),
    ("history", 7, "is 7, not a string"),
    ("end_soc", ["fix"], "is ['fix'], not a string"),
])
def test_a_config_value_of_the_wrong_json_type_is_named(key, value, message, tmp_path, capsys):
    # a number field may hold an integer, and an optional field null
    ok = RunConfig.from_file(str(_write_config(tmp_path, "ok.json", voll=3500, history=None)))
    assert (ok.voll, ok.history) == (3500, None)
    path = _write_config(tmp_path, **{key: value})
    with pytest.raises(CliError) as err:
        RunConfig.from_file(str(path))
    assert str(err.value) == f"config {path} field {key!r} {message}"
    assert main(["report", "--config", str(path), "--run-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: config {path} field {key!r} {message}\n"


def test_model_config_carries_the_knobs(tmp_path):
    p = _write_config(tmp_path, voll=1000.0, gap_tol=1e-5, time_limit=7.0, end_soc="relax", seed=4)
    control = RunConfig.from_file(str(p)).run_control()
    assert (control.model.voll, control.model.end_soc, control.seed) == (1000.0, "relax", 4)
    assert control.solver == SolveOptions(gap_tol=1e-5, time_limit=7.0)


# -- variant and forecast-dir helpers ----------------------------------------


def test_parse_variants():
    cfg = RunConfig("s", "l", "d", "r")
    assert _parse_variants(None, cfg) == [Variant.STOCHASTIC]
    allv = _parse_variants(["all"], cfg)
    assert len(allv) == 5
    picked = _parse_variants(["current_practice,robust", "perfect"], cfg)
    assert picked == [Variant.CURRENT_PRACTICE, Variant.ROBUST, Variant.PERFECT]
    with pytest.raises(CliError, match="unknown variant 'hedged'"):
        _parse_variants(["hedged"], cfg)


def test_forecast_origins_leave_room_for_post_window_hours():
    assert _forecast_origins(make_system()) == list(range(21))  # T=24, L=3


def test_load_forecast_dir_points_at_the_forecast_step(tmp_path):
    with pytest.raises(CliError, match="run `pshlac forecast"):
        _load_forecast_dir(str(tmp_path / "nowhere"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CliError, match="no scenario files"):
        _load_forecast_dir(str(empty))


def test_main_reports_errors_on_stderr(tmp_path, capsys):
    rc = main(["forecast", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error: config file not found" in capsys.readouterr().err


def test_forecast_reports_a_nan_in_the_history(tmp_path, capfd):
    bundle = tmp_path / "bundle"
    assert main(["gen-instance", "--seed", "11", "--out", str(bundle)]) == 0
    history = bundle / "history.csv"
    lines = history.read_text().splitlines()
    hour, node, _, da = lines[501].split(",")  # index 500, after the header
    lines[501] = ",".join((hour, node, "nan", da))
    history.write_text("\n".join(lines) + "\n")
    capfd.readouterr()
    assert main(["forecast", "--config", str(bundle / "run.json"), "--out", str(tmp_path / "fc")]) == 1
    err = capfd.readouterr().err
    assert err == "error: node bus: RT history at hour 501 is nan, not a finite price\n"


def test_a_system_file_without_a_field_is_named(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main(["gen-instance", "--seed", "3", "--out", str(bundle), "--history-days", "1"]) == 0
    path = bundle / "system.json"
    doc = json.loads(path.read_text())
    unit = doc["thermal_units"][0]
    del unit["p_max"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", "--config", str(bundle / "run.json"), "--out", str(tmp_path / "runs"),
                 "--variant", "current_practice"]) == 1
    assert capsys.readouterr().err == f"error: {path}: thermal unit {unit['id']} lacks field 'p_max'\n"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["grid"].update(horizon_end="24"), "grid field 'horizon_end' is '24', not an integer"),
    (lambda doc: doc.update(thermal_units=3), "system field 'thermal_units' is 3, not a list"),
])
def test_a_system_field_of_the_wrong_type_is_named(bundle, tmp_path, capsys, edit, message):
    # each used to end in a TypeError traceback inside validate_system
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    path = copy / "system.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", "--config", str(copy / "run.json"), "--out", str(tmp_path / "runs"),
                 "--variant", "current_practice"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_a_system_without_a_day_ahead_commitment_is_named(bundle, tmp_path, capsys, command):
    # report read its inputs without naming the file, simulate with it;
    # both go through one reader now
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    path = copy / "system.json"
    doc = json.loads(path.read_text())
    unit = doc["thermal_units"][0]
    unit["da_commitment"] = None
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    where = ["--out", str(tmp_path / "runs")] if command == "simulate" else ["--run-dir", str(tmp_path / "runs")]
    assert main([command, "--config", str(copy / "run.json"), *where]) == 1
    assert capsys.readouterr().err == f"error: {path}: thermal unit {unit['id']} lacks a day-ahead commitment\n"


def test_a_load_that_is_not_a_number_is_named_with_its_line(bundle, tmp_path, capsys):
    # it used to end in a window with "rows from 'r_balance.t3' have a
    # right-hand side that is not finite", naming neither file nor hour
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    path = copy / "load.csv"
    lines = path.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.split(",")[0] == "5")
    hour, entity, _ = lines[lineno - 1].split(",")
    lines[lineno - 1] = f"{hour},{entity},nan"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(copy / "run.json"), "--out", str(tmp_path / "runs"),
                 "--variant", "current_practice"]) == 1
    assert capsys.readouterr().err == f"error: {path}: line {lineno}: 'nan' is not a finite number\n"


def test_forecast_checks_its_inputs_as_simulate_does(bundle, tmp_path, capsys):
    # forecast used to fit and write scenario files for a system that
    # simulate refuses
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    path = copy / "system.json"
    doc = json.loads(path.read_text())
    upper = next(r for r in doc["reservoirs"] if r["id"] == "upper")
    upper["e_initial"] = 2.0 * upper["e_max"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    errors = {}
    for command, where in (("simulate", "runs"), ("forecast", "fc")):
        assert main([command, "--config", str(copy / "run.json"), "--out", str(tmp_path / where)]) == 1
        errors[command] = capsys.readouterr().err
    assert errors["forecast"] == errors["simulate"]
    assert errors["forecast"].startswith("error: input validation failed:\n")
    assert "upper" in errors["forecast"] and "e_initial" in errors["forecast"]
    assert not (tmp_path / "fc").exists()


def test_simulate_refuses_an_unknown_end_soc(bundle, tmp_path, capsys):
    # "relaxed" used to run as "fix", since the models test == "relax" only
    capsys.readouterr()
    assert _simulate(bundle, tmp_path, "current_practice", end_soc="relaxed") == 1
    assert capsys.readouterr().err == "error: end_soc is 'relaxed', not 'fix' or 'relax'\n"
    assert not (tmp_path / "fail").exists()


def _ar_history(n_days, H=8, seed=0):
    rng = np.random.default_rng(seed)
    da = np.tile(20.0 + 5.0 * np.sin(np.arange(H) / H * 2 * np.pi), n_days)
    rt = da + np.convolve(rng.normal(0.0, 1.5, n_days * H), [1.0, 0.6, 0.36])[: n_days * H]
    return {"bus": (rt, da)}


def test_holdout_records_have_one_key_set():
    # a history too short to hold days out used to write its records
    # without n_pits
    fc_cfg = ForecastConfig(horizon=8, min_train_days=52)
    short = cli._holdout_diagnostics(_ar_history(52), fc_cfg, seed=0)
    scored = cli._holdout_diagnostics(_ar_history(66), fc_cfg, seed=0)
    assert short["bus"]["n_days"] == 0 and short["bus"]["n_pits"] == 0
    assert scored["bus"]["n_days"] == 14 and scored["bus"]["n_pits"] == 14
    assert sorted(short["bus"]) == sorted(scored["bus"])


def test_parser_requires_a_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- window failures ---------------------------------------------------------


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("failing") / "bundle"
    assert main(["gen-instance", "--seed", "3", "--out", str(out), "--history-days", "1"]) == 0
    return out


def _simulate(bundle, tmp_path, variant, *flags, **overrides):
    doc = json.loads((bundle / "run.json").read_text())
    doc.update(overrides)
    cfg = bundle / "run_fail.json"
    cfg.write_text(json.dumps(doc))
    return main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--variant", variant,
                 "--label", "fail", *flags])


@pytest.fixture
def forks(monkeypatch):
    """The worker counts of the pools ``cmd_simulate`` forks."""
    seen = []

    def counted(workers):
        seen.append(workers)
        return fork_pool(workers)

    monkeypatch.setattr(cli, "fork_pool", counted)
    return seen


def _check_timed_out(bundle, tmp_path, capsys, variants, *flags):
    assert _simulate(bundle, tmp_path, variants, *flags, time_limit=0.0) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window 1 (t1=1) of current_practice hit the 0 s time limit")
    assert "Traceback" not in err


def test_simulate_reports_a_timed_out_window(bundle, tmp_path, capsys):
    _check_timed_out(bundle, tmp_path, capsys, "current_practice")


def test_simulate_reports_a_timed_out_window_from_a_worker(bundle, tmp_path, capsys, forks):
    _check_timed_out(bundle, tmp_path, capsys, "current_practice,perfect", "--jobs", "2")
    assert forks == [2]
    assert multiprocessing.active_children() == []


def _infeasible(system, day, variant, *rest):
    raise WindowInfeasibleError(variant.value, 3, 3, "infeasible", ["r_soc.res1.t3"],
                                f"\\ {variant.value}\nEnd\n")


def _check_infeasible_window_written(bundle, tmp_path, capsys, variants, *flags):
    assert _simulate(bundle, tmp_path, variants, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window 3 (t1=3) of perfect ended infeasible; "
                          "conflicting rows: r_soc.res1.t3")
    assert "Traceback" not in err
    lp = tmp_path / "fail" / "failed_perfect_w3.lp"
    assert str(lp) in err
    assert lp.read_text() == "\\ perfect\nEnd\n"


def test_simulate_writes_the_infeasible_window_for_replay(bundle, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_day", _infeasible)
    _check_infeasible_window_written(bundle, tmp_path, capsys, "perfect")


def test_simulate_writes_a_workers_infeasible_window_for_replay(bundle, tmp_path, capsys, monkeypatch, forks):
    # forked workers inherit the replaced run_day
    monkeypatch.setattr(cli, "run_day", _infeasible)
    _check_infeasible_window_written(bundle, tmp_path, capsys, "perfect,current_practice", "--jobs", "2")
    assert forks == [2]
    assert multiprocessing.active_children() == []


def test_a_forked_worker_solves_a_mip_after_a_threaded_one():
    # a MIP on two HiGHS threads leaves a worker thread in HiGHS's
    # process-wide scheduler; a process forked with that scheduler but
    # without its thread would wait for ever in its first MIP
    highs, _ = milp(_highs_lp(knapsack(), integral=True), {"threads": 2, "mip_rel_gap": 1e-9})
    assert highs.modelStatusToString(highs.getModelStatus()) == "Optimal"
    with fork_pool(1) as pool:
        future = pool.submit(solve, knapsack(), SolveOptions(gap_tol=1e-9, time_limit=30.0))
        try:
            sol = future.result(timeout=30.0)
        except concurrent.futures.TimeoutError:
            for child in multiprocessing.active_children():
                child.terminate()
            raise
    assert sol.status == OPTIMAL and sol.incumbent == BRANCH_AND_BOUND
    assert multiprocessing.active_children() == []


def _write_forecast_dir(system, fdir, count=3, seed=0):
    """Scenario and point files for every forecast origin of ``system``:
    one whole-day set, sliced by the provider to each origin."""
    nodes = tuple(sorted({u.node_id for u in system.psh_units}))
    T = system.grid.horizon_end
    prices = 25.0 + 20.0 * np.random.default_rng(seed).random((count, len(nodes), T))
    full = PriceScenarioSet(nodes, 1, prices, (1 / count,) * count)
    point = PriceScenarioSet(nodes, 1, prices.mean(axis=0, keepdims=True), (1.0,))
    fdir.mkdir()
    for t0 in _forecast_origins(system):
        write_scenario_csv(str(fdir / f"scenarios_t{t0:02d}.csv"), full)
        write_scenario_csv(str(fdir / f"point_t{t0:02d}.csv"), point)


def _without_timings(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in ("build_s", "walltime_s")]
    return [[row[i] for i in keep] for row in rows]


def test_simulate_writes_the_same_run_in_workers(bundle, tmp_path, capsys, forks):
    system = read_system_json(str(bundle / "system.json"))
    fdir = tmp_path / "forecasts"
    _write_forecast_dir(system, fdir)
    runs = {}
    for jobs in ("1", "2"):
        assert main(["simulate", "--config", str(bundle / "run.json"), "--forecast-dir", str(fdir),
                     "--out", str(tmp_path), "--variant", "all", "--jobs", jobs, "--label", jobs]) == 0
        runs[jobs] = tmp_path / jobs
    assert forks == [2]
    assert multiprocessing.active_children() == []
    names = [f"ledger_{v.value}.jsonl" for v in Variant]
    names += ["objective_table.csv", "profit_table.csv", "summary.txt"]
    for name in names:
        assert (runs["2"] / name).read_bytes() == (runs["1"] / name).read_bytes(), name
    for v in Variant:
        name = f"metrics_{v.value}.csv"
        assert _without_timings(runs["2"] / name) == _without_timings(runs["1"] / name), name


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_names_the_forecast_files_it_lacks(bundle, tmp_path, capsys, forks, jobs):
    # checked before any variant rolls: no worker starts, and the error
    # names each file a requested variant would read
    system = read_system_json(str(bundle / "system.json"))
    fdir = tmp_path / "forecasts"
    _write_forecast_dir(system, fdir)
    for name in ("scenarios_t01.csv", "scenarios_t07.csv", "point_t20.csv"):
        (fdir / name).unlink()
    assert main(["simulate", "--config", str(bundle / "run.json"), "--forecast-dir", str(fdir),
                 "--out", str(tmp_path), "--variant", "all", "--jobs", jobs, "--label", "gaps"]) == 1
    assert capsys.readouterr().err == (
        f"error: {fdir} lacks forecast files the requested variants read: scenarios_t01.csv, "
        "scenarios_t07.csv, point_t20.csv; run `pshlac forecast --config <run.json> --out <dir>` first\n")
    assert forks == []
    assert multiprocessing.active_children() == []
    # a deterministic day reads point forecasts only, a robust one scenario sets only
    origins = _forecast_origins(system)
    assert _missing_forecast_files(str(fdir), [Variant.DETERMINISTIC], origins) == ["point_t20.csv"]
    assert _missing_forecast_files(str(fdir), [Variant.ROBUST], origins) == ["scenarios_t01.csv", "scenarios_t07.csv"]


def test_simulate_settles_each_variant_in_its_worker(bundle, tmp_path, capsys, monkeypatch, forks):
    # forked workers count their own settlements, so the command's
    # process settles none at --jobs 2
    resolves = []
    original = accounting.full_day_resolve

    def counted(*args, **kwargs):
        resolves.append(args[2].variant)
        return original(*args, **kwargs)

    monkeypatch.setattr(accounting, "full_day_resolve", counted)
    for jobs in ("1", "2"):
        assert main(["simulate", "--config", str(bundle / "run.json"), "--out", str(tmp_path),
                     "--variant", "current_practice,perfect", "--jobs", jobs, "--label", jobs]) == 0
    assert resolves == ["current_practice", "perfect"]  # the --jobs 1 run, in this process
    assert forks == [2]
    assert multiprocessing.active_children() == []
    for name in ("objective_table.csv", "profit_table.csv", "summary.txt"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_simulate_refuses_fewer_than_one_job(bundle, tmp_path, capsys, jobs):
    # --jobs 0 used to run serially and write the run without a word
    capsys.readouterr()
    assert main(["simulate", "--config", str(bundle / "run.json"), "--out", str(tmp_path / "runs"),
                 "--variant", "current_practice", "--jobs", jobs, "--label", "none"]) == 1
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, not {jobs}\n"
    assert not (tmp_path / "runs").exists()


def test_report_settles_under_the_run_time_limit(bundle, tmp_path, capsys):
    # simulate and report share the run config's solver limits
    assert main(["simulate", "--config", str(bundle / "run.json"), "--out", str(tmp_path),
                 "--variant", "current_practice", "--label", "run"]) == 0
    doc = json.loads((bundle / "run.json").read_text())
    cfg = bundle / "run_no_time.json"
    cfg.write_text(json.dumps({**doc, "time_limit": 0}))
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--run-dir", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        f"error: ledger current_practice/{doc['label']} settlement LP hit its 0 s time limit\n")


def test_simulate_names_a_weights_file_with_a_scenario_out_of_range(bundle, tmp_path, capsys):
    # such a row used to end in an IndexError traceback
    system = read_system_json(str(bundle / "system.json"))
    fdir = tmp_path / "forecasts"
    _write_forecast_dir(system, fdir)
    weights = fdir / "weights_t05.csv"
    weights.write_text("scenario,weight\n0,0.5\n3,0.5\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(bundle / "run.json"), "--forecast-dir", str(fdir),
                 "--out", str(tmp_path), "--variant", "stochastic", "--label", "weights"]) == 1
    assert capsys.readouterr().err == f"error: {weights}: line 3: scenario 3 is outside 0..2\n"


@pytest.mark.parametrize("requested, warned", [(50, True), (3, False)])
def test_simulate_warns_when_the_files_hold_another_scenario_count(
        bundle, tmp_path, capsys, monkeypatch, requested, warned):
    system = read_system_json(str(bundle / "system.json"))
    nodes = tuple(sorted({u.node_id for u in system.psh_units}))
    fdir = tmp_path / "forecasts"
    fdir.mkdir()
    for t0 in _forecast_origins(system):  # simulate checks that every origin has its file
        write_scenario_csv(str(fdir / f"scenarios_t{t0:02d}.csv"),
                           PriceScenarioSet(nodes, 1, np.full((3, len(nodes), 24), 30.0), (1 / 3,) * 3))

    def stop(*args):
        raise CliError("stopped before the first window")

    monkeypatch.setattr(cli, "run_day", stop)
    doc = json.loads((bundle / "run.json").read_text())
    doc["scenarios"] = requested
    cfg = bundle / f"run_count{requested}.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--forecast-dir", str(fdir), "--out", str(tmp_path),
                 "--variant", "stochastic", "--label", "count"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: stopped before the first window"
    if warned:
        assert err[:-1] == [f"warning: {cfg} asks for 50 scenarios, but the scenario files in {fdir} "
                            "hold 3; simulating with the trajectories on file"]
    else:
        assert err[:-1] == []


# -- the whole workflow ------------------------------------------------------


def test_full_workflow(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    rc = main(["gen-instance", "--seed", "3", "--out", str(bundle), "--history-days", "70"])
    assert rc == 0
    cfg_path = bundle / "run.json"
    assert cfg_path.exists()
    system = read_system_json(str(bundle / "system.json"))
    assert system.psh_units[0].da_gen is not None  # schedules embedded

    fdir = tmp_path / "forecasts"
    rc = main(["forecast", "--config", str(cfg_path), "--out", str(fdir),
               "--scenarios", "4", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "holdout KS p=" in out
    assert "wrote forecasts for 21 origins" in out
    meta = json.loads((fdir / "forecast_meta.json").read_text())
    assert meta["scenarios"] == 4 and meta["origins"] == list(range(21))
    assert (fdir / "scenarios_t00.csv").exists()
    assert (fdir / "point_t20.csv").exists()
    assert (fdir / "weights_t07.csv").exists()
    assert (fdir / "diagnostics.json").exists()

    runs = tmp_path / "runs"
    rc = main(["simulate", "--config", str(cfg_path), "--forecast-dir", str(fdir),
               "--out", str(runs), "--variant", "current_practice,deterministic,stochastic",
               "--label", "smoke"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "current_practice: 22 windows solved, 0 time-limited\n" in out
    rdir = runs / "smoke"
    for name in ("ledger_current_practice.jsonl", "ledger_deterministic.jsonl",
                 "ledger_stochastic.jsonl", "metrics_stochastic.csv",
                 "objective_table.csv", "profit_table.csv", "fig_lmp.csv",
                 "fig_dispatch.csv", "summary.txt", "run_config.json"):
        assert (rdir / name).exists(), name
    led = SimulationLedger.from_jsonl(rdir / "ledger_current_practice.jsonl")
    assert [h.hour for h in led.hours] == list(range(1, 25))
    # a perfect day solves its first window and carries the rest
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(runs), "--variant", "perfect",
               "--label", "perfect"])
    assert rc == 0
    assert "perfect: 1 windows solved, 0 time-limited, 21 carried by their certificate\n" in capsys.readouterr().out
    profit_lines = (rdir / "profit_table.csv").read_text().splitlines()
    cp_rows = [l for l in profit_lines if l.startswith("current_practice,")]
    assert len(cp_rows) == 2  # psh1 and psh2
    for row in cp_rows:
        assert float(row.split(",")[3]) == 0.0  # plan follower books zero

    rc = main(["report", "--config", str(cfg_path), "--run-dir", str(rdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("day day000")
    assert "stochastic" in out and "profit_psh1" in out
