"""Output checks for the benchmark, written apart from the program.

Every check takes plain data (dicts, lists, arrays) and returns a list of
problems, empty when the output is correct.  The arithmetic here is the
benchmark's own: the power balance, unit boxes and reservoir levels are
rebuilt from the system description instead of being read back through
the package's helpers, so a fault shared by the program and its own
bookkeeping still shows.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Mapping, Sequence

import numpy as np

BALANCE_TOL_MW = 1e-6
BOX_TOL = 1e-6
# relative to max(1, |level|): the window models hold the reservoir rows
# to the solver's feasibility tolerance, one row per hour
SOC_REL_TOL = 1e-6

MARGINAL_LEVELS = (0.05, 0.95)
# largest |z| of the outside share, against the binomial error of S*H
# draws, that passes.  Correlation across hours widens the true error: with
# the seed-11 correlation matrix, 32 of 420000 simulated sets of S=200 over
# 4 to 24 hours exceed it, while the fitted covariance's fan gives z >= 6.0
# on all 210 sets of forecast_s200
MARGINAL_Z_MAX = 4.5


def _soc_tol(level: float) -> float:
    return SOC_REL_TOL * max(1.0, abs(level))


def check_ledger(
    system: Mapping,
    load: Sequence[float],
    hours: Sequence[Mapping],
    end_target: Mapping[str, float],
) -> list[str]:
    """Problems in one rolled day.

    ``system`` is the system description as plain data (the layout of
    ``system.json``), ``hours`` the ledger's frozen hours as dicts and
    ``end_target`` the day-ahead end-of-day storage level per reservoir.
    """
    out: list[str] = []
    T = int(system["grid"]["horizon_end"])
    dt = float(system["grid"]["interval_hours"])
    got = sorted(int(h["hour"]) for h in hours)
    if got != list(range(1, T + 1)):
        out.append(f"hours: ledger holds {got}, expected 1..{T} once each")
        return out
    by_hour = {int(h["hour"]): h for h in hours}
    thermal = system["thermal_units"]
    psh = system["psh_units"]

    for t in range(1, T + 1):
        h = by_hour[t]
        supply = sum(float(h["thermal_p"][u["id"]]) for u in thermal)
        supply += sum(float(h["psh_gen"][u["id"]]) - float(h["psh_pump"][u["id"]]) for u in psh)
        supply += float(h["slack_short"]) - float(h["slack_surplus"])
        if abs(supply - float(load[t - 1])) > BALANCE_TOL_MW:
            out.append(f"balance: hour {t} supplies {supply!r} MW against load {float(load[t - 1])!r}")
        for u in thermal:
            commit = int(h["thermal_commit"][u["id"]])
            planned = int(u["da_commitment"][t - 1])
            if commit != planned:
                out.append(f"thermal: {u['id']} hour {t} committed {commit}, day-ahead plan {planned}")
            p = float(h["thermal_p"][u["id"]])
            if not (u["p_min"] * commit - BOX_TOL <= p <= u["p_max"] * commit + BOX_TOL):
                out.append(f"thermal: {u['id']} hour {t} output {p!r} outside "
                           f"[{u['p_min'] * commit}, {u['p_max'] * commit}]")
        for u in psh:
            mode = h["psh_mode"][u["id"]]
            gen = float(h["psh_gen"][u["id"]])
            pump = float(h["psh_pump"][u["id"]])
            if mode not in ("off", "gen", "pump"):
                out.append(f"psh: {u['id']} hour {t} in unknown mode {mode!r}")
                continue
            gen_box = (u["gen_min"], u["gen_max"]) if mode == "gen" else (0.0, 0.0)
            pump_box = (u["pump_min"], u["pump_max"]) if mode == "pump" else (0.0, 0.0)
            if not (gen_box[0] - BOX_TOL <= gen <= gen_box[1] + BOX_TOL):
                out.append(f"psh: {u['id']} hour {t} generates {gen!r} MW in mode {mode}")
            if not (pump_box[0] - BOX_TOL <= pump <= pump_box[1] + BOX_TOL):
                out.append(f"psh: {u['id']} hour {t} pumps {pump!r} MW in mode {mode}")

    for r in system["reservoirs"]:
        members = [u for u in psh if u["reservoir_id"] == r["id"]]
        level = float(r["e_initial"])
        for t in range(1, T + 1):
            h = by_hour[t]
            for u in members:
                level += u["eta_pump"] * float(h["psh_pump"][u["id"]]) * dt
                level -= float(h["psh_gen"][u["id"]]) * dt / u["eta_gen"]
            if not (r["e_min"] - _soc_tol(level) <= level <= r["e_max"] + _soc_tol(level)):
                out.append(f"reservoir: {r['id']} level {level!r} after hour {t} outside "
                           f"[{r['e_min']}, {r['e_max']}]")
            booked = float(h["soc_after"][r["id"]])
            if abs(booked - level) > _soc_tol(level):
                out.append(f"reservoir: {r['id']} ledger books {booked!r} after hour {t}, "
                           f"rebuilt level is {level!r}")
        target = float(end_target[r["id"]])
        if abs(level - target) > _soc_tol(target):
            out.append(f"reservoir: {r['id']} closes at {level!r}, day-ahead target {target!r}")
    return out


def check_windows(statuses: Sequence[str], expected: int) -> list[str]:
    out = []
    if len(statuses) != expected:
        out.append(f"windows: {len(statuses)} solved, expected {expected}")
    for i, s in enumerate(statuses, start=1):
        if s != "optimal":
            out.append(f"windows: window {i} ended {s!r}")
    return out


def check_settlement(
    objectives: Mapping[str, float],
    current_practice_profit: Mapping[str, float],
    gap: float,
) -> list[str]:
    """``perfect`` is the floor within the solver gap, and plan-following
    books no storage profit."""
    out = []
    floor = objectives["perfect"]
    for name, cost in objectives.items():
        if floor > cost + 2.0 * gap * abs(cost):
            out.append(f"settlement: perfect settles at {floor!r}, above {name} at {cost!r}")
    for unit, profit in current_practice_profit.items():
        if abs(profit) >= 1e-9:
            out.append(f"settlement: current_practice books profit {profit!r} on {unit}")
    return out


def check_scenario_set(
    prices: np.ndarray,
    weights: Sequence[float],
    start_hour: int,
    t0: int,
    horizon_end: int,
    count: int,
) -> list[str]:
    """Shape, hours, weights and finiteness of one set for origin t0."""
    out = []
    prices = np.asarray(prices, dtype=float)
    n_hours = horizon_end - t0
    if prices.ndim != 3 or prices.shape[0] != count or prices.shape[2] != n_hours:
        out.append(f"set t0={t0}: prices have shape {prices.shape}, expected ({count}, nodes, {n_hours})")
    if start_hour != t0 + 1:
        out.append(f"set t0={t0}: starts at hour {start_hour}, expected {t0 + 1}")
    w = np.asarray(weights, dtype=float)
    if w.shape != (count,):
        out.append(f"set t0={t0}: {w.size} weights for {count} trajectories")
    elif np.any(w != w[0]) or abs(float(w.sum()) - 1.0) > 1e-12:
        out.append(f"set t0={t0}: weights are not equal or sum to {float(w.sum())!r}")
    if not np.all(np.isfinite(prices)):
        out.append(f"set t0={t0}: prices not finite")
    return out


def marginal_z(prices: np.ndarray, point: np.ndarray, bands: np.ndarray) -> tuple[float, float]:
    """Share of values outside point + [Q(0.05), Q(0.95)] and its z-score.

    ``prices`` is (S, H) for one node, ``point`` (H,) and ``bands`` (2, H)
    the error quantiles at the two levels per look-ahead hour.  The z-score
    uses the binomial error of S*H draws at the nominal 10 percent.
    """
    prices = np.asarray(prices, dtype=float)
    lo = point + bands[0]
    hi = point + bands[1]
    outside = (prices < lo) | (prices > hi)
    p = 1.0 - (MARGINAL_LEVELS[1] - MARGINAL_LEVELS[0])
    share = float(outside.mean())
    return share, (share - p) / math.sqrt(p * (1.0 - p) / outside.size)


def check_marginal(prices: np.ndarray, point: np.ndarray, bands: np.ndarray, label: str) -> list[str]:
    share, z = marginal_z(prices, point, bands)
    if abs(z) > MARGINAL_Z_MAX:
        return [f"marginal: {label} puts {share:.4f} outside the 90% error band (z={z:.2f})"]
    return []


def check_diagnostics(diag: Mapping[str, Mapping]) -> list[str]:
    out = []
    for node, d in diag.items():
        if not d["ks_pvalue"] >= 0.01:
            out.append(f"diagnostics: {node} first-lead PIT KS p={d['ks_pvalue']!r} below 0.01")
        if not 0.85 <= d["coverage_90"] <= 0.95:
            out.append(f"diagnostics: {node} 90% envelope coverage {d['coverage_90']!r} outside [0.85, 0.95]")
    return out


# -- files written by the command line front end ---------------------------


def read_system(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_load(path: str) -> list[float]:
    """The single ``hour,entity_id,value`` load series, in hour order."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["value"]) for r in sorted(rows, key=lambda r: int(r["hour"]))]


def read_ledger(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_window_statuses(path: str) -> list[str]:
    with open(path, newline="") as fh:
        return [row["status"] for row in csv.DictReader(fh)]


def check_scenario_file(path: str, weights_path: str, t0: int, horizon_end: int, count: int) -> list[str]:
    """A scenario file holds ``count`` trajectories over hours t0+1..T and
    its weights file sums to one."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    scenarios = sorted({int(r["scenario"]) for r in rows})
    hours = sorted({int(r["hour"]) for r in rows})
    out = []
    if scenarios != list(range(count)):
        out.append(f"{os.path.basename(path)}: {len(scenarios)} trajectories, expected {count}")
    if hours != list(range(t0 + 1, horizon_end + 1)):
        out.append(f"{os.path.basename(path)}: hours {hours[:1]}..{hours[-1:]}, expected {t0 + 1}..{horizon_end}")
    if not all(math.isfinite(float(r["price"])) for r in rows):
        out.append(f"{os.path.basename(path)}: prices not finite")
    with open(weights_path, newline="") as fh:
        weights = [float(r["weight"]) for r in csv.DictReader(fh)]
    if len(weights) != count or abs(sum(weights) - 1.0) > 1e-9:
        out.append(f"{os.path.basename(weights_path)}: {len(weights)} weights summing to {sum(weights)!r}")
    return out


def check_files(directory: str, names: Sequence[str]) -> list[str]:
    return [f"files: {name} missing from {os.path.basename(directory)}"
            for name in names if not os.path.isfile(os.path.join(directory, name))]


def read_objective_table(path: str) -> dict[str, float]:
    with open(path, newline="") as fh:
        return {r["variant"]: float(r["objective"]) for r in csv.DictReader(fh)}


def read_profit_table(path: str) -> dict[str, dict[str, float]]:
    """Storage profit against the day-ahead position, per variant and unit."""
    out: dict[str, dict[str, float]] = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            out.setdefault(r["variant"], {})[r["unit"]] = float(r["lac_profit"])
    return out


def check_report(report_text: str, summary_text: str, objectives: Mapping[str, float]) -> list[str]:
    """``report`` reprints what ``simulate`` wrote: the same summary, and
    each objective of the table at the printed precision."""
    out = []
    if report_text != summary_text:
        out.append("report: output differs from the summary simulate wrote")
    printed = {}
    for line in report_text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in objectives:
            printed.setdefault(parts[0], parts[1])  # the objective table comes first
    for name, obj in objectives.items():
        if printed.get(name) != f"{obj:.2f}":
            out.append(f"report: {name} printed {printed.get(name)!r}, table holds {obj!r}")
    return out
