"""Seeded synthetic study world: a single-bus fleet with two pumped-hydro
units, a double-peak load shape, day-ahead clearing, and an autoregressive
real-time price process layered on the day-ahead curve.

Everything is keyed off one integer seed so runs are reproducible and any
day can be regenerated in isolation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .accounting import realized_lmp
from .core import (
    CostSegment,
    InitialStatus,
    MarketDay,
    PowerSystem,
    PshUnit,
    Reservoir,
    ThermalUnit,
    TimeGrid,
    write_series_csv,
    write_system_json,
)
from .lac_models import (
    ConfigurationError,
    DaReference,
    ModelConfig,
    apply_da_reference,
    build_da_model,
    extract_da_reference,
)
from .milp import SolveOptions, solve

NODE = "bus"

# deterministic stream tags
_TAG_DA_SCALE = 1
_TAG_DAY_LOAD = 2
_TAG_DAY_PRICE = 3
_TAG_HISTORY = 4


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    horizon: int = 24
    window: int = 3
    peak_load: float = 2200.0
    divergence: float = 0.06  # typical relative gap between actual and day-ahead load
    reserve_margin: float = 0.12  # committed headroom required by the clearing
    history_days: int = 90
    # price recursion: rt[t] = alpha + phi * rt[t-1] + beta * da[t] + innovation,
    # the same class the forecaster fits, so calibration is checkable
    price_alpha: float = 1.0
    price_beta: float = 0.43
    price_phi: float = 0.55
    price_sigma: float = 6.0  # stationary residual standard deviation


def _rng(cfg: SynthConfig, tag: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, tag, index]))


def base_load_shape(T: int = 24) -> np.ndarray:
    """Double-peak daily profile, morning shoulder and evening peak, max 1."""
    t = np.arange(1, T + 1, dtype=float)
    shape = (
        0.52
        + 0.22 * np.exp(-((t - 8.5) ** 2) / 7.0)
        + 0.48 * np.exp(-((t - 19.0) ** 2) / 9.0)
    )
    return shape / shape.max()


def make_fleet() -> tuple[ThermalUnit, ...]:
    def seg(*pairs):
        return tuple(CostSegment(mw, price) for mw, price in pairs)

    on = InitialStatus(True, 24)
    off = InitialStatus(False, 24)
    return (
        ThermalUnit("nuke1", seg((450.0, 8.0)), 600.0, 30000.0, 350.0, 450.0,
                    min_up=24, min_down=24, initial_status=on),
        ThermalUnit("coal1", seg((300.0, 17.0), (150.0, 21.0)), 900.0, 9000.0, 180.0, 450.0,
                    min_up=8, min_down=8, initial_status=on),
        ThermalUnit("coal2", seg((250.0, 22.0), (150.0, 26.0)), 800.0, 8000.0, 150.0, 400.0,
                    min_up=8, min_down=8, initial_status=on),
        ThermalUnit("ccgt1", seg((250.0, 31.0), (150.0, 35.0)), 500.0, 3500.0, 100.0, 400.0,
                    min_up=4, min_down=4, initial_status=on),
        ThermalUnit("ccgt2", seg((200.0, 40.0), (150.0, 44.0)), 450.0, 3000.0, 90.0, 350.0,
                    min_up=3, min_down=3, initial_status=off),
        ThermalUnit("gt1", seg((250.0, 55.0)), 200.0, 900.0, 40.0, 250.0,
                    min_up=1, min_down=1, initial_status=off),
        ThermalUnit("gt2", seg((200.0, 82.0)), 150.0, 700.0, 30.0, 200.0,
                    min_up=1, min_down=1, initial_status=off),
    )


def make_storage() -> tuple[tuple[PshUnit, ...], tuple[Reservoir, ...]]:
    units = tuple(
        PshUnit(f"psh{i}", "upper", NODE, 0.0, 180.0, 0.0, 180.0, 0.90, 0.87)
        for i in (1, 2)
    )
    upper = Reservoir("upper", 200.0, 2600.0, 1300.0, 1300.0, tuple(u.id for u in units))
    return units, (upper,)


def make_system(cfg: SynthConfig | None = None) -> PowerSystem:
    cfg = cfg or SynthConfig()
    grid = TimeGrid(1, cfg.horizon, cfg.window, 1.0)
    psh, reservoirs = make_storage()
    return PowerSystem(grid, make_fleet(), psh, reservoirs)


def day_ahead_clear(
    system: PowerSystem,
    da_load: np.ndarray,
    reserve_margin: float = 0.0,
) -> tuple[DaReference, tuple[float, ...]]:
    """Clear the day-ahead market: schedules from the commitment problem,
    prices from the balance duals with the commitment fixed."""
    model = build_da_model(system, tuple(float(v) for v in da_load), ModelConfig(), reserve_margin)
    sol = solve(model, SolveOptions())
    if not sol.ok:
        raise ConfigurationError(f"day-ahead clearing failed: {sol.status}")
    ref = extract_da_reference(system, model, sol)
    for i in model.binary_indices():
        v = sol.binary_value(i)
        model.set_var_bounds(i, v, v)
    lp = solve(model, SolveOptions())
    if not lp.ok:
        raise ConfigurationError(f"day-ahead pricing pass failed: {lp.status}")
    return ref, realized_lmp(model, lp)


def _ar1(rng: np.random.Generator, n: int, phi: float, sigma: float) -> np.ndarray:
    # innovations scaled so the stationary standard deviation equals sigma
    innov_sd = sigma * np.sqrt(max(1.0 - phi * phi, 1e-12))
    e = np.empty(n)
    prev = rng.normal(0.0, sigma)
    for i in range(n):
        prev = phi * prev + rng.normal(0.0, innov_sd)
        e[i] = prev
    return e


def _rt_prices(
    cfg: SynthConfig,
    da: np.ndarray,
    rng: np.random.Generator,
    prev: float | None = None,
) -> tuple[np.ndarray, float]:
    """One pass of the price recursion; returns the series and the last
    value so consecutive days can chain."""
    phi = cfg.price_phi
    innov_sd = cfg.price_sigma * np.sqrt(max(1.0 - phi * phi, 1e-12))
    if prev is None:
        mean0 = (cfg.price_alpha + cfg.price_beta * float(da[0])) / (1.0 - phi)
        prev = mean0 + rng.normal(0.0, cfg.price_sigma)
    out = np.empty(len(da))
    for i in range(len(da)):
        prev = cfg.price_alpha + phi * prev + cfg.price_beta * float(da[i]) + rng.normal(0.0, innov_sd)
        out[i] = prev
    return out, prev


def _day_scale(cfg: SynthConfig, day_index: int) -> float:
    rng = _rng(cfg, _TAG_DA_SCALE, day_index)
    return 1.0 + 0.05 * np.sin(2.0 * np.pi * day_index / 7.0) + 0.02 * rng.normal()


@dataclass(frozen=True)
class SynthDay:
    system: PowerSystem  # day-ahead schedules embedded
    market_day: MarketDay
    da: DaReference
    da_load: tuple[float, ...]


def make_day(cfg: SynthConfig, day_index: int = 0,
             base_system: PowerSystem | None = None) -> SynthDay:
    system = base_system or make_system(cfg)
    T = cfg.horizon
    da_load = cfg.peak_load * base_load_shape(T) * _day_scale(cfg, day_index)
    ref, da_lmp = day_ahead_clear(system, da_load, reserve_margin=cfg.reserve_margin)

    cap = sum(u.p_max for u in system.thermal_units) + sum(u.gen_max for u in system.psh_units)
    dev = cfg.divergence * _ar1(_rng(cfg, _TAG_DAY_LOAD, day_index), T, 0.7, 1.0)
    rt_load = np.clip(da_load * (1.0 + dev), 0.25 * cfg.peak_load, 0.97 * cap)

    rt_lmp, _ = _rt_prices(cfg, np.asarray(da_lmp), _rng(cfg, _TAG_DAY_PRICE, day_index))
    day = MarketDay(
        f"day{day_index:03d}",
        tuple(float(v) for v in rt_load),
        {NODE: da_lmp},
        {NODE: tuple(float(v) for v in rt_lmp)},
    )
    return SynthDay(apply_da_reference(system, ref), day, ref, tuple(float(v) for v in da_load))


def make_history(cfg: SynthConfig,
                 base_da_lmp: tuple[float, ...] | None = None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Hourly (actual, day-ahead) price history for pipeline training.

    Day-ahead curves are the base day's curve under the weekly scale pattern;
    actuals follow the same process the simulated days use.
    """
    if base_da_lmp is None:
        system = make_system(cfg)
        _, base_da_lmp = day_ahead_clear(
            system, cfg.peak_load * base_load_shape(cfg.horizon),
            reserve_margin=cfg.reserve_margin,
        )
    base = np.asarray(base_da_lmp, dtype=float)
    # one sequential stream for all history days, separate from day streams;
    # the recursion chains across day boundaries
    rng = _rng(cfg, _TAG_HISTORY)
    da_rows = []
    rt_rows = []
    prev = None
    for k in range(cfg.history_days):
        scale = 1.0 + 0.05 * np.sin(2.0 * np.pi * k / 7.0) + 0.02 * rng.normal()
        da_k = base * scale
        da_rows.append(da_k)
        rt_k, prev = _rt_prices(cfg, da_k, rng, prev)
        rt_rows.append(rt_k)
    return {NODE: (np.concatenate(rt_rows), np.concatenate(da_rows))}


def write_history_csv(path, history: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    with open(path, "w") as fh:
        fh.write("hour,node,rt_lmp,da_lmp\n")
        for node in sorted(history):
            rt, da = history[node]
            for i in range(len(rt)):
                fh.write(f"{i + 1},{node},{float(rt[i])!r},{float(da[i])!r}\n")


def read_history_csv(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    rt: dict[str, list[float]] = {}
    da: dict[str, list[float]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "hour,node,rt_lmp,da_lmp":
            raise ValueError(f"unexpected history header: {header!r}")
        for ln, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != 4:
                raise ValueError(f"line {ln}: expected 4 fields, got {len(parts)}")
            _, node, r, d = parts
            rt.setdefault(node, []).append(float(r))
            da.setdefault(node, []).append(float(d))
    return {n: (np.asarray(rt[n]), np.asarray(da[n])) for n in sorted(rt)}


def write_bundle(cfg: SynthConfig, outdir, day_index: int = 0) -> dict[str, str]:
    """Materialize one day plus training history as the file set the
    command line front end consumes.  Returns the path map."""
    os.makedirs(outdir, exist_ok=True)
    sd = make_day(cfg, day_index)
    paths = {
        "system": os.path.join(outdir, "system.json"),
        "load": os.path.join(outdir, "load.csv"),
        "da_load": os.path.join(outdir, "da_load.csv"),
        "da_lmp": os.path.join(outdir, "da_lmp.csv"),
        "rt_lmp": os.path.join(outdir, "rt_lmp.csv"),
        "history": os.path.join(outdir, "history.csv"),
    }
    write_system_json(sd.system, paths["system"])
    write_series_csv(paths["load"], {"system": sd.market_day.load})
    write_series_csv(paths["da_load"], {"system": sd.da_load})
    write_series_csv(paths["da_lmp"], sd.market_day.da_lmp)
    write_series_csv(paths["rt_lmp"], sd.market_day.rt_lmp_actual)
    base_da = sd.market_day.da_lmp[NODE] if day_index == 0 else None
    write_history_csv(paths["history"], make_history(cfg, base_da))
    return paths
