#!/usr/bin/env python3
"""Model-size and walltime scaling of the first window as the scenario
count grows, for the stochastic and robust variants.

Each scenario tail enters the window as cuts on the edge storage (see
``pshlac.lac_models``), so the rows grow by each scenario's cut count;
the script prints the total and the per-scenario range of those counts,
and how many scenarios kept an explicit dispatch block.  ``build=`` is
the time to build the window model, ``wall=`` the time to solve it."""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pshlac.accounting import ScalingEntry, scaling_table, write_scaling_csv
from pshlac.core import PriceScenarioSet, TimeGrid
from pshlac.lac_models import (
    LacInstance,
    ModelConfig,
    Variant,
    build_variant,
)
from pshlac.milp import SolveOptions, solve
from pshlac.synth import SynthConfig, make_day


def first_window_model(sd, S: int, variant: Variant, rng):
    system = sd.system
    T = system.grid.horizon_end
    win = TimeGrid(1, T, system.grid.window_length, 1.0)
    te = win.window_end
    da_vec = np.asarray(sd.market_day.da_lmp["bus"])
    prices = da_vec[None, None, te:] + rng.normal(0.0, 6.0, size=(S, 1, T - te))
    scn = PriceScenarioSet(("bus",), te + 1, prices, tuple([1.0 / S] * S))
    inst = LacInstance(
        system, win, tuple(sd.market_day.load[:win.window_length]), sd.da,
        {r.id: float(r.e_initial) for r in system.reservoirs},
        {u.id: u.initial_mode for u in system.psh_units},
        scn,
    )
    return build_variant(variant, inst, ModelConfig())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scenarios", type=int, nargs="+", default=[10, 20, 50, 75])
    ap.add_argument("--variant", default="stochastic", choices=["stochastic", "robust"])
    ap.add_argument("--gap-tol", type=float, default=1e-3)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    cfg = SynthConfig(seed=args.seed)
    sd = make_day(cfg, 0)
    variant = Variant(args.variant)
    rng = np.random.default_rng(args.seed)

    entries = []
    for S in args.scenarios:
        t0 = time.perf_counter()
        model = first_window_model(sd, S, variant, rng)
        build = time.perf_counter() - t0
        t0 = time.perf_counter()
        sol = solve(model, SolveOptions(gap_tol=args.gap_tol, time_limit=300.0))
        wall = time.perf_counter() - t0
        entries.append(ScalingEntry(S, model.n_rows, model.n_vars, model.n_nonzeros, wall))
        tails = model.meta["tails"]
        counts = [c.x[i].size for c in tails.cuts.values() for i in range(len(tails.scenarios))]
        print(f"S={S:4d}: rows={model.n_rows:7d} cols={model.n_vars:7d} "
              f"nnz={model.n_nonzeros:8d} {sol.status:>9} build={build:7.3f}s wall={wall:7.3f}s "
              f"cuts={sum(counts)} per scenario {min(counts, default=0)}-{max(counts, default=0)} "
              f"blocks={len(tails.blocks)} via {sol.incumbent}")

    rows = scaling_table(entries)
    print(f"{'S':>5}{'rows':>9}{'rows%':>9}{'cols':>9}{'cols%':>9}{'nnz':>10}{'nnz%':>9}{'wall':>8}")
    for r in rows:
        print(f"{r['scenarios']:>5}{r['rows']:>9}{r['rows_pct']:>9.1f}{r['cols']:>9}"
              f"{r['cols_pct']:>9.1f}{r['nonzeros']:>10}{r['nonzeros_pct']:>9.1f}"
              f"{r['walltime_s']:>8.2f}")
    if args.out:
        write_scaling_csv(args.out, rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
