#!/usr/bin/env python3
"""Multi-day synthetic study: simulate every variant over a batch of seeded
days and aggregate realized objectives and storage profits."""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pshlac.accounting import evaluate_day, objective_delta_table
from pshlac.forecast import ForecastConfig, ForecastPipeline
from pshlac.lac_models import Variant
from pshlac.milp import SolveOptions
from pshlac.rolling import PipelineProvider, RunControl, run_day
from pshlac.synth import SynthConfig, make_day, make_history, make_system


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--days", type=int, default=5)
    ap.add_argument("--scenarios", type=int, default=20)
    ap.add_argument("--gap-tol", type=float, default=1e-5)
    ap.add_argument("--out", default=None, help="optional CSV for per-day objectives")
    args = ap.parse_args()

    cfg = SynthConfig(seed=args.seed)
    base = make_system(cfg)
    history = make_history(cfg)
    pipe = ForecastPipeline(ForecastConfig(horizon=cfg.horizon)).fit(history)
    control = RunControl(seed=args.seed, solver=SolveOptions(gap_tol=args.gap_tol, time_limit=120.0))

    per_day: list[dict] = []
    for k in range(args.days):
        t0 = time.time()
        sd = make_day(cfg, k, base_system=base)
        # a sampler seed of its own per day, so days do not share their draws
        day_seed = int(np.random.SeedSequence([args.seed, k]).generate_state(1)[0])
        provider = PipelineProvider(
            pipe, sd.market_day.da_lmp, cfg.horizon, args.scenarios, day_seed
        )
        ledgers = {}
        for variant in Variant:
            led = run_day(sd.system, sd.market_day, variant, provider, control, sd.da)
            ledgers[variant.value] = led
        ev = evaluate_day(sd.system, sd.market_day, ledgers, sd.da, control.model, control.solver)
        row = {"day": sd.market_day.label}
        row.update({n: o.objective for n, o in ev.outcomes.items()})
        per_day.append(row)
        print(f"{sd.market_day.label}: {time.time() - t0:6.1f}s  "
              + "  ".join(f"{n}={o.objective:,.0f}" for n, o in sorted(ev.outcomes.items())))

    names = [v.value for v in Variant]
    means = {n: float(np.mean([r[n] for r in per_day])) for n in names}
    print("\nmean realized objective over", args.days, "days")
    for row in objective_delta_table(means):
        print(f"  {row['variant']:<18}{row['objective']:>14.2f}{row['delta_pct']:>10.3f}%")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("day," + ",".join(names) + "\n")
            for r in per_day:
                fh.write(r["day"] + "," + ",".join(repr(r[n]) for n in names) + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
