#!/usr/bin/env python3
"""Replay a failed window model.

``pshlac simulate`` writes a window that ends infeasible or unbounded to
``failed_<variant>_w<k>.lp`` in its run directory.  This loads that file
into HiGHS, solves it and prints the model status; for an infeasible
model it also prints the rows of an irreducible infeasible subsystem,
found with the binaries relaxed, one per line:

    python scripts/replay_window.py runs/day0/failed_perfect_w3.lp
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pshlac.milp import milp, read_lp, relaxed_iis


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("lp_file", help="failed_<variant>_w<k>.lp written by pshlac simulate")
    args = ap.parse_args(argv)
    lp = read_lp(args.lp_file)
    highs, _ = milp(lp, {})
    status = highs.modelStatusToString(highs.getModelStatus())
    print(f"status: {status}")
    if status == "Infeasible":
        for name in relaxed_iis(lp, lp.row_names_):
            print(f"iis row: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
