#!/usr/bin/env python3
"""Estimated task distance as a function of the source flip rate.

For each flip rate, trains a representation on 10000 source examples,
freezes it, fits a target head, and subtracts the risk of a model trained
on abundant target data. Distance should start near zero at flip 0.0 and
grow with the flip rate. ~3 minutes on one core; --jobs N runs up to N
seeds at once, with the same distance.csv.

    python scripts/distance_curve.py [--jobs N] [--out DIR]
"""

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

CONFIG = Path(__file__).parent / "configs" / "distance_curve.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    from tawt_lab.harness import load_config, main as lab

    run_args = ["distance", "--config", str(CONFIG), "--jobs", str(args.jobs)]
    if args.out:
        run_args += ["--out", args.out]
    rc = lab(run_args)
    if rc != 0:
        return rc

    out_dir = Path(args.out or load_config(CONFIG).out_dir)
    by_q = defaultdict(list)
    with open(out_dir / "distance.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            by_q[float(row["flip_rate"])].append(float(row["distance"]))
    print("\nmean estimated distance by source flip rate")
    for q in sorted(by_q):
        values = by_q[q]
        print(f"  flip {q:g}: {sum(values)/len(values):+.4f}  (n={len(values)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
