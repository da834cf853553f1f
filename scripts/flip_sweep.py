#!/usr/bin/env python3
"""Transfer accuracy versus source flip rate and target size.

Runs the reference sweep (single-task baseline plus one pretrain arm per
source flip rate) and prints the mean-accuracy table that the curves in
results/flip_sweep/report/curves.csv plot. Expect ~10 minutes on one core.

    python scripts/flip_sweep.py [--jobs N] [--out DIR]
"""

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

CONFIG = Path(__file__).parent / "configs" / "flip_sweep.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    from tawt_lab.harness import load_config, main as lab

    run_args = ["run", "--config", str(CONFIG), "--jobs", str(args.jobs)]
    report_args = ["report", "--config", str(CONFIG)]
    if args.out:
        run_args += ["--out", args.out]
        report_args = ["report", "--out", args.out]
    for argv in (run_args, report_args):
        rc = lab(argv)
        if rc != 0:  # a failed report leaves no table of this sweep to print
            return rc

    out_dir = Path(args.out or load_config(CONFIG).out_dir)
    table = defaultdict(dict)
    sizes = set()
    with open(out_dir / "report" / "curves.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            size = int(row["target_size"])
            sizes.add(size)
            table[row["arm"]][size] = float(row["mean_acc"])
    sizes = sorted(sizes)
    arms = ["single", "pretrain-q0", "pretrain-q0.2", "pretrain-q0.5", "pretrain-q1"]
    print("\nmean target accuracy (rows: arm, columns: target size)")
    print(f"{'arm':<14}" + "".join(f"{n:>9}" for n in sizes))
    for arm in arms:
        cells = "".join(f"{table[arm].get(n, float('nan')):>9.3f}" for n in sizes)
        print(f"{arm:<14}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
