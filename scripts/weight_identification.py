#!/usr/bin/env python3
"""Can adaptive weighting tell a useful source from a distractor?

Two sources of 2000 examples each: a fresh draw from the target's own label
function (flip 0.0) and a flip-1.0 distractor. Joint training with adaptive
weights should end with more weight on the copy than on the distractor and
at least match the fixed-weight baseline's target accuracy. ~1 minute.
It reports the jobs summary.csv lists as successful, each from its own
runs/<arm>/seed<k>/n<size>/weights.csv; a failed job is counted apart, and
a directory a dropped seed left behind is not read.

    python scripts/weight_identification.py [--out DIR]
"""

import argparse
import csv
import sys
from pathlib import Path

CONFIG = Path(__file__).parent / "configs" / "weight_identification.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    from tawt_lab.harness import load_config, main as lab

    run_args = ["run", "--config", str(CONFIG)]
    if args.out:
        run_args += ["--out", args.out]
    rc = lab(run_args)
    if rc != 0:
        return rc

    out_dir = Path(args.out or load_config(CONFIG).out_dir)
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    done = [row for row in rows if not row["error"]]  # a failed job's row has no result
    acc = {}
    for row in done:
        acc.setdefault(row["arm"], []).append(float(row["final_target_acc"]))

    print("\nfinal weights per job (adaptive joint arm; w_0 is the target)")
    adaptive = [row for row in done if row["arm"] == "joint-adaptive"]
    wins = 0
    for row in adaptive:
        job = f"seed{row['seed']}/n{row['target_size']}"
        weights = out_dir / "runs" / row["arm"] / job / "weights.csv"
        last = weights.read_text().splitlines()[-1].split(",")
        target_w, copy_w, distractor_w = (float(x) for x in last[1:4])
        wins += copy_w > distractor_w
        print(f"  {job}: target={target_w:.4f} copy={copy_w:.3e} distractor={distractor_w:.3e}")
    print(f"copy outweighs distractor in {wins}/{len(adaptive)} jobs")
    if len(done) < len(rows):
        print(f"{len(rows) - len(done)} failed jobs left out; summary.csv holds their errors")
    for arm, values in sorted(acc.items()):
        print(f"mean accuracy {arm}: {sum(values)/len(values):.4f}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
