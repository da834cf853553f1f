"""Workload configs, output digests and output checks.

Each workload is an experiment config under configs/, sized down from a
reference config (see README.md) so that one repetition takes seconds. The
workload seed replaces the config's master_seed; the config's own
master_seed is the default seed, at which golden digests are stored.

Stdlib only: the repetition process times its own numpy import.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark's own tests point this at shrunken copies of configs/.
CONFIG_DIR = Path(os.environ.get("PERFBENCH_CONFIGS", HERE / "configs"))
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = tuple(w["name"] for w in
                  json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"])

# Output files fingerprinted per workload, relative to the output directory.
# summary.csv is hashed without its timestamp column.
DIGEST_FILES = {
    "transfer_sweep": ["summary.csv"],
    "task_weighting": ["summary.csv", "runs/joint-adaptive/seed0/n100/weights.csv"],
    "sample_weighting": ["summary.csv", "runs/pretrain-sample/seed0/n100/weights.csv"],
    "distance_curve": ["distance.csv"],
}


def uses_distance(workload: str) -> bool:
    return workload == "distance_curve"


def config(workload: str, seed: int | None = None) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    raw = json.loads((CONFIG_DIR / f"{workload}.json").read_text())
    if seed is not None:
        raw["master_seed"] = seed
    return raw


def default_seed(workload: str) -> int:
    return config(workload)["master_seed"]


def config_sha256(workload: str) -> str:
    """Identifies the config a golden digest was taken from."""
    return hashlib.sha256(json.dumps(config(workload), sort_keys=True).encode()).hexdigest()


def expected_operations(raw: dict, workload: str) -> int:
    """Jobs for `run`, distance estimates for `distance`."""
    if uses_distance(workload):
        grid = raw["distance"].get("flip_grid", raw["family"]["flip_grid"])
        return len(grid) * len(raw["distance"].get("seeds", raw["seeds"]))
    return len(raw["arms"]) * len(raw["seeds"]) * len(raw["family"]["target_sizes"])


def _summary_without_timestamp(path: Path) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("timestamp")
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows).encode()


def digests(workload: str, out_dir: Path) -> dict[str, str]:
    result = {}
    for rel in DIGEST_FILES[workload]:
        path = out_dir / rel
        data = _summary_without_timestamp(path) if rel == "summary.csv" else path.read_bytes()
        result[rel] = hashlib.sha256(data).hexdigest()
    return result


def check_outputs(workload: str, raw: dict, out_dir: Path) -> list[str]:
    """Structural checks that hold at every seed; returns the problems found."""
    problems = []
    expected = expected_operations(raw, workload)
    if uses_distance(workload):
        with open(out_dir / "distance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != expected:
            problems.append(f"distance.csv has {len(rows)} rows, expected {expected}")
        for row in rows:
            acc = float(row["aux_accuracy"])
            if not 0.0 <= acc <= 1.0:
                problems.append(f"aux_accuracy {acc} outside [0, 1]")
        return problems
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected:
        problems.append(f"summary.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        if row["error"]:
            problems.append(f"job {row['arm']}/seed{row['seed']} failed: {row['error']}")
        elif not 0.0 <= float(row["final_target_acc"]) <= 1.0:
            problems.append(f"job {row['arm']} accuracy {row['final_target_acc']} outside [0, 1]")
    for rel in DIGEST_FILES[workload]:
        if not (out_dir / rel).is_file():
            problems.append(f"missing output {rel}")
    return problems


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
