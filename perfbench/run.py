"""tawt-lab benchmark: one workload, repeated in fresh processes for a fixed time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs in its own process (rep.py) with OPENBLAS_NUM_THREADS=1
and jobs=1: set-up (`cmd_generate` into an empty directory), then the
timed command. Repetitions follow one another back to back (a closed loop,
one client) until --seconds have passed. The end-to-end metrics are means
over repetitions. --trace 1 alternates untraced and traced repetitions, with
at least two of each, and reports per-layer metrics from the traced ones,
plus single-kernel timings.
Every repetition's outputs are checked, and their digests compared with
golden.json at the default seed or with each other at any other seed.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = workloads.HERE.parent
REP = workloads.HERE / "rep.py"
WORK_ROOT = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # the whole command must end within 180 s
clock = time.perf_counter

# Names, units and run length come from BENCHMARK.json. Every end-to-end
# metric is the mean over the untraced repetitions of a run: on shared
# 2-core VMs the CPU speed can alternate between two levels about 1.6x
# apart, switching every few seconds to minutes. A median or a minimum then
# jumps between the levels as the mix shifts; the mean moves only in
# proportion to it. Per-layer metrics are medians over traced repetitions.
# The table prints the median, min and max of every metric.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
MIN_TRACED = 2  # call counts are compared between traced repetitions

# Baseline quoted from ROADMAP.md (2 cores, py3.11, numpy 2.4.6, OpenBLAS 0.3.31).
KERNEL_REFERENCE = {
    "kernel.backward_arrays_us": "400-550 us",
    "kernel.apply_update_us": "105-160 us",
    "kernel.save_dataset_csv_s": "~0.44 s",
    "kernel.load_dataset_csv_s": "0.14 s",
}

ENV_KEYS_FOR_GOLDEN = ("numpy", "blas", "blas_core")


def _child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str], started: float) -> dict | None:
    """Run rep.py to completion; its last stdout line, parsed, or None."""
    timeout = max(5.0, DEADLINE_S - (clock() - started))
    try:
        proc = subprocess.run(
            [sys.executable, str(REP), *args], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s: {args}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition failed ({proc.returncode}): {args}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _span(trace: dict, name: str, index: int) -> float:
    return trace["spans"].get(name, [0, 0.0, 0.0])[index]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    trace = rep["trace"]
    counts = trace["counts"]
    m = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = _span(trace, base, 0)
        elif field == "self_s":
            m[name] = _span(trace, base, 2)
    m["training.self_s"] = _span(trace, "training", 2)
    m["training.record_write_s"] = _span(trace, "training.record_write", 2)
    m["model.backward_arrays.gflops"] = _ratio(
        counts.get("model.backward_arrays.flop", 0) / 1e9, m["model.backward_arrays.self_s"])
    steps = trace["edges"].get("taskgen.fit_teacher>model.backward_arrays", [0])[0]
    m["taskgen.fit_teacher.steps"] = steps
    m["taskgen.fit_teacher.budget_used"] = _ratio(
        steps, counts.get("taskgen.fit_teacher.budget_steps", 0))
    for io in ("save_dataset_csv", "load_dataset_csv"):
        m[f"taskgen.{io}.mb_per_s"] = _ratio(
            counts.get(f"taskgen.{io}.bytes", 0) / 1e6, m[f"taskgen.{io}.self_s"])
    m["harness.hash_mb"] = counts.get("harness.hash_bytes", 0) / 1e6
    m["harness.resume_s"] = rep.get("resume_s", 0.0)
    m["harness.resume.reuse_ratio"] = rep.get("reuse_ratio", 0.0)
    m["harness.cmd_report_s"] = rep.get("cmd_report_s", 0.0)
    m["harness.jobs"] = rep["attempted"]
    m["harness.jobs_failed"] = rep["failed"]
    return m


def _exact_counts(rep: dict) -> dict:
    trace = rep["trace"]
    return {
        "spans": {k: v[0] for k, v in trace["spans"].items()},
        "edges": {k: v[0] for k, v in trace["edges"].items()},
        "counts": trace["counts"],
    }


def _golden_reference(workload: str, seed: int, env: dict) -> dict | None:
    golden = workloads.load_golden().get(workload)
    if golden is None or golden["seed"] != seed:
        return None
    if golden["config_sha256"] != workloads.config_sha256(workload):
        return None
    if any(golden["env"].get(k) != env.get(k) for k in ENV_KEYS_FOR_GOLDEN):
        return None
    return golden["digests"]


def _print_table(rows: list[tuple]) -> None:
    print(f"{'metric':<52} {'unit':<8} {'n':>3} {'median':>12} {'min':>12} {'max':>12}"
          "  reference")
    for name, unit, values, ref in rows:
        print(f"{name:<52} {unit:<8} {len(values):>3} {statistics.median(values):>12.6g} "
              f"{min(values):>12.6g} {max(values):>12.6g}  {ref}")


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    started = clock()
    subprocess.run([sys.executable, "-c", "import tawt_lab.harness"], cwd=ROOT,
                   env=_child_env(), check=True, timeout=60)
    kernels = None
    if trace:
        kernels = _child(["--kernels", "--seed", str(seed), "--out", str(work / "kernels")],
                         started)
    reps = []
    rep_time = 0.0
    expected = workloads.expected_operations(workloads.config(workload, seed), workload)
    while True:
        traced = trace and len(reps) % 2 == 1
        out = work / f"rep{len(reps)}"
        args = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
        t = clock()
        rep = _child(args + (["--trace"] if traced else []), started)
        rep_time += clock() - t
        shutil.rmtree(out, ignore_errors=True)
        if rep is None:
            rep = {"attempted": expected, "problems": ["repetition did not complete"]}
        rep["traced"] = traced
        reps.append(rep)
        elapsed = clock() - started
        if trace and sum(r["traced"] for r in reps) < MIN_TRACED:
            continue
        if elapsed + rep_time / len(reps) > min(seconds, DEADLINE_S - 10):
            break

    env = next((r["env"] for r in reps if "env" in r), {})
    reference = _golden_reference(workload, seed, env)
    check = "golden digests" if reference else "agreement between repetitions"
    if reference is None:
        reference = next((r["digests"] for r in reps if not r["problems"]), None)
    for rep in reps:
        if not rep["problems"] and rep["digests"] != reference:
            rep["problems"].append(f"output digests differ from the {check}")
        rep["failed"] = rep["attempted"] if rep["problems"] else 0
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    notes = [f"output check: {check}; job_error_rate = {failed}/{attempted} = "
             f"{failed / attempted:.4g}"]
    for i, rep in enumerate(reps):
        notes += [f"repetition {i}: {p}" for p in rep["problems"]]
    # To re-record golden.json after a change that alters results on purpose,
    # copy these at the default seed (see README.md).
    notes.append("digests " + json.dumps({
        "seed": seed, "config_sha256": workloads.config_sha256(workload),
        "env": {k: env.get(k) for k in ENV_KEYS_FOR_GOLDEN}, "digests": reference,
    }, sort_keys=True))
    timed = [r for r in reps if "run_s" in r]
    plain = [r for r in timed if not r["traced"]]
    rows = [(name, unit, [r[name] for r in plain], "") for name, unit in END_TO_END]
    metrics = {name: (unit, statistics.fmean(r[name] for r in plain))
               for name, unit in END_TO_END if plain}
    consistent = True
    if trace:
        traced_reps = [r for r in timed if r["traced"]]
        layers = [layer_metrics(r) for r in traced_reps]
        consistent = len(traced_reps) >= MIN_TRACED and all(
            _exact_counts(r) == _exact_counts(traced_reps[0]) for r in traced_reps)
        if not consistent:
            notes.append(f"call counts not confirmed: {len(traced_reps)} traced repetitions "
                         "completed, or they disagree")
        if any(r["trace"]["negative_self"] for r in traced_reps):
            notes.append("a span's children outlasted it")
            consistent = False
        layer_rows = []
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                values = [statistics.median(r["run_s"] for r in traced_reps)
                          - statistics.median(r["run_s"] for r in plain)
                          ] if traced_reps and plain else []
            elif name.startswith("kernel."):
                values = [kernels[name]] if kernels else []
            else:
                values = [layer[name] for layer in layers]
            layer_rows.append((name, unit, values, KERNEL_REFERENCE.get(name, "")))
        rows += layer_rows
        metrics = {name: (unit, statistics.median(v)) for name, unit, v, _ in layer_rows if v}
        notes.append("no layer has a wait metric: jobs run back to back, there is no queue")
        notes.append(f"trace overhead = traced run_s - untraced run_s over "
                     f"{len(traced_reps)} traced / {len(plain)} untraced repetitions")

    print(f"workload {workload}, seed {seed}, {len(reps)} repetitions in "
          f"{clock() - started:.1f} s (closed loop, 1 client, jobs=1)")
    print("environment " + json.dumps(env, sort_keys=True))
    _print_table([row for row in rows if row[2]])
    for note in notes:
        print("note: " + note)
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0 and consistent and len(metrics) == len(names),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="becomes the configs' master_seed (default: the config's own)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tawt_lab" / "__init__.py").is_file():
        print(f"error: no tawt_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = workloads.default_seed(args.workload) if args.seed is None else args.seed
    work = WORK_ROOT / str(os.getpid())
    try:
        result = run(args.workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
