"""One repetition of a benchmark workload, in a process of its own.

    python3 perfbench/rep.py --workload NAME --seed N --out DIR [--trace]
    python3 perfbench/rep.py --kernels --seed N --out DIR

A repetition is the closed loop a user runs: `cmd_generate` into an empty
directory (set-up), then `cmd_run` with jobs=1 on the cached family, or
`cmd_distance`. With --trace the tawt_lab layers are wrapped in spans and
the repetition also times a resumed `cmd_run` and `cmd_report`. With
--kernels it times single kernels at the reference shapes instead. The
last stdout line is one JSON object. run.py starts this script once per
repetition, so peak RSS is the repetition's own.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # must precede the first numpy import

import argparse
import ctypes
import glob
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = workloads.HERE.parent
clock = time.perf_counter


def _openblas_core(np) -> str:
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_core": _openblas_core(np),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def repetition(workload: str, seed: int, out: Path, trace: bool) -> dict:
    started = clock()
    from tawt_lab import harness

    raw = workloads.config(workload, seed)
    cfg = harness.parse_config(raw)
    import_s = clock() - started
    tracer = None
    if trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    result = {"attempted": workloads.expected_operations(raw, workload)}
    if workloads.uses_distance(workload):
        # cmd_distance fits its teachers inside the timed command, so the
        # only work ahead of it is starting the program and reading the config.
        result["setup_s"] = import_s
        t = clock()
        harness.cmd_distance(cfg, out)
        result["run_s"] = clock() - t
    else:
        t = clock()
        harness.cmd_generate(cfg, out)
        result["setup_s"] = clock() - t
        t = clock()
        summary = harness.cmd_run(cfg, out, jobs=1)
        result["run_s"] = clock() - t
        result["attempted"] = summary["n_jobs"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workloads.check_outputs(workload, raw, out)
    result["problems"] = problems
    result["digests"] = {} if problems else workloads.digests(workload, out)

    if tracer is not None:
        result["trace"] = tracer.snapshot()
        if not workloads.uses_distance(workload):
            t = clock()
            again = harness.cmd_run(cfg, out, jobs=1)
            result["resume_s"] = clock() - t
            result["reuse_ratio"] = again["n_skipped"] / again["n_jobs"]
            t = clock()
            harness.cmd_report(out)
            result["cmd_report_s"] = clock() - t
    result["env"] = environment(seed)
    return result


def _per_call_median(fn, calls: int, warmup: int = 20) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(calls):
        t = clock()
        fn()
        times.append(clock() - t)
    return statistics.median(times)


def kernels(seed: int, out: Path) -> dict:
    """Single kernels at the reference shapes, through public functions."""
    from tawt_lab.model import OptimizerState, apply_update, backward_arrays, init_model
    from tawt_lab.numerics import Rng
    from tawt_lab.taskgen import (
        TaskSpec, fit_teacher, generate_base_dataset, load_dataset_csv, save_dataset_csv,
    )
    from tawt_lab.training import TrainConfig

    rng = Rng(seed)
    batch, d, h, k = 100, 20, 256, 10
    model = init_model(d, h, {"t": k}, seed)
    X = rng.uniform(-0.5, 0.5, size=(batch, d))
    Y = rng.integers(0, k, size=batch)
    step_us = 1e6 * _per_call_median(lambda: backward_arrays(model, "t", X, Y), 300)
    grads = list(backward_arrays(model, "t", X, Y))
    head = model.heads["t"]
    params = [model.W1, model.b1, head.W2, head.b2]
    opt = OptimizerState(kind="adam", lr=1e-3)
    update_us = 1e6 * _per_call_median(lambda: apply_update(params, grads, opt), 300)

    data = generate_base_dataset(10000, d, k, rng.spawn("csv"))
    path = out / "kernel.csv"
    save, load = [], []
    for _ in range(3):
        t = clock()
        save_dataset_csv(data, path)
        save.append(clock() - t)
        t = clock()
        load_dataset_csv(path)
        load.append(clock() - t)

    base = generate_base_dataset(200, d, k, rng.spawn("teacher"))
    spec = TaskSpec(0.0, 200, d, k, 256, seed)
    teacher_cfg = TrainConfig(optimizer="adam", lr=3e-3, batch_size=100, epochs=400)
    fits = []
    for _ in range(3):
        t = clock()
        fit_teacher(base, spec, teacher_cfg)
        fits.append(clock() - t)
    return {
        "kernel.backward_arrays_us": step_us,
        "kernel.apply_update_us": update_us,
        "kernel.save_dataset_csv_s": statistics.median(save),
        "kernel.load_dataset_csv_s": statistics.median(load),
        "kernel.fit_teacher_s": statistics.median(fits),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--kernels", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    args.out.mkdir(parents=True, exist_ok=True)
    if args.kernels:
        result = kernels(args.seed, args.out)
    else:
        result = repetition(args.workload, args.seed, args.out, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
