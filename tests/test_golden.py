"""Golden digests: a tiny sweep must reproduce stored output bytes exactly.

Runs cmd_generate + cmd_run on a small config covering the single,
frozen-rep pretrain, adaptive joint and sample-weighted pretrain arms, and
compares SHA-256 digests of the bytes of summary.csv (timestamp column
dropped), of the frozen-rep arm's metrics.csv (both phases) and of the two
adaptive weights.csv files with values stored below, so a line-ending
change fails too. A second,
one-arm run pins the identity-Hessian estimator at sample granularity, the
other alignment path of the per-example kernel, with its own digests. A
third, one task-level joint arm at hidden 32, pins the exact-Hessian
estimator (one CG solve per round). A fourth, cmd_distance on a
three-point flip grid, pins distance.csv. A fifth, cmd_run then
cmd_report on test_harness's tiny_config, pins every report/ file: the
weights_<arm>.csv means depend on the order in which the trajectories
are summed. Float64
results depend on the numpy and BLAS build, so the stored digests are keyed
on that build; on another build the test skips and names it.

After a change that is meant to move numbers, print the new digests with
`python tests/test_golden.py` and replace GOLDEN.
"""

import ctypes
import glob
import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest

from tawt_lab.harness import cmd_distance, cmd_generate, cmd_report, cmd_run, parse_config

from test_harness import tiny_config

GOLDEN = {
    "env": {
        "numpy": "2.4.6",
        "blas": "scipy-openblas 0.3.31.188.0",
        "blas_core": "SkylakeX",
    },
    "digests": {
        "summary.csv": "f29a2c18f37131362446b654c1c61b8e413464ad3478e7b088e7f886e0464799",
        "runs/pretrain-frozen/seed0/n30/metrics.csv":
            "6aa92769b5f30f2325168b1720c91ae9162de76c52775552353cc98321a78d01",
        "runs/joint-adaptive/seed0/n30/weights.csv":
            "86ecbc783b4c8dcb1b2f053f66ec470d3720ea2375fc5be81d5670c29108f994",
        "runs/pretrain-sample/seed0/n30/weights.csv":
            "a00f1b35898f423a30824f1e621a3e23c22b3885aa6270deff4cee36f651df2c",
    },
    "identity_digests": {
        "summary.csv": "442461430502650a1296cbdfed9284b186388a6769e71eebb4eb2c31b921527a",
        "runs/pretrain-sample-identity/seed0/n30/weights.csv":
            "e98a52e03ed9525d45ffaca920af4205832a9d8d92b9df9ed6cf6c0994244dd6",
    },
    "exact_digests": {
        "summary.csv": "38af3ef9fc9812c1d7682f75522493eb3e7016d1f8c078b3a48f1e2c1a895467",
        "runs/joint-exact/seed0/n30/weights.csv":
            "7cfb172462821b47c9bc9077ef2c7038a51dafa6fc27bb1caeb222b637359a67",
    },
    "distance_digests": {
        "distance.csv": "229bca9156a1551a0903bf5f1c67e42b4c239851bfd45498846a01be97d8a525",
    },
    "report_digests": {
        "report/curves.csv": "cb260f120f955ccabdeb7cd8225664673525e0a95d92986cb75a928e24799b12",
        "report/weights_adaptive.csv":
            "bbc833abcef3d8f713562cd88f5b2483b4815434aff7af0f255c64f4d8271cfc",
        "report/weights_fixed.csv":
            "134d469dff8b11c98fd0a179236880210d02e9017633a2c58bd44f2bcb6aa518",
        "report/weights_single.csv":
            "f9e9ffe20ecbcfeee7cb5a42cf6bbdd99ba2a53e54418f694a185a0c4ac046ea",
    },
}

IDENTITY_ARM = {
    "name": "pretrain-sample-identity",
    "source_flips": [1.0],
    "overrides": {
        "paradigm": "pretrain", "weighted": True,
        "weight_granularity": "sample", "weight_update_period": 2,
        "gradient_estimator": "identity_hessian", "subset_size": 16,
    },
}

EXACT_ARM = {
    "name": "joint-exact",
    "source_flips": [0.0, 1.0],
    "overrides": {
        "paradigm": "joint", "weighted": True,
        "gradient_estimator": "exact_hessian", "subset_size": 16,
    },
}

# One-arm runs: digest key -> (the arm, train overrides on golden_config).
SINGLE_ARM_RUNS = {
    "identity_digests": (IDENTITY_ARM, {}),
    "exact_digests": (EXACT_ARM, {"hidden": 32}),
}


def golden_config(out_dir) -> dict:
    return {
        "schema_version": 1,
        "master_seed": 5,
        "seeds": [0],
        "out_dir": str(out_dir),
        "family": {
            "base_n": 40, "input_dim": 6, "n_classes": 3,
            "teacher_hidden": 48, "teacher_epochs": 400, "teacher_lr": 3e-3,
            "teacher_batch": 20,
            "flip_grid": [0.0, 1.0], "source_n": 90, "target_sizes": [30],
            "eval_n": 120,
        },
        "train": {
            "hidden": 16, "epochs": 4, "batch_size": 20, "lr": 1e-3,
            "finetune_epochs": 3, "metrics_every": 0,
        },
        "arms": [
            {"name": "single", "overrides": {"paradigm": "single"}},
            {
                "name": "pretrain-frozen",
                "source_flips": [0.0],
                "overrides": {"paradigm": "pretrain", "finetune_rep": "frozen"},
            },
            {
                "name": "joint-adaptive",
                "source_flips": [0.0, 1.0],
                "overrides": {"paradigm": "joint", "weighted": True, "subset_size": 16},
            },
            {
                "name": "pretrain-sample",
                "source_flips": [1.0],
                "overrides": {
                    "paradigm": "pretrain", "weighted": True,
                    "weight_granularity": "sample", "weight_update_period": 2,
                    "subset_size": 16,
                },
            },
        ],
    }


def distance_config(out_dir) -> dict:
    raw = tiny_config(out_dir, seeds=[0])
    raw["family"].update(flip_grid=[0.0, 0.5, 1.0], source_n=300, eval_n=150, teacher_batch=100)
    raw["distance"] = {
        "head_fit_n": 150, "oracle_n": 300, "rep_epochs": 10,
        "head_fit_epochs": 15, "oracle_epochs": 10,
    }
    return raw


def _openblas_core() -> str:
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


def build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_core": _openblas_core(),
    }


def run_digests(out_dir: Path, key: str = "digests") -> dict:
    if key == "distance_digests":
        cmd_distance(parse_config(distance_config(out_dir)), out_dir)
    elif key == "report_digests":
        # Seed 10 sorts between 0 and 2, so its path order is not the summary's.
        raw = tiny_config(out_dir, seeds=[0, 2, 10])
        assert cmd_run(parse_config(raw), out_dir)["n_failed"] == 0
        cmd_report(out_dir)
        return {
            path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((out_dir / "report").iterdir())
        }
    else:
        raw = golden_config(out_dir)
        if key in SINGLE_ARM_RUNS:
            arm, train = SINGLE_ARM_RUNS[key]
            raw["arms"] = [arm]
            raw["train"].update(train)
        cfg = parse_config(raw)
        cmd_generate(cfg, out_dir)
        result = cmd_run(cfg, out_dir)
        assert result["n_failed"] == 0
    digests = {}
    for relpath in GOLDEN[key]:
        data = (out_dir / relpath).read_bytes()
        if relpath == "summary.csv":  # the timestamp is the last field of each line
            data = re.sub(rb",[^,\r\n]*(?=\r?\n)", b"", data)
        digests[relpath] = hashlib.sha256(data).hexdigest()
    return digests


def _check(out_dir: Path, key: str) -> None:
    here = build()
    if here != GOLDEN["env"]:
        pytest.skip(f"golden digests are stored for {GOLDEN['env']}, this build is {here}")
    assert run_digests(out_dir, key) == GOLDEN[key]


def test_outputs_match_golden_digests(tmp_path):
    _check(tmp_path / "out", "digests")


def test_identity_hessian_sample_arm_matches_golden_digests(tmp_path):
    _check(tmp_path / "out", "identity_digests")


def test_exact_hessian_task_arm_matches_golden_digests(tmp_path):
    _check(tmp_path / "out", "exact_digests")


def test_distance_curve_matches_golden_digests(tmp_path):
    _check(tmp_path / "out", "distance_digests")


def test_report_on_a_clean_directory_matches_golden_digests(tmp_path):
    _check(tmp_path / "out", "report_digests")


if __name__ == "__main__":
    import json
    import tempfile

    out = {"env": build()}
    for key in GOLDEN:
        if key == "env":
            continue
        with tempfile.TemporaryDirectory() as tmp:
            out[key] = run_digests(Path(tmp) / "out", key)
    print(json.dumps(out, indent=4))
