"""Tests of the benchmark itself, on shrunken copies of its workload configs.

    python3 -m pytest -q perfbench/tests

Each test starts run.py or rep.py as a subprocess, exactly as the benchmark
is run, so the tracer never patches modules of the test process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _shrink(raw: dict) -> dict:
    family = raw["family"]
    family.update(base_n=80, teacher_hidden=128, source_n=300, eval_n=200)
    raw["train"].update(hidden=32, epochs=2)
    if "finetune_epochs" in raw["train"]:
        raw["train"]["finetune_epochs"] = 2
    for arm in raw["arms"]:
        arm["overrides"].pop("epochs", None)
    if "distance" in raw:
        raw["distance"].update(head_fit_n=200, oracle_n=300, rep_epochs=1,
                               head_fit_epochs=2, oracle_epochs=1)
    return raw


@pytest.fixture(scope="module")
def tiny_env(tmp_path_factory):
    configs = tmp_path_factory.mktemp("configs")
    for name in workloads.WORKLOADS:
        raw = _shrink(workloads.config(name))
        (configs / f"{name}.json").write_text(json.dumps(raw))
    env = dict(os.environ)
    env["PERFBENCH_CONFIGS"] = str(configs)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _bench(env, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    return proc


def _rep(env, tmp_path, workload, *flags):
    out = tmp_path / f"{workload}-{len(list(tmp_path.iterdir()))}"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", "7",
         "--out", str(out), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_metric_with_its_unit(tiny_env, workload, trace):
    proc = _bench(tiny_env, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(names)
    table = "\n".join(proc.stdout.splitlines()[:-1])
    for name, _ in names:
        assert name in table


def test_child_spans_never_exceed_their_parent(tiny_env, tmp_path):
    for workload in ("task_weighting", "distance_curve"):
        trace = _rep(tiny_env, tmp_path, workload, "--trace")["trace"]
        assert trace["negative_self"] == 0
        children: dict[str, float] = {}
        for edge, (_, total_s) in trace["edges"].items():
            parent, _, _ = edge.partition(">")
            if parent:
                children[parent] = children.get(parent, 0.0) + total_s
        for name, (_, total_s, self_s) in trace["spans"].items():
            assert 0.0 <= self_s <= total_s
            assert children.get(name, 0.0) <= total_s


def test_traced_counts_repeat_and_digests_match_untraced(tiny_env, tmp_path):
    for workload in ("task_weighting", "sample_weighting"):
        first = _rep(tiny_env, tmp_path, workload, "--trace")
        second = _rep(tiny_env, tmp_path, workload, "--trace")
        plain = _rep(tiny_env, tmp_path, workload)
        assert run._exact_counts(first) == run._exact_counts(second)
        assert first["trace"]["spans"]["model.backward_arrays"][0] > 0
        assert first["digests"] == second["digests"] == plain["digests"]
        assert not plain["problems"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(dict(os.environ), "--workload", "task_weighting", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
