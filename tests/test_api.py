"""The names the package exports, and the names the benchmark calls, exist,
and the benchmark's kernels run.

perfbench/ wraps and calls tawt_lab functions by name from outside src/, so
deleting or reshaping one in the library would otherwise show only when the
benchmark runs. These checks read and run perfbench/ and change nothing in it.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import tawt_lab
from tawt_lab.training import RunRecord

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _missing(pairs) -> list[str]:
    return [
        f"{module}.{name}" for module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    ]


def test_every_exported_name_resolves():
    assert [name for name in tawt_lab.__all__ if not hasattr(tawt_lab, name)] == []


def test_every_traced_span_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    assert _missing((f"tawt_lab.{home}", attr) for _, home, attr, _ in spans.SPANS) == []
    assert [a for a in spans.RECORD_WRITERS if not hasattr(RunRecord, a)] == []


def test_every_kernel_import_exists():
    tree = ast.parse((PERFBENCH / "rep.py").read_text())
    kernels = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "kernels"
    )
    imports = [
        (node.module, alias.name) for node in ast.walk(kernels)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    assert imports and all(module.startswith("tawt_lab") for module, _ in imports)
    assert _missing(imports) == []


def test_benchmark_kernels_run(tmp_path):
    """perfbench/rep.py --kernels calls the step kernels, the CSV IO and the
    teacher fit through their public signatures, so a signature change shows
    here and not only in a traced benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "rep.py"), "--kernels", "--seed", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(k for k in result if k.startswith("kernel.")) == [
        "kernel.apply_update_us", "kernel.backward_arrays_us", "kernel.fit_teacher_s",
        "kernel.load_dataset_csv_s", "kernel.save_dataset_csv_s",
    ]
