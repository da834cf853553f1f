"""The names the package exports, and the names the benchmark calls, exist,
every exported name has a caller outside tests/, and the benchmark's
kernels run.

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

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _missing(pairs) -> list[str]:
    return [
        f"{module}.{name}" for module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    ]


def test_every_exported_name_resolves():
    assert [name for name in tawt_lab.__all__ if not hasattr(tawt_lab, name)] == []


def _uses(path) -> set[str]:
    """Every name a file reads, imports, reads as an attribute or spells as
    a string (perfbench/spans.py wraps functions by name): a def, a class
    or an assignment binds its name and is not a use of it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    """An export that only tests/ calls is library surface the lab does not
    run: keep it in tests/oracles.py instead. The package's __init__.py,
    which re-exports every name, is no caller."""
    callers = [path for path in (ROOT / "src" / "tawt_lab").glob("*.py")
               if path.name != "__init__.py"]
    callers += [*(ROOT / "scripts").rglob("*.py"), *PERFBENCH.rglob("*.py")]
    used = set().union(*map(_uses, callers))
    assert [name for name in tawt_lab.__all__ if name not in used] == []


def test_the_library_trains_only_through_tawt():
    """No module under src/ calls a fixed-weight wrapper: each is a
    configuration of tawt that only tests/ and perfbench/ still name, so
    deleting them later removes their definitions and exports and nothing
    else in the library."""
    wrappers = {"train_single_task", "pretrain_then_finetune", "joint_train"}
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "tawt_lab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in wrappers
    ]
    assert calls == []


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
