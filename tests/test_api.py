"""The names the package exports, and the names the benchmark calls, exist.

perfbench/ wraps and calls tawt_lab functions by name from outside src/, so
deleting one from the library would otherwise show only when the benchmark
runs. These checks read perfbench/ and change nothing in it.
"""

import ast
import importlib
import importlib.util
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
