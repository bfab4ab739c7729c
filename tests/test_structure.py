"""Package structure: the closed-form/oracle wall and the public name list."""

import ast
import importlib
from pathlib import Path

import entrokit

SRC = Path(entrokit.__file__).parent


def sibling_imports(module: str) -> set[str]:
    """Names of the entrokit modules that `module` imports, read from its source."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entrokit"):
            parts = node.module.split(".")
            found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("entrokit."))
    return found


def test_oracle_imports_nothing_from_closed_form():
    seen, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(sibling_imports(module))
    assert {"oracle", "distributions", "special", "errors"} <= seen
    assert "closed_form" not in seen


def test_every_public_import_is_exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(entrokit.__all__)
    assert all(hasattr(entrokit, name) for name in entrokit.__all__)
    assert "tsallis" in entrokit.__all__


def test_bench_trace_targets_exist():
    """Every entrokit attribute the benchmark's tracer wraps still exists."""
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    named = [(entry.elts[0].attr, entry.elts[1].value) for entry in targets.elts
             if isinstance(entry.elts[0], ast.Attribute)
             and getattr(entry.elts[0].value, "id", None) == "entrokit"]
    assert len(named) >= 20
    missing = [f"{module}.{attr}" for module, attr in named
               if not hasattr(importlib.import_module(f"entrokit.{module}"), attr)]
    assert missing == []
