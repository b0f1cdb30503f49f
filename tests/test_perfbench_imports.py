"""Every ``kvroof`` name the benchmark harness imports exists, so deleting one cannot break the benchmark unseen.

The harness in ``perfbench/`` is parsed, not imported: each ``from kvroof.<module> import <names>`` and
``import kvroof.<module>``, including those in the source strings it runs in a child interpreter, must
resolve against this checkout.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imports(tree: ast.AST):
    """(module, name or None) for each kvroof import in ``tree`` and in the Python source its strings hold."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kvroof":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "kvroof")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "kvroof" in node.value:
            try:
                inner = ast.parse(node.value)
            except SyntaxError:  # a string that mentions kvroof but is not code
                continue
            yield from _imports(inner)


def _resolves(module: str, name) -> bool:
    return name is None or hasattr(importlib.import_module(module), name)


def test_every_kvroof_name_the_harness_imports_exists():
    found = [(path.name, module, name) for path in sorted(PERFBENCH.glob("*.py"))
             for module, name in _imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found, f"no kvroof import found under {PERFBENCH}"
    missing = [f"{file}: {module} {name or ''}" for file, module, name in found if not _resolves(module, name)]
    assert not missing
