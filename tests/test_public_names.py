"""Every public name ``kvroof`` defines is reached by the package itself or by the benchmark harness.

The scan collects, with ``ast``, the public module-level functions, classes and constants of
``src/kvroof`` and the public methods of its classes. Each must be named somewhere in
``src/kvroof`` or ``perfbench/`` outside its own definition; a name that only tests call is
code that nothing ships for, and is deleted rather than kept. ``TEST_REFERENCES`` lists the
few exceptions: quantities the tests compare the program against.
"""

import ast
from pathlib import Path

import kvroof

PACKAGE = Path(kvroof.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TEST_REFERENCES = {
    # the documented moments of each synth profile (``workload.StreamProfile``): tests pin the
    # profiles' parameters to them, and ``test_paper_claims.py`` reads the median K/T
    "mean_prefill_tokens", "mean_cached_tokens", "median_kappa_ratio",
    # the closed-form VRAM concurrency limit, which ``test_simulator.py`` checks the simulator's
    # peak residents against (``analytics``' docstring names it, but nothing calls it)
    "max_concurrent",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(path: Path):
    """(name, first line, last line) of each public top-level function, class and constant, and public method."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes += [item for item in node.body if isinstance(item, ast.FunctionDef)]
            yield from ((n.name, n.lineno, n.end_lineno) for n in nodes if _public(n.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node.lineno, node.end_lineno) for t in targets
                        if isinstance(t, ast.Name) and _public(t.id))


def _references(tree: ast.AST, line: int = None):
    """(name, line) for each name ``tree`` reads, imports or reads as an attribute, and for each
    name read by the ``kvroof`` code its strings hold; a string's names carry the string's line."""
    for node in ast.walk(tree):
        at = line or getattr(node, "lineno", None)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, at
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, at
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, at) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "kvroof" in node.value:
            try:
                inner = ast.parse(node.value)
            except SyntaxError:  # a string that mentions kvroof but is not code
                continue
            yield from _references(inner, at)


def _unreached() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    refs = [(path, name, line) for path in sources
            for name, line in _references(ast.parse(path.read_text(encoding="utf-8")))]
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(path):
            if not any(n == name and not (p == path and first <= line <= last) for p, n, line in refs):
                found.append(f"{path.name}:{first} {name}")
    return found


def test_every_public_name_is_reached_outside_the_tests():
    assert list(PERFBENCH.glob("*.py")), f"no benchmark source under {PERFBENCH}"
    unreached = _unreached()
    unexpected = [u for u in unreached if u.split()[-1] not in TEST_REFERENCES]
    assert unexpected == [], f"public names only tests reach: {', '.join(unexpected)}"
    # the exceptions stay exact: each is still defined and still reached by the tests alone
    assert sorted(u.split()[-1] for u in unreached) == sorted(TEST_REFERENCES)
