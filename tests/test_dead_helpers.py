"""Every private module-level function or class of the package is used
somewhere in the package besides its own definition: a helper that only
tests, or nothing, call is deleted."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sblinks"


def _names_in(node):
    """The names that node reads, as bare names, attributes or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _unreferenced(sources):
    """The (module, name) pairs of private top-level functions and classes
    that no statement of sources names outside their own definition."""
    statements = [
        (module, stmt)
        for module, source in sources.items()
        for stmt in ast.parse(source).body
    ]
    names = [_names_in(stmt) for _, stmt in statements]
    out = []
    for module, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(
            name in used for (_, other), used in zip(statements, names) if other is not stmt
        ):
            out.append((module, name))
    return sorted(out)


def test_package_uses_every_private_helper():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources) == []


def test_guard_sees_an_unused_helper():
    sources = {
        "a.py": (
            "def _used():\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _unused():\n    pass\n"
            "class _Unused:\n    pass\n"
            "def __getattr__(name):\n    pass\n"
        ),
        "b.py": "from .a import _used\n_used()\n",
    }
    assert _unreferenced(sources) == [
        ("a.py", "_Unused"),
        ("a.py", "_recursive"),
        ("a.py", "_unused"),
    ]
