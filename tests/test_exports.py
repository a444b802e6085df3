"""Every exported name resolves, and the package's star import works."""

import ast
import importlib
import pathlib

import pytest

import omegatruth


@pytest.mark.parametrize("name", ["syntax", "coding", "kernel", "tactics", "theorems", "proofscript"])
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"omegatruth.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_star_import():
    ns: dict = {}
    exec("from omegatruth import *", ns)
    assert ns["check"] is omegatruth.check and ns["parse_formula"] is omegatruth.parse_formula


def _unused_imports(path):
    """Names that a module imports but never reads; a name listed in the
    module's ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    root = pathlib.Path(__file__).resolve().parent.parent
    files = [p for p in sorted((root / "src" / "omegatruth").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "tests").glob("*.py"))
    assert [u for p in files for u in _unused_imports(p)] == []
