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


def test_refutation_is_a_theorems_record():
    # the kernel's soundness does not rest on it, so it is not kernel code
    from omegatruth import kernel, theorems

    assert omegatruth.Refutation is theorems.Refutation
    assert not hasattr(kernel, "Refutation") and "Refutation" not in kernel.__all__


def test_untrusted_names_live_outside_the_trusted_files():
    # check never raises MissingSchema nor builds an omega-truth formula
    from omegatruth import coding, kernel, tactics, theorems

    assert omegatruth.MissingSchema is theorems.MissingSchema
    assert omegatruth.omega_truth is tactics.omega_truth
    assert not hasattr(kernel, "MissingSchema") and "MissingSchema" not in kernel.__all__
    assert not hasattr(coding, "omega_truth") and "omega_truth" not in coding.__all__


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


def _names(path):
    """Every name a module reads, imports or reaches as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_only_tactics_knows_the_hypothesis_tree():
    # the deduction compiler's trees are a detail of taut's case split
    root = pathlib.Path(__file__).resolve().parent.parent
    tree = {"_HHyp", "_HApp", "_happly", "_discharge"}
    files = sorted((root / "src" / "omegatruth").glob("*.py"))
    assert tree <= _names(root / "src" / "omegatruth" / "tactics.py")  # the scan still finds them
    assert [f"{p.name}: {n}" for p in files if p.name != "tactics.py" for n in sorted(tree & _names(p))] == []


def _rejection_texts(path):
    """The string constants of a module's rejections: the reasons its
    matchers (``_m_*``) return beside their verdict, and every constant in
    the arguments of a ``CheckError`` it raises."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_m_"):
            parts += [r.value.elts[1] for r in ast.walk(node)
                      if isinstance(r, ast.Return) and isinstance(r.value, ast.Tuple)]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckError":
            parts += node.args[1:]
    return {c.value for p in parts for c in ast.walk(p)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def _raised_texts(path):
    """The string constants in the arguments of every exception a module
    raises."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    args = [a for r in ast.walk(tree) if isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call) for a in r.exc.args]
    return {c.value for a in args for c in ast.walk(a) if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def test_every_kernel_rejection_is_reached():
    # a rejection of the trusted files that no test names is one no test
    # holds to its message, and likely one no input reaches
    root = pathlib.Path(__file__).resolve().parent.parent
    tests = "\n".join(p.read_text(encoding="utf-8") for p in sorted((root / "tests").rglob("*.py")))
    texts = _rejection_texts(root / "src" / "omegatruth" / "kernel.py")
    assert len(texts) > 30  # the scan still finds the kernel's messages
    coding = _raised_texts(root / "src" / "omegatruth" / "coding.py")
    assert len(coding) == 9  # and coding's
    assert sorted(t for t in texts | coding if t not in tests) == []


def _recursive_functions(path):
    """The functions of a module that can call themselves, directly or
    through other functions of the module: a function calls each function
    it names, as ``name`` or as ``self.name``, in its body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    calls = {f.name: set() for f in funcs}
    for f in funcs:
        for n in ast.walk(f):
            if isinstance(n, ast.Name):
                calls[f.name].add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "self":
                calls[f.name].add(n.attr)
    out = []
    for name in calls:
        seen, todo = set(), [name]
        while todo:
            for callee in calls[todo.pop()] & (calls.keys() - seen):
                seen.add(callee)
                todo.append(callee)
        if name in seen:
            out.append(f"{path.stem}.{name}")
    return out


# What still recurses, each with its bound: tactics.build once per level
# of taut's case split, over at most 8 atoms; and the checker's run <->
# _reduce one level only, as tactics make no Omega node, so every omega
# inside a sample already bears the check's stamp.  Every other walker,
# the formula parser included, keeps a stack of its own, most through
# syntax._postorder.
RECURSIVE = {"kernel._reduce", "kernel.run", "tactics.build"}


def test_recursion_is_pinned():
    root = pathlib.Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "omegatruth").glob("*.py"))
    assert {f for p in files for f in _recursive_functions(p)} == RECURSIVE
    assert [p.name for p in files if "recursionlimit" in p.read_text(encoding="utf-8")] == []
