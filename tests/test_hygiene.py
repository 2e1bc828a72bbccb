"""Source hygiene, checked over the AST since no linter is installed: no
module imports a name it never reads, every top-level function and class
in `src/locpar` has a reader in the library or the benchmark harness, and
every function reads each of its parameters."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "locpar"
MODULES = sorted(SRC.glob("*.py"))

# read only by tests, which compare the library against them
TEST_ORACLES = {
    "byte_parse": "round-trip oracle for both byte serializers",
    "bottom_two_pack_stats": "closed-form pointer counts behind criterion 8",
    "print_program": "parse/print round trip over the corpus",
}

# parameters that their function does not read, which callers still pass
UNREAD_PARAMETERS = {
    "check_wellformed.tts": "passed positionally by benchmarks/workloads.py; "
                            "goes with the next benchmark change",
}


def _names_read(tree: ast.AST) -> set[str]:
    """Names and attribute names loaded anywhere in `tree`, including those
    inside string annotations."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) \
                else node.annotation
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _names_read(ast.parse(sub.value, mode="eval"))
    return names


def _imported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    return _imported(tree) - _names_read(tree)


def unread_definitions(modules: dict[str, str],
                       readers: dict[str, str]) -> set[str]:
    """Top-level functions and classes of `modules` (name -> source) that no
    statement of `modules` or `readers` reads, other than their own
    definition."""
    defined: set[tuple[str, str]] = set()
    read: set[str] = set()
    for mod, source in {**modules, **readers}.items():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None) \
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None and mod in modules:
                defined.add((mod, own))
            read |= _names_read(stmt) - {own}
    return {f"{mod}.{name}" for mod, name in defined if name not in read}


def unread_parameters(source: str) -> set[str]:
    """`function.parameter` for each parameter (other than `self`) that
    its function's body never loads, nested functions included."""
    unread: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread |= {f"{node.name}.{p}" for p in params
                   if p not in read and p != "self"}
    return unread


def _sources(paths) -> dict[str, str]:
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == set()


def test_every_definition_has_a_reader():
    readers = [p for p in (ROOT / "benchmarks").glob("*.py")
               if not p.name.startswith("test_")]
    unread = unread_definitions(_sources(MODULES), _sources(readers))
    assert {u.rsplit(".", 1)[1] for u in unread} == set(TEST_ORACLES), unread


def test_every_parameter_is_read():
    unread = set().union(*(unread_parameters(p.read_text()) for p in MODULES))
    assert unread == set(UNREAD_PARAMETERS)


def test_checks_catch_what_they_look_for():
    typecheck = (SRC / "typecheck.py").read_text()
    leftover = typecheck.replace("from .store import Decls",
                                 "from .store import Ivar, Decls")
    assert leftover != typecheck
    assert unused_imports(leftover) == {"Ivar"}
    mod = "def used():\n    return 1\n\ndef dead():\n    return dead()\n"
    reader = "from m import used\nused()\n"
    assert unread_definitions({"m": mod}, {"r": reader}) == {"m.dead"}
    mod = ("class C:\n    def m(self, a, *rest, k=1):\n"
           "        def inner():\n            return a + k\n"
           "        return inner()\n")
    assert unread_parameters(mod) == {"m.rest"}
