"""The package is pure Python with one rank kernel, no environment switches and no recursion."""

import ast
import json
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import tncuts

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tncuts"


def test_no_native_sources_or_binaries():
    native = [
        path.relative_to(ROOT).as_posix()
        for pattern in ("*.pyx", "*.c", "*.so")
        for path in PACKAGE.rglob(pattern)
        if "__pycache__" not in path.parts
    ]
    assert native == []


def test_no_module_reads_the_environment():
    readers = [
        path.name
        for path in sorted(PACKAGE.rglob("*.py"))
        if "environ" in (text := path.read_text(encoding="utf-8")) or "getenv" in text
    ]
    assert readers == []


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert config["project"]["dependencies"] == ["numpy>=1.24"]
    requires = config["build-system"]["requires"]
    assert requires and all(re.split(r"[\s<>=!~;\[]", req)[0] == "setuptools" for req in requires)


def test_names_load_their_module_on_first_access():
    code = (
        "import json, sys, tncuts\n"
        "ours = lambda: sorted(m for m in sys.modules if m.startswith('tncuts.'))\n"
        "before = ours()\n"
        "tncuts.parse_tree\n"
        "print(json.dumps([before, ours()]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=ROOT)
    assert out.returncode == 0, out.stderr.decode()
    assert json.loads(out.stdout) == [[], ["tncuts.rng", "tncuts.trees"]]


def test_every_public_name_resolves_to_its_definition():
    for name in tncuts.__all__:
        module = import_module(f"tncuts.{tncuts._SOURCE[name]}")
        assert getattr(tncuts, name) is getattr(module, name), name
    assert set(tncuts.__all__) <= set(dir(tncuts))
    assert tncuts.oracle is import_module("tncuts.oracle")
    with pytest.raises(AttributeError):
        tncuts.no_such_name


def _functions(path: Path) -> list[ast.FunctionDef]:
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.FunctionDef)]


def _is_pivot_inverse(node: ast.AST) -> bool:
    """``pow(x, -1, p)``: the modular inverse an elimination takes of each pivot."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) == 3
        and ast.unparse(node.args[1]) == "-1"
    )


def test_one_rank_kernel():
    assert tncuts.active_backend() == "pure"
    # one elimination loop, which both entry points call
    functions = {f"{path.stem}.{fn.name}": fn for path in sorted(PACKAGE.rglob("*.py")) for fn in _functions(path)}
    inverters = [name for name, fn in functions.items() if any(_is_pivot_inverse(sub) for sub in ast.walk(fn))]
    assert inverters == ["fieldmath._eliminate"]
    for entry in ("fieldmath.rank_mod", "oracle.flattening_rank"):
        called = {_called_name(sub.func) for sub in ast.walk(functions[entry]) if isinstance(sub, ast.Call)}
        assert "_eliminate" in called, entry


def _called_name(func: ast.expr) -> str | None:
    """``f`` for a call ``f(...)``, ``self.f(...)`` or ``cls.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
        return func.attr
    return None


def _self_callers(source: str) -> list[str]:
    """Names of the functions in ``source`` that call themselves by name."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(sub, ast.Call) and _called_name(sub.func) == node.name for sub in ast.walk(node))
    ]


def test_self_callers_detects_recursion():
    source = (
        "def f(n):\n    return f(n - 1)\n\n"
        "def g(d):\n    def h(x):\n        return self.h(x)\n    return d.g()\n"
    )
    assert _self_callers(source) == ["f", "h"]


def test_no_function_calls_itself():
    # trees of any depth must never meet Python's recursion limit
    recursive = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _self_callers(path.read_text(encoding="utf-8"))
    ]
    assert recursive == []
