"""The package is pure Python with one rank kernel and no environment switches."""

import re
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


def test_one_rank_kernel():
    assert tncuts.active_backend() == "pure"
