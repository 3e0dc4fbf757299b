"""Guards against stale exports: every name a module lists in `__all__`
exists, and every name the package imports or loads lazily resolves."""
import ast
import importlib
from pathlib import Path

import pytest

import stosym

MODULES = ("kernel", "model", "detgen", "verify", "solve", "dsl", "kpz",
           "mcsim", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_exists(name):
    module = importlib.import_module(f"stosym.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"stosym.{name}.__all__ lists missing names {missing}"


def _package_imports():
    tree = ast.parse(Path(stosym.__file__).read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def test_package_imports_resolve():
    names = _package_imports()
    assert "check" in names and "solve_ansatz" in names
    missing = [n for n in (*names, *stosym._MCSIM_NAMES)
               if not hasattr(stosym, n)]
    assert not missing, f"stosym does not resolve {missing}"

