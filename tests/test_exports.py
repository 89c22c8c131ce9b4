"""Every exported name resolves: each module's ``__all__`` and the package's own imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import admmq

MODULES = sorted(info.name for info in pkgutil.iter_modules(admmq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"admmq.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_resolve_and_are_exported():
    tree = ast.parse(Path(admmq.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"admmq.{module_name}")
        assert hasattr(admmq, name) and name in module.__all__, (module_name, name)
