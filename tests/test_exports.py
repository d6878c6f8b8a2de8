"""Every public name the package advertises exists.

A name left in a module's ``__all__`` after its definition is deleted
breaks ``from score_lab.<module> import *`` without failing any import
the rest of the package makes.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import score_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(score_lab.__path__))


def test_every_name_in_all_resolves():
    assert {"abacus", "bijection", "formulas", "mdcore", "motzkin", "oracle",
            "progression"} <= set(MODULES)
    for name in MODULES:
        module = importlib.import_module(f"score_lab.{name}")
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), name
        missing = [item for item in exported if not hasattr(module, item)]
        assert not missing, (name, missing)
        namespace = {}
        exec(f"from score_lab.{name} import *", namespace)


def test_package_root_reexports_public_names_only():
    tree = ast.parse(Path(score_lab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"score_lab.{node.module}")
        for alias in node.names:
            assert getattr(score_lab, alias.name) is getattr(module, alias.name)
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, (node.module, alias.name)
