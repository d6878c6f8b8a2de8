"""Every public name the package advertises exists.

A name left in a module's ``__all__`` after its definition is deleted
breaks ``from score_lab.<module> import *`` without failing any import
the rest of the package makes.  A name the README's library map cites
after it is deleted misleads its readers the same way.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import score_lab
from score_lab import Progression

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


def test_every_identifier_in_the_readme_library_map_resolves():
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library map", 1)[1]
    rows = re.findall(r"^\| `score_lab\.(\w+)` *\|(.*)\|$", section, re.MULTILINE)
    assert {"progression", "abacus", "bijection"} <= {name for name, _ in rows}
    for name, contents in rows:
        module = importlib.import_module(f"score_lab.{name}")
        for span in re.findall(r"`([^`]+)`", contents):
            # a name, or a call such as `Progression(s, d, p)`
            cited = re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span)
            if cited and len(cited[1]) >= 2:
                assert any(
                    hasattr(owner, cited[1]) for owner in (score_lab, module, Progression)
                ), (name, span)
