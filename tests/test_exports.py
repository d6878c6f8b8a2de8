"""Every public name the package advertises exists, and each has a reader.

A name left in a module's ``__all__`` after its definition is deleted
breaks ``from score_lab.<module> import *`` without failing any import
the rest of the package makes.  A name the README's library map cites
after it is deleted misleads its readers the same way.  A public name
that only tests call is a wrapper to delete, unless the README keeps it
for users and says why.
"""

import ast
import importlib
import json
import pkgutil
import re
from pathlib import Path

import score_lab
from score_lab import Progression

MODULES = sorted(info.name for info in pkgutil.iter_modules(score_lab.__path__))
ROOT = Path(__file__).parents[1]


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
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library map", 1)[1]
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


def _reads(tree, skip):
    """Every name and attribute a syntax tree reads or imports, outside the body of ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_is_read_by_the_package_named_by_the_benchmark_or_kept():
    # A name in __all__ stays when package code other than its own body reads
    # it (the root's re-exports do not count), when a BENCHMARK.json per-layer
    # metric names it, or when the README lists it as kept for users.
    package = Path(score_lab.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in package.glob("*.py")
        if path.stem != "__init__"
    }
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    benchmarked = {metric["name"].rsplit(".", 1)[0] for metric in metrics}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Public names kept for users", 1)[1].split("\n## ", 1)[0]
    kept = re.findall(r"^- `(\w+)\.(\w+)`: \S", section, re.MULTILINE)
    assert kept
    for module_name, name in kept:
        module = importlib.import_module(f"score_lab.{module_name}")
        assert name in module.__all__, (module_name, name)
    unread = [
        f"{module_name}.{name}"
        for module_name in MODULES
        for name in getattr(importlib.import_module(f"score_lab.{module_name}"), "__all__", ())
        if f"{module_name}.{name}" not in benchmarked
        and (module_name, name) not in kept
        and not any(
            name in _reads(tree, name if stem == module_name else None)
            for stem, tree in trees.items()
        )
    ]
    assert not unread
