"""Every name a module exports through ``__all__`` exists, and every
function, class and method in ``src/heatkern`` has a caller in the program."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import heatkern

MODULES = ["heatkern"] + [f"heatkern.{m.name}"
                          for m in pkgutil.iter_modules(heatkern.__path__)]

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heatkern"

# Reached from outside the program's own code, so never referenced by name:
# argparse calls ``ArgumentParser.error`` on every refused flag.
CALLED_BY_LIBRARIES = {("cli.py", "_Parser.error")}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def _references(tree) -> Counter:
    """Identifiers a tree uses: names, attributes, and string constants
    that spell a (dotted) identifier, as in the benchmark's tables of
    functions to wrap."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            seen[node.value.rsplit(".", 1)[-1]] += 1
    return seen


def _definitions(tree):
    """``(qualified name, node)`` for every function, class and method."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text())
             for folder in (PACKAGE, ROOT / "bench")
             for path in sorted(folder.rglob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for qualname, node in _definitions(trees[path]):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or (path.name, qualname) in CALLED_BY_LIBRARIES):
                continue
            # uses inside the definition itself (recursion) do not count
            if used[name] - _references(node)[name] == 0:
                unused.append(f"{path.name}:{qualname}")
    assert unused == []
