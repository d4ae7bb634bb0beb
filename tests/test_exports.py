"""Every name a module exports through ``__all__`` exists, every function,
class and method in ``src/heatkern`` has a caller in the program, every
defaulted parameter is set by one, every stored field is read, and the
period-map determinant stays out of the program's own paths."""

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
    functions to wrap.  An ``__all__`` entry exports a name; it is not a use."""
    exports = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in assign.targets)
               for node in ast.walk(assign.value)}
    seen = Counter()
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
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


def _defaulted_parameters(tree):
    """``(qualified name, call key, bound, node, [(parameter, position)])``
    for every function with defaulted parameters; ``position`` is None for a
    keyword-only parameter.  Calls are matched by ``call key``: the
    function's name, or its class's name for ``__init__``.  ``bound`` is 1
    where a call does not pass the first parameter (self or cls)."""
    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                params = [(arg.arg, i) for i, arg in enumerate(positional)
                          if i >= len(positional) - len(args.defaults)]
                params += [(arg.arg, None) for arg, default
                           in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = int(isinstance(node, ast.ClassDef) and not static)
                key = cls if child.name == "__init__" else child.name
                if params:
                    yield prefix + child.name, key, bound, child, params
                yield from walk(child, prefix + child.name + ".", None)
            else:
                yield from walk(child, prefix, cls)
    return walk(tree, "", None)


def _calls(tree):
    """``(call key, call node)`` for every call; ``cls(...)`` is a call of
    the enclosing class."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                yield (cls if name == "cls" else name), child
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else cls)
    return walk(tree, None)


def _sets(call, param, position, bound) -> bool:
    """Whether ``call`` passes ``param``: by keyword, through ``**``, or by
    position, which a ``*`` argument may reach."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (
        any(isinstance(arg, ast.Starred) for arg in call.args)
        or len(call.args) + bound > position)


def test_every_default_is_set_by_a_caller():
    """A defaulted parameter that no call in the program sets, by keyword or
    by position, is a constant in disguise."""
    trees = {path: ast.parse(path.read_text())
             for folder in (PACKAGE, ROOT / "bench")
             for path in sorted(folder.rglob("*.py"))}
    calls = [call for tree in trees.values() for call in _calls(tree)]
    unset = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for qualname, key, bound, node, params in _defaulted_parameters(trees[path]):
            own = {id(inner) for inner in ast.walk(node)}
            mine = [call for name, call in calls if name == key and id(call) not in own]
            for param, position in params:
                if not any(_sets(call, param, position, bound) for call in mine):
                    unset.append(f"{path.name}:{qualname}({param}=)")
    assert unset == []


# ``b_q`` is the half of ``bq_gamma`` that only the tests read, but
# ``bench/checks.py`` calls ``bq_gamma(...).gamma``: ROADMAP item 6 deletes it
# after the benchmark change of item 7.
WRITE_ONLY_ALLOWED = {"perturb.py:SpectralCorrection.b_q"}


def _fields(tree):
    """``(qualified name, attribute)`` for every dataclass or NamedTuple
    field and every ``self.<attr>`` that an ``__init__`` sets."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        record = (any(isinstance(base, ast.Name) and base.id == "NamedTuple"
                      for base in cls.bases)
                  or any(isinstance(d, ast.Name) and d.id == "dataclass"
                         or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                         for d in cls.decorator_list))
        for stmt in cls.body:
            if record and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield f"{cls.name}.{stmt.target.id}", stmt.target.id
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self"):
                        yield f"{cls.name}.{node.attr}", node.attr


def test_every_field_is_read():
    """A field the program stores but never loads, outside the tests, is
    dead weight that every constructor call still pays for."""
    trees = {path: ast.parse(path.read_text())
             for folder in (PACKAGE, ROOT / "bench")
             for path in sorted(folder.rglob("*.py"))}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{qualname}" for path in sorted(PACKAGE.rglob("*.py"))
              for qualname, attr in _fields(trees[path]) if attr not in loaded]
    assert sorted(unread) == sorted(WRITE_ONLY_ALLOWED)


def test_period_map_is_named_only_by_the_oracle():
    """``floquet_log_det`` is the independent reference of the tests and the
    benchmark; no command or check may reach it, so no module but the one
    that defines it names it."""
    naming = [path.name for path in sorted(PACKAGE.rglob("*.py"))
              if path.name != "oracle.py" and "floquet_log_det" in path.read_text()]
    assert naming == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


# the integer storage of ``DiffPoly`` and the helpers that build it
DIFFPOLY_STORAGE = {"_num", "_den", "_add_term", "_poly"}


def test_no_module_reaches_into_another():
    """No module imports another module's ``_``-prefixed name or reads a
    ``_``-prefixed attribute that its own file does not define, and no
    module but ``diffpoly.py`` names the storage of ``DiffPoly`` at all."""
    offences = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        own = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        own |= {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        own |= {node.attr for node in nodes
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
        imported = [alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                    for alias in node.names]
        offences += [f"{path.name}: imports {name}" for name in imported if _private(name)]
        offences += [f"{path.name}:{node.lineno}: reads .{node.attr}" for node in nodes
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                     and _private(node.attr) and node.attr not in own]
        if path.name != "diffpoly.py":
            named = set(_references(tree)) | set(imported) | own
            offences += [f"{path.name}: names {name}" for name in sorted(named & DIFFPOLY_STORAGE)]
    assert offences == []
