"""Every top-level definition and every class member in ``src/mdkit`` serves
a command or a named ROADMAP item.

Definitions are checked by a walk that is name-level and static.  It parses
every module of the package and starts from ``cli.main``, from every
module-level statement that is not a ``def`` or ``class``, and from
``ALLOWLIST``.  A ``Name`` or ``Attribute`` reaches the same-module
definition of that name, or the definition a ``from .x import y`` brought in
under it.  Reaching a function reaches its body, decorators and
annotations; reaching a class reaches its whole body.  A test helper or
oracle belongs in ``tests/oracles.py``, not in the package.

Class members are checked by the commands that run them, since a name does
not say which class an attribute is read on.  A census wraps each method,
property, classmethod, staticmethod and cached_property that a class of the
package defines in its source, runs every row of ``tests/instances.py`` and
every golden command through ``cli.main`` in a fresh interpreter, removes
the wrappers, and lists each member that was never looked up.  A member
runs when it is looked up, whatever its kind, and a wrapper sits outside
any ``lru_cache``, so a warm cache hides no call.  Members of a class that
the walk reaches only from ``ALLOWLIST`` are exempt, and so are the entries
of ``MEMBER_ALLOWLIST``.  Run as a script, this module prints the census.

The same walk holds the parameters of the module-level functions it reaches
from ``cli.main``.  A call made in reached code or a module-level
statement resolves to its function as a name does.  A default that no such
call leaves serves no command, and neither does a ``None``/``True``/``False``
default that every such call overrides.  Methods stay outside this check, as
the walk resolves names, not the classes of the objects methods are called on.
"""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from instances import ROWS, Row, check
from test_golden import COMMANDS

from mdkit import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdkit"

# definitions no command reaches yet, each with the ROADMAP item that will
# consume it; the list must be empty when item 6 closes
ALLOWLIST = {
    ("complexes", "coindex_join"): 3,
    ("complexes", "coindex_map"): 3,
    ("complexes", "coindex_power"): 3,
    ("complexes", "coindex_finite"): 3,
    ("complexes", "join_complexes"): 3,
    ("finite", "map_to_unit_step_space"): 6,
    ("shiftspace", "half_step_space"): 4,
    # bench/tracer.py looks these up by name until item 29 removes its patches
    ("shiftspace", "unroll"): 29,
    ("shiftspace", "random_torus_vec"): 29,
    ("finite", "enumerate_markers"): 29,
    ("torus", "max_circle_dist"): 29,
    # the library's maps: `tower verify` checks both through one torus kernel
    ("tower", "section_map"): 29,
    ("tower", "factor_map"): 29,
    # the library's periodic sampler and shift: `shift conjugacy` draws its
    # walks in one call per side and shifts their columns by the same gathers
    ("shiftspace", "sample_periodic_gap_point"): 29,
    ("shiftspace", "shift"): 29,
}

# members no command runs, ``Class.member``, each with the ROADMAP item that
# will consume it
MEMBER_ALLOWLIST = {
    # bench/tracer.py counts a lattice's opens and a point's values until item 29
    ("meandim", "OpenLattice.opens"): 29,
    ("shiftspace", "Periodic.values"): 29,
    ("shiftspace", "Window.values"): 29,
}


def _modules():
    """Per module: its top-level definitions, the names it imports from
    sibling modules, and its other module-level statements."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs, imports, rest = {}, {}, []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (node.module, alias.name)
            else:
                rest.append(node)
        out[path.stem] = (defs, imports, rest)
    return out


def _resolve(modules, module, name):
    """The (module, name) of the definition ``name`` stands for in ``module``."""
    seen = set()
    while module in modules and (module, name) not in seen:
        seen.add((module, name))
        defs, imports, _ = modules[module]
        if name in defs:
            return module, name
        if name not in imports:
            return None
        module, name = imports[name]
    return None


def _walk(modules, roots):
    """Every (module, name) reached from the root definitions and from the
    module-level statements that are not definitions."""
    reached = set()
    todo = [(module, node) for module, (_, _, rest) in modules.items() for node in rest]
    for module, name in roots:
        todo.append((module, modules[module][0][name]))
        reached.add((module, name))
    while todo:
        module, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                ref = sub.id
            elif isinstance(sub, ast.Attribute):
                ref = sub.attr
            else:
                continue
            target = _resolve(modules, module, ref)
            if target is not None and target not in reached:
                reached.add(target)
                todo.append((target[0], modules[target[0]][0][target[1]]))
    return reached


def _passed(arguments: ast.arguments, call: ast.Call) -> set[str]:
    """The parameters ``call`` passes; a ``*`` or ``**`` argument may pass any."""
    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return {*positional, *(a.arg for a in arguments.kwonlyargs)}
    return {*positional[: len(call.args)], *(k.arg for k in call.keywords)}


def _default_faults(modules, reached):
    """``module.function(parameter)`` for each defaulted parameter of a reached
    function that no reached call passes, and each ``None``/``True``/``False``
    default that every reached call overrides."""
    sites = [(module, node) for module, (_, _, rest) in modules.items() for node in rest]
    sites += [(module, modules[module][0][name]) for module, name in reached]
    passes = {}
    for module, node in sites:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            ref = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            target = ref and _resolve(modules, module, ref)
            definition = target and modules[target[0]][0][target[1]]
            if isinstance(definition, ast.FunctionDef):
                passes.setdefault(target, []).append(_passed(definition.args, call))
    faults = []
    for module, name in sorted(reached):
        definition = modules[module][0][name]
        if not isinstance(definition, ast.FunctionDef):
            continue
        arguments = definition.args
        positional = arguments.posonlyargs + arguments.args
        defaults = [
            *zip(positional[len(positional) - len(arguments.defaults):], arguments.defaults),
            *((a, d) for a, d in zip(arguments.kwonlyargs, arguments.kw_defaults) if d is not None),
        ]
        for parameter, default in defaults:
            label = f"{module}.{name}({parameter.arg})"
            passing = [parameter.arg in passed for passed in passes.get((module, name), [])]
            switch = isinstance(default, ast.Constant) and any(default.value is c for c in (None, True, False))
            if not any(passing) or switch and all(passing):
                faults.append(label)
    return faults


MODULES = _modules()
ROOTS = [("cli", "main"), *ALLOWLIST]


def _members():
    """(module, ``Class.member``) for each method and property, not a dunder,
    that a class of the package defines in its source: a NamedTuple's
    generated ``_make`` and ``_replace`` are not listed."""
    return [
        (module, f"{owner}.{member.name}")
        for module, (defs, _, _) in MODULES.items()
        for owner, node in defs.items()
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
    ]


class _Counted:
    """A class attribute that records each lookup, then gives what the
    attribute it stands in for gives; it sets nothing, so a value that a
    cached_property stores on an instance is read from there."""

    def __init__(self, attribute, key, called: set):
        self.attribute, self.key, self.called = attribute, key, called

    def __get__(self, instance, owner=None):
        self.called.add(self.key)
        return self.attribute.__get__(instance, owner)


def _census() -> list:
    """The members no row of ``tests/instances.py`` and no golden command
    looks up, each run through ``cli.main`` and checked as its row expects."""
    rows = ROWS + [Row(name, command.removeprefix("mdkit "), 0) for name, command in COMMANDS.items()]
    called, originals = set(), []
    for module, name in _members():
        owner, _, member = name.partition(".")
        cls = getattr(importlib.import_module(f"mdkit.{module}"), owner)
        originals.append((cls, member, vars(cls)[member]))
        setattr(cls, member, _Counted(vars(cls)[member], (module, name), called))
    try:
        # an input path over 40 characters, as in ``python tests/instances.py``
        with tempfile.TemporaryDirectory(prefix="mdkit-instances-census-") as directory:
            for row in rows:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(row.argv(directory))
                    except SystemExit as exc:  # the parser tree's usage fallback
                        code = exc.code
                try:
                    check(row, code, out.getvalue(), err.getvalue(), directory)
                except AssertionError as exc:  # named as ``python tests/instances.py`` names it
                    raise AssertionError(f"FAIL {row.name}: {exc}") from None
    finally:
        for cls, member, attribute in originals:
            setattr(cls, member, attribute)
    return [key for key in _members() if key not in called]


@pytest.fixture(scope="module")
def never_called():
    """The census, taken in a fresh interpreter: no cache or stored value
    that earlier tests left can stand in for a lookup."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, __file__], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr[-3000:]
    return {tuple(line.split()) for line in run.stdout.splitlines()}


def test_every_definition_is_reached():
    reached = _walk(MODULES, ROOTS)
    orphans = sorted(
        f"{module}.{name}"
        for module, (defs, _, _) in MODULES.items()
        for name in defs
        if (module, name) not in reached
    )
    assert orphans == [], (
        "no command reaches these definitions: give each a command, move a test "
        "helper to tests/oracles.py, or delete it"
    )


def test_every_member_is_called_by_a_command(never_called):
    allowlisted = _walk(MODULES, ROOTS) - _walk(MODULES, [("cli", "main")])
    orphans = sorted(
        f"{module}.{name}"
        for module, name in never_called
        if (module, name.partition(".")[0]) not in allowlisted and (module, name) not in MEMBER_ALLOWLIST
    )
    assert orphans == [], (
        "no command calls these methods or properties: give each a command, "
        "move a test reader to tests/oracles.py, or delete it"
    )


def test_allowlist_names_definitions_no_command_reaches(never_called):
    from_main = _walk(MODULES, [("cli", "main")])
    for module, name in ALLOWLIST:
        assert name in MODULES[module][0], f"{module}.{name} is not a top-level definition"
        assert (module, name) not in from_main, f"{module}.{name} is reached from cli.main: drop it"
    for module, name in MEMBER_ALLOWLIST:
        assert (module, name) in _members(), f"{module}.{name} is not a method or property"
        assert (module, name) in never_called, f"{module}.{name} is called by a command: drop it"


def test_every_default_serves_a_command():
    # main's argv is left to the console script and to ``python -m``
    faults = _default_faults(MODULES, _walk(MODULES, [("cli", "main")]))
    assert faults == ["cli.main(argv)"], (
        "no command needs these defaults: drop each default that no call "
        "leaves, and each switch that every call sets"
    )


def test_item_twenty_nine_entries_are_named_by_the_tracer():
    # item 29 deletes the tracer's name lookups; until then only a name the
    # tracer reads is kept for it, and a member only if the tracer reads it
    tracer = (ROOT / "bench" / "tracer.py").read_text(encoding="utf-8")
    for (module, name), item in ALLOWLIST.items():
        if item == 29:
            assert f'"{module}.{name}"' in tracer, f"bench/tracer.py does not name {module}.{name}"
    for (module, name), item in MEMBER_ALLOWLIST.items():
        if item == 29:
            member = name.rpartition(".")[2]
            assert f".{member})" in tracer, f"bench/tracer.py does not read {module}.{name}"


def test_walk_follows_imports_attributes_and_class_bodies():
    modules = {
        "cli": (
            {"main": ast.parse("def main():\n    helper()\n").body[0]},
            {"helper": ("lib", "helper")},
            [],
        ),
        "lib": (
            {
                name: ast.parse(source).body[0]
                for name, source in {
                    "helper": "def helper():\n    return Box().method\n",
                    "Box": "class Box:\n    def method(self):\n        return inner()\n",
                    "inner": "def inner():\n    pass\n",
                    "method": "def method():\n    pass\n",
                    "orphan": "def orphan():\n    helper()\n",
                }.items()
            },
            {},
            [],
        ),
    }
    reached = _walk(modules, [("cli", "main")])
    assert reached == {
        ("cli", "main"),
        ("lib", "helper"),
        ("lib", "Box"),
        ("lib", "inner"),
        ("lib", "method"),
    }


def test_default_faults_name_unused_and_always_overridden_defaults():
    source = """
def main():
    draw(1, closed=True)
    draw(2, closed=True, scale=3)
    pick(1)
    pick(1, 2)
    spread(*[1, 2])

def draw(n, scale=2, closed=False, count=0):
    pass

def pick(n, k=None):
    pass

def spread(a, flag=None):
    pass

def unused(n, flag=True):
    pass
"""
    tree = ast.parse(source)
    modules = {"cli": ({node.name: node for node in tree.body}, {}, [])}
    reached = _walk(modules, [("cli", "main")])
    assert ("cli", "unused") not in reached
    # draw's count is never passed and its closed always is; pick's k is
    # passed once and left once; a starred argument may pass anything
    assert _default_faults(modules, reached) == ["cli.draw(closed)", "cli.draw(count)", "cli.spread(flag)"]


if __name__ == "__main__":
    for module, name in _census():
        print(module, name)
