"""Every top-level definition and every class member in ``src/mdkit`` serves
a command or a named ROADMAP item.

The walk is name-level and static.  It parses every module of the package
and starts from ``cli.main``, from every module-level
statement that is not a ``def`` or ``class``, and from the two allowlists.  A
``Name`` or ``Attribute`` reaches the same-module definition of that name, or
the definition a ``from .x import y`` brought in under it.  Reaching a
function reaches its body, decorators and annotations.  Reaching a class
reaches its decorators, bases, field annotations and defaults, and its
dunder methods, which the interpreter calls; any other method or property
is reached when reached code names it as an attribute (``x.name``) or as a
string, in any class, and reaching it walks it whole.  The walk runs to a
fixed point.  A test helper or oracle belongs in ``tests/oracles.py``, not in
the package.

A member whose name is also one a command uses, such as ``to_json`` or
``passed``, is reached by that name whatever calls it: the walk resolves
names, not the classes of the objects they are read on.

The same walk holds the parameters of the module-level functions it reaches
from ``cli.main``.  A call made in reached code or a module-level
statement resolves to its function as a name does.  A default that no such
call leaves serves no command, and neither does a ``None``/``True``/``False``
default that every such call overrides.  Methods stay outside this check, for
the same reason.
"""

import ast
from pathlib import Path

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

# members no command names, ``Class.member``, each with the ROADMAP item that
# will consume it
MEMBER_ALLOWLIST = {
    # bench/tracer.py counts a lattice's opens until item 29
    ("meandim", "OpenLattice.opens"): 29,
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(node) -> dict:
    """The methods and properties of a class that are not dunders, by name;
    none for a function."""
    if not isinstance(node, ast.ClassDef):
        return {}
    return {s.name: s for s in node.body if isinstance(s, FUNCTIONS) and not _is_dunder(s.name)}


def _parts(node) -> list:
    """What reaching a definition walks: a function whole; a class's
    decorators, bases, fields and dunder methods, not its other methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    methods = _methods(node).values()
    return [
        *node.decorator_list,
        *node.bases,
        *node.keywords,
        *(s for s in node.body if s not in methods),
    ]


def _definition(modules, module, name):
    """The node of a top-level definition, or of a member named ``Class.member``."""
    owner, _, member = name.rpartition(".")
    if owner:
        return _methods(modules[module][0][owner])[member]
    return modules[module][0][name]


def _walk(modules, roots):
    """Every (module, name) reached from the root definitions and from the
    module-level statements that are not definitions; a member is named
    ``Class.member``."""
    reached = set()
    named = set()  # the attribute names and strings in reached code
    waiting = {}  # name -> the members of reached classes no reached code names yet
    todo = [(module, node) for module, (_, _, rest) in modules.items() for node in rest]

    def reach(module, name):
        if (module, name) in reached:
            return
        reached.add((module, name))
        node = _definition(modules, module, name)
        todo.extend((module, part) for part in _parts(node))
        for member in _methods(node):
            if member in named:
                reach(module, f"{name}.{member}")
            else:
                waiting.setdefault(member, []).append((module, f"{name}.{member}"))

    def mention(ref):
        if ref not in named:
            named.add(ref)
            for target in waiting.pop(ref, ()):
                reach(*target)

    for root in roots:
        reach(*root)
    while todo:
        module, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                mention(sub.value)
                continue
            if isinstance(sub, ast.Name):
                ref = sub.id
            elif isinstance(sub, ast.Attribute):
                ref = sub.attr
                mention(ref)
            else:
                continue
            target = _resolve(modules, module, ref)
            if target is not None:
                reach(*target)
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
    sites += [(module, part) for module, name in reached for part in _parts(_definition(modules, module, name))]
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
        # a member, ``Class.member``, is no top-level definition
        definition = modules[module][0].get(name)
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


def _members(modules):
    """(module, ``Class.member``) for each method and property of every class
    that is not a dunder."""
    return [
        (module, f"{owner}.{member}")
        for module, (defs, _, _) in modules.items()
        for owner, node in defs.items()
        for member in _methods(node)
    ]


MODULES = _modules()
ROOTS = [("cli", "main"), *ALLOWLIST, *MEMBER_ALLOWLIST]


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


def test_every_member_is_reached():
    reached = _walk(MODULES, ROOTS)
    orphans = sorted(f"{module}.{name}" for module, name in _members(MODULES) if (module, name) not in reached)
    assert orphans == [], (
        "no command names these methods or properties: give each a command, "
        "move a test reader to tests/oracles.py, or delete it"
    )


def test_allowlist_names_definitions_no_command_reaches():
    from_main = _walk(MODULES, [("cli", "main")])
    for module, name in ALLOWLIST:
        assert name in MODULES[module][0], f"{module}.{name} is not a top-level definition"
        assert (module, name) not in from_main, f"{module}.{name} is reached from cli.main: drop it"
    for module, name in MEMBER_ALLOWLIST:
        assert (module, name) in _members(MODULES), f"{module}.{name} is not a method or property"
        assert (module, name) not in from_main, f"{module}.{name} is reached from cli.main: drop it"


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
        ("lib", "Box.method"),
        ("lib", "inner"),
        ("lib", "method"),
    }


def _module_of(source: str):
    """A module's walk entry from its source, which imports nothing."""
    tree = ast.parse(source)
    return {node.name: node for node in tree.body}, {}, []


def test_walk_reaches_members_named_as_attributes_or_strings():
    modules = {
        "cli": _module_of("""
def main():
    box = Box()
    return late.hook, box.read, getattr(box, "spelled")

class Box:
    def read(self):
        return from_read()

    def spelled(self):
        return self.chained()

    def chained(self):
        return Late()

    def unnamed(self):
        return from_unnamed()

class Late:
    def hook(self):
        return from_hook()

def from_read():
    pass

def from_unnamed():
    pass

def from_hook():
    pass
"""),
    }
    reached = _walk(modules, [("cli", "main")])
    # a method is reached by its name as an attribute or a string, also when
    # the name comes before its class is reached, and its body is walked; a
    # method named nowhere is not, nor what only its body names
    assert reached == {
        ("cli", "main"),
        ("cli", "Box"),
        ("cli", "Box.read"),
        ("cli", "from_read"),
        ("cli", "Box.spelled"),
        ("cli", "Box.chained"),
        ("cli", "Late"),
        ("cli", "Late.hook"),
        ("cli", "from_hook"),
    }
    assert _members(modules) == [
        ("cli", "Box.read"),
        ("cli", "Box.spelled"),
        ("cli", "Box.chained"),
        ("cli", "Box.unnamed"),
        ("cli", "Late.hook"),
    ]


def test_walk_reaches_a_class_s_dunders_decorators_bases_and_fields():
    modules = {
        "cli": _module_of("""
def main():
    return Box()

@wrap
class Box(Base):
    size: Size = default_size()

    def __post_init__(self):
        check()

    def unnamed(self):
        return from_unnamed()

def wrap(cls):
    return cls

class Base:
    pass

class Size:
    pass

def default_size():
    pass

def check():
    pass

def from_unnamed():
    pass
"""),
    }
    reached = _walk(modules, [("cli", "main")])
    assert reached == {
        ("cli", name) for name in ("main", "Box", "wrap", "Base", "Size", "default_size", "check")
    }
    assert _members(modules) == [("cli", "Box.unnamed")]


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
