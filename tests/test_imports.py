"""Every module of the package uses each name it imports, the package
reads every private name it defines, and it passes every defaulted
parameter it defines, but not on every call of a private function.

Stdlib stand-ins for a linter's unused-import and dead-code rules: each
module under src/pmtop except the package's __init__ (whose imports are its
exports) is parsed with ast, and a name bound by an import must be read
somewhere in the module; a private function or class (one whose name starts
with one underscore) must be read somewhere in the package, and a defaulted
parameter must be passed by some call in the package, so no code stays that
only tests reach; a private function's default that every call overrides is
a required parameter written as an optional one.
"""

import ast
from pathlib import Path

import pytest

import pmtop

SOURCES = sorted(Path(pmtop.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom typing import Any, Callable\nx: Any = np.pi\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Callable"]


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The private functions and classes defined in the sources that none of
    them reads, as a name, an attribute or an imported name."""
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    read = ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
               for alias in node.names})
    return sorted(defined - read)


def test_package_reads_every_private_function_and_class():
    sources = [p.read_text(encoding="utf-8") for p in SOURCES]
    assert unread_private_definitions(sources) == []


def test_an_unread_private_definition_is_found():
    module = ("def _used():\n    pass\n\n\ndef _unused():\n    pass\n\n\n"
              "class _Kept:\n    def _method(self):\n        pass\n\n\n"
              "class _Dropped:\n    pass\n\n\nVALUE = _Kept()._method\n")
    other = "from m import _used\n"
    assert unread_private_definitions([module, other]) == ["_Dropped", "_unused"]


def defaults_and_calls(sources: dict[str, str]) -> list[tuple[str, bool, list]]:
    """Each defaulted parameter of the functions and methods defined in the
    sources (module name to source), as (where, private, passes): where is
    module.function.parameter (a method's function named Class.method),
    private whether the function's name starts with one underscore, and
    passes holds, for each call in the sources that matches the definition
    by name (a class's call its __init__), True where the call passes the
    parameter, by keyword or by position, False where it leaves it, and None
    where it has *args or **kwargs, so may do either.  A method's positions
    start after self."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = {}
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            calls.setdefault(getattr(node.func, "id", None) or node.func.attr, []).append(node)

    def passes(call: ast.Call, arg: str, at: int | None) -> bool | None:
        keywords = {kw.arg for kw in call.keywords}
        if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
            return None
        return arg in keywords or (at is not None and at < len(call.args))

    found = []
    for module, tree in trees.items():
        for owner in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            method = isinstance(owner, ast.ClassDef)
            for fn in (n for n in owner.body if isinstance(n, ast.FunctionDef)):
                name = owner.name if method and fn.name == "__init__" else fn.name
                where = f"{module}.{owner.name}.{fn.name}" if method else f"{module}.{fn.name}"
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)   # the first defaulted position
                # Each defaulted parameter with its call position, None for keyword-only.
                defaulted = [(arg, at - method) for at, arg in enumerate(args) if at >= first]
                defaulted += [(arg, None) for arg, default in zip(fn.args.kwonlyargs,
                                                                   fn.args.kw_defaults) if default]
                private = fn.name.startswith("_") and not fn.name.startswith("__")
                found += [(f"{where}.{arg.arg}", private,
                           [passes(call, arg.arg, at) for call in calls.get(name, [])])
                          for arg, at in defaulted]
    return found


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """The defaulted parameters of defaults_and_calls that no call passes,
    counting a call with *args or **kwargs as passing everything."""
    return sorted(where for where, _, passes in defaults_and_calls(sources)
                  if all(p is False for p in passes))


def overridden_defaults(sources: dict[str, str]) -> list[str]:
    """The defaulted parameters of private functions and methods that some
    call passes and every call does, counting a call with *args or **kwargs
    as one that may leave the default."""
    return sorted(where for where, private, passes in defaults_and_calls(sources)
                  if private and passes and all(passes))


# Defaulted parameters the package leaves to its users: cli.main's argv
# (sys.argv when run as a program), and the declared constants of the two
# reference constructors, which the benchmark and the tests pass.
UNPASSED_DEFAULTS = ["cli.main.argv", "pmspace.rational_space.declared_beta",
                     "pmspace.rational_space.declared_c", "pmspace.step_space.declared_beta",
                     "pmspace.step_space.declared_c"]


def test_package_passes_every_defaulted_parameter():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unpassed_defaults(sources) == UNPASSED_DEFAULTS


def test_an_unpassed_defaulted_parameter_is_found():
    module = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
              "class K:\n    def __init__(self, x=0):\n        pass\n\n"
              "    def m(self, y=0, z=0):\n        pass\n\n\n"
              "def g(**kw):\n    pass\n\n\n"
              "def h(w=0):\n    pass\n\n\n"
              "f(0, 1, e=5)\nK().m(1)\ng(w=1)\n")
    other = "from m import h\nh(*[])\n"
    assert unpassed_defaults({"m": module, "other": other}) == [
        "m.K.__init__.x", "m.K.m.z", "m.f.c", "m.f.d"]


def test_package_leaves_no_private_default_that_every_call_passes():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert overridden_defaults(sources) == []


def test_a_private_default_that_every_call_passes_is_found():
    module = ("def _f(a, b=1, c=2, *, d=3):\n    pass\n\n\n"
              "def _g(x=0):\n    pass\n\n\n"
              "def _unused(u=0):\n    pass\n\n\n"
              "def public(v=0):\n    pass\n\n\n"
              "class K:\n    def _m(self, w=0, y=0):\n        pass\n\n\n"
              "_f(0, 1, d=4)\n_f(0, 2, c=3, d=5)\n_g(1)\n_g(*[])\npublic(1)\n"
              "K()._m(2)\n")
    other = "from m import _f\n_f(0, b=3, d=6)\n"
    assert overridden_defaults({"m": module, "other": other}) == [
        "m.K._m.w", "m._f.b", "m._f.d"]


# The handler that runs no table selection: the registry itself.
UNSELECTED = {"falsify"}


def test_cli_handlers_only_select_table_entries(monkeypatch):
    # The subcommands run checks only through falsifier.PREDICATES, so a
    # predicate has one verdict rule: the CLI binds no check function, and
    # each other handler selects names the table holds.
    from pmtop import cli, convergence, falsifier, pmspace

    checks = {"_Delta2Scan": pmspace, "check_beta_homogeneous": pmspace,
              "check_space_regularity": pmspace, "check_axioms": pmspace,
              "check_mu_convergence": convergence,
              "check_topological_convergence": convergence}
    nodes = list(ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))))
    named = ({node.id for node in nodes if isinstance(node, ast.Name)}
             | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
             | {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                for alias in node.names})
    assert not checks.keys() & named
    assert not [key for key, value in vars(cli).items()
                if any(value is getattr(module, name) for name, module in checks.items())]
    selected = {}
    monkeypatch.setattr(cli, "_selection", lambda space, budget, names, **op: (
        selected.setdefault(command, []).extend(names) or []))
    space = pmtop.rational_space(pmtop.PPower(p=1.0), 1, declared_c=2.0, declared_beta=1.0)
    budget = pmtop.SampleBudget(n_vectors=10, n_scalar_pairs=10)
    sequence = {"kind": "harmonic", "base": [0.0], "direction": [0.3]}
    for command, handler in cli.HANDLERS.items():
        if command in UNSELECTED:
            continue
        for variant in (cli._SEPARATIONS if command == "witness-separate" else [None]):
            op = {"variant": variant} if variant else {}
            if command == "check-convergence":
                op = {"sequence": sequence}
            handler(space, budget, {"operation": op})
    assert set(selected) == set(cli.HANDLERS) - UNSELECTED
    assert {name for names in selected.values() for name in names} <= set(
        falsifier.PREDICATE_NAMES)
