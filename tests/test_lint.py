"""Leftovers after a deletion, and certifications that ``python -O`` would drop.

Each module of the package except ``__init__`` (which only re-exports)
is parsed with ``ast``.  A name a module imports must be used somewhere in
it, and a private module-level function must be referenced somewhere in it.
No module, ``__init__`` included, may hold an ``assert`` statement: a check
must raise under every interpreter mode.  The battery in ``checks`` takes no
private name from the rest of the package, so its checks stay independent
of the kernels they check, and neither do the certifiers in ``extremal``,
so they reach a norming face by the public path.  Every exception class
in ``errors`` is raised somewhere in the package, or is the base of one
that is, and
``freelip.__all__`` is the names of ``__init__``'s export table, in its
order, each of which resolves to its module's own object.  The modules
import each other in one declared order, so the package has no import
cycle.  The imports inside function bodies are the solver each command
handler runs (``norms`` in ``cli._norm``, ``extremal`` in
``cli._classify``, ``cli._extremes`` and ``cli._witness``), ``functions``
where a handler or a file reader or writer reads or writes a function
(``cli._fpq``, ``cli._extend``, ``cli._weight``,
``fileio.load_function`` and ``fileio.function_payload``), and the
battery's, in ``cli._dispatch``.  Every ``InternalVerificationFailure`` the
package raises has a fault test: a ``pytest.raises`` under ``tests/`` whose
``match`` pattern finds its message.  Every ``check_*`` of the battery has
one too: a test in ``tests/test_battery.py`` that binds the check's result
and asserts ``not result.passed``.  No module imports ``dataclasses``, and
``import freelip.cli`` loads neither ``inspect``, nor the battery, nor a
solver, nor ``functions``.  In one child interpreter each, ``import
freelip`` loads none of the package's modules, and each command loads only
the solvers it runs: ``norm`` loads ``norms`` and ``functions``, the
three extremal commands load ``norms``, ``extremal`` and ``functions``,
``fpq``, ``extend`` and ``weight`` load ``functions`` alone, and
``support`` and ``segment`` load none of them.  Every ``to_bytes`` and
``from_bytes`` call in the package names its byteorder, which has no
default before Python 3.11.  Records
are the one value mechanism: no class body outside ``records`` defines
``__eq__``, ``__hash__``, ``__setattr__`` or ``__delattr__``, by ``def`` or
by assignment, and no module imports or names ``NamedTuple`` or
``namedtuple``.  No module
but the battery imports ``lp``: the library core solves no LP.  The body of
the transport solver ``norms._transport_plan`` names neither ``Fraction``
nor ``float``, nor a module constant built by either, nor a function of
its module declared to return a ``Fraction``, and holds no float
literal: the kernel computes on ints alone; so do the random spaces
``generators.random_space`` and ``generators.random_line_subset``.
Elements and functions, total and partial, store one integer form, so no
kernel that reads them
(the transport solver, its two checks, the norming face, the Lipschitz
constant, the predual weighting, the McShane minima, the restriction, the
distance to the base point, the normers, the almost-positive witness,
the battery's molecule-function check, its dense transport oracle and its
five random draws of elements, functions and weights, and the two random
spaces) rescales a Fraction view: none calls ``scale_to_integers``, nor a
constructor that calls it on Fractions (``partial_function``,
``lip_function``, ``weight_function``, ``LipFunction``,
``WeightFunction`` or ``space_from_points``; ``LipFunction._of`` takes
integers).  Spaces store
one integer form too, so none of those kernels, nor the molecule
classifier ``extremal.classify_molecule``, reads the Fraction view of the
distances: the attribute ``dist`` or the method ``d``.  Only the checker
``metric._validated`` constructs a ``PointedMetricSpace``, so no builder
skips the metric axioms.  Outside ``metric``, no function writes out a
McShane minimum (``min`` of each column of ``zip(*rows)``, or
``map(min, *rows)``) or a row slope test (a comparison with
``max(map(sub, ...))``): ``metric.min_plus`` and ``metric.steep_pair`` are
the one copy of each, and only the solver's Kuhn reduction keeps its
column minima inline.  Every exported
function with a point parameter (``p``, ``q``, ``K``, ``S`` or ``Ks``), and
the space's ``segment`` and ``radius``, resolves its points as
``PointedMetricSpace.resolve`` does: a label is its index, and -1 or n is an
``UnknownLabel``.  Each outside input has one reader in ``metric``:
``DegeneratePair`` is raised only by ``PointedMetricSpace.pair``, and
``fileio`` scales no entries itself, as ``metric._integer_rows`` reads
every matrix.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import freelip
from freelip import cli
from freelip.errors import UnknownLabel
from freelip.metric import validate_space
from test_cli_golden import CASES, argv_for

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "freelip"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as "FreeElement" uses the names inside it
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_used(ast.parse(node.value, mode="eval"))
    return used


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _names_used(tree)
    assert sorted(set(_imported(tree)) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_function_is_referenced(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _names_used(tree)
    private = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert sorted(set(private) - used) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_dataclasses():
    # it imports `inspect` and runs `exec` for each record, on every command
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in _absolute_imports(ast.parse(path.read_text()))
    ]
    assert importers == []


VALUE_METHODS = ("__eq__", "__hash__", "__setattr__", "__delattr__")


def _value_mechanisms(tree):
    """Hand-written value methods of class bodies, and tuple-class imports or names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    targets = [item.name]
                elif isinstance(item, ast.Assign):
                    targets = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    continue
                yield from (f"{node.name}.{t}" for t in targets if t in VALUE_METHODS)
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names if a.name in ("NamedTuple", "namedtuple"))
        elif isinstance(node, ast.Attribute) and node.attr in ("NamedTuple", "namedtuple"):
            yield node.attr


@pytest.mark.parametrize(
    "source, found",
    [
        ("class A:\n    def __eq__(self, other): pass", ["A.__eq__"]),
        ("class A:\n    def __hash__(self): pass", ["A.__hash__"]),
        ("class A:\n    __delattr__ = __setattr__ = f", ["A.__delattr__", "A.__setattr__"]),
        ("class A:\n    def __repr__(self): pass\n    def __call__(self): pass", []),
        ("def __eq__(self, other): pass", []),
        ("from typing import Callable, NamedTuple", ["NamedTuple"]),
        ("from collections import namedtuple as nt", ["namedtuple"]),
        ("import typing\nclass A(typing.NamedTuple): pass", ["NamedTuple"]),
        ("from .records import record", []),
    ],
)
def test_the_value_mechanism_finder(source, found):
    assert list(_value_mechanisms(ast.parse(source))) == found


def test_records_are_the_one_value_mechanism():
    # equality, hashing and immutability are written once, in `records.record`
    found = [
        f"{path.stem}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "records.py"
        for name in _value_mechanisms(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _modules_at_exit(script, *args):
    """The modules a child interpreter has loaded once `script` ran with `args`.

    The script prints them as the last line of its standard output.
    """
    env = dict(os.environ)
    extra = os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    env["PYTHONPATH"] = str(PACKAGE.parent) + extra
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_a_command_loads_no_introspection_and_no_battery():
    # `cli._dispatch` imports the battery only for `check-suite`, and each
    # handler imports the solver it runs
    loaded = _modules_at_exit("import sys, freelip.cli; print(*sys.modules)")
    assert "freelip.cli" in loaded
    unwanted = {
        "dataclasses",
        "inspect",
        "freelip.checks",
        "freelip.lp",
        "freelip.generators",
        "freelip.extremal",
        "freelip.norms",
        "freelip.functions",
    }
    assert sorted(loaded & unwanted) == []


def test_importing_the_package_loads_none_of_its_modules():
    # each exported name imports its module on first access
    loaded = _modules_at_exit("import sys, freelip; print(*sys.modules)")
    assert "freelip" in loaded
    assert sorted(m for m in loaded if m.startswith("freelip.")) == []


# the solvers, and the functions module that only the commands reading or
# writing a function load, whether by a solver or by a handler's own import
SOLVERS = {"freelip.norms", "freelip.extremal", "freelip.functions"}
# a golden case of each command -> the modules of SOLVERS the command loads
SOLVERS_LOADED = {
    "norm": {"freelip.norms", "freelip.functions"},
    "support": set(),
    "segment": set(),
    "fpq": {"freelip.functions"},
    "extend": {"freelip.functions"},
    "weight": {"freelip.functions"},
    "classify-exposed": SOLVERS,
    "positive-extremes": SOLVERS,
    "witness": SOLVERS,
}


def test_the_load_table_holds_every_command():
    assert [CASES[case][0] for case in SOLVERS_LOADED] == list(cli.COMMANDS)


@pytest.mark.parametrize("case", SOLVERS_LOADED)
def test_a_command_loads_only_the_solvers_it_runs(case):
    script = (
        "import sys\nfrom freelip.cli import main\n"
        "code = main(sys.argv[1:])\nprint(*sys.modules)\nsys.exit(code)"
    )
    loaded = _modules_at_exit(script, *argv_for(case, "machine"))
    assert "freelip.cli" in loaded
    assert loaded & SOLVERS == SOLVERS_LOADED[case]


IMPORT_ORDER = (
    "errors",
    "rationals",
    "records",
    "metric",
    "elements",
    "functions",
    "norms",
    "extremal",
    "generators",
    "lp",
    "checks",
    "fileio",
    "cli",
)


def _imports(tree, function=None):
    """(innermost enclosing function or None, module) for each module an import names.

    A module of the package is named `freelip.<module>`, however imported.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(node, node.name)
        elif isinstance(node, ast.Import):
            yield from ((function, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("freelip." if node.level else "") + (node.module or "")
            if module in ("freelip", "freelip."):
                # `from . import lp` binds a module of the package
                yield from ((function, "freelip." + alias.name) for alias in node.names)
            else:
                yield function, module
        else:
            yield from _imports(node, function)


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .norms import norm_certificate", [(None, "freelip.norms")]),
        ("from . import lp, norms as n", [(None, "freelip.lp"), (None, "freelip.norms")]),
        ("import freelip.lp\nimport os.path", [(None, "freelip.lp"), (None, "os.path")]),
        ("from freelip import cli", [(None, "freelip.cli")]),
        ("from freelip.elements import zero", [(None, "freelip.elements")]),
        ("from fractions import Fraction", [(None, "fractions")]),
        (
            "def f():\n    from .checks import run\n    import json",
            [("f", "freelip.checks"), ("f", "json")],
        ),
        (
            "class A:\n    def m(self):\n        if x:\n            from . import lp",
            [("m", "freelip.lp")],
        ),
    ],
)
def test_the_import_finder(source, found):
    assert list(_imports(ast.parse(source))) == found


def test_the_modules_import_each_other_in_one_order():
    # a module imports only modules before it, so the package has no import
    # cycle; the imports in function bodies keep the solvers out of the
    # commands that do not run them, and the battery out of every command
    assert sorted(IMPORT_ORDER) == [path.stem for path in MODULES]
    rank = {module: i for i, module in enumerate(IMPORT_ORDER)}
    later, nested = [], []
    for path in MODULES:
        for function, module in _imports(ast.parse(path.read_text(), filename=str(path))):
            if function is not None:
                nested.append(f"{path.stem}.{function}:{module}")
            if module.startswith("freelip."):
                imported = module.split(".")[1]
                if rank.get(imported, len(rank)) >= rank[path.stem]:
                    later.append(f"{path.stem}:{imported}")
    assert later == []
    assert nested == [
        "cli._norm:freelip.norms",
        "cli._fpq:freelip.functions",
        "cli._extend:freelip.functions",
        "cli._weight:freelip.functions",
        "cli._classify:freelip.extremal",
        "cli._extremes:freelip.extremal",
        "cli._witness:freelip.extremal",
        "cli._dispatch:freelip.checks",
        "fileio.load_function:freelip.functions",
        "fileio.function_payload:freelip.functions",
    ]


def _bytes_calls_without_byteorder(tree):
    """The line of each `to_bytes` or `from_bytes` call that passes no byteorder.

    The byteorder is the second argument, by position or keyword, of both.
    """
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("to_bytes", "from_bytes")
            and len(node.args) < 2
            and "byteorder" not in {k.arg for k in node.keywords}
        ):
            yield node.lineno


@pytest.mark.parametrize(
    "source, found",
    [
        ('x.to_bytes(2, "big")', []),
        ('int.from_bytes(b, "little")', []),
        ('x.to_bytes(2, byteorder="big")', []),
        ('int.from_bytes(b, byteorder="little", signed=True)', []),
        ("x.to_bytes(2)", [1]),
        ("x.to_bytes()", [1]),
        ("int.from_bytes(b)\nint.from_bytes(b, signed=True)", [1, 2]),
        ("to_bytes(2)", []),
    ],
)
def test_the_byteorder_finder(source, found):
    assert list(_bytes_calls_without_byteorder(ast.parse(source))) == found


def test_every_bytes_conversion_names_its_byteorder():
    # the byteorder of `int.to_bytes` and `int.from_bytes` has a default
    # only from Python 3.11, and the package supports 3.10
    assert 'requires-python = ">=3.10"' in (TESTS.parent / "pyproject.toml").read_text()
    missing = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _bytes_calls_without_byteorder(ast.parse(path.read_text()))
    ]
    assert missing == []


def _from_the_package(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "freelip"


def test_the_battery_uses_no_private_name_of_the_package():
    # the extremal certifiers reach a norming face by the public path too
    private = []
    for name in ("checks", "extremal"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _from_the_package(node):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        private.append(f"{name}: {alias.name}")
                    # `from . import lp` binds a module of the package
                    if node.module is None or node.module == "freelip":
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                private.append(f"{name}: {node.value.id}.{node.attr}")
        assert name != "checks" or "lp" in modules
    assert private == []


def test_only_the_runner_constructs_a_check_result():
    # the runner alone counts, times and caps the cases of every check
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    builders = [
        getattr(top, "name", top.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckResult"
    ]
    assert builders == ["_battery_check"]


def _imports_lp(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[:2] == ["freelip", "lp"] for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and _from_the_package(node):
            # the module path below the package: "" for `from . import lp`
            inner = node.module or ""
            if node.level == 0:
                inner = inner.partition(".")[2]
            names = {alias.name for alias in node.names}
            if inner.split(".")[0] == "lp" or (inner == "" and "lp" in names):
                return True
    return False


@pytest.mark.parametrize(
    "source, imports",
    [
        ("from . import lp", True),
        ("from . import norms, lp as simplex", True),
        ("from .lp import maximize", True),
        ("from freelip import lp", True),
        ("from freelip.lp import LEQ", True),
        ("import freelip.lp", True),
        ("from .norms import norm_certificate", False),
        ("from freelip import elements", False),
        ("import lp", False),
    ],
)
def test_the_lp_import_finder(source, imports):
    assert _imports_lp(ast.parse(source)) == imports


def test_only_the_battery_imports_the_simplex():
    # the library core solves no LP; the dense simplex is the battery's oracle
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if _imports_lp(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert importers == ["checks"]


def _function(tree, name):
    """The definition of the module-level function `name`, or of the method `Class.name`."""
    *owner, name = name.split(".")
    body = tree.body
    if owner:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner[0]).body
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


def _inexact(tree, function):
    """Whatever in the body of the module-level `function` is not an int.

    That is the names `Fraction` and `float`, as attributes too, the module
    constants bound to a call of either, the module's functions declared to
    return a `Fraction`, and float literals.
    """
    banned = {"Fraction", "float"}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            called = node.value.func
            if getattr(called, "id", getattr(called, "attr", None)) in banned:
                banned |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.FunctionDef) and getattr(node.returns, "id", None) == "Fraction":
            banned.add(node.name)
    body = _function(tree, function)
    for node in ast.walk(body):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in banned:
            yield name
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield repr(node.value)


@pytest.mark.parametrize(
    "body, found",
    [
        ("return x + 1", []),
        ("return float('inf')", ["float"]),
        ("return 1.5 * x", ["1.5"]),
        ("return 1e9", ["1000000000.0"]),
        ("return Fraction(x)", ["Fraction"]),
        ("return fractions.Fraction(x)", ["Fraction"]),
        ("return sum(x, _ZERO)", ["_ZERO"]),
        ("return sum(x, _ONE)", ["_ONE"]),
        ("return halve(x)", ["halve"]),
        ("return double(x)", []),
    ],
)
def test_the_inexact_value_finder(body, found):
    module = (
        "_ZERO = Fraction(0)\n_ONE = fractions.Fraction(1)\n"
        "def halve(x) -> Fraction:\n    return Fraction(x, 2)\n"
        "def double(x) -> int:\n    return 2 * x\n"
        f"def kernel(x):\n    {body}\n"
    )
    assert list(_inexact(ast.parse(module), "kernel")) == found


def test_the_transport_kernel_stays_exact():
    # every value of the solver is an int: masses, costs, flows, potentials
    # and distances, with None for a node not reached yet
    tree = ast.parse((PACKAGE / "norms.py").read_text())
    assert list(_inexact(tree, "_transport_plan")) == []


def test_the_random_spaces_are_drawn_to_integers():
    # weights and coordinates are drawn as ints and closed or differenced as ints
    tree = ast.parse((PACKAGE / "generators.py").read_text())
    drawn = ("random_space", "random_line_subset")
    assert {f: list(_inexact(tree, f)) for f in drawn} == {f: [] for f in drawn}


def _calls(tree, function, callee):
    """Lines of the body of `function` (see :func:`_function`) calling `callee`."""
    for node in ast.walk(_function(tree, function)):
        if _named(node, callee):
            yield node.lineno


@pytest.mark.parametrize(
    "body, calls",
    [
        ("return scale_to_integers(x)", 1),
        ("return rationals.scale_to_integers(x)", 1),
        ("den, ints = scale_to_integers(x)\n    return f(*scale_to_integers(y))", 2),
        ("return scale_to_integers", 0),
        ("return x.scale, x.ints", 0),
        ("return LipFunction._of(space, unit, row)", 0),
    ],
)
def test_the_call_finder(body, calls):
    module = f"def kernel(x):\n    {body}\n"
    assert len(list(_calls(ast.parse(module), "kernel", "scale_to_integers"))) == calls


KERNELS = {
    "norms": ("_transport_plan", "_check_rebuild", "_certified", "norming_face", "normers_of"),
    "functions": (
        "lip_constant",
        "weight_element",
        "PartialFunction._minima",
        "restrict",
        "distance_to_base",
    ),
    "extremal": ("almost_positive_witness",),
    "checks": ("check_molecule_function", "transport_norm_bruteforce", "_random_partial"),
    "generators": (
        "random_positive_element",
        "random_element",
        "random_lip0",
        "random_weight",
        "random_space",
        "random_line_subset",
    ),
}
RESCALERS = (
    "scale_to_integers",
    "partial_function",
    "lip_function",
    "weight_function",
    "LipFunction",
    "WeightFunction",
    "space_from_points",
)


def test_the_kernels_read_the_stored_integers():
    # elements and functions hold one integer form; no kernel rescales a Fraction view
    rescaled = []
    for module, functions in KERNELS.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for function in functions:
            for callee in RESCALERS:
                lines = _calls(tree, function, callee)
                rescaled += [f"{module}.{function}:{line}:{callee}" for line in lines]
    assert rescaled == []


def _fraction_view_reads(tree, function):
    """Lines of the body of `function` (see :func:`_function`) reading `dist` or `d`."""
    body = _function(tree, function)
    for node in ast.walk(body):
        if isinstance(node, ast.Attribute) and node.attr in ("dist", "d"):
            yield node.lineno


@pytest.mark.parametrize(
    "body, reads",
    [
        ("return space.d(p, q)", 1),
        ("return mu.space.dist[p][q]", 1),
        ("return space.d(p, x) / space.d(p, q)", 2),
        ("distance = space.d\n    return distance(p, q)", 1),
        ("return d(p, q) + dist[p][q]", 0),
        ("unit, rows = space.scaled\n    return Fraction(rows[p][x], rows[p][q])", 0),
        ("return space.radius(points), space.distance", 0),
    ],
)
def test_the_fraction_view_finder(body, reads):
    module = f"def kernel(space, mu, p, q, x, points):\n    {body}\n"
    assert len(list(_fraction_view_reads(ast.parse(module), "kernel"))) == reads


def test_the_kernels_read_the_integer_distances():
    # a space stores its distances as integer rows; `dist` and `d` are a Fraction view
    kernels = {**KERNELS, "extremal": KERNELS["extremal"] + ("classify_molecule",)}
    read = []
    for module, functions in kernels.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for function in functions:
            read += [f"{module}.{function}:{line}" for line in _fraction_view_reads(tree, function)]
    assert read == []


def _definitions(tree):
    """(where, node) for each statement of a module and each of its methods.

    `where` names a function, a method as Class.method, a class or <module>.
    """
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            if not isinstance(node, ast.FunctionDef):
                yield getattr(top, "name", "<module>"), node
            else:
                yield (node.name if node is top else f"{top.name}.{node.name}"), node


def _named(node, name):
    """Whether `node` is a call of `name`, by name or attribute."""
    if not isinstance(node, ast.Call):
        return False
    return getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def _builders(tree, cls):
    """Where a module calls `cls`, as :func:`_definitions` names it."""
    for where, node in _definitions(tree):
        for call in ast.walk(node):
            if _named(call, cls):
                yield where


def test_norms_builds_molecules_only_for_faces_and_the_decomposition_view():
    # a norm certificate keeps the solver's integer flows; the (Molecule,
    # Fraction) decomposition is built only when `primal_witness` is read
    tree = ast.parse((PACKAGE / "norms.py").read_text())
    assert sorted(set(_builders(tree, "Molecule"))) == [
        "NormCertificate.primal_witness",
        "norming_face",
    ]
    probe = "M = Molecule(0, 1)\nclass A:\n    x = e.Molecule(1, 0)\n    def f(self): Molecule(2, 3)"
    assert list(_builders(ast.parse(probe), "Molecule")) == ["<module>", "A", "A.f"]


def test_only_the_checker_constructs_a_space():
    # every builder hands integer rows to `metric._validated`, so no faster
    # builder can skip the metric axioms
    built = [
        f"{path.stem}.{where}"
        for path in MODULES
        for where in _builders(ast.parse(path.read_text()), "PointedMetricSpace")
    ]
    assert built == ["metric._validated"]
    probe = "def f():\n    return metric.PointedMetricSpace(labels, 0, scaled)\nS = PointedMetricSpace"
    assert list(_builders(ast.parse(probe), "PointedMetricSpace")) == ["f"]


def _first_arg(call):
    return call.args[0] if call.args else None


def _row_kernels(tree):
    """Where a module writes out a McShane minimum or a row slope test, as (where, kind).

    A minimum point by point is `min` of each column of a `zip(*rows)`, or
    `map(min, *rows)`; a row slope test compares a `max(map(sub, ...))`.
    """
    for where, node in _definitions(tree):
        for sub in ast.walk(node):
            columns = isinstance(sub, (ast.ListComp, ast.GeneratorExp)) and any(
                _named(g.iter, "zip") and any(isinstance(a, ast.Starred) for a in g.iter.args)
                for g in sub.generators
            )
            if (columns and _named(sub.elt, "min")) or (
                _named(sub, "map")
                and getattr(_first_arg(sub), "id", None) == "min"
                and any(isinstance(a, ast.Starred) for a in sub.args)
            ):
                yield where, "min-plus"
            elif isinstance(sub, ast.Compare) and any(
                _named(side, "max")
                and _named(_first_arg(side), "map")
                and getattr(_first_arg(_first_arg(side)), "id", None) == "sub"
                for side in [sub.left, *sub.comparators]
            ):
                yield where, "slope"


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(rows):\n    return [min(c) for c in zip(*rows)]", [("f", "min-plus")]),
        ("def f(rows):\n    return list(map(min, *rows))", [("f", "min-plus")]),
        (
            "class A:\n    def f(self, r):\n        return [min(c) for c in zip(*r)]",
            [("A.f", "min-plus")],
        ),
        ("def f(rows):\n    return min(c for c in zip(*rows))", []),
        ("def f(E, s, e):\n    return max(map(sub, E, s)) > e", [("f", "slope")]),
        ("def f(E, s, e):\n    return e < max(map(sub, E, s))", [("f", "slope")]),
        ("def f(rows):\n    return [max(c) for c in zip(*rows)]", []),
        ("def f(a, b):\n    return [min(c) for c in zip(a, b)]", []),
        ("def f(low, cost):\n    return [max(map(sub, low, row)) for row in cost]", []),
        ("def f(rows):\n    return min_plus([0] * len(rows), rows)", []),
    ],
)
def test_the_row_kernel_finder(source, found):
    assert list(_row_kernels(ast.parse(source))) == found


def test_only_metric_writes_out_a_mcshane_minimum_or_a_row_slope_test():
    # `metric.min_plus` and `metric.steep_pair` are the one copy of each; the
    # solver's Kuhn reduction keeps its column minima inline, since building
    # the zero-plus-cost rows for `min_plus` measured slower there
    found = [
        f"{path.stem}.{where}:{kind}"
        for path in MODULES
        if path.stem != "metric"
        for where, kind in _row_kernels(ast.parse(path.read_text()))
    ]
    assert found == ["norms._transport_plan:min-plus"]


def _raised(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    bases = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    live = set()
    for path in sorted(PACKAGE.glob("*.py")):
        live |= set(_raised(ast.parse(path.read_text(), filename=str(path))))
    frontier = list(live & set(bases))
    while frontier:
        for base in bases.get(frontier.pop(), []):
            if base not in live:
                live.add(base)
                frontier.append(base)
    assert sorted(set(bases) - live) == []


def test_one_method_checks_an_endpoint_pair():
    # segments, molecules, their functions, their verdicts and the CLI take
    # their pairs from `PointedMetricSpace.pair`
    sites = [
        f"{path.stem}.{where}"
        for path in MODULES
        for where, node in _definitions(ast.parse(path.read_text()))
        for name in _raised(node)
        if name == "DegeneratePair"
    ]
    assert sites == ["metric.PointedMetricSpace.pair"]


def test_the_loader_reads_its_matrix_through_metric():
    # `metric._integer_rows` parses and scales the entries of every matrix
    tree = ast.parse((PACKAGE / "fileio.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if _named(node, "scale_to_integers")] == []


def test_every_exported_name_resolves():
    missing = [name for name in freelip.__all__ if not hasattr(freelip, name)]
    assert missing == []
    # the export list is the names of `__init__`'s export table, in order,
    # and each resolves to its module's own object
    table = [(module, name) for module, names in freelip._EXPORTS.items() for name in names]
    assert freelip.__all__ == [name for _, name in table]
    foreign = [
        f"{module}.{name}"
        for module, name in table
        if getattr(freelip, name) is not getattr(importlib.import_module(f"freelip.{module}"), name)
    ]
    assert foreign == []
    star = {}
    exec("from freelip import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(freelip.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        freelip.no_such_name


def _leading_literal(node):
    """A string message, or the literal text before an f-string's first field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        text = ""
        for part in node.values:
            if not isinstance(part, ast.Constant):
                break
            text += part.value
        return text
    return None


def _verification_failures(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "InternalVerificationFailure"
        ):
            args = node.exc.args
            yield node.lineno, _leading_literal(args[0]) if args else None


def _fault_test_patterns():
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "InternalVerificationFailure"
            ):
                for keyword in node.keywords:
                    if keyword.arg == "match" and isinstance(keyword.value, ast.Constant):
                        yield keyword.value.value


def test_every_verification_failure_has_a_fault_test():
    patterns = set(_fault_test_patterns())
    sites, untested = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, message in _verification_failures(ast.parse(path.read_text())):
            sites += 1
            if message is None or not any(re.search(p, message) for p in patterns):
                untested.append(f"{path.stem}:{lineno}: {message!r}")
    assert sites > 0
    assert untested == []


def _checks_asserted_to_fail(tree):
    """Checks whose result a test function binds and asserts not to have passed."""
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("test_")):
            continue
        bound = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and isinstance(node.value.func.value, ast.Name)
                and node.value.func.value.id == "checks"
                and node.value.func.attr.startswith("check_")
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[target.id] = node.value.func.attr
        for node in ast.walk(func):
            if not isinstance(node, ast.Assert):
                continue
            for sub in ast.walk(node.test):
                if (
                    isinstance(sub, ast.UnaryOp)
                    and isinstance(sub.op, ast.Not)
                    and isinstance(sub.operand, ast.Attribute)
                    and sub.operand.attr == "passed"
                    and isinstance(sub.operand.value, ast.Name)
                    and sub.operand.value.id in bound
                ):
                    yield bound[sub.operand.value.id]


def test_every_battery_check_has_a_fault_test():
    battery = ast.parse((PACKAGE / "checks.py").read_text())
    defined = {
        node.name
        for node in battery.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    }
    failed = set(_checks_asserted_to_fail(ast.parse((TESTS / "test_battery.py").read_text())))
    assert len(defined) == 11
    assert sorted(defined - failed) == []


# each exported function with a point parameter, and the space's two point
# methods, called with `x` in one point slot of the line a - b - c - d
POINT_TAKERS = [
    ("delta", freelip.delta),
    ("subspace_membership", lambda s, x: freelip.subspace_membership(freelip.delta(s, 3), [x])),
    ("classify_molecule", lambda s, x: freelip.classify_molecule(s, x, 1)),
    ("classify_molecule", lambda s, x: freelip.classify_molecule(s, 1, x)),
    ("normers_support_check", lambda s, x: freelip.normers_support_check(s, x, 1)),
    ("normers_support_check", lambda s, x: freelip.normers_support_check(s, 1, x)),
    ("molecule_norming_function", lambda s, x: freelip.molecule_norming_function(s, x, 1)),
    ("molecule_norming_function", lambda s, x: freelip.molecule_norming_function(s, 1, x)),
    ("intersection_property_check", lambda s, x: freelip.intersection_property_check(s, [[x]])),
    ("restrict", lambda s, x: freelip.restrict(freelip.distance_to_base(s), [x])),
    ("PointedMetricSpace.segment", lambda s, x: s.segment(x, 1)),
    ("PointedMetricSpace.segment", lambda s, x: s.segment(1, x)),
    ("PointedMetricSpace.radius", lambda s, x: s.radius([x])),
]


def test_the_point_table_holds_every_exported_function_taking_points():
    functions = {name: getattr(freelip, name) for name in freelip.__all__}
    takers = {
        name
        for name, f in functions.items()
        if inspect.isfunction(f)
        and {"p", "q", "K", "S", "Ks"} & set(inspect.signature(f).parameters)
    }
    methods = {"PointedMetricSpace.segment", "PointedMetricSpace.radius"}
    assert {name for name, _ in POINT_TAKERS} == takers | methods


@pytest.mark.parametrize(
    "call",
    [call for _, call in POINT_TAKERS],
    ids=[f"{name}-{i}" for i, (name, _) in enumerate(POINT_TAKERS)],
)
def test_every_entry_point_resolves_its_points(call):
    space = validate_space([[abs(i - j) for j in range(4)] for i in range(4)], labels="abcd")
    assert call(space, "d") == call(space, 3)
    for key in (-1, space.n):
        with pytest.raises(UnknownLabel):
            call(space, key)
