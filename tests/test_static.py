"""Static checks of the package sources, with the standard library only.

A module that reads a global name it never defines, imports or gets from
builtins fails only when that line runs; this finds such names up front.
A function parameter that the body never reads is dead code that callers
still have to pass; this finds those too.  A module that imports another
module's private name leans on that module's internals; each such import is
listed with its reason.  A name a module imports and never reads is a leftover
of code that has gone, and so is a function that neither the package nor
the benchmarks call: code that only tests read belongs in the tests.  The
kernels that ``integrate._kernels`` generates and the validation pass that
``FilippovSystem._sample_check`` writes run in a closed namespace, so a
name they read must be bound there; a helper missing on a rare error path
would otherwise show only as a ``NameError`` there.
The system applies its velocity scale where it hands out fields, so the
integrator and its kernels must not know that a system can be scaled.
Only ``expr`` builds, folds or differentiates expression trees.
"""

import ast
import builtins
import dis
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

from filippov import integrate
from filippov.scenario import load_shipped

from conftest import list_shipped

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "filippov"
MODULE_GLOBALS = {"__name__", "__file__", "__doc__", "__spec__", "__loader__",
                  "__package__", "__path__", "__builtins__"}


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def undefined_globals(source, filename="<source>"):
    """Global names read somewhere in the module but bound nowhere."""
    top = symtable.symtable(source, filename, "exec")
    tables = list(_tables(top))
    bound = {sym.get_name() for sym in top.get_symbols()
             if sym.is_assigned() or sym.is_imported()}
    for table in tables[1:]:
        bound |= {sym.get_name() for sym in table.get_symbols()
                  if sym.is_declared_global() and sym.is_assigned()}
    known = bound | set(dir(builtins)) | MODULE_GLOBALS
    read = set()
    for table in tables:
        for sym in table.get_symbols():
            if sym.is_referenced() and (table is top or sym.is_global()):
                read.add(sym.get_name())
    return read - known


def test_check_finds_an_unbound_name():
    source = "import math\n\ndef f(x):\n    try:\n        return math.sqrt(x)\n" \
             "    except FilippovError:\n        return None\n"
    assert undefined_globals(source) == {"FilippovError"}


def test_check_accepts_bound_names():
    source = "from os import path\nX = 1\n\ndef g():\n    global Y\n    Y = X\n\n" \
             "class C:\n    z = len(path.sep)\n\n    def m(self):\n        return C, Y, [i for i in range(3)]\n"
    assert undefined_globals(source) == set()


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_no_unbound_global(module):
    path = PACKAGE / module
    assert undefined_globals(path.read_text(), str(path)) == set()


# (qualified function name, parameter) -> why the parameter stays unread
UNREAD_ALLOWED = {}


def unread_parameters(source, filename="<source>"):
    """(qualified function name, parameter) for each parameter its function never reads.

    Methods are named ``Class.method``, nested functions ``outer.inner`` and
    lambdas ``<lambda>``.  A read inside a nested function or lambda counts for
    the enclosing function, even where the nested one rebinds the name.
    """
    unread = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                visit(child, scope)
                continue
            name = scope + getattr(child, "name", "<lambda>")
            if not isinstance(child, ast.ClassDef):
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread.update((name, p) for p in params if p not in read)
            visit(child, name + ".")

    visit(ast.parse(source, filename), "")
    return unread


def test_unread_check_finds_unread_parameters():
    source = ("class C:\n    def m(self, used, unused, *args, key=None, **extra):\n"
              "        return used, args, key\n\n"
              "def f(a, b):\n    def g(c):\n        return a\n    return g, lambda d, e: d\n")
    assert unread_parameters(source) == {
        ("C.m", "self"), ("C.m", "unused"), ("C.m", "extra"),
        ("f", "b"), ("f.g", "c"), ("f.<lambda>", "e"),
    }


def test_unread_check_accepts_read_parameters():
    # reads in nested scopes, comprehensions, f-strings and keyword arguments all count
    source = ("def f(a, b, c, *d, e, **g):\n    def h():\n        return a\n"
              "    return h, [b for _ in d], f'{c}', dict(k=e), g\n")
    assert unread_parameters(source) == set()


def test_package_parameters_are_read():
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        unread |= unread_parameters(path.read_text(), str(path))
    assert unread == set(UNREAD_ALLOWED)


def unused_imports(source, filename="<source>"):
    """Each name an import binds that the module never reads; ``from __future__`` is exempt.

    A read anywhere in the module counts, in any scope.
    """
    tree = ast.parse(source, filename)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - read


def test_import_check_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\nimport math\n"
              "from .sigma import lie_pair, bracket as br, classify_point\n\n"
              "def f(x: classify_point) -> None:\n    import re\n    return math.pi, br\n")
    assert unused_imports(source) == {"os", "j", "lie_pair", "re"}


def test_package_modules_read_every_import():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":  # the package's re-exports
            unused |= {(path.stem, name) for name in unused_imports(path.read_text(), str(path))}
    assert unused == set()


# function or method name -> why it stays although no package or benchmark source reads it
UNCALLED_ALLOWED = {
    "evaluate": "the expression evaluator that docs/expressions.md documents",
    "convex_weight": "acceptance criterion 1 checks the sliding field's weight with it",
    "rescale_tangency_freeze": "acceptance criterion 7 freezes the tangencies with it",
}


def unread_functions(defining, reading=()):
    """Each function or method name defined in a ``defining`` source that no source reads.

    A read is a loaded attribute, or for a function also a loaded name, in any
    of the ``defining`` and ``reading`` sources, in any scope; a method (a
    ``def`` directly in a class body) is read only as an attribute.  Dunder
    methods are exempt.
    """
    names, attributes = set(), set()
    for source in [*defining, *reading]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    unread = set()
    for source in defining:
        tree = ast.parse(source)
        methods = {id(d) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for d in c.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in attributes
                    and (id(node) in methods or node.name not in names)):
                unread.add(node.name)
    return unread


def test_function_check_finds_unread_functions():
    source = ("class C:\n    def __init__(self):\n        self.m()\n\n    def m(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n\n    @property\n    def size(self):\n        return 0\n\n"
              "def f():\n    def inner():\n        pass\n    return g\n\n\ndef g():\n    return C().size\n")
    assert unread_functions([source]) == {"unused", "f", "inner"}
    # a read in another source counts, and so does one through an attribute of a module
    assert unread_functions([source], ["import mod\nmod.f(C.unused)\n"]) == {"inner"}


def test_function_check_reads_a_method_only_as_an_attribute():
    # the bare call reads the function h, not the method C.h of the same name
    source = ("class C:\n    def h(self):\n        return 0\n\n"
              "def h():\n    return 1\n\n\ndef main():\n    return h(), main\n")
    assert unread_functions([source]) == {"h"}
    assert unread_functions([source], ["C().h()\n"]) == set()


def test_package_functions_are_read_outside_the_tests():
    defining = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    reading = [path.read_text() for path in sorted((PACKAGE.parents[1] / "benchmarks").glob("*.py"))]
    assert unread_functions(defining, reading) == set(UNCALLED_ALLOWED)


# ("module._name" imported, importing module) -> why the private import stays
PRIVATE_IMPORTS_ALLOWED = {}


def private_imports(source, filename="<source>"):
    """``module._name`` for each private name the source imports from a package module."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.partition(".")[0] != PACKAGE.name:
            continue
        base = module.rpartition(".")[2]
        found.update(f"{base}.{a.name}".lstrip(".") for a in node.names if a.name.startswith("_"))
    return found


def test_private_import_check_finds_private_names():
    source = ("from __future__ import annotations\nimport os\nfrom os import _exit\n"
              "from .diagnostics import chaos_report, _window_cycles\n"
              "from filippov.integrate import _Run as Run\nfrom . import _helpers, sigma\n\n"
              "def f():\n    from .sigma import _side_values\n    return _side_values\n")
    assert private_imports(source) == {
        "diagnostics._window_cycles", "integrate._Run", "_helpers", "sigma._side_values",
    }


def test_package_modules_import_no_private_names():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= {(name, path.stem) for name in private_imports(path.read_text(), str(path))}
    assert found == set(PRIVATE_IMPORTS_ALLOWED)


# the names that build, fold or differentiate expression trees
TREE_NAMES = {"Expression", "Const", "Var", "Unary", "Binary", "Power", "fold", "differentiate"}


def test_only_expr_builds_expression_trees():
    # expr inlines parameter values, checks constants and forms derivatives; a module that
    # built trees of its own would have to know those decisions too
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("expr.py", "__init__.py"):  # the owner and the package's re-exports
            found |= {(path.stem, a.name) for node in ast.walk(ast.parse(path.read_text(), str(path)))
                      if isinstance(node, ast.ImportFrom) for a in node.names if a.name in TREE_NAMES}
    assert found == set()


def unbound_globals(fn):
    """The global names that ``fn``, or a function or comprehension nested in it, reads and its
    ``__globals__`` does not bind."""
    names = set()
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        names |= {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
        codes += [c for c in code.co_consts if hasattr(c, "co_code")]
    return names - set(fn.__globals__)


def test_kernel_check_finds_an_unbound_name():
    env = {"__builtins__": {}, "abs": abs}
    exec("def kernel(x):\n    if x < 0:\n        raise missing(x)\n"  # noqa: S102
         "    return [abs(v) for v in (x, other)]\n", env)
    assert unbound_globals(env["kernel"]) == {"missing", "other"}


def _arc_loops():
    """The arc loops compiled for every region and curve of each shipped scenario, in both
    directions, and of a velocity-scaled one."""
    for name in list_shipped():
        forward = load_shipped(name).build_system()
        systems = [("forward", forward), ("backward", forward.reversed())]
        if name == "chaotic_torus.json":
            systems.append(("scaled", forward.with_velocity_scale(lambda p: 0.5)))
        for direction, sys_ in systems:
            for region in sys_.regions:
                yield f"{name}:{direction}:regular_steps[{region.id}]", integrate._regular_loop(sys_, region.id)[0]
            for curve in sys_.curves:
                yield f"{name}:{direction}:sliding_steps[{curve.id}]", integrate._sliding_loop(sys_, curve.id)[0]


def _validation_passes():
    """The validation pass written for each shipped scenario."""
    for name in list_shipped():
        yield f"{name}:check_block", load_shipped(name).build_system()._sample_check()[0]


GENERATED = {"_DenseStep.at": integrate._DenseStep.at, "_SLIDING_RHS": integrate._SLIDING_RHS, **{
    f"{name}[{torus}]": getattr(integrate, name)[torus] for name in ("_EMIT", "_EMIT_TO") for torus in (False, True)
}, **dict(_arc_loops()), **dict(_validation_passes())}


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_kernel_reads_only_bound_globals(name):
    assert unbound_globals(GENERATED[name]) == set()


def test_integrator_does_not_know_the_velocity_scale():
    assert "velocity_scale" not in (PACKAGE / "integrate.py").read_text()
    takes_scale = [name for name, fn in GENERATED.items()
                   if "scale" in fn.__code__.co_varnames[:fn.__code__.co_argcount]]
    assert takes_scale == []


def test_the_package_runs_on_the_standard_library_alone():
    # a command imports the CLI and loads a scenario; every module that pulls in is the
    # package's own or the standard library's, and the project declares no dependency
    probe = ("import sys\nbefore = set(sys.modules)\nimport filippov.cli\n"
             "from filippov.scenario import load_shipped\nload_shipped('chaotic_torus').build_system()\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                            cwd=PACKAGE.parent).stdout.split()
    assert "filippov.diagnostics" in loaded
    outside = {name.split(".")[0] for name in loaded} - set(sys.stdlib_module_names) - {"filippov"}
    assert outside == set()
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
