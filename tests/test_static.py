"""Static check of the package sources, with the standard library only.

A module that reads a global name it never defines, imports or gets from
builtins fails only when that line runs; this finds such names up front.
"""

import builtins
import symtable
from pathlib import Path

import pytest

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
