"""Every module of the package uses each name it imports.

Read with the standard library's `ast` alone: an import binds a name, and
the module must load that name somewhere.  A name the module lists in its
`__all__`, or whose import line carries the marker `# re-exported`, is
exported on purpose and counts as used.  And importing the command line
leaves the standard library's heavier modules unloaded and compiles one
template per record shape, nothing more.
"""

import ast
import pathlib
import subprocess
import sys

import ttscheck
from test_records import record_shapes

PACKAGE = pathlib.Path(ttscheck.__file__).parent
MARKER = "# re-exported"


def unused_imports(source: str) -> list:
    """(line, name) of each name `source` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict = {}  # name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if MARKER in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_module_uses_what_it_imports():
    unused = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
              if (found := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_unused_import_is_found_and_marked_one_is_kept():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .a import (\n"
              "    B,\n"
              "    C,  # re-exported\n"
              "    D as E,\n"
              ")\n"
              "from .f import G\n"
              "__all__ = ['G']\n"
              "x = os.path.join(E)\n")
    assert unused_imports(source) == [(4, "B")]


def test_cli_imports_neither_dataclasses_nor_inspect():
    """Start-up stays lean: importing the command line in a fresh isolated
    interpreter loads neither `dataclasses` nor `inspect`, whose import and
    per-class method compiles were most of `ttscheck`'s start-up time."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ttscheck.cli; "
            "print(ttscheck.cli.__file__); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [str(PACKAGE / "cli.py"), "[]"]


# Count the `compile` audit events of what follows `mark()` in a fresh
# interpreter.  Compiles of module source files are left out: they happen
# only where no cached bytecode is at hand.
COUNT_COMPILES = """
import sys
events = []
sys.addaudithook(lambda event, args: event == "compile"
                 and not str(args[1]).endswith(".py") and events.append(args[1]))
def mark():
    print(len(events))
    events.clear()
"""


def test_cli_import_compiles_one_template_per_record_shape():
    """`import ttscheck.cli` compiles the standard library's own sources and
    one template per shape of the package's record classes, whatever their
    number: counted as audit events, not timed, so it holds on any host."""
    path = str(PACKAGE.parent)
    loaded = subprocess.run(
        [sys.executable, "-I", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
         "import ttscheck.cli; print(*(m for m in sys.modules if m not in before "
         "and m.partition('.')[0] != 'ttscheck'))", path],
        capture_output=True, text=True, timeout=60)
    assert loaded.returncode == 0, loaded.stderr
    code = (COUNT_COMPILES + "sys.path.insert(0, sys.argv[1]); import importlib\n"
            "for name in sys.argv[2:]: importlib.import_module(name)\n"
            "mark(); import ttscheck.cli; mark()\n")
    counted = subprocess.run([sys.executable, "-I", "-c", code, path, *loaded.stdout.split()],
                             capture_output=True, text=True, timeout=60)
    assert counted.returncode == 0, counted.stderr
    standard_library, package = map(int, counted.stdout.split())
    assert package == len(record_shapes()), (standard_library, package)
