"""Every module of the package uses each name it imports.

Read with the standard library's `ast` alone: an import binds a name, and
the module must load that name somewhere.  A name the module lists in its
`__all__`, or whose import line carries the marker `# re-exported`, is
exported on purpose and counts as used.
"""

import ast
import pathlib

import ttscheck

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
