"""Every definition of the package is reached from the command line.

Read with the standard library's `ast` alone, by name.  The roots are
`cli.main` and each definition whose `def`, `class` or assignment line carries
the marker `# api`: a name a caller outside the package (the benchmark)
reaches directly.  A top-level function, class or assignment is reached when
reached code uses its name, as a name or as an attribute.  A method or
property is reached when its class is reached and its name is read as an
attribute in reached code; dunders are reached with their class.  Code only
the tests call lives in `tests/reference.py`.
"""

import ast
import pathlib

import ttscheck

PACKAGE = pathlib.Path(ttscheck.__file__).parent
MARKER = "# api"
ROOT = ("cli", "main")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _top_level(tree: ast.Module) -> dict:
    """name -> node of each top-level function, class and assigned name."""
    defs: dict = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def _uses(node: ast.AST, skip=()) -> tuple:
    """(names, attributes) that `node` reads, outside the subtrees `skip`."""
    names, attrs = set(), set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            attrs.add(n.attr)
        stack.extend(c for c in ast.iter_child_nodes(n) if c not in skip)
    return names, attrs


def definitions(sources: dict) -> tuple:
    """(top, methods, marked) of the modules in `sources` (module name ->
    source text): node per (module, name) and per (module, class, name), and
    the keys of the definitions marked `# api`."""
    top, methods, marked = {}, {}, []
    for module, source in sources.items():
        tree = ast.parse(source)
        lines = source.splitlines()
        for name, node in _top_level(tree).items():
            top[module, name] = node
            if MARKER in lines[node.lineno - 1]:
                marked.append((module, name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[module, name, item.name] = item
                        if MARKER in lines[item.lineno - 1]:
                            marked.append((module, name, item.name))
    return top, methods, marked


def unreached(sources: dict) -> list:
    """`module.name` or `module.Class.name` of each definition of `sources`
    that neither the root `cli.main` nor an `# api` definition reaches."""
    top, methods, marked = definitions(sources)
    reached: set = set()
    names, attrs = set(), set()
    work = [ROOT, *marked]
    while work:
        key = work.pop()
        if key in reached or (key not in top and key not in methods):
            continue
        reached.add(key)
        if len(key) == 3:
            reached.add(key[:2])
            work.append(key[:2])
        node = top.get(key) or methods[key]
        own = methods.values() if isinstance(node, ast.ClassDef) else ()
        more_names, more_attrs = _uses(node, skip=set(own))
        names |= more_names
        attrs |= more_attrs
        work.extend(k for k in top if k[1] in names or k[1] in attrs or _is_dunder(k[1]))
        work.extend(k for k in methods if k[:2] in reached
                    and (k[2] in attrs or _is_dunder(k[2])))
    missing = [k for k in top if k not in reached]
    missing += [k for k in methods if k[:2] in reached and k not in reached]
    return sorted(".".join(k) for k in missing)


def _package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_reached_from_the_command_line():
    missing = unreached(_package_sources())
    assert not missing, "unreached: " + ", ".join(missing)


def test_api_markers_name_only_what_the_benchmark_calls():
    marked = definitions(_package_sources())[2]
    assert sorted(".".join(k) for k in marked) == [
        "ltl.BuchiAutomaton.state_count", "traces.replay", "zone.canonicalize"]


def test_checker_reports_unreached_and_keeps_api_code():
    sources = {
        "cli": ("from .util import helper\n"
                "def main():\n"
                "    box = Box()\n"
                "    return helper(box.used)\n"),
        "util": ("def helper(x):\n"
                 "    return x\n"
                 "def dead():\n"
                 "    return helper(1)\n"
                 "class Box:\n"
                 "    def __init__(self):\n"
                 "        self.n = 1\n"
                 "    @property\n"
                 "    def used(self):\n"
                 "        return 1\n"
                 "    def unused(self):\n"
                 "        return 2\n"
                 "def exported(z):  # api: benchmarks/x.py\n"
                 "    return _inner(z).size\n"
                 "def _inner(z):\n"
                 "    return z\n"
                 "class Other:\n"
                 "    @property\n"
                 "    def size(self):\n"
                 "        return 0\n"),
    }
    assert unreached(sources) == ["util.Box.unused", "util.Other", "util.dead"]
