"""`ttscheck.records` against the standard library's frozen `@dataclass`:
for each kind of class body the package uses, twin classes with the same
body have the same `__init__` signature, repr, equality, hash and frozen
behaviour.  And every record class of the package is decorated with a bare
`@record`, takes its annotated fields, in order, as `__init__` parameters,
and its methods, made from the template of its shape, are what a compile
of its own source makes."""

import __future__
import ast
import copy
import dataclasses
import gc
import importlib
import inspect
import pathlib
from fractions import Fraction

import pytest

import reference
import ttscheck
from ttscheck import records, traces

PACKAGE = pathlib.Path(ttscheck.__file__).parent

# name -> (class body, constructor args)
CASES = {}


def case(*examples):
    def register(body):
        CASES[body.__name__] = (body, examples)
        return body
    return register


@case((1, Fraction(1, 2)), (1, Fraction(1, 2)), (2, Fraction(1, 2)), (-7, 3))
def frozen_plain():
    class Point:
        x: int
        y: Fraction
    return Point


@case(())
def frozen_empty():
    class Nothing:
        def __str__(self):
            return "nothing"
    return Nothing


@case(("a",), ("a", True), ("a", False, 2), ("b", Fraction(3, 4), -1, (1, 2)))
def frozen_defaults():
    class Decl:
        name: str
        initial: object = False
        lo: int = 0
        parts: tuple = ()
    return Decl


@case(("t", {"P": 1, "Q": 0}), ("t", {"P": 1}), ("u", {}))
def post_init():
    class Event:
        transition: str
        marking: dict

        def __post_init__(self):
            object.__setattr__(self, "marking",
                               {p: n for p, n in self.marking.items() if n})
    return Event


@case((("x", 1),), (("x", 1),), (("y", 2),))
def explicit_hash():
    class Atom:
        expr: tuple

        def __hash__(self):
            return hash(self.expr[0])
    return Atom


def twins(name: str) -> tuple:
    """(frozen dataclass, record) built from case `name`'s body."""
    body, _ = CASES[name]
    return dataclasses.dataclass(body(), frozen=True), records.record(body())


@pytest.mark.parametrize("name", CASES)
def test_signature_repr_and_equality_match_dataclass(name):
    d, r = twins(name)
    d_other, r_other = twins(name)  # same body and qualname, another class
    examples = CASES[name][1]
    assert str(inspect.signature(r.__init__)) == str(inspect.signature(d.__init__))
    assert str(inspect.signature(r)) == str(inspect.signature(d))
    for a in examples:
        assert repr(r(*a)) == repr(d(*a))
        for b in examples:
            assert (r(*a) == r(*b)) is (d(*a) == d(*b)), (a, b)
            assert (r(*a) != r(*b)) is (d(*a) != d(*b)), (a, b)
        assert (r(*a) == r_other(*a)) is (d(*a) == d_other(*a)) is False
        assert (r(*a) != d(*a)) is True
        assert (r(*a) == a) is (d(*a) == a) is False


def outcome(call) -> tuple:
    try:
        return ("value", call())
    except Exception as exc:  # the twins must raise alike
        return ("raises", type(exc), str(exc))


@pytest.mark.parametrize("name", CASES)
def test_hash_matches_dataclass(name):
    d, r = twins(name)
    for a in CASES[name][1]:
        assert outcome(lambda: hash(r(*a))) == outcome(lambda: hash(d(*a)))


def test_set_iteration_order_matches_dataclass():
    d, r = twins("frozen_plain")
    values = [(i * 7919 % 101 - 50, Fraction(i, 3)) for i in range(200)]
    assert [repr(p) for p in {r(*v) for v in values}] == \
        [repr(p) for p in {d(*v) for v in values}]


@pytest.mark.parametrize("name", CASES)
def test_frozen_fields_cannot_be_assigned_or_deleted(name):
    d, r = twins(name)
    a = CASES[name][1][0]
    for target in [f.name for f in dataclasses.fields(d)] + ["other"]:
        messages = []
        for obj in (d(*a), r(*a)):
            with pytest.raises(AttributeError) as assigned:
                setattr(obj, target, 1)
            with pytest.raises(AttributeError) as deleted:
                delattr(obj, target)
            messages.append((str(assigned.value), str(deleted.value)))
        assert messages[0] == messages[1]
        assert isinstance(assigned.value, records.FrozenInstanceError)


@pytest.mark.parametrize("name", CASES)
def test_records_hold_no_reference_cycles(name):
    _, r = twins(name)
    gc.collect()
    gc.disable()
    try:
        for a in CASES[name][1]:
            repr(r(*a))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_non_default_field_after_default_raises_type_error_naming_it():
    def body():
        class Late:
            x: int
            y: tuple = ()
            z: int
        return Late
    for make in (dataclasses.dataclass(frozen=True), records.record):
        with pytest.raises(TypeError) as raised:
            make(body())
        assert "'z'" in str(raised.value)


def test_pending_window_is_a_plain_slotted_class():
    """The simulator's firing window, which it narrows and rescales in
    place, is no record: it compares by identity and holds its four
    attributes in slots, with no instance dict."""
    w = traces._Pending(1, False, None, True)
    assert traces._Pending.__eq__ is object.__eq__
    assert not hasattr(w, "__dict__")
    with pytest.raises(AttributeError):
        w.other = 1
    w.double()
    assert (w.earliest, w.earliest_strict, w.latest, w.latest_strict) == (2, False, None, True)


def record_class_nodes() -> list:
    """(module name, class definition) of each class of the package that
    the `record` decorator makes, read from the source."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(dec, ast.Name) and dec.id == "record"
                    for dec in node.decorator_list):
                found.append((path.stem, node))
    return found


def test_every_record_decorator_is_bare():
    """`record` takes no option: each use of it in the package is a bare
    `@record` on a top-level class, and it takes the class alone."""
    found = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for dec in getattr(node, "decorator_list", ()):
                named = dec.func if isinstance(dec, ast.Call) else dec
                if isinstance(named, ast.Name) and named.id == "record":
                    assert dec is named, (path.name, node.name)
                    found += 1
    assert found == len(record_class_nodes())
    assert list(inspect.signature(records.record).parameters) == ["cls"]


def fields_of(node: ast.ClassDef) -> list:
    return [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]


def record_classes() -> list:
    """(module, class name, annotated field names) of each record class."""
    return [(module, node.name, fields_of(node)) for module, node in record_class_nodes()]


def record_shapes() -> set:
    """The shapes of the package's record classes, read from the source:
    what the bytecode of their generated methods depends on besides field
    names.  That is its field count, whether it has `__post_init__`, and
    which of `__init__`, `__eq__` and `__hash__` the decorator makes rather
    than the class body."""
    shapes = set()
    for _, node in record_class_nodes():
        defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        defined |= {t.id for item in node.body if isinstance(item, ast.Assign)
                    for t in item.targets}
        made = tuple(m for m in ("__init__", "__eq__", "__hash__") if m not in defined)
        shapes.add((len(fields_of(node)), "__post_init__" in defined, made))
    return shapes


def test_every_record_takes_its_annotations_in_order():
    found = record_classes()
    assert len(found) > 50
    for module, name, fields in found:
        cls = getattr(importlib.import_module(f"ttscheck.{module}"), name)
        params = list(inspect.signature(cls.__init__).parameters)
        assert params == ["self"] + fields, (module, name)
        assert cls.__init__.__module__ == cls.__module__


def undecorated(module, node: ast.ClassDef):
    """The class `node` defines, made again in a copy of `module`'s
    namespace with no decorator."""
    bare = copy.copy(node)
    bare.decorator_list = []
    tree = ast.Module(body=[bare], type_ignores=[])
    ns = dict(vars(module))
    exec(compile(tree, module.__file__, "exec", flags=__future__.annotations.compiler_flag,
                 dont_inherit=True), ns)
    return ns[node.name]


def same(a, b) -> bool:
    """Equal values of one type."""
    return type(a) is type(b) and a == b


def cells(fn) -> list:
    return [cell.cell_contents for cell in fn.__closure__ or ()]


def compiled_alike(cls, expected: dict) -> int:
    """Assert that the methods of the record class `cls` are those of
    `expected`, a compile of its own source: the same bytecode, names,
    constants, defaults and closure.  Return how many were compared."""
    for name, want in expected.items():
        got, where = vars(cls)[name], (cls.__qualname__, name)
        for attr in ("co_code", "co_consts", "co_names", "co_varnames", "co_freevars"):
            assert getattr(got.__code__, attr) == getattr(want.__code__, attr), (where, attr)
        assert (got.__defaults__ is None) is (want.__defaults__ is None), where
        for mine, theirs in ((got.__defaults__ or (), want.__defaults__ or ()),
                             (cells(got), cells(want))):
            assert len(mine) == len(theirs) and all(map(same, mine, theirs)), where
    return len(expected)


@pytest.mark.parametrize("name", CASES)
def test_record_methods_are_what_their_own_source_compiles_to(name):
    body, _ = CASES[name]
    expected = reference.record_methods(body())
    assert compiled_alike(records.record(body()), expected) >= 1


def test_every_package_record_method_is_what_its_own_source_compiles_to():
    """The methods the template of a class's shape makes run the bytecode
    that a compile of the class's own source makes, as `records` did
    before it kept one template per shape."""
    compared = 0
    for module_name, node in record_class_nodes():
        module = importlib.import_module(f"ttscheck.{module_name}")
        expected = reference.record_methods(undecorated(module, node))
        compared += compiled_alike(getattr(module, node.name), expected)
    assert compared > 150
    assert len(record_shapes()) < len(record_class_nodes()) / 2


def test_profiles_count_each_record_class_apart():
    """Record classes of one shape share a template, yet a profile, which
    keys on a code object's (file, line, name), keeps one entry per class:
    six `Lit` and ten `Name` constructions read as 6 and 10 calls."""
    import cProfile
    import pstats

    from ttscheck.expr import Lit, Name

    profile = cProfile.Profile()
    profile.runcall(lambda: ([Lit(i) for i in range(6)], [Name(str(i)) for i in range(10)]))
    calls = {key[0]: row[0] for key, row in pstats.Stats(profile).stats.items()
             if key[2] == "__init__"}
    assert calls == {"<record ttscheck.expr.Lit>": 6, "<record ttscheck.expr.Name>": 10}
    for module, node in record_class_nodes():
        cls = getattr(importlib.import_module(f"ttscheck.{module}"), node.name)
        assert cls.__init__.__code__.co_filename == f"<record ttscheck.{module}.{node.name}>"
