"""`ttscheck.records` against the standard library's `@dataclass`: for each
combination of options the package uses, twin classes with the same body
have the same `__init__` signature, repr, equality, hash and frozen,
unhashable, factory and slots behaviour.  And every record class of the
package takes its annotated fields, in order, as `__init__` parameters, and
its methods, made from the template of its shape, are what a compile of
its own source makes."""

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
from ttscheck import records

PACKAGE = pathlib.Path(ttscheck.__file__).parent

# name -> (class body taking a `field` function, options, constructor args)
CASES = {}


def case(*examples, frozen=False, slots=False):
    def register(body):
        CASES[body.__name__] = (body, {"frozen": frozen, "slots": slots}, examples)
        return body
    return register


@case((1, Fraction(1, 2)), (1, Fraction(1, 2)), (2, Fraction(1, 2)), (-7, 3), frozen=True)
def frozen_plain(field):
    class Point:
        x: int
        y: Fraction
    return Point


@case((), frozen=True)
def frozen_empty(field):
    class Nothing:
        def __str__(self):
            return "nothing"
    return Nothing


@case(("a",), ("a", True), ("a", False, 2), ("b", Fraction(3, 4), -1, (1, 2)), frozen=True)
def frozen_defaults(field):
    class Decl:
        name: str
        initial: object = False
        lo: int = 0
        parts: tuple = ()
    return Decl


@case((1,), (1, [1]), (1, [], 5), (1, [], 5, {2: 3}))
def factory(field):
    class Graph:
        model: object
        nodes: list = field(default_factory=list)
        initial: int = 0
        succ: dict = field(default_factory=dict)
    return Graph


@case((), ({1: 2},), ({}, [3], "n"), frozen=True)
def factories_out_of_name_order(field):
    class Index:
        succ: dict = field(default_factory=dict)
        nodes: list = field(default_factory=list)
        name: str = "index"
    return Index


@case(("t", {"P": 1, "Q": 0}), ("t", {"P": 1}), ("u", {}), frozen=True)
def post_init(field):
    class Event:
        transition: str
        marking: dict

        def __post_init__(self):
            object.__setattr__(self, "marking",
                               {p: n for p, n in self.marking.items() if n})
    return Event


@case((("x", 1),), (("x", 1),), (("y", 2),), frozen=True)
def explicit_hash(field):
    class Atom:
        expr: tuple

        def __hash__(self):
            return hash(self.expr[0])
    return Atom


@case((1, False, None, True), (1, False, None, True), (2, True, 7, False), slots=True)
def slots(field):
    class Pending:
        earliest: int
        earliest_strict: bool
        latest: object
        latest_strict: bool

        def double(self):
            self.earliest *= 2
    return Pending


@case(((1, 2), [0], [0], [[0]], [True]), ((), [], [], [], []))
def plain(field):
    class Automaton:
        atoms: tuple
        states: list
        initial: list
        succ: list
        accepting: list

        @property
        def state_count(self):
            return len(self.states)
    return Automaton


def twins(name: str) -> tuple:
    """(dataclass, record) built from case `name`'s body."""
    body, options, _ = CASES[name]
    return (dataclasses.dataclass(body(dataclasses.field), **options),
            records.record(body(records.field), **options))


@pytest.mark.parametrize("name", CASES)
def test_signature_repr_and_equality_match_dataclass(name):
    d, r = twins(name)
    d_other, r_other = twins(name)  # same body and qualname, another class
    examples = CASES[name][2]
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
    for a in CASES[name][2]:
        assert outcome(lambda: hash(r(*a))) == outcome(lambda: hash(d(*a)))
    if not CASES[name][1]["frozen"]:
        assert r.__hash__ is d.__hash__ is None


def test_set_iteration_order_matches_dataclass():
    d, r = twins("frozen_plain")
    values = [(i * 7919 % 101 - 50, Fraction(i, 3)) for i in range(200)]
    assert [repr(p) for p in {r(*v) for v in values}] == \
        [repr(p) for p in {d(*v) for v in values}]


@pytest.mark.parametrize("name", [n for n in CASES if CASES[n][1]["frozen"]])
def test_frozen_fields_cannot_be_assigned_or_deleted(name):
    d, r = twins(name)
    a = CASES[name][2][0]
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


def test_plain_record_fields_can_be_assigned():
    _, r = twins("plain")
    obj = r((1,), [], [], [], [])
    obj.states = [(True,)]
    assert obj.state_count == 1
    assert obj == r((1,), [(True,)], [], [], [])


def test_default_factory_gives_each_instance_a_fresh_object():
    d, r = twins("factory")
    first, second = r(1), r(1)
    assert first.nodes == [] and first.succ == {}
    assert first.nodes is not second.nodes and first.succ is not second.succ
    given = [3]
    assert r(1, given).nodes is given
    assert "nodes" not in vars(r) and "nodes" not in vars(d)
    assert r.initial == d.initial == 0


def test_slots_record_has_no_instance_dict():
    d, r = twins("slots")
    obj = r(1, False, None, True)
    assert r.__slots__ == d.__slots__ == ("earliest", "earliest_strict", "latest",
                                         "latest_strict")
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.other = 1
    obj.double()
    assert obj == r(2, False, None, True)
    assert r.__qualname__ == d.__qualname__


@pytest.mark.parametrize("name", CASES)
def test_records_hold_no_reference_cycles(name):
    _, r = twins(name)
    gc.collect()
    gc.disable()
    try:
        for a in CASES[name][2]:
            repr(r(*a))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("default", ["value", "factory"])
def test_non_default_field_after_default_raises_type_error_naming_it(frozen, default):
    def body(field):
        class Late:
            x: int
            y: tuple = () if default == "value" else field(default_factory=tuple)
            z: int
        return Late
    for make, field in ((dataclasses.dataclass, dataclasses.field),
                        (records.record, records.field)):
        with pytest.raises(TypeError) as raised:
            make(body(field), frozen=frozen)
        assert "'z'" in str(raised.value)


def test_placeholder_ranks_sort_as_numbers():
    for count in (0, 1, 9, 10, 11, 100, 101):
        ranks = records._ranks(count)
        assert len(set(ranks)) == count and sorted(ranks) == ranks


def record_class_nodes() -> list:
    """(module name, class definition, decorator options) of each class of
    the package that a `record` decorator makes, read from the source."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        classes = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.ClassDef)]
        for node in classes:
            for dec in node.decorator_list:
                call = isinstance(dec, ast.Call)
                if (dec.func if call else dec).id == "record":
                    options = {k.arg: k.value.value for k in dec.keywords} if call else {}
                    found.append((path.stem, node, options))
    return found


def fields_of(node: ast.ClassDef) -> list:
    return [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]


def record_classes() -> list:
    """(module, class name, annotated field names) of each record class."""
    return [(module, node.name, fields_of(node)) for module, node, _ in record_class_nodes()]


def record_shapes() -> set:
    """The shapes of the package's record classes, read from the source:
    what the bytecode of their generated methods depends on besides field
    names.  That is whether the record is frozen, its field count, the
    positions of its `default_factory` fields in the order of their names,
    whether it has `__post_init__`, and which of `__init__`, `__eq__` and
    `__hash__` the decorator makes rather than the class body."""
    shapes = set()
    for _, node, options in record_class_nodes():
        frozen, fields = options.get("frozen", False), fields_of(node)
        factories = sorted(item.target.id for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.value, ast.Call)
                           and item.value.func.id == "field")
        defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        defined |= {t.id for item in node.body if isinstance(item, ast.Assign)
                    for t in item.targets}
        made = tuple(m for m in ("__init__", "__eq__", "__hash__")[:3 if frozen else 2]
                     if m not in defined)
        shapes.add((frozen, len(fields), tuple(map(fields.index, factories)),
                    "__post_init__" in defined, made))
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
    """Equal values of one type; two `field(default_factory=f)` markers are
    the same when their `f` is."""
    if isinstance(a, records._Factory):
        return isinstance(b, records._Factory) and a.make is b.make
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
    body, options, _ = CASES[name]
    expected = reference.record_methods(body(records.field), options["frozen"])
    assert compiled_alike(records.record(body(records.field), **options), expected) >= 1


def test_every_package_record_method_is_what_its_own_source_compiles_to():
    """The methods the template of a class's shape makes run the bytecode
    that a compile of the class's own source makes, as `records` did
    before it kept one template per shape."""
    compared = 0
    for module_name, node, options in record_class_nodes():
        module = importlib.import_module(f"ttscheck.{module_name}")
        expected = reference.record_methods(undecorated(module, node),
                                            options.get("frozen", False))
        compared += compiled_alike(getattr(module, node.name), expected)
    assert compared > 150
    assert len(record_shapes()) < len(record_class_nodes()) / 2
