"""`ttscheck.records` against the standard library's `@dataclass`: for each
combination of options the package uses, twin classes with the same body
have the same `__init__` signature, repr, equality, hash and frozen,
unhashable, factory and slots behaviour.  And every record class of the
package takes its annotated fields, in order, as `__init__` parameters."""

import ast
import dataclasses
import gc
import importlib
import inspect
import pathlib
from fractions import Fraction

import pytest

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


def record_classes() -> list:
    """(module, class name, annotated field names) of each class of the
    package that a `record` decorator makes, read from the source."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                    (dec.func if isinstance(dec, ast.Call) else dec).id == "record"
                    for dec in node.decorator_list):
                fields = [item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign)]
                found.append((path.stem, node.name, fields))
    return found


def test_every_record_takes_its_annotations_in_order():
    found = record_classes()
    assert len(found) > 50
    for module, name, fields in found:
        cls = getattr(importlib.import_module(f"ttscheck.{module}"), name)
        params = list(inspect.signature(cls.__init__).parameters)
        assert params == ["self"] + fields, (module, name)
        assert cls.__init__.__module__ == cls.__module__
