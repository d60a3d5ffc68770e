"""Records: the part of the standard library's `@dataclass` the package
uses, at a fraction of its start-up cost.

`@dataclass` compiles about six methods per class, each with its own `exec`;
over the package's classes that was about 60 % of the time `ttscheck` takes
to start.  `record` makes only the methods hot code calls: `__init__`,
`__eq__` and `__hash__`, with the bodies `@dataclass` generates on Python
3.11, so constructing, comparing and hashing a record does what it did.

It compiles them once per record shape, over placeholder field names.  The
shape is what their bytecode depends on besides the names: `frozen`, the
field count, which fields have a `default_factory`, `__post_init__`, and
which of the three methods the class body leaves to the decorator.  Each
class takes fresh functions from its shape's template, and
`CodeType.replace` puts its own field names in their code objects, so they
hold the bytecode that a compile of the class's own source gives.  The cold
`__repr__` and a frozen record's `__setattr__`/`__delattr__` are closures,
made without compiling.

Covered: fields in annotation order, with a default or
`field(default_factory=...)`; `__post_init__`; `frozen`; `slots`; a method
the class body defines, such as an explicit `__hash__`, is kept.  A record
that is not frozen is unhashable.  Not covered: inherited fields,
`ClassVar`, `InitVar`, `kw_only`, ordering and a generated `__doc__`.
"""

class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a field of a frozen record."""


class _Factory:
    """A field's `default_factory`.  As the default of its `__init__`
    parameter it stands for an argument not given, and reads `<factory>` in
    a signature, as with `@dataclass`."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __repr__(self):
        return "<factory>"


def field(*, default_factory) -> _Factory:
    return _Factory(default_factory)


def record(cls=None, /, *, frozen: bool = False, slots: bool = False):
    """Class decorator: `@record`, `@record(frozen=True)` or
    `@record(slots=True)`."""
    if cls is None:
        return lambda c: _make_record(c, frozen, slots)
    return _make_record(cls, frozen, slots)


def _make_record(cls, frozen: bool, slots: bool):
    own = dict(cls.__dict__)
    annotations = own.get("__annotations__", {})
    names = tuple(annotations)
    defaults = {n: own[n] for n in names if n in own}
    for i, name in enumerate(names):
        if name not in defaults and not defaults.keys().isdisjoint(names[:i]):
            raise TypeError(f"non-default argument {name!r} follows default argument")
    if slots:
        body = {k: v for k, v in own.items()
                if k not in names and k not in ("__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__,
                        dict(body, __slots__=names, __qualname__=cls.__qualname__))

    factories = sorted(n for n in names if isinstance(defaults.get(n), _Factory))
    if not slots:
        for name in factories:
            delattr(cls, name)
    made = tuple(m for m in ("__init__", "__eq__", "__hash__")[:3 if frozen else 2]
                 if m not in own)
    shape = (frozen, len(names), tuple(map(names.index, factories)),
             hasattr(cls, "__post_init__"), made)
    create = _TEMPLATES.get(shape) or _template(shape)
    cells = [v for n in factories for v in (defaults[n], defaults[n].make)]
    methods = dict(zip(made, create(object, *cells)))
    rename = {f"_{i}": n for i, n in enumerate(names)}
    for rank, name in zip(_ranks(len(factories)), factories):
        rename[f"_dflt_{rank}"], rename[f"_make_{rank}"] = f"_dflt_{name}", f"_make_{name}"
    for fn in methods.values():
        fn.__code__ = _relabel(fn.__code__, rename)
        fn.__module__ = cls.__module__
    if "__init__" in methods:
        methods["__init__"].__defaults__ = tuple(defaults.values()) or None

    def __repr__(self):
        return self.__class__.__qualname__ + "(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in names) + ")"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods["__repr__"] = __repr__
    if frozen:
        methods["__setattr__"], methods["__delattr__"] = __setattr__, __delattr__
    for m, fn in methods.items():
        if m not in own:
            fn.__qualname__ = f"{cls.__qualname__}.{m}"
            setattr(cls, m, fn)
    if "__init__" in methods:
        cls.__init__.__annotations__ = {**annotations, "return": None}
    if not frozen and "__hash__" not in own:
        cls.__hash__ = None
    return cls


_TEMPLATES = {}  # shape -> the `__create__` of its methods


def _ranks(count: int) -> list:
    """`count` placeholder suffixes that sort as their ranks do.  A code
    object lists its free variables sorted by name, so a template's factory
    placeholders must sort as the field names they stand for."""
    return [f"{r:0{len(str(count))}}" for r in range(count)]


def _template(shape):
    """Compile the methods of one record shape over the placeholder fields
    `_0`, `_1`, ...  The result, `__create__`, takes `object` and then each
    factory field's `_Factory` and `make`, in name order, as closure cells
    and returns fresh methods."""
    frozen, count, factories, post_init, made = shape
    ranks = dict(zip(factories, _ranks(len(factories))))
    cells = ["_object"] + [f"_{kind}_{r}" for r in ranks.values() for kind in ("dflt", "make")]
    params, lines = ["self"], []
    for p in range(count):
        name = value = f"_{p}"
        params.append(name)
        if p in ranks:
            value = f"_make_{ranks[p]}() if {name} is _dflt_{ranks[p]} else {name}"
        lines.append(f"_object.__setattr__(self,{name!r},{value})" if frozen
                     else f"self.{name}={value}")
    if post_init:
        lines.append("self.__post_init__()")
    this = "".join(f"self._{p}," for p in range(count))
    that = "".join(f"other._{p}," for p in range(count))
    source = {
        "__init__": f"def __init__({','.join(params)}):\n"
                    + "".join(f" {line}\n" for line in lines or ["pass"]),
        "__eq__": "def __eq__(self, other):\n"
                  " if other.__class__ is self.__class__:\n"
                  f"  return ({this})==({that})\n"
                  " return NotImplemented\n",
        "__hash__": f"def __hash__(self):\n return hash(({this}))\n",
    }
    ns = {}
    exec(f"def __create__({','.join(cells)}):\n"
         + "".join(f" {line}\n" for m in made for line in source[m].splitlines())
         + f" return [{','.join(made)}]\n", ns)
    _TEMPLATES[shape] = ns["__create__"]
    return ns["__create__"]


def _relabel(code, rename: dict):
    """`code` with each placeholder among its local, attribute, constant and
    free-variable names replaced by the name it stands for."""
    def swap(names):
        return tuple(rename.get(n, n) for n in names)
    return code.replace(co_varnames=swap(code.co_varnames), co_names=swap(code.co_names),
                        co_consts=swap(code.co_consts), co_freevars=swap(code.co_freevars))
