"""Records: the part of the standard library's `@dataclass` the package
uses, at a fraction of its start-up cost.

`@dataclass` compiles about six methods per class, each with its own `exec`;
over the package's classes that was about 60 % of the time `ttscheck` takes
to start.  `record` compiles, in one `exec` per class, only the methods hot
code calls: `__init__`, `__eq__` and `__hash__`, with the bodies `@dataclass`
generates on Python 3.11, so constructing, comparing and hashing a record
does what it did.  The cold `__repr__` and a frozen record's
`__setattr__`/`__delattr__` are closures, made without compiling.

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
    if slots:
        body = {k: v for k, v in own.items()
                if k not in names and k not in ("__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__,
                        dict(body, __slots__=names, __qualname__=cls.__qualname__))

    free = {"_object": object}  # what the methods read, as closure cells
    params, lines = ["self"], []
    for name in names:
        value = name
        if name not in defaults:
            params.append(name)
        else:
            free[f"_dflt_{name}"] = default = defaults[name]
            params.append(f"{name}=_dflt_{name}")
            if isinstance(default, _Factory):
                free[f"_make_{name}"] = default.make
                value = f"_make_{name}() if {name} is _dflt_{name} else {name}"
                if not slots:
                    delattr(cls, name)
        lines.append(f"_object.__setattr__(self,{name!r},{value})" if frozen
                     else f"self.{name}={value}")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    this = "".join(f"self.{n}," for n in names)
    that = "".join(f"other.{n}," for n in names)
    source = {
        "__init__": f"def __init__({','.join(params)}):\n"
                    + "".join(f" {line}\n" for line in lines or ["pass"]),
        "__eq__": "def __eq__(self, other):\n"
                  " if other.__class__ is self.__class__:\n"
                  f"  return ({this})==({that})\n"
                  " return NotImplemented\n",
    }
    if frozen:
        source["__hash__"] = f"def __hash__(self):\n return hash(({this}))\n"
    made = [m for m in source if m not in own]
    ns = {"__name__": cls.__module__}
    exec(f"def __create__({','.join(free)}):\n"
         + "".join(f" {line}\n" for m in made for line in source[m].splitlines())
         + f" return [{','.join(made)}]\n", ns)
    methods = dict(zip(made, ns["__create__"](**free)))

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
