"""Records: the frozen `@dataclass` the package uses, at a fraction of its
start-up cost.

`@dataclass` compiles about six methods per class, each with its own `exec`;
over the package's classes that was about 60 % of the time `ttscheck` takes
to start.  `record` makes only the methods hot code calls: `__init__`,
`__eq__` and `__hash__`, with the bodies `@dataclass(frozen=True)`
generates on Python 3.11, so constructing, comparing and hashing a record
does what it did.

It compiles them once per record shape, over placeholder field names.  The
shape is what their bytecode depends on besides the names: the field count,
`__post_init__`, and which of the three methods the class body leaves to the
decorator.  Each class takes fresh functions from its shape's template, and
`CodeType.replace` puts its own field names in their code objects, so they
hold the bytecode that a compile of the class's own source gives, filed
under `<record module.Class>` so that profiles count classes apart.  The cold
`__repr__`, `__setattr__` and `__delattr__` are closures, made without
compiling.

Every record is a frozen value.  Covered: fields in annotation order, with
defaults; `__post_init__`; a method the class body defines, such as an
explicit `__hash__`, is kept.  Not covered: default factories, inherited
fields, `ClassVar`, `InitVar`, `kw_only`, ordering, `__slots__` and a
generated `__doc__`.
"""

class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a field of a record."""


def record(cls):
    """Class decorator: `cls` as a frozen record of its annotated fields."""
    own = dict(cls.__dict__)
    annotations = own.get("__annotations__", {})
    names = tuple(annotations)
    defaults = {n: own[n] for n in names if n in own}
    for i, name in enumerate(names):
        if name not in defaults and not defaults.keys().isdisjoint(names[:i]):
            raise TypeError(f"non-default argument {name!r} follows default argument")

    made = tuple(m for m in ("__init__", "__eq__", "__hash__") if m not in own)
    shape = (len(names), hasattr(cls, "__post_init__"), made)
    create = _TEMPLATES.get(shape) or _template(shape)
    methods = dict(zip(made, create(object)))
    rename = {f"_{i}": n for i, n in enumerate(names)}
    label = f"<record {cls.__module__}.{cls.__qualname__}>"
    for fn in methods.values():
        fn.__code__ = _relabel(fn.__code__, rename, label)
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

    methods.update(__repr__=__repr__, __setattr__=__setattr__, __delattr__=__delattr__)
    for m, fn in methods.items():
        if m not in own:
            fn.__qualname__ = f"{cls.__qualname__}.{m}"
            setattr(cls, m, fn)
    if "__init__" in methods:
        cls.__init__.__annotations__ = {**annotations, "return": None}
    return cls


_TEMPLATES = {}  # shape -> the `__create__` of its methods


def _template(shape):
    """Compile the methods of one record shape over the placeholder fields
    `_0`, `_1`, ...  The result, `__create__`, takes `object` as a closure
    cell and returns fresh methods."""
    count, post_init, made = shape
    fields = [f"_{p}" for p in range(count)]
    lines = [f"_object.__setattr__(self,{name!r},{name})" for name in fields]
    if post_init:
        lines.append("self.__post_init__()")
    this = "".join(f"self.{name}," for name in fields)
    that = "".join(f"other.{name}," for name in fields)
    source = {
        "__init__": f"def __init__({','.join(['self'] + fields)}):\n"
                    + "".join(f" {line}\n" for line in lines or ["pass"]),
        "__eq__": "def __eq__(self, other):\n"
                  " if other.__class__ is self.__class__:\n"
                  f"  return ({this})==({that})\n"
                  " return NotImplemented\n",
        "__hash__": f"def __hash__(self):\n return hash(({this}))\n",
    }
    ns = {}
    exec("def __create__(_object):\n"
         + "".join(f" {line}\n" for m in made for line in source[m].splitlines())
         + f" return [{','.join(made)}]\n", ns)
    _TEMPLATES[shape] = ns["__create__"]
    return ns["__create__"]


def _relabel(code, rename: dict, filename: str):
    """`code` with each placeholder among its local, attribute and constant
    names replaced by the name it stands for, and filed under `filename`."""
    def swap(names):
        return tuple(rename.get(n, n) for n in names)
    return code.replace(co_varnames=swap(code.co_varnames), co_names=swap(code.co_names),
                        co_consts=swap(code.co_consts), co_filename=filename)
