"""The base of every IR's node and record classes.

A kind lists its fields once, in ``__slots__``.  Two instances are equal
when they are of the same class and their compared fields are equal.  The
fields a kind names in ``_hidden``, by default ``span`` (a source position),
are not compared, hashed or shown; nor is a ``__dict__`` slot, which only
holds cached properties.  ``repr`` reads ``Kind(field=value, ...)``.

``Node`` kinds are mutable and unhashable.  ``Frozen`` kinds reject
assignment and deletion, and hash the tuple of their compared fields.

A kind that adds slots or defaults and writes no ``__init__`` gets one whose
parameters are its slots in MRO order, ``__dict__`` left out; it stores each
one, a frozen kind by calling the ``__set__`` of the slot's descriptor,
which is about as cheap as an assignment and skips ``__setattr__``.
``span`` defaults to None; other trailing defaults are declared in the
kind's ``_defaults``.  The front end and the translation pass every field,
the span included, by position: a keyword argument makes CPython pack the
keywords into a dict on the way to ``__init__``, which about doubles the
cost of making a node.

Each kind gets its own copy of the ``__init__``, equality and hash code,
with the templates' placeholders ``f0``, ``f1``, ... renamed to its fields
by ``CodeType.replace``; nothing is compiled at import.  A frozen kind's
``__init__`` runs with globals of its own, which hold its slots' setters.
A method shared by all kinds would be one attribute-load site for the
specialising interpreter, which then misses whenever kinds alternate, as
they do in nested terms: that compared and hashed nested terms about 2x
slower.
"""

from __future__ import annotations

from types import FunctionType


def _init1(self, f0):
    self.f0 = f0


def _init2(self, f0, f1):
    self.f0 = f0
    self.f1 = f1


def _init3(self, f0, f1, f2):
    self.f0 = f0
    self.f1 = f1
    self.f2 = f2


def _init4(self, f0, f1, f2, f3):
    self.f0 = f0
    self.f1 = f1
    self.f2 = f2
    self.f3 = f3


def _init5(self, f0, f1, f2, f3, f4):
    self.f0 = f0
    self.f1 = f1
    self.f2 = f2
    self.f3 = f3
    self.f4 = f4


def _init6(self, f0, f1, f2, f3, f4, f5):
    self.f0 = f0
    self.f1 = f1
    self.f2 = f2
    self.f3 = f3
    self.f4 = f4
    self.f5 = f5


# a frozen kind's copy runs with its own globals, in which ``_s0``,
# ``_s1``, ... are the ``__set__`` of its slot descriptors
def _frozen_init1(self, f0):
    _s0(self, f0)


def _frozen_init2(self, f0, f1):
    _s0(self, f0)
    _s1(self, f1)


def _frozen_init3(self, f0, f1, f2):
    _s0(self, f0)
    _s1(self, f1)
    _s2(self, f2)


def _frozen_init4(self, f0, f1, f2, f3):
    _s0(self, f0)
    _s1(self, f1)
    _s2(self, f2)
    _s3(self, f3)


def _eq0(self, other):
    return True if other.__class__ is self.__class__ else NotImplemented


def _eq1(self, other):
    if other.__class__ is self.__class__:
        return (self.f0,) == (other.f0,)
    return NotImplemented


def _eq2(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1) == (other.f0, other.f1)
    return NotImplemented


def _eq3(self, other):
    if other.__class__ is self.__class__:
        return (self.f0, self.f1, self.f2) == (other.f0, other.f1, other.f2)
    return NotImplemented


def _eq4(self, other):
    if other.__class__ is self.__class__:
        return ((self.f0, self.f1, self.f2, self.f3)
                == (other.f0, other.f1, other.f2, other.f3))
    return NotImplemented


def _hash0(self): return hash(())
def _hash1(self): return hash((self.f0,))
def _hash2(self): return hash((self.f0, self.f1))
def _hash3(self): return hash((self.f0, self.f1, self.f2))
def _hash4(self): return hash((self.f0, self.f1, self.f2, self.f3))


def _eq_many(self, other):
    # for kinds with more fields than the templates have; none is frozen
    if other.__class__ is self.__class__:
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])
    return NotImplemented


_EQ = (_eq0, _eq1, _eq2, _eq3, _eq4)
_HASH = (_hash0, _hash1, _hash2, _hash3, _hash4)
_PLACEHOLDERS = ("f0", "f1", "f2", "f3")
# by arity; each stores its parameters in order, so a kind's copy renames
# the parameters, and for a mutable kind the attribute names, to its slots
_INIT = (None, _init1, _init2, _init3, _init4, _init5, _init6)
_FROZEN_INIT = (None, _frozen_init1, _frozen_init2, _frozen_init3,
                _frozen_init4)
_OPTIONAL = {"span": None}    # defaults every kind has


def _method(code, name: str, cls: type, namespace=None):
    fn = FunctionType(code, globals() if namespace is None else namespace,
                      name)
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


def _own(template, name: str, cls: type, rename: dict):
    """A copy of ``template`` for ``cls``, reading the fields ``rename``
    gives in place of the placeholders."""
    code = template.__code__
    names = code.co_names
    return _method(code.replace(co_names=tuple(map(rename.get, names, names))),
                   name, cls)


def _init(cls: type, slots: tuple, frozen: bool):
    """An ``__init__`` for ``cls`` that stores ``slots``."""
    templates = _FROZEN_INIT if frozen else _INIT
    if len(slots) >= len(templates):
        raise TypeError(f"{cls.__name__}: too many fields for a generated "
                        f"__init__; write one")
    code = templates[len(slots)].__code__
    params = ("self",) + slots
    if frozen:
        # stores through the slot descriptors: ``Frozen.__setattr__``
        # rejects every write made by assignment
        fn = _method(code.replace(co_varnames=params), "__init__", cls, {
            f"_s{i}": getattr(cls, f).__set__ for i, f in enumerate(slots)})
    else:
        fn = _method(code.replace(co_varnames=params, co_names=slots),
                     "__init__", cls)
    declared = {**_OPTIONAL, **cls._defaults}
    defaults = []
    for f in reversed(slots):
        if f not in declared:
            break
        defaults.append(declared[f])
    fn.__defaults__ = tuple(reversed(defaults)) or None
    return fn


class cached:
    """A value computed on its first read and kept in the instance's
    ``__dict__``, as ``functools.cached_property`` keeps it, without the
    lock that Python 3.10 and 3.11 take on each first read."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Node:
    """A mutable, unhashable node or record."""

    __slots__ = ()
    _hidden = frozenset({"span"})
    _defaults = {}      # trailing defaults other than span's

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = tuple(f for c in reversed(cls.__mro__)
                      for f in c.__dict__.get("__slots__", ())
                      if f != "__dict__")
        fields = tuple(f for f in slots if f not in cls._hidden)
        cls._fields = fields
        frozen = cls.__hash__ is not None
        own = cls.__dict__
        # a kind that adds no slot or default keeps the one it inherits
        if "__init__" not in own and (own.get("__slots__")
                                      or "_defaults" in own):
            cls.__init__ = _init(cls, slots, frozen)
        n = len(fields)
        rename = dict(zip(_PLACEHOLDERS, fields))
        cls.__eq__ = _own(_EQ[n], "__eq__", cls, rename) if n < len(_EQ) \
            else _eq_many
        if frozen:
            if n >= len(_HASH):
                raise TypeError(f"{cls.__name__}: a frozen kind has at most "
                                f"{len(_HASH) - 1} compared fields")
            cls.__hash__ = _own(_HASH[n], "__hash__", cls, rename)

    __eq__ = _eq_many
    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class Frozen(Node):
    """An immutable, hashable node."""

    __slots__ = ()
    __hash__ = _hash0       # not None: each kind gets its own, as for __eq__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
