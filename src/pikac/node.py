"""The base of every IR's node and record classes.

A kind lists its fields in ``__slots__`` and writes its own ``__init__``.
Two instances are equal when they are of the same class and their compared
fields are equal.  The fields a kind names in ``_hidden``, by default
``span`` (a source position) and ``__dict__`` (room for cached properties),
are not compared, hashed or shown.  ``repr`` reads ``Kind(field=value, ...)``.

``Node`` kinds are mutable and unhashable.  ``Frozen`` kinds reject
assignment and deletion, store their fields in ``__init__`` through
``object.__setattr__``, and hash the tuple of their compared fields.

Each kind gets its own copy of the equality and hash code, with the
templates' placeholder attributes ``f0``, ``f1``, ... renamed to its fields
by ``CodeType.replace``; nothing is compiled at import.  A method shared by
all kinds would be one attribute-load site for the specialising
interpreter, which then misses whenever kinds alternate, as they do in
nested terms: that compared and hashed nested terms about 2x slower.
"""

from __future__ import annotations

from types import FunctionType


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


def _own(template, name: str, cls: type, fields: tuple):
    """A copy of ``template`` for ``cls``, reading ``fields`` in place of
    the placeholders."""
    code = template.__code__
    rename = dict(zip(_PLACEHOLDERS, fields))
    names = tuple(rename.get(n, n) for n in code.co_names)
    fn = FunctionType(code.replace(co_names=names), template.__globals__,
                      name)
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


class Node:
    """A mutable, unhashable node or record."""

    __slots__ = ()
    _hidden = frozenset({"span", "__dict__"})

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(f for c in reversed(cls.__mro__)
                       for f in c.__dict__.get("__slots__", ())
                       if f not in cls._hidden)
        cls._fields = fields
        n = len(fields)
        cls.__eq__ = _own(_EQ[n], "__eq__", cls, fields) if n < len(_EQ) \
            else _eq_many
        if cls.__hash__ is not None:
            if n >= len(_HASH):
                raise TypeError(f"{cls.__name__}: a frozen kind has at most "
                                f"{len(_HASH) - 1} compared fields")
            cls.__hash__ = _own(_HASH[n], "__hash__", cls, fields)

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
