"""The reference heap action of a grounded layout body: what writing a
constructor's cells must do, stated without the machine.  The machine's
constructor writes are checked against it."""

from pikac.errors import PikaError, UngroundedHeaplet
from pikac.interp import Val
from pikac.node import Frozen


class HeapOverlap(PikaError):
    """A layout body writes a cell that is already on the heap."""


class GroundEmp(Frozen):
    __slots__ = ()


class GroundPointsTo(Frozen):
    __slots__ = ("loc", "value")


class GroundApply(Frozen):
    __slots__ = ("layout", "arg")


def act_on_heap(heap: dict, items) -> dict:
    """Extend a heap with the grounded layout body ``items``.

    Points-to items write their cell; layout applications whose argument
    is already a value are skipped; writing an occupied cell is an error.
    """
    out = dict(heap)
    for item in items:
        if isinstance(item, GroundEmp):
            continue
        if isinstance(item, GroundPointsTo):
            if not isinstance(item.value, Val):
                raise UngroundedHeaplet(
                    f"points-to payload {item.value!r} is not a value")
            if item.loc in out:
                raise HeapOverlap(f"cell {item.loc} written twice")
            out[item.loc] = item.value
            continue
        if isinstance(item, GroundApply):
            if not isinstance(item.arg, Val):
                raise UngroundedHeaplet(
                    f"layout application argument {item.arg!r} is not a value")
            continue
        raise UngroundedHeaplet(f"unknown layout body item {item!r}")
    return out
