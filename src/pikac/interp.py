"""Big-step abstract machine for the restricted language subset.

The machine evaluates integer/boolean arithmetic, variables, constructor
lowering, and single-argument function instantiation over a concrete
(store, heap) model plus a location-to-value table that recovers
structured values from locations.

Design notes, fixed here because the rules leave them open:

* Locations are positive integers; allocation is a monotone counter
  advanced by the lowered branch's cell count, so blocks never collide.
* Lowering an empty-branch constructor still allocates a fresh location
  (which then owns no cells); the null encoding used by emitted
  predicates is deliberately *not* used by the machine.
* Instantiation never materialises its argument: a constructor-application
  argument has its fields evaluated and bound directly, and a resident
  argument (variable or nested instantiation) is destructured by reading
  its cells through the layout.  Lowering a value already resident at the
  same layout is a no-op.  These choices keep every heap cell described
  exactly once by the symbolic translation, which the soundness harness
  checks.
* A callee body is evaluated under a renaming of its pattern variables to
  the store variables of the fields; it is not rebuilt.  A constructor's
  cells come from its layout shape (``LayoutDef.shapes``) and are written
  after one overlap check; ``act_on_heap`` states the same heap action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import syntax as S
from .errors import (
    HeapOverlap, NoMatchingFnCase, NotAConstructorValue, UnboundVariable,
    UngroundedHeaplet, UnsupportedConstruct,
)
from .types import GlobalEnv, ResolvedLayout, resolve_layout_ref


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntVal:
    value: int

    def __str__(self): return str(self.value)


@dataclass(frozen=True)
class BoolVal:
    value: bool

    def __str__(self): return "true" if self.value else "false"


@dataclass(frozen=True)
class LocVal:
    loc: int

    def __str__(self): return f"<{self.loc}>"


Val = Union[IntVal, BoolVal, LocVal]


@dataclass(frozen=True)
class ConstructorVal:
    name: str
    fields: tuple

    def __str__(self):
        if not self.fields:
            return self.name
        parts = []
        for f in self.fields:
            s = str(f)
            if isinstance(f, ConstructorVal) and f.fields:
                s = f"({s})"
            elif isinstance(f, ConstructorVal):
                s = f"({s})"
            parts.append(s)
        return " ".join([self.name] + parts)


FsVal = Union[IntVal, BoolVal, LocVal, ConstructorVal]


@dataclass
class Model:
    """A concrete machine state: variable store plus heap."""
    store: dict
    heap: dict

    def render(self) -> str:
        store_lines = [f"  {k} = {v}" for k, v in sorted(self.store.items())]
        heap_lines = [f"  {loc} -> {val}"
                      for loc, val in sorted(self.heap.items())]
        out = ["store:"] + (store_lines or ["  (empty)"])
        out += ["heap:"] + (heap_lines or ["  (empty)"])
        return "\n".join(out)


# ---------------------------------------------------------------------------
# Layout bodies acting on heaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundEmp:
    pass


@dataclass(frozen=True)
class GroundPointsTo:
    loc: int
    value: Val


@dataclass(frozen=True)
class GroundApply:
    layout: str
    arg: Val


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
            if not isinstance(item.value, (IntVal, BoolVal, LocVal)):
                raise UngroundedHeaplet(
                    f"points-to payload {item.value!r} is not a value")
            if item.loc in out:
                raise HeapOverlap(f"cell {item.loc} written twice")
            out[item.loc] = item.value
            continue
        if isinstance(item, GroundApply):
            if not isinstance(item.arg, (IntVal, BoolVal, LocVal)):
                raise UngroundedHeaplet(
                    f"layout application argument {item.arg!r} is not a value")
            continue
        raise UngroundedHeaplet(f"unknown layout body item {item!r}")
    return out


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

class Machine:
    def __init__(self, env: GlobalEnv, store=None, heap=None, fs=None):
        self.env = env
        self.store: dict = dict(store or {})
        self.heap: dict = dict(heap or {})
        self.fs: dict = dict(fs or {})
        locs = [0]
        locs += [v.loc for v in self.store.values() if isinstance(v, LocVal)]
        locs += list(self.heap.keys())
        locs += [v.loc for v in self.heap.values() if isinstance(v, LocVal)]
        locs += list(self.fs.keys())
        self._next_loc = max(locs) + 1
        self._next_var = 1

    def fresh_var(self) -> str:
        while True:
            name = f"r{self._next_var}"
            self._next_var += 1
            if name not in self.store:
                return name

    def alloc(self, cells: int) -> int:
        base = self._next_loc
        self._next_loc += max(1, cells)
        return base

    # -- evaluation --

    def eval(self, e: S.Expr):
        """Evaluate, returning (value, result variable)."""
        return self._eval(e, {})

    def _eval(self, e: S.Expr, ren: dict):
        """``eval`` reading each variable through ``ren``, which maps a callee
        body's pattern variables to the store variables of the fields."""
        if isinstance(e, S.IntLit):
            r = self.fresh_var()
            self.store[r] = IntVal(e.value)
            return IntVal(e.value), r
        if isinstance(e, S.BoolLit):
            r = self.fresh_var()
            self.store[r] = BoolVal(e.value)
            return BoolVal(e.value), r
        if isinstance(e, S.Var):
            name = ren.get(e.name, e.name)
            if name not in self.store:
                raise UnboundVariable(f"unbound variable {name}", e.span,
                                      rule="T-VAR")
            val = self.store[name]
            if isinstance(val, LocVal):
                if val.loc not in self.fs:
                    raise NotAConstructorValue(
                        f"location {val.loc} holds no constructor value", e.span)
                return self.fs[val.loc], name
            return val, name
        if isinstance(e, S.BinOp):
            if e.op != "+":
                raise UnsupportedConstruct(
                    f"operator {e.op!r} is outside the machine subset", e.span)
            lv, _ = self._eval(e.lhs, ren)
            rv, _ = self._eval(e.rhs, ren)
            if not isinstance(lv, IntVal) or not isinstance(rv, IntVal):
                raise NotAConstructorValue("addition of non-integers", e.span)
            r = self.fresh_var()
            out = IntVal(lv.value + rv.value)
            self.store[r] = out
            return out, r
        if isinstance(e, S.Lower):
            return self._eval_lower(e, ren)
        if isinstance(e, S.Instantiate):
            return self._eval_instantiate(e, ren)
        raise UnsupportedConstruct(
            f"{type(e).__name__} is outside the machine subset",
            getattr(e, "span", None))

    def _layout(self, ref: S.LayoutRef, span=None) -> ResolvedLayout:
        resolved = resolve_layout_ref(self.env, ref, span)
        if not resolved.is_adt:
            raise UnsupportedConstruct("base-type layouts cannot be lowered",
                                       span)
        return resolved

    def _eval_lower(self, e: S.Lower, ren: dict):
        resolved = self._layout(e.layout, e.span)
        layout = resolved.layout
        arg = e.arg
        if isinstance(arg, S.ConstructorApp):
            return self._build(layout, arg, ren)
        # resident value: evaluating yields its constructor value; no copy
        val, var = self._eval(arg, ren)
        if not isinstance(val, ConstructorVal):
            raise NotAConstructorValue(
                "lowered expression did not produce a constructor value",
                e.span)
        return val, var

    def _fields(self, args, ren: dict):
        """The store values of constructor arguments (a constructor value
        stands for its location) and their values."""
        field_vals: list[Val] = []
        field_fs: list[FsVal] = []
        for sub in args:
            fv, var = self._eval(sub, ren)
            field_fs.append(fv)
            field_vals.append(self.store[var] if isinstance(fv, ConstructorVal)
                              else fv)
        return field_vals, field_fs

    def _build(self, layout: S.LayoutDef, ctor: S.ConstructorApp, ren: dict):
        shape = layout.shapes.get(ctor.name)
        if shape is None:
            raise NoMatchingFnCase(
                f"layout {layout.name} has no branch for {ctor.name}",
                ctor.span)
        field_vals, field_fs = self._fields(ctor.args, ren)
        values = dict(zip(shape.pattern.vars, field_vals))
        base = self.alloc(shape.size)
        if shape.error is not None:
            raise UngroundedHeaplet(*shape.error)
        cells = {}
        for off, payload in shape.cells:
            if payload not in values:
                raise UngroundedHeaplet(f"layout {layout.name} references "
                                        f"{payload} with no value")
            val = values[payload]
            if not isinstance(val, (IntVal, BoolVal, LocVal)):
                raise UngroundedHeaplet(
                    f"points-to payload {val!r} is not a value")
            loc = base + off
            if loc in cells or loc in self.heap:
                raise HeapOverlap(f"cell {loc} written twice")
            cells[loc] = val
        self.heap.update(cells)
        out = ConstructorVal(ctor.name, tuple(field_fs))
        self.fs[base] = out
        r = self.fresh_var()
        self.store[r] = LocVal(base)
        return out, r

    def _eval_instantiate(self, e: S.Instantiate, ren: dict):
        if len(e.args) != 1 or len(e.arg_layouts) != 1:
            raise UnsupportedConstruct(
                "the machine subset instantiates single-argument functions",
                e.span)
        arg_layout = self._layout(e.arg_layouts[0], e.span)
        cases = self.env.fn_defs.get(e.fn)
        if not cases:
            raise UnboundVariable(f"unknown function {e.fn}", e.span,
                                  rule="T-FN-GLOBAL")

        arg = e.args[0]
        if isinstance(arg, S.Lower) and isinstance(arg.arg, S.ConstructorApp):
            arg = arg.arg
        if isinstance(arg, S.ConstructorApp):
            ctor_name = arg.name
            field_vals, field_fs = self._fields(arg.args, ren)
        else:
            val, var = self._eval(arg, ren)
            if not isinstance(val, ConstructorVal):
                raise NotAConstructorValue(
                    "instantiated argument is not a constructor value", e.span)
            ctor_name = val.name
            loc = self.store[var]
            if not isinstance(loc, LocVal):
                raise NotAConstructorValue(
                    "instantiated argument is not resident", e.span)
            shape = arg_layout.layout.shapes.get(ctor_name)
            if shape is None:
                raise NoMatchingFnCase(
                    f"layout {arg_layout.layout.name} has no branch for "
                    f"{ctor_name}", e.span)
            offsets = {payload: off for off, payload in shape.cells}
            field_vals = []
            field_fs = list(val.fields)
            for v in shape.pattern.vars:
                if v not in offsets:
                    raise UngroundedHeaplet(
                        f"field {v} of {ctor_name} has no cell in layout "
                        f"{arg_layout.layout.name}")
                cell = loc.loc + offsets[v]
                if cell not in self.heap:
                    raise UngroundedHeaplet(f"missing cell {cell} on the heap")
                field_vals.append(self.heap[cell])

        case = None
        for c in cases:
            if len(c.patterns) == 1 and c.patterns[0].ctor == ctor_name:
                case = c
                break
        if case is None:
            raise NoMatchingFnCase(
                f"{e.fn} has no case for constructor {ctor_name}", e.span)
        if len(case.guarded_bodies) != 1 or case.guarded_bodies[0][0] is not None:
            raise UnsupportedConstruct(
                f"{e.fn} uses guards, outside the machine subset", e.span)
        pat_vars = case.patterns[0].vars
        if len(pat_vars) != len(field_vals):
            raise NoMatchingFnCase(
                f"pattern arity mismatch in {e.fn} for {ctor_name}", e.span)
        sub = {}
        for v, val_, fsv in zip(pat_vars, field_vals, field_fs):
            y = self.fresh_var()
            self.store[y] = val_
            if isinstance(val_, LocVal) and isinstance(fsv, ConstructorVal):
                self.fs.setdefault(val_.loc, fsv)
            sub[v] = y
        body = case.guarded_bodies[0][1]
        if isinstance(body, S.ConstructorApp):
            body = S.Lower(e.result_layout, body)
        return self._eval(body, sub)


def eval_expr(env: GlobalEnv, e: S.Expr, store=None, heap=None, fs=None):
    """Evaluate ``e`` from the given state; returns
    ``(value, store', heap', fs', result variable)``."""
    m = Machine(env, store, heap, fs)
    val, var = m.eval(e)
    return val, m.store, m.heap, m.fs, var
