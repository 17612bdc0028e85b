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
* A callee's cases are those of ``types.core_cases``, elaborated at the
  instantiation's layouts (or rejected with the elaborator's diagnostic),
  as in the core translation.  A body is evaluated under a renaming of its
  pattern variables to the store variables of the fields; it is not
  rebuilt.  A constructor's
  cells come from its layout shape (``LayoutDef.shapes``) and are written
  as they are: ``types.build_global_env`` has checked that each branch
  writes distinct offsets of its root, each holding a field.  The tests
  check the cells against a reference heap action of the grounded layout
  body (``tests/heap_action.py``).
"""

from __future__ import annotations

from . import syntax as S
from .errors import (
    NoMatchingFnCase, NotAConstructorValue, UnboundVariable, UngroundedHeaplet,
    UnsupportedConstruct,
)
from .node import Frozen, Node
from .types import GlobalEnv, adt_layout, core_cases


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class IntVal(Frozen):
    __slots__ = ("value",)

    def __str__(self): return str(self.value)


class BoolVal(Frozen):
    __slots__ = ("value",)

    def __str__(self): return "true" if self.value else "false"


class LocVal(Frozen):
    __slots__ = ("loc",)

    def __str__(self): return f"<{self.loc}>"


Val = (IntVal, BoolVal, LocVal)


class ConstructorVal(Frozen):
    __slots__ = ("name", "fields")

    def __str__(self):
        if not self.fields:
            return self.name
        parts = [f"({f})" if isinstance(f, ConstructorVal) else str(f)
                 for f in self.fields]
        return " ".join([self.name] + parts)


FsVal = (IntVal, BoolVal, LocVal, ConstructorVal)


class Model(Node):
    """A concrete machine state: variable store plus heap."""
    __slots__ = ("store", "heap")

    def render(self) -> str:
        store_lines = [f"  {k} = {v}" for k, v in sorted(self.store.items())]
        heap_lines = [f"  {loc} -> {val}"
                      for loc, val in sorted(self.heap.items())]
        out = ["store:"] + (store_lines or ["  (empty)"])
        out += ["heap:"] + (heap_lines or ["  (empty)"])
        return "\n".join(out)


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
        body's pattern variables to the store variables of the fields.  It
        dispatches on the exact class: the IR's kinds have no subclasses."""
        cls = e.__class__
        if cls is S.Lower:
            return self._eval_lower(e, ren)
        if cls is S.Var:
            name = ren.get(e.name, e.name)
            if name not in self.store:
                raise UnboundVariable(f"unbound variable {name}", e.span,
                                      rule="T-VAR")
            val = self.store[name]
            if val.__class__ is LocVal:
                if val.loc not in self.fs:
                    raise NotAConstructorValue(
                        f"location {val.loc} holds no constructor value", e.span)
                return self.fs[val.loc], name
            return val, name
        if cls is S.IntLit:
            r = self.fresh_var()
            val = self.store[r] = IntVal(e.value)
            return val, r
        if cls is S.Instantiate:
            return self._eval_instantiate(e, ren)
        if cls is S.BinOp:
            if e.op != "+":
                raise UnsupportedConstruct(
                    f"operator {e.op!r} is outside the machine subset", e.span)
            lv, _ = self._eval(e.lhs, ren)
            rv, _ = self._eval(e.rhs, ren)
            if lv.__class__ is not IntVal or rv.__class__ is not IntVal:
                raise NotAConstructorValue("addition of non-integers", e.span)
            r = self.fresh_var()
            out = IntVal(lv.value + rv.value)
            self.store[r] = out
            return out, r
        if cls is S.BoolLit:
            r = self.fresh_var()
            val = self.store[r] = BoolVal(e.value)
            return val, r
        raise UnsupportedConstruct(
            f"{type(e).__name__} is outside the machine subset",
            getattr(e, "span", None))

    def _eval_lower(self, e: S.Lower, ren: dict):
        layout = adt_layout(self.env, e.layout, e.span).layout
        arg = e.arg
        if arg.__class__ is S.ConstructorApp:
            return self._build(layout, arg, ren)
        # resident value: evaluating yields its constructor value; no copy
        val, var = self._eval(arg, ren)
        if val.__class__ is not ConstructorVal:
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
            field_vals.append(self.store[var] if fv.__class__ is ConstructorVal
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
        for off, payload in shape.cells:
            self.heap[base + off] = values[payload]
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
        arg_layout = adt_layout(self.env, e.arg_layouts[0], e.span)
        arg = e.args[0]
        if arg.__class__ is S.Lower and arg.arg.__class__ is S.ConstructorApp:
            arg = arg.arg
        if arg.__class__ is S.ConstructorApp:
            ctor_name = arg.name
            field_vals, field_fs = self._fields(arg.args, ren)
        else:
            val, var = self._eval(arg, ren)
            if val.__class__ is not ConstructorVal:
                raise NotAConstructorValue(
                    "instantiated argument is not a constructor value", e.span)
            ctor_name = val.name
            loc = self.store[var]
            if loc.__class__ is not LocVal:
                raise NotAConstructorValue(
                    "instantiated argument is not resident", e.span)
            shape = arg_layout.layout.shapes.get(ctor_name)
            if shape is None:
                raise NoMatchingFnCase(
                    f"layout {arg_layout.layout.name} has no branch for "
                    f"{ctor_name}", e.span)
            field_vals = []
            field_fs = list(val.fields)
            for v in shape.pattern.vars:
                if v not in shape.offsets:
                    raise UngroundedHeaplet(
                        f"field {v} of {ctor_name} has no cell in layout "
                        f"{arg_layout.layout.name}")
                cell = loc.loc + shape.offsets[v]
                if cell not in self.heap:
                    raise UngroundedHeaplet(f"missing cell {cell} on the heap")
                field_vals.append(self.heap[cell])

        case = core_cases(self.env, e.fn, e.arg_layouts[0], e.result_layout,
                          e.span).get(ctor_name)
        if case is None:
            raise NoMatchingFnCase(
                f"{e.fn} has no case for constructor {ctor_name}", e.span)
        pat_vars, body = case
        if len(pat_vars) != len(field_vals):
            raise NoMatchingFnCase(
                f"pattern arity mismatch in {e.fn} for {ctor_name}", e.span)
        sub = {}
        for v, val_, fsv in zip(pat_vars, field_vals, field_fs):
            y = self.fresh_var()
            self.store[y] = val_
            if val_.__class__ is LocVal and fsv.__class__ is ConstructorVal:
                self.fs.setdefault(val_.loc, fsv)
            sub[v] = y
        return self._eval(body, sub)


def eval_expr(env: GlobalEnv, e: S.Expr, store=None, heap=None, fs=None):
    """Evaluate ``e`` from the given state; returns
    ``(value, store', heap', fs', result variable)``."""
    m = Machine(env, store, heap, fs)
    val, var = m.eval(e)
    return val, m.store, m.heap, m.fs, var
