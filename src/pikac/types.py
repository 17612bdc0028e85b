"""Type checking and elaboration.

Two layers live here.  ``infer_expr`` is the strict checker: it assigns
each expression a unique type under the declared rules (literals, globals,
arithmetic, lowering, instantiation, constructor application) and a
concreteness judgment that decides whether a value can be represented on
the heap machine (base types always; ADTs only once a layout is fixed).

``elaborate`` is the first compilation stage: it rewrites each function
under its ``%generate`` directive so that every call is an explicit
``instantiate`` (recursive calls receive the enclosing directive's
instantiation), every ADT-valued result or constructor is wrapped in
``lower`` at the appropriate layout, and deterministic machine names are
attached to parameters and results.  Elaborated code re-checks under the
strict rules.
"""

from __future__ import annotations

from typing import Optional

from . import syntax as S
from .errors import (
    ArityMismatch, DuplicateName, LayoutAdtMismatch, MissingGenerateDirective,
    NotConcrete, PikaError, TypeMismatch, UnboundVariable, UnknownAdtInLayout,
)
from .node import Frozen, Node


class LayoutType(Frozen):
    """The concrete type of a value resident at a named layout."""
    __slots__ = ("name",)

    def __str__(self):
        return self.name


Type = (S.TInt, S.TBool, S.TPtrInt, S.TName, S.TFn, LayoutType)


def uncurry(ty: S.TypeExpr) -> tuple[list, S.TypeExpr]:
    params = []
    while isinstance(ty, S.TFn):
        params.append(ty.arg)
        ty = ty.res
    return params, ty


# ---------------------------------------------------------------------------
# Global environment
# ---------------------------------------------------------------------------

class GlobalEnv(Node):
    # ``resolved`` maps a layout reference to its ResolvedLayout, filled by
    # resolve_layout_ref; ``__dict__`` holds other per-environment caches
    __slots__ = ("adts", "ctors", "layouts", "fn_sigs", "fn_defs",
                 "directives", "resolved", "__dict__")
    _hidden = Node._hidden | {"resolved"}

    def __init__(self, adts: dict, ctors: dict, layouts: dict, fn_sigs: dict,
                 fn_defs: dict, directives: dict):
        self.adts = adts
        self.ctors = ctors              # name -> (field types, adt name)
        self.layouts = layouts          # name -> LayoutDef
        self.fn_sigs = fn_sigs
        self.fn_defs = fn_defs
        self.directives = directives    # fn name -> GenerateDirective
        self.resolved = {}


def build_global_env(unit: S.SourceUnit) -> GlobalEnv:
    """Collect constructor, layout, and signature tables; reject ill-formed
    or duplicated global definitions."""
    adts: dict[str, S.DataDef] = {}
    ctors: dict[str, tuple] = {}
    for dd in unit.data_defs:
        if dd.name in adts:
            raise DuplicateName(f"duplicate data definition {dd.name}", dd.span)
        adts[dd.name] = dd
        for ctor, tys in dd.alts:
            if ctor in ctors:
                raise DuplicateName(f"duplicate constructor {ctor}", dd.span)
            ctors[ctor] = (tys, dd.name)

    layouts: dict[str, S.LayoutDef] = {}
    for ld in unit.layout_defs:
        if ld.name in layouts or ld.name in adts:
            raise DuplicateName(f"duplicate layout definition {ld.name}", ld.span)
        if ld.adt not in adts:
            raise UnknownAdtInLayout(
                f"layout {ld.name} is for undeclared type {ld.adt}", ld.span)
        if not ld.ssl_params:
            raise UnknownAdtInLayout(f"layout {ld.name} has no parameters", ld.span)
        seen_ctors = set()
        for pat, heaplets in ld.branches:
            if pat.ctor is None or pat.ctor not in ctors:
                raise UnknownAdtInLayout(
                    f"layout {ld.name} matches unknown constructor", pat.span)
            if ctors[pat.ctor][1] != ld.adt:
                raise UnknownAdtInLayout(
                    f"constructor {pat.ctor} does not belong to {ld.adt}", pat.span)
            if pat.ctor in seen_ctors:
                raise DuplicateName(
                    f"layout {ld.name} has two branches for {pat.ctor}", pat.span)
            seen_ctors.add(pat.ctor)
            if len(pat.vars) != len(ctors[pat.ctor][0]):
                raise ArityMismatch(
                    f"pattern arity mismatch for {pat.ctor} in layout {ld.name}",
                    pat.span)
            if len(set(pat.vars)) != len(pat.vars):
                raise DuplicateName(
                    f"repeated pattern variable in layout {ld.name}", pat.span)
            allowed = set(pat.vars) | set(ld.ssl_params)
            for h in heaplets:
                if isinstance(h, S.HPointsTo):
                    if h.offset < 0:
                        raise UnknownAdtInLayout("negative offset", h.span)
                    if h.base not in allowed or h.payload not in allowed:
                        raise UnknownAdtInLayout(
                            f"layout {ld.name} references unknown variable", h.span)
                elif isinstance(h, S.HApply):
                    if h.layout not in {l.name for l in unit.layout_defs} \
                            and h.layout != ld.name:
                        raise UnknownAdtInLayout(
                            f"unknown layout {h.layout} applied in {ld.name}", h.span)
                    if h.arg not in allowed:
                        raise UnknownAdtInLayout(
                            f"layout {ld.name} references unknown variable", h.span)
        layouts[ld.name] = ld

    fn_sigs = dict(unit.fn_sigs)
    directives: dict[str, S.GenerateDirective] = {}
    for d in unit.directives:
        if d.fn not in unit.fn_defs:
            raise UnboundVariable(f"%generate names undefined function {d.fn}",
                                  d.span)
        directives[d.fn] = d
    for name in unit.fn_defs:
        if name not in fn_sigs:
            raise UnboundVariable(f"function {name} has no type signature")
    return GlobalEnv(adts, ctors, layouts, fn_sigs, dict(unit.fn_defs), directives)


# ---------------------------------------------------------------------------
# Resolved layouts
# ---------------------------------------------------------------------------

class ResolvedLayout(Frozen):
    """A layout reference resolved against the environment.

    kind is one of 'int', 'bool', 'ptr', 'adt'; for 'adt' the layout
    definition and access mode are carried along.
    """
    __slots__ = ("kind", "layout", "mode")
    _defaults = {"layout": None, "mode": "readonly"}

    @property
    def sort(self) -> str:
        return "int" if self.kind in ("int", "bool") else "loc"

    @property
    def is_adt(self) -> bool:
        return self.kind == "adt"

    def tag(self, result: bool = False) -> str:
        if self.kind == "int":
            return "Int"
        if self.kind == "bool":
            return "Bool"
        if self.kind == "ptr":
            return "Ptr_Int"
        prefix = "rw" if (result or self.mode == "mutable") else "ro"
        return f"{prefix}_{self.layout.name}"

    def type(self) -> Type:
        if self.kind == "int":
            return S.TInt()
        if self.kind == "bool":
            return S.TBool()
        if self.kind == "ptr":
            return S.TPtrInt()
        return LayoutType(self.layout.name)


def resolve_layout_ref(env: GlobalEnv, ref: S.LayoutRef,
                       span=None) -> ResolvedLayout:
    """The layout ``ref`` names; remembered per environment, since its
    layouts do not change once it is built."""
    resolved = env.resolved.get(ref)
    if resolved is None:
        resolved = env.resolved[ref] = _resolve_layout_ref(env, ref, span)
    return resolved


def _resolve_layout_ref(env: GlobalEnv, ref: S.LayoutRef,
                        span=None) -> ResolvedLayout:
    if isinstance(ref, S.IntLayout):
        return ResolvedLayout("int")
    if isinstance(ref, S.BoolLayout):
        return ResolvedLayout("bool")
    if isinstance(ref, S.PtrIntLayout):
        return ResolvedLayout("ptr")
    if isinstance(ref, S.NamedLayout):
        if ref.name == "Int":
            return ResolvedLayout("int")
        if ref.name == "Bool":
            return ResolvedLayout("bool")
        layout = env.layouts.get(ref.name)
        if layout is None:
            raise UnboundVariable(f"unknown layout {ref.name}", span,
                                  rule="T-INSTANTIATE")
        return ResolvedLayout("adt", layout, ref.mode)
    raise LayoutAdtMismatch(f"function layout used as a value layout", span,
                            rule="T-INSTANTIATE")


def layout_for_type(env: GlobalEnv, ty: S.TypeExpr,
                    ref: S.LayoutRef, span=None) -> ResolvedLayout:
    """Resolve ``ref`` and check it against the declared type ``ty``."""
    if isinstance(ref, S.FnLayout):
        raise LayoutAdtMismatch("unexpected function layout", span,
                                rule="T-INSTANTIATE")
    resolved = resolve_layout_ref(env, ref, span)
    if resolved.kind == "int" and isinstance(ty, S.TInt):
        return resolved
    if resolved.kind == "bool" and isinstance(ty, S.TBool):
        return resolved
    if resolved.kind == "ptr" and isinstance(ty, (S.TPtrInt, S.TInt)):
        return resolved
    if resolved.is_adt and isinstance(ty, S.TName) \
            and resolved.layout.adt == ty.name:
        return resolved
    raise LayoutAdtMismatch(
        f"layout {S.render_layout_ref(ref)} does not fit type {ty}", span,
        rule="T-INSTANTIATE")


# ---------------------------------------------------------------------------
# The strict checker
# ---------------------------------------------------------------------------

# operand type, result type and the rule an operand mismatch names, of each
# binary operator, keyed like syntax._PREC
OPERATOR_TYPES = {
    "+": (S.TInt(), S.TInt(), "T-ADD"), "-": (S.TInt(), S.TInt(), "T-SUB"),
    "%": (S.TInt(), S.TInt(), "T-MOD"),
    "<": (S.TInt(), S.TBool(), "T-LT"), "==": (S.TInt(), S.TBool(), "T-EQ"),
    "&&": (S.TBool(), S.TBool(), "T-AND"), "||": (S.TBool(), S.TBool(), "T-OR"),
}


def infer_expr(env: GlobalEnv, gamma: dict, e: S.Expr) -> Type:
    """Assign a type under the strict rules, or raise a diagnostic."""
    cls = e.__class__
    if cls is S.IntLit:
        return S.TInt()
    if cls is S.BoolLit:
        return S.TBool()
    if cls is S.Var:
        if e.name in gamma:
            return gamma[e.name]
        if e.name in env.fn_sigs:
            return env.fn_sigs[e.name]
        raise UnboundVariable(f"unbound variable {e.name}", e.span, rule="T-VAR")
    if cls is S.Addr:
        inner = infer_expr(env, gamma, S.Var(e.var, span=e.span))
        if not isinstance(inner, S.TInt):
            raise TypeMismatch("Int", str(inner), e.span, rule="T-ADDR")
        return S.TPtrInt()
    if cls is S.Not:
        ty = infer_expr(env, gamma, e.arg)
        if not isinstance(ty, S.TBool):
            raise TypeMismatch("Bool", str(ty), e.span, rule="T-NOT")
        return S.TBool()
    if cls is S.BinOp:
        lt = infer_expr(env, gamma, e.lhs)
        rt = infer_expr(env, gamma, e.rhs)
        operand, result, rule = OPERATOR_TYPES[e.op]
        for t in (lt, rt):
            if t != operand:
                raise TypeMismatch(str(operand), str(t), e.span, rule=rule)
        return result
    if cls is S.IfThenElse:
        ct = infer_expr(env, gamma, e.cond)
        if not isinstance(ct, S.TBool):
            raise TypeMismatch("Bool", str(ct), e.span, rule="T-IF")
        tt = infer_expr(env, gamma, e.then)
        et = infer_expr(env, gamma, e.els)
        if tt != et:
            raise TypeMismatch(str(tt), str(et), e.span, rule="T-IF")
        return tt
    if cls is S.Let:
        bt = infer_expr(env, gamma, e.bound)
        inner = dict(gamma)
        inner[e.name] = bt
        return infer_expr(env, inner, e.body)
    if cls is S.ConstructorApp:
        if e.name not in env.ctors:
            raise UnboundVariable(f"unknown constructor {e.name}", e.span,
                                  rule="T-CONSTR")
        field_tys, adt = env.ctors[e.name]
        if len(e.args) != len(field_tys):
            raise ArityMismatch(
                f"constructor {e.name} expects {len(field_tys)} arguments, "
                f"got {len(e.args)}", e.span, rule="T-CONSTR")
        for arg, fty in zip(e.args, field_tys):
            at = infer_expr(env, gamma, arg)
            if isinstance(fty, S.TName):
                if isinstance(at, S.TName) and at.name == fty.name:
                    continue
                if isinstance(at, LayoutType) \
                        and env.layouts[at.name].adt == fty.name:
                    continue
                raise TypeMismatch(str(fty), str(at), e.span, rule="T-CONSTR")
            if at != fty:
                raise TypeMismatch(str(fty), str(at), e.span, rule="T-CONSTR")
        return S.TName(adt)
    if cls is S.Lower:
        resolved = resolve_layout_ref(env, e.layout, e.span)
        if not resolved.is_adt:
            ty = infer_expr(env, gamma, e.arg)
            if resolved.kind == "ptr":
                if not isinstance(ty, (S.TInt, S.TPtrInt)):
                    raise TypeMismatch("Int", str(ty), e.span, rule="T-LOWER-VAR")
                return S.TPtrInt()
            if ty != resolved.type():
                raise TypeMismatch(str(resolved.type()), str(ty), e.span,
                                   rule="T-LOWER-VAR")
            return resolved.type()
        layout = resolved.layout
        if isinstance(e.arg, S.ConstructorApp):
            ctor = e.arg
            if ctor.name not in env.ctors:
                raise UnboundVariable(f"unknown constructor {ctor.name}",
                                      e.span, rule="T-CONSTR")
            field_tys, adt = env.ctors[ctor.name]
            if adt != layout.adt:
                raise LayoutAdtMismatch(
                    f"layout {layout.name} is for {layout.adt}, "
                    f"constructor {ctor.name} builds {adt}", e.span,
                    rule="T-LOWER-CONSTR")
            if len(ctor.args) != len(field_tys):
                raise ArityMismatch(
                    f"constructor {ctor.name} expects {len(field_tys)} "
                    f"arguments, got {len(ctor.args)}", e.span, rule="T-CONSTR")
            for arg, fty in zip(ctor.args, field_tys):
                if not check_concrete(env, gamma, arg, fty):
                    raise NotConcrete(
                        f"argument of {ctor.name} is not concrete at type {fty}",
                        e.span, rule="T-LOWER-CONSTR")
            return LayoutType(layout.name)
        inner = infer_expr(env, gamma, e.arg)
        if isinstance(inner, S.TName):
            if inner.name != layout.adt:
                raise LayoutAdtMismatch(
                    f"layout {layout.name} is for {layout.adt}, value has type "
                    f"{inner.name}", e.span, rule="T-LOWER-VAR")
            return LayoutType(layout.name)
        if isinstance(inner, LayoutType):
            if inner.name != layout.name:
                raise LayoutAdtMismatch(
                    f"value already resident at layout {inner.name}", e.span,
                    rule="T-LOWER-VAR")
            return inner
        raise TypeMismatch(layout.adt, str(inner), e.span, rule="T-LOWER-VAR")
    if cls is S.Instantiate:
        return _infer_instantiate(env, gamma, e)
    if cls is S.App:
        fn_ty = infer_expr(env, gamma, S.Var(e.fn, span=e.span))
        params, result = uncurry(fn_ty)
        if len(e.args) != len(params):
            raise ArityMismatch(
                f"{e.fn} expects {len(params)} arguments, got {len(e.args)}",
                e.span, rule="T-FN-GLOBAL")
        for arg, pty in zip(e.args, params):
            at = infer_expr(env, gamma, arg)
            if isinstance(pty, S.TName) and isinstance(at, LayoutType) \
                    and env.layouts[at.name].adt == pty.name:
                continue
            if at != pty:
                raise TypeMismatch(str(pty), str(at), e.span, rule="T-FN-GLOBAL")
        return result
    raise TypeMismatch("expression", type(e).__name__, getattr(e, "span", None))


def _infer_instantiate(env: GlobalEnv, gamma: dict, e: S.Instantiate) -> Type:
    resolved_args = []
    for ref in e.arg_layouts:
        if isinstance(ref, S.FnLayout):
            resolved_args.append(ref)
        else:
            resolved_args.append(resolve_layout_ref(env, ref, e.span))
    result = resolve_layout_ref(env, e.result_layout, e.span)
    value_layouts = [r for r in resolved_args if isinstance(r, ResolvedLayout)]

    sig = None
    if e.fn in gamma and isinstance(gamma[e.fn], S.TFn):
        sig = gamma[e.fn]
    elif e.fn in env.fn_sigs:
        sig = env.fn_sigs[e.fn]
    if sig is not None:
        params, res = uncurry(sig)
        if len(params) != len(e.arg_layouts):
            raise ArityMismatch(
                f"{e.fn} expects {len(params)} arguments, "
                f"got {len(e.arg_layouts)} layouts", e.span, rule="T-INSTANTIATE")
        for pty, ref in zip(params, e.arg_layouts):
            if isinstance(ref, S.FnLayout) != isinstance(pty, S.TFn):
                raise LayoutAdtMismatch(
                    f"layout list for {e.fn} does not match its signature",
                    e.span, rule="T-INSTANTIATE")
            if not isinstance(ref, S.FnLayout):
                layout_for_type(env, pty, ref, e.span)
        if isinstance(res, S.TName):
            if not result.is_adt or result.layout.adt != res.name:
                raise LayoutAdtMismatch(
                    f"result layout does not fit result type {res}", e.span,
                    rule="T-INSTANTIATE")
        else:
            layout_for_type(env, res, e.result_layout, e.span)
    # value arguments must be concrete at their layouts
    value_args = [a for a, r in zip(e.args, resolved_args)
                  if isinstance(r, ResolvedLayout)] if sig else list(e.args)
    layouts = value_layouts if sig else resolved_args
    if len(value_args) != len(layouts):
        raise ArityMismatch(
            f"instantiate of {e.fn} applies {len(value_args)} arguments to "
            f"{len(layouts)} layouts", e.span, rule="T-INSTANTIATE")
    for arg, lay in zip(value_args, layouts):
        if isinstance(lay, S.FnLayout):
            continue
        at = infer_expr(env, gamma, arg)
        expected = lay.type()
        if isinstance(expected, S.TPtrInt) and isinstance(at, (S.TInt, S.TPtrInt)):
            continue
        if lay.is_adt:
            if isinstance(at, LayoutType) and at.name == lay.layout.name:
                continue
            raise LayoutAdtMismatch(
                f"argument of {e.fn} is not concrete at layout "
                f"{lay.layout.name} (found {at})", e.span, rule="T-INSTANTIATE")
        if at != expected:
            raise TypeMismatch(str(expected), str(at), e.span,
                               rule="T-INSTANTIATE")
    return result.type()


def check_concrete(env: GlobalEnv, gamma: dict, e: S.Expr,
                   adt: S.TypeExpr) -> bool:
    """Concreteness judgment: can this value be represented on the machine?"""
    try:
        ty = infer_expr(env, gamma, e)
    except PikaError:
        return False
    if isinstance(adt, S.TInt):
        return isinstance(ty, S.TInt)
    if isinstance(adt, S.TBool):
        return isinstance(ty, S.TBool)
    if isinstance(adt, S.TPtrInt):
        return isinstance(ty, (S.TPtrInt, S.TInt))
    if isinstance(adt, S.TName):
        return isinstance(ty, LayoutType) and env.layouts[ty.name].adt == adt.name
    return False


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

class ElabArg(Node):
    # pattern: (ctor, [source var names]) or None; offsets: pattern var ->
    # cell offset; applies: [(layout name, pattern var)]
    __slots__ = ("ssl_name", "layout", "pattern", "offsets", "applies",
                 "source_name")
    _defaults = {"source_name": None}


class ElabCase(Node):
    __slots__ = ("args", "guard", "body", "result_name", "result_layout")


class ElabFn(Node):
    # arg_layouts: [ResolvedLayout]; cases: [ElabCase]; fresh_base: the ANF
    # counter start (the arity)
    __slots__ = ("name", "directive", "arg_layouts", "result_layout", "cases",
                 "fresh_base")


class TypedProgram(Node):
    # fns: fn name -> ElabFn; specialisations: [(name, GenerateDirective)]
    # emitted extras
    __slots__ = ("env", "fns", "specialisations")


def _result_name(layout: ResolvedLayout) -> str:
    if layout.is_adt:
        return f"__r_{layout.layout.ssl_params[0]}"
    return "__r"


def _param_name(i: int, layout: ResolvedLayout) -> str:
    return f"__p_x{i}" if layout.is_adt else f"__p_{i}"


# the kinds _elab rebuilds with no expected layout: literals and operators
_OPERATOR_KINDS = frozenset((S.IntLit, S.BoolLit, S.Not, S.BinOp))


class _Elaborator:
    def __init__(self, env: GlobalEnv):
        self.env = env
        self.spec_order: list = []        # specialised functions, in order

    def elaborate_fn(self, fn: str) -> ElabFn:
        """``fn`` at its ``%generate`` directive."""
        if fn not in self.env.directives:
            raise MissingGenerateDirective(f"no %generate directive for {fn}")
        return self.elaborate_at(fn, self.env.directives[fn])

    def elaborate_at(self, fn: str,
                     directive: S.GenerateDirective) -> ElabFn:
        """``fn`` at the layouts ``directive`` names."""
        env = self.env
        sig = env.fn_sigs[fn]
        param_tys, result_ty = uncurry(sig)
        if len(param_tys) != len(directive.arg_layouts):
            raise ArityMismatch(
                f"%generate for {fn} lists {len(directive.arg_layouts)} layouts "
                f"but {fn} takes {len(param_tys)} arguments", directive.span,
                rule="T-INSTANTIATE")
        arg_layouts = [layout_for_type(env, ty, ref, directive.span)
                       for ty, ref in zip(param_tys, directive.arg_layouts)]
        if isinstance(result_ty, S.TName):
            result_layout = layout_for_type(env, result_ty,
                                            directive.result_layout,
                                            directive.span)
            result_layout = ResolvedLayout(result_layout.kind,
                                           result_layout.layout, "mutable")
        else:
            result_layout = layout_for_type(env, result_ty,
                                            directive.result_layout,
                                            directive.span)
        cases = []
        for case in env.fn_defs[fn]:
            cases.extend(self._elaborate_case(fn, directive, case, param_tys,
                                              arg_layouts, result_layout))
        return ElabFn(fn, directive, arg_layouts, result_layout, cases,
                      fresh_base=len(param_tys))

    def _elaborate_case(self, fn, directive, case: S.FnCase, param_tys,
                        arg_layouts, result_layout) -> ElabCase:
        env = self.env
        if len(case.patterns) != len(arg_layouts):
            raise ArityMismatch(
                f"case of {fn} has {len(case.patterns)} patterns, expected "
                f"{len(arg_layouts)}", case.span, rule="G-FN")
        gamma: dict[str, Type] = {}
        rename: dict[str, str] = {}
        args: list[ElabArg] = []
        for i, (pat, lay, pty) in enumerate(zip(case.patterns, arg_layouts,
                                                param_tys)):
            name = _param_name(i, lay)
            if pat.is_var:
                gamma[pat.var] = lay.type()
                rename[pat.var] = name
                args.append(ElabArg(name, lay, None, {}, [],
                                    source_name=pat.var))
            else:
                if not lay.is_adt:
                    raise TypeMismatch("ADT layout", lay.tag(), pat.span,
                                       rule="G-FN")
                layout = lay.layout
                if pat.ctor not in env.ctors:
                    raise UnboundVariable(f"unknown constructor {pat.ctor}",
                                          pat.span, rule="T-CONSTR")
                field_tys, adt = env.ctors[pat.ctor]
                if adt != layout.adt:
                    raise LayoutAdtMismatch(
                        f"pattern {pat.ctor} does not belong to {layout.adt}",
                        pat.span, rule="G-FN")
                if len(pat.vars) != len(field_tys):
                    raise ArityMismatch(
                        f"pattern arity mismatch for {pat.ctor}", pat.span,
                        rule="T-CONSTR")
                shape = layout.shapes.get(pat.ctor)
                if shape is None:
                    raise LayoutAdtMismatch(
                        f"layout {layout.name} has no branch for {pat.ctor}",
                        pat.span)
                sub = dict(zip(shape.pattern.vars, pat.vars))
                sub[layout.ssl_params[0]] = name
                offsets: dict[str, int] = {}
                applies: list[tuple] = []
                for h in shape.heaplets:
                    if isinstance(h, S.HPointsTo):
                        offsets[sub.get(h.payload, h.payload)] = h.offset
                    elif isinstance(h, S.HApply):
                        applies.append((h.layout, sub.get(h.arg, h.arg)))
                for v, fty in zip(pat.vars, field_tys):
                    gamma[v] = self._field_type(fty, v, applies)
                args.append(ElabArg(name, lay, (pat.ctor, list(pat.vars)),
                                    offsets, applies))

        elab_cases = []
        for guard, body in case.guarded_bodies:
            g2 = None
            if guard is not None:
                g2 = self._elab(guard, gamma, rename, fn, directive, None)
                gt = infer_expr(env, gamma_renamed(gamma, rename), g2)
                if not isinstance(gt, S.TBool):
                    raise TypeMismatch("Bool", str(gt), case.span,
                                       rule="T-GUARD")
            b2 = self._elab(body, gamma, rename, fn, directive,
                            result_layout if result_layout.is_adt else None,
                            at_result=True)
            bt = infer_expr(env, gamma_renamed(gamma, rename), b2)
            want = result_layout.type()
            if bt != want and not (result_layout.kind == "ptr"
                                   and isinstance(bt, S.TInt)):
                raise TypeMismatch(str(want), str(bt), body.span or case.span,
                                   rule="G-FN")
            elab_cases.append((g2, b2))
        # one ElabCase per guarded body keeps the arm list flat; no stage
        # rebinds an ElabArg's fields, so the cases share them
        return [ElabCase(list(args), g2, b2, _result_name(result_layout),
                         result_layout)
                for g2, b2 in elab_cases]

    def _field_type(self, fty: S.TypeExpr, var: str, applies) -> Type:
        if isinstance(fty, S.TName):
            for lname, v in applies:
                if v == var:
                    return LayoutType(lname)
            return S.TName(fty.name)
        return fty

    # -- expression elaboration --

    def _elab(self, e: S.Expr, gamma, rename, fn, directive,
              expected: Optional[ResolvedLayout],
              at_result: bool = False) -> S.Expr:
        env = self.env
        cls = e.__class__
        if cls is S.Var:
            name = rename.get(e.name, e.name)
            ty = gamma.get(e.name)
            if ty is None and e.name not in env.fn_sigs and name == e.name:
                raise UnboundVariable(f"unbound variable {e.name}", e.span,
                                      rule="T-VAR")
            out = S.Var(name, span=e.span)
            if expected is not None and expected.is_adt:
                if isinstance(ty, S.TName):
                    return S.Lower(S.NamedLayout(expected.layout.name,
                                                 expected.mode), out, span=e.span)
                if isinstance(ty, LayoutType):
                    if ty.name != expected.layout.name:
                        raise LayoutAdtMismatch(
                            f"{e.name} is resident at {ty.name}, expected "
                            f"{expected.layout.name}", e.span, rule="T-LOWER-VAR")
                    if at_result:
                        # a returned resident variable is re-lowered at the
                        # result layout; the copy stage keys off this wrapper
                        return S.Lower(S.NamedLayout(expected.layout.name,
                                                     expected.mode), out,
                                       span=e.span)
            return out
        if cls is S.Addr:
            return S.Addr(rename.get(e.var, e.var), span=e.span)
        if cls in _OPERATOR_KINDS:
            return S.map_expr(e, lambda x: self._elab(x, gamma, rename, fn,
                                                      directive, None))
        if cls is S.IfThenElse:
            return S.IfThenElse(
                self._elab(e.cond, gamma, rename, fn, directive, None),
                self._elab(e.then, gamma, rename, fn, directive, expected,
                           at_result),
                self._elab(e.els, gamma, rename, fn, directive, expected,
                           at_result),
                span=e.span)
        if cls is S.Let:
            bound = self._elab(e.bound, gamma, rename, fn, directive, None)
            bt = infer_expr(env, gamma_renamed(gamma, rename), bound)
            inner = dict(gamma)
            inner[e.name] = bt
            inner_rename = dict(rename)
            inner_rename.pop(e.name, None)
            body = self._elab(e.body, inner, inner_rename, fn, directive,
                              expected, at_result)
            return S.Let(e.name, bound, body, span=e.span)
        if cls is S.ConstructorApp:
            return self._elab_ctor(e, gamma, rename, fn, directive, expected)
        if cls is S.Lower:
            resolved = resolve_layout_ref(env, e.layout, e.span)
            if expected is not None and expected.is_adt and resolved.is_adt \
                    and resolved.layout.name != expected.layout.name:
                raise LayoutAdtMismatch(
                    f"lowered at {resolved.layout.name}, expected "
                    f"{expected.layout.name}", e.span, rule="T-LOWER-VAR")
            inner = self._elab(e.arg, gamma, rename, fn, directive, resolved)
            if isinstance(inner, S.Lower):
                return inner
            return S.Lower(e.layout, inner, span=e.span)
        if cls is S.App:
            return self._elab_app(e, gamma, rename, fn, directive, expected)
        if cls is S.Instantiate:
            return self._elab_instantiate(e, gamma, rename, fn, directive)
        raise TypeMismatch("expression", type(e).__name__,
                           getattr(e, "span", None))

    def _elab_ctor(self, e: S.ConstructorApp, gamma, rename, fn, directive,
                   expected) -> S.Expr:
        env = self.env
        if e.name not in env.ctors:
            raise UnboundVariable(f"unknown constructor {e.name}", e.span,
                                  rule="T-CONSTR")
        field_tys, adt = env.ctors[e.name]
        if len(e.args) != len(field_tys):
            raise ArityMismatch(
                f"constructor {e.name} expects {len(field_tys)} arguments, "
                f"got {len(e.args)}", e.span, rule="T-CONSTR")
        if expected is None or not expected.is_adt:
            raise NotConcrete(
                f"constructor {e.name} used where no layout is fixed", e.span,
                rule="T-LOWER-CONSTR")
        layout = expected.layout
        if adt != layout.adt:
            raise LayoutAdtMismatch(
                f"layout {layout.name} is for {layout.adt}, constructor "
                f"{e.name} builds {adt}", e.span, rule="T-LOWER-CONSTR")
        branch_pat = layout.branch_pattern(e.name)
        if branch_pat is None:
            raise LayoutAdtMismatch(
                f"layout {layout.name} has no branch for {e.name}", e.span)
        applies = {}
        for h in layout.branch_for(e.name):
            if isinstance(h, S.HApply):
                applies[h.arg] = h.layout
        new_args = []
        for var, arg, fty in zip(branch_pat.vars, e.args, field_tys):
            if isinstance(fty, S.TName):
                sub_layout_name = applies.get(var, layout.name
                                              if fty.name == layout.adt else None)
                if sub_layout_name is None:
                    raise NotConcrete(
                        f"no layout known for field of {e.name}", e.span,
                        rule="T-LOWER-CONSTR")
                sub = ResolvedLayout("adt", env.layouts[sub_layout_name],
                                     expected.mode)
                new_args.append(self._elab(arg, gamma, rename, fn, directive,
                                           sub))
            else:
                new_args.append(self._elab(arg, gamma, rename, fn, directive,
                                           None))
        return S.Lower(S.NamedLayout(layout.name, expected.mode),
                       S.ConstructorApp(e.name, new_args, span=e.span),
                       span=e.span)

    def _elab_app(self, e: S.App, gamma, rename, fn, directive, expected):
        env = self.env
        if e.fn == fn:
            # recursive call: inherit the enclosing directive's instantiation
            return self._elab_instantiate(
                S.Instantiate(directive.arg_layouts, directive.result_layout,
                              fn, list(e.args), span=e.span),
                gamma, rename, fn, directive)
        if e.fn in env.fn_sigs:
            params, result = uncurry(env.fn_sigs[e.fn])
            if len(params) != len(e.args):
                raise ArityMismatch(
                    f"{e.fn} expects {len(params)} arguments, got {len(e.args)}",
                    e.span, rule="T-FN-GLOBAL")
            refs = []
            for pty, arg in zip(params, e.args):
                refs.append(self._default_ref(pty, arg, gamma, e))
            if isinstance(result, S.TName):
                if expected is not None and expected.is_adt \
                        and env.layouts[expected.layout.name].adt == result.name:
                    res_ref = S.NamedLayout(expected.layout.name, "mutable")
                else:
                    raise LayoutAdtMismatch(
                        f"call of {e.fn} needs an explicit instantiate: result "
                        f"layout for {result.name} is not determined", e.span,
                        rule="T-INSTANTIATE")
            else:
                res_ref = self._base_ref(result, e)
            return self._elab_instantiate(
                S.Instantiate(tuple(refs), res_ref, e.fn, list(e.args),
                              span=e.span),
                gamma, rename, fn, directive)
        raise UnboundVariable(f"unbound function {e.fn}", e.span, rule="T-VAR")

    def _base_ref(self, ty: S.TypeExpr, e) -> S.LayoutRef:
        if isinstance(ty, S.TInt):
            return S.IntLayout()
        if isinstance(ty, S.TBool):
            return S.BoolLayout()
        if isinstance(ty, S.TPtrInt):
            return S.PtrIntLayout()
        raise LayoutAdtMismatch(
            f"cannot infer a layout for type {ty}; use instantiate", e.span,
            rule="T-INSTANTIATE")

    def _default_ref(self, pty: S.TypeExpr, arg: S.Expr, gamma, e):
        if isinstance(pty, S.TName):
            at = None
            if isinstance(arg, S.Var):
                at = gamma.get(arg.name)
            if isinstance(at, LayoutType):
                return S.NamedLayout(at.name, "readonly")
            raise LayoutAdtMismatch(
                f"cannot infer a layout for an argument of type {pty}; "
                f"use instantiate", e.span, rule="T-INSTANTIATE")
        return self._base_ref(pty, e)

    def _elab_instantiate(self, e: S.Instantiate, gamma, rename, fn, directive):
        env = self.env
        fn_args = [(ref, arg) for ref, arg in zip(e.arg_layouts, e.args)
                   if isinstance(ref, S.FnLayout)]
        if fn_args:
            return self._specialise(e, gamma, rename, fn, directive)
        resolved = [resolve_layout_ref(env, r, e.span) for r in e.arg_layouts]
        if e.fn in env.fn_sigs:
            params, _ = uncurry(env.fn_sigs[e.fn])
            if len(params) != len(e.arg_layouts):
                raise ArityMismatch(
                    f"{e.fn} expects {len(params)} arguments, got "
                    f"{len(e.arg_layouts)} layouts", e.span, rule="T-INSTANTIATE")
            for pty, ref in zip(params, e.arg_layouts):
                layout_for_type(env, pty, ref, e.span)
        new_args = [self._elab(a, gamma, rename, fn, directive, r if r.is_adt
                               else None)
                    for a, r in zip(e.args, resolved)]
        return S.Instantiate(e.arg_layouts, e.result_layout, e.fn, new_args,
                             span=e.span)

    def _specialise(self, e: S.Instantiate, gamma, rename, fn, directive):
        """Resolve function-typed instantiate arguments by substituting the
        named function and generating a specialised definition."""
        env = self.env
        if e.fn not in env.fn_defs:
            raise UnboundVariable(
                f"cannot specialise undefined function {e.fn}", e.span,
                rule="T-INSTANTIATE")
        fn_pairs = []
        value_refs = []
        value_args = []
        for ref, arg in zip(e.arg_layouts, e.args):
            if isinstance(ref, S.FnLayout):
                if not isinstance(arg, S.Var):
                    raise NotConcrete(
                        "function-typed arguments must be function names",
                        e.span, rule="T-INSTANTIATE")
                fn_pairs.append(arg.name)
            else:
                value_refs.append(ref)
                value_args.append(arg)
        spec_name = "_".join([e.fn] + fn_pairs)
        if spec_name not in env.fn_defs:
            self._register_specialisation(e.fn, fn_pairs, spec_name, e.span)
        inner = S.Instantiate(tuple(value_refs), e.result_layout, spec_name,
                              value_args, span=e.span)
        return self._elab_instantiate(inner, gamma, rename, fn, directive)

    def _register_specialisation(self, base: str, fn_names: list,
                                 spec_name: str, span):
        env = self.env
        params, result = uncurry(env.fn_sigs[base])
        fn_params = [p for p in params if isinstance(p, S.TFn)]
        if len(fn_params) != len(fn_names):
            raise ArityMismatch(
                f"{base} takes {len(fn_params)} function arguments", span,
                rule="T-INSTANTIATE")
        value_params = [p for p in params if not isinstance(p, S.TFn)]
        new_sig = result
        for p in reversed(value_params):
            new_sig = S.TFn(p, new_sig)
        new_cases = []
        for case in env.fn_defs[base]:
            sub = {}
            kept_patterns = []
            idx = 0
            for pat, pty in zip(case.patterns, params):
                if isinstance(pty, S.TFn):
                    if not pat.is_var:
                        raise NotConcrete(
                            "function parameters cannot be pattern-matched",
                            pat.span)
                    sub[pat.var] = fn_names[idx]
                    idx += 1
                else:
                    kept_patterns.append(pat)
            bodies = [(None if g is None else _subst_fn_names(g, sub, base,
                                                              spec_name),
                       _subst_fn_names(b, sub, base, spec_name))
                      for g, b in case.guarded_bodies]
            new_cases.append(S.FnCase(spec_name, kept_patterns, bodies,
                                      span=case.span))
        env.fn_sigs[spec_name] = new_sig
        env.fn_defs[spec_name] = new_cases
        self.spec_order.append(spec_name)


def gamma_renamed(gamma: dict, rename: dict) -> dict:
    out = dict(gamma)
    for src, dst in rename.items():
        if src in out:
            out[dst] = out.pop(src)
    return out


def _subst_fn_names(e: S.Expr, sub: dict, old_self: str, new_self: str) -> S.Expr:
    """Replace function parameters by the functions in ``sub`` and calls of
    ``old_self`` by calls of ``new_self``."""
    def fix(name):
        return sub.get(name, new_self if name == old_self else name)

    if isinstance(e, S.Var):
        return S.Var(fix(e.name), span=e.span)
    if isinstance(e, (S.App, S.Instantiate)):
        args = e.args
        arg_layouts = e.arg_layouts if isinstance(e, S.Instantiate) else None
        if e.fn == old_self:
            # recursive calls drop the substituted function arguments
            keep = [not (isinstance(a, S.Var) and a.name in sub)
                    for a in args]
            args = [a for a, k in zip(args, keep) if k]
            if arg_layouts is not None and len(arg_layouts) == len(keep):
                arg_layouts = tuple(l for l, k in zip(arg_layouts, keep) if k)
        if arg_layouts is None:
            e = S.App(fix(e.fn), args, span=e.span)
        else:
            e = S.Instantiate(arg_layouts, e.result_layout, fix(e.fn), args,
                              span=e.span)
    return S.map_expr(e, lambda x: _subst_fn_names(x, sub, old_self, new_self))


def elaborate(unit: S.SourceUnit) -> TypedProgram:
    """Elaborate every function named by a directive.  Deterministic: the
    same unit always produces the same TypedProgram, including all names."""
    env = build_global_env(unit)
    elab = _Elaborator(env)
    fns: dict[str, ElabFn] = {}
    for d in unit.directives:
        fns[d.fn] = elab.elaborate_fn(d.fn)
    # specialisations registered during elaboration get directives derived
    # from their call sites and are elaborated on demand by the translator
    return TypedProgram(env, fns, elab.spec_order)


def elaborate_fn_at(env: GlobalEnv, fn: str, arg_refs, result_ref) -> ElabFn:
    """Elaborate a single function at an explicit instantiation (used for
    auxiliary predicates such as specialisations)."""
    return _Elaborator(env).elaborate_at(
        fn, S.GenerateDirective(fn, tuple(arg_refs), result_ref))
