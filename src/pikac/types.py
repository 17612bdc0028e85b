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
attached to parameters and results.  A call with function arguments is
specialised: the callee with those functions substituted is added to
``fn_sigs`` and ``fn_defs`` under a new name, recorded in
``GlobalEnv.specialised``, which the translator reads to emit it.
Elaborated code checks under the strict rules: the elaborator types each
node it builds by the rule ``infer_expr`` applies to that node's kind, and
leaves each typing check to that rule.  It keeps one typing context, keyed
by the names of the elaborated code.  That needs two facts of the front
end: ``syntax.lex`` rejects a source name that contains ``__``, the
prefix of every generated name, and ``build_global_env`` rejects a case
that binds one name twice.
"""

from __future__ import annotations

from typing import Optional

from . import syntax as S
from .errors import (
    ArityMismatch, DuplicateName, LayoutAdtMismatch, NotConcrete, PikaError,
    TypeMismatch, UnboundVariable, UnknownAdtInLayout, UnsupportedConstruct,
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
    # per-environment caches, filled on first use and keyed by _ref_key:
    # ``resolved`` holds resolve_layout_ref's answers and ``cases`` those of
    # core_cases, under an instantiation_key.  ``predicates`` is
    # build_predicate_env's memo: the translators that filled it, the
    # layout predicates, and under an instantiation_key the predicates of
    # every instantiation that instantiation reaches.
    # ``specialised``: the name of each specialisation the elaborator added
    # to fn_sigs and fn_defs -> (function, function arguments).  The data
    # definitions and the directives are read from the source unit.
    __slots__ = ("ctors", "layouts", "fn_sigs", "fn_defs", "resolved",
                 "cases", "predicates", "specialised")
    _hidden = Node._hidden | {"resolved", "cases", "predicates",
                              "specialised"}

    def __init__(self, ctors: dict, layouts: dict, fn_sigs: dict,
                 fn_defs: dict):
        self.ctors = ctors              # name -> (field types, adt name)
        self.layouts = layouts          # name -> LayoutDef
        self.fn_sigs = fn_sigs
        self.fn_defs = fn_defs
        self.resolved = {}
        self.cases = {}
        self.predicates = {}
        self.specialised = {}


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
    layout_names = {ld.name for ld in unit.layout_defs}
    for ld in unit.layout_defs:
        if ld.name in layouts or ld.name in adts:
            raise DuplicateName(f"duplicate layout definition {ld.name}",
                                ld.span, rule="G-LAYOUT")
        if ld.adt not in adts:
            raise UnknownAdtInLayout(
                f"layout {ld.name} is for undeclared type {ld.adt}", ld.span)
        if not ld.ssl_params:
            raise UnknownAdtInLayout(f"layout {ld.name} has no parameters", ld.span)
        root = ld.ssl_params[0]
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
                    f"layout {ld.name} has two branches for {pat.ctor}",
                    pat.span, rule="G-LAYOUT")
            seen_ctors.add(pat.ctor)
            if len(pat.vars) != len(ctors[pat.ctor][0]):
                raise ArityMismatch(
                    f"pattern arity mismatch for {pat.ctor} in layout {ld.name}",
                    pat.span, rule="G-LAYOUT")
            if len(set(pat.vars)) != len(pat.vars):
                raise DuplicateName(
                    f"repeated pattern variable in layout {ld.name}", pat.span,
                    rule="G-LAYOUT")
            offsets = set()
            for h in heaplets:
                if h.__class__ is S.HPointsTo:
                    if h.offset < 0:
                        raise UnknownAdtInLayout(
                            f"layout {ld.name} writes at a negative offset",
                            h.span)
                    # the machine, the layout predicate and every branch
                    # translation write each cell at root+offset, once
                    if h.base != root:
                        raise UnknownAdtInLayout(
                            f"layout {ld.name} writes through {h.base}, "
                            f"not its root {root}", h.span)
                    if h.payload not in pat.vars:
                        raise UnknownAdtInLayout(
                            f"layout {ld.name} stores {h.payload}, which is "
                            f"not a field of {pat.ctor}", h.span)
                    if h.offset in offsets:
                        raise UnknownAdtInLayout(
                            f"layout {ld.name} writes "
                            f"{S.render_loc(root, h.offset)} twice in its "
                            f"{pat.ctor} branch", h.span)
                    offsets.add(h.offset)
                elif h.__class__ is S.HApply:
                    if h.layout not in layout_names:
                        raise UnknownAdtInLayout(
                            f"unknown layout {h.layout} applied in {ld.name}", h.span)
                    if h.arg not in pat.vars and h.arg not in ld.ssl_params:
                        raise UnknownAdtInLayout(
                            f"layout {ld.name} applies {h.layout} to unknown "
                            f"variable {h.arg}", h.span)
        for ctor, _ in adts[ld.adt].alts:
            if ctor not in seen_ctors:
                raise UnknownAdtInLayout(
                    f"layout {ld.name} has no branch for {ctor}", ld.span)
        layouts[ld.name] = ld

    fn_sigs = dict(unit.fn_sigs)
    directives = set()
    for d in unit.directives:
        if d.fn not in unit.fn_defs:
            raise UnboundVariable(f"%generate names undefined function {d.fn}",
                                  d.span)
        if d.fn in directives:
            # compile_directive and its callers name a directive by its
            # function, so a second one would replace the first
            raise DuplicateName(f"second %generate directive for {d.fn}",
                                d.span, rule="G-FN")
        directives.add(d.fn)
    for name, cases in unit.fn_defs.items():
        if name not in fn_sigs:
            raise UnboundVariable(f"function {name} has no type signature",
                                  cases[0].span)
        # the elaborator keeps one typing context per case, so each of its
        # binders must name one value
        for case in cases:
            binders = set()
            for pat in case.patterns:
                for var in pat.vars:
                    if var in binders:
                        raise DuplicateName(
                            f"a case of {name} binds {var} twice", case.span,
                            rule="G-FN")
                    binders.add(var)
    return GlobalEnv(ctors, layouts, fn_sigs, dict(unit.fn_defs))


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


def mangle(fn: str, arg_layouts, result_layout: ResolvedLayout) -> str:
    """The name of the predicate of ``fn`` at these layouts."""
    tags = [result_layout.tag(result=True)] + [a.tag() for a in arg_layouts]
    return "__".join([fn] + tags)


def _ref_key(ref: S.LayoutRef):
    """The key a per-environment cache files ``ref`` under: a
    ``NamedLayout`` by the tuple of its fields, which hashes and compares
    without calling its Python-level ``__hash__``/``__eq__``; another
    reference by itself."""
    return (ref.name, ref.mode) if ref.__class__ is S.NamedLayout else ref


def instantiation_key(fn: str, arg_ref: S.LayoutRef,
                      result_ref: S.LayoutRef) -> tuple:
    """The key of ``fn`` instantiated at ``[arg_ref] result_ref``, the
    layouts as written, mode included: ``core_cases`` files the cases under
    it, and the soundness harness the predicates it reaches."""
    return (fn, _ref_key(arg_ref), _ref_key(result_ref))


def resolve_layout_ref(env: GlobalEnv, ref: S.LayoutRef,
                       span=None) -> ResolvedLayout:
    """The layout ``ref`` names; remembered per environment, since its
    layouts do not change once it is built."""
    key = _ref_key(ref)
    resolved = env.resolved.get(key)
    if resolved is None:
        resolved = env.resolved[key] = _resolve_layout_ref(env, ref, span)
    return resolved


def adt_layout(env: GlobalEnv, ref: S.LayoutRef, span=None) -> ResolvedLayout:
    """The ADT layout ``ref`` names, for the core subset: the machine and the
    core translation lower values into ADT layouts only."""
    resolved = resolve_layout_ref(env, ref, span)
    if resolved.kind != "adt":
        raise UnsupportedConstruct("base-type layouts cannot be lowered",
                                   span)
    return resolved


def core_cases(env: GlobalEnv, fn: str, arg_ref: S.LayoutRef,
               result_ref: S.LayoutRef, span=None) -> dict:
    """constructor -> ``(pattern variables, body)`` of ``fn`` elaborated at
    ``[arg_ref] result_ref``, for the core subset: the first case for each
    constructor, where every case matches a constructor and has no guard.
    The machine and the core translation both run these cases.  The answer
    is remembered per environment: a function's cases do not change once
    it is defined."""
    key = instantiation_key(fn, arg_ref, result_ref)
    found = env.cases.get(key)
    if found is None:
        if fn not in env.fn_defs:
            raise UnboundVariable(f"unknown function {fn}", span,
                                  rule="T-FN-GLOBAL")
        found = {}
        for case in elaborate_fn_at(env, fn, (arg_ref,), result_ref).cases:
            pattern = case.args[0].pattern
            if pattern is None:
                raise UnsupportedConstruct(
                    f"{fn} is not a single-argument pattern-matching "
                    f"function", span)
            if case.guard is not None:
                raise UnsupportedConstruct(
                    f"{fn} uses guards, outside the core subset", span)
            found.setdefault(pattern[0], (pattern[1], case.body))
        env.cases[key] = found
    return found


def _resolve_layout_ref(env: GlobalEnv, ref: S.LayoutRef,
                        span=None) -> ResolvedLayout:
    if isinstance(ref, S.IntLayout):
        return ResolvedLayout("int")
    if isinstance(ref, S.BoolLayout):
        return ResolvedLayout("bool")
    if isinstance(ref, S.PtrIntLayout):
        return ResolvedLayout("ptr")
    if isinstance(ref, S.NamedLayout):
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
    if resolved.kind == "adt" and isinstance(ty, S.TName) \
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
    if cls is S.Let:
        inner = dict(gamma)
        inner[e.name] = infer_expr(env, gamma, e.bound)
        return infer_expr(env, inner, e.body)
    if cls not in S.Expr:
        raise TypeMismatch("expression", type(e).__name__,
                           getattr(e, "span", None))
    kids = e.arg.args if cls is S.Lower \
        and e.arg.__class__ is S.ConstructorApp else S.subexprs(e)
    return _type_node(env, gamma, e, [_result(env, gamma, k) for k in kids])


def _result(env: GlobalEnv, gamma: dict, e: S.Expr):
    """What ``infer_expr`` makes of ``e``: its type, or the diagnostic it
    raises."""
    try:
        return infer_expr(env, gamma, e)
    except PikaError as exc:
        return exc


def _ok(result) -> Type:
    """A kid's type; its diagnostic is raised when typing it failed."""
    if isinstance(result, PikaError):
        raise result
    return result


def _lookup(env: GlobalEnv, gamma: dict, name: str, span) -> Type:
    ty = gamma.get(name)
    if ty is None:
        ty = env.fn_sigs.get(name)
        if ty is None:
            raise UnboundVariable(f"unbound variable {name}", span,
                                  rule="T-VAR")
    return ty


def _type_node(env: GlobalEnv, gamma: dict, e: S.Expr, kids) -> Type:
    """The type of ``e`` by its kind's rule, given its kids' results, each
    a type or a diagnostic, in ``S.subexprs`` order; a ``Lower`` of a
    constructor application takes the application's arguments as its
    kids.  ``Let`` has no rule here: its body is typed in a larger
    context.  A rule raises a kid's diagnostic where it first needs the
    kid's type, so the diagnostic that wins is the one a walk typing each
    kid on demand would meet first: ``infer_expr`` types the kids first,
    the elaborator as it builds them, and both raise the same one."""
    cls = e.__class__
    if cls is S.Instantiate:
        return _type_instantiate(env, gamma, e, kids)
    if cls is S.Lower:
        return _type_lower(env, e, kids)
    if cls is S.Var:
        return _lookup(env, gamma, e.name, e.span)
    if cls is S.BinOp:
        lt, rt = _ok(kids[0]), _ok(kids[1])
        operand, result, rule = OPERATOR_TYPES[e.op]
        for t in (lt, rt):
            if t != operand:
                raise TypeMismatch(str(operand), str(t), e.span, rule=rule)
        return result
    if cls is S.IntLit:
        return S.TInt()
    if cls is S.IfThenElse:
        ct = _ok(kids[0])
        if not isinstance(ct, S.TBool):
            raise TypeMismatch("Bool", str(ct), e.span, rule="T-IF")
        tt, et = _ok(kids[1]), _ok(kids[2])
        if tt != et:
            raise TypeMismatch(str(tt), str(et), e.span, rule="T-IF")
        return tt
    if cls is S.ConstructorApp:
        return _type_ctor(env, e, kids)
    if cls is S.BoolLit:
        return S.TBool()
    if cls is S.Not:
        ty = _ok(kids[0])
        if not isinstance(ty, S.TBool):
            raise TypeMismatch("Bool", str(ty), e.span, rule="T-NOT")
        return S.TBool()
    if cls is S.Addr:
        inner = _lookup(env, gamma, e.var, e.span)
        if not isinstance(inner, S.TInt):
            raise TypeMismatch("Int", str(inner), e.span, rule="T-ADDR")
        return S.TPtrInt()
    assert cls is S.App, cls
    params, result = uncurry(_lookup(env, gamma, e.fn, e.span))
    if len(e.args) != len(params):
        raise ArityMismatch(
            f"{e.fn} expects {len(params)} arguments, got {len(e.args)}",
            e.span, rule="T-FN-GLOBAL")
    for kid, pty in zip(kids, params):
        at = _ok(kid)
        if isinstance(pty, S.TName) and isinstance(at, LayoutType) \
                and env.layouts[at.name].adt == pty.name:
            continue
        if at != pty:
            raise TypeMismatch(str(pty), str(at), e.span, rule="T-FN-GLOBAL")
    return result


def _ctor_fields(env: GlobalEnv, e: S.ConstructorApp, span) -> tuple:
    """``(field types, ADT)`` of ``e``'s constructor, which must exist and
    take as many arguments as ``e`` gives it."""
    fields = env.ctors.get(e.name)
    if fields is None:
        raise UnboundVariable(f"unknown constructor {e.name}", span,
                              rule="T-CONSTR")
    if len(e.args) != len(fields[0]):
        raise ArityMismatch(
            f"constructor {e.name} expects {len(fields[0])} arguments, "
            f"got {len(e.args)}", span, rule="T-CONSTR")
    return fields


def _type_ctor(env: GlobalEnv, e: S.ConstructorApp, kids) -> Type:
    field_tys, adt = _ctor_fields(env, e, e.span)
    for kid, fty in zip(kids, field_tys):
        at = _ok(kid)
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


def _type_lower(env: GlobalEnv, e: S.Lower, kids) -> Type:
    resolved = resolve_layout_ref(env, e.layout, e.span)
    ctor = e.arg if e.arg.__class__ is S.ConstructorApp else None
    if resolved.kind != "adt":
        ty = _ok(kids[0]) if ctor is None \
            else _type_ctor(env, ctor, kids)
        if resolved.kind == "ptr":
            if not isinstance(ty, (S.TInt, S.TPtrInt)):
                raise TypeMismatch("Int", str(ty), e.span, rule="T-LOWER-VAR")
            return S.TPtrInt()
        if ty != resolved.type():
            raise TypeMismatch(str(resolved.type()), str(ty), e.span,
                               rule="T-LOWER-VAR")
        return resolved.type()
    layout = resolved.layout
    if ctor is not None:
        field_tys, adt = _ctor_fields(env, ctor, e.span)
        if adt != layout.adt:
            raise LayoutAdtMismatch(
                f"layout {layout.name} is for {layout.adt}, "
                f"constructor {ctor.name} builds {adt}", e.span,
                rule="T-LOWER-CONSTR")
        for kid, fty in zip(kids, field_tys):
            if not _concrete(env, _ok(kid), fty):
                raise NotConcrete(
                    f"argument of {ctor.name} is not concrete at type {fty}",
                    e.span, rule="T-LOWER-CONSTR")
        return LayoutType(layout.name)
    inner = _ok(kids[0])
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


def _type_instantiate(env: GlobalEnv, gamma: dict, e: S.Instantiate,
                      kids) -> Type:
    resolved_args = []
    for ref in e.arg_layouts:
        if isinstance(ref, S.FnLayout):
            resolved_args.append(ref)
        else:
            resolved_args.append(resolve_layout_ref(env, ref, e.span))
    result = resolve_layout_ref(env, e.result_layout, e.span)

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
            if result.kind != "adt" or result.layout.adt != res.name:
                raise LayoutAdtMismatch(
                    f"result layout does not fit result type {res}", e.span,
                    rule="T-INSTANTIATE")
        else:
            layout_for_type(env, res, e.result_layout, e.span)
    if len(kids) != len(resolved_args):
        raise ArityMismatch(
            f"instantiate of {e.fn} applies {len(kids)} arguments to "
            f"{len(resolved_args)} layouts", e.span, rule="T-INSTANTIATE")
    # value arguments must be concrete at their layouts
    for kid, lay in zip(kids, resolved_args):
        if isinstance(lay, S.FnLayout):
            continue
        at = _ok(kid)
        expected = lay.type()
        if isinstance(expected, S.TPtrInt) and isinstance(at, (S.TInt, S.TPtrInt)):
            continue
        if lay.kind == "adt":
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
    return _concrete(env, _result(env, gamma, e), adt)


def _concrete(env: GlobalEnv, result, adt: S.TypeExpr) -> bool:
    """``check_concrete`` on a typing result."""
    if isinstance(result, PikaError):
        return False
    if isinstance(adt, S.TInt):
        return isinstance(result, S.TInt)
    if isinstance(adt, S.TBool):
        return isinstance(result, S.TBool)
    if isinstance(adt, S.TPtrInt):
        return isinstance(result, (S.TPtrInt, S.TInt))
    if isinstance(adt, S.TName):
        return isinstance(result, LayoutType) \
            and env.layouts[result.name].adt == adt.name
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
    __slots__ = ("args", "guard", "body")


class ElabFn(Node):
    # arg_layouts: [ResolvedLayout]; cases: [ElabCase]
    __slots__ = ("name", "arg_layouts", "result_layout", "cases")

    @property
    def result_name(self) -> str:
        """The name of the result parameter of the function's predicate."""
        if self.result_layout.kind == "adt":
            return f"__r_{self.result_layout.layout.ssl_params[0]}"
        return "__r"


class TypedProgram(Node):
    # fns: fn name -> ElabFn
    __slots__ = ("env", "fns")


def _param_name(i: int, layout: ResolvedLayout) -> str:
    return f"__p_x{i}" if layout.kind == "adt" else f"__p_{i}"


class _Elaborator:
    def __init__(self, env: GlobalEnv):
        self.env = env

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
        # what a recursive call in the bodies is instantiated at
        self.fn, self.directive = fn, directive
        cases = []
        for case in env.fn_defs[fn]:
            cases.extend(self._elaborate_case(fn, case, param_tys,
                                              arg_layouts, result_layout))
        return ElabFn(fn, arg_layouts, result_layout, cases)

    def _elaborate_case(self, fn, case: S.FnCase, param_tys,
                        arg_layouts, result_layout) -> ElabCase:
        env = self.env
        if len(case.patterns) != len(arg_layouts):
            raise ArityMismatch(
                f"case of {fn} has {len(case.patterns)} patterns, expected "
                f"{len(arg_layouts)}", case.span, rule="G-FN")
        typing: dict[str, Type] = {}        # the one context: see _elab
        rename: dict[str, str] = {}
        args: list[ElabArg] = []
        for i, (pat, lay, pty) in enumerate(zip(case.patterns, arg_layouts,
                                                param_tys)):
            name = _param_name(i, lay)
            if pat.ctor is None:
                var = pat.vars[0]
                typing[name] = lay.type()
                rename[var] = name
                args.append(ElabArg(name, lay, None, {}, [], var))
            else:
                if lay.kind != "adt":
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
                shape = layout.shapes[pat.ctor]
                sub = dict(zip(shape.pattern.vars, pat.vars))
                sub[layout.ssl_params[0]] = name
                offsets = {sub.get(p, p): off
                           for p, off in shape.offsets.items()}
                applies = [(lname, sub.get(v, v))
                           for v, lname in shape.applies.items()]
                for v, fty in zip(pat.vars, field_tys):
                    typing[v] = self._field_type(fty, v, applies)
                args.append(ElabArg(name, lay, (pat.ctor, list(pat.vars)),
                                    offsets, applies))

        elab_cases = []
        for guard, body in case.guarded_bodies:
            g2 = None
            if guard is not None:
                g2, gt = self._elab(guard, rename, typing, None)
                gt = _ok(gt)
                if not isinstance(gt, S.TBool):
                    raise TypeMismatch("Bool", str(gt), case.span,
                                       rule="T-GUARD")
            b2, bt = self._elab(body, rename, typing,
                                result_layout if result_layout.kind == "adt"
                                else None, at_result=True)
            bt = _ok(bt)
            want = result_layout.type()
            if bt != want and not (result_layout.kind == "ptr"
                                   and isinstance(bt, S.TInt)):
                raise TypeMismatch(str(want), str(bt), body.span or case.span,
                                   rule="G-FN")
            elab_cases.append((g2, b2))
        # one ElabCase per guarded body keeps the arm list flat; no stage
        # rebinds an ElabArg's fields, so the cases share them
        return [ElabCase(list(args), g2, b2) for g2, b2 in elab_cases]

    def _field_type(self, fty: S.TypeExpr, var: str, applies) -> Type:
        if isinstance(fty, S.TName):
            for lname, v in applies:
                if v == var:
                    return LayoutType(lname)
            return S.TName(fty.name)
        return fty

    # -- expression elaboration --
    # ``_elab`` returns the elaborated expression and the result of typing
    # it in ``typing`` under the strict rules: its type, or the diagnostic
    # ``infer_expr`` would raise on it.  ``typing`` is the one context: it
    # is keyed by the names of the elaborated code, and ``rename`` maps a
    # source parameter to its generated name.  No source name contains
    # ``__`` and a case binds each name once, so a source name ``x`` means
    # ``typing[rename.get(x, x)]``.  Each typing check is made by the rule,
    # when ``_elab`` types the node it built; typing diagnostics wait until
    # ``_elaborate_case`` reads a body's result, so that every elaboration
    # diagnostic in the body wins over them.  The helpers that build a node
    # return it with its kids' results, for ``_elab`` to type.

    def _elab(self, e: S.Expr, rename, typing,
              expected: Optional[ResolvedLayout],
              at_result: bool = False) -> tuple:
        env = self.env
        cls = e.__class__
        if cls is S.Var:
            name = rename.get(e.name, e.name)
            ty = typing.get(name)
            if ty is None and e.name not in env.fn_sigs:
                raise UnboundVariable(f"unbound variable {e.name}", e.span,
                                      rule="T-VAR")
            out, kids = S.Var(name, e.span), ()
            lower = False
            if expected is not None and expected.kind == "adt":
                lower = isinstance(ty, S.TName)
                if isinstance(ty, LayoutType):
                    if ty.name != expected.layout.name:
                        raise LayoutAdtMismatch(
                            f"{e.name} is resident at {ty.name}, expected "
                            f"{expected.layout.name}", e.span, rule="T-LOWER-VAR")
                    # a returned resident variable is re-lowered at the
                    # result layout; the copy stage keys off this wrapper
                    lower = at_result
            result = ty or _result(env, typing, out)
            if not lower:
                return out, result
            out, kids = S.Lower(S.NamedLayout(expected.layout.name,
                                              expected.mode),
                                out, e.span), [result]
        elif cls is S.BinOp:
            lhs, lt = self._elab(e.lhs, rename, typing, None)
            rhs, rt = self._elab(e.rhs, rename, typing, None)
            out, kids = S.BinOp(e.op, lhs, rhs, e.span), [lt, rt]
        elif cls is S.IntLit:
            out, kids = e, ()
        elif cls is S.ConstructorApp:
            out, kids = self._elab_ctor(e, rename, typing, expected)
        elif cls is S.App:
            out, kids = self._elab_app(e, rename, typing, expected)
        elif cls is S.Instantiate:
            out, kids = self._elab_instantiate(e, rename, typing)
        elif cls is S.IfThenElse:
            c, ct = self._elab(e.cond, rename, typing, None)
            then, tt = self._elab(e.then, rename, typing, expected, at_result)
            els, et = self._elab(e.els, rename, typing, expected, at_result)
            out, kids = S.IfThenElse(c, then, els, e.span), [ct, tt, et]
        elif cls is S.Lower:
            resolved = resolve_layout_ref(env, e.layout, e.span)
            if expected is not None and expected.kind == "adt" \
                    and resolved.kind == "adt" \
                    and resolved.layout.name != expected.layout.name:
                raise LayoutAdtMismatch(
                    f"lowered at {resolved.layout.name}, expected "
                    f"{expected.layout.name}", e.span, rule="T-LOWER-VAR")
            inner, it = self._elab(e.arg, rename, typing, resolved)
            if inner.__class__ is S.Lower:
                return inner, it
            out, kids = S.Lower(e.layout, inner, e.span), [it]
        elif cls is S.Let:
            return self._elab_let(e, rename, typing, expected, at_result)
        elif cls is S.Not:
            arg, at = self._elab(e.arg, rename, typing, None)
            out, kids = S.Not(arg, e.span), [at]
        elif cls is S.BoolLit:
            out, kids = e, ()
        elif cls is S.Addr:
            out, kids = S.Addr(rename.get(e.var, e.var), e.span), ()
        else:
            raise TypeMismatch("expression", type(e).__name__,
                               getattr(e, "span", None))
        try:
            return out, _type_node(env, typing, out, kids)
        except PikaError as exc:
            return out, exc

    def _elab_let(self, e: S.Let, rename, typing, expected,
                  at_result) -> tuple:
        """The let and its typing result, as ``_elab`` gives them.  The
        bound's type enters the context at once, so its diagnostic is
        raised at once."""
        bound, result = self._elab(e.bound, rename, typing, None)
        if e.name in rename:
            rename = dict(rename)
            del rename[e.name]
        inner = dict(typing)
        inner[e.name] = _ok(result)
        body, body_result = self._elab(e.body, rename, inner, expected,
                                       at_result)
        return S.Let(e.name, bound, body, e.span), body_result

    def _elab_ctor(self, e: S.ConstructorApp, rename, typing,
                   expected) -> tuple:
        env = self.env
        field_tys, adt = _ctor_fields(env, e, e.span)
        if expected is None or expected.kind != "adt":
            raise NotConcrete(
                f"constructor {e.name} used where no layout is fixed", e.span,
                rule="T-LOWER-CONSTR")
        layout = expected.layout
        if adt != layout.adt:
            raise LayoutAdtMismatch(
                f"layout {layout.name} is for {layout.adt}, constructor "
                f"{e.name} builds {adt}", e.span, rule="T-LOWER-CONSTR")
        shape = layout.shapes[e.name]
        new_args, kids = [], []
        for var, arg, fty in zip(shape.pattern.vars, e.args, field_tys):
            sub = None
            if isinstance(fty, S.TName):
                sub_layout_name = shape.applies.get(
                    var, layout.name if fty.name == layout.adt else None)
                if sub_layout_name is None:
                    raise NotConcrete(
                        f"no layout known for field of {e.name}", e.span,
                        rule="T-LOWER-CONSTR")
                sub = ResolvedLayout("adt", env.layouts[sub_layout_name],
                                     expected.mode)
            x, kid = self._elab(arg, rename, typing, sub)
            new_args.append(x)
            kids.append(kid)
        return S.Lower(S.NamedLayout(layout.name, expected.mode),
                       S.ConstructorApp(e.name, new_args, e.span),
                       e.span), kids

    def _elab_app(self, e: S.App, rename, typing, expected) -> tuple:
        env = self.env
        fn = self.fn
        if e.fn == fn:
            # recursive call: inherit the enclosing directive's instantiation
            directive = self.directive
            return self._elab_instantiate(
                S.Instantiate(directive.arg_layouts, directive.result_layout,
                              fn, list(e.args), e.span),
                rename, typing)
        if e.fn in env.fn_sigs:
            params, result = uncurry(env.fn_sigs[e.fn])
            if len(params) != len(e.args):
                raise ArityMismatch(
                    f"{e.fn} expects {len(params)} arguments, got {len(e.args)}",
                    e.span, rule="T-FN-GLOBAL")
            refs = []
            for pty, arg in zip(params, e.args):
                refs.append(self._default_ref(pty, arg, rename, typing, e))
            if isinstance(result, S.TName):
                if expected is not None and expected.kind == "adt" \
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
                              e.span),
                rename, typing)
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

    def _default_ref(self, pty: S.TypeExpr, arg: S.Expr, rename, typing, e):
        if isinstance(pty, S.TName):
            at = None
            if isinstance(arg, S.Var):
                at = typing.get(rename.get(arg.name, arg.name))
            if isinstance(at, LayoutType):
                return S.NamedLayout(at.name, "readonly")
            raise LayoutAdtMismatch(
                f"cannot infer a layout for an argument of type {pty}; "
                f"use instantiate", e.span, rule="T-INSTANTIATE")
        return self._base_ref(pty, e)

    def _elab_instantiate(self, e: S.Instantiate, rename, typing) -> tuple:
        """The instantiate with its arguments elaborated, each at its
        layout; ``_type_instantiate`` checks the layouts against the callee
        and the arguments against the layouts."""
        if any(isinstance(ref, S.FnLayout)
               for ref, _ in zip(e.arg_layouts, e.args)):
            return self._specialise(e, rename, typing)
        resolved = [resolve_layout_ref(self.env, ref, e.span)
                    for ref in e.arg_layouts]
        # an argument beyond the layouts gets none, for the rule to count
        resolved += [None] * (len(e.args) - len(resolved))
        new_args, kids = [], []
        for a, r in zip(e.args, resolved):
            x, kid = self._elab(a, rename, typing, r)
            new_args.append(x)
            kids.append(kid)
        return S.Instantiate(e.arg_layouts, e.result_layout, e.fn, new_args,
                             e.span), kids

    def _specialise(self, e: S.Instantiate, rename, typing) -> tuple:
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
        # arguments beyond the layouts stay, for the rule to count
        value_args += e.args[len(e.arg_layouts):]
        spec_name = "_".join([e.fn] + fn_pairs)
        spec = (e.fn, *fn_pairs)
        known = env.specialised.get(spec_name)
        if known is None:
            if spec_name in env.fn_defs:
                raise DuplicateName(
                    f"function {spec_name} has the name of the specialisation "
                    f"of {e.fn} at {', '.join(fn_pairs)}", e.span, rule="G-FN")
            self._register_specialisation(e.fn, fn_pairs, spec_name, e.span)
            env.specialised[spec_name] = spec
        elif known != spec:
            raise DuplicateName(
                f"the specialisations of {known[0]} at {', '.join(known[1:])} "
                f"and of {e.fn} at {', '.join(fn_pairs)} are both named "
                f"{spec_name}", e.span, rule="G-FN")
        inner = S.Instantiate(tuple(value_refs), e.result_layout, spec_name,
                              value_args, e.span)
        return self._elab_instantiate(inner, rename, typing)

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
                                      case.span))
        env.fn_sigs[spec_name] = new_sig
        env.fn_defs[spec_name] = new_cases


def _subst_fn_names(e: S.Expr, sub: dict, old_self: str, new_self: str) -> S.Expr:
    """Replace function parameters by the functions in ``sub`` and calls of
    ``old_self`` by calls of ``new_self``."""
    def fix(name):
        return sub.get(name, new_self if name == old_self else name)

    if isinstance(e, S.Var):
        return S.Var(fix(e.name), e.span)
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
            e = S.App(fix(e.fn), args, e.span)
        else:
            e = S.Instantiate(arg_layouts, e.result_layout, fix(e.fn), args,
                              e.span)
    return S.map_expr(e, lambda x: _subst_fn_names(x, sub, old_self, new_self))


def elaborate(unit: S.SourceUnit) -> TypedProgram:
    """Elaborate every function named by a directive.  Deterministic: the
    same unit always produces the same TypedProgram, including all names."""
    env = build_global_env(unit)
    elab = _Elaborator(env)
    fns = {d.fn: elab.elaborate_at(d.fn, d) for d in unit.directives}
    # a specialisation the elaboration registers, in ``env.specialised``,
    # is elaborated by the translator at the layouts of its call site
    return TypedProgram(env, fns)


def elaborate_fn_at(env: GlobalEnv, fn: str, arg_refs, result_ref) -> ElabFn:
    """Elaborate a single function at an explicit instantiation (used for
    auxiliary predicates such as specialisations)."""
    return _Elaborator(env).elaborate_at(
        fn, S.GenerateDirective(fn, tuple(arg_refs), result_ref))
