"""Translation to SSL: the production pipeline and the formal core.

The production pipeline turns an elaborated function and its directive into
an inductive predicate (plus auxiliary layout / read-only / copy
predicates, the specialisations it calls and a synthesis goal).  Its
stages are declared once, in ``STAGES``: each row holds a stage's title,
its pass over one arm and how ``pikac stages`` renders the arms after it.
``_FnTranslator.assemble`` then generates the branch conditions and
assembles the predicate.

``translate_expr_core`` / ``translate_fn_def_core`` implement the small
formal translation used by the soundness harness: every rule is a function
of the expression and the seed variable set, so translation is total and
deterministic on the restricted subset.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Optional

from . import syntax as S
from . import ssl
from .errors import (
    AmbiguousBranches, NoMatchingFnCase, NonConstructibleBody, NoSuchBranch,
    UnboundVariable, UnsupportedConstruct,
)
from .node import Node
from .types import (
    ElabArg, ElabFn, GlobalEnv, TypedProgram, adt_layout, core_cases,
    elaborate_fn_at, mangle, resolve_layout_ref, uncurry,
)


# ---------------------------------------------------------------------------
# Branch discrimination
# ---------------------------------------------------------------------------

_NULL = ssl.PInt(0)     # terms are immutable, so every null test shares it


def cond(layout: S.LayoutDef, ctor: str, var: Optional[str] = None,
         allow_guarded: bool = False) -> ssl.PureTerm:
    """The Boolean discriminator for a layout branch under the null
    encoding: empty branches test the root against 0, non-empty branches
    test it against non-0.  Raises when the layout has a branch set the
    encoding cannot discriminate."""
    shape = layout.shapes.get(ctor)
    if shape is None:
        raise NoSuchBranch(f"layout {layout.name} has no branch for {ctor}")
    var = var or layout.ssl_params[0]
    if len(layout.branches) == 1:
        return ssl.TRUE
    empties, non_empties = layout.emptiness
    if len(empties) > 1 or (len(non_empties) > 1 and not allow_guarded):
        raise AmbiguousBranches(
            f"layout {layout.name} has indistinguishable branches "
            f"({', '.join(p.ctor for p in empties + non_empties)})",
            layout.span, rule="G-LAYOUT")
    root_null = ssl.PEq(ssl.PVar(var), _NULL)
    if shape.empty:
        return root_null
    return ssl.PNot(root_null)


# ---------------------------------------------------------------------------
# Layout, read-only, and copy predicates
# ---------------------------------------------------------------------------

def translate_layout_predicate(layout: S.LayoutDef,
                               ro: bool = False) -> ssl.PredicateDef:
    """A layout as a data-structure predicate: one branch per constructor,
    destructuring heaplets plus a block and recursive applications."""
    pred_name = f"ro_{layout.name}" if ro else layout.name
    root = layout.ssl_params[0]
    branches = []
    cls = ssl.RoApply if ro else ssl.PredApply
    for ctor, shape in layout.shapes.items():
        c = cond(layout, ctor)
        spatial = [ssl.PointsTo(root, off, ssl.PVar(payload))
                   for off, payload in shape.cells]
        if shape.size:
            spatial.append(ssl.Block(root, shape.size))
        for var, lname in shape.applies.items():
            target = f"ro_{lname}" if ro else lname
            spatial.append(cls(target, (ssl.PVar(var),)))
        branches.append(ssl.Branch(c, ssl.SslAssertion((), tuple(spatial))))
    return ssl.PredicateDef(pred_name, ((root, "loc"),), tuple(branches))


def copy_predicate(layout: S.LayoutDef) -> ssl.PredicateDef:
    """A structural deep-copy predicate ``<Layout>__copy(src, dst)``; a
    structure below a field is copied by the copy predicate of its layout."""
    branches = []
    for ctor, shape in layout.shapes.items():
        c = cond(layout, ctor, var="src")
        if shape.empty:
            body = ssl.SslAssertion(
                (ssl.PEq(ssl.PVar("dst"), _NULL),), ())
            branches.append(ssl.Branch(c, body))
            continue
        # the copy's cell for a field with a structure below it holds the
        # root of that structure's copy
        dst_sub = {var: f"{var}1" for var in shape.applies}
        spatial = [ssl.PointsTo("src", off, ssl.PVar(payload))
                   for off, payload in shape.cells]
        spatial.append(ssl.Block("src", shape.size))
        spatial += [ssl.PointsTo("dst", off,
                                 ssl.PVar(dst_sub.get(payload, payload)))
                    for off, payload in shape.cells]
        spatial.append(ssl.Block("dst", shape.size))
        spatial += [ssl.FuncApply(f"{lname}__copy",
                                  (ssl.PVar(var), ssl.PVar(dst_sub[var])))
                    for var, lname in shape.applies.items()]
        branches.append(ssl.Branch(c, ssl.SslAssertion((), tuple(spatial))))
    return ssl.PredicateDef(f"{layout.name}__copy",
                            (("src", "loc"), ("dst", "loc")), tuple(branches))


# ---------------------------------------------------------------------------
# Core translation (restricted subset)
# ---------------------------------------------------------------------------

class CoreTranslationResult(Node):
    # pure: conjuncts
    __slots__ = ("pure", "spatial", "result_var")

    def assertion(self) -> ssl.SslAssertion:
        return ssl.SslAssertion.make(self.pure, self.spatial)


class _CoreTx:
    def __init__(self, env: GlobalEnv, seed_vars):
        self.env = env
        self.seed = frozenset(seed_vars)
        self.used = set(seed_vars)
        self._n = 0

    def fresh(self, loc: bool, target: Optional[str] = None) -> str:
        """A fresh name, or ``target`` when given; a fresh name is drawn
        either way, so that the other names do not depend on the target."""
        while True:
            self._n += 1
            name = (f"x{self._n}" if loc else f"v{self._n}")
            if name not in self.used:
                self.used.add(name)
                return name if target is None else target

    def tx(self, e: S.Expr, target: Optional[str] = None,
           ren=MappingProxyType({})):
        """Returns (pure conjuncts, spatial heaplets, result var).  A new
        result is named ``target`` when given; an existing variable keeps
        its name.  Variables are read through ``ren``, which maps a callee
        body's pattern variables to the argument values.  It dispatches on
        the exact class: the IR's kinds have no subclasses."""
        cls = e.__class__
        if cls is S.Lower:
            resolved = adt_layout(self.env, e.layout, e.span)
            arg = e.arg
            arg_cls = arg.__class__
            if arg_cls is S.ConstructorApp:
                return self.tx_lower_ctor(resolved.layout, arg, target, ren)
            if arg_cls is S.Var:
                name = ren.get(arg.name, arg.name)
                self.used.add(name)
                if name in self.seed:
                    pred = ssl.PredApply(resolved.layout.name,
                                         (ssl.PVar(name),))
                    return [], [pred], name
                # structure already described where the variable was bound
                return [], [], name
            if arg_cls is S.Instantiate:
                return self.tx(arg, target, ren)
            raise UnsupportedConstruct(
                f"cannot lower {type(arg).__name__} in the core subset", e.span)
        if cls is S.Var:
            name = ren.get(e.name, e.name)
            self.used.add(name)
            return [], [], name
        if cls is S.IntLit:
            v = self.fresh(False, target)
            return [ssl.PEq(ssl.PVar(v), ssl.PInt(e.value))], [], v
        if cls is S.Instantiate:
            return self.tx_instantiate(e, target, ren)
        if cls is S.BinOp and e.op == "+":
            p1, s1, v1 = self.tx(e.lhs, ren=ren)
            p2, s2, v2 = self.tx(e.rhs, ren=ren)
            v = self.fresh(False, target)
            eq = ssl.PEq(ssl.PVar(v), ssl.PAdd(ssl.PVar(v1), ssl.PVar(v2)))
            return [eq] + p1 + p2, s1 + s2, v
        if cls is S.BoolLit:
            v = self.fresh(False, target)
            return [ssl.PEq(ssl.PVar(v), ssl.PBool(e.value))], [], v
        raise UnsupportedConstruct(
            f"{type(e).__name__} is outside the core subset",
            getattr(e, "span", None))

    def tx_lower_ctor(self, layout: S.LayoutDef, ctor: S.ConstructorApp,
                      target: Optional[str], ren: dict):
        shape = layout.shapes.get(ctor.name)
        if shape is None:
            raise NoSuchBranch(
                f"layout {layout.name} has no branch for {ctor.name}",
                ctor.span)
        pures, spatials, vals = [], [], {}
        for var, sub in zip(shape.pattern.vars, ctor.args):
            p, s, v = self.tx(sub, ren=ren)
            pures += p
            spatials += s
            vals[var] = v
        root = self.fresh(True, target)
        out = [ssl.PointsTo(root, off, ssl.PVar(vals[payload]))
               for off, payload in shape.cells]
        for var, lname in shape.applies.items():
            v = vals.get(var)
            if v is not None and v in self.seed:
                out.append(ssl.PredApply(lname, (ssl.PVar(v),)))
        return pures, out + spatials, root

    def tx_instantiate(self, e: S.Instantiate, target: Optional[str],
                       ren: dict):
        if len(e.args) != 1 or len(e.arg_layouts) != 1:
            raise UnsupportedConstruct(
                "core instantiation is single-argument", e.span)
        arg_layout = adt_layout(self.env, e.arg_layouts[0], e.span)
        res_layout = resolve_layout_ref(self.env, e.result_layout, e.span)
        res_loc = res_layout.kind in ("adt", "ptr")
        arg = e.args[0]
        if arg.__class__ is S.Lower:
            inner = arg.arg
            if inner.__class__ is S.ConstructorApp or inner.__class__ is S.Var:
                arg = inner
        arg_cls = arg.__class__
        if arg_cls is S.ConstructorApp:
            return self._inst_ctor(e, arg, target, ren)
        if arg_cls is not S.Var and arg_cls is not S.Instantiate:
            raise UnsupportedConstruct(
                f"cannot instantiate on {type(arg).__name__}", e.span)
        # a resident argument: the callee's predicate relates its root to
        # the result
        p, s, v = self.tx(arg, ren=ren)
        r = self.fresh(res_loc, target)
        pred = ssl.PredApply(mangle(e.fn, [arg_layout], res_layout),
                             (ssl.PVar(v), ssl.PVar(r)))
        return p, s + [pred], r

    def _inst_ctor(self, e: S.Instantiate, ctor: S.ConstructorApp,
                   target: Optional[str], ren: dict):
        case = core_cases(self.env, e.fn, e.arg_layouts[0], e.result_layout,
                          e.span).get(ctor.name)
        if case is None:
            raise NoMatchingFnCase(
                f"{e.fn} has no case for constructor {ctor.name}", e.span)
        pat_vars, body = case
        pures, spatials, vals = [], [], []
        for sub in ctor.args:
            p, s, v = self.tx(sub, ren=ren)
            pures += p
            spatials += s
            vals.append(v)
        p, s, r = self.tx(body, target, dict(zip(pat_vars, vals)))
        return p + pures, s + spatials, r


def _retarget(pure, spatial, r: str, target: str, seed) -> tuple:
    """Rename the result ``r``, an existing variable, to ``target``."""
    if r == target:
        return pure, spatial
    if r in seed:
        raise UnsupportedConstruct("cannot retarget a seed variable result")
    ren = {r: ssl.PVar(target)}
    return ([ssl.subst(p, ren) for p in pure],
            [ssl.subst(h, ren) for h in spatial])


def translate_expr_core(env: GlobalEnv, e: S.Expr, free_vars=(),
                        result_var: Optional[str] = None) -> CoreTranslationResult:
    """Translate a core expression relative to the seed variable set.

    ``result_var``, when given, names the result variable: the construct
    that picks the result takes it as its name, and a result that is an
    existing variable is renamed to it."""
    tx = _CoreTx(env, free_vars)
    if result_var is not None:
        tx.used.add(result_var)
    pure, spatial, r = tx.tx(e, result_var)
    if result_var is not None:
        pure, spatial = _retarget(pure, spatial, r, result_var, tx.seed)
        r = result_var
    return CoreTranslationResult(tuple(pure), tuple(spatial), r)


def translate_fn_def_core(env: GlobalEnv, fn: str, arg_ref: S.LayoutRef,
                          result_ref: S.LayoutRef) -> ssl.PredicateDef:
    """The function-definition translation of ``fn`` at
    ``[arg_ref] result_ref``: one predicate branch per case, discriminated
    by the layout condition on the argument root."""
    cases = core_cases(env, fn, arg_ref, result_ref)
    arg_layout = adt_layout(env, arg_ref)
    res_layout = resolve_layout_ref(env, result_ref)
    x = arg_layout.layout.ssl_params[0]
    r = "r" if x != "r" else "r0"
    branches = []
    for ctor, (pat_vars, body) in cases.items():
        c = cond(arg_layout.layout, ctor, var=x)
        params = [f"p{i + 1}" for i in range(len(pat_vars))]
        tx = _CoreTx(env, ())
        tx.used.update([x, r] + params)
        pure, spatial, rv = tx.tx(body, r, dict(zip(pat_vars, params)))
        pure, spatial = _retarget(pure, spatial, rv, r, tx.seed)
        branches.append(ssl.Branch(c, ssl.SslAssertion.make(pure, spatial)))
    name = mangle(fn, [arg_layout], res_layout)
    return ssl.PredicateDef(name, ((x, "loc"), (r, res_layout.sort)),
                            tuple(branches))


# ---------------------------------------------------------------------------
# Production pipeline
# ---------------------------------------------------------------------------

class _CopyCall(Node):
    """Stage-4 marker: result produced by copying an argument structure."""
    __slots__ = ("src", "layout", "span")
    _hidden = Node._hidden - {"span"}


class _Term(Node):
    """Stage-6 marker: a value already translated to a pure term."""
    __slots__ = ("term",)


class _Arm(Node):
    """One guarded body of a function, with what the stages find for it."""
    __slots__ = ("args", "guard", "lets", "body", "destructure", "pure",
                 "calls", "result_cells", "temps", "guard_term")

    def __init__(self, args: list, guard: Optional[S.Expr], lets: list,
                 body: S.Expr):
        self.args = args
        self.guard = guard
        self.lets = lets                # [(binder, bound expr)] in order
        self.body = body
        self.destructure = []           # spatial heaplets
        self.pure = []
        self.calls = []
        self.result_cells = []
        self.temps = []
        self.guard_term = None

    def assertion(self) -> ssl.SslAssertion:
        """The branch body the stages found: stage 6's translation.  The
        stages write no ``true`` conjunct and no ``emp`` heaplet, so
        nothing is left for ``SslAssertion.make`` to drop."""
        return ssl.SslAssertion(
            tuple(self.pure),
            tuple(self.destructure + self.calls + self.result_cells
                  + self.temps))


class CompileResult(Node):
    __slots__ = ("predicate", "layout_preds", "ro_preds", "copy_preds",
                 "extra_preds", "goal")

    @property
    def name(self) -> str:
        return self.predicate.name

    def all_predicates(self) -> list:
        return (self.layout_preds + self.ro_preds + self.copy_preds
                + self.extra_preds + [self.predicate])

    def render(self, with_goal: bool = False) -> str:
        parts = [ssl.emit_predicate(p) for p in self.all_predicates()]
        if with_goal:
            parts.append(ssl.emit_goal_spec(self.goal))
        return "\n".join(parts)


def _expr_vars(e: S.Expr, out: set, calls: Optional[set] = None,
               fn: Optional[str] = None) -> set:
    """``out`` with the variables ``e`` reads added, a let binding its name
    in its body.  With ``calls``, the variables ``e`` passes directly to an
    instantiation of a function other than ``fn`` are added there, in the
    same walk."""
    stack = [e]
    while stack:
        e = stack.pop()
        cls = e.__class__
        if cls is S.Var:
            out.add(e.name)
        elif cls is S.Addr:
            out.add(e.var)
        elif cls is S.Let:
            inner = _expr_vars(e.body, set(), calls, fn)
            inner.discard(e.name)
            out |= inner
            stack.append(e.bound)
        else:
            if cls is S.Instantiate and calls is not None and e.fn != fn:
                calls.update([a.name for a in e.args if a.__class__ is S.Var])
            stack += S.subexprs(e)
    return out


def _put_terms(e: S.Expr, terms: dict) -> S.Expr:
    """``e`` with each variable named in ``terms`` replaced by its marker."""
    if isinstance(e, S.Var) and e.name in terms:
        return terms[e.name]
    if isinstance(e, S.Addr):
        # the address would be looked up among the caller's cells
        raise UnsupportedConstruct("inlined body is not a pure expression",
                                   e.span)
    return S.map_expr(e, lambda x: _put_terms(x, terms))


def _has_calls(e: S.Expr) -> bool:
    return any(x.__class__ is S.App or x.__class__ is S.Instantiate
               for x in S.iter_subexprs(e))


# the kinds an arm's result translates to a pure term from
_PURE_KINDS = frozenset((S.IntLit, S.BoolLit, S.Var, S.BinOp, S.Not,
                         S.IfThenElse, S.Addr))


class _FnTranslator:
    """Translates one elaborated function; shared fresh-name counters.  A
    translator of a function that ``caller`` calls adds what it uses to the
    caller's sets, so a directive's translator collects what its output
    needs."""

    def __init__(self, prog: TypedProgram, elab: ElabFn,
                 caller: Optional[_FnTranslator] = None):
        self.prog = prog
        self.env = prog.env
        self.elab = elab
        self.fn = elab.name
        self.counter = len(elab.arg_layouts)    # numbers after the params
        self.temp_counter = 0
        self.pred_name = mangle(elab.name, elab.arg_layouts, elab.result_layout)
        if caller is None:
            # extra_fns: mangled name -> predicate of each specialisation
            self.ro_layouts, self.copy_layouts, self.extra_fns = set(), set(), {}
        else:
            self.ro_layouts = caller.ro_layouts
            self.copy_layouts = caller.copy_layouts
            self.extra_fns = caller.extra_fns
        self.arms = [_Arm(case.args, case.guard, [], case.body)
                     for case in elab.cases]

    # -- the per-arm passes of stages 2-6, run in the order of STAGES --

    def null_empty(self, arm: _Arm):
        arm.body = self._null_empty(arm.body)

    def _null_empty(self, e: S.Expr) -> S.Expr:
        if e.__class__ is S.Lower and e.arg.__class__ is S.ConstructorApp \
                and not e.arg.args:
            resolved = resolve_layout_ref(self.env, e.layout)
            if resolved.kind == "adt":
                shape = resolved.layout.shapes.get(e.arg.name)
                if shape is not None and shape.empty:
                    return S.IntLit(0, e.span)
        return S.map_expr(e, self._null_empty)

    def destructure(self, arm: _Arm):
        # the variables the arm reads, and those it passes directly to
        # calls of other functions
        fn_args = set()
        used = _expr_vars(arm.body, set(), fn_args, self.fn)
        if arm.guard is not None:
            _expr_vars(arm.guard, used)
        for arg in arm.args:
            arm.destructure.extend(self._destructure(arg, used, fn_args))

    def _destructure(self, arg: ElabArg, used: set, fn_args: set) -> list:
        if arg.pattern is None or arg.layout.kind != "adt":
            return []
        layout = arg.layout.layout
        ctor, pat_vars = arg.pattern
        shape = layout.shapes.get(ctor)
        if shape is None or shape.empty:
            return []
        if not (set(pat_vars) & used) and arg.layout.mode == "readonly":
            # matched but unused: assert the whole structure read-only
            self.ro_layouts.add(layout.name)
            return [ssl.RoApply(f"ro_{layout.name}", (ssl.PVar(arg.ssl_name),))]
        sub = dict(zip(shape.pattern.vars, pat_vars))
        out = [ssl.PointsTo(arg.ssl_name, off, ssl.PVar(sub[payload]))
               for off, payload in shape.cells]
        if shape.size:
            out.append(ssl.Block(arg.ssl_name, shape.size))
        for lname, var in arg.applies:
            # a nested structure keeps a read-only assertion only when it
            # flows opaquely into another function's argument
            if var not in fn_args:
                continue
            self.ro_layouts.add(lname)
            out.append(ssl.RoApply(f"ro_{lname}", (ssl.PVar(var),)))
        return out

    def insert_copy(self, arm: _Arm):
        if isinstance(arm.body, S.Lower) and isinstance(arm.body.arg, S.Var):
            resolved = resolve_layout_ref(self.env, arm.body.layout)
            if resolved.kind == "adt":
                self.copy_layouts.add(resolved.layout.name)
                arm.body = _CopyCall(arm.body.arg.name, resolved.layout,
                                     arm.body.span)

    def split_lets(self, arm: _Arm):
        body = arm.body
        while isinstance(body, S.Let):
            arm.lets.append((body.name, body.bound))
            body = body.body
        arm.body = body

    def unfold(self, arm: _Arm):
        _ArmTx(self, arm).run()

    def apply(self, stage: _Stage):
        """Run one stage's pass over every arm, in arm order."""
        if stage.arm_pass is not None:
            for arm in self.arms:
                stage.arm_pass(self, arm)

    # -- stage 7 --

    def assemble(self) -> ssl.PredicateDef:
        """The predicate: one branch per arm, under its branch condition."""
        branches = []
        for arm in self.arms:
            empties, non_empties = [], []
            for arg in arm.args:
                if arg.pattern is None or arg.layout.kind != "adt":
                    continue
                layout = arg.layout.layout
                ctor, _ = arg.pattern
                c = cond(layout, ctor, var=arg.ssl_name,
                         allow_guarded=arm.guard is not None)
                if c is ssl.TRUE:
                    continue
                (empties if c.__class__ is ssl.PEq else non_empties).append(c)
            parts = empties + non_empties
            if arm.guard_term is not None:
                parts.append(arm.guard_term)
            branches.append(ssl.Branch(ssl.pand_all(parts), arm.assertion()))
        elab = self.elab
        params = tuple((a.ssl_name, a.layout.sort) for a in elab.cases[0].args) \
            + ((elab.result_name, elab.result_layout.sort),)
        return ssl.PredicateDef(self.pred_name, params, tuple(branches))

    def run(self) -> ssl.PredicateDef:
        for stage in STAGES:
            self.apply(stage)
        return self.assemble()

    # -- helpers shared with the arm translator --

    def fresh_value(self, sort_loc_adt: str) -> str:
        n = self.counter
        self.counter += 1
        return f"__p_x{n}" if sort_loc_adt == "adt" else f"__p_{n}"

    def fresh_temp(self) -> str:
        t = f"__temp_{self.temp_counter}"
        self.temp_counter += 1
        return t


class _ArmTx:
    """Stage-6 ANF translation of one arm."""

    def __init__(self, fn_tx: _FnTranslator, arm: _Arm):
        self.t = fn_tx
        self.env = fn_tx.env
        self.arm = arm
        self.adt_alias: dict = {}        # let binder -> ANF variable
        self.produced: dict = {}         # ANF var -> loc-sorted call output?
        self.produced_kind: dict = {}    # call output -> "pred" or "func"
        self.consumed_by_call: set = set()
        self.pure_lets: list = []
        self.pure_result: list = []
        self.pure_fields: list = []
        self.pure_temps: list = []

    def run(self):
        arm = self.arm
        if arm.guard is not None:
            if _has_calls(arm.guard):
                raise UnsupportedConstruct("calls in guards are not supported",
                                           getattr(arm.guard, "span", None),
                                           rule="T-GUARD")
            arm.guard_term = self.value_of(arm.guard, spatial_adt=False)
        for binder, bound in arm.lets:
            term = self.value_of(bound, spatial_adt=False)
            self.pure_lets.append(ssl.PEq(ssl.PVar(binder), term))
            if isinstance(term, ssl.PVar) and term.name in self.produced \
                    and self.produced[term.name]:
                self.adt_alias[binder] = term.name
        self.tx_result(arm.body)
        cell_vars = set()
        for h in arm.result_cells:
            if isinstance(h, ssl.PointsTo):
                cell_vars |= ssl.free_vars(h.value)
        for var, loc_sorted in self.produced.items():
            if loc_sorted and var in self.consumed_by_call \
                    and var not in cell_vars:
                arm.temps.append(ssl.TempLoc(var))
        arm.pure = (self.pure_lets + self.pure_result + self.pure_fields
                    + self.pure_temps)

    # -- result position --

    def tx_result(self, e: S.Expr):
        arm = self.arm
        result = self.t.elab.result_name
        cls = e.__class__
        if cls is _CopyCall:
            name = f"{e.layout.name}__copy"
            arm.calls.append(ssl.FuncApply(name, (ssl.PVar(e.src),
                                                  ssl.PVar(result))))
            return
        if cls is S.Lower and e.arg.__class__ is S.ConstructorApp:
            resolved = resolve_layout_ref(self.env, e.layout)
            if resolved.kind != "adt":
                raise NonConstructibleBody("lowering at a base layout",
                                           e.span)
            self.build_ctor(resolved.layout, e.arg, result)
            return
        if cls is S.Instantiate:
            out = self.emit_call(e, out_var=result)
            if out is not None:             # the call inlined to a pure term
                self.tx_result_pure(out)
            return
        if cls in _PURE_KINDS:
            self.tx_result_pure(self.value_of(e, spatial_adt=False))
            return
        raise NonConstructibleBody(
            f"arm result is not constructible at the result layout "
            f"({type(e).__name__})", getattr(e, "span", None))

    def tx_result_pure(self, term: ssl.PureTerm):
        elab = self.t.elab
        if elab.result_layout.kind == "ptr":
            self.arm.result_cells.append(
                ssl.PointsTo(elab.result_name, 0, term))
        else:
            self.pure_result.append(ssl.PEq(ssl.PVar(elab.result_name), term))

    def build_ctor(self, layout: S.LayoutDef, ctor: S.ConstructorApp,
                   root: str):
        arm = self.arm
        shape = layout.shapes.get(ctor.name)
        if shape is None:
            raise NoSuchBranch(f"layout {layout.name} has no branch for "
                               f"{ctor.name}", ctor.span)
        values = {}
        for var, sub in zip(shape.pattern.vars, ctor.args):
            off = shape.offsets.get(var)
            if off is None:
                raise NonConstructibleBody(
                    f"field {var} of {ctor.name} has no cell in layout "
                    f"{layout.name}", ctor.span)
            values[var] = self.field_value(sub, root, off)
            if values[var] is None and \
                    sum(payload == var for _, payload in shape.cells) > 1:
                raise NonConstructibleBody(
                    f"field {var} of {ctor.name} is a call output stored "
                    f"twice in layout {layout.name}", ctor.span)
        cells = [ssl.PointsTo(root, off, values[payload])
                 for off, payload in shape.cells
                 if values.get(payload) is not None]
        cells.append(ssl.Block(root, shape.size))
        if root == self.t.elab.result_name:
            arm.result_cells.extend(cells)
        else:
            arm.calls.extend(cells)

    def field_value(self, e: S.Expr, root: str, off: int):
        """The cell payload for a constructor field; None when the field is
        connected through a pure output-location equality instead."""
        if isinstance(e, S.Instantiate):
            out = self.emit_call(e)
            if isinstance(out, ssl.PVar) and out.name in self.produced \
                    and self.produced_kind.get(out.name) == "func":
                loc_term = ssl.PVar(root) if off == 0 \
                    else ssl.PAdd(ssl.PVar(root), ssl.PInt(off))
                self.pure_fields.append(ssl.PEq(loc_term, out))
                return None
            return out
        return self.value_of(e, spatial_adt=True)

    # -- value positions --

    def value_of(self, e: S.Expr, spatial_adt: bool) -> ssl.PureTerm:
        cls = e.__class__
        if cls is S.Var:
            if spatial_adt and e.name in self.adt_alias:
                return ssl.PVar(self.adt_alias[e.name])
            return ssl.PVar(e.name)
        if cls is S.IntLit:
            return ssl.PInt(e.value)
        if cls is S.BinOp:
            lhs, rhs = self.value_of(e.lhs, False), self.value_of(e.rhs, False)
            if e.op == "||":
                # a || b  ==  not (not a && not b); emitted syntax has no ||
                return ssl.PNot(ssl.PAnd(ssl.PNot(lhs), ssl.PNot(rhs)))
            return ssl.BINARY_OPS[e.op](lhs, rhs)
        if cls is S.Instantiate:
            return self.emit_call(e)
        if cls is S.Lower:
            if e.arg.__class__ is S.ConstructorApp:
                resolved = resolve_layout_ref(self.env, e.layout)
                root = self.t.fresh_value("adt")
                self.produced[root] = False   # materialised, not a call output
                self.build_ctor(resolved.layout, e.arg, root)
                return ssl.PVar(root)
            return self.value_of(e.arg, spatial_adt)
        if cls is S.BoolLit:
            return ssl.PBool(e.value)
        if cls is S.Addr:
            return self.addr_term(e)
        if cls is S.Not:
            return ssl.PNot(self.value_of(e.arg, False))
        if cls is S.IfThenElse:
            return ssl.PTernary(self.value_of(e.cond, False),
                                self.value_of(e.then, False),
                                self.value_of(e.els, False))
        if cls is _Term:
            return e.term
        raise NonConstructibleBody(
            f"cannot translate {type(e).__name__} in value position",
            getattr(e, "span", None))

    def addr_term(self, e: S.Addr) -> ssl.PureTerm:
        for arg in self.arm.args:
            if e.var in arg.offsets:
                off = arg.offsets[e.var]
                if off == 0:
                    return ssl.PVar(arg.ssl_name)
                return ssl.PAdd(ssl.PVar(arg.ssl_name), ssl.PInt(off))
        name = next((arg.source_name for arg in self.arm.args
                     if arg.ssl_name == e.var), e.var)
        raise NonConstructibleBody(
            f"addr {name}: variable has no heap cell", e.span, rule="T-ADDR")

    # -- calls --

    def emit_call(self, e: S.Instantiate, out_var: Optional[str] = None):
        env = self.env
        arg_layouts = [resolve_layout_ref(env, r, e.span)
                       for r in e.arg_layouts]
        res_layout = resolve_layout_ref(env, e.result_layout, e.span)
        recursive = e.fn == self.t.fn
        if not recursive:
            inline = self._inlinable(e.fn)
            if inline is not None:
                return self._inline(*inline, e.args)
            name = mangle(e.fn, arg_layouts, res_layout)
            if e.fn in env.specialised:
                self._ensure_extra(name, e)

        slot = len(self.arm.calls)
        self.arm.calls.append(None)
        args = []
        for a, lay in zip(e.args, arg_layouts):
            if lay.kind == "adt":
                term = self.value_of(a, spatial_adt=True)
            else:
                term = self.value_of(a, spatial_adt=False)
            if isinstance(term, ssl.PVar) and term.name in self.produced:
                self.consumed_by_call.add(term.name)
            args.append(term)

        if out_var is not None:
            out = out_var
        else:
            loc_sorted = res_layout.sort == "loc"
            out = self.t.fresh_value("adt" if res_layout.kind == "adt"
                                     else ("ptr" if loc_sorted else "int"))
            self.produced[out] = loc_sorted
        if recursive:
            name = self.t.pred_name
            if out_var is None and res_layout.sort == "int":
                temp = self.t.fresh_temp()
                self.pure_temps.append(ssl.PEq(ssl.PVar(temp), ssl.PVar(out)))
                heaplet = ssl.PredApply(name, tuple(args) + (ssl.PVar(temp),))
            else:
                heaplet = ssl.PredApply(name, tuple(args) + (ssl.PVar(out),))
            self.produced_kind[out] = "pred"
        else:
            heaplet = ssl.FuncApply(name, tuple(args) + (ssl.PVar(out),))
            self.produced_kind[out] = "func"
        self.arm.calls[slot] = heaplet
        if out_var is not None:
            return None
        return ssl.PVar(out)

    def _inlinable(self, fn: str):
        """The parameters and body of an all-base-type defined function, or
        None when the call must stay abstract."""
        if fn not in self.env.fn_defs or fn not in self.env.fn_sigs:
            return None
        params, result = uncurry(self.env.fn_sigs[fn])
        if any(isinstance(p, (S.TName, S.TFn)) for p in params) \
                or isinstance(result, (S.TName, S.TFn)):
            return None
        cases = self.env.fn_defs[fn]
        if len(cases) != 1:
            return None
        case = cases[0]
        if any(p.ctor is not None for p in case.patterns):
            return None
        if len(case.guarded_bodies) != 1 or case.guarded_bodies[0][0] is not None:
            return None
        body = case.guarded_bodies[0][1]
        if _has_calls(body):
            return None
        return [p.var for p in case.patterns], body

    def _inline(self, params: list, body: S.Expr, args: list) -> ssl.PureTerm:
        """The pure term of an inlined call.  Each argument is translated
        once, so an argument that is a call emits one ``func`` heaplet
        however often its parameter occurs."""
        terms = {p: _Term(self.value_of(a, False)) for p, a in zip(params, args)}
        return self.value_of(_put_terms(body, terms), False)

    def _ensure_extra(self, name: str, e: S.Instantiate):
        """Translate the specialisation ``e`` calls, named ``name``, once."""
        extra = self.t.extra_fns
        if name in extra:
            return
        extra[name] = None              # reserve against recursion
        elab = elaborate_fn_at(self.env, e.fn, e.arg_layouts, e.result_layout)
        extra[name] = _FnTranslator(self.t.prog, elab, self.t).run()


# ---------------------------------------------------------------------------
# Directive compilation
# ---------------------------------------------------------------------------

def _translator(prog: TypedProgram, fn: str) -> _FnTranslator:
    if fn not in prog.fns:
        raise UnboundVariable(f"{fn} was not elaborated (missing directive?)")
    return _FnTranslator(prog, prog.fns[fn])


def compile_directive(prog: TypedProgram, fn: str) -> CompileResult:
    tx = _translator(prog, fn)
    return _compile_result(tx, tx.run())


def _compile_result(tx: _FnTranslator, predicate: ssl.PredicateDef
                    ) -> CompileResult:
    """The translated predicate with the auxiliary predicates it uses and
    its synthesis goal."""
    elab, env = tx.elab, tx.env
    arg_layouts = [lay.layout.name for lay in elab.arg_layouts
                   if lay.kind == "adt"]
    layout_preds = [translate_layout_predicate(env.layouts[name])
                    for name in _applied_closure(env, arg_layouts)]
    ro_preds = [translate_layout_predicate(env.layouts[name], ro=True)
                for name in _applied_closure(env, sorted(tx.ro_layouts))]
    copy_preds = [copy_predicate(env.layouts[name])
                  for name in _applied_closure(env, sorted(tx.copy_layouts))]
    goal = make_goal_spec(elab, predicate.name)
    return CompileResult(predicate, layout_preds, ro_preds, copy_preds,
                         list(tx.extra_fns.values()), goal)


def _applied_closure(env: GlobalEnv, names) -> list:
    """``names`` and every layout their branches apply, transitively: each
    name once, in the order first reached."""
    out = list(dict.fromkeys(names))
    for name in out:                    # ``out`` grows as the walk goes
        for shape in env.layouts[name].shapes.values():
            for lname in shape.applies.values():
                if lname not in out:
                    out.append(lname)
    return out


def make_goal_spec(elab: ElabFn, pred_name: str) -> ssl.GoalSpec:
    params, pre, post, pred_args = [], [], [], []
    for i, lay in enumerate(elab.arg_layouts, 1):
        pname = f"x{i}"
        params.append(("loc", pname))
        if lay.kind == "adt":
            arg = ssl.PVar(pname)
            pre.append(ssl.PredApply(lay.layout.name, (arg,)))
        else:
            # a base value is passed in a cell, which it leaves as it was
            arg = ssl.PVar(f"v{i}")
            cell = ssl.PointsTo(pname, 0, arg)
            pre.append(cell)
            post.append(cell)
        pred_args.append(arg)
    params.append(("loc", "r"))
    pre.append(ssl.PointsTo("r", 0, _NULL))
    result = ssl.PVar("r0")
    post.insert(0, ssl.PredApply(pred_name, (*pred_args, result)))
    post.append(ssl.PointsTo("r", 0, result))
    return ssl.GoalSpec(elab.name, tuple(params),
                        ssl.SslAssertion((), tuple(pre)),
                        ssl.SslAssertion((), tuple(post)))


# ---------------------------------------------------------------------------
# The stages and their snapshots
# ---------------------------------------------------------------------------

def _render_body(arm: _Arm) -> str:
    """An arm's body expression; a stage-4 copy marker as its call."""
    if isinstance(arm.body, _CopyCall):
        return f"func {arm.body.layout.name}__copy({arm.body.src}, ...)"
    return S.render_expr(arm.body)


def _pattern_text(arg: ElabArg, annotated: bool) -> str:
    """An argument's pattern as written; a constructor pattern over a layout
    is annotated with it when ``annotated``."""
    if arg.pattern is None:
        return arg.source_name or arg.ssl_name
    ctor, vars_ = arg.pattern
    pat = f"({ctor} {' '.join(vars_)})" if vars_ else f"({ctor})"
    if annotated and arg.layout.kind == "adt":
        return f"({arg.layout.layout.name}[{arg.layout.mode} ; " \
               f"{arg.ssl_name}] {pat})"
    return pat


def _render_arm_head(fn: str, arm: _Arm, annotated: bool) -> str:
    return " ".join([fn] + [_pattern_text(a, annotated) for a in arm.args])


def _layout_annotation(elab: ElabFn, arm: _Arm) -> str:
    """The stage-3 heaplet annotation of an arm of ``elab``, written over
    the layout binders.  With no binder cells it says only what a null
    result already says."""
    chunks = []
    for arg in arm.args:
        if arg.pattern is None or arg.layout.kind != "adt":
            continue
        layout = arg.layout.layout
        ctor, pat_vars = arg.pattern
        shape = layout.shapes.get(ctor)
        if shape is None or shape.empty:
            continue
        sub = dict(zip(shape.pattern.vars, pat_vars))
        arrow = ":=>" if arg.layout.mode == "readonly" else ":->"
        root = layout.ssl_params[0]
        for off, payload in shape.cells:
            chunks.append(f"{S.render_loc(root, off)} {arrow} {sub[payload]}")
    if not chunks:
        if arm.body.__class__ is S.IntLit \
                and elab.result_layout.kind == "adt":
            return f"{elab.result_name} == 0 ; emp"
        return "emp"
    return ", ".join(chunks)


def _render_lets(arm: _Arm) -> str:
    """An arm's stage-5 let equalities followed by its body."""
    eqs = [f"{b} == ({S.render_expr(e)})" for b, e in arm.lets]
    return ", ".join(eqs + [_render_body(arm)])


def _render_assertion(arm: _Arm) -> str:
    return f"layout{{ {ssl.render_assertion(arm.assertion())} }}"


class _Stage:
    """One translation stage before generation, and how its snapshot
    renders the arms after it."""
    # not a NamedTuple: with string annotations, making one costs about
    # 0.2 ms at import (Python 3.11), 4% of compile_corpus's setup_s

    def __init__(self, title, arm_pass, annotated, layout_ann, body_of,
                 applies=None):
        self.title = title
        self.arm_pass = arm_pass        # over one arm; None: elaborated
        self.annotated = annotated      # patterns carry their layout
        self.layout_ann = layout_ann    # bodies carry the stage-3 annotation
        self.body_of = body_of          # the body renderer
        self.applies = applies          # None, or a test of one arm: if no
                                        # arm passes, "Not applicable."

    def render(self, tx: _FnTranslator) -> str:
        """The snapshot of ``tx``'s arms after this stage's pass."""
        arms = tx.arms
        if self.applies is not None and not any(map(self.applies, arms)):
            return "Not applicable."
        lines = []
        for arm in arms:
            head = _render_arm_head(tx.fn, arm, self.annotated)
            body = self.body_of(arm)
            if self.layout_ann:
                body = (f"layout{{ {_layout_annotation(tx.elab, arm)} }}\n"
                        f"    & {body}")
            if arm.guard is not None:
                lines.append(head)
                lines.append(f"  | {S.render_expr(arm.guard)} := {body};")
            else:
                lines.append(f"{head} := {body};")
        return "\n".join(lines)


STAGES = (
    _Stage("Type checking and elaboration.",
           None, True, False, _render_body),
    _Stage("Unfold empty constructors.",
           _FnTranslator.null_empty, True, False, _render_body),
    _Stage("Unfold pattern matches using layouts.",
           _FnTranslator.destructure, False, True, _render_body),
    _Stage("Insert copying predicate applications.",
           _FnTranslator.insert_copy, False, True, _render_body,
           lambda arm: isinstance(arm.body, _CopyCall)),
    _Stage("Translate lets.",
           _FnTranslator.split_lets, False, True, _render_lets,
           lambda arm: arm.lets),
    _Stage("Unfold constructor applications.",
           _FnTranslator.unfold, False, False, _render_assertion),
)
STAGE_TITLES = [stage.title for stage in STAGES] + ["Generation."]


def dump_stages(prog: TypedProgram, fn: str) -> list:
    """Textual snapshots of the translation stages for one function: each
    of ``STAGES`` in turn, then the generated predicates."""
    tx = _translator(prog, fn)
    out = []
    for stage in STAGES:
        tx.apply(stage)
        out.append((stage.title, stage.render(tx)))
    out.append((STAGE_TITLES[-1],
                _compile_result(tx, tx.assemble()).render()))
    return out
