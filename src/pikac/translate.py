"""Translation to SSL: the production pipeline and the formal core.

The production pipeline turns an elaborated function and its directive into
an inductive predicate (plus auxiliary layout / read-only / copy
predicates and a synthesis goal).  Its stages are declared once, in
``STAGES``: each row holds a stage's title, its pass over one arm and how
``pikac stages`` renders the arms after it.  ``_FnTranslator.assemble``
then generates the branch conditions and assembles the predicate.

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
    AmbiguousBranches, NonConstructibleBody, NoSuchBranch, UnboundVariable,
    UnsupportedConstruct,
)
from .node import Node
from .types import (
    ElabArg, ElabFn, GlobalEnv, ResolvedLayout, TypedProgram,
    elaborate_fn_at, resolve_layout_ref, uncurry,
)


# ---------------------------------------------------------------------------
# Branch discrimination
# ---------------------------------------------------------------------------

def _branch_is_empty(heaplets) -> bool:
    return all(isinstance(h, S.HEmp) for h in heaplets)


def cond(layout: S.LayoutDef, ctor: str, var: Optional[str] = None,
         allow_guarded: bool = False) -> ssl.PureTerm:
    """The Boolean discriminator for a layout branch under the null
    encoding: empty branches test the root against 0, non-empty branches
    test it against non-0.  Raises when the layout has a branch set the
    encoding cannot discriminate."""
    heaplets = layout.branch_for(ctor)
    if heaplets is None:
        raise NoSuchBranch(f"layout {layout.name} has no branch for {ctor}")
    var = var or layout.ssl_params[0]
    if len(layout.branches) == 1:
        return ssl.TRUE
    empties, non_empties = layout.emptiness
    if len(empties) > 1 or (len(non_empties) > 1 and not allow_guarded):
        raise AmbiguousBranches(
            f"layout {layout.name} has indistinguishable branches "
            f"({', '.join(p.ctor for p in empties + non_empties)})")
    root_null = ssl.PEq(ssl.PVar(var), ssl.PInt(0))
    if _branch_is_empty(heaplets):
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
    for pat, heaplets in layout.branches:
        c = cond(layout, pat.ctor)
        spatial = []
        for h in heaplets:
            if isinstance(h, S.HPointsTo):
                spatial.append(ssl.PointsTo(h.base, h.offset, ssl.PVar(h.payload)))
        n = layout.shapes[pat.ctor].size
        if n:
            spatial.append(ssl.Block(root, n))
        for h in heaplets:
            if isinstance(h, S.HApply):
                target = f"ro_{h.layout}" if ro else h.layout
                cls = ssl.RoApply if ro else ssl.PredApply
                spatial.append(cls(target, (ssl.PVar(h.arg),)))
        branches.append(ssl.Branch(c, ssl.SslAssertion.make((), spatial)))
    return ssl.PredicateDef(pred_name, ((root, "loc"),), tuple(branches))


def copy_predicate(env: GlobalEnv, layout: S.LayoutDef,
                   registry: dict) -> ssl.PredicateDef:
    """A structural deep-copy predicate ``<Layout>__copy(src, dst)``."""
    name = f"{layout.name}__copy"
    if name in registry:
        return registry[name]
    branches = []
    for pat, heaplets in layout.branches:
        c = cond(layout, pat.ctor, var="src")
        if _branch_is_empty(heaplets):
            body = ssl.SslAssertion.make(
                (ssl.PEq(ssl.PVar("dst"), ssl.PInt(0)),), ())
            branches.append(ssl.Branch(c, body))
            continue
        spatial = []
        dst_sub = {}
        applies = {h.arg: h.layout for h in heaplets if isinstance(h, S.HApply)}
        for h in heaplets:
            if isinstance(h, S.HPointsTo):
                spatial.append(ssl.PointsTo("src", h.offset, ssl.PVar(h.payload)))
        n = layout.shapes[pat.ctor].size
        spatial.append(ssl.Block("src", n))
        for h in heaplets:
            if isinstance(h, S.HPointsTo):
                if h.payload in applies:
                    copy_var = f"{h.payload}1"
                    dst_sub[h.payload] = copy_var
                    spatial.append(ssl.PointsTo("dst", h.offset,
                                                ssl.PVar(copy_var)))
                else:
                    spatial.append(ssl.PointsTo("dst", h.offset,
                                                ssl.PVar(h.payload)))
        spatial.append(ssl.Block("dst", n))
        for var, lname in applies.items():
            sub_layout = env.layouts[lname]
            sub_name = f"{sub_layout.name}__copy"
            if sub_name not in registry:
                registry[sub_name] = None      # reserve against recursion
                registry[sub_name] = copy_predicate(env, sub_layout, registry)
            spatial.append(ssl.FuncApply(sub_name,
                                         (ssl.PVar(var), ssl.PVar(dst_sub[var]))))
        branches.append(ssl.Branch(c, ssl.SslAssertion.make((), spatial)))
    pred = ssl.PredicateDef(name, (("src", "loc"), ("dst", "loc")),
                            tuple(branches))
    registry[name] = pred
    return pred


# ---------------------------------------------------------------------------
# Name mangling
# ---------------------------------------------------------------------------

def mangle(fn: str, arg_layouts, result_layout: ResolvedLayout) -> str:
    tags = [result_layout.tag(result=True)] + [a.tag() for a in arg_layouts]
    return "__".join([fn] + tags)


# ---------------------------------------------------------------------------
# Core translation (restricted subset)
# ---------------------------------------------------------------------------

class CoreTranslationResult(Node):
    # pure: conjuncts; used_vars: frozenset
    __slots__ = ("pure", "spatial", "used_vars", "result_var")

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

    def adt_layout(self, ref: S.LayoutRef, span=None) -> ResolvedLayout:
        resolved = resolve_layout_ref(self.env, ref, span)
        if not resolved.is_adt:
            raise UnsupportedConstruct("base-type layout in core translation",
                                       span)
        return resolved

    def tx(self, e: S.Expr, target: Optional[str] = None,
           ren=MappingProxyType({})):
        """Returns (pure conjuncts, spatial heaplets, result var).  A new
        result is named ``target`` when given; an existing variable keeps
        its name.  Variables are read through ``ren``, which maps a callee
        body's pattern variables to the argument values."""
        if isinstance(e, S.IntLit):
            v = self.fresh(False, target)
            return [ssl.PEq(ssl.PVar(v), ssl.PInt(e.value))], [], v
        if isinstance(e, S.BoolLit):
            v = self.fresh(False, target)
            return [ssl.PEq(ssl.PVar(v), ssl.PBool(e.value))], [], v
        if isinstance(e, S.Var):
            name = ren.get(e.name, e.name)
            self.used.add(name)
            return [], [], name
        if isinstance(e, S.BinOp) and e.op == "+":
            p1, s1, v1 = self.tx(e.lhs, ren=ren)
            p2, s2, v2 = self.tx(e.rhs, ren=ren)
            v = self.fresh(False, target)
            eq = ssl.PEq(ssl.PVar(v), ssl.PAdd(ssl.PVar(v1), ssl.PVar(v2)))
            return [eq] + p1 + p2, s1 + s2, v
        if isinstance(e, S.Lower):
            resolved = self.adt_layout(e.layout, e.span)
            arg = e.arg
            if isinstance(arg, S.ConstructorApp):
                return self.tx_lower_ctor(resolved.layout, arg, target, ren)
            if isinstance(arg, S.Var):
                name = ren.get(arg.name, arg.name)
                self.used.add(name)
                if name in self.seed:
                    pred = ssl.PredApply(resolved.layout.name,
                                         (ssl.PVar(name),))
                    return [], [pred], name
                # structure already described where the variable was bound
                return [], [], name
            if isinstance(arg, S.Instantiate):
                return self.tx(arg, target, ren)
            raise UnsupportedConstruct(
                f"cannot lower {type(arg).__name__} in the core subset", e.span)
        if isinstance(e, S.Instantiate):
            return self.tx_instantiate(e, target, ren)
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
        out = []
        for h in shape.heaplets:
            if isinstance(h, S.HPointsTo):
                out.append(ssl.PointsTo(root, h.offset,
                                        ssl.PVar(vals[h.payload])))
            elif isinstance(h, S.HApply):
                v = vals.get(h.arg)
                if v is not None and v in self.seed:
                    out.append(ssl.PredApply(h.layout, (ssl.PVar(v),)))
        return pures, out + spatials, root

    def tx_instantiate(self, e: S.Instantiate, target: Optional[str],
                       ren: dict):
        if len(e.args) != 1 or len(e.arg_layouts) != 1:
            raise UnsupportedConstruct(
                "core instantiation is single-argument", e.span)
        arg_layout = self.adt_layout(e.arg_layouts[0], e.span)
        res_layout = resolve_layout_ref(self.env, e.result_layout, e.span)
        res_loc = res_layout.is_adt or res_layout.kind == "ptr"
        arg = e.args[0]
        if isinstance(arg, S.Lower):
            inner = arg.arg
            if isinstance(inner, (S.ConstructorApp, S.Var)):
                arg = inner
        if isinstance(arg, S.Var):
            name = ren.get(arg.name, arg.name)
            self.used.add(name)
            r = self.fresh(res_loc, target)
            pred = ssl.PredApply(self._pred_name(e.fn, arg_layout, res_layout),
                                 (ssl.PVar(name), ssl.PVar(r)))
            return [], [pred], r
        if isinstance(arg, S.ConstructorApp):
            return self._inst_ctor(e.fn, arg_layout, res_layout, arg, e.span,
                                   target, ren)
        if isinstance(arg, S.Instantiate):
            p1, s1, r1 = self.tx(arg, ren=ren)
            r2 = self.fresh(res_loc, target)
            pred = ssl.PredApply(self._pred_name(e.fn, arg_layout, res_layout),
                                 (ssl.PVar(r1), ssl.PVar(r2)))
            return p1, s1 + [pred], r2
        raise UnsupportedConstruct(
            f"cannot instantiate on {type(arg).__name__}", e.span)

    def _pred_name(self, fn, arg_layout, res_layout) -> str:
        return mangle(fn, [arg_layout], res_layout)

    def _inst_ctor(self, fn, arg_layout, res_layout, ctor: S.ConstructorApp,
                   span, target: Optional[str], ren: dict):
        cases = self.env.fn_defs.get(fn)
        if not cases:
            raise UnboundVariable(f"unknown function {fn}", span,
                                  rule="T-FN-GLOBAL")
        case = None
        for c in cases:
            if len(c.patterns) == 1 and c.patterns[0].ctor == ctor.name:
                case = c
                break
        if case is None:
            raise NoSuchBranch(f"{fn} has no case for {ctor.name}", span)
        if len(case.guarded_bodies) != 1 or case.guarded_bodies[0][0] is not None:
            raise UnsupportedConstruct(f"{fn} uses guards", span)
        pures, spatials, vals = [], [], []
        for sub in ctor.args:
            p, s, v = self.tx(sub, ren=ren)
            pures += p
            spatials += s
            vals.append(v)
        body = case.guarded_bodies[0][1]
        if isinstance(body, S.ConstructorApp):
            body = S.Lower(S.NamedLayout(res_layout.layout.name)
                           if res_layout.is_adt else S.IntLayout(), body)
        p, s, r = self.tx(body, target, dict(zip(case.patterns[0].vars, vals)))
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
    return CoreTranslationResult(tuple(pure), tuple(spatial),
                                 frozenset(tx.used), r)


def translate_fn_def_core(env: GlobalEnv, fn: str, arg_layout: S.LayoutDef,
                          result_ref: S.LayoutRef) -> ssl.PredicateDef:
    """The function-definition translation: one predicate branch per case,
    discriminated by the layout condition on the argument root."""
    cases = env.fn_defs.get(fn)
    if not cases:
        raise UnboundVariable(f"unknown function {fn}", rule="T-FN-GLOBAL")
    res_layout = resolve_layout_ref(env, result_ref)
    a_res = ResolvedLayout("adt", arg_layout, "readonly")
    x = arg_layout.ssl_params[0]
    r = "r" if x != "r" else "r0"
    branches = []
    for case in cases:
        if len(case.patterns) != 1 or case.patterns[0].ctor is None:
            raise UnsupportedConstruct(
                f"{fn} is not a single-argument pattern-matching function")
        ctor = case.patterns[0].ctor
        c = cond(arg_layout, ctor, var=x)
        params = [f"p{i + 1}" for i in range(len(case.patterns[0].vars))]
        call = S.Instantiate(
            (S.NamedLayout(arg_layout.name),), result_ref, fn,
            [S.ConstructorApp(ctor, [S.Var(p) for p in params])])
        tx = _CoreTx(env, ())
        tx.used.update([x, r] + params)
        pure, spatial, rv = tx.tx(call, r)
        pure, spatial = _retarget(pure, spatial, rv, r, tx.seed)
        branches.append(ssl.Branch(c, ssl.SslAssertion.make(pure, spatial)))
    name = mangle(fn, [a_res], res_layout)
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
    __slots__ = ("args", "guard", "lets", "body", "result_name",
                 "result_layout", "destructure", "pure", "calls",
                 "result_cells", "temps", "guard_term")

    def __init__(self, args: list, guard: Optional[S.Expr], lets: list,
                 body: S.Expr, result_name: str,
                 result_layout: ResolvedLayout):
        self.args = args
        self.guard = guard
        self.lets = lets                # [(binder, bound expr)] in order
        self.body = body
        self.result_name = result_name
        self.result_layout = result_layout
        self.destructure = []           # spatial heaplets
        self.pure = []
        self.calls = []
        self.result_cells = []
        self.temps = []
        self.guard_term = None

    def assertion(self) -> ssl.SslAssertion:
        """The branch body the stages found: stage 6's translation."""
        return ssl.SslAssertion.make(
            tuple(self.pure),
            tuple(self.destructure) + tuple(self.calls)
            + tuple(self.result_cells) + tuple(self.temps))


class CompileResult(Node):
    __slots__ = ("name", "predicate", "layout_preds", "ro_preds",
                 "copy_preds", "extra_preds", "goal")

    def all_predicates(self) -> list:
        return (self.layout_preds + self.ro_preds + self.copy_preds
                + self.extra_preds + [self.predicate])

    def render(self, with_goal: bool = False) -> str:
        parts = [ssl.emit_predicate(p) for p in self.all_predicates()]
        if with_goal:
            parts.append(ssl.emit_goal_spec(self.goal))
        return "\n".join(parts)


def _expr_vars(e: S.Expr) -> set:
    """The variables ``e`` reads; a let binds its name in its body."""
    if isinstance(e, S.Var):
        return {e.name}
    if isinstance(e, S.Addr):
        return {e.var}
    if isinstance(e, S.Let):
        return _expr_vars(e.bound) | (_expr_vars(e.body) - {e.name})
    out = set()
    for x in S.subexprs(e):
        out |= _expr_vars(x)
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
    return any(isinstance(x, (S.App, S.Instantiate))
               for x in S.iter_subexprs(e))


class _FnTranslator:
    """Translates one elaborated function; shared fresh-name counters."""

    def __init__(self, prog: TypedProgram, elab: ElabFn, registry=None):
        self.prog = prog
        self.env = prog.env
        self.elab = elab
        self.fn = elab.name
        self.counter = elab.fresh_base
        self.temp_counter = 0
        self.pred_name = mangle(elab.name, elab.arg_layouts, elab.result_layout)
        self.ro_layouts: set = set()
        self.copy_layouts: set = set()
        self.extra_fns: dict = registry if registry is not None else {}
        self.arms = [
            _Arm(case.args, case.guard, [], case.body, case.result_name,
                 case.result_layout)
            for case in elab.cases
        ]

    # -- the per-arm passes of stages 2-6, run in the order of STAGES --

    def null_empty(self, arm: _Arm):
        arm.body = self._null_empty(arm.body)

    def _null_empty(self, e: S.Expr) -> S.Expr:
        if isinstance(e, S.Lower) and isinstance(e.arg, S.ConstructorApp) \
                and not e.arg.args:
            resolved = resolve_layout_ref(self.env, e.layout)
            if resolved.is_adt:
                branch = resolved.layout.branch_for(e.arg.name)
                if branch is not None and _branch_is_empty(branch):
                    return S.IntLit(0, span=e.span)
        return S.map_expr(e, self._null_empty)

    def destructure(self, arm: _Arm):
        used = _expr_vars(arm.body)
        if arm.guard is not None:
            used |= _expr_vars(arm.guard)
        # variables passed directly to calls of other functions
        fn_args = {a.name for x in S.iter_subexprs(arm.body)
                   if isinstance(x, S.Instantiate) and x.fn != self.fn
                   for a in x.args if isinstance(a, S.Var)}
        for arg in arm.args:
            arm.destructure.extend(self._destructure(arg, used, fn_args))

    def _destructure(self, arg: ElabArg, used: set, fn_args: set) -> list:
        if arg.pattern is None or not arg.layout.is_adt:
            return []
        layout = arg.layout.layout
        ctor, pat_vars = arg.pattern
        branch = layout.branch_for(ctor)
        if branch is None or _branch_is_empty(branch):
            return []
        if not (set(pat_vars) & used) and arg.layout.mode == "readonly":
            # matched but unused: assert the whole structure read-only
            self.ro_layouts.add(layout.name)
            return [ssl.RoApply(f"ro_{layout.name}", (ssl.PVar(arg.ssl_name),))]
        out = []
        for var, off in arg.offsets.items():
            out.append(ssl.PointsTo(arg.ssl_name, off, ssl.PVar(var)))
        n = layout.shapes[ctor].size
        if n:
            out.append(ssl.Block(arg.ssl_name, n))
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
            if resolved.is_adt:
                self.copy_layouts.add(resolved.layout.name)
                arm.body = _CopyCall(arm.body.arg.name, resolved.layout,
                                     span=arm.body.span)

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
                if arg.pattern is None or not arg.layout.is_adt:
                    continue
                layout = arg.layout.layout
                ctor, _ = arg.pattern
                c = cond(layout, ctor, var=arg.ssl_name,
                         allow_guarded=arm.guard is not None)
                if c == ssl.TRUE:
                    continue
                (empties if isinstance(c, ssl.PEq) else non_empties).append(c)
            parts = empties + non_empties
            if arm.guard_term is not None:
                parts.append(arm.guard_term)
            branches.append(ssl.Branch(ssl.pand_all(parts), arm.assertion()))
        params = tuple((a.ssl_name, a.layout.sort) for a in self.elab.cases[0].args) \
            + ((self.elab.cases[0].result_name, self.elab.result_layout.sort),)
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
                                           getattr(arm.guard, "span", None))
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
        result = arm.result_name
        rl = arm.result_layout
        if isinstance(e, _CopyCall):
            name = f"{e.layout.name}__copy"
            arm.calls.append(ssl.FuncApply(name, (ssl.PVar(e.src),
                                                  ssl.PVar(result))))
            return
        if isinstance(e, S.Lower) and isinstance(e.arg, S.ConstructorApp):
            resolved = resolve_layout_ref(self.env, e.layout)
            if not resolved.is_adt:
                raise NonConstructibleBody("lowering at a base layout",
                                           e.span)
            self.build_ctor(resolved.layout, e.arg, result)
            return
        if isinstance(e, S.Instantiate):
            out = self.emit_call(e, out_var=result)
            if out is not None:             # the call inlined to a pure term
                self.tx_result_pure(out)
            return
        if isinstance(e, (S.IntLit, S.BoolLit, S.Var, S.BinOp, S.Not,
                          S.IfThenElse, S.Addr)):
            self.tx_result_pure(self.value_of(e, spatial_adt=False))
            return
        raise NonConstructibleBody(
            f"arm result is not constructible at the result layout "
            f"({type(e).__name__})", getattr(e, "span", None))

    def tx_result_pure(self, term: ssl.PureTerm):
        arm = self.arm
        if arm.result_layout.kind == "ptr":
            arm.result_cells.append(ssl.PointsTo(arm.result_name, 0, term))
        else:
            self.pure_result.append(ssl.PEq(ssl.PVar(arm.result_name), term))

    def build_ctor(self, layout: S.LayoutDef, ctor: S.ConstructorApp,
                   root: str):
        arm = self.arm
        shape = layout.shapes.get(ctor.name)
        if shape is None:
            raise NoSuchBranch(f"layout {layout.name} has no branch for "
                               f"{ctor.name}", ctor.span)
        offsets = {payload: off for off, payload in shape.cells}
        cells = []
        for var, sub in zip(shape.pattern.vars, ctor.args):
            off = offsets.get(var)
            if off is None:
                raise NonConstructibleBody(
                    f"field {var} of {ctor.name} has no cell in layout "
                    f"{layout.name}", ctor.span)
            value = self.field_value(sub, root, off)
            if value is not None:
                cells.append(ssl.PointsTo(root, off, value))
        cells.append(ssl.Block(root, shape.size))
        if root == arm.result_name:
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
        if isinstance(e, S.IntLit):
            return ssl.PInt(e.value)
        if isinstance(e, S.BoolLit):
            return ssl.PBool(e.value)
        if isinstance(e, S.Var):
            if spatial_adt and e.name in self.adt_alias:
                return ssl.PVar(self.adt_alias[e.name])
            return ssl.PVar(e.name)
        if isinstance(e, S.Addr):
            return self.addr_term(e)
        if isinstance(e, S.BinOp):
            lhs, rhs = self.value_of(e.lhs, False), self.value_of(e.rhs, False)
            if e.op == "||":
                # a || b  ==  not (not a && not b); emitted syntax has no ||
                return ssl.PNot(ssl.PAnd(ssl.PNot(lhs), ssl.PNot(rhs)))
            return ssl.BINARY_OPS[e.op](lhs, rhs)
        if isinstance(e, S.Not):
            return ssl.PNot(self.value_of(e.arg, False))
        if isinstance(e, S.IfThenElse):
            return ssl.PTernary(self.value_of(e.cond, False),
                                self.value_of(e.then, False),
                                self.value_of(e.els, False))
        if isinstance(e, S.Instantiate):
            out = self.emit_call(e)
            return out
        if isinstance(e, S.Lower):
            if isinstance(e.arg, S.ConstructorApp):
                resolved = resolve_layout_ref(self.env, e.layout)
                root = self.t.fresh_value("adt")
                self.produced[root] = False   # materialised, not a call output
                self.build_ctor(resolved.layout, e.arg, root)
                return ssl.PVar(root)
            return self.value_of(e.arg, spatial_adt)
        if isinstance(e, _Term):
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
        raise NonConstructibleBody(
            f"addr {e.var}: variable has no heap cell", e.span)

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
            if e.fn in self.t.prog.specialisations:
                self._ensure_extra(e.fn, e.arg_layouts, e.result_layout)

        slot = len(self.arm.calls)
        self.arm.calls.append(None)
        args = []
        for a, lay in zip(e.args, arg_layouts):
            if lay.sort == "loc" and lay.is_adt:
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
            out = self.t.fresh_value("adt" if res_layout.is_adt
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
            name = mangle(e.fn, arg_layouts, res_layout)
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

    def _ensure_extra(self, fn, arg_refs, result_ref):
        key = mangle(fn, [resolve_layout_ref(self.env, r) for r in arg_refs],
                     resolve_layout_ref(self.env, result_ref))
        if key in self.t.extra_fns:
            return
        self.t.extra_fns[key] = None
        elab = elaborate_fn_at(self.env, fn, arg_refs, result_ref)
        sub = _FnTranslator(self.t.prog, elab, registry=self.t.extra_fns)
        pred = sub.run()
        self.t.ro_layouts |= sub.ro_layouts
        self.t.copy_layouts |= sub.copy_layouts
        self.t.extra_fns[key] = pred


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
    layout_preds = []
    seen = set()
    for lay in elab.arg_layouts:
        if lay.is_adt and lay.layout.name not in seen:
            seen.add(lay.layout.name)
            layout_preds.append(translate_layout_predicate(lay.layout))
    ro_preds = [translate_layout_predicate(env.layouts[name], ro=True)
                for name in sorted(tx.ro_layouts)]
    registry: dict = {}
    for name in sorted(tx.copy_layouts):
        copy_predicate(env, env.layouts[name], registry)
    copy_preds = [p for p in registry.values() if p is not None]
    extra = [p for p in tx.extra_fns.values() if p is not None]
    goal = make_goal_spec(elab, predicate.name)
    return CompileResult(predicate.name, predicate, layout_preds, ro_preds,
                         copy_preds, extra, goal)


def make_goal_spec(elab: ElabFn, pred_name: str) -> ssl.GoalSpec:
    params = []
    pre = []
    post = []
    pred_args = []
    for i, lay in enumerate(elab.arg_layouts):
        pname = f"x{i + 1}"
        params.append(("loc", pname))
        if lay.is_adt:
            pre.append(ssl.PredApply(lay.layout.name, (ssl.PVar(pname),)))
            pred_args.append(ssl.PVar(pname))
        else:
            content = f"v{i + 1}"
            pre.append(ssl.PointsTo(pname, 0, ssl.PVar(content)))
            post.append(ssl.PointsTo(pname, 0, ssl.PVar(content)))
            pred_args.append(ssl.PVar(content))
    params.append(("loc", "r"))
    pre.append(ssl.PointsTo("r", 0, ssl.PInt(0)))
    post.insert(0, ssl.PredApply(pred_name, tuple(pred_args) + (ssl.PVar("r0"),)))
    post.append(ssl.PointsTo("r", 0, ssl.PVar("r0")))
    return ssl.GoalSpec(elab.name, tuple(params),
                        ssl.SslAssertion.make((), pre),
                        ssl.SslAssertion.make((), post))


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
    if annotated and arg.layout.is_adt:
        return f"({arg.layout.layout.name}[{arg.layout.mode} ; " \
               f"{arg.ssl_name}] {pat})"
    return pat


def _render_arm_head(fn: str, arm: _Arm, annotated: bool) -> str:
    return " ".join([fn] + [_pattern_text(a, annotated) for a in arm.args])


def _layout_annotation(arm: _Arm) -> str:
    """The stage-3 heaplet annotation, written over the layout binders.
    With no binder cells it says only what a null result already says."""
    chunks = []
    for arg in arm.args:
        if arg.pattern is None or not arg.layout.is_adt:
            continue
        layout = arg.layout.layout
        ctor, pat_vars = arg.pattern
        shape = layout.shapes.get(ctor)
        if shape is None or _branch_is_empty(shape.heaplets):
            continue
        sub = dict(zip(shape.pattern.vars, pat_vars))
        arrow = ":=>" if arg.layout.mode == "readonly" else ":->"
        for h in shape.heaplets:
            if isinstance(h, S.HPointsTo):
                loc = h.base if h.offset == 0 else f"({h.base}+{h.offset})"
                chunks.append(f"{loc} {arrow} {sub.get(h.payload, h.payload)}")
    if not chunks:
        if arm.body.__class__ is S.IntLit and arm.result_layout.is_adt:
            return f"{arm.result_name} == 0 ; emp"
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

    def render(self, fn: str, arms: list) -> str:
        """The snapshot of ``arms`` after this stage's pass."""
        if self.applies is not None and not any(map(self.applies, arms)):
            return "Not applicable."
        lines = []
        for arm in arms:
            head = _render_arm_head(fn, arm, self.annotated)
            body = self.body_of(arm)
            if self.layout_ann:
                body = f"layout{{ {_layout_annotation(arm)} }}\n    & {body}"
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
        out.append((stage.title, stage.render(fn, tx.arms)))
    out.append((STAGE_TITLES[-1],
                _compile_result(tx, tx.assemble()).render()))
    return out
