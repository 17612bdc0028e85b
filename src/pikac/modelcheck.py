"""Concrete-model satisfaction for SSL assertions and the soundness harness.

``satisfies`` checks a (store, heap) model against an assertion under a
predicate environment: points-to heaplets consume single cells, predicate
applications unfold structurally (preferring the location-to-constructor
witness table, falling back to branch-condition evaluation, and trying all
branches for existentially quantified roots), and the whole heap must be
consumed.  Existential variables introduced by unfolding are solved by
unification against cells and by propagating pure equalities.

The search is incremental.  Each pure constraint carries its free
variables, computed once when it is conjoined.  A search state keeps the
constraints that still have unbound variables apart from the ground ones;
bindings only grow along a search path, so a ground constraint stays ground
and is checked once the heap is used up.  Equalities are propagated by one
worklist, ``_propagate``, that re-examines only those just conjoined or
mentioning a just-bound variable.  An equality that bound its only unknown
holds by construction and is not evaluated again.  The existentials of
each predicate branch are computed once per predicate.

The verdict is *Sat* when some path consumes the heap and makes every pure
conjunct true, *Unknown* when none does but some path stopped at a resource
bound (the unfolding depth, more than six residual existentials linked by
shared constraints, or a witness domain without a witness), and *Unsat*
otherwise.  Residual constraints that share no unbound variable are
solved apart, each group over its own witness domain.

``check_soundness`` ties the machine to the translation: it evaluates an
expression from the empty state, translates the same expression targeting
the machine's result variable, and checks the final machine model against
the translated assertion.  ``build_predicate_env`` translates each layout
predicate and each function instantiation once per ``GlobalEnv`` (and per
translator), on first use, and hands every caller a fresh environment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from . import ssl
from . import syntax as S
from .errors import PreconditionViolated, SortMismatch, UnboundVariable
from .interp import BoolVal, ConstructorVal, IntVal, LocVal, Model, Val, eval_expr
from .translate import (
    translate_expr_core, translate_fn_def_core, translate_layout_predicate,
)
from .types import GlobalEnv


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sat:
    def __bool__(self): return True


@dataclass(frozen=True)
class Unsat:
    reason: str

    def __bool__(self): return False


@dataclass(frozen=True)
class Unknown:
    reason: str

    def __bool__(self): return False


SatResult = Union[Sat, Unsat, Unknown]


@dataclass
class PredicateEnv:
    preds: dict
    fsstore: dict = field(default_factory=dict)   # loc -> constructor name

    def merged_with(self, other: "PredicateEnv") -> "PredicateEnv":
        preds = dict(self.preds)
        preds.update(other.preds)
        fs = dict(self.fsstore)
        fs.update(other.fsstore)
        return PredicateEnv(preds, fs)


# ---------------------------------------------------------------------------
# Pure evaluation
# ---------------------------------------------------------------------------

def _num(v: Val) -> int:
    if isinstance(v, IntVal):
        return v.value
    if isinstance(v, LocVal):
        return v.loc
    raise SortMismatch(f"expected a numeric value, found {v}")


def eval_pure(binding: dict, t: ssl.PureTerm) -> Val:
    """Evaluate a pure term to a value under a complete binding."""
    if isinstance(t, ssl.PInt):
        return IntVal(t.value)
    if isinstance(t, ssl.PBool):
        return BoolVal(t.value)
    if isinstance(t, ssl.PVar):
        if t.name not in binding:
            raise UnboundVariable(f"unbound variable {t.name} in pure term")
        return binding[t.name]
    if isinstance(t, ssl.PEq):
        lv = eval_pure(binding, t.lhs)
        rv = eval_pure(binding, t.rhs)
        if isinstance(lv, BoolVal) != isinstance(rv, BoolVal):
            raise SortMismatch(f"comparing {lv} with {rv}")
        if isinstance(lv, BoolVal):
            return BoolVal(lv.value == rv.value)
        return BoolVal(_num(lv) == _num(rv))
    if isinstance(t, ssl.PLt):
        return BoolVal(_num(eval_pure(binding, t.lhs))
                       < _num(eval_pure(binding, t.rhs)))
    if isinstance(t, ssl.PAdd):
        return IntVal(_num(eval_pure(binding, t.lhs))
                      + _num(eval_pure(binding, t.rhs)))
    if isinstance(t, ssl.PSub):
        return IntVal(_num(eval_pure(binding, t.lhs))
                      - _num(eval_pure(binding, t.rhs)))
    if isinstance(t, ssl.PMod):
        return IntVal(_num(eval_pure(binding, t.lhs))
                      % _num(eval_pure(binding, t.rhs)))
    if isinstance(t, ssl.PAnd):
        lv = eval_pure(binding, t.lhs)
        rv = eval_pure(binding, t.rhs)
        if not isinstance(lv, BoolVal) or not isinstance(rv, BoolVal):
            raise SortMismatch("conjunction of non-booleans")
        return BoolVal(lv.value and rv.value)
    if isinstance(t, ssl.PNot):
        v = eval_pure(binding, t.arg)
        if not isinstance(v, BoolVal):
            raise SortMismatch("negation of a non-boolean")
        return BoolVal(not v.value)
    if isinstance(t, ssl.PTernary):
        c = eval_pure(binding, t.cond)
        if not isinstance(c, BoolVal):
            raise SortMismatch("ternary condition is not boolean")
        return eval_pure(binding, t.then if c.value else t.els)
    raise SortMismatch(f"unknown pure term {t!r}")


def eval_pure_bool(binding: dict, t: ssl.PureTerm) -> bool:
    v = eval_pure(binding, t)
    if not isinstance(v, BoolVal):
        raise SortMismatch(f"pure term {ssl.render_pure(t)} is not boolean")
    return v.value


class _Pure:
    """A pure constraint of the search with its free variables, computed
    once when the constraint is created.  An equality also keeps the
    variables of each side, which is what solving it needs."""

    __slots__ = ("term", "vars", "lhs_vars", "rhs_vars")

    def __init__(self, term: ssl.PureTerm):
        self.term = term
        if isinstance(term, ssl.PEq):
            self.lhs_vars = ssl.free_vars(term.lhs)
            self.rhs_vars = ssl.free_vars(term.rhs)
            self.vars = self.lhs_vars | self.rhs_vars
        else:
            self.lhs_vars = self.rhs_vars = None
            self.vars = ssl.free_vars(term)


def _solve_eq(binding: dict, rec: _Pure) -> Optional[str]:
    """Bind the single unknown of an equality when it occurs on one side
    only and the other side is ground, inverting +/- chains down to it.
    Returns the name bound, or None."""
    unknowns = [v for v in rec.vars if v not in binding]
    if len(unknowns) != 1:
        return None
    (u,) = unknowns
    if u not in rec.rhs_vars:
        term, other = rec.term.lhs, rec.term.rhs
    elif u not in rec.lhs_vars:
        term, other = rec.term.rhs, rec.term.lhs
    else:
        return None
    target = eval_pure(binding, other)
    while not isinstance(term, ssl.PVar):
        if not isinstance(term, (ssl.PAdd, ssl.PSub)):
            return None
        a, b = term.lhs, term.rhs
        if u in ssl.free_vars(a):
            if u in ssl.free_vars(b):
                return None
            n, m = _num(target), _num(eval_pure(binding, b))
            target = IntVal(n - m if isinstance(term, ssl.PAdd) else n + m)
            term = a
        else:
            n, m = _num(target), _num(eval_pure(binding, a))
            target = IntVal(n - m if isinstance(term, ssl.PAdd) else m - n)
            term = b
    binding[u] = target
    return u


def _propagate(pending: list, binding: dict, new=(), bound=()) -> tuple:
    """Extend ``binding`` with what the pending equalities determine, after
    the caller conjoined the constraints ``new`` and bound the names
    ``bound``.

    Equalities are examined in passes, in the order they were conjoined, so
    that the first to determine a variable binds it.  A pass looks only at
    the dirty ones: those just conjoined or mentioning a variable bound
    since they were last examined; any other would fail again.  Returns the
    constraints still pending and the terms that became ground.  Bindings
    only grow along a search path, so a ground term stays ground.  An
    equality that solved its unknown holds by construction: not among them."""
    if new:
        pending = pending + new
    bound = set(bound)
    solved = set()
    dirty = {r for r in new if r.lhs_vars is not None}
    if bound:
        dirty.update(r for r in pending
                     if r.lhs_vars is not None and not r.vars.isdisjoint(bound))
    while dirty:
        for r in pending:
            if r in dirty:
                dirty.discard(r)
                u = _solve_eq(binding, r)
                if u is not None:
                    bound.add(u)
                    solved.add(r)
                    dirty.update(q for q in pending
                                 if q.lhs_vars is not None and u in q.vars)
    if not bound and not new:
        return pending, ()
    keys = binding.keys()
    still = []
    now_ground = []
    for r in pending:
        if keys >= r.vars:
            if r not in solved:
                now_ground.append(r.term)
        else:
            still.append(r)
    return still, tuple(now_ground)


def _residual_groups(pending: list, binding: dict) -> list:
    """Split the pending constraints into groups linked by shared unbound
    variables, each as ``(sorted unknowns, constraints in pending order)``.
    A constraint with no unbound variable is a group of its own."""
    groups = []     # (unknowns, indices into pending), disjoint unknowns
    for i, r in enumerate(pending):
        unknowns = r.vars - binding.keys()
        members = [i]
        kept = []
        for g in groups:
            if g[0] & unknowns:
                unknowns = unknowns | g[0]
                members += g[1]
            else:
                kept.append(g)
        kept.append((unknowns, members))
        groups = kept
    return [(sorted(u), [pending[i] for i in sorted(m)]) for u, m in groups]


def _item(h: ssl.Heaplet, depth: int) -> tuple:
    """A spatial obligation: the heaplet, the unfolding depth left to it,
    and the variables of its pure terms (a points-to value, or the
    arguments of a predicate application)."""
    if isinstance(h, ssl.PointsTo):
        return h, depth, ssl.free_vars(h.value)
    if isinstance(h, (ssl.PredApply, ssl.RoApply)):
        return h, depth, ssl.free_vars(h)
    return h, depth, frozenset()


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

class _Checker:
    """A depth-first search for a partition of the heap across the spatial
    obligations.  A search state is the obligations left, the pending pure
    constraints (with unbound variables), the ground ones (checked once the
    heap is used up), the consumed cells and the binding.  Each call owns
    the binding it is given and copies it where the search branches."""

    def __init__(self, model: Model, env: PredicateEnv, depth: int):
        self.cells = dict(model.heap)
        self.locs = sorted(self.cells)
        self.env = env
        self.depth = depth
        self.gave_up = None     # why some path stopped short of a verdict
        self.failure = "no failure recorded"
        self._fresh = 0
        self._consumers = None  # names of predicates that can consume cells

    def rename_fresh(self, names) -> dict:
        """A substitution of a fresh variable for each name."""
        out = {}
        for n in names:
            self._fresh += 1
            out[n] = ssl.PVar(f"{n}?{self._fresh}")
        return out

    def _give_up(self, reason: str):
        if self.gave_up is None:
            self.gave_up = reason

    def check(self, assertion: ssl.SslAssertion, binding: dict) -> SatResult:
        items = [_item(h, self.depth) for h in assertion.spatial]
        binding = dict(binding)
        pending, ground = _propagate([], binding,
                                     [_Pure(p) for p in assertion.pure])
        if self._search(items, pending, ground, frozenset(), binding):
            return Sat()
        if self.gave_up:
            return Unknown(self.gave_up)
        return Unsat(self.failure)

    # the search returns True on the first completed path

    def _search(self, items, pending, ground, consumed, binding) -> bool:
        if not items:
            return self._finish(pending, ground, consumed, binding)

        # ground points-to first
        for i, (h, d, hvars) in enumerate(items):
            if isinstance(h, ssl.PointsTo) and h.base in binding:
                return self._match_points_to(h, hvars, items[:i] + items[i + 1:],
                                             pending, ground, consumed, binding)
        # ground predicate applications next
        keys = binding.keys()
        for i, (h, d, hvars) in enumerate(items):
            if isinstance(h, (ssl.PredApply, ssl.RoApply)) and keys >= hvars:
                return self._unfold(h, d, i, items, pending, ground, consumed,
                                    binding, ground_args=True)
        # blocks are bookkeeping: defer until only blocks remain nonground?
        non_block = [(i, h, d) for i, (h, d, _) in enumerate(items)
                     if not isinstance(h, (ssl.Block, ssl.HeapEmp))]
        if not non_block:
            return self._finish_blocks(items, pending, ground, consumed,
                                       binding)
        # backtracking: nonground points-to against candidate cells
        for i, h, d in non_block:
            if isinstance(h, ssl.PointsTo):
                rest = items[:i] + items[i + 1:]
                for loc in self.locs:
                    if loc in consumed:
                        continue
                    trial = dict(binding)
                    trial[h.base] = LocVal(loc - h.offset)
                    if self._match_points_to(h, items[i][2], rest, pending,
                                             ground, consumed, trial,
                                             bound=(h.base,)):
                        return True
                self.failure = f"no cell matches {ssl.render_heaplet(h)}"
                return False
        # nonground predicate application: try all branches
        for i, h, d in non_block:
            if isinstance(h, (ssl.PredApply, ssl.RoApply)):
                return self._unfold(h, d, i, items, pending, ground, consumed,
                                    binding, ground_args=False)
        for i, h, d in non_block:
            if isinstance(h, (ssl.FuncApply, ssl.TempLoc)):
                self.failure = (f"{ssl.render_heaplet(h)} has no concrete "
                                "model semantics")
                return False
        return self._finish_blocks(items, pending, ground, consumed, binding)

    def _match_points_to(self, h, hvars, rest, pending, ground, consumed,
                         binding, bound=()) -> bool:
        base = binding[h.base]
        if not isinstance(base, (LocVal, IntVal)):
            self.failure = f"{h.base} is not a location"
            return False
        loc = _num(base) + h.offset
        if loc not in self.cells:
            self.failure = f"missing cell {loc} for {ssl.render_heaplet(h)}"
            return False
        if loc in consumed:
            self.failure = f"cell {loc} claimed twice"
            return False
        actual = self.cells[loc]
        new = []
        if binding.keys() >= hvars:
            try:
                expected = eval_pure(binding, h.value)
            except (SortMismatch, UnboundVariable) as exc:
                self.failure = str(exc)
                return False
            if isinstance(expected, BoolVal) != isinstance(actual, BoolVal):
                self.failure = f"cell {loc} sort mismatch"
                return False
            if isinstance(expected, BoolVal):
                if expected.value != actual.value:
                    self.failure = (f"cell {loc} holds {actual}, "
                                    f"expected {expected}")
                    return False
            elif _num(expected) != _num(actual):
                self.failure = (f"cell {loc} holds {actual}, expected "
                                f"{expected}")
                return False
        elif isinstance(h.value, ssl.PVar):
            binding[h.value.name] = actual
            bound += (h.value.name,)
        else:
            lit = (ssl.PBool(actual.value) if isinstance(actual, BoolVal)
                   else ssl.PInt(_num(actual)))
            new.append(_Pure(ssl.PEq(h.value, lit)))
        pending, now_ground = _propagate(pending, binding, new, bound)
        return self._search(rest, pending, ground + now_ground,
                            consumed | {loc}, binding)

    def _consumes(self, h) -> bool:
        """Whether ``h`` is, or can unfold to, a points-to heaplet."""
        if self._consumers is None:
            # least fixpoint over the environment's predicates; the calls
            # below read the set as it grows
            self._consumers = set()
            changed = True
            while changed:
                changed = False
                for name, pred in self.env.preds.items():
                    if name not in self._consumers and any(
                            self._consumes(bh) for b in pred.branches
                            for bh in b.body.spatial):
                        self._consumers.add(name)
                        changed = True
        return isinstance(h, ssl.PointsTo) or (
            isinstance(h, (ssl.PredApply, ssl.RoApply))
            and h.name in self._consumers)

    def _unfold(self, h, d, i, items, pending, ground, consumed, binding,
                ground_args: bool) -> bool:
        pred = self.env.preds.get(h.name)
        if pred is None:
            self.failure = f"unknown predicate {h.name}"
            return False
        if d <= 0:
            leftover = sorted(set(self.cells) - consumed)
            if leftover and not any(self._consumes(it[0]) for it in items):
                # no depth would help: nothing left can consume these cells
                self.failure = (f"heap cells {leftover} are not consumed by "
                                "any obligation left")
            else:
                self._give_up("unfolding depth bound exhausted")
            return False
        if len(h.args) != len(pred.params):
            self.failure = f"arity mismatch applying {h.name}"
            return False
        rest = items[:i] + items[i + 1:]
        branches = list(zip(pred.branches, pred.existentials))
        if ground_args:
            args = [eval_pure(binding, a) for a in h.args]
            root = None
            for (pname, sort), val in zip(pred.params, args):
                if sort == "loc":
                    root = val
                    break
            chosen = None
            if root is not None and isinstance(root, LocVal) \
                    and root.loc in self.env.fsstore:
                ctor = self.env.fsstore[root.loc]
                tagged = [b for b in branches if b[0].ctor == ctor]
                if tagged:
                    chosen = tagged
            if chosen is None:
                chosen = []
                param_binding = {pname: val for (pname, _), val
                                 in zip(pred.params, args)}
                for b in branches:
                    try:
                        if eval_pure_bool(param_binding, b[0].cond):
                            chosen.append(b)
                    except (SortMismatch, UnboundVariable):
                        chosen.append(b)
            branches = chosen
            if not branches:
                self.failure = (f"no branch of {h.name} matches "
                                f"{[str(a) for a in args]}")
                return False
        param_map = {p: a for (p, _), a in zip(pred.params, h.args)}
        for branch, existentials in branches:
            body = branch.body
            pures = (branch.cond,) + body.pure
            sub = self.rename_fresh(existentials)
            sub.update(param_map)
            new_items = rest + [_item(ssl.subst(h, sub), d - 1)
                                for h in body.spatial]
            new = [_Pure(ssl.subst(t, sub)) for t in pures]
            trial = dict(binding)
            still, now_ground = _propagate(pending, trial, new)
            if self._search(new_items, still, ground + now_ground, consumed,
                            trial):
                return True
        return False

    def _finish_blocks(self, items, pending, ground, consumed, binding) -> bool:
        blocks = []
        for h, _, _ in items:
            if isinstance(h, ssl.HeapEmp):
                continue
            if not isinstance(h, ssl.Block):
                self.failure = f"unresolved heaplet {ssl.render_heaplet(h)}"
                return False
            if h.base not in binding:
                self.failure = f"block base {h.base} is unresolved"
                return False
            blocks.append((_num(binding[h.base]), h.size))
        return self._finish(pending, ground, consumed, binding, blocks)

    def _finish(self, pending, ground, consumed, binding, blocks=()) -> bool:
        leftover = set(self.cells) - consumed
        if leftover:
            self.failure = f"heap cells {sorted(leftover)} are not consumed"
            return False
        for base, size in blocks:
            for loc in range(base, base + size):
                if loc not in consumed:
                    self.failure = (f"block [{base},{size}] covers cell {loc} "
                                    "claimed by no points-to")
                    return False
        # every ground conjunct must evaluate true
        if not self._holds(ground, binding):
            return False
        if not pending:
            return True
        # the remaining unknowns are existentially quantified and constrained
        # only by pure terms.  Groups of constraints that share no unknown
        # are solved apart: search a small witness domain for each, and give
        # up (Unknown, not Unsat) when one is too large or holds no witness
        candidates = [IntVal(0), IntVal(1), IntVal(2)]
        candidates += [LocVal(loc) for loc in self.locs]
        for v in self.cells.values():
            if isinstance(v, IntVal) and all(_num(c) != v.value
                                             for c in candidates):
                candidates.append(v)
        for unknowns, group in _residual_groups(pending, binding):
            if not unknowns:
                if not self._holds([r.term for r in group], binding):
                    return False
                continue
            if len(unknowns) > 6:
                self._give_up(f"too many residual existentials: {unknowns}")
                return False
            if not self._assign(unknowns, candidates, group, binding):
                self._give_up(f"no witness for residual existentials "
                              f"{unknowns} among {len(candidates)} candidates")
                return False
        return True

    def _holds(self, terms, binding) -> bool:
        """Whether every ground term evaluates true; records the failure."""
        for p in terms:
            try:
                if not eval_pure_bool(binding, p):
                    self.failure = f"pure conjunct {ssl.render_pure(p)} is false"
                    return False
            except (SortMismatch, UnboundVariable) as exc:
                self.failure = str(exc)
                return False
        return True

    def _assign(self, unknowns, candidates, pending, binding) -> bool:
        """Try each candidate for the first unbound unknown, propagate, and
        check the constraints that became ground."""
        u = next((u for u in unknowns if u not in binding), None)
        if u is None:
            return True
        for cand in candidates:
            trial = dict(binding)
            trial[u] = cand
            still, now_ground = _propagate(pending, trial, bound=(u,))
            try:
                if not all(eval_pure_bool(trial, p) for p in now_ground):
                    continue
            except (SortMismatch, UnboundVariable):
                continue
            if self._assign(unknowns, candidates, still, trial):
                return True
        return False


def satisfies(model: Model, assertion: ssl.SslAssertion, env: PredicateEnv,
              depth: int = 64) -> SatResult:
    """Whole-heap satisfaction: Sat iff the heap partitions across the
    spatial conjuncts and the pure part evaluates true."""
    checker = _Checker(model, env, depth)
    return checker.check(assertion, dict(model.store))


# ---------------------------------------------------------------------------
# Predicate environments for the harness
# ---------------------------------------------------------------------------

def _instantiations_in(e: S.Expr, acc: set):
    if isinstance(e, S.Instantiate) and len(e.arg_layouts) == 1 \
            and isinstance(e.arg_layouts[0], S.NamedLayout):
        acc.add((e.fn, e.arg_layouts[0].name,
                 e.result_layout.name
                 if isinstance(e.result_layout, S.NamedLayout) else None))
    for x in S.subexprs(e):
        _instantiations_in(x, acc)


class _PredicateCache:
    """The predicates of one ``GlobalEnv``, each translated once, on first
    use, by the translators the cache was made with.

    ``fns`` maps an instantiation ``(fn, arg layout, result layout or
    None)`` to its predicate and the instantiations its body makes, or to
    None when the environment defines no such function."""

    def __init__(self, genv: GlobalEnv, translators: tuple):
        self.translators = translators
        self.layouts = {}
        for layout in genv.layouts.values():
            p = translators[0](layout)
            self.layouts[p.name] = p
        self.fns = {}

    def function(self, genv: GlobalEnv, key):
        if key not in self.fns:
            fn, arg_layout_name, result_name = key
            entry = None
            if fn in genv.fn_defs:
                result_ref = (S.NamedLayout(result_name) if result_name
                              else S.IntLayout())
                pred = self.translators[1](genv, fn,
                                           genv.layouts[arg_layout_name],
                                           result_ref)
                calls = set()
                for case in genv.fn_defs[fn]:
                    for _, body in case.guarded_bodies:
                        _instantiations_in(body, calls)
                entry = (pred, calls)
            self.fns[key] = entry
        return self.fns[key]


def _predicate_cache(genv: GlobalEnv) -> _PredicateCache:
    """The cache of ``genv``, kept on the environment itself so that it
    lives as long as the environment and is never shared with another one.
    It is remade when a translator has been replaced since it was filled."""
    translators = (translate_layout_predicate, translate_fn_def_core)
    cache = getattr(genv, "_predicate_cache", None)
    if cache is None or cache.translators != translators:
        cache = _PredicateCache(genv, translators)
        genv._predicate_cache = cache
    return cache


def build_predicate_env(genv: GlobalEnv, exprs=(), fsstore=None) -> PredicateEnv:
    """Layout predicates for every layout plus function predicates for every
    instantiation reachable from the given expressions.  Each predicate is
    translated once per environment; every call returns a fresh
    ``PredicateEnv`` with its own ``preds`` dict and ``fsstore``."""
    cache = _predicate_cache(genv)
    preds = dict(cache.layouts)
    work = set()
    for e in exprs:
        _instantiations_in(e, work)
    done = set()
    while work:
        key = work.pop()
        if key in done:
            continue
        done.add(key)
        entry = cache.function(genv, key)
        if entry is not None:
            pred, calls = entry
            preds[pred.name] = pred
            work |= calls
    fs = {}
    for loc, val in (fsstore or {}).items():
        if isinstance(val, ConstructorVal):
            fs[loc] = val.name
    return PredicateEnv(preds, fs)


# ---------------------------------------------------------------------------
# Soundness harness
# ---------------------------------------------------------------------------

@dataclass
class SoundnessReport:
    result: SatResult
    expr: S.Expr
    model: Model
    assertion: ssl.SslAssertion
    trace: str


def check_soundness(genv: GlobalEnv, e: S.Expr, depth: int = 64) -> SoundnessReport:
    val, store, heap, fs, r = eval_expr(genv, e)
    core = translate_expr_core(genv, e, free_vars=(), result_var=r)
    assertion = core.assertion()
    env = build_predicate_env(genv, exprs=[e], fsstore=fs)
    model = Model(store, heap)
    result = satisfies(model, assertion, env, depth)
    trace = ""
    if not isinstance(result, Sat):
        trace = "\n".join([
            f"expression: {S.render_expr(e)}",
            f"value: {val}",
            f"result variable: {r}",
            f"assertion: {ssl.render_assertion(assertion)}",
            model.render(),
            f"verdict: {result}",
        ])
    return SoundnessReport(result, e, model, assertion, trace)


# ---------------------------------------------------------------------------
# Core expression generation
# ---------------------------------------------------------------------------

@dataclass
class CoreSignature:
    """The pool the generator draws from: layouts by ADT plus the
    single-argument core functions grouped by (argument ADT, result ADT)."""
    genv: GlobalEnv
    layout_of: dict
    pool: list                      # [(fn, arg layout, result layout)]

    @staticmethod
    def from_env(genv: GlobalEnv) -> "CoreSignature":
        layout_of = {}
        for layout in genv.layouts.values():
            layout_of.setdefault(layout.adt, layout.name)
        pool = []
        for fn, cases in genv.fn_defs.items():
            if not all(len(c.patterns) == 1 and c.patterns[0].ctor is not None
                       and len(c.guarded_bodies) == 1
                       and c.guarded_bodies[0][0] is None
                       for c in cases):
                continue
            sig = genv.fn_sigs.get(fn)
            if sig is None or not isinstance(sig, S.TFn):
                continue
            arg, res = sig.arg, sig.res
            if isinstance(arg, S.TName) and isinstance(res, S.TName) \
                    and arg.name in layout_of and res.name in layout_of:
                pool.append((fn, layout_of[arg.name], layout_of[res.name]))
        return CoreSignature(genv, layout_of, sorted(pool))


def gen_core_expr(sig: CoreSignature, seed: int, budget: int) -> S.Expr:
    """A closed, well-typed core expression; deterministic in the seed."""
    rng = random.Random(seed)
    adts = sorted(sig.layout_of)
    kind = rng.choice(["int"] + ["adt"] * 3) if adts else "int"
    if kind == "int" or budget <= 1:
        return _gen_int(rng, budget)
    adt = rng.choice(adts)
    return _gen_adt(sig, rng, adt, budget)


def _gen_int(rng, budget) -> S.Expr:
    if budget <= 1 or rng.random() < 0.4:
        return S.IntLit(rng.randint(-3, 9))
    left = budget // 2
    return S.BinOp("+", _gen_int(rng, left), _gen_int(rng, budget - left))


def _gen_adt(sig: CoreSignature, rng, adt: str, budget: int) -> S.Expr:
    layout_name = sig.layout_of[adt]
    fns = [p for p in sig.pool if sig.genv.layouts[p[2]].adt == adt]
    if budget > 2 and fns and rng.random() < 0.5:
        fn, arg_layout, res_layout = rng.choice(fns)
        arg_adt = sig.genv.layouts[arg_layout].adt
        inner_fns = [p for p in sig.pool
                     if sig.genv.layouts[p[2]].name == arg_layout]
        if budget > 5 and inner_fns and rng.random() < 0.35:
            arg = _gen_adt(sig, rng, arg_adt, budget - 2)
            if not isinstance(arg, S.Instantiate):
                arg = S.Lower(S.NamedLayout(arg_layout), arg) \
                    if isinstance(arg, S.ConstructorApp) else arg
        else:
            arg = _gen_lower(sig, rng, arg_layout, budget - 2)
        return S.Instantiate((S.NamedLayout(arg_layout),),
                             S.NamedLayout(res_layout), fn, [arg])
    return _gen_lower(sig, rng, layout_name, budget)


def _gen_lower(sig: CoreSignature, rng, layout_name: str, budget: int) -> S.Expr:
    layout = sig.genv.layouts[layout_name]
    empties = [p for p, hs in layout.branches
               if all(isinstance(h, S.HEmp) for h in hs)]
    non_empties = [p for p, hs in layout.branches
                   if not all(isinstance(h, S.HEmp) for h in hs)]
    if budget <= 2 or not non_empties or (empties and rng.random() < 0.25):
        pat = rng.choice(empties or non_empties)
    else:
        pat = rng.choice(non_empties)
    ctor = pat.ctor
    field_tys, _ = sig.genv.ctors[ctor]
    applies = {h.arg: h.layout for h in layout.branch_for(ctor)
               if isinstance(h, S.HApply)}
    args = []
    share = max(1, (budget - 1) // max(1, len(field_tys))) if field_tys else 0
    for var, fty in zip(pat.vars, field_tys):
        if isinstance(fty, S.TName):
            sub_layout = applies.get(var, sig.layout_of.get(fty.name))
            args.append(_gen_lower(sig, rng, sub_layout, share))
        else:
            args.append(_gen_int(rng, min(share, 3)))
    return S.Lower(S.NamedLayout(layout_name),
                   S.ConstructorApp(ctor, args))


def shrink_core_expr(e: S.Expr) -> list:
    """Structure-preserving shrink candidates, all well-typed by
    construction."""
    out = []
    if isinstance(e, S.BinOp):
        out += [e.lhs, e.rhs]
        for c in shrink_core_expr(e.lhs):
            out.append(S.BinOp(e.op, c, e.rhs))
        for c in shrink_core_expr(e.rhs):
            out.append(S.BinOp(e.op, e.lhs, c))
    if isinstance(e, S.IntLit) and e.value != 0:
        out.append(S.IntLit(0))
    if isinstance(e, S.Instantiate):
        for c in shrink_core_expr(e.args[0]):
            out.append(S.Instantiate(e.arg_layouts, e.result_layout, e.fn, [c]))
        arg = e.args[0]
        if isinstance(arg, (S.Lower, S.Instantiate)):
            res = e.result_layout
            if isinstance(arg, S.Lower) and arg.layout == res:
                out.append(arg)
            if isinstance(arg, S.Instantiate) and arg.result_layout == res:
                out.append(arg)
    if isinstance(e, S.Lower) and isinstance(e.arg, S.ConstructorApp):
        for i, a in enumerate(e.arg.args):
            for c in shrink_core_expr(a):
                new_args = list(e.arg.args)
                new_args[i] = c
                out.append(S.Lower(e.layout,
                                   S.ConstructorApp(e.arg.name, new_args)))
    return out


# ---------------------------------------------------------------------------
# Assertion pairing
# ---------------------------------------------------------------------------

def check_otimes(model_a: Model, model_b: Model, pa: ssl.SslAssertion,
                 pb: ssl.SslAssertion, env: Optional[PredicateEnv] = None,
                 depth: int = 64) -> bool:
    """Check the pairing property: two compatible satisfying models combine
    into a model of the conjoined assertion."""
    env = env or PredicateEnv({})
    for k, v in model_a.store.items():
        if k not in model_b.store or model_b.store[k] != v:
            raise PreconditionViolated(
                f"store of the first model is not contained in the second "
                f"({k})")
    if set(model_a.heap) & set(model_b.heap):
        raise PreconditionViolated("heaps overlap")
    if not isinstance(satisfies(model_a, pa, env, depth), Sat):
        raise PreconditionViolated("first model does not satisfy its assertion")
    if not isinstance(satisfies(model_b, pb, env, depth), Sat):
        raise PreconditionViolated("second model does not satisfy its assertion")
    combined = Model(dict(model_b.store),
                     {**model_a.heap, **model_b.heap})
    return isinstance(satisfies(combined, ssl.conj_otimes(pa, pb), env, depth),
                      Sat)
