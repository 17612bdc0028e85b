"""Concrete-model satisfaction for SSL assertions and the soundness harness.

``satisfies`` checks a (store, heap) model against an assertion under a
predicate environment: points-to heaplets consume single cells, predicate
applications unfold structurally (a ground application to the branches
whose condition holds or cannot be evaluated, any other to every branch),
and the whole heap must be consumed.  Existential variables introduced by
unfolding are solved by unification against cells and by propagating pure
equalities.  A location argument that is not a variable is named by a
fresh existential equal to it, and a location bound to a Boolean fails its
path: ``satisfies`` always returns a verdict.

Each predicate branch is compiled once, on first use, into a plan kept on
the ``PredicateDef`` itself: slot numbers for the parameters and the
branch's existentials, and per pure term and heaplet a template over slots
with the slots of its variables.  An unfolding fills the slots with the
arguments and fresh names (``{name}?{k}``, numbered per check) and builds
its obligations and constraints from the templates, free variables
included, without substituting or traversing the branch again.

The search is incremental.  It keeps one binding and one set of consumed
cells, which only grow along a search path and are popped back where a
trial fails.  Points-to heaplets whose base is bound are consumed in a
loop, one cell per ``_consume`` call, so a ground cell adds no frame to the
search's recursion.  Each pure constraint carries its free variables; one
is kept pending while a variable of it is unbound and checked as soon as it
is ground, and a ground constraint stays ground.  Equalities are propagated
by ``_propagate``, in passes in conjunction order over the dirty ones:
those just conjoined or mentioning a variable bound since they were last
examined.  A solved variable finds the equalities it dirties through an
index of where each variable occurs, built at the first solve of a call.
An equality that bound its only unknown holds by construction and is never
examined again.

The verdict is *Sat* when some path consumes the heap and makes every pure
conjunct true, *Unknown* when none does but some path stopped at a resource
bound (the unfolding depth, more than six residual existentials linked by
shared constraints, or a witness domain without a witness), and *Unsat*
otherwise.  Residual constraints that share no unbound variable are
solved apart, each group over its own witness domain.

``check_soundness`` ties the machine to the translation: it evaluates an
expression from the empty state, translates the same expression targeting
the machine's result variable, and checks the final machine model against
the translated assertion.  ``build_predicate_env`` keeps one memo per
``GlobalEnv`` (and per translator), ``GlobalEnv.predicates``: the layout
predicates, and for each instantiation, under the key ``core_cases`` files
its cases under (``types.instantiation_key``: the function and its
layouts as written, mode included), the predicates of every instantiation
it reaches, each translated at its layouts as written.  A call walks its expressions once
for their instantiations and copies those closures into a fresh
environment, which the caller owns.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import Optional

from . import ssl
from . import syntax as S
from .errors import (
    PikaError, PreconditionViolated, SortMismatch, UnboundVariable,
    UnsupportedConstruct,
)
from .interp import BoolVal, IntVal, LocVal, Model, Val, eval_expr
from .node import Frozen, Node
from .translate import (
    translate_expr_core, translate_fn_def_core, translate_layout_predicate,
)
from .types import GlobalEnv, core_cases, instantiation_key


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class Sat(Frozen):
    __slots__ = ()

    def __bool__(self): return True


class Unsat(Frozen):
    __slots__ = ("reason",)

    def __bool__(self): return False


class Unknown(Frozen):
    __slots__ = ("reason",)

    def __bool__(self): return False


SatResult = (Sat, Unsat, Unknown)


class PredicateEnv(Node):
    __slots__ = ("preds",)


# ---------------------------------------------------------------------------
# Pure evaluation
# ---------------------------------------------------------------------------

_TRUE, _FALSE = BoolVal(True), BoolVal(False)
# the value of each small literal, shared by every evaluation of it
_LEAST_INT, _INT_BOUND = -16, 64
_INTS = tuple(map(IntVal, range(_LEAST_INT, _INT_BOUND)))


def _num(v: Val) -> int:
    cls = v.__class__
    if cls is IntVal:
        return v.value
    if cls is LocVal:
        return v.loc
    raise SortMismatch(f"expected a numeric value, found {v}")


# eval_pure runs for every constraint the search checks or solves, so it
# dispatches on the exact class, as ssl.free_vars does: the IR's classes
# have no subclasses.

def eval_pure(binding: dict, t: ssl.PureTerm) -> Val:
    """Evaluate a pure term to a value under a complete binding.  A term
    with no value, ill-sorted or a modulo by zero, raises ``SortMismatch``,
    which fails the search path that needs it."""
    cls = t.__class__
    if cls is ssl.PVar:
        try:
            return binding[t.name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {t.name} in pure term") \
                from None
    if cls is ssl.PInt:
        n = t.value
        return (_INTS[n - _LEAST_INT] if _LEAST_INT <= n < _INT_BOUND
                else IntVal(n))
    if cls is ssl.PEq:
        lv = eval_pure(binding, t.lhs)
        rv = eval_pure(binding, t.rhs)
        if (lv.__class__ is BoolVal) != (rv.__class__ is BoolVal):
            raise SortMismatch(f"comparing {lv} with {rv}")
        if lv.__class__ is BoolVal:
            return _TRUE if lv.value == rv.value else _FALSE
        return _TRUE if _num(lv) == _num(rv) else _FALSE
    if cls is ssl.PNot:
        v = eval_pure(binding, t.arg)
        if v.__class__ is not BoolVal:
            raise SortMismatch("negation of a non-boolean")
        return _FALSE if v.value else _TRUE
    if cls is ssl.PAdd:
        return IntVal(_num(eval_pure(binding, t.lhs))
                      + _num(eval_pure(binding, t.rhs)))
    if cls is ssl.PSub:
        return IntVal(_num(eval_pure(binding, t.lhs))
                      - _num(eval_pure(binding, t.rhs)))
    if cls is ssl.PLt:
        return _TRUE if (_num(eval_pure(binding, t.lhs))
                         < _num(eval_pure(binding, t.rhs))) else _FALSE
    if cls is ssl.PBool:
        return _TRUE if t.value else _FALSE
    if cls is ssl.PMod:
        lv = _num(eval_pure(binding, t.lhs))
        rv = _num(eval_pure(binding, t.rhs))
        if rv == 0:
            raise SortMismatch("modulo by zero")
        return IntVal(lv % rv)
    if cls is ssl.PAnd:
        lv = eval_pure(binding, t.lhs)
        rv = eval_pure(binding, t.rhs)
        if lv.__class__ is not BoolVal or rv.__class__ is not BoolVal:
            raise SortMismatch("conjunction of non-booleans")
        return _TRUE if lv.value and rv.value else _FALSE
    if cls is ssl.PTernary:
        c = eval_pure(binding, t.cond)
        if c.__class__ is not BoolVal:
            raise SortMismatch("ternary condition is not boolean")
        return eval_pure(binding, t.then if c.value else t.els)
    raise SortMismatch(f"unknown pure term {t!r}")


def eval_pure_bool(binding: dict, t: ssl.PureTerm) -> bool:
    v = eval_pure(binding, t)
    if v.__class__ is not BoolVal:
        raise SortMismatch(f"pure term {ssl.render_pure(t)} is not boolean")
    return v.value


class _Pure:
    """A pure constraint of the search with its free variables.  An
    equality also keeps the variables of each side, which is what solving
    it needs.  Given only the term (a conjunct of the checked assertion),
    the variables are computed from it; an unfolding passes them in from
    its branch plan."""

    __slots__ = ("term", "vars", "lhs_vars", "rhs_vars")

    def __init__(self, term: ssl.PureTerm, vars=None, lhs_vars=None,
                 rhs_vars=None):
        if vars is None:
            if term.__class__ is ssl.PEq:
                lhs_vars = ssl.free_vars(term.lhs)
                rhs_vars = ssl.free_vars(term.rhs)
                vars = lhs_vars | rhs_vars
            else:
                vars = ssl.free_vars(term)
        self.term = term
        self.vars = vars
        self.lhs_vars = lhs_vars
        self.rhs_vars = rhs_vars


def _solve_eq(binding: dict, rec: _Pure) -> Optional[str]:
    """Bind the single unknown of an equality when it occurs on one side
    only and the other side is ground, inverting +/- chains down to it.
    Returns the name bound, or None.  Raises ``SortMismatch`` when the
    ground side or an operand of the chain is not numeric where it must
    be: then no binding makes the equality hold."""
    u = None
    for v in rec.vars:
        if v not in binding:
            if u is not None:
                return None
            u = v
    if u is None:
        return None
    if u not in rec.rhs_vars:
        term, other = rec.term.lhs, rec.term.rhs
    elif u not in rec.lhs_vars:
        term, other = rec.term.rhs, rec.term.lhs
    else:
        return None
    target = eval_pure(binding, other)
    while term.__class__ is not ssl.PVar:
        add = term.__class__ is ssl.PAdd
        if not add and term.__class__ is not ssl.PSub:
            return None
        a, b = term.lhs, term.rhs
        if u in ssl.free_vars(a):
            if u in ssl.free_vars(b):
                return None
            n, m = _num(target), _num(eval_pure(binding, b))
            target = IntVal(n - m if add else n + m)
            term = a
        else:
            n, m = _num(target), _num(eval_pure(binding, a))
            target = IntVal(n - m if add else m - n)
            term = b
    binding[u] = target
    return u


def _propagate(pending: list, binding: dict, new=(), bound=()) -> tuple:
    """Extend ``binding`` with what the pending equalities determine, after
    the caller conjoined the constraints ``new`` and bound the names
    ``bound``.

    Equalities are examined in passes, in the order they were conjoined, so
    that the first to determine a variable binds it.  Only the dirty ones
    are examined: those just conjoined or mentioning a variable bound since
    they were last examined; any other would fail again.  A variable bound
    at position ``i`` dirties each other equality with it, found through
    an index built at the first solve: one after ``i`` is examined in this
    pass, one before it in the next.  An equality that solved its unknown
    holds by construction and is never examined again.

    Returns the constraints still pending and the terms that became
    ground, solved equalities not among them.  Bindings only grow along a
    search path, so a ground term stays ground.  ``SortMismatch`` from
    ``_solve_eq`` passes through, and the caller's search path fails."""
    if not new and (not bound or not pending):
        return pending, ()
    if new:
        pending = pending + new
    start = len(pending) - len(new)
    dirty = [r.lhs_vars is not None
             and (i >= start or not r.vars.isdisjoint(bound))
             for i, r in enumerate(pending)]
    solved = set()
    uses = None     # variable -> positions of the equalities with it
    while True in dirty:
        for i, r in enumerate(pending):
            if dirty[i]:
                dirty[i] = False
                u = _solve_eq(binding, r)
                if u is not None:
                    solved.add(i)
                    if uses is None:
                        uses = {}
                        for j, q in enumerate(pending):
                            if q.lhs_vars is not None:
                                for v in q.vars:
                                    uses.setdefault(v, []).append(j)
                    for j in uses[u]:
                        dirty[j] = True
                    dirty[i] = False
    keys = binding.keys()
    still = []
    now_ground = []
    for i, r in enumerate(pending):
        if keys >= r.vars:
            if i not in solved:
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


# ---------------------------------------------------------------------------
# Branch plans
# ---------------------------------------------------------------------------

# what the search does with a heaplet: consume a cell, unfold, report that
# it has no concrete-model semantics, or check it once the heap is used up
_POINTS_TO, _APPLY, _NO_MODEL, _BOOKKEEPING = range(4)
_KIND = {ssl.PointsTo: _POINTS_TO, ssl.PredApply: _APPLY, ssl.RoApply: _APPLY,
         ssl.FuncApply: _NO_MODEL, ssl.TempLoc: _NO_MODEL,
         ssl.Block: _BOOKKEEPING, ssl.HeapEmp: _BOOKKEEPING}
_NO_VARS = frozenset()


def _item(h: ssl.Heaplet, depth: int) -> tuple:
    """A spatial obligation: its kind, the heaplet, the unfolding depth left
    to it, and the variables of its pure terms (a points-to value, or the
    arguments of a predicate application)."""
    kind = _KIND[h.__class__]
    if kind == _POINTS_TO:
        return kind, h, depth, ssl.free_vars(h.value)
    if kind == _APPLY:
        return kind, h, depth, ssl.free_vars(h)
    return kind, h, depth, _NO_VARS


def _template(t: ssl.PureTerm, slot_of: dict):
    """``t`` with each variable replaced by its slot number: a subterm over
    variables becomes ``(kind, operand templates...)``, a closed one stays
    itself."""
    if t.__class__ is ssl.PVar:
        return slot_of[t.name]
    parts = ssl.subterms(t)
    ops = [_template(p, slot_of) for p in parts]
    if all(o is p for o, p in zip(ops, parts)):
        return t
    return (t.__class__, *ops)


def _instantiate(t, terms: list) -> ssl.PureTerm:
    """The pure term of template ``t`` with slot ``i`` read as
    ``terms[i]``."""
    cls = t.__class__
    if cls is int:
        return terms[t]
    if cls is tuple:
        return t[0](*[_instantiate(a, terms) for a in t[1:]])
    return t


class _Plan:
    """One predicate branch compiled for unfolding.  Slot ``i`` is parameter
    ``i`` below the predicate's arity, and the branch's existentials, in
    sorted order, follow.  ``pures`` holds the condition and the pure
    conjuncts, each as its template with the slots of its variables (of
    each side, for an equality); ``heaplets`` holds per heaplet its kind,
    its location slot (a points-to or block base, a temploc), the templates
    of its pure terms and the slots its obligation waits on.  ``locs`` are
    the parameter slots used as a location."""

    __slots__ = ("branch", "existentials", "locs", "pures", "heaplets")

    def __init__(self, params: tuple, branch: ssl.Branch, existentials: tuple):
        slot_of = {p: i for i, (p, _) in enumerate(params)}
        for name in existentials:
            slot_of[name] = len(slot_of)

        def slots(*terms):
            return tuple(sorted({slot_of[v] for t in terms
                                 for v in ssl.free_vars(t)}))

        self.branch = branch
        self.existentials = existentials
        self.pures = tuple(
            (_template(t, slot_of), slots(t.lhs), slots(t.rhs))
            if t.__class__ is ssl.PEq else (_template(t, slot_of), slots(t), None)
            for t in (branch.cond,) + branch.body.pure)
        heaplets = []
        for h in branch.body.spatial:
            kind = _KIND[h.__class__]
            loc = (slot_of[h.base] if h.__class__ in (ssl.PointsTo, ssl.Block)
                   else slot_of[h.var] if h.__class__ is ssl.TempLoc else None)
            parts = ssl.subterms(h)
            heaplets.append((h, kind, loc,
                             tuple(_template(p, slot_of) for p in parts),
                             slots(*parts) if kind in (_POINTS_TO, _APPLY)
                             else ()))
        self.heaplets = tuple(heaplets)
        self.locs = tuple(sorted({h[2] for h in heaplets
                                  if h[2] is not None and h[2] < len(params)}))

    def instance(self, terms: list, names: list, depth: int) -> tuple:
        """The obligations and pure constraints of the branch with slot
        ``i`` read as ``terms[i]``, whose variables are ``names[i]``; every
        location slot must hold a variable."""
        items = []
        for h, kind, loc, templates, hslots in self.heaplets:
            cls = h.__class__
            args = [_instantiate(t, terms) for t in templates]
            if cls is ssl.PointsTo:
                h = ssl.PointsTo(terms[loc].name, h.offset, args[0])
            elif cls is ssl.PredApply:
                h = ssl.PredApply(h.name, tuple(args))
            elif cls is ssl.Block:
                h = ssl.Block(terms[loc].name, h.size)
            elif cls is ssl.TempLoc:
                h = ssl.TempLoc(terms[loc].name)
            elif cls is not ssl.HeapEmp:
                h = cls(h.name, tuple(args))
            items.append((kind, h, depth,
                          {v for i in hslots for v in names[i]} if hslots
                          else _NO_VARS))
        pures = []
        for t, lhs, rhs in self.pures:
            term = _instantiate(t, terms)
            lhs_vars = {v for i in lhs for v in names[i]}
            if rhs is None:
                pures.append(_Pure(term, lhs_vars))
            else:
                rhs_vars = {v for i in rhs for v in names[i]}
                pures.append(_Pure(term, lhs_vars | rhs_vars, lhs_vars,
                                   rhs_vars))
        return items, pures


def _plans(pred: ssl.PredicateDef) -> tuple:
    """The plans of ``pred``'s branches, built on first use and kept on the
    predicate itself, so that they live exactly as long as it does."""
    plans = pred.__dict__.get("_plans")
    if plans is None:
        plans = pred.__dict__["_plans"] = tuple(
            _Plan(pred.params, b, ex)
            for b, ex in zip(pred.branches, pred.existentials))
    return plans


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def _cell_mismatch(loc: int, actual: Val, expected: Val) -> Optional[str]:
    """Why cell ``loc`` holding ``actual`` does not match ``expected``, or
    None when it does."""
    if (expected.__class__ is BoolVal) != (actual.__class__ is BoolVal):
        return f"cell {loc} sort mismatch"
    if expected.__class__ is BoolVal:
        if expected.value != actual.value:
            return f"cell {loc} holds {actual}, expected {expected}"
    elif _num(expected) != _num(actual):
        return f"cell {loc} holds {actual}, expected {expected}"
    return None


class _Checker:
    """A depth-first search for a partition of the heap across the spatial
    obligations.  The obligations left and the pending pure constraints
    (with unbound variables) are passed down the search; the binding and
    the consumed cells are kept here, as insertion-ordered dicts that only
    grow along a search path.  Each branch point records their sizes and
    pops them back when its trial fails.  A pure constraint is checked as
    soon as it is ground."""

    def __init__(self, model: Model, env: PredicateEnv, depth: int):
        self.cells = dict(model.heap)
        self.locs = sorted(self.cells)
        self.env = env
        self.depth = depth
        self.binding = dict(model.store)
        self.consumed = {}      # the cells consumed, as keys
        self.gave_up = None     # why some path stopped short of a verdict
        self.failure = "no failure recorded"
        self._fresh = 0         # numbers the variables unfolding introduces
        self._consumers = None  # names of predicates that can consume cells
        self._witnesses = None  # the witness domain of residual existentials

    def _give_up(self, reason: str):
        if self.gave_up is None:
            self.gave_up = reason

    def _mark(self) -> tuple:
        return len(self.binding), len(self.consumed)

    def _undo(self, mark: tuple):
        """Pop the binding and the consumed cells back to ``mark``."""
        binding, consumed = self.binding, self.consumed
        while len(binding) > mark[0]:
            binding.popitem()
        while len(consumed) > mark[1]:
            consumed.popitem()

    def check(self, assertion: ssl.SslAssertion) -> SatResult:
        items = [_item(h, self.depth) for h in assertion.spatial]
        pending = self._constrain([], [_Pure(p) for p in assertion.pure])
        if pending is not None and self._search(items, pending):
            return Sat()
        if self.gave_up:
            return Unknown(self.gave_up)
        return Unsat(self.failure)

    def _constrain(self, pending, new=(), bound=()) -> Optional[list]:
        """Propagate the equalities after conjoining ``new`` and binding
        ``bound``, and check the constraints that became ground.  Returns
        the constraints still pending, or None when the path fails."""
        try:
            pending, ground = _propagate(pending, self.binding, new, bound)
        except SortMismatch as exc:
            self.failure = str(exc)
            return None
        return pending if self._holds(ground) else None

    # the search returns True on the first completed path

    def _search(self, items, pending) -> bool:
        """Consume each ground points-to in turn, the first one first; then
        take the first ground predicate application; else, unless only
        blocks are left, the first nonground points-to against each free
        cell, then the first nonground application against each of its
        branches."""
        binding = self.binding
        while True:
            for i, item in enumerate(items):
                if item[0] == _POINTS_TO and item[1].base in binding:
                    break
            else:
                break           # no points-to left is ground
            pending = self._consume(item, pending)
            if pending is None:
                return False
            items = items[:i] + items[i + 1:]
        if not items:
            return self._finish(pending)
        keys = binding.keys()
        ground_app = loose_cell = loose_app = no_model = None
        for i, item in enumerate(items):
            kind = item[0]
            if kind == _POINTS_TO:
                if loose_cell is None:
                    loose_cell = i
            elif kind == _APPLY:
                if ground_app is None:
                    if keys >= item[3]:
                        ground_app = i
                    elif loose_app is None:
                        loose_app = i
            elif kind == _NO_MODEL and no_model is None:
                no_model = i
        if ground_app is not None:
            return self._unfold(ground_app, items, pending, ground_args=True)
        if loose_cell is not None:
            item = items[loose_cell]
            h = item[1]
            rest = items[:loose_cell] + items[loose_cell + 1:]
            mark = self._mark()
            for loc in self.locs:
                if loc in self.consumed:
                    continue
                binding[h.base] = LocVal(loc - h.offset)
                still = self._consume(item, pending, bound=(h.base,))
                if still is not None and self._search(rest, still):
                    return True
                self._undo(mark)
            self.failure = f"no cell matches {ssl.render_heaplet(h)}"
            return False
        if loose_app is not None:
            return self._unfold(loose_app, items, pending, ground_args=False)
        if no_model is not None:
            self.failure = (f"{ssl.render_heaplet(items[no_model][1])} has "
                            "no concrete model semantics")
            return False
        return self._finish_blocks(items, pending)

    def _consume(self, item, pending, bound=()) -> Optional[list]:
        """Consume the cell of the points-to ``item``, whose base is bound,
        after the caller bound the names ``bound``: match or bind its value
        and constrain the path.  Returns the constraints still pending, or
        None when the path fails."""
        h = item[1]
        binding = self.binding
        base = binding[h.base]
        if base.__class__ is not LocVal and base.__class__ is not IntVal:
            self.failure = f"{h.base} is not a location"
            return None
        loc = _num(base) + h.offset
        actual = self.cells.get(loc)
        if actual is None:
            self.failure = f"missing cell {loc} for {ssl.render_heaplet(h)}"
            return None
        if loc in self.consumed:
            self.failure = f"cell {loc} claimed twice"
            return None
        value = h.value
        new = ()
        if value.__class__ is ssl.PVar:
            # read or bind the variable directly
            expected = binding.get(value.name)
            if expected is None:
                binding[value.name] = actual
                bound += (value.name,)
            elif (why := _cell_mismatch(loc, actual, expected)) is not None:
                self.failure = why
                return None
        elif binding.keys() >= item[3]:
            try:
                expected = eval_pure(binding, value)
            except (SortMismatch, UnboundVariable) as exc:
                self.failure = str(exc)
                return None
            if (why := _cell_mismatch(loc, actual, expected)) is not None:
                self.failure = why
                return None
        else:
            lit = (ssl.PBool(actual.value) if actual.__class__ is BoolVal
                   else ssl.PInt(_num(actual)))
            new = [_Pure(ssl.PEq(value, lit))]
        # a binding can only matter to the constraints already pending
        if new or (bound and pending):
            pending = self._constrain(pending, new, bound)
            if pending is None:
                return None
        self.consumed[loc] = None
        return pending

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
        return h.__class__ is ssl.PointsTo or (
            _KIND[h.__class__] == _APPLY and h.name in self._consumers)

    def _unfold(self, i, items, pending, ground_args: bool) -> bool:
        _, h, d, _ = items[i]
        pred = self.env.preds.get(h.name)
        if pred is None:
            self.failure = f"unknown predicate {h.name}"
            return False
        if d <= 0:
            leftover = sorted(self.cells.keys() - self.consumed.keys())
            if leftover and not any(self._consumes(it[1]) for it in items):
                # no depth would help: nothing left can consume these cells
                self.failure = (f"heap cells {leftover} are not consumed by "
                                "any obligation left")
            else:
                self._give_up("unfolding depth bound exhausted")
            return False
        if len(h.args) != len(pred.params):
            self.failure = f"arity mismatch applying {h.name}"
            return False
        plans = _plans(pred)
        if ground_args:
            try:
                args = [eval_pure(self.binding, a) for a in h.args]
            except SortMismatch as exc:
                self.failure = str(exc)
                return False
            param_binding = {pname: val for (pname, _), val
                             in zip(pred.params, args)}
            chosen = []
            for p in plans:
                try:
                    if eval_pure_bool(param_binding, p.branch.cond):
                        chosen.append(p)
                except (SortMismatch, UnboundVariable):
                    chosen.append(p)
            plans = chosen
            if not plans:
                self.failure = (f"no branch of {h.name} matches "
                                f"{[str(a) for a in args]}")
                return False
        rest = items[:i] + items[i + 1:]
        arg_names = [(a.name,) if a.__class__ is ssl.PVar
                     else tuple(ssl.free_vars(a)) for a in h.args]
        mark = self._mark()
        for plan in plans:
            terms = list(h.args)
            names = list(arg_names)
            for name in plan.existentials:
                self._fresh += 1
                fresh = f"{name}?{self._fresh}"
                terms.append(ssl.PVar(fresh))
                names.append((fresh,))
            named = []
            for s in plan.locs:
                if terms[s].__class__ is not ssl.PVar:
                    # a location must be a variable: name the argument by a
                    # fresh existential equal to it
                    self._fresh += 1
                    var = ssl.PVar(f"{pred.params[s][0]}?{self._fresh}")
                    named.append(_Pure(ssl.PEq(var, terms[s])))
                    terms[s], names[s] = var, (var.name,)
            new_items, new = plan.instance(terms, names, d - 1)
            still = self._constrain(pending, named + new)
            if still is not None and self._search(rest + new_items, still):
                return True
            self._undo(mark)
        return False

    def _finish_blocks(self, items, pending) -> bool:
        blocks = []
        for _, h, _, _ in items:
            if h.__class__ is ssl.HeapEmp:
                continue
            if h.__class__ is not ssl.Block:
                self.failure = f"unresolved heaplet {ssl.render_heaplet(h)}"
                return False
            base = self.binding.get(h.base)
            if base is None:
                self.failure = f"block base {h.base} is unresolved"
                return False
            if base.__class__ is not LocVal and base.__class__ is not IntVal:
                self.failure = f"{h.base} is not a location"
                return False
            blocks.append((_num(base), h.size))
        return self._finish(pending, blocks)

    def _finish(self, pending, blocks=()) -> bool:
        consumed = self.consumed
        if len(consumed) < len(self.cells):     # only cells are consumed
            leftover = sorted(self.cells.keys() - consumed.keys())
            self.failure = f"heap cells {leftover} are not consumed"
            return False
        for base, size in blocks:
            for loc in range(base, base + size):
                if loc not in consumed:
                    self.failure = (f"block [{base},{size}] covers cell {loc} "
                                    "claimed by no points-to")
                    return False
        if not pending:
            return True
        # the remaining unknowns are existentially quantified and constrained
        # only by pure terms.  Groups of constraints that share no unknown
        # are solved apart: search a small witness domain for each, and give
        # up (Unknown, not Unsat) when one is too large or holds no witness
        if self._witnesses is None:
            # 0, 1, 2, each cell's location and each other integer a cell
            # holds; the heap is fixed, so the domain is built once
            candidates = [IntVal(0), IntVal(1), IntVal(2)]
            candidates += [LocVal(loc) for loc in self.locs]
            taken = {0, 1, 2, *self.locs}
            for v in self.cells.values():
                if v.__class__ is IntVal and v.value not in taken:
                    taken.add(v.value)
                    candidates.append(v)
            self._witnesses = candidates
        candidates = self._witnesses
        for unknowns, group in _residual_groups(pending, self.binding):
            if len(unknowns) > 6:
                self._give_up(f"too many residual existentials: {unknowns}")
                return False
            if not self._assign(unknowns, candidates, group):
                self._give_up(f"no witness for residual existentials "
                              f"{unknowns} among {len(candidates)} candidates")
                return False
        return True

    def _holds(self, terms) -> bool:
        """Whether every ground term evaluates true; records the failure."""
        for p in terms:
            try:
                if not eval_pure_bool(self.binding, p):
                    self.failure = f"pure conjunct {ssl.render_pure(p)} is false"
                    return False
            except (SortMismatch, UnboundVariable) as exc:
                self.failure = str(exc)
                return False
        return True

    def _assign(self, unknowns, candidates, pending) -> bool:
        """Try each candidate for the first unbound unknown, propagate, and
        check the constraints that became ground.  With every unknown bound,
        check what is pending."""
        binding = self.binding
        u = next((u for u in unknowns if u not in binding), None)
        if u is None:
            return self._holds([r.term for r in pending])
        mark = self._mark()
        for cand in candidates:
            binding[u] = cand
            still = self._constrain(pending, bound=(u,))
            if still is not None and self._assign(unknowns, candidates, still):
                return True
            self._undo(mark)
        return False


def satisfies(model: Model, assertion: ssl.SslAssertion, env: PredicateEnv,
              depth: int = 64) -> SatResult:
    """Whole-heap satisfaction: Sat iff the heap partitions across the
    spatial conjuncts and the pure part evaluates true."""
    return _Checker(model, env, depth).check(assertion)


# ---------------------------------------------------------------------------
# Predicate environments for the harness
# ---------------------------------------------------------------------------

def _instantiations_in(exprs) -> dict:
    """Each single-argument instantiation in ``exprs`` at a named argument
    layout, under its ``instantiation_key``.  One walk with an explicit
    stack, dispatching on the exact class of the core kinds; any other
    kind's subexpressions come from ``S.subexprs``."""
    found = {}
    stack = list(exprs)
    while stack:
        e = stack.pop()
        cls = e.__class__
        if cls is S.Lower:
            stack.append(e.arg)
        elif cls is S.ConstructorApp:
            stack += e.args
        elif cls is S.Instantiate:
            arg_layouts = e.arg_layouts
            if len(arg_layouts) == 1 \
                    and arg_layouts[0].__class__ is S.NamedLayout:
                found[instantiation_key(e.fn, arg_layouts[0],
                                        e.result_layout)] = e
            stack += e.args
        elif cls is S.BinOp:
            stack.append(e.lhs)
            stack.append(e.rhs)
        elif cls is not S.IntLit and cls is not S.Var:
            stack += S.subexprs(e)
    return found


def _closure(genv: GlobalEnv, key, e: S.Instantiate) -> dict:
    """The predicates, by name, of the instantiation ``e`` and of every
    instantiation its cases reach, each at its layouts as written; a call
    of a function the environment does not define reaches nothing."""
    closure, done, work = {}, set(), [(key, e)]
    while work:
        key, e = work.pop()
        if key in done or e.fn not in genv.fn_defs:
            continue
        done.add(key)
        arg_ref, result_ref = e.arg_layouts[0], e.result_layout
        pred = translate_fn_def_core(genv, e.fn, arg_ref, result_ref)
        closure[pred.name] = pred
        cases = core_cases(genv, e.fn, arg_ref, result_ref)
        work += _instantiations_in(body for _, body in cases.values()).items()
    return closure


def build_predicate_env(genv: GlobalEnv, exprs=()) -> PredicateEnv:
    """Layout predicates for every layout plus function predicates for every
    instantiation reachable from the given expressions.  Each is translated
    once per environment and translators, into ``genv.predicates``; every
    call returns a fresh ``PredicateEnv`` with its own ``preds`` dict."""
    translators = (translate_layout_predicate, translate_fn_def_core)
    memo = genv.predicates
    if memo.get("translators") != translators:
        memo.clear()
        memo["translators"] = translators
        memo["layouts"] = {p.name: p for p in map(translate_layout_predicate,
                                                  genv.layouts.values())}
    preds = dict(memo["layouts"])
    for key, e in _instantiations_in(exprs).items():
        closure = memo.get(key)
        if closure is None:
            closure = memo[key] = _closure(genv, key, e)
        preds.update(closure)
    return PredicateEnv(preds)


# ---------------------------------------------------------------------------
# Soundness harness
# ---------------------------------------------------------------------------

class SoundnessReport(Node):
    __slots__ = ("result", "model", "assertion", "trace")


def check_soundness(genv: GlobalEnv, e: S.Expr, depth: int = 64) -> SoundnessReport:
    val, store, heap, _, r = eval_expr(genv, e)
    core = translate_expr_core(genv, e, free_vars=(), result_var=r)
    assertion = core.assertion()
    env = build_predicate_env(genv, exprs=[e])
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
    return SoundnessReport(result, model, assertion, trace)


# ---------------------------------------------------------------------------
# Core expression generation
# ---------------------------------------------------------------------------

class LayoutDraw(namedtuple("LayoutDraw", ("ref", "empties", "non_empties",
                                           "fields", "unsupported"))):
    """What drawing a ``lower`` into one layout reads: the shared layout
    reference, the empty and non-empty branch patterns in branch order, and
    per constructor one entry per field: the layout name to lower it into
    (the layout the branch applies to it, else the field type's first
    layout) for a field of an ADT, else the field's base type.  A constructor with a
    field that cannot be drawn (an ADT with no layout to lower into, or a
    function) is left out of ``fields``; ``unsupported`` says why."""
    __slots__ = ()


class CoreSignature(Node):
    """The pool the generator draws from: each single-argument core
    function at every (argument layout, result layout) pair the elaborator
    accepts.  The draw tables are built once, by ``from_env``: the layouts
    sorted by ADT and name, the pool entries by result layout, and a
    ``LayoutDraw`` per layout."""
    __slots__ = ("genv", "pool",    # pool: [(fn, arg layout, result layout)]
                 "layouts", "fns_by_layout", "draws")

    @staticmethod
    def from_env(genv: GlobalEnv) -> "CoreSignature":
        """Raises the first elaboration error when no candidate function
        elaborates at any pair of layouts."""
        by_adt = {}
        for layout in genv.layouts.values():
            by_adt.setdefault(layout.adt, []).append(layout.name)
        pool, rejected = [], None
        # a snapshot: elaboration may register specialisations
        for fn in list(genv.fn_defs):
            sig = genv.fn_sigs.get(fn)
            if sig is None or not isinstance(sig, S.TFn) \
                    or not isinstance(sig.arg, S.TName) \
                    or not isinstance(sig.res, S.TName):
                continue
            for arg in by_adt.get(sig.arg.name, ()):
                for res in by_adt.get(sig.res.name, ()):
                    try:
                        core_cases(genv, fn, S.NamedLayout(arg),
                                   S.NamedLayout(res))
                    except UnsupportedConstruct:
                        continue        # not a core function
                    except PikaError as exc:
                        rejected = rejected or exc
                        continue
                    pool.append((fn, arg, res))
        if not pool and rejected is not None:
            raise rejected
        pool.sort()
        fns_by_layout = {}
        for p in pool:
            fns_by_layout.setdefault(p[2], []).append(p)
        layouts = sorted(genv.layouts, key=lambda n: (genv.layouts[n].adt, n))
        draws = {name: _layout_draw(genv, by_adt, layout)
                 for name, layout in genv.layouts.items()}
        return CoreSignature(genv, pool, layouts, fns_by_layout, draws)


def _layout_draw(genv: GlobalEnv, by_adt: dict,
                 layout: S.LayoutDef) -> LayoutDraw:
    fields, unsupported = {}, {}
    for shape in layout.shapes.values():
        pat, applies = shape.pattern, shape.applies
        subs = []
        for var, fty in zip(pat.vars, genv.ctors[pat.ctor][0]):
            if isinstance(fty, S.TFn):
                unsupported[pat.ctor] = f"a field of {pat.ctor} is a function"
                break
            if not isinstance(fty, S.TName):
                subs.append(fty)
            elif var in applies or fty.name in by_adt:
                subs.append(applies.get(var) or by_adt[fty.name][0])
            else:
                unsupported[pat.ctor] = (f"a field of {pat.ctor} has no layout "
                                         f"to lower into")
                break
        else:
            fields[pat.ctor] = tuple(subs)
    return LayoutDraw(S.NamedLayout(layout.name), *layout.emptiness, fields,
                      unsupported)


_KINDS = ("int", "adt", "adt", "adt")


def gen_core_expr(sig: CoreSignature, seed: int, budget: int) -> S.Expr:
    """A closed, well-typed core expression; deterministic in the seed."""
    rng = random.Random(seed)
    kind = rng.choice(_KINDS) if sig.layouts else "int"
    if kind == "int" or budget <= 1:
        return _gen_int(rng, budget)
    return _gen_at(sig, rng, rng.choice(sig.layouts), budget)


def _gen_int(rng, budget) -> S.Expr:
    if budget <= 1 or rng.random() < 0.4:
        return S.IntLit(rng.randint(-3, 9))
    left = budget // 2
    return S.BinOp("+", _gen_int(rng, left), _gen_int(rng, budget - left))


def _gen_at(sig: CoreSignature, rng, layout_name: str, budget: int) -> S.Expr:
    """A value at ``layout_name``: a call of a pool function whose result
    is there, or a ``lower`` into it."""
    fns = sig.fns_by_layout.get(layout_name)
    if budget > 2 and fns and rng.random() < 0.5:
        fn, arg_layout, _ = rng.choice(fns)
        if budget > 5 and arg_layout in sig.fns_by_layout \
                and rng.random() < 0.35:
            arg = _gen_at(sig, rng, arg_layout, budget - 2)
        else:
            arg = _gen_lower(sig, rng, arg_layout, budget - 2)
        return S.Instantiate((sig.draws[arg_layout].ref,),
                             sig.draws[layout_name].ref, fn, [arg])
    return _gen_lower(sig, rng, layout_name, budget)


def _gen_lower(sig: CoreSignature, rng, layout_name: str, budget: int) -> S.Expr:
    draw = sig.draws[layout_name]
    empties, non_empties = draw.empties, draw.non_empties
    if budget <= 2 or not non_empties or (empties and rng.random() < 0.25):
        pat = rng.choice(empties or non_empties)
    else:
        pat = rng.choice(non_empties)
    ctor = pat.ctor
    fields = draw.fields.get(ctor)
    if fields is None:
        raise UnsupportedConstruct(
            f"layout {layout_name}: {draw.unsupported[ctor]}", pat.span)
    share = max(1, (budget - 1) // len(fields)) if fields else 0
    args = [_gen_lower(sig, rng, sub, share) if isinstance(sub, str)
            else S.BoolLit(rng.random() < 0.5) if isinstance(sub, S.TBool)
            else _gen_int(rng, min(share, 3)) for sub in fields]
    return S.Lower(draw.ref, S.ConstructorApp(ctor, args))


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
