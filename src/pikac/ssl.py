"""SSL intermediate representation and SuSLik-syntax emission.

An assertion pairs a pure Boolean part with a spatial symbolic heap
(separating conjunction of heaplets).  Inductive predicates carry guarded
branches of assertions; goal specifications carry a pre/post pair.  Each
binary operator kind declares its symbol and precedence once; the printer,
the parser and ``BINARY_OPS`` (symbol to kind) are derived from them.

Emission targets SuSLik's concrete input syntax.  A small parser for that
syntax is maintained here, on ``syntax``'s token cursor, so tests can check
that emitted text re-parses to a structurally equivalent definition, and so
reference outputs can be loaded for golden comparisons.  ``structural_equiv``
compares predicates up to a bijective renaming of variables and a
reordering of branches, conjuncts, heaplets and the operands of ``==`` and
``&&``; one matcher, ``_match``, compares pure terms and heaplets alike,
walking them through ``subterms``.
"""

from __future__ import annotations

import re

from .errors import ParseError, SortMismatch, Span
from .node import Frozen, cached
from .syntax import _FIRST_KINDS, Tokens, _Cursor, render_loc

_set = object.__setattr__


# ---------------------------------------------------------------------------
# Pure terms
# ---------------------------------------------------------------------------

class PInt(Frozen):
    __slots__ = ("value",)


class PBool(Frozen):
    __slots__ = ("value",)


class PVar(Frozen):
    __slots__ = ("name",)


class _Binary(Frozen):
    """A binary operator.  Each kind declares its ``symbol`` and its ``prec``
    (binding strength, 1 the loosest; all are left-associative); the
    printer, the parser and the translation read them."""
    __slots__ = ("lhs", "rhs")


class PEq(_Binary):
    __slots__ = ()
    symbol, prec = "==", 2


class PAnd(_Binary):
    __slots__ = ()
    symbol, prec = "&&", 1


class PNot(Frozen):
    __slots__ = ("arg",)


class PLt(_Binary):
    __slots__ = ()
    symbol, prec = "<", 2


class PAdd(_Binary):
    __slots__ = ()
    symbol, prec = "+", 3


class PSub(_Binary):
    __slots__ = ()
    symbol, prec = "-", 3


class PMod(_Binary):
    __slots__ = ()
    symbol, prec = "%", 4


class PTernary(Frozen):
    __slots__ = ("cond", "then", "els")


PureTerm = (PInt, PBool, PVar, PEq, PAnd, PNot, PLt, PAdd, PSub, PMod,
            PTernary)

TRUE = PBool(True)


# pand_all, conjuncts and SslAssertion.make drop ``true`` conjuncts by a
# class test: ``t != TRUE`` costs two ``__eq__`` calls on any other kind

def pand_all(terms) -> PureTerm:
    """Right-nested conjunction of the given terms; TRUE when empty."""
    terms = [t for t in terms if t.__class__ is not PBool or not t.value]
    if not terms:
        return TRUE
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = PAnd(t, out)
    return out


def conjuncts(term: PureTerm) -> list[PureTerm]:
    if term.__class__ is PAnd:
        return conjuncts(term.lhs) + conjuncts(term.rhs)
    if term.__class__ is PBool and term.value:
        return []
    return [term]


# ---------------------------------------------------------------------------
# Heaplets and assertions
# ---------------------------------------------------------------------------

class HeapEmp(Frozen):
    __slots__ = ()


class PointsTo(Frozen):
    __slots__ = ("base", "offset", "value")


class Block(Frozen):
    __slots__ = ("base", "size")


class _Call(Frozen):
    __slots__ = ("name", "args")


class PredApply(_Call):
    __slots__ = ()


class FuncApply(_Call):
    """Call marker for an already-synthesised function; last arg is the output."""
    __slots__ = ()


class TempLoc(Frozen):
    __slots__ = ("var",)


class RoApply(_Call):
    """Read-only structure assertion over an unconsumed argument."""
    __slots__ = ()


Heaplet = (HeapEmp, PointsTo, Block, PredApply, FuncApply, TempLoc, RoApply)


class SslAssertion(Frozen):
    # pure: tuple[PureTerm, ...] conjuncts, empty means true;
    # spatial: tuple[Heaplet, ...]
    __slots__ = ("pure", "spatial")

    def __init__(self, pure: tuple, spatial: tuple):
        seen = set()
        for h in spatial:
            if h.__class__ is PointsTo:
                key = (h.base, h.offset)
                if key in seen:
                    raise ValueError(f"duplicate points-to at {h.base}+{h.offset}")
                seen.add(key)
        _set(self, "pure", pure)
        _set(self, "spatial", spatial)

    @staticmethod
    def make(pure, spatial) -> "SslAssertion":
        pure = tuple([p for p in pure
                      if p.__class__ is not PBool or not p.value])
        spatial = tuple([h for h in spatial if h.__class__ is not HeapEmp])
        return SslAssertion(pure, spatial)


EMPTY_ASSERTION = SslAssertion((), ())


def conj_otimes(a: SslAssertion, b: SslAssertion) -> SslAssertion:
    """Conjoin two assertions: pures conjoined, heaps separately conjoined."""
    return SslAssertion.make(a.pure + b.pure, a.spatial + b.spatial)


class Branch(Frozen):
    __slots__ = ("cond", "body")


class PredicateDef(Frozen):
    # params: tuple[(name, sort)], sort in {'int', 'loc'};
    # branches: tuple[Branch, ...]
    __slots__ = ("name", "params", "branches", "__dict__")

    @cached
    def existentials(self) -> tuple:
        """Per branch, the sorted names it uses that are not parameters."""
        params = {p for p, _ in self.params}
        return tuple(
            tuple(sorted(set().union(*map(free_vars, (b.cond,) + b.body.pure
                                          + b.body.spatial)) - params))
            for b in self.branches)


class GoalSpec(Frozen):
    # params: tuple[(sort, name)]
    __slots__ = ("name", "params", "pre", "post")


# ---------------------------------------------------------------------------
# Traversal of pure terms and heaplets: subterms, free_vars, subst
# ---------------------------------------------------------------------------

_BINARY = frozenset(_Binary.__subclasses__())
BINARY_OPS = {cls.symbol: cls for cls in _BINARY}     # symbol -> kind
_APPLIES = frozenset((PredApply, FuncApply, RoApply))
_LEAVES = frozenset((PInt, PBool, PVar, HeapEmp, Block, TempLoc))


def subterms(x) -> tuple:
    """The pure terms directly inside a pure term or heaplet, left to right."""
    cls = x.__class__
    if cls in _LEAVES:
        return ()
    if cls in _BINARY:
        return (x.lhs, x.rhs)
    if cls is PNot:
        return (x.arg,)
    if cls is PTernary:
        return (x.cond, x.then, x.els)
    if cls is PointsTo:
        return (x.value,)
    if cls in _APPLIES:
        return x.args
    raise TypeError(x)


# free_vars and subst run on every assertion the model checker checks and
# every renaming the translation makes, so they recurse directly rather
# than through subterms, and dispatch on the exact class: the IR's classes
# have no subclasses.

def free_vars(x) -> set[str]:
    """The variable names in a pure term or heaplet, location names
    included; a new set on every call."""
    cls = x.__class__
    if cls is PVar:
        return {x.name}
    if cls in _BINARY:
        return free_vars(x.lhs) | free_vars(x.rhs)
    if cls is PInt or cls is PBool or cls is HeapEmp:
        return set()
    if cls is PNot:
        return free_vars(x.arg)
    if cls is PTernary:
        return free_vars(x.cond) | free_vars(x.then) | free_vars(x.els)
    if cls is PointsTo:
        out = free_vars(x.value)
        out.add(x.base)
        return out
    if cls in _APPLIES:
        return set().union(*map(free_vars, x.args))
    if cls is Block:
        return {x.base}
    if cls is TempLoc:
        return {x.var}
    raise TypeError(x)


def subst(x, sub: dict):
    """A pure term or heaplet with each variable named in ``sub`` replaced
    by its pure term.  A location (a points-to or block base, a temploc)
    can only be renamed: bound to a term other than a ``PVar`` it raises
    ``SortMismatch``."""
    cls = x.__class__
    if cls is PVar:
        return sub.get(x.name, x)
    if cls in _BINARY:
        return cls(subst(x.lhs, sub), subst(x.rhs, sub))
    if cls is PInt or cls is PBool or cls is HeapEmp:
        return x
    if cls is PNot:
        return PNot(subst(x.arg, sub))
    if cls is PTernary:
        return PTernary(subst(x.cond, sub), subst(x.then, sub),
                        subst(x.els, sub))
    if cls is PointsTo:
        return PointsTo(_subst_loc(x.base, sub), x.offset,
                        subst(x.value, sub))
    if cls in _APPLIES:
        return cls(x.name, tuple([subst(a, sub) for a in x.args]))
    if cls is Block:
        return Block(_subst_loc(x.base, sub), x.size)
    if cls is TempLoc:
        return TempLoc(_subst_loc(x.var, sub))
    raise TypeError(x)


def _subst_loc(name: str, sub: dict) -> str:
    term = sub.get(name)
    if term is None:
        return name
    if isinstance(term, PVar):
        return term.name
    raise SortMismatch(f"location parameter bound to {term}")


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

# render_pure and render_heaplet run on every term and heaplet that compile
# emits, so they dispatch on the exact class, as free_vars does

def render_pure(t: PureTerm, atom: bool = False) -> str:
    """Render a pure term; compound terms are parenthesised when nested."""
    cls = t.__class__
    if cls is PVar:
        return t.name
    if cls is PInt:
        return str(t.value) if t.value >= 0 or not atom else f"({t.value})"
    if cls is PBool:
        return "true" if t.value else "false"
    if cls in _BINARY:
        s = f"{render_pure(t.lhs, True)} {t.symbol} {render_pure(t.rhs, True)}"
    elif cls is PNot:
        s = f"not {render_pure(t.arg, True)}"
    elif cls is PTernary:
        s = (f"{render_pure(t.cond, True)} ? {render_pure(t.then, True)} : "
             f"{render_pure(t.els, True)}")
    else:
        raise TypeError(t)
    return f"({s})" if atom else s


def render_cond(t: PureTerm) -> str:
    """Render a branch condition in the guard style: each conjunct wrapped."""
    parts = conjuncts(t)
    if not parts:
        return "true"
    rendered = [render_pure(p, True) for p in parts]
    if len(rendered) == 1:
        return rendered[0]
    return f"({' && '.join(rendered)})"


def render_heaplet(h: Heaplet) -> str:
    cls = h.__class__
    if cls is PointsTo:
        return f"{render_loc(h.base, h.offset)} :-> {render_pure(h.value, True)}"
    if cls in _APPLIES:
        call = f"{h.name}({', '.join([render_pure(a, True) for a in h.args])})"
        return "func " + call if cls is FuncApply else call
    if cls is Block:
        return f"[{h.base},{h.size}]"
    if cls is TempLoc:
        return f"temploc {h.var}"
    if cls is HeapEmp:
        return "emp"
    raise TypeError(h)


def render_assertion(a: SslAssertion) -> str:
    spatial = " ** ".join(map(render_heaplet, a.spatial)) if a.spatial else "emp"
    if not a.pure:
        return spatial
    pure = " && ".join(map(render_pure, a.pure))
    return f"{pure} ; {spatial}"


def emit_predicate(pred: PredicateDef) -> str:
    """Emit a predicate definition in SuSLik concrete syntax."""
    params = ", ".join([f"{sort} {name}" for name, sort in pred.params])
    lines = [f"predicate {pred.name}({params}) {{"]
    for br in pred.branches:
        lines.append(f"| {render_cond(br.cond)} => {{ {render_assertion(br.body)} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_goal_spec(goal: GoalSpec) -> str:
    params = ", ".join([f"{sort} {name}" for sort, name in goal.params])
    return (
        f"void {goal.name}({params})\n"
        f"{{ {render_assertion(goal.pre)} }}\n"
        f"{{ {render_assertion(goal.post)} }}\n"
        "{ ?? }\n"
    )


# ---------------------------------------------------------------------------
# Parsing emitted syntax (tests and golden references)
# ---------------------------------------------------------------------------

# One match per token, as in ``syntax.lex``: the whitespace and comments
# before it, then the token itself, any other single character (illegal), or
# the end of input.
_SUS_SYMBOLS = (":->", ":=>", "**", "==", "&&", "||", "=>", "??")
_SUS_CHARS = "(){}[],;|?:+-%<"
_SUS_TOKEN = re.compile(
    r"((?:\s+|//[^\n]*|#[^\n]*)*)"
    r"(-?[0-9]+|[A-Za-z_][A-Za-z0-9_']*|"
    + "|".join(map(re.escape, _SUS_SYMBOLS))
    + f"|[{re.escape(_SUS_CHARS)}]" + r"|\S|\Z)")
_SUS_KINDS = {w: w for w in (*_SUS_SYMBOLS, *_SUS_CHARS)}


class _SusParser(_Cursor):
    END = "unexpected end of SSL input"
    EOF = "EOF"
    FOUND = "texts"

    def __init__(self, text: str):
        """Tokenise as ``syntax.lex`` does: a symbol is its own kind, any
        other token an ``int`` or an ``ident`` by its first character."""
        kinds, texts, lines, cols = [], [], [], []
        line, start, pos = 1, 0, 0     # start: the offset of the line
        for skipped, tok in _SUS_TOKEN.findall(text):
            if "\n" in skipped:
                line += skipped.count("\n")
                start = pos + skipped.rfind("\n") + 1
            pos += len(skipped)
            if not tok:
                break
            col = pos - start + 1
            kind = _SUS_KINDS.get(tok) or _FIRST_KINDS.get(tok[0])
            if kind is None:
                raise ParseError(f"bad SSL syntax near {text[pos:pos+10]!r}",
                                 Span(line, col))
            kinds.append(kind)
            texts.append(tok)
            lines.append(line)
            cols.append(col)
            pos += len(tok)
        kinds.append(None)
        super().__init__(Tokens(kinds, texts, lines, cols))

    def at_text(self, text) -> bool:
        return self.kinds[self.pos] is not None and self.texts[self.pos] == text

    # pure terms: binary operators bind as their kinds' ``prec`` says; a
    # ternary is written in parentheses, (c ? a : b)

    def parse_pure(self, prec: int = 1) -> PureTerm:
        left = self._parse_pure_atom()
        while True:
            cls = BINARY_OPS.get(self.kinds[self.pos])
            if cls is None or cls.prec < prec:
                return left
            self.pos += 1
            left = cls(left, self.parse_pure(cls.prec + 1))

    def _parse_pure_atom(self) -> PureTerm:
        kind = self.current()
        text = self.texts[self.pos]
        if kind == "int":
            self.next()
            return PInt(int(text))
        if kind == "ident":
            self.next()
            if text == "true":
                return PBool(True)
            if text == "false":
                return PBool(False)
            if text == "not":
                return PNot(self._parse_pure_atom())
            if text == "null":
                return PInt(0)
            return PVar(text)
        if kind == "(":
            self.next()
            inner = self.parse_pure()
            if self.at("?"):
                self.next()
                then = self.parse_pure()
                self.expect(":")
                els = self.parse_pure()
                inner = PTernary(inner, then, els)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {text!r} in pure term", self.span())

    # heaplets / assertions

    def parse_heaplet(self) -> Heaplet:
        start = self.pos
        kind = self.current()
        text = self.texts[start]
        if kind == "ident" and text == "emp":
            self.next()
            return HeapEmp()
        if kind == "ident" and text == "temploc":
            self.next()
            return TempLoc(self.expect("ident"))
        if kind == "ident" and text == "func":
            self.next()
            name = self.expect("ident")
            args = self._parse_arg_list()
            return FuncApply(name, tuple(args))
        if kind == "[":
            self.next()
            base = self.expect("ident")
            self.expect(",")
            size = int(self.expect("int"))
            self.expect("]")
            return Block(base, size)
        # location or predicate application
        base, offset = self._parse_loc()
        if self.at(":->", ":=>"):
            self.next()
            value = self.parse_pure()
            return PointsTo(base, offset, value)
        if offset == 0 and self.at("("):
            args = self._parse_arg_list()
            if base.startswith("ro_"):
                return RoApply(base, tuple(args))
            return PredApply(base, tuple(args))
        raise ParseError(f"expected heaplet near {text!r}", self.span(start))

    def _parse_loc(self) -> tuple[str, int]:
        if self.at("("):
            self.next()
            base = self.expect("ident")
            self.expect("+")
            off = int(self.expect("int"))
            self.expect(")")
            return base, off
        base = self.expect("ident")
        if self.at("+"):
            self.next()
            return base, int(self.expect("int"))
        return base, 0

    def _parse_arg_list(self) -> list[PureTerm]:
        self.expect("(")
        return self._comma_list(self.parse_pure, ")")

    def parse_assertion(self) -> SslAssertion:
        save = self.pos
        pure: list[PureTerm] = []
        # try "pure ; spatial"; backtrack to spatial-only on failure
        try:
            p = self.parse_pure()
            if self.at(";"):
                self.next()
                pure = conjuncts(p)
            else:
                self.pos = save
        except ParseError:
            self.pos = save
        spatial = [self.parse_heaplet()]
        while self.at("**"):
            self.next()
            spatial.append(self.parse_heaplet())
        return SslAssertion.make(tuple(pure), tuple(spatial))

    def parse_predicate(self) -> PredicateDef:
        start = self.pos
        kw = self.expect("ident")
        if kw not in ("predicate", "inductive"):
            raise ParseError(f"expected 'predicate', found {kw!r}",
                             self.span(start))
        name = self.expect("ident")
        self.expect("(")
        params = self._comma_list(self._parse_param, ")")
        self.expect("{")
        branches = []
        while self.at("|"):
            self.next()
            cond = self.parse_pure()
            self.expect("=>")
            self.expect("{")
            body = self.parse_assertion()
            self.expect("}")
            branches.append(Branch(cond, body))
        self.expect("}")
        return PredicateDef(name, tuple(params), tuple(branches))

    def _parse_param(self) -> tuple[str, str]:
        start = self.pos
        sort = self.expect("ident")
        if sort not in ("int", "loc"):
            raise ParseError(f"unknown parameter sort {sort!r}", self.span(start))
        name = self.expect("ident")
        return (name, sort)

    def parse_goal(self) -> GoalSpec:
        start = self.pos
        kw = self.expect("ident")
        if kw != "void":
            raise ParseError(f"expected 'void', found {kw!r}", self.span(start))
        name = self.expect("ident")
        self.expect("(")
        params = self._comma_list(
            lambda: (self.expect("ident"), self.expect("ident")), ")")
        self.expect("{")
        pre = self.parse_assertion()
        self.expect("}")
        self.expect("{")
        post = self.parse_assertion()
        self.expect("}")
        self.expect("{")
        self.expect("??")
        self.expect("}")
        return GoalSpec(name, tuple(params), pre, post)

    def parse_file(self) -> list:
        out = []
        while self.peek() is not None:
            out.append(self.parse_goal() if self.at_text("void")
                       else self.parse_predicate())
        return out


def parse_predicate(text: str) -> PredicateDef:
    """Parse one predicate definition; trailing input is an error."""
    parser = _SusParser(text)
    return parser.whole(parser.parse_predicate)


def parse_goal_spec(text: str) -> GoalSpec:
    """Parse one goal specification; trailing input is an error."""
    parser = _SusParser(text)
    return parser.whole(parser.parse_goal)


def parse_sus_file(text: str) -> list:
    """Parse a whole emitted file: a mix of predicates and goal specs."""
    return _SusParser(text).parse_file()


# ---------------------------------------------------------------------------
# Structural equivalence
# ---------------------------------------------------------------------------

class _Bij:
    """A bijection between the variable names of two definitions.  It grows
    along a match; a trial that fails pops it back to the mark taken before
    it, ``len(fwd)``, as ``modelcheck._Checker._undo`` pops its binding."""

    def __init__(self):
        self.fwd: dict[str, str] = {}
        self.rev: dict[str, str] = {}

    def unify(self, a: str, b: str) -> bool:
        if a in self.fwd:
            return self.fwd[a] == b
        if b in self.rev:
            return False
        self.fwd[a] = b
        self.rev[b] = a
        return True

    def undo(self, mark: int):
        fwd, rev = self.fwd, self.rev
        while len(fwd) > mark:
            del rev[fwd.popitem()[1]]


_COMMUTATIVE = frozenset((PEq, PAnd))


def _key(x, rename: dict) -> tuple:
    """What a match compares of ``x`` besides its kind and subterms: its
    label (a literal's value, a cell's offset, a block's size, or a call's
    callee, through ``rename``, and arity) and the variable or location
    name it is or names; None where it has none."""
    cls = x.__class__
    if cls is PVar:
        return None, x.name
    if cls is PInt or cls is PBool:
        return x.value, None
    if cls is PointsTo:
        return x.offset, x.base
    if cls is Block:
        return x.size, x.base
    if cls is TempLoc:
        return None, x.var
    if cls in _APPLIES:
        return (rename.get(x.name, x.name), len(x.args)), None
    return None, None


def _match(a, b, bij: _Bij, rename: dict) -> bool:
    """Whether pure term or heaplet ``a`` matches ``b`` under ``bij``, grown
    as it goes: one kind and label, names paired by ``bij``, and subterms
    (``subterms``) matching in order, or in either order for ``==`` and
    ``&&``.
    ``rename`` maps ``a``'s callees to ``b``'s.  On failure ``bij`` may
    hold new pairs, for the caller to pop."""
    if a.__class__ is not b.__class__:
        return False
    (label, name), (label_b, name_b) = _key(a, rename), _key(b, {})
    if label != label_b or name is not None and not bij.unify(name, name_b):
        return False
    xs, ys = subterms(a), subterms(b)
    if a.__class__ in _COMMUTATIVE:
        return _match_multiset(xs, ys, bij, rename, _match)
    return all(_match(x, y, bij, rename) for x, y in zip(xs, ys))


def _match_multiset(items_a, items_b, bij: _Bij, rename: dict, match) -> bool:
    """Backtracking multiset matcher under a growing bijection."""
    if len(items_a) != len(items_b):
        return False
    if not items_a:
        return True
    a, rest_a = items_a[0], items_a[1:]
    mark = len(bij.fwd)
    for i, b in enumerate(items_b):
        if match(a, b, bij, rename) and _match_multiset(
                rest_a, items_b[:i] + items_b[i + 1:], bij, rename, match):
            return True
        bij.undo(mark)
    return False


def _match_assertion(a: SslAssertion, b: SslAssertion, bij: _Bij,
                     rename: dict) -> bool:
    # heaplets first: they ground most variables
    return (_match_multiset(a.spatial, b.spatial, bij, rename, _match)
            and _match_multiset(a.pure, b.pure, bij, rename, _match))


def _match_branch(a: Branch, b: Branch, bij: _Bij, rename: dict) -> bool:
    return (_match(a.cond, b.cond, bij, rename)
            and _match_assertion(a.body, b.body, bij, rename))


def _param_bij(params_a, params_b):
    """The bijection that pairs two ``(name, sort)`` parameter lists in
    order, or None when their lengths or sorts differ or it is not one."""
    if len(params_a) != len(params_b):
        return None
    bij = _Bij()
    for (pa, sa), (pb, sb) in zip(params_a, params_b):
        if sa != sb or not bij.unify(pa, pb):
            return None
    return bij


def structural_equiv(a: PredicateDef, b: PredicateDef) -> bool:
    """True iff some bijective renaming of variables plus a reordering of
    pure conjuncts, heaplets, and branches, and of the operands of ``==``
    and ``&&``, makes the two predicates equal.  Parameter order and sorts
    are significant; the two definitions' own names map to each other, all
    other predicate names must match exactly."""
    bij = _param_bij(a.params, b.params)
    return bij is not None and _match_multiset(
        a.branches, b.branches, bij, {a.name: b.name}, _match_branch)


def goal_structural_equiv(a: GoalSpec, b: GoalSpec) -> bool:
    """``structural_equiv`` for goal specifications, pre to pre and post to
    post."""
    bij = _param_bij([p[::-1] for p in a.params], [p[::-1] for p in b.params])
    rename = {a.name: b.name}
    return (bij is not None and _match_assertion(a.pre, b.pre, bij, rename)
            and _match_assertion(a.post, b.post, bij, rename))


# ---------------------------------------------------------------------------
# Node counting (expressiveness comparison)
# ---------------------------------------------------------------------------

def count_pure_nodes(t: PureTerm) -> int:
    return 1 + sum(map(count_pure_nodes, subterms(t)))


def count_heaplet_nodes(h: Heaplet) -> int:
    """One node for the heaplet, one for each location, nonzero offset and
    block size it names, and the nodes of its pure terms."""
    n = 1 + sum(map(count_pure_nodes, subterms(h)))
    if isinstance(h, PointsTo):
        return n + 1 + (h.offset != 0)
    if isinstance(h, Block):
        return n + 2
    if isinstance(h, TempLoc):
        return n + 1
    return n


def count_assertion_nodes(a: SslAssertion) -> int:
    return (sum(count_pure_nodes(p) for p in a.pure)
            + sum(count_heaplet_nodes(h) for h in a.spatial)
            + (1 if not a.spatial else 0))


def count_predicate_nodes(p: PredicateDef) -> int:
    n = 1 + 2 * len(p.params)
    for br in p.branches:
        n += count_pure_nodes(br.cond) + count_assertion_nodes(br.body)
    return n


def count_goal_nodes(g: GoalSpec) -> int:
    return (1 + 2 * len(g.params) + count_assertion_nodes(g.pre)
            + count_assertion_nodes(g.post))
