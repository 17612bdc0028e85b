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
compares predicates up to a bijective renaming of variables and reordering
of commutative conjuncts.
"""

from __future__ import annotations

import re
from functools import cached_property

from .errors import ParseError, SortMismatch, Span
from .node import Frozen
from .syntax import _FIRST_KINDS, Token, _Cursor

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

    @cached_property
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


def _render_loc(base: str, offset: int) -> str:
    return base if offset == 0 else f"({base}+{offset})"


def render_heaplet(h: Heaplet) -> str:
    cls = h.__class__
    if cls is PointsTo:
        return f"{_render_loc(h.base, h.offset)} :-> {render_pure(h.value, True)}"
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
    params = ", ".join(f"{sort} {name}" for name, sort in pred.params)
    lines = [f"predicate {pred.name}({params}) {{"]
    for br in pred.branches:
        lines.append(f"| {render_cond(br.cond)} => {{ {render_assertion(br.body)} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_goal_spec(goal: GoalSpec) -> str:
    params = ", ".join(f"{sort} {name}" for sort, name in goal.params)
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
    FOUND = "text"

    def __init__(self, text: str):
        """Tokenise as ``syntax.lex`` does: a symbol is its own kind, any
        other token an ``int`` or an ``ident`` by its first character."""
        tokens = []
        line, start, pos = 1, 0, 0     # start: the offset of the line
        for skipped, tok in _SUS_TOKEN.findall(text):
            if "\n" in skipped:
                line += skipped.count("\n")
                start = pos + skipped.rfind("\n") + 1
            pos += len(skipped)
            if not tok:
                break
            span = Span(line, pos - start + 1)
            kind = _SUS_KINDS.get(tok) or _FIRST_KINDS.get(tok[0])
            if kind is None:
                raise ParseError(f"bad SSL syntax near {text[pos:pos+10]!r}",
                                 span)
            tokens.append(Token(kind, tok, span))
            pos += len(tok)
        super().__init__(tokens)

    def at_text(self, text) -> bool:
        t = self.peek()
        return t is not None and t.text == text

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
        kind, text, span = self.current()
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
        raise ParseError(f"unexpected token {text!r} in pure term", span)

    # heaplets / assertions

    def parse_heaplet(self) -> Heaplet:
        kind, text, span = self.current()
        if kind == "ident" and text == "emp":
            self.next()
            return HeapEmp()
        if kind == "ident" and text == "temploc":
            self.next()
            return TempLoc(self.expect("ident").text)
        if kind == "ident" and text == "func":
            self.next()
            name = self.expect("ident").text
            args = self._parse_arg_list()
            return FuncApply(name, tuple(args))
        if kind == "[":
            self.next()
            base = self.expect("ident").text
            self.expect(",")
            size = int(self.expect("int").text)
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
        raise ParseError(f"expected heaplet near {text!r}", span)

    def _parse_loc(self) -> tuple[str, int]:
        if self.at("("):
            self.next()
            base = self.expect("ident").text
            self.expect("+")
            off = int(self.expect("int").text)
            self.expect(")")
            return base, off
        base = self.expect("ident").text
        if self.at("+"):
            self.next()
            return base, int(self.expect("int").text)
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
        kw = self.expect("ident")
        if kw.text not in ("predicate", "inductive"):
            raise ParseError(f"expected 'predicate', found {kw.text!r}", kw.span)
        name = self.expect("ident").text
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
        _, sort, span = self.expect("ident")
        if sort not in ("int", "loc"):
            raise ParseError(f"unknown parameter sort {sort!r}", span)
        name = self.expect("ident").text
        return (name, sort)

    def parse_goal(self) -> GoalSpec:
        kw = self.expect("ident")
        if kw.text != "void":
            raise ParseError(f"expected 'void', found {kw.text!r}", kw.span)
        name = self.expect("ident").text
        self.expect("(")
        params = self._comma_list(
            lambda: (self.expect("ident").text, self.expect("ident").text), ")")
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
    """A growable bijection between variable names of two predicates."""

    def __init__(self):
        self.fwd: dict[str, str] = {}
        self.rev: dict[str, str] = {}

    def copy(self) -> "_Bij":
        b = _Bij()
        b.fwd = dict(self.fwd)
        b.rev = dict(self.rev)
        return b

    def unify(self, a: str, b: str) -> bool:
        if a in self.fwd:
            return self.fwd[a] == b
        if b in self.rev:
            return False
        self.fwd[a] = b
        self.rev[b] = a
        return True


def _match_pure(a: PureTerm, b: PureTerm, bij: _Bij) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, PVar):
        return bij.unify(a.name, b.name)
    if isinstance(a, (PInt, PBool)):
        return a == b
    if isinstance(a, PNot):
        return _match_pure(a.arg, b.arg, bij)
    if isinstance(a, PTernary):
        return (_match_pure(a.cond, b.cond, bij)
                and _match_pure(a.then, b.then, bij)
                and _match_pure(a.els, b.els, bij))
    if isinstance(a, (PEq, PAnd)):
        # symmetric operators: try both orientations
        snapshot = bij.copy()
        if _match_pure(a.lhs, b.lhs, bij) and _match_pure(a.rhs, b.rhs, bij):
            return True
        bij.fwd, bij.rev = snapshot.fwd, snapshot.rev
        return _match_pure(a.lhs, b.rhs, bij) and _match_pure(a.rhs, b.lhs, bij)
    return (_match_pure(a.lhs, b.lhs, bij) and _match_pure(a.rhs, b.rhs, bij))


def _heaplet_key(h: Heaplet):
    if isinstance(h, PointsTo):
        return ("pt", h.offset)
    if isinstance(h, Block):
        return ("block", h.size)
    if isinstance(h, PredApply):
        return ("pred", len(h.args))
    if isinstance(h, FuncApply):
        return ("func", h.name)
    if isinstance(h, TempLoc):
        return ("temp",)
    if isinstance(h, RoApply):
        return ("ro", h.name)
    return ("emp",)


def _match_heaplet(a: Heaplet, b: Heaplet, bij: _Bij, name_map: dict) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, PointsTo):
        return (a.offset == b.offset and bij.unify(a.base, b.base)
                and _match_pure(a.value, b.value, bij))
    if isinstance(a, Block):
        return a.size == b.size and bij.unify(a.base, b.base)
    if isinstance(a, (PredApply, FuncApply, RoApply)):
        expected = name_map.get(a.name, a.name)
        if expected != b.name or len(a.args) != len(b.args):
            return False
        return all(_match_pure(x, y, bij) for x, y in zip(a.args, b.args))
    if isinstance(a, TempLoc):
        return bij.unify(a.var, b.var)
    return True


def _match_multiset(items_a, items_b, bij: _Bij, match) -> bool:
    """Backtracking multiset matcher under a growing bijection."""
    if len(items_a) != len(items_b):
        return False
    if not items_a:
        return True
    a = items_a[0]
    rest_a = items_a[1:]
    for i, b in enumerate(items_b):
        snapshot = bij.copy()
        if match(a, b, bij):
            if _match_multiset(rest_a, items_b[:i] + items_b[i + 1:], bij, match):
                return True
        bij.fwd, bij.rev = snapshot.fwd, snapshot.rev
    return False


def _match_assertion(a: SslAssertion, b: SslAssertion, bij: _Bij, name_map) -> bool:
    def heap_match(x, y, bj):
        return _heaplet_key(x) == _heaplet_key(y) and _match_heaplet(x, y, bj, name_map)

    # heaplets first: they ground most variables
    if not _match_multiset(list(a.spatial), list(b.spatial), bij, heap_match):
        return False
    return _match_multiset(list(a.pure), list(b.pure), bij, _match_pure)


def structural_equiv(a: PredicateDef, b: PredicateDef) -> bool:
    """True iff some bijective renaming of variables plus a reordering of
    pure conjuncts, heaplets, and branches makes the two predicates equal.
    Parameter order and sorts are significant; the two definitions' own
    names map to each other, all other predicate names must match exactly."""
    if len(a.params) != len(b.params) or len(a.branches) != len(b.branches):
        return False
    if [s for _, s in a.params] != [s for _, s in b.params]:
        return False
    base = _Bij()
    for (pa, _), (pb, _) in zip(a.params, b.params):
        if not base.unify(pa, pb):
            return False
    name_map = {a.name: b.name}

    def match_branch(x, y, bij):
        return (_match_pure(x.cond, y.cond, bij)
                and _match_assertion(x.body, y.body, bij, name_map))

    return _match_multiset(list(a.branches), list(b.branches), base,
                           match_branch)


def goal_structural_equiv(a: GoalSpec, b: GoalSpec) -> bool:
    if len(a.params) != len(b.params):
        return False
    if [s for s, _ in a.params] != [s for s, _ in b.params]:
        return False
    bij = _Bij()
    for (_, pa), (_, pb) in zip(a.params, b.params):
        if not bij.unify(pa, pb):
            return False
    name_map = {a.name: b.name}
    return (_match_assertion(a.pre, b.pre, bij, name_map)
            and _match_assertion(a.post, b.post, bij, name_map))


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
