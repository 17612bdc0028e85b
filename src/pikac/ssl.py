"""SSL intermediate representation and SuSLik-syntax emission.

An assertion pairs a pure Boolean part with a spatial symbolic heap
(separating conjunction of heaplets).  Inductive predicates carry guarded
branches of assertions; goal specifications carry a pre/post pair.

Emission targets SuSLik's concrete input syntax.  A small parser for that
syntax is maintained here so tests can check that emitted text re-parses to
a structurally equivalent definition, and so reference outputs can be loaded
for golden comparisons.  ``structural_equiv`` compares predicates up to a
bijective renaming of variables and reordering of commutative conjuncts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .errors import ParseError, SortMismatch, Span


# ---------------------------------------------------------------------------
# Pure terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PInt:
    value: int


@dataclass(frozen=True)
class PBool:
    value: bool


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PEq:
    lhs: "PureTerm"
    rhs: "PureTerm"


@dataclass(frozen=True)
class PAnd:
    lhs: "PureTerm"
    rhs: "PureTerm"


@dataclass(frozen=True)
class PNot:
    arg: "PureTerm"


@dataclass(frozen=True)
class PLt:
    lhs: "PureTerm"
    rhs: "PureTerm"


@dataclass(frozen=True)
class PAdd:
    lhs: "PureTerm"
    rhs: "PureTerm"


@dataclass(frozen=True)
class PSub:
    lhs: "PureTerm"
    rhs: "PureTerm"


@dataclass(frozen=True)
class PMod:
    lhs: "PureTerm"
    rhs: "PureTerm"


@dataclass(frozen=True)
class PTernary:
    cond: "PureTerm"
    then: "PureTerm"
    els: "PureTerm"


PureTerm = Union[PInt, PBool, PVar, PEq, PAnd, PNot, PLt, PAdd, PSub, PMod,
                 PTernary]

TRUE = PBool(True)


def pand_all(terms) -> PureTerm:
    """Right-nested conjunction of the given terms; TRUE when empty."""
    terms = [t for t in terms if t != TRUE]
    if not terms:
        return TRUE
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = PAnd(t, out)
    return out


def conjuncts(term: PureTerm) -> list[PureTerm]:
    if isinstance(term, PAnd):
        return conjuncts(term.lhs) + conjuncts(term.rhs)
    if term == TRUE:
        return []
    return [term]


# ---------------------------------------------------------------------------
# Heaplets and assertions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeapEmp:
    pass


@dataclass(frozen=True)
class PointsTo:
    base: str
    offset: int
    value: PureTerm


@dataclass(frozen=True)
class Block:
    base: str
    size: int


@dataclass(frozen=True)
class PredApply:
    name: str
    args: tuple
    ctor: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FuncApply:
    """Call marker for an already-synthesised function; last arg is the output."""
    name: str
    args: tuple


@dataclass(frozen=True)
class TempLoc:
    var: str


@dataclass(frozen=True)
class RoApply:
    """Read-only structure assertion over an unconsumed argument."""
    name: str
    args: tuple


Heaplet = Union[HeapEmp, PointsTo, Block, PredApply, FuncApply, TempLoc, RoApply]


@dataclass(frozen=True)
class SslAssertion:
    pure: tuple          # tuple[PureTerm, ...] conjuncts; empty means true
    spatial: tuple       # tuple[Heaplet, ...]

    def __post_init__(self):
        seen = set()
        for h in self.spatial:
            if isinstance(h, PointsTo):
                key = (h.base, h.offset)
                if key in seen:
                    raise ValueError(f"duplicate points-to at {h.base}+{h.offset}")
                seen.add(key)

    @property
    def pure_term(self) -> PureTerm:
        return pand_all(self.pure)

    @staticmethod
    def make(pure, spatial) -> "SslAssertion":
        pure = tuple(p for p in pure if p != TRUE)
        spatial = tuple(h for h in spatial if not isinstance(h, HeapEmp))
        return SslAssertion(pure, spatial)


EMPTY_ASSERTION = SslAssertion((), ())


def conj_otimes(a: SslAssertion, b: SslAssertion) -> SslAssertion:
    """Conjoin two assertions: pures conjoined, heaps separately conjoined."""
    return SslAssertion.make(a.pure + b.pure, a.spatial + b.spatial)


@dataclass(frozen=True)
class Branch:
    cond: PureTerm
    body: SslAssertion
    ctor: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PredicateDef:
    name: str
    params: tuple        # tuple[(name, sort)], sort in {'int', 'loc'}
    branches: tuple      # tuple[Branch, ...]

    @cached_property
    def existentials(self) -> tuple:
        """Per branch, the sorted names it uses that are not parameters."""
        params = {p for p, _ in self.params}
        return tuple(
            tuple(sorted(set().union(*map(free_vars, (b.cond,) + b.body.pure
                                          + b.body.spatial)) - params))
            for b in self.branches)


@dataclass(frozen=True)
class GoalSpec:
    name: str
    params: tuple        # tuple[(sort, name)]
    pre: SslAssertion
    post: SslAssertion


# ---------------------------------------------------------------------------
# Traversal of pure terms and heaplets: subterms, free_vars, subst
# ---------------------------------------------------------------------------

_BINARY = frozenset((PEq, PAnd, PLt, PAdd, PSub, PMod))
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


# free_vars and subst run for every unfolding the model checker does, so
# they recurse directly rather than through subterms, and dispatch on the
# exact class: the IR's classes have no subclasses.

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
    if cls is PredApply:
        return PredApply(x.name, tuple([subst(a, sub) for a in x.args]),
                         ctor=x.ctor)
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

_ATOMS = (PInt, PBool, PVar)


def render_pure(t: PureTerm, atom: bool = False) -> str:
    """Render a pure term; compound terms are parenthesised when nested."""
    if isinstance(t, PInt):
        return str(t.value) if t.value >= 0 or not atom else f"({t.value})"
    if isinstance(t, PBool):
        return "true" if t.value else "false"
    if isinstance(t, PVar):
        return t.name
    if isinstance(t, PEq):
        s = f"{render_pure(t.lhs, True)} == {render_pure(t.rhs, True)}"
    elif isinstance(t, PLt):
        s = f"{render_pure(t.lhs, True)} < {render_pure(t.rhs, True)}"
    elif isinstance(t, PAdd):
        s = f"{render_pure(t.lhs, True)} + {render_pure(t.rhs, True)}"
    elif isinstance(t, PSub):
        s = f"{render_pure(t.lhs, True)} - {render_pure(t.rhs, True)}"
    elif isinstance(t, PMod):
        s = f"{render_pure(t.lhs, True)} % {render_pure(t.rhs, True)}"
    elif isinstance(t, PAnd):
        s = f"{render_pure(t.lhs, True)} && {render_pure(t.rhs, True)}"
    elif isinstance(t, PNot):
        s = f"not {render_pure(t.arg, True)}"
    elif isinstance(t, PTernary):
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
    if isinstance(h, HeapEmp):
        return "emp"
    if isinstance(h, PointsTo):
        return f"{_render_loc(h.base, h.offset)} :-> {render_pure(h.value, True)}"
    if isinstance(h, Block):
        return f"[{h.base},{h.size}]"
    if isinstance(h, PredApply):
        return f"{h.name}({', '.join(render_pure(a, True) for a in h.args)})"
    if isinstance(h, FuncApply):
        return f"func {h.name}({', '.join(render_pure(a, True) for a in h.args)})"
    if isinstance(h, TempLoc):
        return f"temploc {h.var}"
    if isinstance(h, RoApply):
        return f"{h.name}({', '.join(render_pure(a, True) for a in h.args)})"
    raise TypeError(h)


def render_assertion(a: SslAssertion) -> str:
    spatial = " ** ".join(render_heaplet(h) for h in a.spatial) if a.spatial else "emp"
    if not a.pure:
        return spatial
    pure = " && ".join(render_pure(p) for p in a.pure)
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

_SUS_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|\#[^\n]*)
    | (?P<arrow>:->|:=>)
    | (?P<int>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<sym>\*\*|==|&&|\|\||=>|\?\?|[(){}\[\],;|?:+\-%<])
    """,
    re.VERBOSE,
)


class _SusParser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, Span]] = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _SUS_TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"bad SSL syntax near {text[pos:pos+10]!r}",
                                 Span(line, col))
            tok = m.group(0)
            if m.lastgroup not in ("ws", "comment"):
                kind = m.lastgroup if m.lastgroup in ("int", "ident") else tok
                if m.lastgroup == "arrow":
                    kind = tok
                self.tokens.append((kind, tok, Span(line, col)))
            nl = tok.count("\n")
            if nl:
                line += nl
                col = len(tok) - tok.rfind("\n")
            else:
                col += len(tok)
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, *kinds) -> bool:
        t = self.peek()
        return t is not None and t[0] in kinds

    def at_text(self, text) -> bool:
        t = self.peek()
        return t is not None and t[1] == text

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of SSL input")
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t is None or t[0] != kind:
            span = t[2] if t else None
            raise ParseError(f"expected {kind!r}, found {t[1] if t else 'EOF'!r}", span)
        self.pos += 1
        return t

    # pure terms, loosest to tightest: && ; == < ; + - ; % ; ternary handled
    # at the == level (x == (c ? a : b) shape)

    def parse_pure(self) -> PureTerm:
        return self._parse_and()

    def _parse_and(self) -> PureTerm:
        left = self._parse_cmp()
        while self.at("&&"):
            self.next()
            left = PAnd(left, self._parse_cmp())
        return left

    def _parse_cmp(self) -> PureTerm:
        left = self._parse_add()
        while self.at("==", "<"):
            op = self.next()[0]
            right = self._parse_add()
            left = PEq(left, right) if op == "==" else PLt(left, right)
        return left

    def _parse_add(self) -> PureTerm:
        left = self._parse_mod()
        while self.at("+", "-"):
            op = self.next()[0]
            right = self._parse_mod()
            left = PAdd(left, right) if op == "+" else PSub(left, right)
        return left

    def _parse_mod(self) -> PureTerm:
        left = self._parse_pure_atom()
        while self.at("%"):
            self.next()
            left = PMod(left, self._parse_pure_atom())
        return left

    def _parse_pure_atom(self) -> PureTerm:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of SSL input")
        kind, text, span = t
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
        t = self.peek()
        kind, text, span = t
        if kind == "ident" and text == "emp":
            self.next()
            return HeapEmp()
        if kind == "ident" and text == "temploc":
            self.next()
            var = self.expect("ident")[1]
            return TempLoc(var)
        if kind == "ident" and text == "func":
            self.next()
            name = self.expect("ident")[1]
            args = self._parse_arg_list()
            return FuncApply(name, tuple(args))
        if kind == "[":
            self.next()
            base = self.expect("ident")[1]
            self.expect(",")
            size = int(self.expect("int")[1])
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
            base = self.expect("ident")[1]
            self.expect("+")
            off = int(self.expect("int")[1])
            self.expect(")")
            return base, off
        base = self.expect("ident")[1]
        if self.at("+"):
            self.next()
            off = int(self.expect("int")[1])
            return base, off
        return base, 0

    def _parse_arg_list(self) -> list[PureTerm]:
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_pure())
            while self.at(","):
                self.next()
                args.append(self.parse_pure())
        self.expect(")")
        return args

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
        if kw[1] not in ("predicate", "inductive"):
            raise ParseError(f"expected 'predicate', found {kw[1]!r}", kw[2])
        name = self.expect("ident")[1]
        self.expect("(")
        params = []
        if not self.at(")"):
            params.append(self._parse_param())
            while self.at(","):
                self.next()
                params.append(self._parse_param())
        self.expect(")")
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
        sort = self.expect("ident")[1]
        if sort not in ("int", "loc"):
            raise ParseError(f"unknown parameter sort {sort!r}")
        name = self.expect("ident")[1]
        return (name, sort)

    def parse_goal(self) -> GoalSpec:
        kw = self.expect("ident")
        if kw[1] != "void":
            raise ParseError(f"expected 'void', found {kw[1]!r}", kw[2])
        name = self.expect("ident")[1]
        self.expect("(")
        params = []
        if not self.at(")"):
            sort = self.expect("ident")[1]
            pname = self.expect("ident")[1]
            params.append((sort, pname))
            while self.at(","):
                self.next()
                sort = self.expect("ident")[1]
                pname = self.expect("ident")[1]
                params.append((sort, pname))
        self.expect(")")
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
            if self.at_text("void"):
                out.append(self.parse_goal())
            else:
                out.append(self.parse_predicate())
        return out


def parse_predicate(text: str) -> PredicateDef:
    return _SusParser(text).parse_predicate()


def parse_goal_spec(text: str) -> GoalSpec:
    return _SusParser(text).parse_goal()


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

    def match_branches(branches_a, branches_b, bij):
        if not branches_a:
            return True
        br_a = branches_a[0]
        for i, br_b in enumerate(branches_b):
            trial = bij.copy()
            if _match_pure(br_a.cond, br_b.cond, trial) and \
                    _match_assertion(br_a.body, br_b.body, trial, name_map):
                if match_branches(branches_a[1:],
                                  branches_b[:i] + branches_b[i + 1:], trial):
                    bij.fwd, bij.rev = trial.fwd, trial.rev
                    return True
        return False

    return match_branches(list(a.branches), list(b.branches), base)


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
