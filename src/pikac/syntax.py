"""Surface syntax: lexer, AST, recursive-descent parser, pretty-printer.

The language looks like a small Haskell: ``data`` declarations, layout
declarations mapping constructors to heaplet lists, type signatures,
guarded pattern-matching function definitions, and ``%generate``
directives naming the layout instantiation to compile a function at.

Binary operators are declared once, in ``_PREC``: the parser's one
precedence-climbing loop and the printer's parenthesisation both read it.
The lexer fills four columns, the kinds, texts, lines and columns of the
tokens, and returns them as one ``Tokens``.  The token cursor, ``_Cursor``,
reads the columns and is shared with the SSL re-parser in ``ssl``; it
builds a ``Span`` only for a node or diagnostic that keeps one.
A layout's branches are read once, into ``LayoutDef.shapes``; the layers
after the front end read the shapes, not the heaplets.  Whether a branch
can be written is decided once, by ``types.build_global_env``.

The printer is a parsing inverse: for any well-formed unit ``u``,
``parse_program(lex(pretty_print(u)))`` is structurally equal to ``u``
(source spans are excluded from structural equality).
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from typing import Optional

from .errors import LexError, ParseError, Span
from .node import Frozen, Node, cached


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

KEYWORDS = {
    "data", "layout", "instantiate", "lower", "let", "in", "if", "then",
    "else", "not", "addr", "emp", "true", "false", "readonly", "mutable",
}

# multi-character symbols, longest first, so that the pattern takes the
# longest; then the one-character symbols
_SYMBOLS = (":->", ":=>", ">->", "->", ":=", "==", "&&", "||")
_CHARS = "%+-<|:;,()[]{}"

# One match per token: the whitespace and comments before it, then the
# token itself, any other single character (illegal), or the end of input.
# The skip is unrolled, whitespace then comments each followed by
# whitespace, so that no character is tried against two alternatives; the
# identifier, the commonest token, is tried first.  The end alternative
# keeps a trailing comment whole: without it the comment would give back
# its last character as a token.
_TOKEN_RE = re.compile(
    r"(\s*(?:--[^\n]*\s*)*)"
    r"([A-Za-z_][A-Za-z0-9_']*|%generate\b|-?[0-9]+|"
    + "|".join(map(re.escape, _SYMBOLS))
    + f"|[{re.escape(_CHARS)}]" + r"|\S|\Z)")

# token text -> kind for keywords and symbols; any other token's kind
# follows from its first character, and a character in neither is illegal
_KINDS = {w: w for w in (*KEYWORDS, *_SYMBOLS, *_CHARS, "%generate")}
_FIRST_KINDS = (dict.fromkeys("-0123456789", "int")
                | dict.fromkeys("abcdefghijklmnopqrstuvwxyz"
                                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_", "ident"))

# '-' directly before a digit only lexes as a negative literal at expression
# starts; after one of these kinds the parser wants a binary minus
_MINUS_AFTER = frozenset({"int", "ident", ")", "]"})


# kind: 'int', 'ident', keyword text, or symbol text; span: a Span
Token = namedtuple("Token", ("kind", "text", "span"))


class Tokens(Sequence):
    """The tokens of a source as four columns, one entry per token:
    ``kinds`` (then a ``None`` sentinel, so that lookahead needs no bounds
    check), ``texts``, ``lines`` and ``cols``.  Read as a sequence it gives
    ``Token(kind, text, Span(line, col))`` values, built on demand; the
    parsers read the columns and build a ``Span`` only where a node or a
    diagnostic keeps one."""
    __slots__ = ("kinds", "texts", "lines", "cols")

    def __init__(self, kinds: list, texts: list, lines: list, cols: list):
        self.kinds, self.texts, self.lines, self.cols = kinds, texts, lines, cols

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, i: int) -> Token:
        i = range(len(self.texts))[i]
        return Token(self.kinds[i], self.texts[i],
                     Span(self.lines[i], self.cols[i]))

    def __iter__(self) -> Iterator[Token]:
        return map(Token, self.kinds, self.texts,
                   map(Span, self.lines, self.cols))

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __repr__(self) -> str:
        return f"Tokens({list(self)!r})"


def lex(source: str) -> Tokens:
    """Tokenise a source string, dropping whitespace and comments.

    One ``_TOKEN_RE.findall`` gives a ``(skipped, token)`` pair per token,
    ``skipped`` being the whitespace and comments before it; an empty token
    is the end of input.  A token's kind comes from ``_KINDS``, or else
    from its first character; a token with neither is an illegal
    character.  The column runs on: it restarts after the last newline of
    a skipped stretch and otherwise advances by the length of each piece.
    An identifier that contains ``__`` is reserved for generated names
    (``P-RESERVED``)."""
    kinds: list = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    add_kind, add_text = kinds.append, texts.append
    add_line, add_col = lines.append, cols.append
    kind_of, first_kind = _KINDS.get, _FIRST_KINDS.get
    line, col = 1, 1
    kind = None     # of the last token, which decides the '-' split
    for skipped, text in _TOKEN_RE.findall(source):
        if skipped:
            if "\n" in skipped:
                line += skipped.count("\n")
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
        k = kind_of(text)
        if k is None:
            if not text:
                break
            k = first_kind(text[0])
            if k is None:
                raise LexError(f"illegal character {text!r}", Span(line, col))
            if text[0] == "-" and kind in _MINUS_AFTER:
                add_kind("-")
                add_text("-")
                add_line(line)
                add_col(col)
                text = text[1:]
                col += 1
        kind = k
        add_kind(k)
        add_text(text)
        add_line(line)
        add_col(col)
        col += len(text)
    if "__" in source:
        # generated names begin with "__" and a predicate name joins its
        # parts with it, so a source name must not contain it; the test is
        # here, not in the loop, which runs once per token
        for i, text in enumerate(texts):
            if kinds[i] == "ident" and "__" in text:
                raise LexError(f"identifier {text} is reserved: names that "
                               f"contain __ are generated",
                               Span(lines[i], cols[i]), rule="P-RESERVED")
    add_kind(None)
    return Tokens(kinds, texts, lines, cols)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class TInt(Frozen):
    __slots__ = ()

    def __str__(self): return "Int"


class TBool(Frozen):
    __slots__ = ()

    def __str__(self): return "Bool"


class TPtrInt(Frozen):
    __slots__ = ()

    def __str__(self): return "Ptr Int"


class TName(Frozen):
    __slots__ = ("name",)

    def __str__(self): return self.name


class TFn(Frozen):
    __slots__ = ("arg", "res")

    def __str__(self):
        a = f"({self.arg})" if isinstance(self.arg, TFn) else str(self.arg)
        return f"{a} -> {self.res}"


TypeExpr = (TInt, TBool, TPtrInt, TName, TFn)


# ---------------------------------------------------------------------------
# Layout references (as written in directives / instantiate / lower)
# ---------------------------------------------------------------------------

class NamedLayout(Frozen):
    __slots__ = ("name", "mode")    # mode is meaningful for ADT layouts only
    _defaults = {"mode": "readonly"}


class IntLayout(Frozen):
    __slots__ = ()


class BoolLayout(Frozen):
    __slots__ = ()


class PtrIntLayout(Frozen):
    __slots__ = ()


class FnLayout(Frozen):
    __slots__ = ("arg", "res")


LayoutRef = (NamedLayout, IntLayout, BoolLayout, PtrIntLayout, FnLayout)


def render_layout_ref(ref: LayoutRef) -> str:
    if isinstance(ref, NamedLayout):
        if ref.mode == "mutable":
            return f"{ref.name}[mutable]"
        return ref.name
    if isinstance(ref, IntLayout):
        return "Int"
    if isinstance(ref, BoolLayout):
        return "Bool"
    if isinstance(ref, PtrIntLayout):
        return "Ptr Int"
    if isinstance(ref, FnLayout):
        return f"{_render_layout_atom(ref.arg)} -> {render_layout_ref(ref.res)}"
    raise TypeError(ref)


def _render_layout_atom(ref: LayoutRef) -> str:
    """``ref`` where the parser reads a layout atom: a function layout in
    parentheses."""
    s = render_layout_ref(ref)
    return f"({s})" if isinstance(ref, FnLayout) else s


def _render_result_layout(ref: LayoutRef) -> str:
    """The result layout of an instantiation or a directive; ``Ptr Int`` is
    parenthesised there too."""
    s = render_layout_ref(ref)
    return f"({s})" if isinstance(ref, (FnLayout, PtrIntLayout)) else s


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class IntLit(Node):
    __slots__ = ("value", "span")


class BoolLit(Node):
    __slots__ = ("value", "span")


class Var(Node):
    __slots__ = ("name", "span")


class ConstructorApp(Node):
    __slots__ = ("name", "args", "span")


class App(Node):
    __slots__ = ("fn", "args", "span")


class BinOp(Node):
    __slots__ = ("op", "lhs", "rhs", "span")    # op: one of + - % < == && ||


class Not(Node):
    __slots__ = ("arg", "span")


class Addr(Node):
    __slots__ = ("var", "span")


class IfThenElse(Node):
    __slots__ = ("cond", "then", "els", "span")


class Let(Node):
    __slots__ = ("name", "bound", "body", "span")


class Instantiate(Node):
    __slots__ = ("arg_layouts", "result_layout", "fn", "args", "span")


class Lower(Node):
    __slots__ = ("layout", "arg", "span")


Expr = (IntLit, BoolLit, Var, ConstructorApp, App, BinOp, Not, Addr,
        IfThenElse, Let, Instantiate, Lower)


# ---------------------------------------------------------------------------
# Traversal: the fields of each expression kind that hold subexpressions
# ---------------------------------------------------------------------------

# the kinds with no subexpression, and those whose subexpressions are args;
# the walks dispatch on the exact class: the kinds have no subclasses
_LEAVES = frozenset((IntLit, BoolLit, Var, Addr))
_APPLICATIONS = frozenset((ConstructorApp, App, Instantiate))


def subexprs(e: Expr) -> Sequence[Expr]:
    """The direct subexpressions of ``e``, left to right."""
    cls = e.__class__
    if cls in _LEAVES:
        return ()
    if cls in _APPLICATIONS:
        return e.args
    if cls is BinOp:
        return (e.lhs, e.rhs)
    if cls is Not or cls is Lower:
        return (e.arg,)
    if cls is IfThenElse:
        return (e.cond, e.then, e.els)
    if cls is Let:
        return (e.bound, e.body)
    raise TypeError(e)


def iter_subexprs(e: Expr) -> Iterator[Expr]:
    """``e`` and every expression inside it, in pre-order."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        kids = subexprs(e)
        if kids:
            stack += kids[::-1]


def map_expr(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """``e`` rebuilt with ``f`` applied to each direct subexpression, left to
    right; every other field, the span included, is kept.  A leaf is
    returned as it is."""
    cls = e.__class__
    if cls in _LEAVES:
        return e
    if cls is BinOp:
        return BinOp(e.op, f(e.lhs), f(e.rhs), e.span)
    if cls is ConstructorApp:
        return ConstructorApp(e.name, [f(a) for a in e.args], e.span)
    if cls is Instantiate:
        return Instantiate(e.arg_layouts, e.result_layout, e.fn,
                           [f(a) for a in e.args], e.span)
    if cls is App:
        return App(e.fn, [f(a) for a in e.args], e.span)
    if cls is Lower:
        return Lower(e.layout, f(e.arg), e.span)
    if cls is Not:
        return Not(f(e.arg), e.span)
    if cls is IfThenElse:
        return IfThenElse(f(e.cond), f(e.then), f(e.els), e.span)
    if cls is Let:
        return Let(e.name, f(e.bound), f(e.body), e.span)
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class Pattern(Node):
    """A top-level pattern: either ``(Ctor v1 ... vn)`` or a bare variable."""
    __slots__ = ("ctor", "vars", "span")

    @property
    def is_var(self) -> bool:
        return self.ctor is None

    @property
    def var(self) -> str:
        assert self.ctor is None and len(self.vars) == 1
        return self.vars[0]


class DataDef(Node):
    # alts: (constructor name, [TypeExpr])
    __slots__ = ("name", "alts", "span")


class HEmp(Node):
    __slots__ = ("span",)


class HPointsTo(Node):
    __slots__ = ("base", "offset", "payload", "span")


class HApply(Node):
    __slots__ = ("layout", "arg", "span")


LayoutHeaplet = (HEmp, HPointsTo, HApply)


class CtorShape(namedtuple("CtorShape", ("pattern", "cells", "size",
                                         "empty", "offsets", "applies"))):
    """A constructor's layout branch as what building it writes: its
    pattern, points-to cells through the root as ``(offset, payload)``
    pairs and the block size; ``LayoutDef.branches`` keeps the heaplets.
    ``empty``: every heaplet is ``emp``; ``offsets``: payload -> offset,
    the last store of a payload winning; ``applies``: applied variable ->
    layout name, in heaplet order.  ``types.build_global_env``
    rejects a branch that writes through a non-root binder, stores a value
    that is not a field, or writes one offset twice."""
    __slots__ = ()


class LayoutDef(Node):
    # branches: (Pattern, [LayoutHeaplet])
    __slots__ = ("name", "adt", "ssl_params", "branches", "span", "__dict__")

    @cached
    def shapes(self) -> dict:
        """Constructor name -> ``CtorShape``, in branch order; the first
        branch for a name wins.  Built on first use: a layout's branches do
        not change."""
        out = {}
        for pat, heaplets in self.branches:
            if pat.ctor in out:
                continue
            cells = tuple([(h.offset, h.payload) for h in heaplets
                           if h.__class__ is HPointsTo])
            applies = {h.arg: h.layout for h in heaplets
                       if h.__class__ is HApply}
            size = max([off for off, _ in cells]) + 1 if cells else 0
            out[pat.ctor] = CtorShape(
                pat, cells, size, not cells and not applies,
                {payload: off for off, payload in cells}, applies)
        return out

    @cached
    def emptiness(self) -> tuple:
        """``(empties, non_empties)``: the branch patterns whose heaplets are
        all ``emp``, and the others, each in branch order."""
        shapes = self.shapes.values()
        return (tuple([s.pattern for s in shapes if s.empty]),
                tuple([s.pattern for s in shapes if not s.empty]))


class FnCase(Node):
    # guarded_bodies: (guard Expr or None, body Expr)
    __slots__ = ("name", "patterns", "guarded_bodies", "span")


class GenerateDirective(Node):
    __slots__ = ("fn", "arg_layouts", "result_layout", "span")


class SourceUnit(Node):
    # fn_defs: name -> [FnCase]
    __slots__ = ("data_defs", "layout_defs", "fn_sigs", "fn_defs", "directives")

    @staticmethod
    def empty() -> "SourceUnit":
        return SourceUnit([], [], {}, {}, [])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _is_ctor_name(name: str) -> bool:
    return name[:1].isupper()


_ATOM_STARTS = frozenset({"int", "ident", "(", "true", "false"})
_PREFIX_FORMS = frozenset({"let", "if", "lower", "instantiate", "not", "addr"})

# binary operators and their binding strength, loosest first; all are
# left-associative.  The parser and the printer both read this table.
_PREC = {"||": 1, "&&": 2, "<": 3, "==": 3, "+": 4, "-": 4, "%": 5}
_APP_PREC = 6


class _Cursor:
    """Token plumbing shared by the recursive-descent parsers: a position in
    the columns of a ``Tokens``.  ``next()`` and ``expect()`` return the
    token's text; ``span()`` builds a ``Span`` for what keeps one.  A
    subclass names the end of input in its messages."""

    END = "unexpected end of input"     # what current() and next() raise
    EOF = "end of input"                # what expect() says it found
    FOUND = "kinds"                     # the column expect() names a token by

    def __init__(self, tokens: Tokens):
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.lines = tokens.lines
        self.cols = tokens.cols
        self.pos = 0

    def peek(self) -> Optional[str]:
        """The kind of the next token, None at the end of input."""
        return self.kinds[self.pos]

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def span(self, pos: Optional[int] = None) -> Span:
        """Where the token at ``pos``, by default the next one, begins."""
        if pos is None:
            pos = self.pos
        return Span(self.lines[pos], self.cols[pos])

    def _end_span(self) -> Span:
        """Where an unexpected end of input is reported: the last token."""
        return self.span(-1) if self.texts else Span(1, 1)

    def current(self) -> str:
        """The kind of the next token, not consumed; raises at the end of
        input."""
        kind = self.kinds[self.pos]
        if kind is None:
            raise ParseError(self.END, self._end_span())
        return kind

    def next(self) -> str:
        pos = self.pos
        if self.kinds[pos] is None:
            raise ParseError(self.END, self._end_span())
        self.pos = pos + 1
        return self.texts[pos]

    def expect(self, kind: str) -> str:
        pos = self.pos
        found = self.kinds[pos]
        if found != kind:
            if found is None:
                span, found = self._end_span(), self.EOF
            else:
                span, found = self.span(pos), getattr(self, self.FOUND)[pos]
            raise ParseError(f"expected {kind!r}, found {found!r}", span)
        self.pos = pos + 1
        return self.texts[pos]

    def whole(self, parse: Callable):
        """What ``parse()`` returns, once it has read all the input."""
        result = parse()
        if self.kinds[self.pos] is not None:
            raise ParseError(f"trailing input {self.texts[self.pos]!r}",
                             self.span())
        return result

    def _comma_list(self, item: Callable, close: str) -> list:
        """Items separated by commas, possibly none, then ``close``."""
        items = []
        if not self.kinds[self.pos] == close:
            items.append(item())
            while self.kinds[self.pos] == ",":
                self.next()
                items.append(item())
        self.expect(close)
        return items


class _Parser(_Cursor):
    # -- top level --

    def parse_unit(self) -> SourceUnit:
        unit = SourceUnit.empty()
        layout_sigs: dict[str, tuple] = {}   # name -> (adt, ssl_params)
        layout_cases: dict[str, list] = {}
        order: list[str] = []
        kinds = self.kinds
        while kinds[self.pos] is not None:
            pos = self.pos
            kind = kinds[pos]
            if kind == "%generate":
                unit.directives.append(self.parse_directive())
            elif kind == "data":
                unit.data_defs.append(self.parse_data_def())
            elif kind == "ident":
                if kinds[pos + 1] == ":":
                    name, decl = self.parse_signature()
                    if isinstance(decl, tuple):
                        if name in layout_sigs:
                            raise ParseError(f"duplicate layout signature {name}",
                                             self.span(pos))
                        layout_sigs[name] = (*decl, self.span(pos))
                        layout_cases.setdefault(name, [])
                        order.append(name)
                    else:
                        if name in unit.fn_sigs:
                            raise ParseError(f"duplicate signature for {name}",
                                             self.span(pos))
                        unit.fn_sigs[name] = decl
                elif self.texts[pos] in layout_sigs:
                    name, case = self.parse_layout_case()
                    layout_cases[name].append(case)
                else:
                    case = self.parse_fn_case()
                    unit.fn_defs.setdefault(case.name, []).append(case)
            else:
                raise ParseError(f"unexpected token {self.texts[pos]!r}",
                                 self.span(pos))
        for name in order:
            adt, params, span = layout_sigs[name]
            unit.layout_defs.append(
                LayoutDef(name, adt, params, layout_cases[name], span))
        return unit

    def parse_directive(self) -> GenerateDirective:
        pos = self.pos
        self.expect("%generate")
        fn = self.expect("ident")
        self.expect("[")
        args = self._comma_list(self.parse_layout_ref, "]")
        result = self.parse_layout_ref_atom()
        if self.kinds[self.pos] == ";":
            self.next()
        return GenerateDirective(fn, tuple(args), result, self.span(pos))

    def parse_data_def(self) -> DataDef:
        pos = self.pos
        self.expect("data")
        name = self.expect("ident")
        self.expect(":=")
        alts = [self.parse_data_alt()]
        while self.kinds[self.pos] == "|":
            self.next()
            alts.append(self.parse_data_alt())
        self.expect(";")
        return DataDef(name, alts, self.span(pos))

    def parse_data_alt(self) -> tuple:
        ctor = self.expect("ident")
        fields = []
        while self.at("ident", "("):
            fields.append(self.parse_type_atom())
        return (ctor, fields)

    def parse_signature(self):
        """Parse ``name : ...;`` — either a layout signature or a fn signature."""
        name = self.expect("ident")
        self.expect(":")
        # layout signature: ADT '>->' 'layout' '[' vars ']'
        if self.kinds[self.pos] == "ident" and self.kinds[self.pos + 1] == ">->":
            adt = self.next()
            self.next()  # >->
            self.expect("layout")
            self.expect("[")
            params = [self.expect("ident")]
            while self.kinds[self.pos] == ",":
                self.next()
                params.append(self.expect("ident"))
            self.expect("]")
            self.expect(";")
            return name, (adt, params)
        ty = self.parse_type()
        self.expect(";")
        return name, ty

    def _ptr_int(self) -> None:
        """The ``Int`` after ``Ptr``, the only pointer type."""
        pos = self.pos
        if self.expect("ident") != "Int":
            raise ParseError("only 'Ptr Int' is supported", self.span(pos))

    def parse_type_atom(self) -> TypeExpr:
        if self.kinds[self.pos] == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        name = self.expect("ident")
        if name == "Int":
            return TInt()
        if name == "Bool":
            return TBool()
        if name == "Ptr":
            self._ptr_int()
            return TPtrInt()
        return TName(name)

    def parse_type(self) -> TypeExpr:
        left = self.parse_type_atom()
        if self.kinds[self.pos] == "->":
            self.next()
            return TFn(left, self.parse_type())
        return left

    # -- layouts --

    def parse_layout_ref_atom(self) -> LayoutRef:
        if self.kinds[self.pos] == "(":
            self.next()
            ref = self.parse_layout_ref()
            self.expect(")")
            return ref
        name = self.expect("ident")
        if name == "Int":
            return IntLayout()
        if name == "Bool":
            return BoolLayout()
        if name == "Ptr":
            self._ptr_int()
            return PtrIntLayout()
        mode = "readonly"
        if self.kinds[self.pos] == "[":
            self.next()
            pos = self.pos
            self.next()
            mode = self.kinds[pos]
            if mode not in ("readonly", "mutable"):
                raise ParseError("expected 'readonly' or 'mutable'", self.span(pos))
            self.expect("]")
        return NamedLayout(name, mode)

    def parse_layout_ref(self) -> LayoutRef:
        left = self.parse_layout_ref_atom()
        if self.kinds[self.pos] == "->":
            self.next()
            return FnLayout(left, self.parse_layout_ref())
        return left

    def parse_layout_case(self):
        name = self.expect("ident")
        pat = self.parse_pattern()
        self.expect(":=")
        heaplets = [self.parse_layout_heaplet()]
        while self.kinds[self.pos] == ",":
            self.next()
            heaplets.append(self.parse_layout_heaplet())
        self.expect(";")
        return name, (pat, heaplets)

    def parse_layout_heaplet(self) -> LayoutHeaplet:
        pos = self.pos
        if self.kinds[pos] == "emp":
            self.next()
            return HEmp(self.span(pos))
        if self.kinds[pos] == "(":
            self.next()
            base = self.expect("ident")
            self.expect("+")
            off = int(self.expect("int"))
            self.expect(")")
            self.expect(":->")
            payload = self.expect("ident")
            return HPointsTo(base, off, payload, self.span(pos))
        base = self.expect("ident")
        if self.kinds[self.pos] == ":->":
            self.next()
            payload = self.expect("ident")
            return HPointsTo(base, 0, payload, self.span(pos))
        arg = self.expect("ident")
        return HApply(base, arg, self.span(pos))

    # -- function cases --

    def parse_pattern(self) -> Pattern:
        pos = self.pos
        if self.kinds[pos] == "(":
            self.next()
            head = self.expect("ident")
            vars_ = []
            while self.kinds[self.pos] == "ident":
                vars_.append(self.next())
            self.expect(")")
            if not _is_ctor_name(head):
                if vars_:
                    raise ParseError("variable patterns take no arguments",
                                     self.span(pos))
                return Pattern(None, [head], self.span(pos))
            return Pattern(head, vars_, self.span(pos))
        name = self.expect("ident")
        if _is_ctor_name(name):
            return Pattern(name, [], self.span(pos))
        return Pattern(None, [name], self.span(pos))

    def parse_fn_case(self) -> FnCase:
        start = self.pos
        name = self.expect("ident")
        patterns = []
        while self.at("(", "ident"):
            patterns.append(self.parse_pattern())
        bodies = []
        if self.kinds[self.pos] == ":=":
            self.next()
            body = self.parse_expr()
            self.expect(";")
            bodies.append((None, body))
        else:
            while self.kinds[self.pos] == "|":
                self.next()
                guard = self.parse_expr()
                self.expect(":=")
                body = self.parse_expr()
                self.expect(";")
                bodies.append((guard, body))
            if not bodies:
                at = start if self.kinds[self.pos] is None else self.pos
                raise ParseError("expected ':=' or '|' in function case",
                                 self.span(at))
        return FnCase(name, patterns, bodies, self.span(start))

    # -- expressions --
    # binary operators bind as ``_PREC`` says, application tighter; 'not' and
    # 'addr' bind as prefixes of atoms; let/if/lower/instantiate extend to
    # the right.

    def parse_expr(self, prec: int = 1) -> Expr:
        """An expression whose binary operators bind at least as tightly as
        ``prec``; each ``BinOp`` has its operator token's span."""
        left = self.parse_app()
        kinds = self.kinds
        while _PREC.get(kinds[self.pos], 0) >= prec:
            pos = self.pos
            op = kinds[pos]
            self.pos = pos + 1
            left = BinOp(op, left, self.parse_expr(_PREC[op] + 1),
                         self.span(pos))
        return left

    def parse_app(self) -> Expr:
        start = self.pos
        if self.kinds[start] in _PREFIX_FORMS:
            return self.parse_prefix_form()
        head = self.parse_atom()
        kinds = self.kinds
        if kinds[self.pos] not in _ATOM_STARTS:
            return head
        args = []
        while kinds[self.pos] in _ATOM_STARTS:
            args.append(self.parse_atom())
        if isinstance(head, Var):
            return App(head.name, args, head.span)
        if isinstance(head, ConstructorApp) and not head.args:
            return ConstructorApp(head.name, args, head.span)
        raise ParseError("only named functions and constructors may be applied",
                         self.span(start))

    def parse_prefix_form(self) -> Expr:
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind == "not":
            return Not(self.parse_atom(), self.span(pos))
        if kind == "addr":
            return Addr(self.expect("ident"), self.span(pos))
        if kind == "let":
            name = self.expect("ident")
            self.expect(":=")
            bound = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            return Let(name, bound, body, self.span(pos))
        if kind == "if":
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            els = self.parse_expr()
            return IfThenElse(cond, then, els, self.span(pos))
        if kind == "lower":
            layout = self.parse_layout_ref_atom()
            arg = self.parse_atom()
            return Lower(layout, arg, self.span(pos))
        # instantiate, the last of _PREFIX_FORMS
        self.expect("[")
        arg_layouts = self._comma_list(self.parse_layout_ref, "]")
        result = self.parse_layout_ref_atom()
        fn = self.expect("ident")
        args = []
        while self.kinds[self.pos] in _ATOM_STARTS:
            args.append(self.parse_atom())
        return Instantiate(tuple(arg_layouts), result, fn, args, self.span(pos))

    def parse_atom(self) -> Expr:
        kind = self.current()
        pos = self.pos
        if kind == "ident":
            self.pos = pos + 1
            text = self.texts[pos]
            if _is_ctor_name(text):
                return ConstructorApp(text, [], self.span(pos))
            return Var(text, self.span(pos))
        if kind == "int":
            self.pos = pos + 1
            return IntLit(int(self.texts[pos]), self.span(pos))
        if kind == "true" or kind == "false":
            self.pos = pos + 1
            return BoolLit(kind == "true", self.span(pos))
        if kind == "(":
            self.pos = pos + 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {self.texts[pos]!r}", self.span(pos))


def parse_program(tokens: Tokens) -> SourceUnit:
    """Parse a full source unit from the tokens ``lex`` gives."""
    return _Parser(tokens).parse_unit()


def parse_source(text: str) -> SourceUnit:
    return parse_program(lex(text))


def parse_expr_text(text: str) -> Expr:
    """Parse a standalone expression (used by the CLI 'run' command)."""
    parser = _Parser(lex(text))
    return parser.whole(parser.parse_expr)


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

def render_expr(e: Expr, prec: int = 0) -> str:
    def wrap(s: str, my_prec: int) -> str:
        return f"({s})" if my_prec < prec else s

    if isinstance(e, IntLit):
        return wrap(str(e.value), _APP_PREC) if e.value < 0 and prec >= _APP_PREC else str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Addr):
        return wrap(f"addr {e.var}", _APP_PREC - 1)
    if isinstance(e, Not):
        return wrap(f"not {render_expr(e.arg, _APP_PREC + 1)}", _APP_PREC - 1)
    if isinstance(e, ConstructorApp):
        if not e.args:
            # 0-ary constructors print parenthesised in argument position
            return f"({e.name})" if prec > _APP_PREC else e.name
        parts = " ".join(render_expr(a, _APP_PREC + 1) for a in e.args)
        return wrap(f"{e.name} {parts}", _APP_PREC)
    if isinstance(e, App):
        parts = " ".join(render_expr(a, _APP_PREC + 1) for a in e.args)
        return wrap(f"{e.fn} {parts}", _APP_PREC)
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        s = f"{render_expr(e.lhs, p)} {e.op} {render_expr(e.rhs, p + 1)}"
        return wrap(s, p)
    if isinstance(e, IfThenElse):
        s = (f"if {render_expr(e.cond)} then {render_expr(e.then)} "
             f"else {render_expr(e.els)}")
        return wrap(s, 0) if prec > 0 else s
    if isinstance(e, Let):
        s = f"let {e.name} := {render_expr(e.bound)} in {render_expr(e.body)}"
        return wrap(s, 0) if prec > 0 else s
    if isinstance(e, Lower):
        s = f"lower {_render_layout_atom(e.layout)} {render_expr(e.arg, _APP_PREC + 1)}"
        return wrap(s, _APP_PREC - 1)
    if isinstance(e, Instantiate):
        layouts = ", ".join(render_layout_ref(r) for r in e.arg_layouts)
        result = _render_result_layout(e.result_layout)
        args = " ".join(render_expr(a, _APP_PREC + 1) for a in e.args)
        s = f"instantiate [{layouts}] {result} {e.fn} {args}".rstrip()
        return wrap(s, _APP_PREC - 1)
    raise TypeError(e)


def render_pattern(p: Pattern) -> str:
    if p.is_var:
        return p.var
    if p.vars:
        return f"({p.ctor} {' '.join(p.vars)})"
    return f"({p.ctor})"


def render_loc(base: str, offset: int) -> str:
    """A heap location as written in both languages: ``x`` or ``(x+k)``."""
    return base if offset == 0 else f"({base}+{offset})"


def _render_layout_heaplet(h: LayoutHeaplet) -> str:
    if isinstance(h, HEmp):
        return "emp"
    if isinstance(h, HPointsTo):
        return f"{render_loc(h.base, h.offset)} :-> {h.payload}"
    return f"{h.layout} {h.arg}"


def pretty_print(unit: SourceUnit) -> str:
    """Render a source unit back to parseable text."""
    chunks: list[str] = []
    for d in unit.directives:
        layouts = ", ".join(render_layout_ref(r) for r in d.arg_layouts)
        result = _render_result_layout(d.result_layout)
        chunks.append(f"%generate {d.fn} [{layouts}] {result}")
    for dd in unit.data_defs:
        alts = " | ".join(
            " ".join([ctor] + [_render_type_atom(t) for t in tys])
            for ctor, tys in dd.alts
        )
        chunks.append(f"data {dd.name} := {alts};")
    for ld in unit.layout_defs:
        chunks.append(f"{ld.name} : {ld.adt} >-> layout[{', '.join(ld.ssl_params)}];")
        for pat, heaplets in ld.branches:
            rhs = ", ".join(_render_layout_heaplet(h) for h in heaplets)
            chunks.append(f"{ld.name} {render_pattern(pat)} := {rhs};")
    printed_sigs = set()
    for name, ty in unit.fn_sigs.items():
        chunks.append(f"{name} : {ty};")
        printed_sigs.add(name)
        for case in unit.fn_defs.get(name, []):
            chunks.extend(_render_fn_case(case))
    for name, cases in unit.fn_defs.items():
        if name not in printed_sigs:
            for case in cases:
                chunks.extend(_render_fn_case(case))
    return "\n".join(chunks) + ("\n" if chunks else "")


def _render_type_atom(ty: TypeExpr) -> str:
    return f"({ty})" if isinstance(ty, (TFn, TPtrInt)) else str(ty)


def _render_fn_case(case: FnCase) -> list[str]:
    head = " ".join([case.name] + [render_pattern(p) for p in case.patterns])
    if len(case.guarded_bodies) == 1 and case.guarded_bodies[0][0] is None:
        return [f"{head} := {render_expr(case.guarded_bodies[0][1])};"]
    lines = [head]
    for guard, body in case.guarded_bodies:
        lines.append(f"  | {render_expr(guard)} := {render_expr(body)};")
    return lines


# ---------------------------------------------------------------------------
# AST size (used by the expressiveness comparison)
# ---------------------------------------------------------------------------

def count_expr_nodes(e: Expr) -> int:
    """One node per subexpression, plus one for a let binder or a lowered
    layout, and one plus one per argument layout for an instantiation."""
    n = 0
    for x in iter_subexprs(e):
        n += 1
        if isinstance(x, (Let, Lower)):
            n += 1
        elif isinstance(x, Instantiate):
            n += 1 + len(x.arg_layouts)
    return n


def _count_type_nodes(ty: TypeExpr) -> int:
    if isinstance(ty, TFn):
        return 1 + _count_type_nodes(ty.arg) + _count_type_nodes(ty.res)
    return 1


def count_unit_nodes(unit: SourceUnit) -> int:
    """Node count of a whole source unit, for size comparisons."""
    n = 0
    for d in unit.directives:
        n += 2 + len(d.arg_layouts)
    for dd in unit.data_defs:
        n += 1
        for _ctor, tys in dd.alts:
            n += 1 + sum(_count_type_nodes(t) for t in tys)
    for ld in unit.layout_defs:
        n += 1 + len(ld.ssl_params)
        for pat, heaplets in ld.branches:
            n += 1 + len(pat.vars)
            for h in heaplets:
                n += 1 if isinstance(h, HEmp) else 3 if isinstance(h, HPointsTo) else 2
    for _name, ty in unit.fn_sigs.items():
        n += 1 + _count_type_nodes(ty)
    for _name, cases in unit.fn_defs.items():
        for case in cases:
            n += 1
            for p in case.patterns:
                n += 1 + len(p.vars)
            for guard, body in case.guarded_bodies:
                n += count_expr_nodes(body)
                if guard is not None:
                    n += count_expr_nodes(guard)
    return n
