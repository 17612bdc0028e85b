"""Surface syntax: lexer, AST, recursive-descent parser, pretty-printer.

The language looks like a small Haskell: ``data`` declarations, layout
declarations mapping constructors to heaplet lists, type signatures,
guarded pattern-matching function definitions, and ``%generate``
directives naming the layout instantiation to compile a function at.

Binary operators are declared once, in ``_PREC``: the parser's one
precedence-climbing loop and the printer's parenthesisation both read it.
The token cursor, ``_Cursor``, is shared with the SSL re-parser in ``ssl``.

The printer is a parsing inverse: for any well-formed unit ``u``,
``parse_program(lex(pretty_print(u)))`` is structurally equal to ``u``
(source spans are excluded from structural equality).
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from string import ascii_letters
from typing import Callable, Iterator, Optional, Sequence

from .errors import LexError, ParseError, Span
from .node import Frozen, Node


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
# The end alternative keeps a trailing comment whole: without it the
# comment would give back its last character as a token.
_TOKEN_RE = re.compile(
    r"((?:\s+|--[^\n]*)*)"
    r"(%generate\b|-?[0-9]+|[A-Za-z_][A-Za-z0-9_']*|"
    + "|".join(map(re.escape, _SYMBOLS))
    + f"|[{re.escape(_CHARS)}]" + r"|\S|\Z)")

# token text -> kind for keywords and symbols; any other token's kind
# follows from its first character, and a character in neither is illegal
_KINDS = {w: w for w in (*KEYWORDS, *_SYMBOLS, *_CHARS, "%generate")}
_FIRST_KINDS = (dict.fromkeys("-0123456789", "int")
                | dict.fromkeys(ascii_letters + "_", "ident"))

# '-' directly before a digit only lexes as a negative literal at expression
# starts; after one of these kinds the parser wants a binary minus
_MINUS_AFTER = frozenset({"int", "ident", ")", "]"})


# kind: 'int', 'ident', keyword text, or symbol text; span: a Span
Token = namedtuple("Token", ("kind", "text", "span"))


def lex(source: str) -> list[Token]:
    """Tokenise a source string, dropping whitespace and comments.

    One ``_TOKEN_RE.findall`` gives a ``(skipped, token)`` pair per token,
    ``skipped`` being the whitespace and comments before it; an empty token
    is the end of input.  A token's kind comes from ``_KINDS``, or else
    from its first character; a token with neither is an illegal
    character.  The column runs on: it restarts after the last newline of
    a skipped stretch and otherwise advances by the length of each piece."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
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
                append(new(Token, ("-", "-", new(Span, (line, col)))))
                text = text[1:]
                col += 1
        kind = k
        append(new(Token, (k, text, new(Span, (line, col)))))
        col += len(text)
    return tokens


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


def render_layout_ref(ref: LayoutRef, with_mode: bool = True) -> str:
    if isinstance(ref, NamedLayout):
        if with_mode and ref.mode == "mutable":
            return f"{ref.name}[mutable]"
        return ref.name
    if isinstance(ref, IntLayout):
        return "Int"
    if isinstance(ref, BoolLayout):
        return "Bool"
    if isinstance(ref, PtrIntLayout):
        return "Ptr Int"
    if isinstance(ref, FnLayout):
        a = render_layout_ref(ref.arg, with_mode)
        if isinstance(ref.arg, FnLayout):
            a = f"({a})"
        return f"{a} -> {render_layout_ref(ref.res, with_mode)}"
    raise TypeError(ref)


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

def subexprs(e: Expr) -> Sequence[Expr]:
    """The direct subexpressions of ``e``, left to right."""
    if isinstance(e, (IntLit, BoolLit, Var, Addr)):
        return ()
    if isinstance(e, (ConstructorApp, App, Instantiate)):
        return e.args
    if isinstance(e, BinOp):
        return (e.lhs, e.rhs)
    if isinstance(e, (Not, Lower)):
        return (e.arg,)
    if isinstance(e, IfThenElse):
        return (e.cond, e.then, e.els)
    if isinstance(e, Let):
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
            stack.extend(kids[::-1])


def map_expr(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """``e`` rebuilt with ``f`` applied to each direct subexpression, left to
    right; every other field, the span included, is kept.  A leaf is
    returned as it is."""
    if isinstance(e, (IntLit, BoolLit, Var, Addr)):
        return e
    if isinstance(e, ConstructorApp):
        return ConstructorApp(e.name, [f(a) for a in e.args], span=e.span)
    if isinstance(e, App):
        return App(e.fn, [f(a) for a in e.args], span=e.span)
    if isinstance(e, Instantiate):
        return Instantiate(e.arg_layouts, e.result_layout, e.fn,
                           [f(a) for a in e.args], span=e.span)
    if isinstance(e, BinOp):
        return BinOp(e.op, f(e.lhs), f(e.rhs), span=e.span)
    if isinstance(e, Not):
        return Not(f(e.arg), span=e.span)
    if isinstance(e, Lower):
        return Lower(e.layout, f(e.arg), span=e.span)
    if isinstance(e, IfThenElse):
        return IfThenElse(f(e.cond), f(e.then), f(e.els), span=e.span)
    if isinstance(e, Let):
        return Let(e.name, f(e.bound), f(e.body), span=e.span)
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


class CtorShape(namedtuple("CtorShape", ("pattern", "heaplets", "cells",
                                         "size", "error"))):
    """A constructor's layout branch and what building it writes: points-to
    cells as ``(offset, payload)`` pairs, the block size, and the first cell
    the machine cannot write as ``(message, span)``, or None."""
    __slots__ = ()


class LayoutDef(Node):
    # branches: (Pattern, [LayoutHeaplet])
    __slots__ = ("name", "adt", "ssl_params", "branches", "span", "__dict__")

    @cached_property
    def shapes(self) -> dict:
        """Constructor name -> ``CtorShape``; the first branch for a name
        wins.  Built on first use: a layout's branches do not change."""
        out = {}
        root = self.ssl_params[0] if self.ssl_params else None
        for pat, heaplets in reversed(self.branches):
            writes = [h for h in heaplets if isinstance(h, HPointsTo)]
            bad = next((h for h in writes
                        if h.base != root or h.payload not in pat.vars), None)
            error = bad and (
                f"layout {self.name} writes through non-root {bad.base}"
                if bad.base != root else
                f"layout {self.name} references {bad.payload} with no value",
                bad.span)
            cells = tuple((h.offset, h.payload) for h in writes)
            size = max(off for off, _ in cells) + 1 if cells else 0
            out[pat.ctor] = CtorShape(pat, heaplets, cells, size, error)
        return out

    @cached_property
    def emptiness(self) -> tuple:
        """``(empties, non_empties)``: the branch patterns whose heaplets are
        all ``emp``, and the others, each in branch order."""
        empties, non_empties = [], []
        for pat, heaplets in self.branches:
            empty = all(isinstance(h, HEmp) for h in heaplets)
            (empties if empty else non_empties).append(pat)
        return tuple(empties), tuple(non_empties)

    def branch_for(self, ctor: str) -> Optional[list]:
        shape = self.shapes.get(ctor)
        return shape and shape.heaplets

    def branch_pattern(self, ctor: str) -> Optional[Pattern]:
        shape = self.shapes.get(ctor)
        return shape and shape.pattern


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
    a token list whose kinds end in a ``None`` sentinel, so lookahead needs
    no bounds check.  A subclass names the end of input in its messages."""

    END = "unexpected end of input"     # what current() and next() raise
    EOF = "end of input"                # what expect() says it found
    FOUND = "kind"                      # the field of a token expect() names

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.kinds = [t.kind for t in tokens]
        self.kinds.append(None)
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return None if self.kinds[self.pos] is None else self.tokens[self.pos]

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def _end_span(self) -> Span:
        """Where an unexpected end of input is reported: the last token."""
        return self.tokens[-1].span if self.tokens else Span(1, 1)

    def current(self) -> Token:
        """The next token, not consumed; raises at the end of input."""
        if self.kinds[self.pos] is None:
            raise ParseError(self.END, self._end_span())
        return self.tokens[self.pos]

    def next(self) -> Token:
        pos = self.pos
        if self.kinds[pos] is None:
            raise ParseError(self.END, self._end_span())
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, kind: str) -> Token:
        pos = self.pos
        found = self.kinds[pos]
        if found != kind:
            if found is None:
                span, found = self._end_span(), self.EOF
            else:
                tok = self.tokens[pos]
                span, found = tok.span, getattr(tok, self.FOUND)
            raise ParseError(f"expected {kind!r}, found {found!r}", span,
                             expected={kind})
        self.pos = pos + 1
        return self.tokens[pos]

    def whole(self, parse: Callable):
        """What ``parse()`` returns, once it has read all the input."""
        result = parse()
        if self.kinds[self.pos] is not None:
            tok = self.tokens[self.pos]
            raise ParseError(f"trailing input {tok.text!r}", tok.span)
        return result

    def _comma_list(self, item: Callable, close: str) -> list:
        """Items separated by commas, possibly none, then ``close``."""
        items = []
        if not self.at(close):
            items.append(item())
            while self.at(","):
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
            tok = self.tokens[self.pos]
            if tok.kind == "%generate":
                unit.directives.append(self.parse_directive())
            elif tok.kind == "data":
                unit.data_defs.append(self.parse_data_def())
            elif tok.kind == "ident":
                if kinds[self.pos + 1] == ":":
                    name, decl = self.parse_signature()
                    if isinstance(decl, tuple):
                        if name in layout_sigs:
                            raise ParseError(f"duplicate layout signature {name}", tok.span)
                        layout_sigs[name] = decl
                        layout_cases.setdefault(name, [])
                        order.append(name)
                    else:
                        if name in unit.fn_sigs:
                            raise ParseError(f"duplicate signature for {name}", tok.span)
                        unit.fn_sigs[name] = decl
                elif tok.text in layout_sigs:
                    name, case = self.parse_layout_case()
                    layout_cases[name].append(case)
                else:
                    case = self.parse_fn_case()
                    unit.fn_defs.setdefault(case.name, []).append(case)
            else:
                raise ParseError(f"unexpected token {tok.text!r}", tok.span)
        for name in order:
            adt, params = layout_sigs[name]
            unit.layout_defs.append(LayoutDef(name, adt, params, layout_cases[name]))
        return unit

    def parse_directive(self) -> GenerateDirective:
        span = self.expect("%generate").span
        fn = self.expect("ident").text
        self.expect("[")
        args = self._comma_list(self.parse_layout_ref, "]")
        result = self.parse_layout_ref_atom()
        if self.at(";"):
            self.next()
        return GenerateDirective(fn, tuple(args), result, span=span)

    def parse_data_def(self) -> DataDef:
        span = self.expect("data").span
        name = self.expect("ident").text
        self.expect(":=")
        alts = [self.parse_data_alt()]
        while self.at("|"):
            self.next()
            alts.append(self.parse_data_alt())
        self.expect(";")
        return DataDef(name, alts, span=span)

    def parse_data_alt(self) -> tuple:
        ctor = self.expect("ident").text
        fields = []
        while self.at("ident", "(") and not self.at(";", "|"):
            fields.append(self.parse_type_atom())
        return (ctor, fields)

    def parse_signature(self):
        """Parse ``name : ...;`` — either a layout signature or a fn signature."""
        name = self.expect("ident").text
        self.expect(":")
        # layout signature: ADT '>->' 'layout' '[' vars ']'
        save = self.pos
        if self.at("ident") and self.kinds[self.pos + 1] == ">->":
            adt = self.next().text
            self.next()  # >->
            self.expect("layout")
            self.expect("[")
            params = [self.expect("ident").text]
            while self.at(","):
                self.next()
                params.append(self.expect("ident").text)
            self.expect("]")
            self.expect(";")
            return name, (adt, params)
        self.pos = save
        ty = self.parse_type()
        self.expect(";")
        return name, ty

    def parse_type_atom(self) -> TypeExpr:
        if self.at("("):
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        name = self.expect("ident").text
        if name == "Int":
            return TInt()
        if name == "Bool":
            return TBool()
        if name == "Ptr":
            inner = self.expect("ident")
            if inner.text != "Int":
                raise ParseError("only 'Ptr Int' is supported", inner.span)
            return TPtrInt()
        return TName(name)

    def parse_type(self) -> TypeExpr:
        left = self.parse_type_atom()
        if self.at("->"):
            self.next()
            return TFn(left, self.parse_type())
        return left

    # -- layouts --

    def parse_layout_ref_atom(self) -> LayoutRef:
        if self.at("("):
            self.next()
            ref = self.parse_layout_ref()
            self.expect(")")
            return ref
        name = self.expect("ident").text
        if name == "Int":
            return IntLayout()
        if name == "Bool":
            return BoolLayout()
        if name == "Ptr":
            inner = self.expect("ident")
            if inner.text != "Int":
                raise ParseError("only 'Ptr Int' is supported", inner.span)
            return PtrIntLayout()
        mode = "readonly"
        if self.at("["):
            self.next()
            mode_tok = self.next()
            if mode_tok.kind not in ("readonly", "mutable"):
                raise ParseError("expected 'readonly' or 'mutable'", mode_tok.span)
            mode = mode_tok.kind
            self.expect("]")
        return NamedLayout(name, mode)

    def parse_layout_ref(self) -> LayoutRef:
        left = self.parse_layout_ref_atom()
        if self.at("->"):
            self.next()
            return FnLayout(left, self.parse_layout_ref())
        return left

    def parse_layout_case(self):
        name = self.expect("ident").text
        pat = self.parse_pattern()
        self.expect(":=")
        heaplets = [self.parse_layout_heaplet()]
        while self.at(","):
            self.next()
            heaplets.append(self.parse_layout_heaplet())
        self.expect(";")
        return name, (pat, heaplets)

    def parse_layout_heaplet(self) -> LayoutHeaplet:
        tok = self.peek()
        if self.at("emp"):
            return HEmp(span=self.next().span)
        if self.at("("):
            self.next()
            base = self.expect("ident").text
            self.expect("+")
            off = int(self.expect("int").text)
            self.expect(")")
            self.expect(":->")
            payload = self.expect("ident").text
            return HPointsTo(base, off, payload, span=tok.span)
        base = self.expect("ident").text
        if self.at(":->"):
            self.next()
            payload = self.expect("ident").text
            return HPointsTo(base, 0, payload, span=tok.span)
        arg = self.expect("ident").text
        return HApply(base, arg, span=tok.span)

    # -- function cases --

    def parse_pattern(self) -> Pattern:
        tok = self.peek()
        if self.at("("):
            self.next()
            head = self.expect("ident").text
            vars_ = []
            while self.at("ident"):
                vars_.append(self.next().text)
            self.expect(")")
            if not _is_ctor_name(head):
                if vars_:
                    raise ParseError("variable patterns take no arguments",
                                     tok.span)
                return Pattern(None, [head], span=tok.span)
            return Pattern(head, vars_, span=tok.span)
        name = self.expect("ident").text
        if _is_ctor_name(name):
            return Pattern(name, [], span=tok.span)
        return Pattern(None, [name], span=tok.span)

    def parse_fn_case(self) -> FnCase:
        span = self.peek().span
        name = self.expect("ident").text
        patterns = []
        while self.at("(", "ident"):
            patterns.append(self.parse_pattern())
        bodies = []
        if self.at(":="):
            self.next()
            body = self.parse_expr()
            self.expect(";")
            bodies.append((None, body))
        else:
            while self.at("|"):
                self.next()
                guard = self.parse_expr()
                self.expect(":=")
                body = self.parse_expr()
                self.expect(";")
                bodies.append((guard, body))
            if not bodies:
                tok = self.peek()
                raise ParseError("expected ':=' or '|' in function case",
                                 tok.span if tok else span)
        return FnCase(name, patterns, bodies, span=span)

    # -- expressions --
    # binary operators bind as ``_PREC`` says, application tighter; 'not' and
    # 'addr' bind as prefixes of atoms; let/if/lower/instantiate extend to
    # the right.

    def parse_expr(self, prec: int = 1) -> Expr:
        """An expression whose binary operators bind at least as tightly as
        ``prec``; each ``BinOp`` has its operator token's span."""
        left = self.parse_app()
        while _PREC.get(self.kinds[self.pos], 0) >= prec:
            op = self.next()
            left = BinOp(op.kind, left, self.parse_expr(_PREC[op.kind] + 1),
                         span=op.span)
        return left

    def parse_app(self) -> Expr:
        start = self.pos
        if self.kinds[start] in _PREFIX_FORMS:
            return self.parse_prefix_form()
        head = self.parse_atom()
        args = []
        while self._starts_atom():
            args.append(self.parse_atom())
        if not args:
            return head
        if isinstance(head, Var):
            return App(head.name, args, span=head.span)
        if isinstance(head, ConstructorApp) and not head.args:
            return ConstructorApp(head.name, args, span=head.span)
        raise ParseError("only named functions and constructors may be applied",
                         self.tokens[start].span)

    def _starts_atom(self) -> bool:
        return self.kinds[self.pos] in _ATOM_STARTS

    def parse_prefix_form(self) -> Expr:
        tok = self.peek()
        if tok.kind == "not":
            self.next()
            return Not(self.parse_atom(), span=tok.span)
        if tok.kind == "addr":
            self.next()
            var = self.expect("ident")
            return Addr(var.text, span=tok.span)
        if tok.kind == "let":
            self.next()
            name = self.expect("ident").text
            self.expect(":=")
            bound = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            return Let(name, bound, body, span=tok.span)
        if tok.kind == "if":
            self.next()
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            els = self.parse_expr()
            return IfThenElse(cond, then, els, span=tok.span)
        if tok.kind == "lower":
            self.next()
            layout = self.parse_layout_ref_atom()
            arg = self.parse_atom()
            return Lower(layout, arg, span=tok.span)
        if tok.kind == "instantiate":
            self.next()
            self.expect("[")
            arg_layouts = self._comma_list(self.parse_layout_ref, "]")
            result = self.parse_layout_ref_atom()
            fn = self.expect("ident").text
            args = []
            while self._starts_atom():
                args.append(self.parse_atom())
            return Instantiate(tuple(arg_layouts), result, fn, args, span=tok.span)
        raise ParseError(f"unexpected token {tok.text!r}", tok.span)

    def parse_atom(self) -> Expr:
        tok = self.current()
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.text), span=tok.span)
        if tok.kind == "true":
            self.next()
            return BoolLit(True, span=tok.span)
        if tok.kind == "false":
            self.next()
            return BoolLit(False, span=tok.span)
        if tok.kind == "ident":
            self.next()
            if _is_ctor_name(tok.text):
                return ConstructorApp(tok.text, [], span=tok.span)
            return Var(tok.text, span=tok.span)
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.span,
                         expected={"int", "ident", "("})


def parse_program(tokens: list[Token]) -> SourceUnit:
    """Parse a full source unit from a token stream."""
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
        s = f"lower {render_layout_ref(e.layout)} {render_expr(e.arg, _APP_PREC + 1)}"
        return wrap(s, _APP_PREC - 1)
    if isinstance(e, Instantiate):
        layouts = ", ".join(render_layout_ref(r) for r in e.arg_layouts)
        result = render_layout_ref(e.result_layout)
        if isinstance(e.result_layout, PtrIntLayout):
            result = f"({result})"
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


def render_type(ty: TypeExpr) -> str:
    return str(ty)


def _render_layout_heaplet(h: LayoutHeaplet) -> str:
    if isinstance(h, HEmp):
        return "emp"
    if isinstance(h, HPointsTo):
        loc = h.base if h.offset == 0 else f"({h.base}+{h.offset})"
        return f"{loc} :-> {h.payload}"
    return f"{h.layout} {h.arg}"


def pretty_print(unit: SourceUnit) -> str:
    """Render a source unit back to parseable text."""
    chunks: list[str] = []
    for d in unit.directives:
        layouts = ", ".join(render_layout_ref(r) for r in d.arg_layouts)
        result = render_layout_ref(d.result_layout)
        if isinstance(d.result_layout, PtrIntLayout):
            result = f"({result})"
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
        chunks.append(f"{name} : {render_type(ty)};")
        printed_sigs.add(name)
        for case in unit.fn_defs.get(name, []):
            chunks.extend(_render_fn_case(case))
    for name, cases in unit.fn_defs.items():
        if name not in printed_sigs:
            for case in cases:
                chunks.extend(_render_fn_case(case))
    return "\n".join(chunks) + ("\n" if chunks else "")


def _render_type_atom(ty: TypeExpr) -> str:
    s = render_type(ty)
    return f"({s})" if isinstance(ty, (TFn, TPtrInt)) else s


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
