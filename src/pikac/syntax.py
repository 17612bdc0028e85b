"""Surface syntax: lexer, AST, recursive-descent parser, pretty-printer.

The language looks like a small Haskell: ``data`` declarations, layout
declarations mapping constructors to heaplet lists, type signatures,
guarded pattern-matching function definitions, and ``%generate``
directives naming the layout instantiation to compile a function at.

The printer is a parsing inverse: for any well-formed unit ``u``,
``parse_program(lex(pretty_print(u)))`` is structurally equal to ``u``
(source spans are excluded from structural equality).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import LexError, ParseError, Span


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

KEYWORDS = {
    "data", "layout", "instantiate", "lower", "let", "in", "if", "then",
    "else", "not", "addr", "emp", "true", "false", "readonly", "mutable",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<generate>%generate\b)
    | (?P<int>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<sym>:->|:=>|>->|->|:=|==|&&|\|\||[%+\-<|:;,()\[\]{}])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# '-' directly before a digit only lexes as a negative literal at expression
# starts; after one of these kinds the parser wants a binary minus
_MINUS_AFTER = frozenset({"int", "ident", ")", "]"})


class Token(NamedTuple):
    kind: str           # 'int', 'ident', keyword text, or symbol text
    text: str
    span: Span


def lex(source: str) -> list[Token]:
    """Tokenise a source string, dropping whitespace and comments.

    One pass of ``_TOKEN_RE``: every character is matched by some group,
    the last of which rejects it.  Columns come from the offset of the
    current line's start, which only a whitespace match can move."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    line, line_start = 1, 0
    kind = None     # of the last token, which decides the '-' split
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "ws":
            text = m.group()
            nl = text.rfind("\n")
            if nl >= 0:
                line += text.count("\n")
                line_start = m.start() + nl + 1
            continue
        if group == "comment":
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if group == "ident":
            kind = text if text in KEYWORDS else "ident"
        elif group == "sym":
            kind = text
        elif group == "int":
            if text[0] == "-" and kind in _MINUS_AFTER:
                append(new(Token, ("-", "-", new(Span, (line, col)))))
                text = text[1:]
                col += 1
            kind = "int"
        elif group == "generate":
            kind = "%generate"
        else:
            raise LexError(f"illegal character {text!r}", Span(line, col))
        append(new(Token, (kind, text, new(Span, (line, col)))))
    return tokens


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TInt:
    def __str__(self): return "Int"


@dataclass(frozen=True)
class TBool:
    def __str__(self): return "Bool"


@dataclass(frozen=True)
class TPtrInt:
    def __str__(self): return "Ptr Int"


@dataclass(frozen=True)
class TName:
    name: str

    def __str__(self): return self.name


@dataclass(frozen=True)
class TFn:
    arg: "TypeExpr"
    res: "TypeExpr"

    def __str__(self):
        a = f"({self.arg})" if isinstance(self.arg, TFn) else str(self.arg)
        return f"{a} -> {self.res}"


TypeExpr = Union[TInt, TBool, TPtrInt, TName, TFn]


# ---------------------------------------------------------------------------
# Layout references (as written in directives / instantiate / lower)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedLayout:
    name: str
    mode: str = "readonly"      # meaningful for ADT layouts only


@dataclass(frozen=True)
class IntLayout:
    pass


@dataclass(frozen=True)
class BoolLayout:
    pass


@dataclass(frozen=True)
class PtrIntLayout:
    pass


@dataclass(frozen=True)
class FnLayout:
    arg: "LayoutRef"
    res: "LayoutRef"


LayoutRef = Union[NamedLayout, IntLayout, BoolLayout, PtrIntLayout, FnLayout]


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

def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass
class IntLit:
    value: int
    span: Optional[Span] = _span_field()


@dataclass
class BoolLit:
    value: bool
    span: Optional[Span] = _span_field()


@dataclass
class Var:
    name: str
    span: Optional[Span] = _span_field()


@dataclass
class ConstructorApp:
    name: str
    args: list["Expr"]
    span: Optional[Span] = _span_field()


@dataclass
class App:
    fn: str
    args: list["Expr"]
    span: Optional[Span] = _span_field()


@dataclass
class BinOp:
    op: str                     # one of + - % < == && ||
    lhs: "Expr"
    rhs: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class Not:
    arg: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class Addr:
    var: str
    span: Optional[Span] = _span_field()


@dataclass
class IfThenElse:
    cond: "Expr"
    then: "Expr"
    els: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class Let:
    name: str
    bound: "Expr"
    body: "Expr"
    span: Optional[Span] = _span_field()


@dataclass
class Instantiate:
    arg_layouts: tuple
    result_layout: LayoutRef
    fn: str
    args: list["Expr"]
    span: Optional[Span] = _span_field()


@dataclass
class Lower:
    layout: LayoutRef
    arg: "Expr"
    span: Optional[Span] = _span_field()


Expr = Union[IntLit, BoolLit, Var, ConstructorApp, App, BinOp, Not, Addr,
             IfThenElse, Let, Instantiate, Lower]


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

@dataclass
class Pattern:
    """A top-level pattern: either ``(Ctor v1 ... vn)`` or a bare variable."""
    ctor: Optional[str]
    vars: list[str]
    span: Optional[Span] = _span_field()

    @property
    def is_var(self) -> bool:
        return self.ctor is None

    @property
    def var(self) -> str:
        assert self.ctor is None and len(self.vars) == 1
        return self.vars[0]


@dataclass
class DataDef:
    name: str
    alts: list[tuple]           # (constructor name, [TypeExpr])
    span: Optional[Span] = _span_field()


@dataclass
class HEmp:
    span: Optional[Span] = _span_field()


@dataclass
class HPointsTo:
    base: str
    offset: int
    payload: str
    span: Optional[Span] = _span_field()


@dataclass
class HApply:
    layout: str
    arg: str
    span: Optional[Span] = _span_field()


LayoutHeaplet = Union[HEmp, HPointsTo, HApply]


class CtorShape(NamedTuple):
    """A constructor's layout branch and what building it writes: points-to
    cells as ``(offset, payload)`` pairs, the block size, and the first cell
    the machine cannot write as ``(message, span)``, or None."""
    pattern: Pattern
    heaplets: list
    cells: tuple
    size: int
    error: Optional[tuple]


@dataclass
class LayoutDef:
    name: str
    adt: str
    ssl_params: list[str]
    branches: list[tuple]       # (Pattern, [LayoutHeaplet])
    span: Optional[Span] = _span_field()

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

    def branch_for(self, ctor: str) -> Optional[list]:
        shape = self.shapes.get(ctor)
        return shape and shape.heaplets

    def branch_pattern(self, ctor: str) -> Optional[Pattern]:
        shape = self.shapes.get(ctor)
        return shape and shape.pattern


@dataclass
class FnCase:
    name: str
    patterns: list[Pattern]
    guarded_bodies: list[tuple]  # (guard Expr or None, body Expr)
    span: Optional[Span] = _span_field()


@dataclass
class GenerateDirective:
    fn: str
    arg_layouts: tuple
    result_layout: LayoutRef
    span: Optional[Span] = _span_field()


@dataclass
class SourceUnit:
    data_defs: list[DataDef]
    layout_defs: list[LayoutDef]
    fn_sigs: dict
    fn_defs: dict               # name -> [FnCase]
    directives: list[GenerateDirective]

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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        # token kinds, ending in a None sentinel so lookahead needs no
        # bounds check
        self.kinds = [t.kind for t in tokens]
        self.kinds.append(None)
        self.pos = 0

    # -- token plumbing --

    def peek(self) -> Optional[Token]:
        return None if self.kinds[self.pos] is None else self.tokens[self.pos]

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def _end_span(self) -> Span:
        """Where an unexpected end of input is reported: the last token."""
        return self.tokens[-1].span if self.tokens else Span(1, 1)

    def next(self) -> Token:
        pos = self.pos
        if self.kinds[pos] is None:
            raise ParseError("unexpected end of input", self._end_span())
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, kind: str) -> Token:
        pos = self.pos
        found = self.kinds[pos]
        if found != kind:
            if found is None:
                span, found = self._end_span(), "end of input"
            else:
                span = self.tokens[pos].span
            raise ParseError(f"expected {kind!r}, found {found!r}", span,
                             expected={kind})
        self.pos = pos + 1
        return self.tokens[pos]

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
        args = []
        if not self.at("]"):
            args.append(self.parse_layout_ref())
            while self.at(","):
                self.next()
                args.append(self.parse_layout_ref())
        self.expect("]")
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
    # precedence, loosest first: || ; && ; < == ; + - ; % ; application/atoms
    # 'not'/'addr' bind as prefixes of atoms; let/if/lower/instantiate extend
    # to the right.

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.at("||"):
            span = self.next().span
            left = BinOp("||", left, self.parse_and(), span=span)
        return left

    def parse_and(self) -> Expr:
        left = self.parse_cmp()
        while self.at("&&"):
            span = self.next().span
            left = BinOp("&&", left, self.parse_cmp(), span=span)
        return left

    def parse_cmp(self) -> Expr:
        left = self.parse_add()
        while self.at("<", "=="):
            op = self.next()
            left = BinOp(op.kind, left, self.parse_add(), span=op.span)
        return left

    def parse_add(self) -> Expr:
        left = self.parse_mod()
        while self.at("+", "-"):
            op = self.next()
            left = BinOp(op.kind, left, self.parse_mod(), span=op.span)
        return left

    def parse_mod(self) -> Expr:
        left = self.parse_app()
        while self.at("%"):
            span = self.next().span
            left = BinOp("%", left, self.parse_app(), span=span)
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
            arg_layouts = []
            if not self.at("]"):
                arg_layouts.append(self.parse_layout_ref())
                while self.at(","):
                    self.next()
                    arg_layouts.append(self.parse_layout_ref())
            self.expect("]")
            result = self.parse_layout_ref_atom()
            fn = self.expect("ident").text
            args = []
            while self._starts_atom():
                args.append(self.parse_atom())
            return Instantiate(tuple(arg_layouts), result, fn, args, span=tok.span)
        raise ParseError(f"unexpected token {tok.text!r}", tok.span)

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._end_span())
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
    e = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.peek().text!r}", parser.peek().span)
    return e


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

_PREC = {"||": 1, "&&": 2, "<": 3, "==": 3, "+": 4, "-": 4, "%": 5}
_APP_PREC = 6


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
