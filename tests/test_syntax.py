"""Lexer, parser, and pretty-printer tests, including corpus round trips."""

import hashlib
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from pikac import syntax as S
from pikac.errors import LexError, ParseError, Span

CORPUS = sorted(pathlib.Path(__file__).parent.joinpath("corpus").glob("*.pika"))


def test_lex_points_to():
    toks = S.lex("x :-> head")
    assert [(t.kind, t.text) for t in toks] == [
        ("ident", "x"), (":->", ":->"), ("ident", "head")]


def test_lex_generate_directive():
    toks = S.lex("%generate even [Int] Int")
    assert [t.kind for t in toks] == \
        ["%generate", "ident", "[", "ident", "]", "ident"]
    assert toks[1].text == "even"


def test_lex_illegal_character():
    with pytest.raises(LexError):
        S.lex("§")


def test_lex_spans():
    toks = S.lex("ab :=\n  cd")
    assert (toks[0].span.line, toks[0].span.col) == (1, 1)
    assert (toks[2].span.line, toks[2].span.col) == (2, 3)


def test_lex_spans_are_tuples():
    tok = S.lex("\n  ab")[0]
    assert tok.span == (2, 3) and str(tok.span) == "2:3"
    assert tok == ("ident", "ab", (2, 3))


def test_lex_splits_minus_after_an_operand():
    toks = S.lex("x -1 (-2) -3 x-4")
    assert [(t.kind, t.text, t.span.col) for t in toks] == [
        ("ident", "x", 1), ("-", "-", 3), ("int", "1", 4), ("(", "(", 6),
        ("int", "-2", 7), (")", ")", 9), ("-", "-", 11), ("int", "3", 12),
        ("ident", "x", 14), ("-", "-", 15), ("int", "4", 16)]


def test_lex_crlf_line_endings():
    toks = S.lex("a\r\n  b -- note\r\n\r\nc")
    assert [(t.text, t.span.line, t.span.col) for t in toks] == [
        ("a", 1, 1), ("b", 2, 3), ("c", 4, 1)]


def test_lex_illegal_character_position():
    with pytest.raises(LexError) as exc:
        S.lex("x := 1;\n  y @ 2")
    assert exc.value.span == (2, 5)


def test_lex_reserves_names_that_begin_with_two_underscores():
    # generated names (__p_0, __p_x1, __r) begin with "__"; a source name
    # equal to one would capture the value the compiler gave that name
    with pytest.raises(LexError) as exc:
        S.lex("f x :=\n  let __p_0 := 7 in x + 1;")
    assert (exc.value.rule, exc.value.message, exc.value.span) == (
        "P-RESERVED", "identifier __p_0 is reserved: names that contain "
        "__ are generated", (2, 7))
    # a predicate name joins its parts with "__" (types.mangle), so a name
    # that contains it anywhere could be a part of another's
    with pytest.raises(LexError) as exc:
        S.lex("x a__b")
    assert (exc.value.rule, exc.value.span) == ("P-RESERVED", (1, 3))
    assert [t.text for t in S.lex("_x a_b_ -- __c")] == ["_x", "a_b_"]


def test_lex_comments_dropped():
    toks = S.lex("x -- trailing comment\ny")
    assert [t.text for t in toks] == ["x", "y"]


def test_parse_singleton_program():
    unit = S.parse_source("""
%generate singleton [Int] Sll
singleton : List -> List;
singleton x := Cons x (Nil);
""")
    assert len(unit.directives) == 1
    assert len(unit.fn_sigs) == 1
    cases = unit.fn_defs["singleton"]
    assert len(cases) == 1
    body = cases[0].guarded_bodies[0][1]
    assert body == S.ConstructorApp("Cons", [S.Var("x"),
                                             S.ConstructorApp("Nil", [])])


def test_parse_empty_input():
    unit = S.parse_source("")
    assert unit == S.SourceUnit.empty()


def test_parse_list_layout():
    unit = S.parse_source("""
data List := Nil | Cons Int List;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
""")
    layout = unit.layout_defs[0]
    assert layout.name == "Sll"
    assert layout.adt == "List"
    assert layout.ssl_params == ["x"]
    nil_pat, nil_heaplets = layout.branches[0]
    assert nil_pat.ctor == "Nil" and nil_heaplets == [S.HEmp()]
    cons_pat, cons_heaplets = layout.branches[1]
    assert cons_pat.vars == ["head", "tail"]
    assert cons_heaplets == [
        S.HPointsTo("x", 0, "head"),
        S.HPointsTo("x", 1, "tail"),
        S.HApply("Sll", "tail"),
    ]
    assert layout.emptiness == ((nil_pat,), (cons_pat,))
    assert layout.emptiness is layout.emptiness


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        S.parse_source("data := Nil;")
    assert exc.value.span is not None


@pytest.mark.parametrize("text, span", [
    ("f (", (1, 3)),
    ("x +", (1, 3)),
])
def test_expr_cut_short_reports_last_token(text, span):
    with pytest.raises(ParseError) as exc:
        S.parse_expr_text(text)
    assert exc.value.message == "unexpected end of input"
    assert exc.value.span == span


def test_file_cut_short_reports_last_token():
    with pytest.raises(ParseError) as exc:
        S.parse_source("plus : Int -> Int -> Int;\nplus x y := x +")
    assert exc.value.message == "unexpected end of input"
    assert exc.value.span == (2, 15)


def test_operator_precedence():
    e = S.parse_expr_text("not (head < 9) && a + b % c == d || e")
    assert isinstance(e, S.BinOp) and e.op == "||"
    lhs = e.lhs
    assert isinstance(lhs, S.BinOp) and lhs.op == "&&"
    cmp = lhs.rhs
    assert isinstance(cmp, S.BinOp) and cmp.op == "=="
    add = cmp.lhs
    assert isinstance(add, S.BinOp) and add.op == "+"
    assert isinstance(add.rhs, S.BinOp) and add.rhs.op == "%"


def test_application_binds_tighter_than_operators():
    e = S.parse_expr_text("head + (sum tail)")
    assert isinstance(e, S.BinOp) and e.op == "+"
    assert isinstance(e.rhs, S.App) and e.rhs.fn == "sum"
    e2 = S.parse_expr_text("f x + g y")
    assert isinstance(e2, S.BinOp)
    assert isinstance(e2.lhs, S.App) and isinstance(e2.rhs, S.App)


def test_instantiate_and_lower_forms():
    e = S.parse_expr_text("instantiate [Int -> Int, Sll[mutable]] Sll map add1 xs")
    assert isinstance(e, S.Instantiate)
    assert e.arg_layouts == (S.FnLayout(S.IntLayout(), S.IntLayout()),
                             S.NamedLayout("Sll", "mutable"))
    assert e.fn == "map" and len(e.args) == 2
    e2 = S.parse_expr_text("lower Sll (Cons x xs)")
    assert isinstance(e2, S.Lower)
    assert isinstance(e2.arg, S.ConstructorApp)


def test_pretty_print_singleton_form():
    unit = S.parse_source("""
singleton : List -> List;
singleton x := Cons x (Nil);
""")
    assert "singleton x := Cons x (Nil);" in S.pretty_print(unit)


@pytest.mark.parametrize("text", [
    "instantiate [Sll] (Int -> Int) f x",
    "instantiate [Int -> Int, Sll] ((Int -> Int) -> Int) f g x",
    "instantiate [Sll] (Ptr Int) f x",
    "lower (Int -> Int) x",
    "lower Ptr Int x",
])
def test_layout_atoms_print_as_they_parse(text):
    # a function layout where the parser reads an atom prints parenthesised
    e = S.parse_expr_text(text)
    assert S.render_expr(e) == text
    assert S.parse_expr_text(S.render_expr(e)) == e


@pytest.mark.parametrize("text", [
    "%generate f [Sll] (Int -> Int)\n",
    "%generate f [Int -> Int] (Ptr Int)\n",
])
def test_directive_result_layout_prints_as_it_parses(text):
    unit = S.parse_source(text)
    assert S.pretty_print(unit) == text
    assert S.parse_source(S.pretty_print(unit)) == unit


def test_pretty_print_empty_unit():
    assert S.pretty_print(S.SourceUnit.empty()) == ""


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_round_trip(path):
    unit = S.parse_source(path.read_text())
    printed = S.pretty_print(unit)
    reparsed = S.parse_source(printed)
    assert reparsed == unit
    assert S.parse_source(S.pretty_print(reparsed)) == reparsed


def test_span_soundness():
    text = pathlib.Path(__file__).parent.joinpath(
        "corpus", "filter_lt9.pika").read_text()
    lines = text.splitlines()
    for tok in S.lex(text):
        assert 1 <= tok.span.line <= len(lines)
        assert 1 <= tok.span.col <= len(lines[tok.span.line - 1]) + 1


# a small expression generator for printer/parser agreement

_names = st.sampled_from(["x", "y", "zs", "head", "tail"])
_exprs = st.recursive(
    st.one_of(
        st.integers(-9, 9).map(S.IntLit),
        st.booleans().map(S.BoolLit),
        _names.map(S.Var),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(sorted(S._PREC)), sub, sub)
        .map(lambda t: S.BinOp(*t)),
        sub.map(S.Not),
        st.tuples(sub, sub, sub).map(lambda t: S.IfThenElse(*t)),
        st.tuples(_names, sub, sub).map(lambda t: S.Let(*t)),
        st.tuples(_names, st.lists(sub, min_size=1, max_size=2))
        .map(lambda t: S.App(*t)),
    ),
    max_leaves=12,
)


@given(_exprs)
def test_expr_print_parse_inverse(e):
    assert S.parse_expr_text(S.render_expr(e)) == e


# lexer positions over text drawn from the token alphabet

_PIECES = st.sampled_from(
    sorted(S.KEYWORDS) + [
        "x", "Cons", "head'", "_t1", "0", "42", "-7", "%generate",
        ":->", ":=>", ">->", "->", ":=", "==", "&&", "||", "%", "+", "-",
        "<", "|", ":", ";", ",", "(", ")", "[", "]", "{", "}"])
# pieces are kept apart, so that no two run together into an illegal
# remainder (':' '==' would leave a lone '=')
_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", " -- note\n"])
_ILLEGAL = st.sampled_from(["@", "#", "$", "!", "?", ".", "\\", "~", "\u00e9", "\x00"])


def _offset(source, span):
    line_start = 0
    for _ in range(span.line - 1):
        line_start = source.index("\n", line_start) + 1
    return line_start + span.col - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PIECES, _SEPARATORS), max_size=40)
       .map(lambda ps: "".join(p + sep for p, sep in ps)))
def test_lex_spans_point_at_token_text(source):
    last = -1
    for tok in S.lex(source):
        at = _offset(source, tok.span)
        assert source[at:at + len(tok.text)] == tok.text
        assert at > last
        last = at


@settings(max_examples=200, deadline=None)
@given(st.lists(_PIECES, max_size=30), _ILLEGAL, st.data())
def test_lex_illegal_character_at_its_position(pieces, bad, data):
    i = data.draw(st.integers(0, len(pieces)))
    text = " ".join(pieces[:i] + [bad] + pieces[i:])
    with pytest.raises(LexError) as exc:
        S.lex(text)
    assert _offset(text, exc.value.span) == text.index(bad)


# lexer pin: every token's (kind, text, line, col), or the LexError's
# message and span, of every .pika under tests/ and of a fixed-seed set of
# strings whose pieces run together with no separator, so that a comment,
# a '-' split, an arrow or '%generate' meets whatever follows it

_PIN_PIECES = sorted(S.KEYWORDS) + [
    "x", "Cons", "head'", "_t1", "0", "42", "-5", "x-1", "(-2)", "--",
    "%generate", "%generatex", ":->", ">->", "->", ":=>", ":=", "==", "&&",
    "||", "%", "+", "-", "<", "|", ":", ";", ",", "(", ")", "[", "]", "{",
    "}", " ", "\n", "\r\n", "\t", "@", "\u00e9"]

_LEX_PIN_DIGEST = (
    "8a0916059f4d73656d94bc4990b291538c2f04f60ee60f253d4f9dd1c06047fb")


def _lex_record(source: str) -> str:
    try:
        toks = [(t.kind, t.text, t.span.line, t.span.col) for t in S.lex(source)]
    except LexError as exc:
        return f"LexError {exc.message!r} {tuple(exc.span)}\n"
    return f"{toks!r}\n"


def test_lex_output_is_pinned():
    rng = random.Random(14)
    h = hashlib.sha256()
    files = sorted(pathlib.Path(__file__).parent.rglob("*.pika"))
    assert len(files) == 34
    for path in files:
        h.update(_lex_record(path.read_text()).encode())
    for _ in range(5000):
        pieces = rng.choices(_PIN_PIECES, k=rng.randint(1, 12))
        h.update(_lex_record("".join(pieces)).encode())
    assert h.hexdigest() == _LEX_PIN_DIGEST


def test_lex_comment_at_end_of_input():
    for source in ("x -- note", "x --", "x\n-- note", "x\r\n--"):
        toks = S.lex(source)
        assert [(t.kind, t.text, t.span) for t in toks] == [("ident", "x", (1, 1))]
    assert S.lex("-- only") == []


# parser pin: the class and span of every node, pattern and heaplet that
# parse_source builds for each .pika under tests/ and for each string of the
# lex pin, or the class, message and span of the error it raises

_PARSE_PIN_DIGEST = (
    "8ffe016d8cc1dfcfdca5d7ae431e2fcb4539438a736e90995f9ff5b7adb4d873")


def _nodes(x):
    """Every node in ``x``, a node or a list or tuple of them, in pre-order."""
    if isinstance(x, S.Node):
        yield x
        for field in x.__class__.__slots__:
            if field not in ("span", "__dict__"):
                yield from _nodes(getattr(x, field))
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _nodes(y)


def _unit_nodes(unit):
    return _nodes([unit.data_defs, unit.layout_defs,
                   list(unit.fn_defs.values()), unit.directives])


def _parse_record(source: str) -> str:
    try:
        unit = S.parse_source(source)
    except (LexError, ParseError) as exc:
        return (f"{exc.__class__.__name__} {exc.message!r} "
                f"{exc.span and tuple(exc.span)}\n")
    return "".join(f"{x.__class__.__name__} "
                   f"{getattr(x, 'span', None) and tuple(x.span)}\n"
                   for x in _unit_nodes(unit)) or "empty\n"


def test_parse_spans_are_pinned():
    rng = random.Random(14)
    h = hashlib.sha256()
    files = sorted(pathlib.Path(__file__).parent.rglob("*.pika"))
    assert len(files) == 34
    for path in files:
        h.update(_parse_record(path.read_text()).encode())
    for _ in range(5000):
        pieces = rng.choices(_PIN_PIECES, k=rng.randint(1, 12))
        h.update(_parse_record("".join(pieces)).encode())
    assert h.hexdigest() == _PARSE_PIN_DIGEST


def test_parse_builds_no_token_and_at_most_a_span_per_node(monkeypatch):
    # the parser reads the lexer's columns: no Token is built, and a Span
    # only for a node, pattern, heaplet or layout signature that keeps one
    made = []

    def span(line, col):
        made.append((line, col))
        return Span(line, col)

    def token(*args):
        raise AssertionError(f"Token{args} built")

    monkeypatch.setattr(S, "Span", span)
    monkeypatch.setattr(S, "Token", token)
    for path in sorted(pathlib.Path(__file__).parent.rglob("*.pika")):
        made.clear()
        unit = S.parse_source(path.read_text())
        spans = sum(getattr(x, "span", None) is not None
                    for x in _unit_nodes(unit))
        assert 0 < len(made) <= spans, path.name
