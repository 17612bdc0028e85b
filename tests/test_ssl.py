"""SSL IR tests: assertion algebra, emission, parsing, and equivalence."""

import contextlib
import hashlib
import io
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from pikac import cli, ssl
from pikac.errors import ParseError

GOLDEN = sorted(pathlib.Path(__file__).parent.joinpath("golden").glob("*.sus"))


def A(pure=(), spatial=()):
    return ssl.SslAssertion.make(tuple(pure), tuple(spatial))


EMPTY = A()


def test_otimes_identity():
    assert ssl.conj_otimes(EMPTY, EMPTY) == EMPTY


def test_otimes_unit_laws():
    a = A(pure=[ssl.PEq(ssl.PVar("v"), ssl.PInt(7))])
    b = A(spatial=[ssl.PointsTo("x", 0, ssl.PVar("v"))])
    combined = ssl.conj_otimes(a, b)
    assert combined.pure == a.pure
    assert combined.spatial == b.spatial


def test_make_drops_exactly_true_conjuncts_and_emp_heaplets():
    t, f, one = ssl.PBool(True), ssl.PBool(False), ssl.PInt(1)
    eq = ssl.PEq(ssl.PVar("a"), one)
    nested = (ssl.PNot(ssl.TRUE), ssl.PAnd(ssl.TRUE, ssl.TRUE),
              ssl.PEq(ssl.TRUE, ssl.TRUE))
    cell, temp = ssl.PointsTo("x", 0, ssl.TRUE), ssl.TempLoc("y")
    a = ssl.SslAssertion.make((t, eq, f, ssl.TRUE, one) + nested,
                              (ssl.HeapEmp(), cell, ssl.HeapEmp(), temp))
    assert a.pure == (eq, f, one) + nested
    assert a.spatial == (cell, temp)
    assert ssl.SslAssertion.make((t,), (ssl.HeapEmp(),)) == EMPTY
    # pand_all and conjuncts drop the same conjuncts
    assert ssl.pand_all([t, eq, f, ssl.TRUE]) == ssl.PAnd(eq, f)
    assert ssl.pand_all([t]) == ssl.TRUE
    assert ssl.conjuncts(ssl.PAnd(t, ssl.PAnd(eq, ssl.PAnd(f, t)))) == [eq, f]
    assert ssl.conjuncts(t) == [] and ssl.conjuncts(f) == [f]


def test_otimes_general():
    a = A(pure=[ssl.PEq(ssl.PVar("v"), ssl.PInt(1))],
          spatial=[ssl.PointsTo("x", 0, ssl.PVar("v"))])
    b = A(pure=[ssl.PLt(ssl.PVar("v"), ssl.PVar("w"))],
          spatial=[ssl.PointsTo("y", 0, ssl.PVar("w"))])
    combined = ssl.conj_otimes(a, b)
    assert combined.pure == a.pure + b.pure
    assert combined.spatial == a.spatial + b.spatial


_vars = st.sampled_from(["a", "b", "c", "d"])
_pures = st.builds(ssl.PEq, _vars.map(ssl.PVar),
                   st.integers(0, 5).map(ssl.PInt))
_cells = st.builds(lambda base, off, v: ssl.PointsTo(base, off, ssl.PInt(v)),
                   st.sampled_from(["p", "q", "r", "s"]),
                   st.integers(0, 3), st.integers(0, 5))


def _assertions():
    return st.builds(
        lambda pure, cells: ssl.SslAssertion.make(
            tuple(pure),
            tuple({(c.base, c.offset): c for c in cells}.values())),
        st.lists(_pures, max_size=3), st.lists(_cells, max_size=3))


@given(_assertions(), _assertions(), _assertions())
def test_otimes_associative(a, b, c):
    try:
        left = ssl.conj_otimes(ssl.conj_otimes(a, b), c)
        right = ssl.conj_otimes(a, ssl.conj_otimes(b, c))
    except ValueError:
        return    # duplicate cells across operands: not a valid composition
    assert sorted(map(repr, left.pure)) == sorted(map(repr, right.pure))
    assert sorted(map(repr, left.spatial)) == sorted(map(repr, right.spatial))


@given(_assertions())
def test_otimes_two_sided_identity(a):
    assert ssl.conj_otimes(a, EMPTY) == a
    assert ssl.conj_otimes(EMPTY, a) == a


# pure terms over every term kind the emitted syntax has; names avoid the
# words the parser reads as literals (true, false, not, null)
_terms = st.recursive(
    st.one_of(st.integers(-9, 9).map(ssl.PInt), st.booleans().map(ssl.PBool),
              st.sampled_from(["x", "y", "a0", "nxt"]).map(ssl.PVar)),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from([ssl.PEq, ssl.PAnd, ssl.PLt, ssl.PAdd,
                                   ssl.PSub, ssl.PMod]), sub, sub)
        .map(lambda t: t[0](t[1], t[2])),
        sub.map(ssl.PNot),
        st.tuples(sub, sub, sub).map(lambda t: ssl.PTernary(*t))),
    max_leaves=12)


@given(_terms)
def test_render_pure_parses_back(t):
    parser = ssl._SusParser(ssl.render_pure(t, True))
    assert parser.parse_pure() == t
    assert parser.peek() is None


def test_emit_singleton_listing():
    pred = ssl.PredicateDef(
        "singleton", (("p", "int"), ("r", "loc")),
        (ssl.Branch(ssl.TRUE, A(spatial=[
            ssl.PointsTo("r", 0, ssl.PVar("p")),
            ssl.PointsTo("r", 1, ssl.PInt(0)),
            ssl.Block("r", 2)])),))
    text = ssl.emit_predicate(pred)
    assert "predicate singleton(int p, loc r)" in text
    assert "{ r :-> p ** (r+1) :-> 0 ** [r,2] }" in text


def test_emit_fold_parameter_list():
    pred = ssl.PredicateDef(
        "fold_List", (("i1", "int"), ("x", "loc"), ("i2", "int")),
        (ssl.Branch(ssl.TRUE, EMPTY),))
    assert ssl.emit_predicate(pred).startswith(
        "predicate fold_List(int i1, loc x, int i2)")


def test_emit_true_emp_branch():
    pred = ssl.PredicateDef("p", (("x", "loc"),),
                            (ssl.Branch(ssl.TRUE, EMPTY),))
    assert "| true => { emp }" in ssl.emit_predicate(pred)


def test_emit_goal_spec_shape():
    goal = ssl.GoalSpec(
        "filterLt9", (("loc", "x1"), ("loc", "r")),
        A(spatial=[ssl.PredApply("Sll", (ssl.PVar("x1"),)),
                   ssl.PointsTo("r", 0, ssl.PInt(0))]),
        A(spatial=[ssl.PredApply("filterLt9", (ssl.PVar("x1"), ssl.PVar("r0"))),
                   ssl.PointsTo("r", 0, ssl.PVar("r0"))]))
    text = ssl.emit_goal_spec(goal)
    assert "void filterLt9(loc x1, loc r)" in text
    assert "{ Sll(x1) ** r :-> 0 }" in text
    assert "{ filterLt9(x1, r0) ** r :-> r0 }" in text
    assert "{ ?? }" in text


def test_emit_goal_spec_map_shape():
    goal = ssl.GoalSpec(
        "mapAdd1", (("loc", "x"), ("loc", "y")),
        A(spatial=[ssl.PredApply("sll", (ssl.PVar("x"),)),
                   ssl.PointsTo("y", 0, ssl.PInt(0))]),
        A(spatial=[ssl.PointsTo("y", 0, ssl.PVar("r")),
                   ssl.PredApply("mapAdd1", (ssl.PVar("x"), ssl.PVar("r")))]))
    text = ssl.emit_goal_spec(goal)
    assert "{ sll(x) ** y :-> 0 }" in text
    assert "{ y :-> r ** mapAdd1(x, r) }" in text


def test_emit_goal_spec_degenerate():
    goal = ssl.GoalSpec("f", (("loc", "output"),),
                        A(spatial=[ssl.PointsTo("output", 0, ssl.PInt(0))]),
                        A(spatial=[ssl.PointsTo("output", 0, ssl.PVar("r0"))]))
    text = ssl.emit_goal_spec(goal)
    assert text.startswith("void f(loc output)")
    assert "{ output :-> 0 }" in text


def test_goal_round_trip():
    goal = ssl.GoalSpec(
        "f", (("loc", "x1"), ("loc", "r")),
        A(spatial=[ssl.PredApply("Sll", (ssl.PVar("x1"),)),
                   ssl.PointsTo("r", 0, ssl.PInt(0))]),
        A(spatial=[ssl.PredApply("f", (ssl.PVar("x1"), ssl.PVar("r0"))),
                   ssl.PointsTo("r", 0, ssl.PVar("r0"))]))
    back = ssl.parse_goal_spec(ssl.emit_goal_spec(goal))
    assert ssl.goal_structural_equiv(goal, back)


def test_structural_equiv_renaming():
    a = ssl.parse_predicate("""
predicate singleton(int p, loc r) {
| true => { r :-> p ** (r+1) :-> 0 ** [r,2] }
}""")
    b = ssl.parse_predicate("""
predicate singleton(int p, loc __r_x) {
| true => { __r_x :-> p ** (__r_x+1) :-> 0 ** [__r_x,2] }
}""")
    assert ssl.structural_equiv(a, b)


def test_structural_equiv_requires_injective_renaming():
    a = ssl.parse_predicate("""
predicate p(loc x) {
| true => { x :-> a ** (x+1) :-> b }
}""")
    b = ssl.parse_predicate("""
predicate p(loc x) {
| true => { x :-> c ** (x+1) :-> c }
}""")
    assert not ssl.structural_equiv(a, b)


def test_structural_equiv_branch_count():
    a = ssl.parse_predicate(
        "predicate p(loc x) { | true => { emp } }")
    b = ssl.parse_predicate(
        "predicate p(loc x) { | x == 0 => { emp } | true => { emp } }")
    assert not ssl.structural_equiv(a, b)


def test_structural_equiv_parameter_order_significant():
    a = ssl.parse_predicate(
        "predicate p(loc x, int i) { | true => { x :-> i } }")
    b = ssl.parse_predicate(
        "predicate p(int i, loc x) { | true => { x :-> i } }")
    assert not ssl.structural_equiv(a, b)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_emit_reparse_idempotent_on_golden(path):
    pred = ssl.parse_predicate(path.read_text())
    again = ssl.parse_predicate(ssl.emit_predicate(pred))
    assert ssl.structural_equiv(pred, again)
    assert ssl.structural_equiv(again, pred)


def test_structural_equiv_is_equivalence_on_golden():
    preds = [ssl.parse_predicate(p.read_text()) for p in GOLDEN]
    for p in preds:
        assert ssl.structural_equiv(p, p)
    # distinct golden predicates describe distinct functions
    for i, p in enumerate(preds):
        for q in preds[i + 1:]:
            if ssl.structural_equiv(p, q):
                assert ssl.structural_equiv(q, p)


def test_duplicate_points_to_rejected():
    with pytest.raises(ValueError):
        ssl.SslAssertion((), (ssl.PointsTo("x", 0, ssl.PInt(1)),
                              ssl.PointsTo("x", 0, ssl.PInt(2))))


@pytest.mark.parametrize("text, message, span", [
    ("predicate p(foo x) { }", "unknown parameter sort 'foo'", (1, 13)),
    ("predicate p(loc x", "expected ')', found 'EOF'", (1, 17)),
    ("predicate p(loc x) { | x == (1 +", "unexpected end of SSL input",
     (1, 32)),
    ("predicate p(loc x) { | true => { x :-> 1 **",
     "unexpected end of SSL input", (1, 42)),
])
def test_parse_errors_have_a_position(text, message, span):
    with pytest.raises(ParseError) as info:
        ssl.parse_sus_file(text)
    assert (info.value.message, info.value.span) == (message, span)


def test_every_cut_of_a_predicate_is_a_positioned_parse_error():
    text = ("predicate p(loc x) { | not (x == 0) => { x :-> 1 ** "
            "(x+1) :-> (y + 2) ** p(y) ** [x, 2] ** func f(x) ** temploc t } }")
    for cut in range(1, len(text)):
        with pytest.raises(ParseError) as info:
            ssl.parse_sus_file(text[:cut])
        assert info.value.span is not None, text[:cut]


def test_empty_predicate_text_is_an_error_at_its_start():
    with pytest.raises(ParseError) as info:
        ssl.parse_predicate("")
    assert info.value.span == (1, 1)


# -- pinned parse behaviour --------------------------------------------------
# One digest over what the SSL re-parser makes of the golden references, of
# the text `pikac compile --stdout --emit-goal-spec` emits for every source
# with a directive, and of seeded mutants of them: cuts, inserted
# characters, and text after the last '}'.

_SOURCES = sorted(p for p in pathlib.Path(__file__).parent.rglob("*.pika")
                  if "%generate" in p.read_text())
_INSERTS = "(){}[],;|?:+-%<*=&>!@$.\"'x0_ \n#/^~é"
_TRAILERS = (" garbage here (", " }", "}", " x", " 1", " **", " predicate",
             " | true => { emp }", " { ?? }", " void", " // note", " # note",
             "\n\n", "@")
_SUS_PIN_DIGEST = (
    "b1cd833b2fd261bf9702946d880669633b596a6e7114d2af6dda53ddd29a23dd")


def _sus_record(parse, text: str) -> str:
    try:
        return f"{parse(text)!r}\n"
    except ParseError as exc:
        return f"ParseError {exc.message!r} {tuple(exc.span)}\n"


def _emitted(path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(["compile", str(path), "--stdout", "--emit-goal-spec"])
    return out.getvalue()


def _mutants(rng: random.Random, text: str):
    for _ in range(8):
        yield text[:rng.randrange(len(text))]
    for _ in range(8):
        at = rng.randrange(len(text) + 1)
        yield text[:at] + rng.choice(_INSERTS) + text[at:]
    for trailer in _TRAILERS:
        yield text + trailer


def sus_pin_records():
    """``(label, record)`` for every input of the SSL parse pin."""
    rng = random.Random(15)
    emitted = [_emitted(p) for p in _SOURCES]
    def label(path):
        return f"{path.parent.name}/{path.stem}"

    for path in GOLDEN:
        yield label(path), _sus_record(ssl.parse_sus_file, path.read_text())
    for path, text in zip(_SOURCES, emitted):
        yield label(path), _sus_record(ssl.parse_sus_file, text)
    bases = [(ssl.parse_predicate, path, path.read_text()) for path in GOLDEN]
    bases += [(ssl.parse_goal_spec, p, "void" + t.rsplit("\nvoid", 1)[1])
              for p, t in zip(_SOURCES, emitted) if "\nvoid" in t]
    for parse, path, text in bases:
        for i, mutant in enumerate(_mutants(rng, text)):
            yield (f"{label(path)}/{parse.__name__}/{i}",
                   _sus_record(parse, mutant)
                   + _sus_record(ssl.parse_sus_file, mutant))


def test_sus_parse_is_pinned():
    h = hashlib.sha256()
    for _, record in sus_pin_records():
        h.update(record.encode())
    assert h.hexdigest() == _SUS_PIN_DIGEST


@pytest.mark.parametrize("parse, text, message, span", [
    (ssl.parse_predicate,
     "predicate p(loc x) { | true => { emp } } garbage here (",
     "trailing input 'garbage'", (1, 42)),
    (ssl.parse_goal_spec, "void f(loc x)\n{ emp }\n{ emp }\n{ ?? } }",
     "trailing input '}'", (4, 8)),
])
def test_trailing_input_is_an_error(parse, text, message, span):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.message, info.value.span) == (message, span)
