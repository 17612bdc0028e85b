"""Edge-case regressions across the pipeline surface."""

import random

from hypothesis import given, strategies as st

from pikac import cli, ssl
from pikac.syntax import parse_source
from pikac.translate import compile_directive
from pikac.types import elaborate


def compile_src(src, fn):
    prog = elaborate(parse_source(src))
    return compile_directive(prog, fn)


def test_zero_argument_function():
    res = compile_src("""
%generate five [] Int
five : Int;
five := 5;
""", "five")
    assert res.predicate.params == (("__r", "int"),)
    (branch,) = res.predicate.branches
    assert branch.cond == ssl.TRUE
    assert branch.body.pure == (ssl.PEq(ssl.PVar("__r"), ssl.PInt(5)),)
    text = ssl.emit_goal_spec(res.goal)
    assert "void five(loc r)" in text and "{ r :-> 0 }" in text


def test_bool_result_with_disjunction():
    res = compile_src("""
%generate flag [Int, Int] Bool
flag : Int -> Int -> Bool;
flag a b := a == 0 || b < 3;
""", "flag")
    assert res.predicate.params[-1] == ("__r", "int")
    (branch,) = res.predicate.branches
    (eq,) = branch.body.pure
    # disjunction is emitted through conjunction and negation
    assert isinstance(eq.rhs, ssl.PNot)
    assert isinstance(eq.rhs.arg, ssl.PAnd)


def test_mutable_argument_destructures_fully():
    res = compile_src("""
%generate heads [ListOfListsLayout[mutable]] Sll
data List := Nil | Cons Int List;
data ListOfLists := LNil | LCons List ListOfLists;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
ListOfListsLayout : ListOfLists >-> layout[x];
ListOfListsLayout (LNil) := emp;
ListOfListsLayout (LCons head tail) := x :-> head, (x+1) :-> tail,
  ListOfListsLayout tail, Sll head;
car : List -> Int;
heads : ListOfLists -> List;
heads (LNil) := Nil;
heads (LCons xs xss) := Cons (instantiate [Sll] Int car xs) (heads xss);
""", "heads")
    assert res.predicate.name == "heads__rw_Sll__rw_ListOfListsLayout"
    cons = next(b for b in res.predicate.branches if b.ctor == "LCons")
    cells = [h for h in cons.body.spatial if isinstance(h, ssl.PointsTo)
             and h.base == "__p_x0"]
    assert len(cells) == 2
    # the inner list still carries a read-only view for the consuming call
    assert ssl.RoApply("ro_Sll", (ssl.PVar("xs"),)) in cons.body.spatial


def test_guard_only_function_with_modulo():
    res = compile_src("""
%generate parity [Int] Int
parity : Int -> Int;
parity n
  | (n % 2) == 0 := 0;
  | not ((n % 2) == 0) := 1;
""", "parity")
    conds = [b.cond for b in res.predicate.branches]
    assert conds[0] == ssl.PEq(ssl.PMod(ssl.PVar("__p_0"), ssl.PInt(2)),
                               ssl.PInt(0))


def test_deep_nesting_is_a_diagnostic(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIKA_COLOR", "0")
    deep = tmp_path / "deep.pika"
    deep.write_text("%generate plus [Int, Int] Int\n"
                    "plus : Int -> Int -> Int;\n"
                    "plus x y := " + "(" * 3000 + "x" + ")" * 3000 + " + y;\n")
    code = cli.main(["compile", str(deep), "--stdout"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error[P-NESTING]: input nested too deeply")
    assert "recursion limit" in err and "Traceback" not in err


# -- renaming invariance of the equivalence checker --

GOLD = """
predicate p__rw_Sll__ro_Sll(loc a0, loc a1) {
| (a0 == 0) => { a1 == 0 ; emp }
| (not (a0 == 0)) => {
  a0 :-> h ** (a0+1) :-> t ** [a0,2] **
  p__rw_Sll__ro_Sll(t, m) **
  a1 :-> h ** (a1+1) :-> m ** [a1,2] }
}
"""


def _rename_predicate(pred, mapping):
    def fix_pure(t):
        if isinstance(t, ssl.PVar):
            return ssl.PVar(mapping.get(t.name, t.name))
        if isinstance(t, (ssl.PInt, ssl.PBool)):
            return t
        if isinstance(t, ssl.PNot):
            return ssl.PNot(fix_pure(t.arg))
        if isinstance(t, ssl.PTernary):
            return ssl.PTernary(fix_pure(t.cond), fix_pure(t.then),
                                fix_pure(t.els))
        return type(t)(fix_pure(t.lhs), fix_pure(t.rhs))

    def fix(h):
        if isinstance(h, ssl.PointsTo):
            return ssl.PointsTo(mapping.get(h.base, h.base), h.offset,
                                fix_pure(h.value))
        if isinstance(h, ssl.Block):
            return ssl.Block(mapping.get(h.base, h.base), h.size)
        if isinstance(h, ssl.PredApply):
            return ssl.PredApply(h.name, tuple(map(fix_pure, h.args)))
        if isinstance(h, ssl.FuncApply):
            return ssl.FuncApply(h.name, tuple(map(fix_pure, h.args)))
        if isinstance(h, ssl.RoApply):
            return ssl.RoApply(h.name, tuple(map(fix_pure, h.args)))
        if isinstance(h, ssl.TempLoc):
            return ssl.TempLoc(mapping.get(h.var, h.var))
        return h

    branches = tuple(
        ssl.Branch(fix_pure(b.cond),
                   ssl.SslAssertion.make(tuple(map(fix_pure, b.body.pure)),
                                         tuple(map(fix, b.body.spatial))),
                   ctor=b.ctor)
        for b in pred.branches)
    params = tuple((mapping.get(n, n), s) for n, s in pred.params)
    return ssl.PredicateDef(pred.name, params, branches)


@given(st.randoms(use_true_random=False))
def test_structural_equiv_invariant_under_bijections(rng):
    pred = ssl.parse_predicate(GOLD)
    names = sorted({"a0", "a1", "h", "t", "m"})
    targets = [f"w{i}" for i in range(len(names))]
    rng.shuffle(targets)
    mapping = dict(zip(names, targets))
    renamed = _rename_predicate(pred, mapping)
    assert ssl.structural_equiv(pred, renamed)
    assert ssl.structural_equiv(renamed, pred)


@given(st.integers(0, 6))
def test_structural_equiv_detects_dropped_heaplet(idx):
    pred = ssl.parse_predicate(GOLD)
    target = pred.branches[1]
    if idx >= len(target.body.spatial):
        return
    spatial = target.body.spatial[:idx] + target.body.spatial[idx + 1:]
    mutated = ssl.PredicateDef(
        pred.name, pred.params,
        (pred.branches[0],
         ssl.Branch(target.cond,
                    ssl.SslAssertion.make(target.body.pure, spatial),
                    ctor=target.ctor)))
    assert not ssl.structural_equiv(pred, mutated)


def test_structural_equiv_branch_shuffle():
    pred = ssl.parse_predicate(GOLD)
    shuffled = ssl.PredicateDef(pred.name, pred.params,
                                tuple(reversed(pred.branches)))
    assert ssl.structural_equiv(pred, shuffled)
