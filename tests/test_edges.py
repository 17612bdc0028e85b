"""Edge-case regressions across the pipeline surface."""

import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pikac import cli, ssl
from pikac.errors import PikaError
from pikac.syntax import KEYWORDS, lex, parse_source
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
    nil, cons = res.predicate.branches
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


def test_nesting_under_the_stated_depth_compiles(tmp_path):
    # a fresh process, as a user runs it; the diagnostic states the depth
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}

    def compile_nested(levels):
        path = tmp_path / f"nested{levels}.pika"
        path.write_text("%generate plus [Int, Int] Int\n"
                        "plus : Int -> Int -> Int;\n"
                        "plus x y := " + "(" * levels + "x" + ")" * levels
                        + " + y;\n")
        return subprocess.run(
            [sys.executable, "-m", "pikac.cli", "compile", str(path),
             "--stdout"], env=env, capture_output=True, text=True, timeout=60)

    deep = compile_nested(3000)
    assert deep.returncode == 1, deep.stderr
    stated = int(re.search(r"about (\d+) levels", deep.stderr).group(1))
    # the frames below the parser take the few levels "about" allows for
    under = compile_nested(stated - 10)
    assert under.returncode == 0, under.stderr
    assert under.stdout.startswith("predicate ")


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
                                         tuple(map(fix, b.body.spatial))))
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
                    ssl.SslAssertion.make(target.body.pure, spatial))))
    assert not ssl.structural_equiv(pred, mutated)


def test_structural_equiv_branch_shuffle():
    pred = ssl.parse_predicate(GOLD)
    shuffled = ssl.PredicateDef(pred.name, pred.params,
                                tuple(reversed(pred.branches)))
    assert ssl.structural_equiv(pred, shuffled)


# token-level mutations of the corpus end in a diagnostic, never a crash

_CORPUS_TOKENS = [
    [t.text for t in lex(p.read_text())]
    for p in sorted(pathlib.Path(__file__).parent.joinpath("corpus")
                    .glob("*.pika"))]
_ALPHABET = sorted(KEYWORDS) + [
    "x", "Nil", "Cons", "Int", "Bool", "Ptr", "0", "7", "-1", "%generate",
    ":->", ":=>", ">->", "->", ":=", "==", "&&", "||", "%", "+", "-", "<",
    "|", ":", ";", ",", "(", ")", "[", "]", "{", "}"]


@st.composite
def _mutated_source(draw):
    texts = list(draw(st.sampled_from(_CORPUS_TOKENS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(texts) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "insert"]))
        if op == "delete":
            del texts[i]
        elif op == "duplicate":
            texts.insert(i, texts[i])
        elif op == "swap":
            j = draw(st.integers(0, len(texts) - 1))
            texts[i], texts[j] = texts[j], texts[i]
        else:
            texts.insert(i, draw(st.sampled_from(_ALPHABET)))
    return " ".join(texts)


@settings(max_examples=200, deadline=None)
@given(_mutated_source())
def test_token_mutations_end_in_a_diagnostic(src):
    try:
        unit = parse_source(src)
        prog = elaborate(unit)
        for directive in unit.directives:
            compile_directive(prog, directive.fn)
    except PikaError:
        pass


_SLL_PROGRAM = """%generate mk [Sll] Sll
data List := Nil | Cons Int List;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
"""
_MK = """
mk : List -> List;
mk (Nil) := Nil;
mk (Cons head tail) := Cons ({call}) (mk tail);
"""
_MK_HEAD = ("| (not (__p_x0 == 0)) => { __p_x0 :-> head ** (__p_x0+1) :-> "
            "tail ** [__p_x0,2] ** ")


@pytest.mark.parametrize("helper, call, branch", [
    # a disjunction in an inlined helper, emitted as not (not a && not b)
    ("pick : Int -> Int;\n"
     "pick n := if (n < 3) || (9 < n) then 1 else 0;", "pick head",
     "mk__rw_Sll__ro_Sll(tail, __p_x1) ** __r_x :-> ((not ((not (head < 3)) "
     "&& (not (9 < head)))) ? 1 : 0) ** (__r_x+1) :-> __p_x1 ** [__r_x,2] }"),
    ("pick : Int -> Int;\n"
     "pick n := if (n < 3) && (9 < n) then 1 else 0;", "pick head",
     "mk__rw_Sll__ro_Sll(tail, __p_x1) ** __r_x :-> (((head < 3) && "
     "(9 < head)) ? 1 : 0) ** (__r_x+1) :-> __p_x1 ** [__r_x,2] }"),
    # a call argument emits one func heaplet however often its parameter
    # occurs in the inlined body
    ("twice : Int -> Int -> Int;\ntwice a b := a + a + b;\n"
     "sz : List -> Int;", "twice (sz tail) head",
     "ro_Sll(tail) ** func sz__Int__ro_Sll(tail, __p_1) ** "
     "mk__rw_Sll__ro_Sll(tail, __p_x2) ** __r_x :-> ((__p_1 + __p_1) + "
     "head) ** (__r_x+1) :-> __p_x2 ** [__r_x,2] }"),
], ids=["or", "and", "call-argument-twice"])
def test_inlined_helper_in_value_position(tmp_path, capsys, helper, call,
                                          branch):
    src = tmp_path / "mk.pika"
    src.write_text(_SLL_PROGRAM + helper + _MK.format(call=call))
    code = cli.main(["compile", "--stdout", str(src)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert _MK_HEAD + branch in out.splitlines()


@pytest.mark.parametrize("name, fn", [
    ("singleton", "singleton"), ("snoc", "snoc"), ("scanr", "scanr")])
def test_stages_show_a_nested_null_pointer(capsys, name, fn):
    corpus = pathlib.Path(__file__).parent / "corpus"
    code = cli.main(["stages", str(corpus / f"{name}.pika"), fn])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    stage2 = out.split("2. Unfold empty constructors.\n")[1].split("\n\n")[0]
    assert "(Cons __p_" in stage2 and " 0)" in stage2
