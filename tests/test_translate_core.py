"""Tests for the branch discriminator and the core translation rules."""

import pathlib

import pytest

from pikac import errors as E
from pikac import ssl
from pikac import syntax as S
from pikac.syntax import parse_expr_text, parse_source
from pikac.translate import (
    CoreTranslationResult, cond, compile_directive, translate_expr_core,
    translate_fn_def_core, translate_layout_predicate,
)
from pikac.types import build_global_env, elaborate

HERE = pathlib.Path(__file__).parent

DEFS = """
data List := Nil | Cons Int List;
data Tree := Leaf | Node Int Tree Tree;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
TreeLayout : Tree >-> layout[x];
TreeLayout (Leaf) := emp;
TreeLayout (Node payload left right) := x :-> payload, (x+1) :-> left,
    (x+2) :-> right, TreeLayout left, TreeLayout right;

idf : List -> List;
idf (Nil) := lower Sll (Nil);
idf (Cons a b) := lower Sll (Cons a b);

recf : List -> List;
recf (Nil) := lower Sll (Nil);
recf (Cons a b) := lower Sll (Cons a (instantiate [Sll] Sll recf b));
"""


@pytest.fixture(scope="module")
def genv():
    return build_global_env(parse_source(DEFS))


# -- cond --

def test_cond_empty_branch(genv):
    assert cond(genv.layouts["Sll"], "Nil") == \
        ssl.PEq(ssl.PVar("x"), ssl.PInt(0))


def test_cond_non_empty_branch(genv):
    assert cond(genv.layouts["Sll"], "Cons") == \
        ssl.PNot(ssl.PEq(ssl.PVar("x"), ssl.PInt(0)))


def test_cond_tree_leaf(genv):
    assert cond(genv.layouts["TreeLayout"], "Leaf") == \
        ssl.PEq(ssl.PVar("x"), ssl.PInt(0))


def test_cond_no_such_branch(genv):
    with pytest.raises(E.NoSuchBranch):
        cond(genv.layouts["Sll"], "Leaf")


def test_cond_ambiguous_branches():
    env = build_global_env(parse_source("""
data Pair := A Int | B Int;
PairLayout : Pair >-> layout[x];
PairLayout (A v) := x :-> v;
PairLayout (B v) := x :-> v;
"""))
    with pytest.raises(E.AmbiguousBranches):
        cond(env.layouts["PairLayout"], "A")


# -- expression translation --

def test_core_int_literal(genv):
    res = translate_expr_core(genv, S.IntLit(7))
    assert res.spatial == ()
    assert res.pure == (ssl.PEq(ssl.PVar(res.result_var), ssl.PInt(7)),)


def test_core_lower_constructor_with_free_tail(genv):
    e = parse_expr_text("lower Sll (Cons 5 t)")
    res = translate_expr_core(genv, e, free_vars={"t"})
    root = res.result_var
    cells = [h for h in res.spatial if isinstance(h, ssl.PointsTo)]
    assert len(cells) == 2
    head_cell = next(c for c in cells if c.offset == 0)
    tail_cell = next(c for c in cells if c.offset == 1)
    assert head_cell.base == root and tail_cell.base == root
    # the head cell holds the literal's value variable, constrained to 5
    assert isinstance(head_cell.value, ssl.PVar)
    assert ssl.PEq(head_cell.value, ssl.PInt(5)) in res.pure
    assert tail_cell.value == ssl.PVar("t")
    # the free tail keeps its structure description
    assert ssl.PredApply("Sll", (ssl.PVar("t"),)) in res.spatial


def test_core_lower_drops_layout_apply_for_bound_fields(genv):
    e = parse_expr_text("lower Sll (Cons 5 (lower Sll (Nil)))")
    res = translate_expr_core(genv, e)
    assert not any(isinstance(h, ssl.PredApply) for h in res.spatial)


def test_core_inst_var_emits_predicate(genv):
    e = parse_expr_text("instantiate [Sll] Sll recf v")
    res = translate_expr_core(genv, e, free_vars={"v"})
    assert res.pure == ()
    assert len(res.spatial) == 1
    pred = res.spatial[0]
    assert isinstance(pred, ssl.PredApply)
    assert pred.name == "recf__rw_Sll__ro_Sll"
    assert pred.args == (ssl.PVar("v"), ssl.PVar(res.result_var))


def test_core_nested_inst_chains(genv):
    e = parse_expr_text(
        "instantiate [Sll] Sll recf (instantiate [Sll] Sll idf v)")
    res = translate_expr_core(genv, e, free_vars={"v"})
    preds = [h for h in res.spatial if isinstance(h, ssl.PredApply)]
    assert len(preds) == 2
    inner = next(p for p in preds if p.name.startswith("idf"))
    outer = next(p for p in preds if p.name.startswith("recf"))
    # the inner result variable feeds the outer application
    assert inner.args[1] == outer.args[0]
    assert outer.args[1] == ssl.PVar(res.result_var)


def test_core_inst_on_constructor_unfolds_definition(genv):
    e = parse_expr_text(
        "instantiate [Sll] Sll idf (lower Sll (Cons 3 (lower Sll (Nil))))")
    res = translate_expr_core(genv, e)
    # the definition body is unfolded in place of a predicate application
    assert not any(isinstance(h, ssl.PredApply) for h in res.spatial)
    cells = [h for h in res.spatial if isinstance(h, ssl.PointsTo)]
    assert {(c.base, c.offset) for c in cells} == \
        {(res.result_var, 0), (res.result_var, 1)}


def test_core_unsupported_constructs(genv):
    for text in ["let a := 1 in a", "if true then 1 else 2", "1 - 2"]:
        with pytest.raises(E.UnsupportedConstruct):
            translate_expr_core(genv, parse_expr_text(text))


def test_core_deterministic(genv):
    e = parse_expr_text("lower Sll (Cons 1 (lower Sll (Cons 2 (lower Sll (Nil)))))")
    a = translate_expr_core(genv, e)
    b = translate_expr_core(genv, e)
    assert a == b


def test_core_total_on_generated(genv):
    from pikac.modelcheck import CoreSignature, gen_core_expr
    sig = CoreSignature.from_env(genv)
    for seed in range(100):
        e = gen_core_expr(sig, seed, budget=10)
        res = translate_expr_core(genv, e)
        assert res.result_var


def _as_predicate(res, result_var):
    """A one-branch predicate with the result as its only parameter, so that
    ``structural_equiv`` pins the result and renames the rest."""
    body = ssl.SslAssertion.make(res.pure, res.spatial)
    return ssl.PredicateDef("p", ((result_var, "loc"),),
                            (ssl.Branch(ssl.TRUE, body),))


@pytest.mark.parametrize("budget, seeds", [(12, range(200)), (48, range(50))])
def test_core_targeted_result_is_the_renamed_translation(budget, seeds):
    from pikac.modelcheck import CoreSignature, gen_core_expr
    genv = build_global_env(parse_source(
        (HERE / "corpus" / "soundness_sig.pika").read_text()))
    sig = CoreSignature.from_env(genv)
    for seed in seeds:
        e = gen_core_expr(sig, seed, budget)
        targeted = translate_expr_core(genv, e, result_var="r0")
        assert targeted.result_var == "r0"
        plain = translate_expr_core(genv, e)
        ren = {plain.result_var: ssl.PVar("r0")}
        renamed = CoreTranslationResult(
            tuple(ssl.subst(p, ren) for p in plain.pure),
            tuple(ssl.subst(h, ren) for h in plain.spatial),
            plain.used_vars, plain.result_var)
        assert ssl.structural_equiv(_as_predicate(targeted, "r0"),
                                    _as_predicate(renamed, "r0")), seed


@pytest.mark.parametrize("text", ["v", "lower Sll v"])
def test_core_seed_variable_result_is_not_retargeted(genv, text):
    with pytest.raises(E.UnsupportedConstruct,
                       match="cannot retarget a seed variable result"):
        translate_expr_core(genv, parse_expr_text(text), free_vars={"v"},
                            result_var="r0")


# -- function definition translation --

def test_fndef_identity_restates_cells_at_result(genv):
    pred = translate_fn_def_core(genv, "idf", genv.layouts["Sll"],
                                 S.NamedLayout("Sll"))
    assert [s for _, s in pred.params] == ["loc", "loc"]
    nil, cons = pred.branches
    assert nil.cond == ssl.PEq(ssl.PVar("x"), ssl.PInt(0))
    assert nil.body == ssl.SslAssertion.make((), ())
    assert cons.cond == ssl.PNot(ssl.PEq(ssl.PVar("x"), ssl.PInt(0)))
    cells = [h for h in cons.body.spatial if isinstance(h, ssl.PointsTo)]
    assert {(c.base, c.offset) for c in cells} == {("r", 0), ("r", 1)}


def test_fndef_recursive_case_applies_predicate(genv):
    pred = translate_fn_def_core(genv, "recf", genv.layouts["Sll"],
                                 S.NamedLayout("Sll"))
    nil, cons = pred.branches
    rec = [h for h in cons.body.spatial if isinstance(h, ssl.PredApply)]
    assert len(rec) == 1
    assert rec[0].name == pred.name
    # applied to the fresh pattern variable for the tail
    assert rec[0].args[0] == ssl.PVar("p2")


# -- layout predicates --

def test_layout_predicate_matches_reference_shape(genv):
    pred = translate_layout_predicate(genv.layouts["Sll"])
    ref = ssl.parse_predicate("""
predicate Sll(loc x) {
| x == 0 => { emp }
| not (x == 0) => { [x, 2] ** x :-> v ** (x+1) :-> nxt ** Sll(nxt) }
}""")
    assert ssl.structural_equiv(pred, ref)


def test_layout_predicate_tree(genv):
    pred = translate_layout_predicate(genv.layouts["TreeLayout"])
    leaf, node = pred.branches
    assert ssl.Block("x", 3) in node.body.spatial
    recs = [h for h in node.body.spatial if isinstance(h, ssl.PredApply)]
    assert len(recs) == 2


def test_layout_predicate_degenerate_single_branch():
    env = build_global_env(parse_source("""
data Unit := MkUnit;
UnitLayout : Unit >-> layout[x];
UnitLayout (MkUnit) := emp;
"""))
    pred = translate_layout_predicate(env.layouts["UnitLayout"])
    assert len(pred.branches) == 1
    assert pred.branches[0].cond == ssl.TRUE
    assert pred.branches[0].body == ssl.SslAssertion.make((), ())


# -- pipeline/core agreement --

def _strip_production_extras(pred, arg_roots):
    """Drop destructuring cells, blocks, and null refinements so the
    production body can be compared against the core translation."""
    branches = []
    for b in pred.branches:
        spatial = tuple(
            h for h in b.body.spatial
            if not isinstance(h, ssl.Block)
            and not (isinstance(h, ssl.PointsTo) and h.base in arg_roots))
        pure = tuple(p for p in b.body.pure
                     if not (isinstance(p, ssl.PEq)
                             and p.rhs == ssl.PInt(0)))
        branches.append(ssl.Branch(b.cond,
                                   ssl.SslAssertion.make(pure, spatial)))
    return ssl.PredicateDef(pred.name, pred.params, tuple(branches))


def test_pipeline_core_agreement():
    src = DEFS + "%generate recf [Sll] Sll\n"
    unit = parse_source(src)
    genv = build_global_env(unit)
    prog = elaborate(unit)
    production = compile_directive(prog, "recf").predicate
    core = translate_fn_def_core(genv, "recf", genv.layouts["Sll"],
                                 S.NamedLayout("Sll"))
    stripped = _strip_production_extras(production, {"__p_x0"})
    core_stripped = _strip_production_extras(core, {"x"})
    assert ssl.structural_equiv(stripped, core_stripped)
