"""Model checker tests: pure evaluation, satisfaction, pairing, soundness."""

import hashlib
import pathlib
import random

import pytest

from pikac import errors as E
from pikac import ssl
from pikac.interp import BoolVal, IntVal, LocVal, Model, eval_expr
from pikac.modelcheck import (
    CoreSignature, PredicateEnv, Sat, Unknown, Unsat, build_predicate_env,
    check_otimes, check_soundness, eval_pure, eval_pure_bool, gen_core_expr,
    satisfies, shrink_core_expr, _item, _plans, _propagate, _Pure,
    _residual_groups,
)
from pikac import syntax as S
from pikac.syntax import parse_expr_text, parse_source
from pikac.translate import (
    compile_directive, translate_expr_core, translate_fn_def_core,
    translate_layout_predicate,
)
from pikac.types import build_global_env, elaborate, infer_expr

SIG = pathlib.Path(__file__).parent / "corpus" / "soundness_sig.pika"


@pytest.fixture(scope="module")
def genv():
    return build_global_env(parse_source(SIG.read_text()))


@pytest.fixture(scope="module")
def sig(genv):
    return CoreSignature.from_env(genv)


def P(text):
    """Parse a pure term via the predicate parser."""
    pred = ssl.parse_predicate(
        "predicate p(loc z) { | " + text + " => { emp } }")
    return pred.branches[0].cond


# -- pure evaluation --

def test_eval_pure_equality():
    assert eval_pure_bool({"r": IntVal(7)}, P("r == 7"))


def test_eval_pure_null_test():
    assert not eval_pure_bool({"x": IntVal(0)}, P("not (x == 0)"))


def test_eval_pure_ternary():
    binding = {"i": IntVal(3), "x": IntVal(5)}
    assert eval_pure_bool(binding, P("((i < x) ? x : i) == 5"))


def test_eval_pure_loc_equality_is_numeric():
    assert eval_pure_bool({"x": LocVal(5)}, P("x == 5"))
    assert not eval_pure_bool({"x": LocVal(5)}, P("x == 0"))


def test_eval_pure_unbound():
    with pytest.raises(E.UnboundVariable):
        eval_pure({}, ssl.PVar("missing"))


def test_eval_pure_sort_mismatch():
    with pytest.raises(E.SortMismatch):
        eval_pure({"b": IntVal(1)}, ssl.PNot(ssl.PVar("b")))


# -- satisfaction --

def _sll_env(genv):
    return PredicateEnv(
        {"Sll": translate_layout_predicate(genv.layouts["Sll"])})


def test_satisfies_pure_only(genv):
    model = Model({"r": IntVal(7)}, {})
    a = ssl.SslAssertion.make((P("r == 7"),), ())
    assert isinstance(satisfies(model, a, _sll_env(genv)), Sat)


def test_satisfies_null_encoded_list(genv):
    model = Model({"x": LocVal(5)}, {5: IntVal(1), 6: IntVal(0)})
    a = ssl.SslAssertion.make((), (ssl.PredApply("Sll", (ssl.PVar("x"),)),))
    assert isinstance(satisfies(model, a, _sll_env(genv)), Sat)


def test_satisfies_incomplete_heap_rejected(genv):
    model = Model({"x": LocVal(5)}, {5: IntVal(1)})
    a = ssl.SslAssertion.make((), (ssl.PredApply("Sll", (ssl.PVar("x"),)),))
    assert isinstance(satisfies(model, a, _sll_env(genv)), Unsat)


def test_satisfies_machine_built_list(genv):
    e = parse_expr_text("lower Sll (Cons 7 (lower Sll (Nil)))")
    val, store, heap, fs, r = eval_expr(genv, e)
    core = translate_expr_core(genv, e, result_var=r)
    env = build_predicate_env(genv, exprs=[e])
    assert isinstance(satisfies(Model(store, heap), core.assertion(), env),
                      Sat)


def test_satisfies_whole_heap_semantics(genv):
    e = parse_expr_text("lower Sll (Cons 7 (lower Sll (Nil)))")
    val, store, heap, fs, r = eval_expr(genv, e)
    core = translate_expr_core(genv, e, result_var=r)
    env = build_predicate_env(genv, exprs=[e])
    framed = dict(heap)
    framed[max(heap) + 17] = IntVal(99)
    result = satisfies(Model(store, framed), core.assertion(), env)
    assert isinstance(result, Unsat)


def test_satisfies_monotone_in_depth(genv):
    e = parse_expr_text(
        "instantiate [Sll] Sll incAll (lower Sll (Cons 1 (lower Sll "
        "(Cons 2 (lower Sll (Nil))))))")
    val, store, heap, fs, r = eval_expr(genv, e)
    core = translate_expr_core(genv, e, result_var=r)
    env = build_predicate_env(genv, exprs=[e])
    model = Model(store, heap)
    sat_depths = [d for d in range(1, 16)
                  if isinstance(satisfies(model, core.assertion(), env, d),
                                Sat)]
    assert sat_depths
    first = sat_depths[0]
    assert sat_depths == list(range(first, 16))


# -- soundness --

def test_soundness_addition(genv):
    assert isinstance(check_soundness(genv, parse_expr_text("3 + 4")).result,
                      Sat)


def test_soundness_four_cell_list(genv):
    e = parse_expr_text(
        "lower Sll (Cons 1 (lower Sll (Cons 2 (lower Sll (Nil)))))")
    report = check_soundness(genv, e)
    assert isinstance(report.result, Sat)
    assert len(report.model.heap) == 4


def test_soundness_single_case_function(genv):
    e = parse_expr_text("instantiate [Sll] Sll idList (lower Sll (Nil))")
    assert isinstance(check_soundness(genv, e).result, Sat)


def _drop_first_heaplet(env, fn, layout, result_ref):
    """The function translation with the first heaplet of each branch
    dropped: a broken translation the soundness suite must catch."""
    pred = translate_fn_def_core(env, fn, layout, result_ref)
    branches = []
    for b in pred.branches:
        spatial = b.body.spatial[1:] if b.body.spatial else ()
        branches.append(ssl.Branch(b.cond,
                                   ssl.SslAssertion.make(b.body.pure, spatial)))
    return ssl.PredicateDef(pred.name, pred.params, tuple(branches))


def test_soundness_detects_broken_translation(genv, monkeypatch):
    import pikac.modelcheck as mc

    monkeypatch.setattr(mc, "translate_fn_def_core", _drop_first_heaplet)
    e = parse_expr_text(
        "instantiate [Sll] Sll idList (instantiate [Sll] Sll idList "
        "(lower Sll (Cons 5 (lower Sll (Nil)))))")
    report = check_soundness(genv, e)
    assert not isinstance(report.result, Sat)
    assert report.trace


def test_giving_up_on_residual_existentials_is_not_unsat(sig, genv):
    # treeOf (leftSpine (treeOf [0,0,0,0])) leaves eight unbound existentials,
    # each alone in its constraint: solved one group at a time, it is Sat
    e = gen_core_expr(sig, 45, 48)
    assert isinstance(check_soundness(genv, e).result, Sat)


def test_budget_48_sweep_has_no_unsat(sig, genv):
    verdicts = {seed: check_soundness(genv, gen_core_expr(sig, seed, 48)).result
                for seed in range(300)}
    assert {s for s, r in verdicts.items() if not isinstance(r, Sat)} == set()


# sha256 over each verdict (reason included) and rendered assertion of the
# sweeps below; a change to the checker that moves any verdict or failure
# text changes the digest
_CHECKER_DIGEST = (
    "b701575e072b4e0d00bcd23097c4ee5c4046076cea95129c3699f56d75df188b")


def test_checker_verdicts_are_pinned(sig, genv, monkeypatch):
    import pikac.modelcheck as mc

    h = hashlib.sha256()

    def sweep(tag, budget, seeds):
        verdicts = []
        for seed in seeds:
            report = check_soundness(genv, gen_core_expr(sig, seed, budget))
            verdicts.append(report.result)
            h.update(f"{tag} {budget} {seed} {report.result!r}\n"
                     f"{ssl.render_assertion(report.assertion)}\n".encode())
        return verdicts

    sweep("sound", 12, range(2000))
    sweep("sound", 48, range(300))
    monkeypatch.setattr(mc, "translate_fn_def_core", _drop_first_heaplet)
    caught = [(seed, r) for seed, r in enumerate(sweep("mutant", 12,
                                                       range(1000)))
              if not isinstance(r, Sat)]
    assert len(caught) == 109
    assert caught[0] == (40, Unsat("no cell matches x5 :-> v1"))
    assert h.hexdigest() == _CHECKER_DIGEST


def _residual_only(terms):
    """An empty heap against a purely existential assertion."""
    a = ssl.SslAssertion.make(tuple(P(t) for t in terms), ())
    return satisfies(Model({}, {}), a, PredicateEnv({}))


CHAIN = ["a == 1", "b == (a + 1)", "c == (b - 2)"]


def test_solved_equality_chain_is_sat():
    assert isinstance(_residual_only(CHAIN), Sat)


def test_false_equality_that_solved_nothing_is_unsat():
    # `c == 5` becomes ground once the chain binds c, but it bound nothing
    # itself, so it is still checked
    result = _residual_only(CHAIN + ["c == 5"])
    assert isinstance(result, Unsat)
    assert result.reason == "pure conjunct c == 5 is false"


@pytest.mark.parametrize("eq", [
    ssl.PEq(ssl.PAdd(ssl.PVar("u"), ssl.PInt(1)), ssl.PVar("b")),
    ssl.PEq(ssl.PVar("b"), ssl.PSub(ssl.PInt(3), ssl.PVar("u"))),
    ssl.PEq(ssl.PVar("u"), ssl.PAdd(ssl.PVar("b"), ssl.PInt(1))),
])
def test_ill_sorted_equality_is_unsat(eq):
    # solving for u would invert + or - against the Boolean b: no value of
    # u makes the equality hold
    result = satisfies(Model({"b": BoolVal(True)}, {}),
                       ssl.SslAssertion.make((eq,), ()), PredicateEnv({}))
    assert result == Unsat("expected a numeric value, found true")


@pytest.mark.parametrize("store, heap, spatial, verdict", [
    # a location argument that is not a variable is named by a fresh
    # existential equal to it
    ({}, {5: IntVal(1), 6: IntVal(0)},
     ssl.PredApply("Sll", (ssl.PInt(5),)), Sat()),
    ({"b": BoolVal(True)}, {},
     ssl.PredApply("Sll", (ssl.PAdd(ssl.PVar("b"), ssl.PInt(1)),)),
     Unsat("expected a numeric value, found true")),
    ({"b": BoolVal(True)}, {}, ssl.Block("b", 1),
     Unsat("b is not a location")),
], ids=["literal-location-argument", "boolean-in-argument",
        "boolean-block-base"])
def test_satisfies_gives_a_verdict_on_ill_sorted_locations(genv, store, heap,
                                                           spatial, verdict):
    a = ssl.SslAssertion.make((), (spatial,))
    assert satisfies(Model(store, heap), a, _sll_env(genv)) == verdict


def test_propagate_leaves_solved_equalities_out_of_the_ground_terms():
    # b's equality comes first, so it is solved on the second pass
    terms = [CHAIN[1], CHAIN[0], "not (b == 0)", CHAIN[2]]
    binding = {}
    still, ground = _propagate([], binding, [_Pure(P(t)) for t in terms])
    assert binding == {"a": IntVal(1), "b": IntVal(2), "c": IntVal(0)}
    assert still == []
    assert [ssl.render_pure(t) for t in ground] == ["not (b == 0)"]
    # an equality with no unknown left solves nothing and stays a check
    still, ground = _propagate([], binding, [_Pure(P("c == 5"))])
    assert [ssl.render_pure(t) for t in ground] == ["c == 5"]


def test_residual_existentials_are_solved_per_group():
    # eight unknowns, but no constraint links two of them
    assert isinstance(
        _residual_only([f"not (p{i} == 0)" for i in range(8)]), Sat)


def test_too_many_linked_residual_existentials_is_unknown():
    # seven unknowns chained into one group exceed the witness search
    result = _residual_only([f"not (v{i} == v{i + 1})" for i in range(6)])
    assert isinstance(result, Unknown)
    assert "too many residual existentials" in result.reason


def test_residual_groups_follow_shared_unknowns():
    terms = ["not (a == b)", "not (c == 0)", "not (x == 1)", "b < d"]
    groups = _residual_groups([_Pure(P(t)) for t in terms], {"x": IntVal(1)})
    assert [(u, [ssl.render_pure(r.term) for r in g]) for u, g in groups] == [
        (["c"], [ssl.render_pure(P("not (c == 0)"))]),
        # a constraint with no unknown left is a group to evaluate
        ([], [ssl.render_pure(P("not (x == 1)"))]),
        (["a", "b", "d"], [ssl.render_pure(P(t)) for t in terms[::3]]),
    ]


def test_depth_bound_with_unconsumable_cells_is_unsat():
    # `spin` never reaches a points-to, so no unfolding depth can consume
    # the cell: the search fails instead of giving up at the bound
    spin = ssl.parse_predicate(
        "predicate spin(loc x) { | true => { spin(y) } }")
    model = Model({"x": LocVal(5)}, {5: IntVal(1)})
    a = ssl.SslAssertion.make((), (ssl.PredApply("spin", (ssl.PVar("x"),)),))
    assert isinstance(satisfies(model, a, PredicateEnv({"spin": spin}), 8),
                      Unsat)
    # with a points-to still reachable, the bound is a reason to give up
    cell = ssl.parse_predicate(
        "predicate spin(loc x) { | true => { spin(y) } "
        "| false => { x :-> 1 } }")
    assert isinstance(satisfies(model, a, PredicateEnv({"spin": cell}), 8),
                      Unknown)


# -- branch plans --

def _emitted_predicates():
    """Every predicate ``compile`` emits for the directives under tests/."""
    for path in sorted(SIG.parent.parent.glob("*/*.pika")):
        unit = parse_source(path.read_text())
        if unit.directives:
            prog = elaborate(unit)
            for d in unit.directives:
                yield from compile_directive(prog, d.fn).all_predicates()


def test_branch_plans_instantiate_as_substitution_does():
    # a location argument is a variable; any other one is a compound term
    emp = ssl.PredicateDef("e", (("x", "loc"),), (ssl.Branch(
        ssl.TRUE, ssl.SslAssertion((), (ssl.HeapEmp(),))),))
    kinds = set()
    for pred in [*_emitted_predicates(), emp]:
        plans = _plans(pred)
        assert _plans(pred) is plans
        for plan, existentials in zip(plans, pred.existentials):
            args = [ssl.PVar(f"a{i}") if i in plan.locs
                    else ssl.PAdd(ssl.PVar(f"a{i}"), ssl.PInt(1))
                    for i in range(len(pred.params))]
            fresh = [ssl.PVar(f"{n}?{k}") for k, n in enumerate(existentials)]
            sub = dict(zip(existentials, fresh))
            sub.update((p, a) for (p, _), a in zip(pred.params, args))
            terms = args + fresh
            items, pures = plan.instance(
                terms, [tuple(ssl.free_vars(t)) for t in terms], 3)
            body = plan.branch.body
            assert items == [_item(ssl.subst(h, sub), 3) for h in body.spatial]
            records = [_Pure(ssl.subst(t, sub))
                       for t in (plan.branch.cond,) + body.pure]
            assert ([(r.term, r.vars, r.lhs_vars, r.rhs_vars) for r in pures]
                    == [(r.term, r.vars, r.lhs_vars, r.rhs_vars)
                        for r in records])
            kinds.update(h.__class__ for h in body.spatial)
    assert kinds == set(ssl.Heaplet)


# -- predicate environment cache --

def test_predicate_env_build_matches_fresh_translation(genv):
    e = parse_expr_text("instantiate [Sll] Sll incAll (lower Sll (Nil))")
    build_predicate_env(genv, exprs=[e])
    env = build_predicate_env(genv, exprs=[e])     # served from the cache
    for name, layout in genv.layouts.items():
        assert env.preds[name] == translate_layout_predicate(layout)
    fresh = translate_fn_def_core(genv, "incAll", genv.layouts["Sll"],
                                  S.NamedLayout("Sll"))
    assert env.preds[fresh.name] == fresh


def test_predicate_env_builds_do_not_share_preds(genv):
    e = parse_expr_text("instantiate [Sll] Sll idList (lower Sll (Nil))")
    first = build_predicate_env(genv, exprs=[e])
    names = set(first.preds)
    first.preds.clear()
    first.preds["Sll"] = None
    second = build_predicate_env(genv, exprs=[e])
    assert set(second.preds) == names
    assert second.preds["Sll"] == translate_layout_predicate(
        genv.layouts["Sll"])


def test_predicate_env_cache_is_per_global_env(genv):
    other = build_global_env(parse_source("""
data List := Nil | Cons Int List;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+2) :-> tail, Sll tail;
"""))
    ours = build_predicate_env(genv).preds["Sll"]
    theirs = build_predicate_env(other).preds["Sll"]
    assert theirs == translate_layout_predicate(other.layouts["Sll"])
    assert theirs != ours
    assert build_predicate_env(genv).preds["Sll"] == ours


# -- generation --

def test_generator_smallest_form(sig):
    e = gen_core_expr(sig, seed=0, budget=1)
    from pikac import syntax as S
    assert isinstance(e, S.IntLit)


def test_generator_outputs_well_typed(genv, sig):
    for seed in range(300):
        e = gen_core_expr(sig, seed, budget=8)
        infer_expr(genv, {}, e)


# a constructor with a Bool field, which only a Bool literal fills
BOOL_FIELD = """
data B := Mk Bool;
BL : B >-> layout[x];
BL (Mk b) := x :-> b;
idB : B -> B;
idB (Mk b) := lower BL (Mk b);
"""


def test_generator_draws_bool_fields_well_typed():
    genv = build_global_env(parse_source(BOOL_FIELD))
    sig = CoreSignature.from_env(genv)
    drawn = set()
    for budget in (12, 48):
        for seed in range(200):
            e = gen_core_expr(sig, seed, budget)
            infer_expr(genv, {}, e)
            drawn |= {x.value for x in S.iter_subexprs(e)
                      if isinstance(x, S.BoolLit)}
    assert drawn == {False, True}


def test_generator_deterministic(sig):
    assert gen_core_expr(sig, 42, 12) == gen_core_expr(sig, 42, 12)


# (budget, seeds) -> sha256 of each draw's rendering and repr; a change to
# the generator that moves the random stream changes the digest
_GENERATOR_DIGEST = (
    "2723e63fc5a38f05eb4e4ddce12a8be2e4b5ec955fdd0c468785355f921c3d64")


def test_generator_output_is_pinned(sig):
    h = hashlib.sha256()
    for budget, seeds in ((1, range(8)), (3, range(8)), (8, range(8)),
                          (12, range(4000)), (48, range(2000))):
        for seed in seeds:
            e = gen_core_expr(sig, seed, budget)
            h.update(f"{budget} {seed} {S.render_expr(e)}\n{e!r}\n".encode())
    assert h.hexdigest() == _GENERATOR_DIGEST


def test_generator_names_a_field_it_cannot_draw():
    # the pool is not empty, so a draw may reach the layouts below
    genv = build_global_env(parse_source(SIG.read_text() + """
data Far := Far;
data Box := B Far;
BoxL : Box >-> layout[x];
BoxL (B f) := emp;
data F := MkF (Int -> Int);
FL : F >-> layout[x];
FL (MkF g) := x :-> g;
"""))
    sig = CoreSignature.from_env(genv)
    reasons = set()
    for seed in range(100):
        try:
            gen_core_expr(sig, seed, 12)
        except E.UnsupportedConstruct as exc:
            reasons.add((exc.message, tuple(exc.span)))
    assert reasons == {
        ("layout BoxL: a field of B has no layout to lower into", (49, 6)),
        ("layout FL: a field of MkF is a function", (52, 4))}


def test_shrink_preserves_typing(genv, sig):
    for seed in range(40):
        e = gen_core_expr(sig, seed, budget=10)
        for cand in shrink_core_expr(e):
            infer_expr(genv, {}, cand)


# -- pairing --

def _points_to_model(rng, offset, n_cells, var_prefix):
    store, heap, pure, spatial = {}, {}, [], []
    for i in range(n_cells):
        loc = offset + 2 * i
        v = rng.randint(0, 9)
        name = f"{var_prefix}{i}"
        store[name] = LocVal(loc)
        heap[loc] = IntVal(v)
        spatial.append(ssl.PointsTo(name, 0, ssl.PInt(v)))
    if n_cells == 0 and rng.random() < 0.5:
        name = f"{var_prefix}p"
        store[name] = IntVal(rng.randint(0, 9))
        pure.append(ssl.PEq(ssl.PVar(name), ssl.PInt(store[name].value)))
    return store, heap, ssl.SslAssertion.make(pure, spatial)


def test_otimes_pairing_simple():
    ma = Model({"v": IntVal(7)}, {})
    mb = Model({"v": IntVal(7), "x": LocVal(3)}, {3: IntVal(1)})
    pa = ssl.SslAssertion.make((ssl.PEq(ssl.PVar("v"), ssl.PInt(7)),), ())
    pb = ssl.SslAssertion.make((), (ssl.PointsTo("x", 0, ssl.PInt(1)),))
    assert check_otimes(ma, mb, pa, pb)


def test_otimes_two_disjoint_cells():
    ma = Model({"x": LocVal(1)}, {1: IntVal(4)})
    mb = Model({"x": LocVal(1), "y": LocVal(5)}, {5: IntVal(6)})
    pa = ssl.SslAssertion.make((), (ssl.PointsTo("x", 0, ssl.PInt(4)),))
    pb = ssl.SslAssertion.make((), (ssl.PointsTo("y", 0, ssl.PInt(6)),))
    assert check_otimes(ma, mb, pa, pb)


def test_otimes_overlap_rejected():
    ma = Model({"x": LocVal(1)}, {1: IntVal(4)})
    mb = Model({"x": LocVal(1)}, {1: IntVal(4)})
    pa = ssl.SslAssertion.make((), (ssl.PointsTo("x", 0, ssl.PInt(4)),))
    with pytest.raises(E.PreconditionViolated):
        check_otimes(ma, mb, pa, pa)


def test_otimes_store_containment_required():
    ma = Model({"v": IntVal(7)}, {})
    mb = Model({"v": IntVal(8)}, {})
    empty = ssl.SslAssertion.make((), ())
    with pytest.raises(E.PreconditionViolated):
        check_otimes(ma, mb, empty, empty)


def test_otimes_random_pairs():
    rng = random.Random(7)
    for _ in range(200):
        sa, ha, pa = _points_to_model(rng, 1, rng.randint(0, 3), "a")
        sb, hb, pb = _points_to_model(rng, 101, rng.randint(0, 3), "b")
        sb = {**sa, **sb}
        assert check_otimes(Model(sa, ha), Model(sb, hb), pa, pb)
