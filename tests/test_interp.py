"""Abstract machine tests: heap action, evaluation, and machine invariants."""

import pathlib

import pytest

from heap_action import (
    GroundApply, GroundEmp, GroundPointsTo, HeapOverlap, act_on_heap,
)
from pikac import errors as E
from pikac.interp import (
    ConstructorVal, IntVal, LocVal, Machine, Model, eval_expr,
)
from pikac.syntax import parse_expr_text, parse_source
from pikac.types import build_global_env

SIG = pathlib.Path(__file__).parent / "corpus" / "soundness_sig.pika"


@pytest.fixture(scope="module")
def genv():
    return build_global_env(parse_source(SIG.read_text()))


# -- layout bodies acting on heaps --

def test_act_writes_single_cell():
    assert act_on_heap({}, [GroundPointsTo(7, IntVal(7))]) == {7: IntVal(7)}


def test_act_emp_is_identity():
    h = {1: IntVal(5)}
    assert act_on_heap(h, [GroundEmp()]) == h


def test_act_skips_value_applications():
    out = act_on_heap({}, [GroundPointsTo(4, IntVal(5)),
                           GroundPointsTo(5, LocVal(9)),
                           GroundApply("Sll", LocVal(9))])
    assert out == {4: IntVal(5), 5: LocVal(9)}


def test_act_rejects_overlap():
    with pytest.raises(HeapOverlap):
        act_on_heap({3: IntVal(0)}, [GroundPointsTo(3, IntVal(1))])


def test_act_rejects_ungrounded():
    with pytest.raises(E.UngroundedHeaplet):
        act_on_heap({}, [GroundPointsTo(3, "free_variable")])


# -- evaluation --

def test_eval_addition(genv):
    val, store, heap, fs, r = eval_expr(genv, parse_expr_text("3 + 4"))
    assert val == IntVal(7)
    assert store[r] == IntVal(7)
    assert len(store) == 3          # both literals and the sum are bound
    assert heap == {} and fs == {}


def test_eval_lower_builds_cells(genv):
    e = parse_expr_text("lower Sll (Cons 7 (lower Sll (Nil)))")
    val, store, heap, fs, r = eval_expr(genv, e)
    assert val == ConstructorVal("Cons", (IntVal(7),
                                          ConstructorVal("Nil", ())))
    root = store[r]
    assert isinstance(root, LocVal)
    assert heap[root.loc] == IntVal(7)
    tail = heap[root.loc + 1]
    assert isinstance(tail, LocVal)
    assert fs[tail.loc] == ConstructorVal("Nil", ())
    assert fs[root.loc] == val
    assert len(heap) == 2           # the empty branch writes no cells


def test_eval_instantiate_empty_branch(genv):
    e = parse_expr_text("instantiate [Sll] Sll idList (lower Sll (Nil))")
    val, store, heap, fs, r = eval_expr(genv, e)
    assert val == ConstructorVal("Nil", ())
    assert heap == {}
    assert isinstance(store[r], LocVal)


def test_eval_variable_resident_lookup(genv):
    nil = ConstructorVal("Nil", ())
    val, store, heap, fs, r = eval_expr(
        genv, parse_expr_text("v"), store={"v": LocVal(3)}, fs={3: nil})
    assert val == nil
    assert r == "v"
    assert heap == {}


def test_eval_unbound_variable(genv):
    with pytest.raises(E.UnboundVariable):
        eval_expr(genv, parse_expr_text("v"))


def test_eval_no_matching_case(genv):
    env = build_global_env(parse_source("""
data List := Nil | Cons Int List;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
onlyNil : List -> List;
onlyNil (Nil) := lower Sll (Nil);
"""))
    with pytest.raises(E.NoMatchingFnCase):
        eval_expr(env, parse_expr_text(
            "instantiate [Sll] Sll onlyNil (lower Sll (Cons 1 (lower Sll (Nil))))"))


def test_eval_outside_subset(genv):
    for text in ["if true then 1 else 2", "let a := 1 in a", "1 - 2"]:
        with pytest.raises(E.UnsupportedConstruct):
            eval_expr(genv, parse_expr_text(text))


# -- machine invariants --

BUILD = "lower Sll (Cons 1 (lower Sll (Cons 2 (lower Sll (Nil)))))"


def test_heap_growth_and_store_monotonicity(genv):
    m = Machine(genv)
    m.eval(parse_expr_text(BUILD))
    store_before = dict(m.store)
    heap_before = dict(m.heap)
    m.eval(parse_expr_text("instantiate [Sll] Sll incAll (lower Sll (Nil))"))
    for k, v in store_before.items():
        assert m.store[k] == v
    for loc, v in heap_before.items():
        assert m.heap[loc] == v


def test_freshness_of_result_and_locations(genv):
    val, store, heap, fs, r = eval_expr(
        genv, parse_expr_text(BUILD), store={"seeded": IntVal(1)})
    assert r != "seeded"
    assert 0 not in heap
    assert all(loc > 0 for loc in heap)


def test_type_preservation_spot_checks(genv):
    val, store, heap, fs, r = eval_expr(genv, parse_expr_text("2 + 9"))
    assert isinstance(val, IntVal)
    val, store, heap, fs, r = eval_expr(genv, parse_expr_text(BUILD))
    assert isinstance(val, ConstructorVal)
    assert isinstance(store[r], LocVal)
    assert store[r].loc in fs


def test_determinism(genv):
    e = parse_expr_text(
        "instantiate [Sll] Sll incAll (" + BUILD + ")")
    a = eval_expr(genv, e)
    b = eval_expr(genv, e)
    assert a == b


def test_model_render_sorted(genv):
    model = Model({"b": IntVal(2), "a": IntVal(1)}, {4: IntVal(9), 2: IntVal(8)})
    text = model.render()
    assert text.index("a = 1") < text.index("b = 2")
    assert text.index("2 -> 8") < text.index("4 -> 9")


# -- callee bodies under a renaming, layout shapes --

# Callee pattern variables reuse the caller's names (r1) and the names the
# machine and the core translation pick for fresh variables (rN, vN): a
# callee body must read each of them as the field it is bound to.
RENAMING = """
data List := Nil | Cons Int List;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

g : List -> List;
g (Nil) := lower Sll (Nil);
g (Cons v1 r1) := lower Sll (Cons (v1 + 1) r1);

f : List -> List;
f (Nil) := lower Sll (Nil);
f (Cons r1 r2) :=
  lower Sll (Cons r1 (instantiate [Sll] Sll g (lower Sll (Cons r1 r2))));
"""

LIST_4_7 = "(lower Sll (Cons 4 (lower Sll (Cons 7 (lower Sll (Nil))))))"


def _rendered(d):
    return {k: str(v) for k, v in sorted(d.items())}


@pytest.mark.parametrize("text, expect", [
    (f"instantiate [Sll] Sll f (instantiate [Sll] Sll g {LIST_4_7})", (
        "Cons 5 (Cons 6 (Cons 7 (Nil)))", "r17",
        {"r1": "4", "r10": "5", "r11": "<2>", "r12": "5", "r13": "<2>",
         "r14": "1", "r15": "6", "r16": "<6>", "r17": "<8>", "r2": "7",
         "r3": "<1>", "r4": "<2>", "r5": "4", "r6": "<2>", "r7": "1",
         "r8": "5", "r9": "<4>"},
        {2: "7", 3: "<1>", 4: "5", 5: "<2>", 6: "6", 7: "<2>", 8: "5",
         9: "<6>"},
        {1: "Nil", 2: "Cons 7 (Nil)", 4: "Cons 5 (Cons 7 (Nil))",
         6: "Cons 6 (Cons 7 (Nil))", 8: "Cons 5 (Cons 6 (Cons 7 (Nil)))"},
        "v6 == (v1 + v5) && v5 == 1 && v1 == 4 && v2 == 7 ; x7 :-> v6 ** "
        "(x7+1) :-> x4 ** x4 :-> v2 ** (x4+1) :-> x3 ** "
        "f__rw_Sll__ro_Sll(x7, r17)")),
    (f"instantiate [Sll] Sll f {LIST_4_7}", (
        "Cons 4 (Cons 5 (Cons 7 (Nil)))", "r12",
        {"r1": "4", "r10": "5", "r11": "<4>", "r12": "<6>", "r2": "7",
         "r3": "<1>", "r4": "<2>", "r5": "4", "r6": "<2>", "r7": "4",
         "r8": "<2>", "r9": "1"},
        {2: "7", 3: "<1>", 4: "5", 5: "<2>", 6: "4", 7: "<4>"},
        {1: "Nil", 2: "Cons 7 (Nil)", 4: "Cons 5 (Cons 7 (Nil))",
         6: "Cons 4 (Cons 5 (Cons 7 (Nil)))"},
        "v6 == (v1 + v5) && v5 == 1 && v1 == 4 && v2 == 7 ; r12 :-> v1 ** "
        "(r12+1) :-> x7 ** x7 :-> v6 ** (x7+1) :-> x4 ** x4 :-> v2 ** "
        "(x4+1) :-> x3")),
])
def test_callee_bodies_read_pattern_variables_through_the_renaming(text,
                                                                    expect):
    from pikac import ssl
    from pikac.translate import translate_expr_core
    env = build_global_env(parse_source(RENAMING))
    e = parse_expr_text(text)
    val, store, heap, fs, r = eval_expr(env, e)
    core = translate_expr_core(env, e, result_var=r)
    assert (str(val), r, _rendered(store), _rendered(heap), _rendered(fs),
            ssl.render_assertion(core.assertion())) == expect


def test_build_writes_what_act_on_heap_writes(genv):
    # act_on_heap is the reference heap action of a grounded layout body
    val, store, heap, fs, r = eval_expr(genv, parse_expr_text(BUILD))
    assert heap == act_on_heap({}, [
        GroundEmp(),
        GroundPointsTo(2, IntVal(2)), GroundPointsTo(3, LocVal(1)),
        GroundApply("Sll", LocVal(1)),
        GroundPointsTo(4, IntVal(1)), GroundPointsTo(5, LocVal(2)),
        GroundApply("Sll", LocVal(2)),
    ])


def test_constructor_shapes(genv):
    shapes = genv.layouts["TreeLayout"].shapes
    assert set(shapes) == {"Leaf", "Node"}
    leaf, node = shapes["Leaf"], shapes["Node"]
    assert (leaf.cells, leaf.size) == ((), 0)
    assert node.pattern.vars == ["payload", "left", "right"]
    assert node.cells == ((0, "payload"), (1, "left"), (2, "right"))
    assert node.size == 3
    assert (leaf.empty, leaf.offsets, leaf.applies) == (True, {}, {})
    assert not node.empty
    assert node.offsets == {"payload": 0, "left": 1, "right": 2}
    assert node.applies == {"left": "TreeLayout", "right": "TreeLayout"}
    assert list(node.applies) == ["left", "right"]
    assert shapes is genv.layouts["TreeLayout"].shapes
    dll = build_global_env(parse_source(
        (SIG.parent.parent / "benchmarks" / "add1_head_dll.pika").read_text()
    )).layouts["Dll"].shapes["Cons"]
    # every store is a cell; the offset map keeps the last store
    assert dll.cells == ((0, "head"), (1, "tail"), (2, "tail"))
    assert (dll.size, dll.empty) == (3, False)
    assert dll.offsets == {"head": 0, "tail": 2}
    assert dll.applies == {"tail": "Dll"}
