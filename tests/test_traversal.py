"""The shared traversals of the two IRs: every node kind is handled, and
the node counts the benchmark and the size ratio read stay fixed."""

import pathlib

import pytest

from pikac import ssl
from pikac import syntax as S
from pikac.errors import SortMismatch, Span
from pikac.interp import FsVal
from pikac.translate import compile_directive
from pikac.types import OPERATOR_TYPES, elaborate

TESTS = pathlib.Path(__file__).parent
SLL = S.NamedLayout("Sll")


class _NewKind:
    """Stands for a node kind the traversals do not know yet."""
    span = None


# One instance of every expression kind: (expression, its subexpressions'
# kinds in pre-order, count_expr_nodes).
EXPR_SAMPLES = {
    S.IntLit: (S.IntLit(1), ["IntLit"], 1),
    S.BoolLit: (S.BoolLit(True), ["BoolLit"], 1),
    S.Var: (S.Var("x"), ["Var"], 1),
    S.Addr: (S.Addr("x"), ["Addr"], 1),
    S.ConstructorApp: (S.ConstructorApp("Cons", [S.Var("h"), S.Var("t")]),
                       ["ConstructorApp", "Var", "Var"], 3),
    S.App: (S.App("f", [S.Var("a"), S.IntLit(2)]),
            ["App", "Var", "IntLit"], 3),
    S.BinOp: (S.BinOp("+", S.Var("a"), S.Not(S.Var("b"))),
              ["BinOp", "Var", "Not", "Var"], 4),
    S.Not: (S.Not(S.Var("b")), ["Not", "Var"], 2),
    S.IfThenElse: (S.IfThenElse(S.Var("b"), S.IntLit(1), S.Var("c")),
                   ["IfThenElse", "Var", "IntLit", "Var"], 4),
    S.Let: (S.Let("y", S.Var("x"), S.Var("y")), ["Let", "Var", "Var"], 4),
    S.Instantiate: (S.Instantiate((SLL, S.IntLayout()), SLL, "f",
                                  [S.Var("xs"), S.IntLit(3)]),
                    ["Instantiate", "Var", "IntLit"], 6),
    S.Lower: (S.Lower(SLL, S.ConstructorApp("Nil", [])),
              ["Lower", "ConstructorApp"], 3),
}


@pytest.mark.parametrize("cls", S.Expr, ids=lambda c: c.__name__)
def test_every_expr_kind_is_traversed(cls):
    e, kinds, nodes = EXPR_SAMPLES[cls]
    e.span = Span(2, 5)
    kids = list(S.subexprs(e))
    assert [type(x).__name__ for x in S.iter_subexprs(e)] == kinds
    assert [y for k in kids for y in S.iter_subexprs(k)] \
        == list(S.iter_subexprs(e))[1:]
    assert S.count_expr_nodes(e) == nodes

    seen = []

    def mark(x):
        seen.append(x)
        return S.IntLit(7)

    mapped = S.map_expr(e, mark)
    assert seen == kids
    assert type(mapped) is cls and mapped.span is e.span
    assert list(S.subexprs(mapped)) == [S.IntLit(7)] * len(kids)
    assert S.map_expr(e, lambda x: x) == e

    for walk in (S.subexprs, S.count_expr_nodes,
                 lambda x: S.map_expr(x, mark),
                 lambda x: list(S.iter_subexprs(x))):
        with pytest.raises(TypeError):
            walk(_NewKind())


P, V = ssl.PInt, ssl.PVar

# One instance of every pure term and heaplet kind: (term, free_vars,
# node count).
SSL_SAMPLES = {
    ssl.PInt: (P(3), set(), 1),
    ssl.PBool: (ssl.PBool(False), set(), 1),
    ssl.PVar: (V("a"), {"a"}, 1),
    ssl.PEq: (ssl.PEq(V("a"), P(0)), {"a"}, 3),
    ssl.PAnd: (ssl.PAnd(V("a"), V("b")), {"a", "b"}, 3),
    ssl.PNot: (ssl.PNot(V("a")), {"a"}, 2),
    ssl.PLt: (ssl.PLt(V("a"), V("b")), {"a", "b"}, 3),
    ssl.PAdd: (ssl.PAdd(V("a"), P(1)), {"a"}, 3),
    ssl.PSub: (ssl.PSub(P(1), V("b")), {"b"}, 3),
    ssl.PMod: (ssl.PMod(V("a"), ssl.PAdd(V("b"), P(2))), {"a", "b"}, 5),
    ssl.PTernary: (ssl.PTernary(V("c"), V("a"), P(0)), {"c", "a"}, 4),
    ssl.HeapEmp: (ssl.HeapEmp(), set(), 1),
    ssl.PointsTo: (ssl.PointsTo("x", 1, V("v")), {"x", "v"}, 4),
    ssl.Block: (ssl.Block("x", 2), {"x"}, 3),
    ssl.PredApply: (ssl.PredApply("Sll", (V("x"), V("y"))), {"x", "y"}, 3),
    ssl.FuncApply: (ssl.FuncApply("f", (V("x"), ssl.PAdd(V("y"), P(1)))),
                    {"x", "y"}, 5),
    ssl.TempLoc: (ssl.TempLoc("t"), {"t"}, 2),
    ssl.RoApply: (ssl.RoApply("ro_Sll", (V("x"),)), {"x"}, 2),
}
PURE_KINDS = ssl.PureTerm


@pytest.mark.parametrize(
    "cls", PURE_KINDS + ssl.Heaplet, ids=lambda c: c.__name__)
def test_every_ssl_kind_is_traversed(cls):
    x, names, nodes = SSL_SAMPLES[cls]
    count = ssl.count_pure_nodes if cls in PURE_KINDS \
        else ssl.count_heaplet_nodes
    assert ssl.free_vars(x) == names
    assert count(x) == nodes
    inner = [v for t in ssl.subterms(x) for v in ssl.free_vars(t)]
    assert set(inner) <= names

    # rename every variable, then rename back
    ren = {n: V(n + "'") for n in names}
    inverse = {n + "'": V(n) for n in names}
    renamed = ssl.subst(x, ren)
    assert ssl.free_vars(renamed) == {n + "'" for n in names}
    assert count(renamed) == nodes
    assert ssl.subst(renamed, inverse) == x
    assert getattr(ssl.subst(x, ren), "ctor", None) == getattr(x, "ctor", None)

    # a location can only be renamed; other positions take any term
    ground = {n: P(0) for n in names}
    if isinstance(x, (ssl.PointsTo, ssl.Block, ssl.TempLoc)):
        with pytest.raises(SortMismatch):
            ssl.subst(x, ground)
    else:
        assert ssl.free_vars(ssl.subst(x, ground)) == set()

    render = ssl.render_pure if cls in PURE_KINDS else ssl.render_heaplet
    assert isinstance(render(x), str)

    for walk in (ssl.free_vars, ssl.subterms, count,
                 lambda t: ssl.subst(t, ren), render):
        with pytest.raises(TypeError):
            walk(_NewKind())


# free_vars, subst, render_pure, render_heaplet, SslAssertion.make,
# subexprs, iter_subexprs, map_expr, infer_expr, _Elaborator._elab,
# translate._expr_vars, the machine, the core translation and the checker's
# instantiation walk dispatch on the exact class, and resolve_layout_ref and
# core_cases key a NamedLayout by its class (types._ref_key), so a subclass
# of a kind they name would miss its case.


@pytest.mark.parametrize("cls", PURE_KINDS + ssl.Heaplet + S.Expr
                         + S.LayoutRef + FsVal, ids=lambda c: c.__name__)
def test_dispatched_kinds_have_no_subclasses(cls):
    assert cls.__subclasses__() == []


# the operator tables: each IR declares its binary operators once


def test_every_ssl_binary_kind_declares_its_operator():
    kinds = ssl._Binary.__subclasses__()
    assert set(kinds) == ssl._BINARY
    for cls in kinds:
        assert isinstance(cls.__dict__.get("symbol"), str), cls
        assert isinstance(cls.__dict__.get("prec"), int), cls
    assert {ssl.BINARY_OPS[c.symbol] for c in kinds} == set(kinds)
    # the emitted syntax orders its operators as the surface syntax does
    for a in kinds:
        for b in kinds:
            assert (a.prec < b.prec) == (S._PREC[a.symbol] < S._PREC[b.symbol])


@pytest.mark.parametrize("op", sorted(S._PREC))
def test_every_syntax_operator_translates(op):
    arg, res = map(str, OPERATOR_TYPES[op][:2])
    prog = elaborate(S.parse_source(
        f"%generate f [{arg}, {arg}] {res}\n"
        f"f : {arg} -> {arg} -> {res};\n"
        f"f a b := a {op} b;\n"))
    (branch,) = compile_directive(prog, "f").predicate.branches
    (eq,) = branch.body.pure
    a, b = V("__p_0"), V("__p_1")
    if op == "||":
        assert eq.rhs == ssl.PNot(ssl.PAnd(ssl.PNot(a), ssl.PNot(b)))
    else:
        assert eq.rhs == ssl.BINARY_OPS[op](a, b) and eq.rhs.symbol == op


# count_unit_nodes of each shipped source with a directive, and the
# count_predicate_nodes + count_goal_nodes total of each directive.
NODE_COUNTS = {
    "benchmarks/add1_head.pika": (39, {"add1Head": 77}),
    "benchmarks/add1_head_dll.pika": (42, {"add1HeadDLL": 89}),
    "benchmarks/cons.pika": (38, {"cons": 66}),
    "benchmarks/even.pika": (18, {"even": 37}),
    "benchmarks/filter_lt.pika": (56, {"filterLt": 117}),
    "benchmarks/foldr.pika": (49, {"foldr": 87}),
    "benchmarks/left_list.pika": (66, {"leftList": 88}),
    "benchmarks/list_id.pika": (38, {"listId": 78}),
    "benchmarks/map_add.pika": (40, {"mapAdd": 80}),
    "benchmarks/plus.pika": (18, {"plus": 43}),
    "benchmarks/sum.pika": (38, {"sum": 76}),
    "benchmarks/take.pika": (56, {"take": 133}),
    "benchmarks/tree_size.pika": (49, {"treeSize": 94}),
    "corpus/append.pika": (55, {"append": 120}),
    "corpus/car.pika": (35, {"car": 68}),
    "corpus/cons.pika": (38, {"cons": 66}),
    "corpus/filter_lt9.pika": (47, {"filterLt9": 104}),
    "corpus/fold.pika": (49, {"fold_List": 85}),
    "corpus/fold_map.pika": (64, {"foldMap": 95}),
    "corpus/left_list.pika": (66, {"leftList": 88}),
    "corpus/map.pika": (41, {"map": 81}),
    "corpus/map_sum.pika": (67, {"map_sum": 131}),
    "corpus/maximum.pika": (44, {"maximum": 82}),
    "corpus/replicate.pika": (50, {"replicate": 63}),
    "corpus/reverse.pika": (47, {"reverse": 74}),
    "corpus/scanr.pika": (62, {"scanr": 109}),
    "corpus/self_append.pika": (67, {"selfAppend": 49}),
    "corpus/singleton.pika": (33, {"singleton": 36}),
    "corpus/snoc.pika": (48, {"snoc": 96}),
    "corpus/sum.pika": (38, {"sum": 76}),
    "corpus/take.pika": (56, {"take": 133}),
    "corpus/zip.pika": (78, {"zip": 112}),
    "corpus/zip_with.pika": (63, {"zipWith": 158}),
}


def test_node_counts_of_shipped_sources():
    sources = [p for d in ("corpus", "benchmarks")
               for p in sorted((TESTS / d).glob("*.pika"))
               if "%generate" in p.read_text()]
    assert sorted(str(p.relative_to(TESTS)) for p in sources) \
        == sorted(NODE_COUNTS)
    for path in sources:
        unit = S.parse_source(path.read_text())
        prog = elaborate(unit)
        ssl_nodes = {}
        for d in unit.directives:
            res = compile_directive(prog, d.fn)
            ssl_nodes[d.fn] = (sum(ssl.count_predicate_nodes(p)
                                   for p in res.all_predicates())
                               + ssl.count_goal_nodes(res.goal))
        got = (S.count_unit_nodes(unit), ssl_nodes)
        assert got == NODE_COUNTS[str(path.relative_to(TESTS))], path.name
