"""Type checking, concreteness, and elaboration tests."""

import pathlib

import pytest

from pikac import errors as E
from pikac import syntax as S
from pikac.syntax import parse_expr_text, parse_source, render_expr
from pikac.types import (
    OPERATOR_TYPES, LayoutType, build_global_env, check_concrete, elaborate,
    infer_expr,
)

HERE = pathlib.Path(__file__).parent

LIST_DEFS = """
data List := Nil | Cons Int List;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
"""

FULL_DEFS = LIST_DEFS + """
data Tree := Leaf | Node Int Tree Tree;
data ListOfLists := LNil | LCons List ListOfLists;
data Zipped := ZNil | ZCons Int Int Zipped;
TreeLayout : Tree >-> layout[x];
TreeLayout (Leaf) := emp;
TreeLayout (Node payload left right) := x :-> payload, (x+1) :-> left,
    (x+2) :-> right, TreeLayout left, TreeLayout right;
ListOfListsLayout : ListOfLists >-> layout[x];
ListOfListsLayout (LNil) := emp;
ListOfListsLayout (LCons head tail) := x :-> head, (x+1) :-> tail,
    ListOfListsLayout tail, Sll head;
ZippedLayout : Zipped >-> layout[x];
ZippedLayout (ZNil) := emp;
ZippedLayout (ZCons fst snd rest) := x :-> fst, (x+1) :-> snd,
    (x+2) :-> rest, ZippedLayout rest;
"""


@pytest.fixture(scope="module")
def genv():
    return build_global_env(parse_source(FULL_DEFS))


def test_global_env_constructor_types(genv):
    assert genv.ctors["Cons"] == ([S.TInt(), S.TName("List")], "List")
    assert genv.ctors["Nil"] == ([], "List")


def test_global_env_full_suite(genv):
    assert len({adt for _, adt in genv.ctors.values()}) == 4
    assert len(genv.layouts) == 4


def test_layout_for_undeclared_adt_rejected():
    with pytest.raises(E.UnknownAdtInLayout):
        build_global_env(parse_source("""
Sll : List >-> layout[x];
Sll (Nil) := emp;
"""))


def test_duplicate_names_rejected():
    with pytest.raises(E.DuplicateName):
        build_global_env(parse_source(
            "data List := Nil;\ndata List := Cons;\n"))


@pytest.mark.parametrize("body, elaborated, inferred", [
    # an elaboration diagnostic anywhere in a body wins over a typing one
    ("(1 + true) + nope", "unbound variable nope",
     "expected Int, found Bool"),
    # of two typing diagnostics, the one the rule meets first wins: an
    # if's condition before its branches, a branch before their agreement
    ("if n then (1 + true) else 0", "expected Bool, found Int",
     "expected Bool, found Int"),
    ("if true then (1 + true) else false", "expected Int, found Bool",
     "expected Int, found Bool"),
    # a let's bound is typed before its body is elaborated
    ("let y := (1 + true) in nope", "expected Int, found Bool",
     "expected Int, found Bool"),
    # an instantiate's layouts are checked against its callee by the rule,
    # so the elaborator reports a later unbound name first
    ("(instantiate [Sll] Int f n) + nope", "unbound variable nope",
     "layout Sll does not fit type Int"),
    # both check a constructor's arity before its ADT
    ("lower TreeLayout (Cons 1)", "constructor Cons expects 2 arguments, "
     "got 1", "constructor Cons expects 2 arguments, got 1"),
    # a lowered constructor's argument raises its own diagnostic, which a
    # concreteness check would read as not concrete
    ("lower Sll (Cons (1 + true) (lower Sll (Nil)))",
     "expected Int, found Bool", "expected Int, found Bool"),
], ids=["elaboration-first", "condition-first", "branch-first",
        "let-bound-first", "instantiate-checked-by-the-rule",
        "constructor-arity-first", "lowered-argument-first"])
def test_the_diagnostic_that_wins(body, elaborated, inferred):
    unit = parse_source(FULL_DEFS + "%generate f [Int] Int\n"
                        f"f : Int -> Int;\nf n := {body};\n")
    with pytest.raises(E.PikaError) as info:
        elaborate(unit)
    assert info.value.message == elaborated
    with pytest.raises(E.PikaError) as info:
        infer_expr(build_global_env(unit), {"n": S.TInt()},
                   parse_expr_text(body))
    assert info.value.message == inferred


def test_second_directive_for_a_function_rejected():
    unit = parse_source("""
%generate id [Sll] Sll
%generate id [Sll[mutable]] Sll
data List := Nil | Cons Int List;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
id : List -> List;
id (Nil) := Nil;
id (Cons h t) := Cons h (id t);
""")
    with pytest.raises(E.DuplicateName) as info:
        build_global_env(unit)
    assert (info.value.rule, info.value.span) == ("G-FN", (3, 1))
    assert info.value.message == "second %generate directive for id"


@pytest.mark.parametrize("case", [
    # the head was dropped: the body read the parameter
    "f x (Cons x t) := x + 1;",
    # the Int parameter was passed to g
    "f x (Cons h x) := instantiate [Sll] Int g x;",
], ids=["pattern-field", "pattern-tail"])
def test_a_case_binds_each_name_once(case):
    unit = parse_source(LIST_DEFS + "g : List -> Int;\n"
                        "f : Int -> List -> Int;\nf x (Nil) := 0;\n" + case)
    with pytest.raises(E.DuplicateName) as info:
        build_global_env(unit)
    assert (info.value.rule, info.value.message, info.value.span) == (
        "G-FN", "a case of f binds x twice", (9, 1))


def test_missing_signature_is_placed_at_the_first_case():
    with pytest.raises(E.UnboundVariable) as info:
        build_global_env(parse_source("f : Int -> Int;\nf x := x;\n"
                                      "g (Nil) := 0;\ng y := y;\n"))
    assert (info.value.rule, info.value.span) == ("T-VAR", (3, 1))


@pytest.mark.parametrize("layout, message, span", [
    ("Two : List >-> layout[x, y];\nTwo (Nil) := emp;\n"
     "Two (Cons head tail) := x :-> head, y :-> tail;",
     "layout Two writes through y, not its root x", (4, 37)),
    ("Self : List >-> layout[x];\nSelf (Nil) := emp;\n"
     "Self (Cons head tail) := x :-> head, (x+1) :-> x;",
     "layout Self stores x, which is not a field of Cons", (4, 38)),
    ("Dup : List >-> layout[x];\nDup (Nil) := emp;\n"
     "Dup (Cons head tail) := x :-> head, x :-> tail;",
     "layout Dup writes x twice in its Cons branch", (4, 37)),
    ("Part : List >-> layout[x];\nPart (Nil) := emp;",
     "layout Part has no branch for Cons", (2, 1)),
], ids=["Two", "Self", "Dup", "Part"])
def test_global_env_rejects_a_branch_it_cannot_write(layout, message, span):
    with pytest.raises(E.UnknownAdtInLayout) as info:
        build_global_env(parse_source(
            "data List := Nil | Cons Int List;\n" + layout))
    assert (info.value.rule, info.value.message, info.value.span) == (
        "G-LAYOUT", message, span)


def test_infer_arithmetic(genv):
    assert infer_expr(genv, {}, parse_expr_text("3 + 4")) == S.TInt()


def test_every_binary_operator_has_a_type():
    assert OPERATOR_TYPES.keys() == S._PREC.keys()


def test_infer_lower_constructor(genv):
    gamma = {"x": S.TInt(), "xs": LayoutType("Sll")}
    t = infer_expr(genv, gamma, parse_expr_text("lower Sll (Cons x xs)"))
    assert t == LayoutType("Sll")


def test_infer_instantiate_cross_layout(genv):
    gamma = {"t": LayoutType("TreeLayout")}
    t = infer_expr(genv, gamma,
                   parse_expr_text("instantiate [TreeLayout] Sll leftList t"))
    assert t == LayoutType("Sll")


def test_infer_counts_arguments_beyond_the_layouts():
    genv = build_global_env(parse_source("inc : Int -> Int;\n"))
    with pytest.raises(E.ArityMismatch) as info:
        infer_expr(genv, {}, parse_expr_text("instantiate [Int] Int inc 3 99"))
    assert (info.value.rule, info.value.message) == (
        "T-INSTANTIATE", "instantiate of inc applies 2 arguments to 1 layouts")


def test_specialised_instantiate_counts_arguments_beyond_the_layouts():
    with pytest.raises(E.ArityMismatch) as info:
        elaborate(parse_source(LIST_DEFS + """
%generate mapAdd1 [Sll] Sll
map : (Int -> Int) -> List -> List;
map f (Nil) := Nil;
map f (Cons x xs) := Cons (instantiate [Int] Int f x) (map f xs);
add1 : Int -> Int;
add1 x := x + 1;
mapAdd1 : List -> List;
mapAdd1 xs := instantiate [Int -> Int, Sll] Sll map add1 xs 5;
"""))
    assert (info.value.rule, info.value.message) == (
        "T-INSTANTIATE",
        "instantiate of map_add1 applies 2 arguments to 1 layouts")


MAP_DEFS = LIST_DEFS + """
map : (Int -> Int) -> List -> List;
map f (Nil) := Nil;
map f (Cons x xs) := Cons (instantiate [Int] Int f x) (map f xs);
add1 : Int -> Int;
add1 x := x + 1;
"""


@pytest.mark.parametrize("defs, body, message", [
    # a source function would silently stand in for map at add1
    ("map_add1 : List -> List;\nmap_add1 (Nil) := Nil;\n"
     "map_add1 (Cons x xs) := Cons 0 (map_add1 xs);",
     "instantiate [Int -> Int, Sll] Sll map add1 xs",
     "function map_add1 has the name of the specialisation of map at add1"),
    # map at add1_inc and map_add1 at inc are both map_add1_inc
    ("add1_inc : Int -> Int;\nadd1_inc x := x + 1;\n"
     "inc : Int -> Int;\ninc x := x + 1;\n"
     "map_add1 : (Int -> Int) -> List -> List;\n"
     "map_add1 f (Nil) := Nil;\n"
     "map_add1 f (Cons x xs) := Cons (instantiate [Int] Int f x) "
     "(map_add1 f xs);",
     "instantiate [Int -> Int, Sll] Sll map add1_inc "
     "(instantiate [Int -> Int, Sll] Sll map_add1 inc xs)",
     "the specialisations of map at add1_inc and of map_add1 at inc are "
     "both named map_add1_inc"),
], ids=["source-function", "two-specialisations"])
def test_a_specialisation_name_names_one_function(defs, body, message):
    with pytest.raises(E.DuplicateName) as info:
        elaborate(parse_source(MAP_DEFS + defs + f"""
%generate mapAdd1 [Sll] Sll
mapAdd1 : List -> List;
mapAdd1 xs := {body};
"""))
    assert (info.value.rule, info.value.message) == ("G-FN", message)


def test_infer_layout_adt_mismatch(genv):
    with pytest.raises(E.LayoutAdtMismatch):
        infer_expr(genv, {}, parse_expr_text(
            "lower TreeLayout (Cons 1 (Nil))"))


def test_concreteness(genv):
    assert check_concrete(genv, {}, parse_expr_text("7"), S.TInt())
    gamma = {"xs": S.TName("List")}
    assert not check_concrete(genv, gamma, parse_expr_text("xs"),
                              S.TName("List"))
    gamma = {"xs": LayoutType("Sll")}
    assert check_concrete(genv, gamma, parse_expr_text("xs"), S.TName("List"))


def test_elaborate_recursive_call_instantiated():
    prog = elaborate(parse_source(
        (HERE / "corpus" / "filter_lt9.pika").read_text()))
    case = prog.fns["filterLt9"].cases[1]
    body = case.body
    assert isinstance(body, S.Instantiate)
    assert body.fn == "filterLt9"
    assert body.arg_layouts == (S.NamedLayout("Sll", "readonly"),)
    assert body.args == [S.Var("tail")]


def test_elaborate_base_only_function_unchanged():
    prog = elaborate(parse_source(LIST_DEFS + """
%generate even [Int] Int
even : Int -> Int;
even (n) := if (n % 2) == 0 then 1 else 0;
"""))
    case = prog.fns["even"].cases[0]
    assert case.args[0].ssl_name == "__p_0"
    assert isinstance(case.body, S.IfThenElse)
    assert render_expr(case.body) == "if __p_0 % 2 == 0 then 1 else 0"


def test_elaborate_returned_argument_lowered():
    prog = elaborate(parse_source(
        (HERE / "corpus" / "append.pika").read_text()))
    nil_case = prog.fns["append"].cases[0]
    assert isinstance(nil_case.body, S.Lower)
    assert nil_case.body.arg == S.Var("__p_x1")


def test_elaborate_parameter_names():
    prog = elaborate(parse_source(
        (HERE / "corpus" / "fold.pika").read_text()))
    fn = prog.fns["fold_List"]
    assert [a.ssl_name for a in fn.cases[0].args] == ["__p_0", "__p_x1"]
    assert fn.result_name == "__r"
    prog2 = elaborate(parse_source(
        (HERE / "corpus" / "filter_lt9.pika").read_text()))
    assert prog2.fns["filterLt9"].result_name == "__r_x"


def test_elaborate_deterministic():
    src = (HERE / "corpus" / "scanr.pika").read_text()
    a = elaborate(parse_source(src))
    b = elaborate(parse_source(src))
    for fn in a.fns:
        for ca, cb in zip(a.fns[fn].cases, b.fns[fn].cases):
            assert render_expr(ca.body) == render_expr(cb.body)
            assert [x.ssl_name for x in ca.args] == \
                [x.ssl_name for x in cb.args]


def test_missing_directive_rejected():
    prog_src = LIST_DEFS + """
orphan : List -> List;
orphan xs := xs;
"""
    from pikac.translate import compile_directive
    prog = elaborate(parse_source(prog_src))
    with pytest.raises(E.UnboundVariable):
        compile_directive(prog, "orphan")


def test_directive_arity_mismatch():
    with pytest.raises(E.ArityMismatch):
        elaborate(parse_source(LIST_DEFS + """
%generate two [Sll, Sll] Sll
two : List -> List;
two xs := xs;
"""))


def test_mode_defaults():
    prog = elaborate(parse_source(
        (HERE / "corpus" / "filter_lt9.pika").read_text()))
    fn = prog.fns["filterLt9"]
    assert fn.arg_layouts[0].mode == "readonly"
    assert fn.result_layout.mode == "mutable"
    assert fn.arg_layouts[0].tag() == "ro_Sll"
    assert fn.result_layout.tag(result=True) == "rw_Sll"


@pytest.mark.parametrize("defs, call, message", [
    # an ADT argument that is not resident at a layout
    ("len : List -> Int;\nlen (Nil) := 0;\nlen (Cons h t) := 1 + len t;",
     "len (Nil)", "for an argument of type List"),
    # a function argument
    ("add1 : Int -> Int;\nadd1 x := x + 1;\n"
     "app : (Int -> Int) -> Int -> Int;\n"
     "app f x := instantiate [Int] Int f x;",
     "app add1 n", "for type Int -> Int"),
], ids=["adt-argument", "function-argument"])
def test_implicit_instantiation_needs_an_inferable_layout(defs, call, message):
    # a call without `instantiate` takes its argument layouts from the
    # arguments' types; these two leave one undetermined
    src = (LIST_DEFS + defs
           + f"\n%generate g [Int] Int\ng : Int -> Int;\ng n := {call};\n")
    with pytest.raises(E.LayoutAdtMismatch, match=f"cannot infer a layout "
                       f"{message}; use instantiate") as err:
        elaborate(parse_source(src))
    assert err.value.rule == "T-INSTANTIATE"
