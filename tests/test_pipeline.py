"""Production pipeline tests: golden corpus, auxiliaries, goals, stages."""

import hashlib
import pathlib

import pytest

from pikac import errors as E
from pikac import ssl
from pikac.syntax import parse_source
from pikac.translate import STAGE_TITLES, compile_directive, dump_stages
from pikac.types import elaborate

HERE = pathlib.Path(__file__).parent
CORPUS = HERE / "corpus"
GOLDEN = HERE / "golden"

GOLDEN_CASES = sorted(p.stem for p in GOLDEN.glob("*.sus"))

# the reference output for foldMap reuses one variable for the materialised
# constructor root, the map output, and the fold argument; the systematic
# translation keeps those roles distinct, which no bijective renaming can
# reconcile (see the compile-time notes in the README)
EXPECTED_DIVERGENCES = {"fold_map"}


def compile_fixture(name):
    unit = parse_source((CORPUS / f"{name}.pika").read_text())
    prog = elaborate(unit)
    return compile_directive(prog, unit.directives[0].fn)


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_corpus(name):
    result = compile_fixture(name)
    reference = ssl.parse_predicate((GOLDEN / f"{name}.sus").read_text())
    equivalent = ssl.structural_equiv(result.predicate, reference)
    if name in EXPECTED_DIVERGENCES:
        assert not equivalent, \
            "documented divergence unexpectedly matches; update the records"
    else:
        assert equivalent, ssl.emit_predicate(result.predicate)


def test_fold_map_divergence_is_name_identification_only():
    """The foldMap output differs from the reference only by the reference
    identifying the constructor root with the map output variable."""
    result = compile_fixture("fold_map")
    reference = ssl.parse_predicate((GOLDEN / "fold_map.sus").read_text())
    merged = _merge_vars(result.predicate, "__p_x3", "__p_x2")
    assert ssl.structural_equiv(merged, reference)


def _merge_vars(pred, a, b):
    def fix_pure(t):
        if isinstance(t, ssl.PVar):
            return ssl.PVar(b if t.name == a else t.name)
        if isinstance(t, (ssl.PInt, ssl.PBool)):
            return t
        if isinstance(t, ssl.PNot):
            return ssl.PNot(fix_pure(t.arg))
        if isinstance(t, ssl.PTernary):
            return ssl.PTernary(fix_pure(t.cond), fix_pure(t.then),
                                fix_pure(t.els))
        return type(t)(fix_pure(t.lhs), fix_pure(t.rhs))

    def fix_heaplet(h):
        if isinstance(h, ssl.PointsTo):
            return ssl.PointsTo(b if h.base == a else h.base, h.offset,
                                fix_pure(h.value))
        if isinstance(h, ssl.Block):
            return ssl.Block(b if h.base == a else h.base, h.size)
        if isinstance(h, ssl.PredApply):
            return ssl.PredApply(h.name, tuple(map(fix_pure, h.args)))
        if isinstance(h, ssl.FuncApply):
            return ssl.FuncApply(h.name, tuple(map(fix_pure, h.args)))
        if isinstance(h, ssl.RoApply):
            return ssl.RoApply(h.name, tuple(map(fix_pure, h.args)))
        if isinstance(h, ssl.TempLoc):
            return ssl.TempLoc(b if h.var == a else h.var)
        return h

    branches = []
    for br in pred.branches:
        spatial = []
        seen = set()
        for h in map(fix_heaplet, br.body.spatial):
            if isinstance(h, (ssl.PointsTo, ssl.Block, ssl.TempLoc)):
                key = repr(h)
                if key in seen:
                    continue
                seen.add(key)
            spatial.append(h)
        branches.append(ssl.Branch(
            fix_pure(br.cond),
            ssl.SslAssertion.make(tuple(map(fix_pure, br.body.pure)),
                                  tuple(spatial))))
    return ssl.PredicateDef(pred.name, pred.params, tuple(branches))


def test_filter_equivalence_witnessed_by_short_renaming():
    """The compiled filter predicate matches a short-named variant under the
    bijection head/tail fixed, __p_x0 to x, __r_x to r, intermediate to y."""
    result = compile_fixture("filter_lt9")
    short = ssl.parse_predicate("""
predicate filterLt9__rw_Sll__ro_Sll(loc x, loc r) {
| (x == 0) => { r == 0 ; emp }
| ((not (x == 0)) && (head < 9)) => {
    x :-> head ** (x+1) :-> tail ** [x,2] **
    filterLt9__rw_Sll__ro_Sll(tail, r) }
| ((not (x == 0)) && (not (head < 9))) => {
    x :-> head ** (x+1) :-> tail ** [x,2] **
    filterLt9__rw_Sll__ro_Sll(tail, y) **
    r :-> head ** (r+1) :-> y ** [r,2] }
}""")
    assert ssl.structural_equiv(result.predicate, short)


# -- auxiliaries --

def test_append_emits_copy_auxiliary():
    result = compile_fixture("append")
    names = [p.name for p in result.copy_preds]
    assert names == ["Sll__copy"]
    copy = result.copy_preds[0]
    nil, cons = copy.branches
    assert nil.body.pure == (ssl.PEq(ssl.PVar("dst"), ssl.PInt(0)),)
    cons = cons.body
    assert any(isinstance(h, ssl.FuncApply) and h.name == "Sll__copy"
               for h in cons.spatial)


def test_copy_of_a_layout_that_applies_another_defines_both_copies():
    unit = parse_source("""
%generate idLL [LLayout] LLayout
data List := Nil | Cons Int List;
data ListOfLists := LNil | LCons List ListOfLists;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
LLayout : ListOfLists >-> layout[x];
LLayout (LNil) := emp;
LLayout (LCons h t) := x :-> h, (x+1) :-> t, Sll h, LLayout t;
idLL : ListOfLists -> ListOfLists;
idLL xs := xs;
""")
    result = compile_directive(elaborate(unit), "idLL")
    # the copied layout first, then the layouts it applies
    assert [p.name for p in result.copy_preds] == ["LLayout__copy",
                                                   "Sll__copy"]
    cons = result.copy_preds[0].branches[1].body
    assert [h.name for h in cons.spatial if isinstance(h, ssl.FuncApply)] \
        == ["Sll__copy", "LLayout__copy"]


def test_take_emits_read_only_auxiliary():
    result = compile_fixture("take")
    assert [p.name for p in result.ro_preds] == ["ro_Sll"]
    ro = result.ro_preds[0]
    nil, cons = ro.branches
    assert any(isinstance(h, ssl.RoApply) and h.name == "ro_Sll"
               for h in cons.body.spatial)


def test_map_sum_read_only_inner_list():
    result = compile_fixture("map_sum")
    nil, cons = result.predicate.branches
    assert ssl.RoApply("ro_Sll", (ssl.PVar("xs"),)) in cons.body.spatial
    assert "ro_Sll" in [p.name for p in result.ro_preds]


def test_layout_predicate_included_for_argument_layouts():
    # the argument layouts first, then the layouts they apply
    for fixture, names in [("filter_lt9", ["Sll"]),
                           ("map_sum", ["ListOfListsLayout", "Sll"])]:
        result = compile_fixture(fixture)
        assert [p.name for p in result.layout_preds] == names, fixture


# -- goal specifications --

def test_goal_spec_filter():
    result = compile_fixture("filter_lt9")
    goal = result.goal
    assert goal.params == (("loc", "x1"), ("loc", "r"))
    assert ssl.PredApply("Sll", (ssl.PVar("x1"),)) in goal.pre.spatial
    assert ssl.PointsTo("r", 0, ssl.PInt(0)) in goal.pre.spatial
    assert ssl.PointsTo("r", 0, ssl.PVar("r0")) in goal.post.spatial
    pred_apply = next(h for h in goal.post.spatial
                      if isinstance(h, ssl.PredApply))
    assert pred_apply.name == result.name
    assert pred_apply.args == (ssl.PVar("x1"), ssl.PVar("r0"))


def test_goal_spec_base_arguments_pass_contents():
    result = compile_fixture("fold")
    goal = result.goal
    assert ssl.PointsTo("x1", 0, ssl.PVar("v1")) in goal.pre.spatial
    pred_apply = next(h for h in goal.post.spatial
                      if isinstance(h, ssl.PredApply))
    assert pred_apply.args[0] == ssl.PVar("v1")
    assert pred_apply.args[1] == ssl.PVar("x2")


def test_goal_round_trips_through_parser():
    result = compile_fixture("filter_lt9")
    text = ssl.emit_goal_spec(result.goal)
    assert ssl.goal_structural_equiv(result.goal, ssl.parse_goal_spec(text))


# -- specialisation --

MAP_ADD1 = """
%generate mapAdd1 [Sll] Sll

data List := Nil | Cons Int List;

Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

map : (Int -> Int) -> List -> List;
map f (Nil) := Nil;
map f (Cons x xs) := Cons (instantiate [Int] Int f x) (map f xs);

add1 : Int -> Int;
add1 x := x + 1;

mapAdd1 : List -> List;
mapAdd1 xs := instantiate [Int -> Int, Sll] Sll map add1 xs;
"""


def test_function_argument_specialisation():
    unit = parse_source(MAP_ADD1)
    prog = elaborate(unit)
    result = compile_directive(prog, "mapAdd1")
    # the driver body calls the specialised function
    body = result.predicate.branches[0].body
    funcs = [h for h in body.spatial if isinstance(h, ssl.FuncApply)]
    assert funcs and funcs[0].name == "map_add1__rw_Sll__ro_Sll"
    # the specialised predicate is emitted and has the in-place map shape
    spec = next(p for p in result.extra_preds
                if p.name == "map_add1__rw_Sll__ro_Sll")
    ref = ssl.parse_predicate("""
predicate map_add1(loc x, loc r) {
| x == 0 => { r == 0 ; emp }
| not (x == 0) => { [x, 2] ** x :-> v ** (x+1) :-> xNxt ** [r, 2]
  ** r :-> (v+1) ** (r+1) :-> rNxt ** map_add1(xNxt, rNxt) }
}""")
    assert ssl.structural_equiv(spec, ref)


# map2 at add1 calls map at add1: a specialisation that is registered only
# when the translator elaborates map2's
MAP2_ADD1 = """
%generate mapAdd1 [Sll] Sll

data List := Nil | Cons Int List;

Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

map : (Int -> Int) -> List -> List;
map f (Nil) := Nil;
map f (Cons x xs) := Cons (instantiate [Int] Int f x) (map f xs);

map2 : (Int -> Int) -> List -> List;
map2 g (Nil) := Nil;
map2 g (Cons x xs) :=
    instantiate [Int -> Int, Sll] Sll map g (lower Sll (Cons x xs));

add1 : Int -> Int;
add1 x := x + 1;

mapAdd1 : List -> List;
mapAdd1 xs := instantiate [Int -> Int, Sll] Sll map2 add1 xs;
"""


def test_nested_specialisation_is_emitted():
    result = compile_directive(elaborate(parse_source(MAP2_ADD1)), "mapAdd1")
    preds = result.all_predicates()
    called = {h.name for p in preds for b in p.branches
              for h in b.body.spatial if isinstance(h, ssl.FuncApply)}
    assert called == {"map2_add1__rw_Sll__ro_Sll", "map_add1__rw_Sll__ro_Sll"}
    assert [p.name for p in result.extra_preds] == [
        "map2_add1__rw_Sll__ro_Sll", "map_add1__rw_Sll__ro_Sll"]
    # the same predicate as map at add1 called directly, which
    # test_function_argument_specialisation checks against its reference
    flat = compile_directive(elaborate(parse_source(MAP_ADD1)), "mapAdd1")
    assert ssl.structural_equiv(result.extra_preds[1], flat.extra_preds[0])


FOLD_SPECIALISED = """
%generate fold_List [Int, Sll] Int

data List := Nil | Cons Int List;

Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

f : Int -> Int -> Int;
f a b := a + b;

fold_List : Int -> List -> Int;
fold_List z (Nil) := z;
fold_List z (Cons x xs) :=
    instantiate [Int, Int] Int f x (fold_List z xs);
"""


def test_fold_with_addition_inlines_binary_function():
    unit = parse_source(FOLD_SPECIALISED)
    prog = elaborate(unit)
    result = compile_directive(prog, "fold_List")
    pred = result.predicate
    assert pred.name == "fold_List__Int__Int__ro_Sll"
    assert len(pred.branches) == 2
    nil, cons = pred.branches
    assert ssl.PEq(ssl.PVar("__r"), ssl.PVar("__p_0")) in nil.body.pure
    # result equals head plus the recursive output: no residual func heaplet
    assert not any(isinstance(h, ssl.FuncApply) for h in cons.body.spatial)
    eq = next(p for p in cons.body.pure
              if isinstance(p, ssl.PEq) and p.lhs == ssl.PVar("__r"))
    assert isinstance(eq.rhs, ssl.PAdd)
    assert eq.rhs.lhs == ssl.PVar("x")
    assert isinstance(eq.rhs.rhs, ssl.PVar)


# -- single-function forms --

def test_even_emits_ternary_constraint():
    unit = parse_source((HERE / "benchmarks" / "even.pika").read_text())
    prog = elaborate(unit)
    pred = compile_directive(prog, "even").predicate
    assert len(pred.branches) == 1
    (branch,) = pred.branches
    assert branch.cond == ssl.TRUE
    (eq,) = branch.body.pure
    assert isinstance(eq, ssl.PEq) and isinstance(eq.rhs, ssl.PTernary)
    assert branch.body.spatial == ()


def test_unmatched_ambiguous_layout_is_harmless():
    unit = parse_source("""
%generate broken [Sll] Sll

data List := Nil | Cons Int List;
data Pair := A Int | B Int;

Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

PairLayout : Pair >-> layout[x];
PairLayout (A v) := x :-> v;
PairLayout (B v) := x :-> v;

broken : List -> List;
broken (Nil) := Nil;
broken (Cons h t) := Cons h t;
""")
    # ambiguity comes from the second layout only when it is matched on
    prog = elaborate(unit)
    result = compile_directive(prog, "broken")
    assert result.predicate.name == "broken__rw_Sll__ro_Sll"


def test_ambiguous_layout_match_rejected():
    unit = parse_source("""
%generate pick [PairLayout] Int

data Pair := A Int | B Int;

PairLayout : Pair >-> layout[x];
PairLayout (A v) := x :-> v;
PairLayout (B v) := x :-> v;

pick : Pair -> Int;
pick (A v) := v;
pick (B v) := v;
""")
    prog = elaborate(unit)
    with pytest.raises(E.AmbiguousBranches):
        compile_directive(prog, "pick")


def test_call_output_stored_twice_is_not_constructible():
    # a call output reaches its cell through one location equality, which
    # cannot also fill a second cell of the same field
    unit = parse_source("""
%generate f [Sll] Dup

data List := Nil | Cons Int List;

Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

Dup : List >-> layout[x];
Dup (Nil) := emp;
Dup (Cons head tail) := x :-> head, (x+1) :-> head, (x+2) :-> tail, Dup tail;

sum : List -> Int;

f : List -> List;
f (Nil) := Nil;
f (Cons h t) := Cons (instantiate [Sll] Int sum t) (f t);
""")
    prog = elaborate(unit)
    with pytest.raises(E.NonConstructibleBody, match="field head of Cons"):
        compile_directive(prog, "f")


# -- stage snapshots --

def test_stage_titles_complete():
    unit = parse_source((CORPUS / "filter_lt9.pika").read_text())
    prog = elaborate(unit)
    stages = dump_stages(prog, "filterLt9")
    assert [t for t, _ in stages] == STAGE_TITLES


def test_stage_progression_filter():
    unit = parse_source((CORPUS / "filter_lt9.pika").read_text())
    prog = elaborate(unit)
    stages = dict(dump_stages(prog, "filterLt9"))
    assert "instantiate" in stages[STAGE_TITLES[0]]
    assert "lower" in stages[STAGE_TITLES[0]]
    assert "layout{ x :=> head, (x+1) :=> tail }" in stages[STAGE_TITLES[2]]
    assert stages[STAGE_TITLES[3]] == "Not applicable."
    assert stages[STAGE_TITLES[4]] == "Not applicable."
    final = stages[STAGE_TITLES[6]]
    assert final.count("=>") >= 3
    assert "(not (__p_x0 == 0)) && (head < 9)" in final


def _directives():
    sources = [(p.relative_to(HERE).as_posix(), p.read_text())
               for p in sorted(HERE.rglob("*.pika"))]
    for name, text in sources + [("MAP_ADD1", MAP_ADD1),
                                 ("MAP2_ADD1", MAP2_ADD1),
                                 ("FOLD_SPECIALISED", FOLD_SPECIALISED)]:
        for d in parse_source(text).directives:
            yield pytest.param(text, d.fn, id=f"{name}:{d.fn}")


@pytest.mark.parametrize("text, fn", _directives())
def test_generation_stage_is_the_compiled_output(text, fn):
    prog = elaborate(parse_source(text))
    stages = dict(dump_stages(prog, fn))
    assert stages[STAGE_TITLES[6]] == compile_directive(prog, fn).render()


@pytest.mark.parametrize("name, arm, ann", [
    ("singleton", "singleton x :=", "emp"),
    ("scanr", "scanr z (Nil) :=", "emp"),
    ("filter_lt9", "filterLt9 (Nil) :=", "__r_x == 0 ; emp"),
])
def test_stage3_claims_a_null_result_only_for_a_null_pointer(name, arm, ann):
    # an arm with no binder cells says `<result> == 0` only when its
    # stage-2 body is the null pointer; singleton and scanr's Nil arm build
    # a Cons cell
    unit = parse_source((CORPUS / f"{name}.pika").read_text())
    stages = dict(dump_stages(elaborate(unit), unit.directives[0].fn))
    line = next(l for l in stages[STAGE_TITLES[2]].splitlines()
                if l.startswith(arm))
    assert line == f"{arm} layout{{ {ann} }}"


def test_stage_copy_and_lets_fire():
    unit = parse_source((CORPUS / "append.pika").read_text())
    prog = elaborate(unit)
    stages = dict(dump_stages(prog, "append"))
    assert "Sll__copy" in stages[STAGE_TITLES[3]]
    unit = parse_source((CORPUS / "maximum.pika").read_text())
    prog = elaborate(unit)
    stages = dict(dump_stages(prog, "maximum"))
    assert "i ==" in stages[STAGE_TITLES[4]]


def test_stage_even_ternary_only_in_generation():
    unit = parse_source((HERE / "benchmarks" / "even.pika").read_text())
    prog = elaborate(unit)
    stages = dict(dump_stages(prog, "even"))
    assert "?" in stages[STAGE_TITLES[6]]
    assert stages[STAGE_TITLES[3]] == "Not applicable."
    assert stages[STAGE_TITLES[4]] == "Not applicable."


# sha256 over every shipped directive's path, function name and stage dump;
# a change to any stage's pass or snapshot rendering changes the digest
_STAGE_DUMP_DIGEST = (
    "84a269c9837d1f630d05113bc57f7670c42965240c4baba5b39e0f5739665194")


def test_stage_dumps_are_pinned():
    h = hashlib.sha256()
    n = 0
    for path in sorted(HERE.rglob("*.pika")):
        unit = parse_source(path.read_text())
        prog = elaborate(unit)
        for d in unit.directives:
            h.update(f"{path.relative_to(HERE).as_posix()} {d.fn}\n".encode())
            for title, body in dump_stages(prog, d.fn):
                h.update(f"{title}\n{body}\n".encode())
            n += 1
    assert n == 33
    assert h.hexdigest() == _STAGE_DUMP_DIGEST


def _location(t: ssl.PureTerm):
    """``(base, offset)`` of a location term ``x`` or ``(x+k)``, else None."""
    if isinstance(t, ssl.PVar):
        return t.name, 0
    if isinstance(t, ssl.PAdd) and isinstance(t.lhs, ssl.PVar) \
            and isinstance(t.rhs, ssl.PInt):
        return t.lhs.name, t.rhs.value
    return None


def _defined_in_output(func: str, specialised) -> bool:
    """Whether the output must define the predicate a ``func`` heaplet
    calls: a copy, or an instantiation of a function in ``specialised``.
    A function with no definition, such as fold's ``f``, stays a call."""
    return func.endswith("__copy") or func.split("__")[0] in specialised


def _assertion_defects(a: ssl.SslAssertion, arity: dict,
                       specialised=()) -> list:
    """Applications of predicates not in ``arity`` (name -> arity), and the
    cells of each block with no points-to.  A ``func`` heaplet counts as an
    application when ``_defined_in_output`` says so.  A cell whose location
    a pure conjunct equates with a ``func`` output is covered by that
    output."""
    outs = {h.args[-1] for h in a.spatial if isinstance(h, ssl.FuncApply)}
    covered = {_location(q) for p in a.pure if isinstance(p, ssl.PEq)
               for q, other in ((p.lhs, p.rhs), (p.rhs, p.lhs))
               if other in outs}
    covered |= {(h.base, h.offset) for h in a.spatial
                if isinstance(h, ssl.PointsTo)}
    out = []
    for h in a.spatial:
        applied = isinstance(h, (ssl.PredApply, ssl.RoApply)) or (
            isinstance(h, ssl.FuncApply)
            and _defined_in_output(h.name, specialised))
        if applied and arity.get(h.name) != len(h.args):
            out.append(ssl.render_heaplet(h))
        elif isinstance(h, ssl.Block):
            out += [f"[{h.base},{h.size}] misses {h.base}+{k}"
                    for k in range(h.size)
                    if (h.base, k) not in covered]
    return out


def test_emitted_output_is_closed_and_covers_its_blocks():
    n = 0
    defects = []
    for path in sorted(HERE.rglob("*.pika")):
        unit = parse_source(path.read_text())
        prog = elaborate(unit)
        for d in unit.directives:
            res = compile_directive(prog, d.fn)
            preds = res.all_predicates()
            arity = {p.name: len(p.params) for p in preds}
            for a in [b.body for p in preds for b in p.branches] \
                    + [res.goal.pre, res.goal.post]:
                defects += [(path.name, x)
                            for x in _assertion_defects(a, arity)]
            n += 1
    assert n == 33
    assert defects == []


@pytest.mark.parametrize("text, fn", _directives())
def test_output_defines_each_copy_and_specialisation_it_calls(text, fn):
    prog = elaborate(parse_source(text))
    res = compile_directive(prog, fn)
    preds = res.all_predicates()
    arity = {p.name: len(p.params) for p in preds}
    defects = [x for a in [b.body for p in preds for b in p.branches]
               + [res.goal.pre, res.goal.post]
               for x in _assertion_defects(a, arity, prog.env.specialised)]
    assert defects == []
