"""The acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single pass/fail line.  Run with ``pytest tests/test_acceptance.py
-s`` to see the lines.
"""

import itertools
import pathlib
import random
import time

import pytest

from pikac import ssl
from pikac import syntax as S
from pikac import errors as E
from pikac.interp import IntVal, LocVal, Model
from pikac.modelcheck import (
    CoreSignature, Sat, Unknown, check_otimes, check_soundness,
    eval_pure_bool, gen_core_expr,
)
from pikac.syntax import (
    count_unit_nodes, parse_expr_text, parse_source, pretty_print,
)
from pikac.translate import compile_directive, cond, dump_stages
from pikac.types import LayoutType, build_global_env, elaborate, infer_expr

HERE = pathlib.Path(__file__).parent
CORPUS = HERE / "corpus"
GOLDEN = HERE / "golden"
BENCH = HERE / "benchmarks"

GOLDEN_CASES = sorted(p.stem for p in GOLDEN.glob("*.sus"))
DOCUMENTED_DIVERGENCES = {"fold_map"}


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Golden corpus equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_golden_corpus():
    start = time.monotonic()
    exact, diverged = [], []
    for name in GOLDEN_CASES:
        unit = parse_source((CORPUS / f"{name}.pika").read_text())
        prog = elaborate(unit)
        result = compile_directive(prog, unit.directives[0].fn)
        reference = ssl.parse_predicate((GOLDEN / f"{name}.sus").read_text())
        if ssl.structural_equiv(result.predicate, reference):
            exact.append(name)
        else:
            diverged.append(name)
    elapsed = time.monotonic() - start
    ok = (len(GOLDEN_CASES) == 20 and len(exact) >= 16
          and set(diverged) <= DOCUMENTED_DIVERGENCES and elapsed < 5.0)
    report("criterion 1: golden corpus equivalence", ok,
           f"{len(exact)}/20 exact, divergences {sorted(diverged)} "
           f"(documented: {sorted(DOCUMENTED_DIVERGENCES)}), "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Stage-walkthrough fidelity
# ---------------------------------------------------------------------------

def test_criterion_2_stage_walkthrough():
    unit = parse_source((CORPUS / "filter_lt9.pika").read_text())
    prog = elaborate(unit)
    stages = dump_stages(prog, "filterLt9")
    rendered = "".join(f"{i}. {title}\n{body}\n\n"
                       for i, (title, body) in enumerate(stages, 1))
    snapshot = (HERE / "snapshots" / "filterlt9_stages.txt").read_text()
    by_title = dict(stages)
    checks = [
        rendered == snapshot,
        "instantiate" in by_title["Type checking and elaboration."],
        "lower" in by_title["Type checking and elaboration."],
        "layout{ x :=> head, (x+1) :=> tail }"
        in by_title["Unfold pattern matches using layouts."],
        by_title["Insert copying predicate applications."] == "Not applicable.",
        by_title["Translate lets."] == "Not applicable.",
        by_title["Generation."].count("| ") >= 3,
        "(not (__p_x0 == 0)) && (head < 9)" in by_title["Generation."],
    ]
    report("criterion 2: stage-walkthrough fidelity", all(checks),
           f"{sum(checks)}/{len(checks)} checks")


# ---------------------------------------------------------------------------
# 3. Machine-vs-translation property suite
# ---------------------------------------------------------------------------

def test_criterion_3_soundness_suite():
    genv = build_global_env(
        parse_source((CORPUS / "soundness_sig.pika").read_text()))
    sig = CoreSignature.from_env(genv)
    start = time.monotonic()
    unsat = unknown = 0
    for seed in range(1000):
        expr = gen_core_expr(sig, seed, budget=12)
        result = check_soundness(genv, expr, depth=64).result
        if isinstance(result, Unknown):
            unknown += 1
        elif not isinstance(result, Sat):
            unsat += 1
    elapsed = time.monotonic() - start
    ok = unsat == 0 and unknown == 0 and elapsed < 60.0
    report("criterion 3: soundness property suite", ok,
           f"1000 instances, {unsat} unsatisfied, {unknown} unknown, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Branch discriminator oracle
# ---------------------------------------------------------------------------

SUITE_DEFS = """
data List := Nil | Cons Int List;
data Tree := Leaf | Node Int Tree Tree;
data ListOfLists := LNil | LCons List ListOfLists;
data Zipped := ZNil | ZCons Int Int Zipped;

Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

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

PAYLOADS = [0, 1, 2]


def _enumerate_values(genv, adt, depth):
    """Brute-force oracle: all constructor trees of nesting depth at most
    ``depth`` with integer payloads drawn from PAYLOADS."""
    if depth == 0:
        return []
    out = []
    for ctor, (ftys, owner) in genv.ctors.items():
        if owner != adt:
            continue
        options = []
        for fty in ftys:
            if isinstance(fty, S.TName):
                sub = _enumerate_values(genv, fty.name, depth - 1)
                if not sub:
                    break
                options.append(sub)
            else:
                options.append([("int", v) for v in PAYLOADS])
        else:
            for combo in itertools.product(*options):
                out.append(("ctor", ctor, combo))
            continue
    return out


def _branch(layout, ctor):
    """The pattern and heaplets of ``layout``'s branch for ``ctor``, read
    from the branches as written."""
    return next((pat, hs) for pat, hs in layout.branches if pat.ctor == ctor)


def _layout_for_field(genv, layout, ctor, var, fty):
    for h in _branch(layout, ctor)[1]:
        if isinstance(h, S.HApply) and h.arg == var:
            return genv.layouts[h.layout]
    for candidate in genv.layouts.values():
        if candidate.adt == fty.name:
            return candidate
    raise AssertionError("no layout for field")


def _null_encode(genv, layout, value, heap, counter):
    """Encode a constructor tree as a null-encoded heap: empty branches are
    the location 0, non-empty branches allocate a fresh block."""
    _, ctor, fields = value
    pat, branch = _branch(layout, ctor)
    if all(isinstance(h, S.HEmp) for h in branch):
        return 0
    offsets = {h.payload: h.offset for h in branch
               if isinstance(h, S.HPointsTo)}
    size = max(offsets.values()) + 1
    base = counter[0]
    counter[0] += size
    ftys = genv.ctors[ctor][0]
    for var, field, fty in zip(pat.vars, fields, ftys):
        if field[0] == "int":
            heap[base + offsets[var]] = IntVal(field[1])
        else:
            sub_layout = _layout_for_field(genv, layout, ctor, var, fty)
            sub_root = _null_encode(genv, sub_layout, field, heap, counter)
            heap[base + offsets[var]] = IntVal(sub_root)
    return base


def test_criterion_4_branch_discriminator_oracle():
    genv = build_global_env(parse_source(SUITE_DEFS))
    checked = violations = 0
    for layout in genv.layouts.values():
        values = _enumerate_values(genv, layout.adt, 3)
        assert values
        ctors = [p.ctor for p, _ in layout.branches]
        for value in values:
            heap = {}
            counter = [1]
            root = _null_encode(genv, layout, value, heap, counter)
            binding = {layout.ssl_params[0]: IntVal(root)}
            for ctor in ctors:
                expected = (ctor == value[1])
                got = eval_pure_bool(binding, cond(layout, ctor))
                checked += 1
                if got != expected:
                    violations += 1
    report("criterion 4: branch discriminator oracle", violations == 0,
           f"{checked} checks over 4 layouts, {violations} violations")


# ---------------------------------------------------------------------------
# 5. Assertion pairing property suite
# ---------------------------------------------------------------------------

def _random_model(rng, base_loc, prefix):
    store, heap, pure, spatial = {}, {}, [], []
    for i in range(rng.randint(0, 3)):
        loc = base_loc + 2 * i
        value = rng.randint(0, 9)
        name = f"{prefix}{i}"
        store[name] = LocVal(loc)
        heap[loc] = IntVal(value)
        spatial.append(ssl.PointsTo(name, 0, ssl.PInt(value)))
    if rng.random() < 0.5:
        name = f"{prefix}v"
        value = rng.randint(0, 9)
        store[name] = IntVal(value)
        pure.append(ssl.PEq(ssl.PVar(name), ssl.PInt(value)))
    return store, heap, ssl.SslAssertion.make(pure, spatial)


def test_criterion_5_pairing_suite():
    rng = random.Random(2024)
    violations = 0
    for _ in range(1000):
        sa, ha, pa = _random_model(rng, 1, "a")
        sb, hb, pb = _random_model(rng, 101, "b")
        sb = {**sa, **sb}
        if not check_otimes(Model(sa, ha), Model(sb, hb), pa, pb):
            violations += 1
    report("criterion 5: assertion pairing suite", violations == 0,
           f"1000 compatible pairs, {violations} violations")


# ---------------------------------------------------------------------------
# 6. Typing negative suite
# ---------------------------------------------------------------------------

NEG_DEFS = SUITE_DEFS + """
leftList : Tree -> List;
mk : Int -> List;
"""

_G = {
    "xs": LayoutType("Sll"), "t": LayoutType("TreeLayout"),
    "zz": LayoutType("ZippedLayout"), "ll": LayoutType("ListOfListsLayout"),
    "ys": S.TName("List"), "tt": S.TName("Tree"), "n": S.TInt(),
    "b": S.TBool(),
}

LAYOUT_MISMATCH = [
    "lower TreeLayout (Cons 1 (Nil))",
    "lower Sll (Leaf)",
    "lower TreeLayout (Nil)",
    "lower Sll (Node 1 t t)",
    "lower TreeLayout ys",
    "lower Sll t",
    "lower ZippedLayout (Cons 1 (Nil))",
    "instantiate [TreeLayout] Sll leftList xs",
    "lower ListOfListsLayout (Cons 2 (Nil))",
    "instantiate [Sll] TreeLayout leftList t",
]

UNBOUND = [
    "q",
    "1 + q",
    "q + 1",
    "g 1",
    "not q",
    "addr q",
    "if q then 1 else 2",
    "let a := q in a",
    "q == 2",
    "instantiate [Sll] Sll undefinedfn missingvar",
]

ARITY = [
    "Cons 1",
    "Cons 1 (Nil) (Nil)",
    "Nil 1",
    "Node 1",
    "Node 1 t",
    "lower Sll (Cons 1)",
    "Node 1 t t t",
    "ZCons 1 2",
    "LCons ys",
    "lower TreeLayout (Node 2)",
]

NOT_CONCRETE = [
    "lower Sll (Cons 1 (Cons 2 (Nil)))",
    "lower Sll (Cons 1 ys)",
    "lower TreeLayout (Node 1 (Node 2 (Leaf) (Leaf)) t)",
    "lower Sll (Cons 1 (Leaf))",
    "lower ZippedLayout (ZCons 1 2 (ZNil))",
    "lower ListOfListsLayout (LCons (Nil) (LNil))",
    "lower TreeLayout (Node 1 (Leaf) (Leaf))",
    "lower Sll (Cons 1 (mk 3))",
    "lower ListOfListsLayout (LCons ys (LNil))",
    "lower TreeLayout (Node 1 tt tt)",
]


def _reject_all(genv, fixtures, exc_type, rules):
    failures = []
    for text in fixtures:
        try:
            infer_expr(genv, dict(_G), parse_expr_text(text))
            failures.append((text, "accepted"))
        except exc_type as exc:
            if not any(r in (exc.rule or "") for r in rules):
                failures.append((text, f"rule {exc.rule}"))
        except E.PikaError as exc:
            failures.append((text, f"{type(exc).__name__}[{exc.rule}]"))
    return failures


def test_criterion_6_negative_suite():
    genv = build_global_env(parse_source(NEG_DEFS))
    failures = []
    failures += _reject_all(genv, LAYOUT_MISMATCH, E.LayoutAdtMismatch,
                            ["T-LOWER", "T-INSTANTIATE"])
    failures += _reject_all(genv, UNBOUND, E.UnboundVariable,
                            ["T-VAR", "T-FN-GLOBAL"])
    failures += _reject_all(genv, ARITY, E.ArityMismatch, ["T-CONSTR"])
    failures += _reject_all(genv, NOT_CONCRETE, E.NotConcrete,
                            ["T-LOWER-CONSTR"])
    # variable reuse compiles: the failure mode is downstream of emission
    unit = parse_source((CORPUS / "self_append.pika").read_text())
    prog = elaborate(unit)
    result = compile_directive(prog, "selfAppend")
    self_append_ok = result.predicate.name == "selfAppend__rw_Sll__ro_Sll"
    args = next(h for h in result.predicate.branches[0].body.spatial
                if isinstance(h, ssl.FuncApply)).args
    self_append_ok = self_append_ok and args[0] == args[1]
    ok = not failures and self_append_ok
    report("criterion 6: typing negative suite", ok,
           f"40 fixtures rejected with expected rules, "
           f"variable-reuse program compiles; failures: {failures}")


# ---------------------------------------------------------------------------
# 7. Round-trip
# ---------------------------------------------------------------------------

def test_criterion_7_round_trip():
    sources = sorted(CORPUS.glob("*.pika")) + sorted(BENCH.glob("*.pika"))
    parse_failures = []
    for path in sources:
        unit = parse_source(path.read_text())
        reparsed = parse_source(pretty_print(unit))
        if reparsed != unit or \
                parse_source(pretty_print(reparsed)) != reparsed:
            parse_failures.append(path.stem)
    emit_failures = []
    for path in sorted(GOLDEN.glob("*.sus")):
        pred = ssl.parse_predicate(path.read_text())
        once = ssl.parse_predicate(ssl.emit_predicate(pred))
        twice = ssl.parse_predicate(ssl.emit_predicate(once))
        if not (ssl.structural_equiv(pred, once)
                and ssl.structural_equiv(once, twice)):
            emit_failures.append(path.stem)
    ok = not parse_failures and not emit_failures
    report("criterion 7: round-trip", ok,
           f"{len(sources)} sources re-parse, "
           f"{len(list(GOLDEN.glob('*.sus')))} emissions idempotent; "
           f"failures: {parse_failures + emit_failures}")


# ---------------------------------------------------------------------------
# 8. Expressiveness size comparison
# ---------------------------------------------------------------------------

def test_criterion_8_ast_size_ratio():
    ratios = {}
    smaller = []
    for path in sorted(BENCH.glob("*.pika")):
        unit = parse_source(path.read_text())
        prog = elaborate(unit)
        result = compile_directive(prog, unit.directives[0].fn)
        pika_n = count_unit_nodes(unit)
        ssl_n = sum(ssl.count_predicate_nodes(p)
                    for p in result.all_predicates())
        ssl_n += ssl.count_goal_nodes(result.goal)
        ratios[path.stem] = pika_n / ssl_n
        smaller.append(pika_n < ssl_n)
    in_band = sum(1 for r in ratios.values() if 0.4 < r < 0.8)
    ok = len(ratios) == 13 and all(smaller) and in_band >= 10
    pretty = {k: round(v, 3) for k, v in sorted(ratios.items())}
    report("criterion 8: source-vs-emitted size ratio", ok,
           f"{in_band}/13 ratios in (0.4, 0.8), all sources smaller; "
           f"{pretty}")
