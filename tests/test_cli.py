"""Command-line driver tests: exit codes, outputs, and diagnostics."""

import os
import pathlib
import subprocess
import sys

import pytest

from pikac import cli
from pikac import ssl

HERE = pathlib.Path(__file__).parent
CORPUS = HERE / "corpus"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_writes_named_file(tmp_path, capsys):
    code, out, err = run(capsys, "compile", str(CORPUS / "singleton.pika"),
                         "--out", str(tmp_path))
    assert code == 0
    target = tmp_path / "singleton__rw_Sll__Int.sus"
    assert target.exists()
    preds = ssl.parse_sus_file(target.read_text())
    main = next(p for p in preds if p.name.startswith("singleton"))
    assert "(__r_x+1) :-> 0" in ssl.emit_predicate(main)


def test_compile_empty_program(tmp_path, capsys):
    empty = tmp_path / "empty.pika"
    empty.write_text("")
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "compile", str(empty), "--out", str(out_dir))
    assert code == 0
    assert not out_dir.exists() or not list(out_dir.glob("*.sus"))


def test_compile_deterministic(capsys):
    args = ("compile", str(CORPUS / "scanr.pika"), "--stdout",
            "--emit-goal-spec")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_compile_reports_rule_on_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIKA_COLOR", "0")
    bad = tmp_path / "bad.pika"
    bad.write_text("""
%generate f [TreeLayout] TreeLayout

data List := Nil | Cons Int List;
data Tree := Leaf | Node Int Tree Tree;

Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

TreeLayout : Tree >-> layout[x];
TreeLayout (Leaf) := emp;
TreeLayout (Node payload left right) := x :-> payload, (x+1) :-> left,
    (x+2) :-> right, TreeLayout left, TreeLayout right;

f : Tree -> Tree;
f t := lower TreeLayout (Cons 1 (Nil));
""")
    code, out, err = run(capsys, "compile", str(bad), "--stdout")
    assert code == 1
    assert "T-LOWER" in err


@pytest.mark.parametrize("text, rule, message", [
    ("%generate f [Int] Int\nf : Int -> Int;\nf x := if x then 1 else 2;",
     "T-IF", "expected Bool, found Int at 3:8"),
    ("%generate f [Bool] Int\nf : Bool -> Int;\n"
     "f x := if x then 1 else (x && x);",
     "T-IF", "expected Int, found Bool at 3:8"),
    ("%generate f [Int] Bool\nf : Int -> Bool;\nf x := not x;",
     "T-NOT", "expected Bool, found Int at 3:8"),
    ("%generate f [Bool] Int\nf : Bool -> Int;\nf x := let y := addr x in 1;",
     "T-ADDR", "expected Int, found Bool at 3:17"),
    ("%generate f [Int] Int\nf : Int -> Int;\nf x | x := 1;",
     "T-GUARD", "expected Bool, found Int at 3:1"),
    ("%generate f [Int] Int\nf : Int -> Int;\nf x := x && x;",
     "T-AND", "expected Bool, found Int at 3:10"),
    ("%generate f [Int] Int\nf : Int -> Int;\nf x := x || x;",
     "T-OR", "expected Bool, found Int at 3:10"),
    ("%generate f [Bool] Bool\nf : Bool -> Bool;\nf x := x < 1;",
     "T-LT", "expected Int, found Bool at 3:10"),
    ("%generate f [Int] Int\nf : Int -> Int;\nf x := x + true;",
     "T-ADD", "expected Int, found Bool at 3:10"),
], ids=["if-cond", "if-branches", "not", "addr", "guard", "and", "or", "lt",
        "add"])
def test_compile_names_the_rule_of_a_type_error(tmp_path, capsys, monkeypatch,
                                                text, rule, message):
    monkeypatch.setenv("PIKA_COLOR", "0")
    bad = tmp_path / "bad.pika"
    bad.write_text(text + "\n")
    code, out, err = run(capsys, "compile", str(bad), "--stdout")
    assert (code, err) == (1, f"error[{rule}]: {message}\n")


SLL_SOURCE = """data List := Nil | Cons Int List;
Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;
"""


@pytest.mark.parametrize("text, message", [
    ("%generate f [Sll] Sll\nf : List -> List;\nf (Nil) := 7;\n"
     "f (Cons h t) := Cons h (f t);", "expected Sll, found Int at 7:12"),
    ("%generate g [Sll] Int\ng : List -> Int;\ng (Nil) := 0;\n"
     "g (Cons h t) := true;", "expected Int, found Bool at 8:17"),
], ids=["int-at-layout", "bool-at-int"])
def test_body_must_have_the_result_type(tmp_path, capsys, monkeypatch, text,
                                        message):
    monkeypatch.setenv("PIKA_COLOR", "0")
    bad = tmp_path / "bad.pika"
    bad.write_text(SLL_SOURCE + text + "\n")
    code, out, err = run(capsys, "compile", str(bad), "--stdout")
    assert (code, out, err) == (1, "", f"error[G-FN]: {message}\n")


def test_compile_missing_file(capsys):
    code, out, err = run(capsys, "compile", "/nonexistent/input.pika")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("compile", "{}", "--stdout"), ("stages", "{}", "f"), ("run", "{}", "1"),
    ("soundness", "{}", "--count", "1")], ids=lambda a: a[0])
def test_undecodable_source_is_a_read_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.pika"
    bad.write_bytes(b"\xff\xfe data")
    code, out, err = run(capsys, *(a.format(bad) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "codec can't decode" in err and err.count("\n") == 1


def test_non_ascii_digits_are_illegal(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIKA_COLOR", "0")
    src = tmp_path / "sum.pika"
    src.write_text((CORPUS / "sum.pika").read_text().replace(
        "sum (Nil) := 0;", "sum (Nil) := \u0661\u0662;"), encoding="utf-8")
    code, out, err = run(capsys, "compile", str(src), "--stdout")
    assert (code, out) == (1, "")
    assert err == "error: illegal character '\u0661' at 10:14\n"


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    src = tmp_path / "sum.pika"
    src.write_bytes(b"\xef\xbb\xbf" + (CORPUS / "sum.pika").read_bytes())
    args = ("--stdout", "--emit-goal-spec")
    marked = run(capsys, "compile", str(src), *args)
    plain = run(capsys, "compile", str(CORPUS / "sum.pika"), *args)
    assert marked == plain and marked[0] == 0


def test_compile_goal_spec_flag(capsys):
    code, out, err = run(capsys, "compile", str(CORPUS / "filter_lt9.pika"),
                         "--stdout", "--emit-goal-spec")
    assert code == 0
    assert "void filterLt9(" in out
    assert "{ ?? }" in out


def test_stages_headings(capsys):
    code, out, err = run(capsys, "stages", str(CORPUS / "filter_lt9.pika"),
                         "filterLt9")
    assert code == 0
    for i, title in enumerate([
            "Type checking and elaboration.",
            "Unfold empty constructors.",
            "Unfold pattern matches using layouts.",
            "Insert copying predicate applications.",
            "Translate lets.",
            "Unfold constructor applications.",
            "Generation."], 1):
        assert f"{i}. {title}" in out
    assert out.count("Not applicable.") == 2


def test_stages_unknown_function(capsys):
    code, out, err = run(capsys, "stages", str(CORPUS / "filter_lt9.pika"),
                         "missing")
    assert code == 1


def test_run_addition(capsys):
    code, out, err = run(capsys, "run", str(CORPUS / "filter_lt9.pika"),
                         "3 + 4")
    assert code == 0
    assert out.splitlines()[0] == "7"
    assert "heap:\n  (empty)" in out


def test_run_builds_cells(capsys):
    code, out, err = run(capsys, "run", str(CORPUS / "filter_lt9.pika"),
                         "lower Sll (Cons 7 (lower Sll (Nil)))")
    assert code == 0
    assert out.splitlines()[0] == "Cons 7 (Nil)"
    heap_section = out.split("heap:")[1]
    assert len(heap_section.strip().splitlines()) == 2


def test_run_rejects_non_core(capsys):
    code, out, err = run(capsys, "run", str(CORPUS / "filter_lt9.pika"),
                         "if true then 1 else 2")
    assert code == 1
    assert "outside the machine subset" in err


def test_soundness_small_run(capsys):
    code, out, err = run(capsys, "soundness",
                         str(CORPUS / "soundness_sig.pika"),
                         "--count", "50", "--seed", "3")
    assert code == 0
    assert "50 instances satisfiable" in out


def test_soundness_unknown_is_not_a_counterexample(capsys):
    code, out, err = run(capsys, "soundness",
                         str(CORPUS / "soundness_sig.pika"),
                         "--seed", "45", "--count", "1", "--budget", "48",
                         "--depth", "2")
    assert code == 3
    assert out.startswith("unknown (seed 45): unfolding depth bound exhausted")
    assert "counterexample" not in out


def test_soundness_field_with_no_layout_is_a_diagnostic(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("PIKA_COLOR", "0")
    src = tmp_path / "box.pika"
    src.write_text("""
data List := Nil | Cons Int List;
data Box := B List;

BoxL : Box >-> layout[x];
BoxL (B l) := emp;

idBox : Box -> Box;
idBox (B l) := lower BoxL (B l);
""")
    code, out, err = run(capsys, "soundness", str(src), "--count", "1")
    assert (code, out) == (1, "")
    # idBox does not elaborate, so the pool is empty and its elaboration
    # error is reported
    assert err == "error[T-LOWER-CONSTR]: no layout known for field of B " \
                  "at 9:28\n"


def test_soundness_draws_bool_fields(tmp_path, capsys):
    src = tmp_path / "bool.pika"
    src.write_text("""
data B := Mk Bool;
BL : B >-> layout[x];
BL (Mk b) := x :-> b;
idB : B -> B;
idB (Mk b) := lower BL (Mk b);
""")
    code, out, err = run(capsys, "soundness", str(src), "--count", "40")
    assert (code, err) == (0, "")
    assert out.startswith("soundness: 40 instances satisfiable")


def test_soundness_function_field_is_a_diagnostic(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("PIKA_COLOR", "0")
    src = tmp_path / "fn.pika"
    src.write_text("""
data F := MkF (Int -> Int);
FL : F >-> layout[x];
FL (MkF g) := x :-> g;
idF : F -> F;
idF (MkF g) := lower FL (MkF g);
""")
    code, out, err = run(capsys, "soundness", str(src), "--count", "1")
    assert (code, out) == (1, "")
    assert err == "error[T-LOWER-CONSTR]: argument of MkF is not concrete " \
                  "at type Int -> Int at 6:26\n"


# two layouts of one ADT, the one with the fields swapped declared first;
# each function elaborates only at some pairs of them
TWO_LAYOUTS = """
data List := Nil | Cons Int List;

SllR : List >-> layout[x];
SllR (Nil) := emp;
SllR (Cons head tail) := x :-> tail, (x+1) :-> head, SllR tail;

Sll : List >-> layout[x];
Sll (Nil) := emp;
Sll (Cons head tail) := x :-> head, (x+1) :-> tail, Sll tail;

idList : List -> List;
idList (Nil) := lower Sll (Nil);
idList (Cons h t) := lower Sll (Cons h t);

conv : List -> List;
conv (Nil) := lower Sll (Nil);
conv (Cons h t) := lower Sll (Cons h (instantiate [SllR] Sll conv t));

incAll : List -> List;
incAll (Nil) := lower SllR (Nil);
incAll (Cons h t) :=
  lower SllR (Cons (h + 1) (instantiate [SllR] SllR incAll t));
"""


@pytest.mark.parametrize("budget", ["12", "48"])
def test_soundness_draws_each_layout_a_function_elaborates_at(
        tmp_path, capsys, budget):
    from pikac.modelcheck import CoreSignature
    from pikac.syntax import parse_source
    from pikac.types import build_global_env
    src = tmp_path / "two.pika"
    src.write_text(TWO_LAYOUTS)
    sig = CoreSignature.from_env(build_global_env(parse_source(TWO_LAYOUTS)))
    assert sig.pool == [("conv", "SllR", "Sll"), ("idList", "Sll", "Sll"),
                        ("incAll", "SllR", "SllR")]
    # every draw type-checks before it is checked, or the run stops
    code, out, err = run(capsys, "soundness", str(src), "--count", "2000",
                         "--budget", budget)
    assert (code, err) == (0, "")
    assert out.startswith("soundness: 2000 instances satisfiable")


def test_soundness_ill_typed_draw_is_a_diagnostic(capsys, monkeypatch):
    # a generator defect must not pass silently as a satisfiable instance
    import pikac.modelcheck as mc
    from pikac.syntax import parse_expr_text
    monkeypatch.setenv("PIKA_COLOR", "0")
    bad = parse_expr_text("lower Sll (Cons true (lower Sll (Nil)))")
    monkeypatch.setattr(mc, "gen_core_expr", lambda sig, seed, budget: bad)
    code, out, err = run(capsys, "soundness",
                         str(CORPUS / "soundness_sig.pika"), "--count", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error[T-LOWER-CONSTR]: ")


def test_soundness_zero_count_usage_error(capsys):
    code, out, err = run(capsys, "soundness",
                         str(CORPUS / "soundness_sig.pika"), "--count", "0")
    assert code == 2


def test_soundness_reports_counterexample_for_broken_translation(
        capsys, monkeypatch):
    import pikac.modelcheck as mc
    real = mc.translate_fn_def_core

    def broken(env, fn, layout, result_ref):
        pred = real(env, fn, layout, result_ref)
        branches = []
        for b in pred.branches:
            spatial = tuple(h for h in b.body.spatial
                            if not isinstance(h, ssl.PointsTo))
            branches.append(ssl.Branch(
                b.cond, ssl.SslAssertion.make(b.body.pure, spatial)))
        return ssl.PredicateDef(pred.name, pred.params, tuple(branches))

    monkeypatch.setattr(mc, "translate_fn_def_core", broken)
    code, out, err = run(capsys, "soundness",
                         str(CORPUS / "soundness_sig.pika"),
                         "--count", "200", "--seed", "0")
    assert code == 1
    assert "counterexample" in out


def test_color_control(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.pika"
    bad.write_text("%generate nope [Int] Int\n")
    monkeypatch.setenv("PIKA_COLOR", "1")
    code, out, err = run(capsys, "compile", str(bad), "--stdout")
    assert code == 1
    assert "\x1b[31m" in err
    monkeypatch.setenv("PIKA_COLOR", "0")
    code, out, err = run(capsys, "compile", str(bad), "--stdout")
    assert "\x1b[31m" not in err


def test_compile_and_stages_leave_the_checker_unimported():
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    code = ("import sys; from pikac import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, [m for m in ('pikac.interp', 'pikac.modelcheck', "
            "'dataclasses') if m in sys.modules])")
    for argv in (["compile", str(CORPUS / "filter_lt9.pika"), "--stdout"],
                 ["stages", str(CORPUS / "filter_lt9.pika"), "filterLt9"]):
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr
