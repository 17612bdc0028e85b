"""Command-line driver tests: exit codes, outputs, and diagnostics."""

import pathlib

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


def test_compile_missing_file(capsys):
    code, out, err = run(capsys, "compile", "/nonexistent/input.pika")
    assert code == 2


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
                b.cond, ssl.SslAssertion.make(b.body.pure, spatial),
                ctor=b.ctor))
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
