"""Tests of the benchmark itself: tiny runs of every workload, and checks
that wrong outputs are counted.  Run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
from workloads import ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, workload, trace):
    status = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.05",
                       "--trace", str(trace), "--size", "3"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(capsys, workload):
    lines, result = _result(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.strip().startswith("failed_share = ") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_prints_every_layer_metric(capsys, workload):
    _, result = _result(capsys, workload, 1)
    # correct also says the traced counts equal the untraced ones
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for layer in WORKLOADS[workload].layers:
        assert metrics[f"{layer}.ms"]["value"] > 0
        assert 0 < metrics[f"{layer}.share"]["value"] < 1
    assert metrics["trace.overhead"]["value"] > 0


def _measure(workload, seed, size, seconds=0.0, **expect):
    wl = WORKLOADS[workload]
    state = wl.setup(seed, size)
    return run.measure(wl, state, seconds, wl.checker(state, **expect))


def test_wrong_golden_output_fails_compile():
    wl = WORKLOADS["compile_corpus"]
    state = wl.setup(0)
    right = wl.checker(state).golden
    # give every corpus file the golden output of another file
    names = sorted(right)
    wrong = {name: right[names[(i + 1) % len(names)]]
             for i, name in enumerate(names)}
    res = run.measure(wl, state, 0.0, wl.checker(state, golden=wrong))
    assert res.failed > 0 and res.wrong == res.failed
    assert all("golden" in reason for reason in res.failures.values())


def test_right_golden_output_passes_compile():
    res = _measure("compile_corpus", 0, None)
    assert res.failed == 0 and res.inputs == 33 and res.ops >= 33


def test_wrong_expected_verdict_fails_soundness():
    res = _measure("soundness_shallow", 0, 3, expect="Unsat")
    assert res.failed == res.inputs == 3
    assert res.wrong == 0


def test_non_sat_verdict_is_a_counted_failure():
    # instance seed 45 at budget 48 is the ROADMAP item-1 case; whatever
    # the checker answers, the benchmark must count a non-Sat as failed
    wl = WORKLOADS["soundness_deep"]
    state = wl.setup(45, 1)
    verdict = type(wl.op(state, state.inputs[0]).result).__name__
    res = run.measure(wl, state, 0.0, wl.checker(state))
    assert res.failed == (0 if verdict == "Sat" else 1)
    counts, _ = run.first_pass_counts(res)
    assert counts[f"modelcheck.satisfies.{verdict.lower()}"] == 1
    assert (45 in res.failures) == (verdict != "Sat")


def test_failed_counts_inputs_not_passes():
    # a failed input counts once and is not run again, so two runs of one
    # seed agree on ``failed`` however many passes they made
    right = _measure("soundness_shallow", 0, 3, 0.3)
    assert right.ops > right.inputs == 3 and right.failed == 0
    for seconds in (0.0, 0.3):
        res = _measure("soundness_shallow", 0, 3, seconds, expect="Unsat")
        assert res.ops == res.inputs == res.failed == 3 and res.wrong == 0


def test_op_past_the_time_limit_is_stopped_and_counted(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.05)

    def spin(state, inp):
        while True:
            pass

    state = SimpleNamespace(inputs=[("spin", None)])
    res = run.measure(SimpleNamespace(op=spin), state, 0.0, check=None)
    assert res.failed == res.ops == 1 and res.wrong == 0
    assert res.failures["spin"].startswith("OpTimeout")


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile_corpus",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
