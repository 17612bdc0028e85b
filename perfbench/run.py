"""Closed-loop benchmark of pikac.

    python3 perfbench/run.py --workload compile_corpus --seed 0 --seconds 40 --trace 0

One thread runs one op at a time in-process; the next op starts when the
previous one returns.  Set-up (import, inputs, expression generation) runs
several times and is timed apart from the ops.  Every output is checked
outside the timed region.  With ``--trace 1`` the run is split into an
untraced half and a half with spans around the calls into each layer; it
reports the per-layer metrics and writes the spans to ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  ``--workload all`` runs every
workload, each in its own process.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from workloads import ROOT, WORKLOADS, MissingProgram, count_call

HERE = Path(__file__).resolve().parent
SETUPS = 15           # set-ups per untraced run; setup_s is their median
# An op still running after this long is stopped and counted as failed: at
# budget 48 a few instances in ten thousand search for 2 to 30 s or more
# before a false Unsat, and a run must end in bounded time and make enough
# passes for its best-of times.  No Sat instance seen took over 0.71 s.
OP_LIMIT_S = 2.0
# Passes move to the next CPU at most this often, so that the op after a
# move (which starts with cold caches) is a rare pass for any one input.
CPU_DWELL_S = 0.5

# Per-op counts each layer reports, from ``workloads.count_call``.
LAYER_COUNTS = {
    "syntax.lex": ("tokens",),
    "syntax.parse_program": ("ast_nodes",),
    "types.elaborate": ("fns",),
    "translate.compile_directive": ("directives", "predicates", "ssl_nodes"),
    "ssl.emit": ("bytes",),
    "interp.eval_expr": ("heap_cells",),
    "translate.translate_expr_core": ("assertion_nodes",),
    "modelcheck.build_predicate_env": ("preds",),
    "modelcheck.satisfies": (),
}


class OpTimeout(BaseException):
    """Raised into an op that has run for ``OP_LIMIT_S``.  It derives from
    BaseException so that no handler inside the program swallows it."""


def _stop_op(signum, frame):
    raise OpTimeout(f"no result within {OP_LIMIT_S:g} s")


def run_limited(op, state, inp):
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        return op(state, inp)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def allowed_cpus():
    """The CPUs this process may run on; empty where that cannot be set."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def measure(wl, state, seconds, check, tracer=None, pause=None, pauses=0):
    """Run ops over the inputs in passes until ``seconds`` have passed and
    every input has run once.  Each input keeps its fastest time over the
    passes: other work on the host only ever adds time, so the fastest pass
    is the program's own cost.  The passes take turns on the CPUs the
    process may use, so that a neighbour busy on one core for minutes does
    not slow every pass.  An input whose op fails counts once and is not
    run again, so ``failed`` and ``wrong`` depend on the inputs and not on
    how many passes the time allowed; repeating a false Unsat search of up
    to ``OP_LIMIT_S`` would also take the passes that the best-of times
    need, more so on seeds that draw more of them.  ``first`` holds the
    counts of each input's first-pass op that returned.  ``pause`` runs
    ``pauses`` times, evenly spread, between ops."""
    op = wl.op if tracer is None else tracer.wrap("op", wl.op)
    inputs = state.inputs
    n = len(inputs)
    best = [float("inf")] * n
    first, failures = {}, {}
    failed, wrong = set(), set()
    nonsat_s = 0.0
    now = perf_counter()
    deadline = now + seconds
    pause_at = [now + seconds * (i + 1) / (pauses + 1) for i in range(pauses)]
    k = ops = 0
    cpus = allowed_cpus()
    turn, move_at = 0, now
    previous = signal.signal(signal.SIGALRM, _stop_op)
    try:
        while k < n or perf_counter() < deadline:
            if k % n == 0 and len(cpus) > 1 and perf_counter() >= move_at:
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                turn += 1
                move_at = perf_counter() + CPU_DWELL_S
            if pause_at and perf_counter() >= pause_at[0]:
                pause_at.pop(0)
                pause()
            if k % n in failed:
                k += 1
                continue
            inp = inputs[k % n]
            if tracer is not None:
                tracer.op = k
                tracer.calls.clear()
            start = perf_counter()
            try:
                out, err = run_limited(op, state, inp), None
            except (Exception, OpTimeout) as exc:
                out, err = None, exc
            best[k % n] = min(best[k % n], perf_counter() - start)
            ops += 1
            if err is None:
                reason, bad = check(inp, out)
            else:
                # a stopped op gave no answer; an exception is a wrong one
                reason = f"{type(err).__name__}: {err}"
                bad = not isinstance(err, OpTimeout)
            if reason:
                failed.add(k % n)
                if bad:
                    wrong.add(k % n)
                failures.setdefault(inp[0], reason)
            if tracer is not None:
                nonsat_s += sum(tracer.duration(i) for name, v, i in tracer.calls
                                if name == "modelcheck.satisfies"
                                and type(v).__name__ != "Sat")
            if k < n and out is not None:
                calls = ([(name, wl.layer_value(name, v))
                          for name, v, _ in tracer.calls]
                         if tracer is not None else wl.layer_calls(state, inp, out))
                counts, pred_sets = Counter(), set()
                for name, value in calls:
                    count_call(state.m, name, value, counts, pred_sets)
                first[k] = (counts, pred_sets)
            k += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return SimpleNamespace(best=best, ops=ops, inputs=n, failed=len(failed),
                           failed_inputs=failed, wrong=len(wrong),
                           failures=failures, first=first, nonsat_s=nonsat_s)


def first_pass_counts(res):
    """Counts summed over the first-pass ops that returned, and how many
    ops that is."""
    counts, pred_sets = Counter(), set()
    for c, sets in res.first.values():
        counts.update(c)
        pred_sets |= sets
    counts["modelcheck.build_predicate_env.distinct"] = len(pred_sets)
    return counts, len(res.first)


def counts_agree(a, b):
    """Whether every input whose first-pass op returned in both runs did
    the same work in both."""
    return all(a.first[i] == b.first[i] for i in a.first.keys() & b.first.keys())


def ops_per_s(best):
    """Inputs per second of best time over all but the slowest 1% of the
    inputs.  The few rare instances that search for a second or more (the
    false Unsat of ROADMAP item 1) would otherwise decide the figure by
    whether a seed happens to draw them; they count in ``failed``."""
    kept = sorted(best)[:len(best) - len(best) // 100]
    return len(kept) / sum(kept)


def end_to_end(res, setup_times):
    return {
        "ops_per_s": ops_per_s(res.best),
        "op_ms_p50": statistics.median(res.best) * 1000,
        "op_ms_p90": statistics.quantiles(res.best, n=10)[8] * 1000,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, state, plain, traced, tracer):
    # a failed input runs once, so the ops of failed inputs are left out of
    # the mean times; what the failures cost shows in ``nonsat_ms``
    n = traced.inputs
    total_s, self_s, calls = tracer.self_times(
        lambda op: op >= 0 and op % n in traced.failed_inputs)
    # (1 where every input failed, so that the times read 0)
    op_s, ops = total_s["op"] or 1.0, calls["op"] or 1
    c, returned = first_pass_counts(traced)
    values = {"trace.overhead": ops_per_s(traced.best) / ops_per_s(plain.best)}
    for layer in wl.layers:
        values[f"{layer}.ms"] = self_s[layer] * 1000 / ops
        values[f"{layer}.share"] = self_s[layer] / op_s
        values[f"{layer}.failed"] = tracer.raised[layer]
        for what in LAYER_COUNTS[layer]:
            values[f"{layer}.{what}"] = c[f"{layer}.{what}"] / returned
    if "syntax.lex" in wl.layers:
        values["syntax.lex.tokens_per_s"] = (
            c["syntax.lex.tokens"] / returned / (self_s["syntax.lex"] / ops))
    if "modelcheck.satisfies" in wl.layers:
        for verdict in ("sat", "unknown", "unsat"):
            values[f"modelcheck.satisfies.{verdict}"] = c[f"modelcheck.satisfies.{verdict}"]
        values["modelcheck.satisfies.nonsat_ms"] = traced.nonsat_s * 1000 / n
        builds = c["modelcheck.build_predicate_env.builds"]
        values["modelcheck.build_predicate_env.distinct_ratio"] = (
            c["modelcheck.build_predicate_env.distinct"] / builds)
    if calls["modelcheck.gen_core_expr"]:
        gen = "modelcheck.gen_core_expr"
        values[f"{gen}.ms"] = self_s[gen] * 1000 / calls[gen]
        values[f"{gen}.expr_nodes"] = statistics.fmean(
            state.m.syntax.count_expr_nodes(e) for _, e in state.inputs)
    return values


def declared_metrics(values, declared, owned):
    """The metrics ``BENCHMARK.json`` declares, in its order and with its
    units.  A layer this workload never calls reads 0."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in values and name.rsplit(".", 1)[0] in owned:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": values.get(name, 0), "unit": spec["unit"]}
    return out


def run(name, seed, seconds, trace, size=None):
    wl = WORKLOADS[name]
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise MissingProgram(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    setup_times = []

    def timed_setup():
        # start from a clean collector, as a fresh process does, so that
        # garbage left by earlier ops is not charged to set-up
        gc.collect()
        start = perf_counter()
        state = wl.setup(seed, size)
        setup_times.append(perf_counter() - start)
        return state

    # The set-ups after the first are spread over the run, so that setup_s
    # does not hang on the host's load in one moment; their results are
    # dropped and the ops keep the first set-up's modules and inputs.
    state = timed_setup()
    if trace:
        plain = measure(wl, state, seconds / 2, wl.checker(state))
    else:
        plain = measure(wl, state, seconds, wl.checker(state),
                        pause=timed_setup, pauses=SETUPS - 1)
    runs = [plain]
    if trace:
        tracer = Tracer()
        state = wl.setup(seed, size, tracer)
        with tracer.patched(wl.trace_points(state.m)):
            traced = measure(wl, state, seconds / 2, wl.checker(state), tracer)
        runs.append(traced)
        values = per_layer(wl, state, plain, traced, tracer)
        owned = set(wl.layers) | set(tracer.names) | {"trace"}
        metrics = declared_metrics(values, spec["per_layer"], owned)
        tracer.write(HERE / "out" / f"spans-{name}-{seed}.csv.gz")
    else:
        values = end_to_end(plain, setup_times)
        metrics = declared_metrics(values, spec["end_to_end"], set())
    # one op per input attempted; the further passes repeat it for timing
    attempted = sum(r.inputs for r in runs)
    failed = sum(r.failed for r in runs)
    ops = sum(r.ops for r in runs)
    agree = all(counts_agree(plain, r) for r in runs)
    correct = agree and not any(r.wrong for r in runs)

    print(f"{name} seed {seed}: {attempted} inputs in {ops} ops, "
          f"{failed} failed, correct {correct}")
    print(f"  failed_share = {failed / attempted:.6g} failed/attempted")
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    failures = {label: reason for r in runs for label, reason in r.failures.items()}
    if failures:
        print(f"  failing inputs: {len(failures)} (up to 20 listed)")
    for label, reason in list(failures.items())[:20]:
        print(f"  failing input {label}: {reason[:200]}")
    if not agree:
        print("  traced counts differ from untraced ones")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="inputs per pass (default: the workload's own)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.size is not None and args.size < 2):
        parser.error("--seconds must be positive and --size at least 2")
    if args.workload == "all":
        status = 0
        for name in sorted(WORKLOADS):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.size:
                cmd += ["--size", str(args.size)]
            status = max(status, subprocess.run(cmd).returncode)
        return status
    try:
        return run(args.workload, args.seed, args.seconds, args.trace, args.size)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
