"""The pikac benchmark's workloads.

Each workload makes its inputs from a seed during set-up, then runs one op
per input.  Its check judges every output outside the timed region, and its
layer calls give the counts that the traced run must reproduce exactly.
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
MODULES = ("syntax", "types", "translate", "ssl", "interp", "modelcheck")

# Golden outputs that tests/test_acceptance.py lets diverge.
DOCUMENTED_DIVERGENCES = {"fold_map"}


class MissingProgram(Exception):
    """The checkout holds no pikac sources or test inputs to run."""


def import_pikac():
    """Import pikac afresh from the checkout's ``src``, so that every set-up
    pays for the import.  Compiled bytecode is cached in ``__pycache__`` as
    in a default Python, whatever ``PYTHONDONTWRITEBYTECODE`` says, so that
    set-up times do not depend on that setting: only the first import in a
    checkout compiles the sources."""
    if not (SRC / "pikac" / "__init__.py").is_file():
        raise MissingProgram(f"no pikac package under {SRC}")
    sys.dont_write_bytecode = False
    for name in [n for n in sys.modules if n == "pikac" or n.startswith("pikac.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{n: importlib.import_module(f"pikac.{n}")
                              for n in MODULES})


def _read(path: Path) -> str:
    if not path.is_file():
        raise MissingProgram(f"missing input {path}")
    return path.read_text()


def count_call(m, name, value, counts, pred_sets):
    """Add the work one layer call did to ``counts``.  ``value`` is the
    call's result as ``Workload.layer_value`` gives it."""
    if name == "syntax.lex":
        counts["syntax.lex.tokens"] += len(value)
    elif name == "syntax.parse_program":
        counts["syntax.parse_program.ast_nodes"] += m.syntax.count_unit_nodes(value)
    elif name == "types.elaborate":
        counts["types.elaborate.fns"] += len(value.fns)
    elif name == "translate.compile_directive":
        counts["translate.compile_directive.directives"] += 1
        counts["translate.compile_directive.predicates"] += len(value.all_predicates())
        counts["translate.compile_directive.ssl_nodes"] += (
            sum(m.ssl.count_predicate_nodes(p) for p in value.all_predicates())
            + m.ssl.count_goal_nodes(value.goal))
    elif name == "ssl.emit":
        counts["ssl.emit.bytes"] += len(value.encode())
    elif name == "interp.eval_expr":
        counts["interp.eval_expr.heap_cells"] += len(value)
    elif name == "translate.translate_expr_core":
        counts["translate.translate_expr_core.assertion_nodes"] += (
            m.ssl.count_assertion_nodes(value))
    elif name == "modelcheck.build_predicate_env":
        counts["modelcheck.build_predicate_env.builds"] += 1
        counts["modelcheck.build_predicate_env.preds"] += len(value.preds)
        pred_sets.add(frozenset(value.preds))
    elif name == "modelcheck.satisfies":
        counts[f"modelcheck.satisfies.{type(value).__name__.lower()}"] += 1


class CompileCorpus:
    """One op compiles one source file as ``pikac compile FILE --stdout
    --emit-goal-spec`` does, with the file read during set-up and nothing
    written.  An input is ``(label, source text)``."""

    name = "compile_corpus"
    layers = ("syntax.lex", "syntax.parse_program", "types.elaborate",
              "translate.compile_directive", "ssl.emit")

    def setup(self, seed, size=None, tracer=None):
        m = import_pikac()
        files = []
        for folder in ("corpus", "benchmarks"):
            for path in sorted((TESTS / folder).glob("*.pika")):
                text = path.read_text()
                if "%generate" in text:
                    files.append((f"{folder}/{path.stem}", text))
        if not files:
            raise MissingProgram(f"no source files under {TESTS}")
        random.Random(seed).shuffle(files)
        files = files[:size] if size else files
        return SimpleNamespace(m=m, inputs=files)

    @staticmethod
    def op(state, inp):
        m = state.m
        unit = m.syntax.parse_source(inp[1])
        prog = m.types.elaborate(unit)
        results = [m.translate.compile_directive(prog, d.fn)
                   for d in unit.directives]
        return unit, prog, results, [r.render(with_goal=True) for r in results]

    @staticmethod
    def trace_points(m):
        return [(m.syntax, "lex", "syntax.lex"),
                (m.syntax, "parse_program", "syntax.parse_program"),
                (m.types, "elaborate", "types.elaborate"),
                (m.translate, "compile_directive", "translate.compile_directive"),
                (m.translate.CompileResult, "render", "ssl.emit")]

    @staticmethod
    def layer_value(name, value):
        return value

    @staticmethod
    def layer_calls(state, inp, out):
        """The layer results of an untraced op, rebuilt from its output."""
        unit, prog, results, texts = out
        return ([("syntax.lex", state.m.syntax.lex(inp[1])),
                 ("syntax.parse_program", unit), ("types.elaborate", prog)]
                + [("translate.compile_directive", r) for r in results]
                + [("ssl.emit", t) for t in texts])

    def checker(self, state, golden=None):
        """``golden`` maps an input label to its reference ``.sus`` text;
        it defaults to ``tests/golden`` for the corpus files."""
        if golden is None:
            golden = {f"corpus/{p.stem}": p.read_text()
                      for p in sorted((TESTS / "golden").glob("*.sus"))}
        return CompileCheck(state.m, golden)


class CompileCheck:
    """Every emitted text re-parses with one item per predicate plus the
    goal, the main predicate matches its golden reference, and a file
    compiles to the same bytes on every pass."""

    def __init__(self, m, golden):
        self.m = m
        self.golden = golden
        self.first = {}       # label -> (texts, failure reason or None)

    def __call__(self, inp, out):
        """Returns ``(failure reason or None, wrong)``; every compile
        failure is a wrong output."""
        label = inp[0]
        texts = out[3]
        if label in self.first:
            first_texts, reason = self.first[label]
            if texts != first_texts:
                reason = "output differs from the first pass"
        else:
            reason = self._verify(label, out)
            self.first[label] = (texts, reason)
        return reason, reason is not None

    def _verify(self, label, out):
        ssl = self.m.ssl
        _, _, results, texts = out
        try:
            for result, text in zip(results, texts):
                items = ssl.parse_sus_file(text)
                if len(items) != len(result.all_predicates()) + 1:
                    return f"{result.name} re-parses to {len(items)} items"
            reference = self.golden.get(label)
            if reference is None or label.split("/")[-1] in DOCUMENTED_DIVERGENCES:
                return None
            if not ssl.structural_equiv(results[0].predicate,
                                        ssl.parse_predicate(reference)):
                return f"{results[0].name} differs from its golden output"
        except Exception as exc:
            return f"check raised {exc!r}"
        return None


class Soundness:
    """One op is ``modelcheck.check_soundness(genv, expr, depth=64)`` on
    ``gen_core_expr(sig, seed + i, budget)`` over ``soundness_sig.pika``.
    An input is ``(seed + i, expression)``."""

    layers = ("interp.eval_expr", "translate.translate_expr_core",
              "modelcheck.build_predicate_env", "modelcheck.satisfies")
    depth = 64

    def __init__(self, name, budget, size):
        self.name = name
        self.budget = budget
        self.size = size

    def setup(self, seed, size=None, tracer=None):
        m = import_pikac()
        text = _read(TESTS / "corpus" / "soundness_sig.pika")
        genv = m.types.build_global_env(m.syntax.parse_source(text))
        sig = m.modelcheck.CoreSignature.from_env(genv)
        gen = m.modelcheck.gen_core_expr
        if tracer is not None:
            gen = tracer.wrap("modelcheck.gen_core_expr", gen)
        inputs = [(seed + i, gen(sig, seed + i, self.budget))
                  for i in range(size or self.size)]
        return SimpleNamespace(m=m, genv=genv, inputs=inputs)

    def op(self, state, inp):
        return state.m.modelcheck.check_soundness(state.genv, inp[1],
                                                  depth=self.depth)

    @staticmethod
    def trace_points(m):
        mc = m.modelcheck
        return [(mc, "eval_expr", "interp.eval_expr"),
                (mc, "translate_expr_core", "translate.translate_expr_core"),
                (mc, "build_predicate_env", "modelcheck.build_predicate_env"),
                (mc, "satisfies", "modelcheck.satisfies")]

    @staticmethod
    def layer_value(name, value):
        if name == "interp.eval_expr":
            return value[2]                    # the final heap
        if name == "translate.translate_expr_core":
            return value.assertion()
        return value

    @staticmethod
    def layer_calls(state, inp, report):
        env = state.m.modelcheck.build_predicate_env(state.genv, exprs=[inp[1]])
        return [("interp.eval_expr", report.model.heap),
                ("translate.translate_expr_core", report.assertion),
                ("modelcheck.build_predicate_env", env),
                ("modelcheck.satisfies", report.result)]

    def checker(self, state, expect="Sat"):
        """By the paper's soundness theorem every instance is ``Sat``."""
        return SoundnessCheck(state.m, expect)


class SoundnessCheck:
    """A verdict other than the expected one is a failed op.  It is not a
    wrong output unless the same instance gets another verdict on a later
    pass: Unsat and Unknown are answers the checker can give, and the ones
    the theorem rules out are what ``failed`` counts."""

    def __init__(self, m, expect):
        self.m = m
        self.expect = expect
        self.first = {}       # seed -> verdict

    def __call__(self, inp, report):
        verdict = type(report.result).__name__
        first = self.first.setdefault(inp[0], verdict)
        if verdict != first:
            return f"verdict {verdict} after {first} on an earlier pass", True
        if verdict != self.expect:
            return (f"{verdict} ({getattr(report.result, 'reason', '')}) on "
                    f"{self.m.syntax.render_expr(inp[1])}", False)
        return None, False


WORKLOADS = {
    w.name: w for w in (
        CompileCorpus(),
        Soundness("soundness_shallow", budget=12, size=4000),
        Soundness("soundness_deep", budget=48, size=2000),
    )
}
