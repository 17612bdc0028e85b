"""Command-line driver.

Subcommands: ``compile`` (emit predicates per directive), ``stages``
(print the per-stage translation snapshots for one function), ``run``
(evaluate a core expression on the abstract machine), and ``soundness``
(run the machine-vs-translation property suite).

Exit codes are a stable contract: 0 success, 1 semantic failure
(including input nested too deeply, a soundness counterexample, and an
ill-typed soundness draw, reported as its rule-named type error), 2 usage
or I/O error, 3 a soundness instance the checker gave up on (*Unknown*).

``interp`` and ``modelcheck`` are imported only by the commands that use
them, so ``compile`` and ``stages`` do not pay for their import.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ParseError, PikaError
from .syntax import parse_expr_text, parse_source, render_expr
from .translate import compile_directive, dump_stages
from .types import build_global_env, elaborate, infer_expr


def _use_color() -> bool:
    flag = os.environ.get("PIKA_COLOR")
    if flag == "0":
        return False
    if flag == "1":
        return True
    return sys.stderr.isatty()


def _diagnostic(exc: PikaError) -> str:
    rule = f"[{exc.rule}]" if exc.rule else ""
    loc = f" at {exc.span}" if exc.span else ""
    head = f"error{rule}:"
    if _use_color():
        head = f"\x1b[31m{head}\x1b[0m"
    return f"{head} {exc.message}{loc}"


def _read_source(path) -> str | None:
    """The text of ``path`` decoded as UTF-8, less a leading byte-order
    mark, or None once the reason it cannot be read is printed."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def cmd_compile(args) -> int:
    status = 0
    for path in args.files:
        text = _read_source(path)
        if text is None:
            return 2
        try:
            unit = parse_source(text)
            prog = elaborate(unit)
            for directive in unit.directives:
                result = compile_directive(prog, directive.fn)
                rendered = result.render(with_goal=args.emit_goal_spec)
                if args.stdout:
                    sys.stdout.write(rendered)
                else:
                    out_dir = Path(args.out) if args.out else Path(".")
                    try:
                        out_dir.mkdir(parents=True, exist_ok=True)
                        target = out_dir / f"{result.name}.sus"
                        target.write_text(rendered)
                    except OSError as exc:
                        print(f"error: cannot write output: {exc}",
                              file=sys.stderr)
                        return 2
        except PikaError as exc:
            print(_diagnostic(exc), file=sys.stderr)
            status = 1
    return status


def cmd_stages(args) -> int:
    text = _read_source(args.file)
    if text is None:
        return 2
    try:
        prog = elaborate(parse_source(text))
        if args.fn not in prog.fns:
            print(f"error: no %generate directive for {args.fn}",
                  file=sys.stderr)
            return 1
        for i, (title, body) in enumerate(dump_stages(prog, args.fn), 1):
            print(f"{i}. {title}")
            print(body)
            print()
    except PikaError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    from .interp import Model, eval_expr
    text = _read_source(args.file)
    if text is None:
        return 2
    try:
        genv = build_global_env(parse_source(text))
        expr = parse_expr_text(args.expr)
        infer_expr(genv, {}, expr)
        val, store, heap, fs, var = eval_expr(genv, expr)
        print(val)
        print(Model(store, heap).render())
    except PikaError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 1
    return 0


def cmd_soundness(args) -> int:
    from .modelcheck import (
        CoreSignature, Sat, Unknown, check_soundness, gen_core_expr,
    )
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return 2
    text = _read_source(args.file)
    if text is None:
        return 2
    try:
        genv = build_global_env(parse_source(text))
        sig = CoreSignature.from_env(genv)
        if not sig.pool:
            print("error: the file defines no core test functions",
                  file=sys.stderr)
            return 1
        for i in range(args.count):
            expr = gen_core_expr(sig, args.seed + i, args.budget)
            infer_expr(genv, {}, expr)      # a generator defect, if it fails
            report = check_soundness(genv, expr, depth=args.depth)
            if isinstance(report.result, Unknown):
                print(f"unknown (seed {args.seed + i}): "
                      f"{report.result.reason}")
                return 3
            if not isinstance(report.result, Sat):
                expr = _shrink_failure(genv, expr, args.depth)
                report = check_soundness(genv, expr, depth=args.depth)
                print(f"counterexample (seed {args.seed + i}):")
                print(f"  {render_expr(expr)}")
                print(report.trace)
                return 1
        print(f"soundness: {args.count} instances satisfiable "
              f"(seed {args.seed}, budget {args.budget}, depth {args.depth})")
    except PikaError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 1
    return 0


def _shrink_failure(genv, expr, depth):
    """Shrink a counterexample to a smaller one; a candidate the checker
    gives up on is no counterexample."""
    from .modelcheck import Unsat, check_soundness, shrink_core_expr
    while True:
        for cand in shrink_core_expr(expr):
            try:
                if isinstance(check_soundness(genv, cand, depth).result,
                              Unsat):
                    expr = cand
                    break
            except PikaError:
                continue
        else:
            return expr


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pikac",
        description="Compile layout-annotated functional specifications "
                    "into SuSLik separation-logic predicates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="emit predicates for each directive")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--stdout", action="store_true",
                   help="write to standard output instead of files")
    p.add_argument("--emit-goal-spec", action="store_true",
                   help="append the synthesis goal specification")
    p.set_defaults(handler=cmd_compile)

    p = sub.add_parser("stages", help="print per-stage translation snapshots")
    p.add_argument("file")
    p.add_argument("fn", metavar="function")
    p.set_defaults(handler=cmd_stages)

    p = sub.add_parser("run", help="evaluate a core expression on the machine")
    p.add_argument("file")
    p.add_argument("expr")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("soundness",
                       help="run the machine-vs-translation property suite")
    p.add_argument("file")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--budget", type=int, default=12)
    p.set_defaults(handler=cmd_soundness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RecursionError:
        # the front end and the translation recurse on the syntax tree
        limit = sys.getrecursionlimit()
        exc = ParseError(
            f"input nested too deeply: nesting is bounded by the "
            f"interpreter's recursion limit of {limit} frames (about "
            f"{limit // 3} levels of parenthesised expressions, at 3 frames "
            f"a level)", rule="P-NESTING")
        print(_diagnostic(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
