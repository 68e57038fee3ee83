"""The ddmr command line: extension, query, validate, diff, bench.

Exit codes are script-friendly and stable:

    0  success (for query: Proved)
    1  validation errors; under --oracle, a theory above the oracle budget
    2  parse errors / unreadable input / bad arguments (a file that is not
       UTF-8, a non-integer DDMR_ORACLE_BUDGET under --oracle, a bench
       --out that cannot be written, and a bench size the family's
       generator cannot reach within 10 %, included)
    3  query answered Refuted
    4  query answered Undetermined
    5  --oracle cross-check found a mismatch
    6  query subject unknown to the theory
    7  internal error (a defect in ddmr; one line on stderr, no traceback)

A file with parse errors prints the first ``MAX_PARSE_ERRORS`` (20) of
them, each as ``PATH:LINE:COLUMN: message`` and its source line, then, if
there are more, one ``PATH: N more errors`` line.

``bench`` runs each reading named by a ``--variant`` (the option may be
repeated), and both readings when none is named.  Its ``wall_time_ms``
covers validation, the engine run and the decoded store; the
``decided`` and ``undetermined`` columns count the store's bytes after
the clock, and no tag set is built.

The oracle size cap defaults to 200 and can be overridden through the
DDMR_ORACLE_BUDGET environment variable.  Under --oracle, a theory above
the cap prints one ``oracle: ...`` line on stderr and exits 1, once it has
validated and before the engine runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from functools import cache

from .bench import run_benchmarks, to_csv
from .conflicts import Variant
from .engine import (
    PROVED,
    REFUTED,
    UNDETERMINED,
    UNKNOWN_SUBJECT,
    compute_extension,
    diff_variants,
    query,
)
from .generate import FAMILIES, SizeOutOfReach, generate_theory
from .model import ValidationReport, validate
from .oracle import DEFAULT_BUDGET, OracleBudgetError, check_budget, check_equivalence
from .text import (
    TheorySyntaxError,
    parse_tagged_formula,
    parse_theory,
    render_extension,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_REFUTED = 3
EXIT_UNDETERMINED = 4
EXIT_ORACLE_MISMATCH = 5
EXIT_UNKNOWN_SUBJECT = 6
EXIT_INTERNAL = 7

MAX_PARSE_ERRORS = 20


def _oracle_budget() -> int:
    raw = os.environ.get("DDMR_ORACLE_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        print(f"DDMR_ORACLE_BUDGET must be an integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load_theory(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        return parse_theory(source)
    except TheorySyntaxError as exc:
        for error in exc.errors[:MAX_PARSE_ERRORS]:
            print(f"{path}:{error}", file=sys.stderr)
        if len(exc.errors) > MAX_PARSE_ERRORS:
            print(f"{path}: {len(exc.errors) - MAX_PARSE_ERRORS} more errors", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _check_valid(theory) -> ValidationReport:
    """Print the warnings; on errors print them and exit ``EXIT_INVALID``."""
    report = validate(theory)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if report.errors:
        for error in report.errors:
            print(f"error: {error}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    return report


def _extension(theory, report: ValidationReport, args):
    """The engine's extension of a valid theory under ``args.variant``.

    Under ``args.oracle`` the budget is checked first (above it, print why
    and exit ``EXIT_INVALID`` before anything is computed), and the
    extension is then checked against the oracle's (on a mismatch, print
    each differing set and exit ``EXIT_ORACLE_MISMATCH``).
    """
    variant = Variant(args.variant)
    if not args.oracle:
        return compute_extension(theory, variant, report)
    budget = _oracle_budget()
    try:
        check_budget(theory, budget)
    except OracleBudgetError as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    extension = compute_extension(theory, variant, report)
    diffs = check_equivalence(theory, variant, budget, extension)
    for name, (engine_only, oracle_only) in sorted(diffs.items()):
        print(
            f"oracle mismatch in {name}: engine-only "
            f"{sorted(map(str, engine_only))}, oracle-only "
            f"{sorted(map(str, oracle_only))}",
            file=sys.stderr,
        )
    if diffs:
        raise SystemExit(EXIT_ORACLE_MISMATCH)
    return extension


def cmd_extension(args) -> int:
    theory = _load_theory(args.path)
    extension = _extension(theory, _check_valid(theory), args)
    sys.stdout.write(render_extension(extension, args.format))
    return EXIT_OK


def cmd_query(args) -> int:
    theory = _load_theory(args.path)
    report = _check_valid(theory)
    try:
        formula = parse_tagged_formula(args.formula)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    extension = _extension(theory, report, args)
    answer = query(theory, Variant(args.variant), formula, extension)
    print(answer)
    return {
        PROVED: EXIT_OK,
        REFUTED: EXIT_REFUTED,
        UNDETERMINED: EXIT_UNDETERMINED,
        UNKNOWN_SUBJECT: EXIT_UNKNOWN_SUBJECT,
    }[answer]


def cmd_validate(args) -> int:
    theory = _load_theory(args.path)
    report = validate(theory)
    for error in report.errors:
        print(f"error: {error}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.ok and not report.warnings:
        print("ok")
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_diff(args) -> int:
    theory = _load_theory(args.path)
    rows = diff_variants(theory, _check_valid(theory))
    for mode, meta, subject, simple, cautious in rows:
        level = "rule" if meta else "literal"
        print(f"{level} {mode} {subject}: simple={simple} cautious={cautious}")
    if not rows:
        print("no differences")
    return EXIT_OK


def _sizes(text: str) -> list:
    """The ``--sizes`` value: comma-separated non-negative integers, "" for none."""
    parts = text.split(",") if text else []
    if not all(part.isdecimal() for part in parts):
        raise argparse.ArgumentTypeError(f"not comma-separated non-negative integers: {text!r}")
    return list(map(int, parts))


def cmd_bench(args) -> int:
    families = args.family or list(FAMILIES)
    variants = [Variant(v) for v in dict.fromkeys(args.variant or ())]  # none: both
    if args.out:
        try:  # opening to append checks that --out can be written and keeps what it holds
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    theories = {}
    try:  # every size is reachable before a benchmark runs or --out is emptied
        for family in families:
            for size in args.sizes:
                theories[(family, size)] = generate_theory(family, size, args.seed)
    except SizeOutOfReach as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_PARSE
    records = run_benchmarks(
        families, args.sizes, seed=args.seed, variants=variants, theories=theories
    )
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as handle:
        handle.write(to_csv(records))
    return EXIT_OK


@cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddmr",
        description="Defeasible deontic meta-rule reasoner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle: bool = True):
        p.add_argument("path", help="theory file (.ddl)")
        p.add_argument(
            "--variant",
            choices=[v.value for v in Variant],
            default=Variant.CAUTIOUS.value,
            help="conflict reading (default: cautious)",
        )
        if oracle:
            p.add_argument(
                "--oracle",
                action="store_true",
                help="cross-check the engine against the proof-condition oracle",
            )

    p_ext = sub.add_parser("extension", help="compute and print the extension")
    common(p_ext)
    p_ext.add_argument("--format", choices=("json", "text"), default="text")
    p_ext.set_defaults(func=cmd_extension)

    p_query = sub.add_parser("query", help="decide one tagged formula")
    common(p_query)
    p_query.add_argument("formula", help="e.g. '+dO a', '-dmC ~gamma'")
    p_query.set_defaults(func=cmd_query)

    p_val = sub.add_parser("validate", help="report structural errors and warnings")
    p_val.add_argument("path", help="theory file (.ddl)")
    p_val.set_defaults(func=cmd_validate)

    p_diff = sub.add_parser("diff", help="compare the two conflict variants")
    p_diff.add_argument("path", help="theory file (.ddl)")
    p_diff.set_defaults(func=cmd_diff)

    p_bench = sub.add_parser("bench", help="generate, run and time theory families")
    p_bench.add_argument("--family", action="append", choices=FAMILIES)
    p_bench.add_argument("--sizes", type=_sizes, default=[], help="comma-separated size targets")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--variant",
        action="append",
        choices=[v.value for v in Variant],
        help="conflict reading to bench, repeatable (default: both)",
    )
    p_bench.add_argument("--out", help="write CSV here instead of stdout")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # SystemExit and KeyboardInterrupt pass through
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
