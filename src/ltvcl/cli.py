"""Command-line surface.

Subcommands: ``algebra`` (inspect/validate an algebra), ``concepts``
(enumerate a context's lattice with optional DOT/JSON export), ``mine``
(the tacit-attribute pipeline), and ``check-congener`` (compare a context
against an extension). Exit codes are stable for scripting: 0 for success
or an affirmative verdict, 1 for a negative verdict or failed validation,
2 for usage and input errors and for running out of memory. The
environment variable ``LTVCL_BUDGET`` (a positive integer) overrides the
enumeration candidate budget. The argument parser is built on first use
and reused for the life of the process.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .context import ExtensionConfig, _parse_context, parse_context
from .errors import BudgetError
from .galois import (
    DEFAULT_CANDIDATE_BUDGET,
    EXTENT_SCAN,
    FULL_DOMAIN,
    GENERATED_DOMAIN,
    INTENT_SCAN,
    concept_label,
    enumerate_concepts,
    export_dot,
    export_json,
)
from .lia import ProductAlgebra, check_axioms, load_table_algebra
from .tacit import _report_json, is_congener, mine

MAX_PRINTED_VIOLATIONS = 10


def _budget() -> int:
    raw = os.environ.get("LTVCL_BUDGET")
    if raw is None:
        return DEFAULT_CANDIDATE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ValueError(f"LTVCL_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _load_context(path: str, algebras: dict | None = None):
    """The context in the file at ``path``; contexts loaded with one
    ``algebras`` dict share the algebra of a common algebra line."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    base_dir = os.path.dirname(path) or "."
    if algebras is None:  # the public parser, the name the bench tracer times
        return parse_context(text, base_dir=base_dir)
    return _parse_context(text, base_dir, algebras)


def _build_algebra(args):
    if args.product is not None:
        return ProductAlgebra(args.product)
    with open(args.table, encoding="utf-8") as handle:
        return load_table_algebra(handle.read(), source=args.table)


def cmd_algebra(args) -> int:
    algebra = _build_algebra(args)
    # checked first, so that an algebra over the budget prints nothing
    report = check_axioms(algebra) if args.check_axioms else None
    name = algebra._spellings
    lines = ["elements: " + " ".join(name), "covers:"]
    fmt = algebra.format_value
    lines += [f"  {fmt(low)} < {fmt(high)}" for low, high in algebra.hasse_covers()]
    if args.show_tables:
        lines.append("imp table:")
        lines += [f"  imp {x} {' '.join(map(name.__getitem__, row))}"
                  for x, row in zip(name, algebra._imp)]
        lines.append("neg table:")
        lines += [f"  neg {x} {name[k]}" for x, k in zip(name, algebra._neg)]
    print("\n".join(lines))
    if report is None:
        return 0
    triples = len(algebra.elements) ** 3
    if report.passed:
        print(f"axioms: PASS ({triples} triples)")
        return 0
    print(f"axioms: FAIL ({len(report.violations)} violations over {triples} triples)")
    for law, witness in report.violations[:MAX_PRINTED_VIOLATIONS]:
        print(f"  {law} at ({', '.join(witness)})")
    if len(report.violations) > MAX_PRINTED_VIOLATIONS:
        print(f"  ... and {len(report.violations) - MAX_PRINTED_VIOLATIONS} more")
    return 1


def cmd_concepts(args) -> int:
    context = _load_context(args.context)
    budget = _budget()
    engines = [EXTENT_SCAN, INTENT_SCAN] if args.engine == "both" else [args.engine]
    lattices = [
        enumerate_concepts(context, engine, domain=args.domain, budget=budget)
        for engine in engines
    ]
    lattice = lattices[0]
    positions = [(each._extents, each._intents) for each in lattices]
    if len(lattices) == 2 and positions[0] != positions[1]:
        print("engines disagree: extent and intent scans produced different concepts")
        return 1
    # files first, so that a path that cannot be written prints nothing
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(export_dot(lattice))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(export_json(lattice))
    labels = [concept_label(lattice, i) for i in range(len(lattice))]
    print("\n".join([f"{len(lattice)} concepts", *labels]))
    if len(lattices) == 2:
        print("engines agree")
    return 0


def cmd_mine(args) -> int:
    if args.preset == "paper":
        pinned = [args.max_k is not None, args.no_top, args.no_novelty, args.domain is not None]
        if any(pinned):
            raise ValueError(
                "--preset paper pins the extension and the scan domain; "
                "it cannot be combined with --max-k, --no-top, --no-novelty or --domain"
            )
    context = _load_context(args.context)
    if args.preset == "paper":
        if len(context.attributes) < 2:
            raise ValueError("--preset paper needs at least two attributes")
        config = ExtensionConfig(meet_subsets=((0, 1),))
        domain = GENERATED_DOMAIN
    else:
        config = ExtensionConfig(
            max_meet_arity=args.max_k if args.max_k is not None else 2,
            include_top_column=not args.no_top,
            novelty_filter=not args.no_novelty,
        )
        domain = args.domain or GENERATED_DOMAIN
    report = mine(context, config, engine=args.engine, domain=domain, budget=_budget())
    # the report file first, so that a path that cannot be written prints nothing
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_report_json(report, context))

    if report.tacit_attributes:
        print("tacit attributes:")
        for name, formula in report.tacit_attributes:
            print(f"  {name} = {formula}")
    else:
        print("tacit attributes: none")
    verdict = "yes" if report.congener.is_congener else "no"
    print(
        f"congener: {verdict} "
        f"({report.congener.base_extent_count} base concepts, "
        f"{report.congener.extended_extent_count} extended)"
    )
    print(f"fast extension verified: {'yes' if report.fast_extension_verified else 'no'}")
    return 0 if report.congener.is_congener and report.fast_extension_verified else 1


def cmd_check_congener(args) -> int:
    # one algebra for both files, built once per call
    algebras: dict = {}
    base = _load_context(args.base, algebras)
    extended = _load_context(args.extended, algebras)
    report = is_congener(
        base, extended, engine=args.engine, domain=args.domain or GENERATED_DOMAIN, budget=_budget()
    )
    print(
        f"base concepts: {report.base_extent_count}, "
        f"extended concepts: {report.extended_extent_count}"
    )
    if report.is_congener:
        print("congener: yes")
        return 0
    print("congener: no")
    fmt = base.algebra.format_value
    for side, extent in report.witnesses:
        values = " ".join(fmt(v) for v in extent.values)
        print(f"  only in {side}: ({values})")
    return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltvcl",
        description="Linguistic truth-valued concept lattices and tacit-attribute mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="inspect or validate an algebra")
    source = p_alg.add_mutually_exclusive_group(required=True)
    source.add_argument("--product", nargs="+", type=int, metavar="N",
                        help="chain sizes of a product algebra, e.g. --product 3 2")
    source.add_argument("--table", metavar="PATH", help="table-algebra file")
    p_alg.add_argument("--check-axioms", action="store_true",
                       help="check the lattice implication algebra laws: pass a "
                            "certified product of Lukasiewicz chains at any size, "
                            "else list the violations (exit 1)")
    p_alg.add_argument("--show-tables", action="store_true",
                       help="print the implication and negation tables")

    p_con = sub.add_parser("concepts", help="enumerate the concept lattice of a context")
    p_con.add_argument("context", help="context file")
    p_con.add_argument("--engine", choices=["extent", "intent", "both"], default="extent",
                       help="scan side; 'both' cross-checks the two engines")
    p_con.add_argument("--domain", choices=[GENERATED_DOMAIN, FULL_DOMAIN],
                       default=GENERATED_DOMAIN,
                       help="scan the values the context generates, or the whole algebra")
    p_con.add_argument("--dot", metavar="PATH", help="write a Graphviz rendering")
    p_con.add_argument("--json", metavar="PATH", help="write the JSON document")

    p_mine = sub.add_parser("mine", help="run the tacit-attribute pipeline")
    p_mine.add_argument("context", help="context file")
    p_mine.add_argument("--preset", choices=["default", "paper"], default="default",
                        help="'paper' pins the two-column extension (first-pair meet + top)")
    p_mine.add_argument("--max-k", type=int, default=None, metavar="K",
                        help="largest meet arity to enumerate (default 2)")
    p_mine.add_argument("--no-top", action="store_true", help="skip the constant-top column")
    p_mine.add_argument("--no-novelty", action="store_true",
                        help="keep candidate columns that duplicate existing ones")
    p_mine.add_argument("--engine", choices=["extent", "intent"], default="extent")
    p_mine.add_argument("--domain", choices=[GENERATED_DOMAIN, FULL_DOMAIN], default=None)
    p_mine.add_argument("--out", metavar="PATH", help="write the mining report as JSON")

    p_chk = sub.add_parser("check-congener", help="compare a context with an extension")
    p_chk.add_argument("base", help="base context file")
    p_chk.add_argument("extended", help="extended context file")
    p_chk.add_argument("--engine", choices=["extent", "intent"], default="extent")
    p_chk.add_argument("--domain", choices=[GENERATED_DOMAIN, FULL_DOMAIN], default=None)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:  # the handler is looked up per call, so a rebound ``cmd_*`` name is the one run
        return {"algebra": cmd_algebra, "concepts": cmd_concepts, "mine": cmd_mine,
                "check-congener": cmd_check_congener}[args.command](args)
    except (BudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
