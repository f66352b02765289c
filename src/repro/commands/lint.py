"""``repro lint``: the static protocol analyzer (PLxxx rules)."""

from __future__ import annotations

import argparse
from typing import Sequence

from ..cli import EXIT_OK, EXIT_VIOLATION


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Run the static protocol analyzer (repro.lint) over "
        "DSL spec files, registry protocols or the whole shipped zoo. "
        "Rules are addressable as PLxxx codes or kebab-case names; see "
        "docs/LINT.md for the catalog."
    )
    parser.add_argument(
        "spec_file",
        nargs="*",
        help="DSL specification files to analyze",
    )
    parser.add_argument(
        "--protocol",
        action="append",
        default=[],
        metavar="NAME",
        help="also lint a registry protocol (repeatable)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="lint every registry protocol and every builtin DSL spec",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="only run these rules (PLxxx codes or names, comma-separated; "
        "repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULES",
        help="skip these rules (PLxxx codes or names, comma-separated; "
        "repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text; 'sarif' emits SARIF 2.1.0)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings too, not just errors",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the report here instead of stdout",
    )
    parser.add_argument(
        "--explain",
        action="append",
        default=[],
        metavar="RULE",
        help="print one rule's documentation card -- rationale, severity "
        "and a minimal triggering specification -- instead of linting "
        "(PLxxx code or kebab-case name; repeatable)",
    )


def run(args: argparse.Namespace) -> int:
    from ..lint import RENDERERS, lint_all, lint_path, lint_protocol

    if args.explain:
        return _explain_rules(args.explain)
    reports = []
    if args.all:
        reports.extend(lint_all(select=args.select, ignore=args.ignore))
    for name in args.protocol:
        reports.append(
            lint_protocol(name, select=args.select, ignore=args.ignore)
        )
    for path in args.spec_file:
        reports.append(lint_path(path, select=args.select, ignore=args.ignore))
    if not reports:
        raise ValueError(
            "nothing to lint: give spec files, --protocol NAME or --all"
        )
    rendered = RENDERERS[args.format](reports)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"{args.format} report written to {args.output}")
    else:
        print(rendered)
    failing = sum(r.errors for r in reports)
    if args.strict:
        failing += sum(r.warnings for r in reports)
    return EXIT_VIOLATION if failing else EXIT_OK


def _explain_rules(codes: Sequence[str]) -> int:
    """``repro lint --explain``: print one rule's documentation card."""
    from ..lint import RULES, SYNTAX_RULE
    from ..lint.registry import resolve_codes

    resolved: list[str] = []
    for chunk in codes:
        if chunk == SYNTAX_RULE:
            resolved.append(SYNTAX_RULE)
        else:
            resolved.extend(sorted(resolve_codes([chunk]) or ()))
    for index, rule_id in enumerate(dict.fromkeys(resolved)):
        if index:
            print()
        if rule_id == SYNTAX_RULE:
            print(f"{SYNTAX_RULE} syntax-error (error)")
            print()
            print(
                "Reserved for DSL parse failures: the lint front end folds\n"
                "the parser's message into the report at the offending\n"
                "line instead of raising, so one broken file cannot abort\n"
                "a multi-spec run.  No checker function runs under this id."
            )
            continue
        registered = RULES[rule_id]
        print(
            f"{registered.id} {registered.name} "
            f"({registered.severity.value}): {registered.summary}"
        )
        print()
        print(registered.help_text)
        if registered.example:
            print()
            print("Minimal triggering specification:")
            print()
            for line in registered.example.strip().splitlines():
                print(f"    {line}")
    return EXIT_OK
