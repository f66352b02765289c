"""``repro submit``: POST a campaign to a running ``repro serve``."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_STATUS_DOC
from ..core.options import RunOptions
from .watch import watch_campaign


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "POST a campaign to `repro serve` and print its id.  "
        "--watch then streams the journal live and exits with the "
        "campaign's own status, keeping the uniform 0/1/2 contract."
    )
    parser.epilog = EXIT_STATUS_DOC
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8642")
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=["all"],
        metavar="NAME",
        help="protocol names or 'all' (default: all)",
    )
    parser.add_argument(
        "--mutants",
        action="store_true",
        help="also verify every applicable injected-bug mutant",
    )
    parser.add_argument(
        "--spec-file",
        action="append",
        default=[],
        metavar="FILE",
        help="submit a local DSL spec inline (repeatable; the server "
        "needs no shared filesystem)",
    )
    parser.add_argument("--tenant", default="default", help="tenant to bill")
    parser.add_argument(
        "--priority",
        choices=("high", "normal", "low"),
        default="normal",
        help="scheduler lane (default: normal)",
    )
    RunOptions.add_arguments(parser)
    parser.add_argument(
        "--watch",
        action="store_true",
        help="stream events until done; exit with the campaign status",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-event lines"
    )


def run(args: argparse.Namespace) -> int:
    from ..serve import client

    accepted = client.submit(args.url, _submit_payload(args))
    print(f"campaign {accepted['id']} accepted ({args.url}{accepted['location']})")
    if not args.watch:
        return EXIT_OK
    return watch_campaign(args.url, accepted["id"], quiet=args.quiet)


def _submit_payload(args: argparse.Namespace) -> dict:
    """The POST /campaigns body for one ``repro submit`` invocation."""
    from pathlib import Path

    payload: dict = {"protocols": args.protocols, "mutants": args.mutants}
    specs = {}
    for path in args.spec_file:
        specs[Path(path).stem] = Path(path).read_text(encoding="utf-8")
    if specs:
        payload["specs"] = specs
    if args.tenant != "default":
        payload["tenant"] = args.tenant
    if args.priority != "normal":
        payload["priority"] = args.priority
    payload.update(RunOptions.from_args(args).to_dict())
    return payload
