"""``repro watch``: stream a campaign's journal from ``repro serve``."""

from __future__ import annotations

import argparse
import sys

from ..cli import EXIT_ERROR, EXIT_STATUS_DOC


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Follow GET /campaigns/{id}/events over SSE until the "
        "campaign finishes, printing one line per journal event, then "
        "exit with the campaign's own 0/1/2 status.  Reconnects resume "
        "from the last seen byte offset, so no event is lost or doubled."
    )
    parser.epilog = EXIT_STATUS_DOC
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8642")
    parser.add_argument("campaign", help="campaign id from `repro submit`")
    parser.add_argument(
        "--offset",
        type=int,
        default=0,
        help="journal byte offset to replay from (default: 0, the start)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="only print the final summary"
    )


def run(args: argparse.Namespace) -> int:
    return watch_campaign(
        args.url, args.campaign, offset=args.offset, quiet=args.quiet
    )


def _render_event(record: dict) -> str:
    """One human-readable line per streamed journal event."""
    kind = record.get("event", "?")
    bits = [kind]
    if "job" in record:
        bits.append(str(record["job"]))
    if kind == "job_finish":
        bits.append(str(record.get("status")))
        if record.get("cached"):
            bits.append("(cache)")
    elif kind == "run_start":
        bits.append(f"{record.get('jobs')} jobs")
    elif kind == "run_end":
        bits.append(
            f"{record.get('verified')} verified, "
            f"{record.get('violations')} violations, "
            f"{record.get('errors')} errors"
        )
    elif kind == "run_resume":
        bits.append(f"{record.get('completed')} replayed")
    return "  ".join(bits)


def watch_campaign(
    url: str, campaign: str, *, offset: int = 0, quiet: bool = False
) -> int:
    """Stream one campaign to the end; return its 0/1/2 exit status."""
    from ..serve import client

    def show(event: client.SseEvent) -> None:
        if quiet:
            return
        print(_render_event(event.json()))

    final = client.watch(url, campaign, offset=offset, on_event=show)
    counts = (final.get("report") or {}).get("counts")
    if counts:
        print(
            f"{campaign}: {counts['jobs']} jobs, "
            f"{counts['verified']} verified, "
            f"{counts['violations']} violations, "
            f"{counts['errors']} errors, {counts['partials']} partial; "
            f"{counts['cache_hits']} cache hits"
        )
    if final.get("error"):
        print(f"{campaign}: {final['state']}: {final['error']}", file=sys.stderr)
    code = final.get("exit_code")
    return EXIT_ERROR if code is None else int(code)
