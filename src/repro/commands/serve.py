"""``repro serve``: the campaign service on the batch engine."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_STATUS_DOC
from ..core.options import RunOptions


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Start the long-running campaign service (repro.serve): "
        "an asyncio HTTP front end on the batch engine.  POST /campaigns "
        "submits spec names or inline DSL sources (plus mutant matrices) "
        "and returns a campaign id; a scheduler shards campaigns across "
        "a worker pool with priority lanes (high/normal/low) and "
        "per-tenant wall-clock budgets enforced through the engine's "
        "cooperative Guard (exhausted tenants degrade to PARTIAL results, "
        "never starve); GET /campaigns/{id} returns the structured batch "
        "report, /campaigns/{id}/events streams journal events live over "
        "SSE (replayable from a byte offset), /cache/{fingerprint} serves "
        "the shared result cache and /metrics the Prometheus exposition.  "
        "Every campaign is journaled, so a killed server resumes its "
        "unfinished campaigns from the journal on restart.  --preflight "
        "forces that preflight onto every campaign.  Full API "
        "contract: docs/SERVICE.md."
    )
    parser.epilog = EXIT_STATUS_DOC
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8642, help="bind port")
    parser.add_argument(
        "--state-dir",
        default="repro-serve",
        metavar="DIR",
        help="campaign state root: journals, reports, inline specs "
        "(default: ./repro-serve)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent campaigns (scheduler worker pool, default: 2)",
    )
    parser.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="worker processes per campaign batch (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="shared result cache directory (default: ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=SECONDS",
        help="wall-clock allotment for one tenant (repeatable); tenants "
        "without one are unlimited",
    )
    RunOptions.add_arguments(parser, only=("preflight",))
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admission control: campaigns queued per priority lane "
        "before new submissions get 429 + Retry-After (default: 64)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission control: concurrently executing campaigns "
        "before new submissions get 429 (default: unlimited)",
    )
    parser.add_argument(
        "--read-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-connection bound on parsing one request; slow "
        "clients get 408 (default: 10; 0 disables)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful drain (SIGTERM/SIGINT): seconds an in-flight "
        "job gets to honour its soft-cancel before SIGKILL "
        "(default: 5)",
    )


def run(args: argparse.Namespace) -> int:
    import asyncio

    from ..engine import BackoffPolicy, CircuitBreaker, ResultCache
    from ..serve import AdmissionPolicy, ServeApp

    tenants: dict[str, float] = {}
    for item in args.tenant:
        name, sep, seconds = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--tenant wants NAME=SECONDS, got {item!r}")
        tenants[name] = float(seconds)  # ValueError on garbage -> exit 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    app = ServeApp(
        args.state_dir,
        cache=cache,
        workers=args.workers,
        job_workers=args.job_workers,
        tenants=tenants or None,
        preflight=args.preflight,
        admission=AdmissionPolicy(
            max_lane_depth=args.max_queue, max_in_flight=args.max_inflight
        ),
        read_timeout=args.read_timeout if args.read_timeout > 0 else None,
        drain_grace=args.drain_grace,
        # The service always runs resilient: supervised retries back
        # off, and a spec that keeps killing workers is quarantined
        # service-wide instead of re-crashing every campaign.
        backoff=BackoffPolicy(),
        breaker=CircuitBreaker(),
    )
    asyncio.run(app.serve_forever(args.host, args.port))
    return EXIT_OK
