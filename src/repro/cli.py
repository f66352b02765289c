"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands cover the full workflow a protocol designer would use:

* ``repro list`` -- the protocol zoo;
* ``repro verify illinois`` -- symbolic verification with report,
  diagram and counterexamples;
* ``repro batch --protocols all --mutants --jobs 8`` -- the batch
  engine: parallel verification with result caching and a run journal;
* ``repro lint --all`` -- the static protocol analyzer: PLxxx rules
  over specs without running expansion (text/JSON/SARIF output;
  ``--explain PLxxx`` documents one rule);
* ``repro ir dump illinois`` -- lower a spec to the canonical
  guarded-action IR and print it (``--fingerprint`` for the stable
  content hash);
* ``repro profile illinois`` -- verify under ``repro.obs``
  instrumentation: per-phase spans and counters as a text report plus
  a Chrome-trace / JSON / Prometheus export;
* ``repro mutants illinois`` -- verify every injected-bug variant;
* ``repro enumerate illinois -n 4`` -- the explicit Figure 2 baseline;
* ``repro crossval illinois`` -- the Theorem 1 check (coverage,
  completeness, soundness, non-vacuity), exit 2 when a budget trips;
* ``repro simulate illinois -w hot-block`` -- run the executable
  multiprocessor on a synthetic workload;
* ``repro fuzz --seed 42`` -- differential fuzzing: generated
  protocols through both engines, disagreements shrunk and persisted
  to the regression corpus (``--replay`` re-verifies the corpus);
* ``repro diff`` -- the differential gate: IR, kernel, liveness and
  Theorem 1 checks over every spec source, exit 1 on any finding;
* ``repro serve --port 8642`` -- the campaign service: a long-running
  asyncio HTTP front end on the batch engine with priority lanes,
  per-tenant budgets, SSE event streams and the shared result cache;
* ``repro submit URL --protocols all`` / ``repro watch URL ID`` -- the
  matching clients: submit a campaign, stream its journal live, exit
  with the campaign's own 0/1/2 status;
* ``repro compare illinois firefly`` -- diagram similarity analysis.

Every subcommand uses the same exit-status convention (documented in
``repro --help``): 0 for success, 1 when verification found violations
(or mutants escaped), 2 for usage, specification or input errors.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Sequence

from .analysis.reporting import expansion_listing, figure4_table, format_table
from .core.options import RunOptions
from .core.protocol import ProtocolDefinitionError
from .core.serialize import result_to_json
from .core.verifier import verify
from .protocols.dsl import DslError, load_protocol, parse_protocol_file

# Everything else -- the protocol zoo and its registry, the mutation
# catalogs, the interpreter's ``explore``, the diagram and trace
# exporters and each subcommand's own modules -- is imported inside the
# ``_cmd_*`` function that uses it, so that a spec-file ``repro batch``
# loads only the modules it runs.

#: ``--mutant`` choices: the keys of both catalogs in
#: :mod:`repro.protocols.mutations` (safety bugs and the safety-clean
#: starvation bugs only liveness modes reject), spelled out so building
#: the parser does not import them (a test keeps them equal).
_MUTANT_CHOICES = (
    "drop-invalidation",
    "drop-release",
    "drop-update-broadcast",
    "forget-supplier-demotion",
    "ignore-sharing-line",
    "skip-memory-update-on-supply",
    "skip-replacement-writeback",
    "stall-forever",
    "stall-write-miss",
)

#: ``--workload`` choices: the keys of
#: :data:`repro.simulator.workloads.WORKLOADS`, spelled out so building
#: the parser does not import the simulator (a test keeps them equal).
_WORKLOAD_CHOICES = ("hot-block", "migratory", "producer-consumer", "uniform")

#: ``profile --format`` choices: the sorted keys of
#: :data:`repro.obs.export.EXPORTERS` (a test keeps them equal).
_EXPORT_CHOICES = ("chrome-trace", "json", "prometheus")

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_VIOLATION",
    "EXIT_ERROR",
    "EXIT_INTERRUPTED",
]

#: Exit status: every requested check passed.
EXIT_OK = 0
#: Exit status: verification found violations / mutants escaped.
EXIT_VIOLATION = 1
#: Exit status: usage, specification or input error.
EXIT_ERROR = 2
#: Exit status: interrupted by SIGINT (128 + signal number 2).  The
#: batch engine flushes a ``run_aborted`` journal event first, so the
#: run can be picked up again with ``repro batch --resume``.  SIGTERM
#: gets the same treatment and exits 143 (128 + 15) -- see
#: :data:`_last_signal`.
EXIT_INTERRUPTED = 130

#: The terminating signal a CLI trampoline recorded before raising
#: ``KeyboardInterrupt``; ``main`` turns it into the conventional
#: 128+signum exit status (143 for SIGTERM).  ``None`` outside signal
#: handling (a plain Ctrl-C raises KeyboardInterrupt natively).
_last_signal: int | None = None


def _signal_to_interrupt(signum: int, frame: object) -> None:
    """Route SIGTERM through the SIGINT path: journal, then 128+signum.

    An orchestrator's kill must behave like an operator's Ctrl-C --
    the batch engine flushes ``run_aborted`` and keeps every journaled
    result -- differing only in the exit status reported.
    """
    global _last_signal
    _last_signal = signum
    raise KeyboardInterrupt

_EXIT_STATUS_DOC = """\
exit status:
  0   success -- every requested check passed
  1   verification found violations (or mutants escaped the verifier,
      or lint found error-severity problems)
  2   usage, specification or input error (unknown protocol, bad spec
      file, malformed arguments, crashed/timed-out batch jobs,
      budget-exhausted partial results, preflight-rejected
      specifications)
  130 interrupted (SIGINT, 128+2); an interrupted batch flushes its
      journal and can be continued with `repro batch --resume JOURNAL`
  143 terminated (SIGTERM, 128+15); same journal semantics as 130
"""


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    from .protocols.mutations import LIVENESS_MUTATIONS, MUTATIONS
    from .protocols.registry import all_protocols
    from .simulator.workloads import WORKLOADS

    rows = []
    for spec in all_protocols():
        rows.append(
            [
                spec.name,
                spec.full_name,
                len(spec.states),
                "sharing-detection" if spec.uses_sharing_detection else "null",
            ]
        )
    print(format_table(["name", "protocol", "|Q|", "F"], rows))
    print()
    print("mutations:", ", ".join(MUTATIONS))
    print("liveness mutations:", ", ".join(LIVENESS_MUTATIONS))
    print("workloads:", ", ".join(WORKLOADS))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    options = RunOptions.from_args(args)
    partial = violated = False
    if args.spec_file:
        specs = [parse_protocol_file(args.spec_file)]  # verify() validates
    else:
        from .protocols.registry import resolve_specs

        specs = resolve_specs(args.protocol)
    for spec in specs:
        if args.mutant:
            from .protocols.mutations import get_mutant

            spec = get_mutant(spec, args.mutant)
        report = verify(spec, options=options)
        if report.lint is not None and not report.lint.clean:
            for diagnostic in report.lint.diagnostics:
                print(f"lint: {diagnostic.render(report.lint.target)}")
        if args.quiet:
            print(report)
        else:
            print(report.render())
            if report.result.augmented:
                print(figure4_table(report.result))
                print()
        if args.trace:
            from .core.essential import explore
            from .engine.guard import Guard

            traced = explore(
                spec,
                augmented=options.augmented,
                keep_trace=True,
                guard=Guard(options.budget()),
            )
            print(expansion_listing(traced))
            print()
        if args.dot:
            from .core.graph import to_dot

            dot = to_dot(report.result)
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot + "\n")
            print(f"DOT diagram written to {args.dot}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(result_to_json(report.result) + "\n")
            print(f"JSON result written to {args.json}")
        # Classified as a batch classifies a job: violations found
        # before a budget expired are definitive, and a partial run
        # without any cannot claim a verdict.
        if report.partial and not report.result.violations:
            partial = True
        elif not report.ok:
            violated = True
    if partial:
        return EXIT_ERROR
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    from .engine import (
        BackoffPolicy,
        CircuitBreaker,
        ResultCache,
        RunJournal,
        VerificationJob,
        registry_jobs,
        run_batch,
    )

    options = RunOptions.from_args(args)
    jobs = registry_jobs(
        # ``none`` names no protocol: spec-file-only batches.
        [name for name in args.protocols if name != "none"],
        options,
        mutants=args.mutants,
    )
    for path in args.spec_file:
        jobs.append(VerificationJob(spec_file=path, options=options))

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    resume_events = None
    journal_path = args.journal
    journal_mode = "new"
    if args.resume:
        if args.journal and args.journal != args.resume:
            raise ValueError(
                "--resume continues the given journal; do not also pass "
                "a different --journal"
            )
        resume_events = RunJournal.read(args.resume)
        journal_path = args.resume
        journal_mode = "append"
    backoff = (
        BackoffPolicy(base=args.backoff) if args.backoff is not None else None
    )
    breaker = (
        CircuitBreaker(
            threshold=args.breaker_threshold, cooldown=args.breaker_cooldown
        )
        if args.breaker_threshold is not None
        else None
    )
    # A container orchestrator's SIGTERM aborts the run exactly like
    # Ctrl-C: journal flushed, exit 128+15.  Restored afterwards so
    # the handler never leaks into other subcommands run in the same
    # interpreter (tests).
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _signal_to_interrupt)
    except ValueError:  # not the main thread; keep the default handler
        previous_sigterm = None
    try:
        with RunJournal(journal_path, mode=journal_mode) as journal:
            report = run_batch(
                jobs,
                workers=args.jobs,
                cache=cache,
                journal=journal,
                timeout=args.timeout,
                retries=args.retries,
                grace=args.grace,
                resume=resume_events,
                backoff=backoff,
                breaker=breaker,
            )
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    print(report.summary_table())
    lint_findings = report.lint_table()
    if lint_findings:
        print()
        print(lint_findings)
    print()
    print(report.counts_line())
    if journal_path:
        print(f"journal written to {journal_path}")
    return report.exit_code


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .engine import ResultCache, RunJournal
    from .testkit import (
        CampaignConfig,
        Corpus,
        GeneratorConfig,
        OracleBudget,
        run_campaign,
    )

    if args.replay:
        corpus = Corpus(args.corpus)
        entries = corpus.entries()
        if not entries:
            raise ValueError(f"no corpus entries under {args.corpus}")
        replay = corpus.replay()
        print(replay.describe())
        return EXIT_OK if replay.ok else EXIT_VIOLATION

    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if not 1 <= args.max_n <= 5:
        raise ValueError("--max-n must be between 1 and 5")
    if args.soundness_max_n < args.max_n:
        raise ValueError("--soundness-max-n must be at least --max-n")
    options = RunOptions.from_args(args, base=RunOptions(max_visits=60_000))
    budget = OracleBudget(
        ns=tuple(range(1, args.max_n + 1)),
        soundness_ns=tuple(range(1, args.soundness_max_n + 1)),
        symbolic_visits=options.max_visits,
        concrete_visits=args.concrete_visits,
        deadline=options.deadline,
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    with RunJournal(args.journal) as journal:
        report = run_campaign(
            CampaignConfig(
                seed=args.seed,
                count=args.count,
                options=options,
                generator=GeneratorConfig(p_stall=args.p_stall),
                budget=budget,
                workers=args.jobs,
                corpus_dir=None if args.no_persist else args.corpus,
                journal=journal,
                cache=cache,
            )
        )
    print(report.describe())
    if args.findings:
        Path(args.findings).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"findings written to {args.findings}")
    if args.journal:
        print(f"journal written to {args.journal}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_diff(args: argparse.Namespace) -> int:
    from .testkit.diff import CHECKS, SOURCES, run_diff

    reports = run_diff()
    for report in reports:
        if report.findings or report.skipped:
            print(report.describe())
    failed = sum(1 for r in reports if not r.ok)
    skipped = sum(1 for r in reports if r.skipped)
    print(
        f"{len(reports)} specs from {len(SOURCES)} sources x "
        f"{len(CHECKS)} checks ({', '.join(CHECKS)}): "
        f"{skipped} with skipped checks, {failed} with findings"
    )
    return EXIT_OK if failed == 0 else EXIT_VIOLATION


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .engine import BackoffPolicy, CircuitBreaker, ResultCache
    from .serve import AdmissionPolicy, ServeApp

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


def _watch_campaign(
    url: str, campaign: str, *, offset: int = 0, quiet: bool = False
) -> int:
    """Stream one campaign to the end; return its 0/1/2 exit status."""
    from .serve import client

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


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import client

    accepted = client.submit(args.url, _submit_payload(args))
    print(f"campaign {accepted['id']} accepted ({args.url}{accepted['location']})")
    if not args.watch:
        return EXIT_OK
    return _watch_campaign(args.url, accepted["id"], quiet=args.quiet)


def _cmd_watch(args: argparse.Namespace) -> int:
    return _watch_campaign(
        args.url, args.campaign, offset=args.offset, quiet=args.quiet
    )


def _explain_rules(codes: Sequence[str]) -> int:
    """``repro lint --explain``: print one rule's documentation card."""
    from .lint import RULES, SYNTAX_RULE
    from .lint.registry import resolve_codes

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


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import RENDERERS, lint_all, lint_path, lint_protocol

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


def _resolve_one_spec(target: str):
    """One spec from a path, registry name or builtin DSL name."""
    from pathlib import Path

    if Path(target).exists():
        return load_protocol(target)
    from .protocols.registry import get_protocol

    try:
        return get_protocol(target)
    except KeyError:
        pass
    from .protocols.dsl import load_builtin

    try:
        return load_builtin(target)
    except KeyError:
        raise ValueError(
            f"unknown spec {target!r}: not a file, a registry protocol "
            "or a builtin DSL spec"
        ) from None


def _cmd_ir(args: argparse.Namespace) -> int:
    import json

    from .ir import canonical_json, lower

    ir = lower(_resolve_one_spec(args.spec))
    if args.fingerprint:
        print(ir.fingerprint())
    elif args.compact:
        print(canonical_json(ir.to_dict()))
    else:
        print(json.dumps(ir.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    from .engine import RunJournal, VerificationJob, registry_jobs, run_batch
    from .obs.collector import Collector, use_collector
    from .obs.export import EXPORT_EXTENSIONS, EXPORTERS
    from .obs.profile import render_report

    options = RunOptions.from_args(args)
    jobs = registry_jobs(
        args.protocol, options, mutant=args.mutant, mutants=args.mutants
    )
    for path in args.spec_file:
        jobs.append(VerificationJob(spec_file=path, options=options))
    if not jobs:
        raise ValueError(
            "nothing to profile: give protocol names, 'all' or --spec-file"
        )

    label = jobs[0].label if len(jobs) == 1 else f"batch-{len(jobs)}"
    collector = Collector(label)
    # Serial, cache-less, in-process: every expansion span lands in
    # this collector instead of a worker's (parallel workers would
    # keep their spans to themselves) and nothing short-circuits the
    # work being measured.  The batch runs the engine users run (the
    # kernel); one interpreter pass per job then adds the span tree a
    # profile explains (expand.step, witness.check, prune.*).
    with use_collector(collector), collector.span("profile", jobs=len(jobs)):
        report = run_batch(jobs, workers=1, cache=None, journal=RunJournal())
        comparison = _engine_comparison(collector, report.results)

    output = args.output or f"profile-{label}{EXPORT_EXTENSIONS[args.format]}"
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(EXPORTERS[args.format](collector))
    text = render_report(collector, title=f"repro profile -- {label}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    print()
    print(comparison)
    print()
    print(report.counts_line())
    print(f"{args.format} export written to {output}")
    return report.exit_code


def _engine_comparison(collector, results: list) -> str:
    """Run the interpreter once per batch result; pair the root spans.

    The serial batch records each job's ``kernel.expand`` root span
    before that job's ``engine.job`` span.  The interpreter's
    ``expand`` root span for the same spec and budgets, recorded here
    under the same collector, is the other column.
    """
    from .core.essential import PruningMode, explore
    from .engine.guard import Guard

    batch_roots: list = []
    root = None
    for record in collector.spans:
        if record.name == "kernel.expand" and root is None:
            root = record
        elif record.name == "engine.job":
            batch_roots.append(root)
            root = None
    rows = []
    for result, batch in zip(results, batch_roots):
        if result.summary is None or batch is None:
            continue  # nothing was expanded: the batch table says why
        options = result.job.options
        mark = len(collector.spans)
        explore(
            result.job.resolve_spec(),
            augmented=options.augmented,
            pruning=PruningMode(options.pruning),
            guard=Guard(options.budget()),
        )
        interp = collector.spans[mark]
        rows.append(
            [
                result.job.label,
                f"{interp.duration * 1000.0:.2f}",
                f"{batch.duration * 1000.0:.2f}",
                f"{interp.duration / batch.duration:.1f}x" if batch.duration else "-",
                interp.attrs["visits"],
                batch.attrs["visits"],
            ]
        )
    return format_table(
        [
            "protocol",
            "interp ms",
            "kernel ms",
            "speedup",
            "interp visits",
            "kernel visits",
        ],
        rows,
        title="interpreter vs kernel (one traced run each)",
    )


def _cmd_mutants(args: argparse.Namespace) -> int:
    from .engine import ResultCache, VerificationJob, run_batch
    from .protocols.mutations import mutants_for
    from .protocols.registry import resolve_specs

    jobs = []
    for spec in resolve_specs(args.protocol):
        for mutant in mutants_for(spec):
            jobs.append(
                VerificationJob(protocol=spec.name, mutant=mutant.mutation.key)
            )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    report = run_batch(jobs, workers=args.jobs, cache=cache)

    rows = []
    escaped = 0
    errors = 0
    for result in report.results:
        if not result.completed:
            errors += 1
            rows.append([result.job.label, result.verdict, "-", result.error or "-"])
            continue
        payload = result.payload
        assert payload is not None
        if payload["verified"]:
            escaped += 1
        kinds = ",".join(sorted({v["kind"] for v in payload["violations"]})) or "-"
        rows.append(
            [
                result.job.label,
                "KILLED" if not payload["verified"] else "SURVIVED",
                payload["stats"]["visits"],
                kinds,
            ]
        )
    print(
        format_table(
            ["mutant", "verdict", "visits", "violation kinds"],
            rows,
            title="Injected-bug detection by the symbolic verifier",
        )
    )
    if errors:
        print(f"\nERROR: {errors} mutant jobs did not complete")
        return EXIT_ERROR
    if escaped:
        print(f"\nWARNING: {escaped} mutants escaped the verifier")
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration.exhaustive import Equivalence
    from .kernel import enumerate_space
    from .protocols.registry import resolve_specs

    [spec] = resolve_specs(args.protocol)
    options = RunOptions.from_args(args)
    equivalence = Equivalence.COUNTING if args.counting else Equivalence.STRICT
    guard = None
    if options.deadline is not None:
        from .engine.guard import Budget, Guard

        guard = Guard(Budget(deadline=options.deadline))
    result = enumerate_space(spec, args.n, equivalence=equivalence, guard=guard)
    if result.partial:
        why = result.exhausted.describe() if result.exhausted else "budget"
        verdict = (
            f"PARTIAL ({why}; {len(result.frontier)} frontier states "
            "unexpanded)"
        )
    else:
        verdict = "no violations" if result.ok else "VIOLATIONS FOUND"
    print(
        f"{spec.name}, n={args.n}, {equivalence.value} equivalence: "
        f"{result.stats.unique_states} states, {result.stats.visits} visits, "
        f"{verdict}"
    )
    if result.violations and result.partial:
        print("  (violations found before exhaustion are definitive)")
    if args.show_states:
        for state in result.states:
            print("  ", state.pretty())
    if result.violations:
        return EXIT_VIOLATION
    return EXIT_ERROR if result.partial else EXIT_OK


def _cmd_crossval(args: argparse.Namespace) -> int:
    from .enumeration.crossval import OracleBudget, run_oracle
    from .protocols.registry import resolve_specs

    budget = OracleBudget(ns=tuple(range(1, args.max_n + 1)))
    mismatch = partial = False
    for spec in resolve_specs(args.protocol):
        report = run_oracle(spec, budget=budget)
        print(report.describe())
        missing = [n for n in budget.ns if n not in report.checked_ns]
        if report.outcome == "disagree":
            mismatch = True
        elif report.outcome == "skipped":
            partial = True
        elif missing:
            partial = True
            print(f"  concrete budget exhausted at n={missing}: inconclusive")
        elif report.vacuous:
            mismatch = True
    if mismatch:
        return EXIT_VIOLATION
    return EXIT_ERROR if partial else EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator.system import System
    from .simulator.traceio import load_trace, save_trace
    from .protocols.mutations import get_mutant
    from .protocols.registry import resolve_specs
    from .simulator.workloads import make_workload

    [spec] = resolve_specs(args.protocol)
    if args.mutant:
        spec = get_mutant(spec, args.mutant)
    if args.trace_file:
        trace = load_trace(args.trace_file)
        if trace.processors > args.processors:
            args.processors = trace.processors
    else:
        trace = make_workload(
            args.workload, args.processors, args.length, seed=args.seed
        )
    if args.save_trace:
        save_trace(trace, args.save_trace)
        print(f"trace written to {args.save_trace}")
    system = System(spec, args.processors, num_sets=args.sets, strict=False)
    report = system.run(trace, stop_on_violation=args.stop_on_violation)
    print(f"{spec.name} on {trace.describe()}")
    print(report.summary())
    for violation in report.violations[:5]:
        print("  ", violation)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.compare import compare_protocols
    from .core.essential import explore
    from .protocols.registry import resolve_specs

    [spec_a] = resolve_specs(args.a)
    [spec_b] = resolve_specs(args.b)
    result_a = explore(spec_a)
    result_b = explore(spec_b)
    print(compare_protocols(result_a, result_b).render())
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweeps import sweep_table, traffic_sweep
    from .protocols.registry import resolve_specs

    points = traffic_sweep(
        resolve_specs(args.protocol),
        [args.workload],
        args.processors,
        length=args.length,
        seed=args.seed,
        workers=args.workers,
    )
    print(sweep_table(points, workload=args.workload))
    return EXIT_OK if all(p.violations == 0 for p in points) else EXIT_VIOLATION


def _cmd_fragility(args: argparse.Namespace) -> int:
    from .protocols.perturb import criticality_profile
    from .protocols.registry import resolve_specs

    for spec in resolve_specs(args.protocol):
        report = criticality_profile(spec, picks=args.picks, jobs=args.jobs)
        print(
            format_table(
                ["state", "op", "broken/judged", "fragility"],
                report.site_rows(),
                title=f"fragility map -- {spec.full_name or spec.name}",
            )
        )
        print(
            f"  {report.attempted} edits, {report.ill_formed} ill-formed, "
            f"{report.survived} survived, {report.broken} broke coherence "
            f"({report.fragility:.0%} fragility)\n"
        )
    return EXIT_OK


def _cmd_fsm(args: argparse.Namespace) -> int:
    from .analysis.fsm import check_definition_1
    from .protocols.registry import resolve_specs

    status = EXIT_OK
    for spec in resolve_specs(args.protocol):
        problems = check_definition_1(spec)
        if problems:
            status = EXIT_VIOLATION
            print(f"{spec.name}: Definition 1 VIOLATED")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{spec.name}: cache FSM strongly connected (Definition 1 ok)")
    return status


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symbolic verification of cache coherence protocols "
        "(Pong & Dubois, SPAA 1993 reproduction)",
        epilog=_EXIT_STATUS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list protocols, mutations and workloads")

    p = sub.add_parser("verify", help="symbolically verify a protocol")
    p.add_argument(
        "protocol",
        nargs="?",
        default="all",
        help="protocol name or 'all' (ignored with --spec-file)",
    )
    p.add_argument(
        "--spec-file",
        metavar="FILE",
        help="verify a protocol written in the specification language",
    )
    p.add_argument("--mutant", choices=_MUTANT_CHOICES, help="inject a bug first")
    p.add_argument("--trace", action="store_true", help="print the expansion steps")
    p.add_argument("--dot", metavar="FILE", help="write the diagram as DOT")
    p.add_argument("--json", metavar="FILE", help="write the full result as JSON")
    p.add_argument("--quiet", action="store_true", help="one-line summaries only")
    RunOptions.add_arguments(p)

    p = sub.add_parser(
        "batch",
        help="batch-verify many specs in parallel with caching + journal",
        description="Verify many specifications through the batch engine: "
        "a multiprocessing worker pool with per-job timeouts, bounded "
        "retries and crash isolation, a persistent content-addressed "
        "result cache keyed by spec fingerprint, and a structured JSONL "
        "run journal.  Results are journaled and cached incrementally, "
        "so an interrupted run (Ctrl-C exits with status 130 after "
        "flushing a run_aborted journal event) keeps everything finished "
        "so far and can be continued with --resume JOURNAL, which "
        "re-dispatches only unfinished jobs.",
        epilog=_EXIT_STATUS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "--protocols",
        nargs="+",
        default=["all"],
        metavar="NAME",
        help="protocol names, 'all', or 'none' for spec-file-only runs "
        "(default: all)",
    )
    p.add_argument(
        "--mutants",
        action="store_true",
        help="also verify every applicable injected-bug mutant",
    )
    p.add_argument(
        "--spec-file",
        action="append",
        default=[],
        metavar="FILE",
        help="additionally verify a DSL specification (repeatable)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process fallback)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache directory (default: ~/.cache/repro)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p.add_argument(
        "--journal", metavar="FILE", help="write the JSONL run journal here"
    )
    p.add_argument(
        "--timeout",
        type=float,
        help="per-job wall-clock budget in seconds (forces worker processes)",
    )
    p.add_argument(
        "--grace",
        type=float,
        help="soft-cancel window for timed-out jobs: seconds granted to "
        "emit a partial result before SIGKILL (default: 1)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retry budget for timed-out/crashed jobs (default: 1)",
    )
    p.add_argument(
        "--backoff",
        type=float,
        metavar="SECONDS",
        help="base delay for exponential retry backoff with "
        "deterministic jitter (attempt n waits ~SECONDS*2^(n-2), "
        "capped at 30s); default: retries re-dispatch immediately",
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        metavar="N",
        help="trip a per-spec circuit breaker after N consecutive "
        "crashes/timeouts: further attempts are quarantined "
        "(status QUARANTINED, never cached) until the cooldown "
        "half-opens the breaker; default: no breaker",
    )
    p.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds a tripped breaker stays open before admitting "
        "one half-open probe (default: 30)",
    )
    p.add_argument(
        "--resume",
        metavar="JOURNAL",
        help="continue an interrupted run: replay finished jobs from "
        "this journal (and the cache), re-dispatch only the rest; "
        "appends to the same journal file",
    )
    RunOptions.add_arguments(p)

    p = sub.add_parser(
        "lint",
        help="statically analyze specs without running verification",
        description="Run the static protocol analyzer (repro.lint) over "
        "DSL spec files, registry protocols or the whole shipped zoo. "
        "Rules are addressable as PLxxx codes or kebab-case names; see "
        "docs/LINT.md for the catalog.",
    )
    p.add_argument(
        "spec_file",
        nargs="*",
        help="DSL specification files to analyze",
    )
    p.add_argument(
        "--protocol",
        action="append",
        default=[],
        metavar="NAME",
        help="also lint a registry protocol (repeatable)",
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="lint every registry protocol and every builtin DSL spec",
    )
    p.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="only run these rules (PLxxx codes or names, comma-separated; "
        "repeatable)",
    )
    p.add_argument(
        "--ignore",
        action="append",
        metavar="RULES",
        help="skip these rules (PLxxx codes or names, comma-separated; "
        "repeatable)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text; 'sarif' emits SARIF 2.1.0)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings too, not just errors",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the report here instead of stdout",
    )
    p.add_argument(
        "--explain",
        action="append",
        default=[],
        metavar="RULE",
        help="print one rule's documentation card -- rationale, severity "
        "and a minimal triggering specification -- instead of linting "
        "(PLxxx code or kebab-case name; repeatable)",
    )

    p = sub.add_parser(
        "ir",
        help="work with the guarded-action intermediate representation",
        description="Lower a specification to the canonical guarded-action "
        "IR (repro.ir): an interned, deterministic decision-list form "
        "shared by DSL and registry protocols, with a stable content "
        "fingerprint.  See docs/IR.md for the format.",
    )
    ir_sub = p.add_subparsers(dest="ir_command", required=True)
    p = ir_sub.add_parser(
        "dump", help="print a spec's IR as canonical JSON"
    )
    p.add_argument(
        "spec",
        help="a DSL spec file path, a registry protocol name, or a "
        "builtin DSL spec name",
    )
    p.add_argument(
        "--compact",
        action="store_true",
        help="single-line canonical JSON (the exact fingerprint input)",
    )
    p.add_argument(
        "--fingerprint",
        action="store_true",
        help="print only the SHA-256 content fingerprint",
    )

    p = sub.add_parser(
        "profile",
        help="verify under instrumentation; write a report + trace file",
        description="Run protocols (or DSL specs) through the verification "
        "pipeline with repro.obs instrumentation enabled: spans around "
        "expansion, pruning, witness search and engine phases, plus "
        "visit/prune/cache counters.  Prints a text report and writes "
        "the full trace in the chosen export format (chrome-trace "
        "output loads in Perfetto / chrome://tracing).  The batch runs "
        "on the engine users run (the compiled kernel); one traced "
        "interpreter run per job follows, and an interpreter-vs-kernel "
        "wall-time/visits table is printed.",
    )
    p.add_argument(
        "protocol",
        nargs="*",
        default=[],
        help="protocol names or 'all'",
    )
    p.add_argument(
        "--spec-file",
        action="append",
        default=[],
        metavar="FILE",
        help="additionally profile a DSL specification (repeatable)",
    )
    p.add_argument("--mutant", choices=_MUTANT_CHOICES, help="inject a bug first")
    p.add_argument(
        "--mutants",
        action="store_true",
        help="also profile every applicable injected-bug mutant",
    )
    RunOptions.add_arguments(p, only=("augmented",))
    p.add_argument(
        "--format",
        choices=_EXPORT_CHOICES,
        default="chrome-trace",
        help="trace export format (default: chrome-trace)",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="trace file path (default: profile-<label> with the "
        "format's conventional extension)",
    )
    p.add_argument(
        "--report",
        metavar="FILE",
        help="also write the text report to this file",
    )

    p = sub.add_parser("mutants", help="verify every injected-bug variant")
    p.add_argument("protocol", help="protocol name or 'all'")
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="reuse cached verdicts from this result-cache directory",
    )

    p = sub.add_parser("enumerate", help="explicit Figure 2 state enumeration")
    p.add_argument("protocol")
    p.add_argument("-n", type=int, default=3, help="number of caches")
    p.add_argument("--counting", action="store_true", help="Definition 5 equivalence")
    p.add_argument("--show-states", action="store_true")
    RunOptions.add_arguments(p, only=("deadline",))

    p = sub.add_parser("crossval", help="Theorem 1 cross-validation")
    p.add_argument("protocol", help="protocol name or 'all'")
    p.add_argument("--max-n", type=int, default=4)

    p = sub.add_parser("simulate", help="run the executable multiprocessor")
    p.add_argument("protocol")
    p.add_argument("-w", "--workload", choices=_WORKLOAD_CHOICES, default="hot-block")
    p.add_argument("-p", "--processors", type=int, default=4)
    p.add_argument("-l", "--length", type=int, default=10000)
    p.add_argument("--sets", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutant", choices=_MUTANT_CHOICES)
    p.add_argument("--stop-on-violation", action="store_true")
    p.add_argument("--trace-file", metavar="FILE", help="replay a saved trace")
    p.add_argument("--save-trace", metavar="FILE", help="save the trace used")

    p = sub.add_parser("compare", help="compare two protocols' diagrams")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("fsm", help="Definition 1 checks on the cache FSM")
    p.add_argument("protocol", help="protocol name or 'all'")

    p = sub.add_parser(
        "fragility", help="verify every single-point edit of a protocol"
    )
    p.add_argument("protocol", help="protocol name or 'all'")
    p.add_argument("--picks", type=int, default=2)
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the edit sweep (1 = serial)",
    )

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the symbolic vs concrete engines",
        description="Draw seeded well-formed protocol specifications, "
        "verify each with the symbolic expansion (dispatched through the "
        "batch engine) and the exhaustive small-n enumeration, and flag "
        "any verdict or Theorem 1 coverage disagreement.  Disagreements "
        "are auto-shrunk to a minimal specification and persisted to the "
        "regression corpus; --replay re-verifies the stored corpus.  "
        "Here --max-visits defaults to 60000 and --deadline bounds every "
        "search, symbolic and concrete (exhausted comparisons are "
        "reported as skipped, never as findings).",
        epilog=_EXIT_STATUS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--count", type=int, default=20, help="specifications to draw"
    )
    p.add_argument(
        "--max-n",
        type=int,
        default=3,
        help="largest cache count enumerated for completeness/coverage",
    )
    p.add_argument(
        "--soundness-max-n",
        type=int,
        default=5,
        help="largest cache count searched for a rejection witness",
    )
    p.add_argument(
        "--concrete-visits",
        type=int,
        default=400_000,
        help="visit budget for each concrete enumeration",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the symbolic batch (1 = serial)",
    )
    p.add_argument(
        "--corpus",
        metavar="DIR",
        default="tests/corpus",
        help="regression corpus directory (default: tests/corpus)",
    )
    p.add_argument(
        "--no-persist",
        action="store_true",
        help="do not write findings into the corpus",
    )
    p.add_argument(
        "--findings",
        metavar="FILE",
        help="write the deterministic findings document (JSON) here",
    )
    p.add_argument(
        "--journal", metavar="FILE", help="write the run journal here"
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="reuse cached symbolic verdicts from this result cache "
        "(default: no cache, so repeated runs journal identically)",
    )
    p.add_argument(
        "--replay",
        action="store_true",
        help="re-verify every corpus entry instead of fuzzing",
    )
    RunOptions.add_arguments(p, only=("mode", "max_visits", "deadline"))
    p.add_argument(
        "--p-stall",
        type=float,
        default=0.0,
        metavar="P",
        help="probability of stalling rules in generated specs (0 "
        "disables; raise it in liveness modes so the generator actually "
        "draws starvable protocols)",
    )

    sub.add_parser(
        "diff",
        help="the differential gate: every check over every spec source",
        description="Run every differential check (IR against react() cell "
        "by cell, flow over-approximation, kernel/interpreter parity, "
        "witnessed liveness verdicts, the Theorem 1 oracle) over every "
        "spec source (zoo, builtin DSL specs, mutants, starvation mutants, "
        "the tests/corpus regression corpus, seeded generated specs).  "
        "Prints every spec with a finding or a skipped check, then one "
        "summary line; exits 1 on any finding.  Takes no options.",
        epilog=_EXIT_STATUS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )

    p = sub.add_parser(
        "serve",
        help="run the verification-as-a-service campaign server",
        description="Start the long-running campaign service (repro.serve): "
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
        "contract: docs/SERVICE.md.",
        epilog=_EXIT_STATUS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8642, help="bind port")
    p.add_argument(
        "--state-dir",
        default="repro-serve",
        metavar="DIR",
        help="campaign state root: journals, reports, inline specs "
        "(default: ./repro-serve)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent campaigns (scheduler worker pool, default: 2)",
    )
    p.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="worker processes per campaign batch (default: 1, serial)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="shared result cache directory (default: ~/.cache/repro)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=SECONDS",
        help="wall-clock allotment for one tenant (repeatable); tenants "
        "without one are unlimited",
    )
    RunOptions.add_arguments(p, only=("preflight",))
    p.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admission control: campaigns queued per priority lane "
        "before new submissions get 429 + Retry-After (default: 64)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission control: concurrently executing campaigns "
        "before new submissions get 429 (default: unlimited)",
    )
    p.add_argument(
        "--read-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-connection bound on parsing one request; slow "
        "clients get 408 (default: 10; 0 disables)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful drain (SIGTERM/SIGINT): seconds an in-flight "
        "job gets to honour its soft-cancel before SIGKILL "
        "(default: 5)",
    )

    p = sub.add_parser(
        "submit",
        help="submit a campaign to a running campaign server",
        description="POST a campaign to `repro serve` and print its id.  "
        "--watch then streams the journal live and exits with the "
        "campaign's own status, keeping the uniform 0/1/2 contract.",
        epilog=_EXIT_STATUS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8642")
    p.add_argument(
        "--protocols",
        nargs="+",
        default=["all"],
        metavar="NAME",
        help="protocol names or 'all' (default: all)",
    )
    p.add_argument(
        "--mutants",
        action="store_true",
        help="also verify every applicable injected-bug mutant",
    )
    p.add_argument(
        "--spec-file",
        action="append",
        default=[],
        metavar="FILE",
        help="submit a local DSL spec inline (repeatable; the server "
        "needs no shared filesystem)",
    )
    p.add_argument("--tenant", default="default", help="tenant to bill")
    p.add_argument(
        "--priority",
        choices=("high", "normal", "low"),
        default="normal",
        help="scheduler lane (default: normal)",
    )
    RunOptions.add_arguments(p)
    p.add_argument(
        "--watch",
        action="store_true",
        help="stream events until done; exit with the campaign status",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-event lines"
    )

    p = sub.add_parser(
        "watch",
        help="stream a campaign's journal events from a campaign server",
        description="Follow GET /campaigns/{id}/events over SSE until the "
        "campaign finishes, printing one line per journal event, then "
        "exit with the campaign's own 0/1/2 status.  Reconnects resume "
        "from the last seen byte offset, so no event is lost or doubled.",
        epilog=_EXIT_STATUS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8642")
    p.add_argument("campaign", help="campaign id from `repro submit`")
    p.add_argument(
        "--offset",
        type=int,
        default=0,
        help="journal byte offset to replay from (default: 0, the start)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="only print the final summary"
    )

    p = sub.add_parser("sweep", help="traffic sweep across machine sizes")
    p.add_argument("protocol", help="protocol name or 'all'")
    p.add_argument("-w", "--workload", choices=_WORKLOAD_CHOICES, default="hot-block")
    p.add_argument("-p", "--processors", type=int, nargs="+", default=[2, 4, 8])
    p.add_argument("-l", "--length", type=int, default=8000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)

    return parser


_HANDLERS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "batch": _cmd_batch,
    "lint": _cmd_lint,
    "ir": _cmd_ir,
    "profile": _cmd_profile,
    "mutants": _cmd_mutants,
    "enumerate": _cmd_enumerate,
    "crossval": _cmd_crossval,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "fsm": _cmd_fsm,
    "fragility": _cmd_fragility,
    "sweep": _cmd_sweep,
    "fuzz": _cmd_fuzz,
    "diff": _cmd_diff,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "watch": _cmd_watch,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status.

    Usage, specification and input errors (unknown protocol names,
    malformed spec files, unreadable traces) exit with status 2 so that
    scripts can tell "the protocol is broken" (1) from "the invocation
    is broken" (2).
    """
    global _last_signal
    args = build_parser().parse_args(argv)
    _last_signal = None
    try:
        return _HANDLERS[args.command](args)
    except KeyboardInterrupt:
        # The batch engine has already flushed a run_aborted journal
        # event by the time the interrupt reaches us (see run_batch).
        # SIGTERM routes through the same path (via the trampoline
        # handler) and reports 143 instead of 130.
        signame = (
            signal.Signals(_last_signal).name
            if _last_signal is not None
            else "SIGINT"
        )
        print(
            f"repro {args.command}: interrupted ({signame}); journaled "
            "results are kept (batch runs continue with --resume)",
            file=sys.stderr,
        )
        return 128 + _last_signal if _last_signal is not None else EXIT_INTERRUPTED
    except (
        KeyError,
        ValueError,
        OSError,
        DslError,
        ProtocolDefinitionError,
    ) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
