"""Fuzz campaigns: the driver behind ``repro fuzz``.

A campaign is a seeded, budgeted loop: draw ``count`` well-formed
specifications (:mod:`repro.testkit.generate`), dispatch their
symbolic expansions through the engine batch runner -- inheriting its
worker pool, guard budgets, run journal and persistent result cache --
then run the concrete half of the differential oracle in-process
against each returned payload.  Disagreements are auto-shrunk
(:mod:`repro.testkit.shrink`) and persisted to the regression corpus
(:mod:`repro.testkit.corpus`).

Determinism contract: with a fixed seed and fixed budgets the entire
campaign -- every drawn specification, every verdict, the
:meth:`CampaignReport.to_dict` findings document -- is bit-identical
across runs.  The report therefore carries no timestamps and no
elapsed-time statistics; wall-clock facts live in the run journal,
whose event *sequence* (everything except the ``t`` stamps) is equally
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..core.options import RunOptions
from ..engine.batch import run_batch
from ..engine.cache import ResultCache
from ..engine.job import JobStatus, VerificationJob
from ..engine.journal import RunJournal
from ..enumeration.crossval import (
    OracleBudget,
    OracleReport,
    SymbolicView,
    run_oracle,
    symbolic_view,
)
from .corpus import Corpus
from .diff import Case, Context, Skip, run_check
from .generate import GeneratorConfig, SpecGenerator
from .shrink import shrink

__all__ = ["CampaignConfig", "CampaignReport", "run_campaign"]

SCHEMA = "repro-fuzz/1"


@dataclass
class CampaignConfig:
    """Everything one campaign needs, in one picklable bundle."""

    seed: int = 0
    #: Checked specifications to draw and compare.
    count: int = 20
    budget: OracleBudget = field(default_factory=OracleBudget)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    #: Run options for the symbolic side; its visit and deadline
    #: budgets come from ``budget``.  ``mode="liveness"`` additionally
    #: runs the differential gate's ``liveness`` check
    #: (:mod:`repro.testkit.diff`) on every generated spec the batch
    #: verified; a broken invariant is a campaign finding.
    options: RunOptions = RunOptions()
    #: Worker processes for the symbolic batch (1 = serial in-process).
    workers: int = 1
    #: Where findings are persisted; ``None`` disables persistence.
    corpus_dir: str | Path | None = None
    #: Shrink disagreements before persisting/reporting them.
    shrink_findings: bool = True
    journal: RunJournal | None = None
    cache: ResultCache | None = None

    def symbolic_options(self) -> RunOptions:
        """``options`` with the oracle budget's symbolic limits."""
        return replace(
            self.options,
            max_visits=self.budget.symbolic_visits,
            deadline=self.budget.deadline,
        )


@dataclass
class CampaignReport:
    """Deterministic outcome of one campaign (no wall-clock facts)."""

    seed: int
    count: int
    #: Raw draws attempted / rejected by validation+lint.
    generated: int = 0
    rejected: int = 0
    #: Per-spec oracle records, in draw order.
    specs: list[dict[str, Any]] = field(default_factory=list)
    #: Shrunk disagreement records, in draw order.
    findings: list[dict[str, Any]] = field(default_factory=list)
    budget: OracleBudget = field(default_factory=OracleBudget)

    @property
    def agreed(self) -> int:
        """Specs on which both engines agreed."""
        return sum(1 for s in self.specs if s["outcome"] == "agree")

    @property
    def skipped(self) -> int:
        """Inconclusive (budget-exhausted) comparisons."""
        return sum(1 for s in self.specs if s["outcome"] == "skipped")

    @property
    def starved(self) -> int:
        """Specs the liveness analysis found not live (liveness modes)."""
        return sum(1 for s in self.specs if s.get("live") is False)

    @property
    def ok(self) -> bool:
        """True iff the campaign surfaced no disagreement."""
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        """The canonical findings document (bit-deterministic)."""
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "count": self.count,
            "generated": self.generated,
            "rejected": self.rejected,
            "agreed": self.agreed,
            "skipped": self.skipped,
            "budget": self.budget.to_dict(),
            "specs": self.specs,
            "findings": self.findings,
        }

    def describe(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"fuzz campaign seed={self.seed}: {self.count} specs "
            f"({self.generated} drawn, {self.rejected} rejected), "
            f"{self.agreed} agree, {len(self.findings)} disagree, "
            f"{self.skipped} skipped"
        ]
        if self.starved:
            lines[0] += f", {self.starved} not live"
        for finding in self.findings:
            lines.append(
                f"  FINDING {finding['name']}: {finding['kind']} -- "
                f"{finding['detail']} "
                f"(minimized {finding['minimized_digest'][:16]}, "
                f"{finding['shrink_steps']} shrink steps)"
            )
        return "\n".join(lines)


def _spec_record(
    name: str, digest: str, report: OracleReport, live: bool | None
) -> dict[str, Any]:
    """One deterministic per-spec line for the findings document."""
    return {
        "name": name,
        "digest": digest,
        "outcome": report.outcome,
        "kind": report.disagreement.kind if report.disagreement else None,
        "skipped": report.skipped,
        "symbolic_verified": report.symbolic_verified,
        "checked_ns": list(report.checked_ns),
        "live": live,
    }


def _liveness_findings(
    spec: Any, name: str, digest: str
) -> tuple[bool | None, list[dict[str, Any]]]:
    """Liveness verdict plus the gate's ``liveness`` findings for *spec*.

    Runs :data:`repro.testkit.diff.CHECKS` ``["liveness"]`` in-process
    (generated specs are tiny) -- lasso replay, the static/dynamic
    agreement of PL008 (see docs/LIVENESS.md) and the rest -- and
    reports each broken invariant under a ``liveness-`` kind.
    """
    ctx = Context(Case("fuzz", spec))
    broken, _ = run_check("liveness", ctx)
    try:
        live: bool | None = ctx.liveness.live
    except Skip:
        live = None
    return live, [
        {
            "name": name,
            "kind": f"liveness-{finding.kind}",
            "detail": finding.detail,
            "n": None,
            "digest": digest,
            "minimized_digest": digest,
            "shrink_steps": 0,
            "shrink_attempts": 0,
        }
        for finding in broken
    ]


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run one fuzz campaign; see the module docstring for the shape."""
    generator = SpecGenerator(seed=config.seed, config=config.generator)
    drawn = [generator.draw_checked() for _ in range(config.count)]

    options = config.symbolic_options()
    jobs = [
        VerificationJob(spec=spec, options=options, label=model.name)
        for model, spec in drawn
    ]
    batch = run_batch(
        jobs, workers=config.workers, cache=config.cache, journal=config.journal
    )

    report = CampaignReport(
        seed=config.seed,
        count=config.count,
        generated=generator.generated,
        rejected=generator.rejected,
        budget=config.budget,
    )
    corpus = (
        Corpus(config.corpus_dir) if config.corpus_dir is not None else None
    )

    for (model, spec), result in zip(drawn, batch.results):
        digest = model.digest()
        if result.status in JobStatus.WITH_PAYLOAD:
            view = symbolic_view(result.payload)
        else:
            # The expansion itself failed (error/crash/timeout): there
            # is no symbolic verdict to differ with, so the comparison
            # is inconclusive, not a finding.
            view = SymbolicView(complete=False, violating=False, essential=())
        oracle = run_oracle(
            spec,
            budget=config.budget,
            symbolic=view,
            augmented=options.augmented,
        )
        live: bool | None = None
        if options.mode == "liveness" and result.status in (
            JobStatus.VERIFIED,
            JobStatus.LIVENESS_VIOLATION,
        ):
            live, broken = _liveness_findings(spec, model.name, digest)
            report.findings.extend(broken)
        report.specs.append(_spec_record(model.name, digest, oracle, live))
        if oracle.outcome != "disagree":
            continue

        assert oracle.disagreement is not None
        kind = oracle.disagreement.kind
        minimized = model
        steps = attempts = 0
        if config.shrink_findings:
            shrunk = shrink(
                model, kind, budget=config.budget, augmented=options.augmented
            )
            minimized, steps, attempts = (
                shrunk.model,
                shrunk.steps,
                shrunk.attempts,
            )
        finding = {
            "name": model.name,
            "kind": kind,
            "detail": oracle.disagreement.detail,
            "n": oracle.disagreement.n,
            "digest": digest,
            "minimized_digest": minimized.digest(),
            "shrink_steps": steps,
            "shrink_attempts": attempts,
        }
        report.findings.append(finding)
        if corpus is not None:
            corpus.add(
                minimized.render(),
                kind=kind,
                detail=oracle.disagreement.detail,
                seed=config.seed,
                shrink_steps=steps,
                budget=config.budget,
            )
    return report
