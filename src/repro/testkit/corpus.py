"""Content-addressed regression corpus for fuzzer findings.

Every corpus entry is a pair of files under one root (by convention
``tests/corpus/``), keyed by the SHA-256 of the DSL source:

* ``<digest16>.proto`` -- the (minimized) protocol specification, in
  the ordinary DSL so humans and every other tool can read it;
* ``<digest16>.json`` -- metadata: the full digest, the oracle
  outcome the entry pins (``"none"`` for agreement regressions, or a
  disagreement kind), the generator seed, shrink statistics and the
  oracle budget the finding was established under.

Content addressing makes adding idempotent (re-adding the same spec
overwrites the same pair) and renames impossible to get wrong.

``replay()`` re-runs the differential oracle over every entry with its
recorded budget and compares the observed outcome against the recorded
one -- drift in either direction (a pinned agreement now disagrees, or
a pinned disagreement no longer reproduces) is a regression.

Entries whose ``kind`` starts with ``"liveness-"`` pin *starvation*
bugs instead of oracle disagreements: replay runs the liveness
analysis (:mod:`repro.liveness`), re-executes the first lasso through
the reaction semantics, and compares the lasso's deterministic
signature against the one recorded in ``detail``.  A spec that became
safety-broken, went live, stopped replaying, or changed its lasso all
count as drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..enumeration.crossval import OracleBudget, OracleReport, run_oracle
from ..protocols.dsl import DslProtocol, parse_protocol
from .generate import source_digest

__all__ = ["CorpusEntry", "Corpus", "ReplayReport"]

SCHEMA = "repro-corpus/1"


@dataclass(frozen=True)
class CorpusEntry:
    """One persisted finding (or pinned agreement)."""

    digest: str
    #: ``"none"`` (both engines agree) or a disagreement kind.
    kind: str
    detail: str
    seed: int | None
    shrink_steps: int
    budget: OracleBudget
    source: str

    @property
    def key(self) -> str:
        """Filename stem: the first 16 hex digits of the digest."""
        return self.digest[:16]

    def compile(self) -> DslProtocol:
        """Parse the stored specification."""
        return parse_protocol(self.source, default_name=f"corpus-{self.key}")

    def to_metadata(self) -> dict:
        """The JSON metadata sidecar."""
        return {
            "schema": SCHEMA,
            "digest": self.digest,
            "kind": self.kind,
            "detail": self.detail,
            "seed": self.seed,
            "shrink_steps": self.shrink_steps,
            "budget": self.budget.to_dict(),
        }


@dataclass
class ReplayReport:
    """Outcome of re-verifying the whole corpus."""

    checked: int = 0
    #: ``(entry, observed outcome/kind)`` pairs that drifted.
    mismatches: list[tuple[CorpusEntry, str]] = field(default_factory=list)
    #: Oracle runs that were inconclusive (budget exhausted).
    skipped: list[CorpusEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every entry reproduced its recorded outcome."""
        return not self.mismatches

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"corpus replay: {self.checked} entries, "
            f"{len(self.mismatches)} drifted, {len(self.skipped)} skipped"
        ]
        for entry, observed in self.mismatches:
            lines.append(
                f"  DRIFT {entry.key}: recorded {entry.kind!r}, "
                f"observed {observed!r}"
            )
        for entry in self.skipped:
            lines.append(f"  skip  {entry.key}: oracle budget exhausted")
        return "\n".join(lines)


class Corpus:
    """The on-disk corpus under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def add(
        self,
        source: str,
        *,
        kind: str,
        detail: str = "",
        seed: int | None = None,
        shrink_steps: int = 0,
        budget: OracleBudget | None = None,
    ) -> CorpusEntry:
        """Persist *source* (idempotent: same source, same files)."""
        entry = CorpusEntry(
            digest=source_digest(source),
            kind=kind,
            detail=detail,
            seed=seed,
            shrink_steps=shrink_steps,
            budget=budget or OracleBudget(),
            source=source,
        )
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / f"{entry.key}.proto").write_text(
            source, encoding="utf-8"
        )
        (self.root / f"{entry.key}.json").write_text(
            json.dumps(entry.to_metadata(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return entry

    def entries(self) -> list[CorpusEntry]:
        """All entries, sorted by key (deterministic order)."""
        out: list[CorpusEntry] = []
        if not self.root.is_dir():
            return out
        for meta_path in sorted(self.root.glob("*.json")):
            payload = json.loads(meta_path.read_text(encoding="utf-8"))
            if payload.get("schema") != SCHEMA:
                raise ValueError(
                    f"{meta_path}: unknown corpus schema "
                    f"{payload.get('schema')!r}"
                )
            proto_path = meta_path.with_suffix(".proto")
            source = proto_path.read_text(encoding="utf-8")
            if source_digest(source) != payload["digest"]:
                raise ValueError(
                    f"{proto_path}: content does not match recorded digest"
                )
            out.append(
                CorpusEntry(
                    digest=payload["digest"],
                    kind=payload["kind"],
                    detail=payload.get("detail", ""),
                    seed=payload.get("seed"),
                    shrink_steps=int(payload.get("shrink_steps", 0)),
                    budget=OracleBudget.from_dict(payload["budget"]),
                    source=source,
                )
            )
        return out

    def __len__(self) -> int:
        return len(self.entries())

    def __iter__(self) -> Iterator[CorpusEntry]:
        return iter(self.entries())

    # ------------------------------------------------------------------
    def replay(self, *, augmented: bool = True) -> ReplayReport:
        """Re-run the oracle over every entry; flag outcome drift."""
        report = ReplayReport()
        for entry in self.entries():
            spec = entry.compile()
            spec.validate()
            if entry.kind.startswith("liveness-"):
                report.checked += 1
                observed = _replay_liveness(spec, entry, augmented=augmented)
                if observed != entry.kind:
                    report.mismatches.append((entry, observed))
                continue
            oracle: OracleReport = run_oracle(
                spec, budget=entry.budget, augmented=augmented
            )
            report.checked += 1
            if oracle.outcome == "skipped":
                report.skipped.append(entry)
                continue
            observed = (
                "none"
                if oracle.outcome == "agree"
                else oracle.disagreement.kind  # type: ignore[union-attr]
            )
            if observed != entry.kind:
                report.mismatches.append((entry, observed))
        return report


def _replay_liveness(spec, entry: CorpusEntry, *, augmented: bool) -> str:
    """Observed outcome for a pinned liveness entry.

    Returns the entry's own ``kind`` only when the spec is still
    safety-clean, still not live with the same flavour, the first lasso
    still replays through the reaction semantics, and -- when the entry
    pins one -- its signature still matches ``detail``.
    """
    from ..core.essential import explore
    from ..liveness import analyze_liveness, replay_lasso

    result = explore(
        spec, augmented=augmented, guard=entry.budget.symbolic_guard()
    )
    if result.violations:
        # The bug mutated into a safety violation: that is drift.
        return result.violations[0].kind.value
    liveness = analyze_liveness(result)
    if not liveness.checked:
        return "liveness-unchecked"
    if liveness.live:
        return "none"
    lasso = liveness.lassos[0]
    ok, reason = replay_lasso(result, lasso)
    if not ok:
        return f"liveness-unreplayable ({reason})"
    if entry.detail and entry.detail != lasso.signature:
        return f"liveness-signature-drift ({lasso.signature})"
    return f"liveness-{lasso.kind.value}"
