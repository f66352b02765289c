"""repro.testkit -- generative differential fuzzing of the verifier.

Theorem 1 is the paper's load-bearing claim: the essential composite
states completely characterize every concrete state an exhaustive
enumeration can reach, for *any* number of caches.  The rest of the
test suite stresses that claim with hand-written protocols and
perturbations of them; this subsystem removes the human from the loop:

* :mod:`repro.testkit.generate` -- a seeded generator of arbitrary
  *well-formed* protocol specifications (random state sets, transition
  tables, observer reactions, write-back/write-through mixes, with and
  without the sharing-detection characteristic function), validity
  checked through :meth:`ProtocolSpec.validate` and the
  :mod:`repro.lint` preflight;
* the differential oracle is the one Theorem 1 check,
  :func:`repro.enumeration.crossval.run_oracle` (re-exported here with
  its budget and report types): each generated specification runs
  through the symbolic ``explore()`` and the exhaustive
  ``enumerate_space()`` for small cache counts, and any verdict or
  coverage disagreement between the engines is a finding (vacuous
  essential states are recorded, never findings);
* :mod:`repro.testkit.shrink` -- a delta-debugging minimizer that
  greedily deletes states, rules and observer reactions while the
  disagreement persists, leaving a minimal reproducing specification;
* :mod:`repro.testkit.corpus` -- content-addressed storage of
  minimized findings under ``tests/corpus/`` and the ``--replay``
  regression check;
* :mod:`repro.testkit.campaign` -- the ``repro fuzz`` driver: a
  seeded, budgeted campaign whose symbolic half is dispatched through
  the engine batch runner (guard budgets, journal, result cache) and
  whose findings land in the corpus, auto-shrunk;
* :mod:`repro.testkit.diff` -- the differential gate: one table of
  spec sources (zoo, builtins, mutants, starvation mutants, the pinned
  corpus, generated and generated-stalling specs) times one table of
  checks (IR against ``react()`` cell by cell, flow over-approximation,
  kernel/interpreter parity, witnessed liveness verdicts, the Theorem 1
  oracle), each spec expanded once and shared by every check;
  ``repro diff`` runs it all.

Related verification efforts (the GAL model of a coherence protocol,
Meunier et al.; the CXL.cache formalisation, Tan et al.) found their
bugs by mechanically exploring specification spaces humans had not
anticipated; this package gives the reproduction the same adversary
and turns Theorem 1 from a tested claim into a continuously fuzzed
one.  See ``docs/TESTING.md``.
"""

from .campaign import CampaignConfig, CampaignReport, run_campaign
from .corpus import Corpus, CorpusEntry, ReplayReport
from .diff import Case, DiffReport, Finding, diff_spec, run_diff
from .generate import GeneratorConfig, RuleModel, SpecGenerator, SpecModel
from ..enumeration.crossval import (
    OracleBudget,
    OracleReport,
    SymbolicView,
    run_oracle,
    symbolic_view,
)
from .shrink import ShrinkResult, shrink

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "Case",
    "Corpus",
    "CorpusEntry",
    "DiffReport",
    "Finding",
    "GeneratorConfig",
    "OracleBudget",
    "OracleReport",
    "ReplayReport",
    "RuleModel",
    "ShrinkResult",
    "SpecGenerator",
    "SpecModel",
    "SymbolicView",
    "diff_spec",
    "run_campaign",
    "run_diff",
    "run_oracle",
    "shrink",
    "symbolic_view",
]
