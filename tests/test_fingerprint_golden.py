"""Golden regression test for spec fingerprints (the cache-key substrate).

Every :func:`~repro.engine.fingerprint.spec_fingerprint` over the zoo,
the builtin DSL specs, their safety and liveness mutants, the
probe-shy test spec (whose ``react`` raises in an unreachable
present-set), the pinned corpus, ``examples/specs`` and the end-to-end
benchmark's specs is pinned to ``tests/goldens/fingerprints/specs.json``.
A fingerprint that moves moves a cache key, so a refactor of the
behaviour table or its rendering fails here with the targets that
drifted; a deliberate change also bumps ``ENGINE_VERSION``.

Regenerate (after an *intentional* fingerprint change) with::

    PYTHONPATH=src python -m tests.test_fingerprint_golden
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine import spec_fingerprint
from repro.protocols.dsl import builtin_spec_names, load_builtin, load_protocol
from repro.protocols.mutations import liveness_mutants_for, mutants_for
from repro.protocols.registry import all_protocols
from tests.helpers import ProbeShyIllinois

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "fingerprints" / "specs.json"
SPEC_DIRS = ("tests/corpus", "examples/specs", "benchmarks/e2e/specs")


def current_payload() -> dict[str, str]:
    """``target -> fingerprint`` for every pinned target."""
    zoo = list(all_protocols())
    builtins = [load_builtin(name) for name in builtin_spec_names()]
    shipped = [*zoo, *builtins]
    specs = [
        *(("spec", spec) for spec in [*shipped, ProbeShyIllinois()]),
        *(("mutant", m) for spec in shipped for m in mutants_for(spec)),
        *(
            ("liveness-mutant", m)
            for spec in shipped
            for m in liveness_mutants_for(spec)
        ),
    ]
    payload = {f"{kind}:{spec.name}": spec_fingerprint(spec) for kind, spec in specs}
    for directory in SPEC_DIRS:
        for path in sorted((ROOT / directory).glob("*.proto")):
            payload[f"{directory}/{path.name}"] = spec_fingerprint(load_protocol(path))
    return payload


def test_fingerprints_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = current_payload()
    assert sorted(current) == sorted(golden)
    drifted = [target for target in golden if current[target] != golden[target]]
    assert not drifted, (
        f"spec fingerprints drifted on {drifted}; if the change is "
        "intentional, bump ENGINE_VERSION and regenerate with "
        "`python -m tests.test_fingerprint_golden`"
    )


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps(current_payload(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("wrote", GOLDEN)


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
