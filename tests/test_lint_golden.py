"""Golden regression test for the static analyzer's output.

Every diagnostic ``lint`` reports -- spec, rule, severity, message and
location -- over the zoo, the builtin DSL specs, their safety and
liveness mutants, the pinned corpus and ``examples/specs`` is pinned to
``tests/goldens/lint/diagnostics.json``.  A refactor of the probe table,
the flow analysis or a rule that changes any finding fails here with
the target whose findings drifted.

Regenerate (after an *intentional* change to lint's findings) with::

    PYTHONPATH=src python -m tests.test_lint_golden
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import lint_path, lint_spec
from repro.protocols.dsl import builtin_spec_names, load_builtin
from repro.protocols.mutations import liveness_mutants_for, mutants_for
from repro.protocols.registry import all_protocols

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "goldens" / "lint" / "diagnostics.json"


def _file(path: str | None) -> str | None:
    """Artifact paths relative to the repository (builtins: file name)."""
    if path is None:
        return None
    resolved = Path(path).resolve()
    try:
        return resolved.relative_to(ROOT).as_posix()
    except ValueError:
        return resolved.name


def _rows(report) -> list[list[object]]:
    return [
        [
            d.spec_name,
            d.rule,
            d.severity.value,
            d.message,
            _file(d.location.file),
            d.location.line,
            d.location.col,
            d.location.symbol,
        ]
        for d in report.diagnostics
    ]


def current_payload() -> dict[str, list[list[object]]]:
    """``target -> diagnostic rows`` for every pinned target."""
    zoo = list(all_protocols())
    builtins = [load_builtin(name) for name in builtin_spec_names()]
    shipped = [*zoo, *builtins]
    specs = [
        *(("spec", spec) for spec in shipped),
        *(("mutant", m) for spec in shipped for m in mutants_for(spec)),
        *(("liveness-mutant", m) for spec in shipped for m in liveness_mutants_for(spec)),
    ]
    payload = {f"{kind}:{spec.name}": _rows(lint_spec(spec)) for kind, spec in specs}
    for directory in ("tests/corpus", "examples/specs"):
        for path in sorted((ROOT / directory).glob("*.proto")):
            payload[f"{directory}/{path.name}"] = _rows(lint_path(path))
    return payload


def test_lint_output_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = current_payload()
    assert sorted(current) == sorted(golden)
    drifted = [target for target in golden if current[target] != golden[target]]
    assert not drifted, (
        f"lint findings drifted on {drifted}; if the change is intentional, "
        "regenerate with `python -m tests.test_lint_golden`"
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
