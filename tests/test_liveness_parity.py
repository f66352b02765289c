"""Liveness from kernel facts is liveness from the interpreter oracle.

:func:`repro.liveness.analyze_liveness` reads who stalls, who is served
and where each step lands off the compiled kernel; the differential
gate's :class:`repro.testkit.diff.OracleFacts` rebuilds the same facts
with the interpreter.  Both feed one product-graph search, so over any
expansion the two reports must be byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.composite import Label, make_state
from repro.core.operators import Rep
from repro.core.symbols import DataValue, Op, SharingLevel
from repro.kernel import compile_protocol, explore
from repro.liveness import analyze_liveness
from repro.liveness.analyze import check_liveness
from repro.protocols.dsl import load_protocol
from repro.protocols.mutations import get_mutant, liveness_mutants_for
from repro.protocols.registry import all_protocols, get_protocol
from repro.testkit import GeneratorConfig, SpecGenerator
from repro.testkit.diff import OracleFacts

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def _specs():
    for spec in all_protocols():
        yield spec
        yield from liveness_mutants_for(spec)
    for path in sorted(CORPUS_DIR.glob("*.proto")):
        yield load_protocol(path)
    generator = SpecGenerator(seed=29, config=GeneratorConfig(p_stall=0.5))
    for _ in range(4):
        yield generator.draw_checked()[1]


def _document(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def test_kernel_facts_match_the_interpreter_oracle():
    checked = starving = 0
    for spec in _specs():
        result = explore(spec)
        kernel = analyze_liveness(result)
        oracle = check_liveness(result, OracleFacts)
        assert _document(kernel) == _document(oracle), spec.name
        checked += kernel.checked
        starving += kernel.live is False
    # The sources cover live and starving protocols alike.
    assert checked > 40 and starving > 20


class TestOffClassRequest:
    """A blocked cache whose symbol labels no class of its state."""

    SPEC = get_mutant(get_protocol("msi"), "stall-forever")
    #: ``(Shared+)``: every cache holds a copy, none is invalid.
    STATE = make_state(
        [(Label("Shared", DataValue.FRESH), Rep.PLUS)],
        sharing=(
            SharingLevel.MANY if SPEC.uses_sharing_detection else None
        ),
        mdata=DataValue.FRESH,
    )

    def _ask(self, symbol: str, op: Op) -> tuple[bool, bool]:
        cp = compile_protocol(self.SPEC)
        return cp.offclass_request(
            cp.intern(cp.encode(self.STATE)),
            cp.ir.states.index(symbol),
            cp.ir.ops.index(op.value),
        )

    @pytest.mark.parametrize(
        "op, expected",
        [
            # A read miss stalls on any remote copy (the mutation)...
            (Op.READ, (True, False)),
            # ...a write miss is served.
            (Op.WRITE, (False, True)),
        ],
    )
    def test_an_invalid_cache_is_reposed_against_the_whole_state(
        self, op, expected
    ):
        assert self._ask(self.SPEC.invalid, op) == expected
        # The interpreter oracle answers the same.
        oracle = OracleFacts(explore(self.SPEC))
        answer = oracle._offclass_request(self.STATE, self.SPEC.invalid, op)
        assert answer == expected

    def test_a_merged_away_valid_symbol_is_moot(self):
        assert self._ask("Modified", Op.READ) == (False, False)
