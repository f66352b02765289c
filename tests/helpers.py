"""Test-suite helpers: state construction and shared fuzz strategies.

Both the hypothesis property tests and the testkit unit tests draw
their protocols from here, so "what counts as an interesting spec"
lives in exactly one place.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.composite import CompositeState, Label, make_state, parse_class_spec
from repro.core.symbols import DataValue, Op, SharingLevel
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.perturb import (
    PERTURBATION_KINDS,
    Perturbation,
    PerturbedProtocol,
)
from repro.protocols.registry import get_protocol

__all__ = [
    "BASE_PROTOCOLS",
    "OPS",
    "ProbeShyIllinois",
    "build_state",
    "perturbed_protocols",
    "generated_specs",
]

#: Correct zoo protocols the perturbation fuzzer mutates.
BASE_PROTOCOLS = ("illinois", "msi", "write-once", "firefly", "berkeley")
OPS = (Op.READ, Op.WRITE, Op.REPLACE)


def build_state(
    *class_specs: str,
    sharing: SharingLevel | None = None,
    mdata: DataValue | None = None,
    data: dict[str, DataValue] | None = None,
) -> CompositeState:
    """Build a composite state from paper-style class specs.

    ``build_state("Dirty", "Invalid*", sharing=SharingLevel.ONE)``
    produces ``(Dirty, Invalid*)``.  When ``data`` maps state symbols to
    :class:`DataValue`, labels become augmented.
    """
    pieces = []
    for spec_text in class_specs:
        symbol, rep = parse_class_spec(spec_text)
        label_data = data.get(symbol) if data is not None else None
        pieces.append((Label(symbol, label_data), rep))
    return make_state(pieces, sharing=sharing, mdata=mdata)


@st.composite
def perturbed_protocols(draw):
    """A zoo protocol with one random semantic perturbation applied."""
    base = get_protocol(draw(st.sampled_from(BASE_PROTOCOLS)))
    perturbation = Perturbation(
        kind=draw(st.sampled_from(PERTURBATION_KINDS)),
        trigger_state=draw(st.sampled_from(base.states)),
        trigger_op=draw(st.sampled_from(OPS)),
        trigger_any=draw(st.booleans()),
        pick=draw(st.integers(min_value=0, max_value=7)),
    )
    return PerturbedProtocol(base, perturbation)


@st.composite
def generated_specs(draw):
    """A checked ``(SpecModel, DslProtocol)`` pair from the testkit
    generator -- hypothesis picks the seed, the generator does the
    structured work (and guarantees well-formedness)."""
    from repro.testkit import SpecGenerator

    seed = draw(st.integers(min_value=0, max_value=2**16))
    return SpecGenerator(seed=seed).draw_checked()


class ProbeShyIllinois(IllinoisProtocol):
    """Illinois whose ``react`` rejects an observation no reachable
    state produces: all three valid states held by other caches at once.
    Only IR lowering probes every present-set; it records those cells
    as ``raises`` entries, which expansion never reaches."""

    name = "illinois-probe-shy"

    def react(self, state, op, ctx):
        if len(ctx.present) == len(self.valid_states()):
            raise RuntimeError("unreachable observation")
        return super().react(state, op, ctx)
