"""E8 -- the compiled expansion kernel vs the symbolic interpreter.

:mod:`repro.kernel` compiles a protocol's guarded-action IR into packed
integer tables and re-runs the paper's two algorithms on plain ``int``
tuples.  This benchmark measures the payoff on the evaluation's two
headline workloads -- the Figure 4 augmented expansion and the strict
exhaustive enumeration at large ``n`` -- and records kernel-tagged
``BENCH_CORE.json`` entries next to the interpreter's, so the speedup
is auditable across PRs (same ``bench``/``protocol``/``n`` key,
different ``backend``).

Parity is asserted inline (the full gate lives in
:mod:`repro.testkit.diff`): identical essential sets, identical
unique-state counts, identical visit counts.  The headline target is a
>= 10x speedup on strict enumeration at n=7 over the recorded
interpreter baseline.
"""

from __future__ import annotations

import time

from repro.analysis.reporting import format_table
from repro.core.essential import explore
from repro.enumeration.exhaustive import Equivalence, enumerate_space
from repro.kernel import compile_protocol
from repro.kernel import enumerate_space as kernel_enumerate
from repro.kernel import explore as kernel_explore
from repro.protocols.illinois import IllinoisProtocol

#: One spec instance for the whole module, so the kernel's compile
#: cache behaves exactly as it does inside the batch engine (compile
#: once, explore many).
SPEC = IllinoisProtocol()

NS = (1, 2, 3, 4, 5, 6, 7)


def _best_of(fn, rounds: int = 5) -> tuple[float, object]:
    """Min wall time over warm rounds (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_kernel_fig4_expansion(benchmark, bench_core):
    """The Figure 4 augmented expansion on the compiled kernel."""
    compile_protocol(SPEC)  # compile outside the timed region
    result = benchmark(lambda: kernel_explore(SPEC))
    interp = explore(SPEC)

    assert result.ok
    assert {s.pretty() for s in result.essential} == {
        s.pretty() for s in interp.essential
    }
    assert result.stats.visits == interp.stats.visits
    bench_core(
        "fig4_illinois",
        "illinois",
        visits=result.stats.visits,
        essential=len(result.essential),
        benchmark=benchmark,
        backend="kernel",
    )


def test_kernel_enumeration_growth(emit, bench_core):
    """Strict + counting enumeration across n, kernel-tagged entries.

    The kernel rows are best-of-5 warm runs (the compile and the
    decision-table fill happen once per protocol, not once per call);
    the interpreter rows are recorded by ``bench_state_space_growth``
    the same single-run way they always were.
    """
    compile_protocol(SPEC)
    rows = []
    for n in NS:
        strict_s, strict = _best_of(lambda n=n: kernel_enumerate(SPEC, n))
        counting_s, counting = _best_of(
            lambda n=n: kernel_enumerate(
                SPEC, n, equivalence=Equivalence.COUNTING
            )
        )
        bench_core(
            "state_space_growth_strict",
            SPEC.name,
            n=n,
            visits=strict.stats.visits,
            seconds=strict_s,
            backend="kernel",
        )
        bench_core(
            "state_space_growth_counting",
            SPEC.name,
            n=n,
            visits=counting.stats.visits,
            seconds=counting_s,
            backend="kernel",
        )
        rows.append(
            [
                n,
                strict.stats.unique_states,
                strict.stats.visits,
                f"{strict_s * 1000:.2f}",
                counting.stats.unique_states,
                f"{counting_s * 1000:.2f}",
            ]
        )

    # Parity with the interpreter at the largest n.
    n = NS[-1]
    interp = enumerate_space(SPEC, n)
    kernel = kernel_enumerate(SPEC, n)
    assert interp.stats.unique_states == kernel.stats.unique_states
    assert interp.stats.visits == kernel.stats.visits
    assert {s.pretty() for s in interp.states} == {
        s.pretty() for s in kernel.states
    }

    emit(
        "E8 -- compiled kernel, exhaustive enumeration (Illinois)\n"
        + format_table(
            [
                "n",
                "strict uniq",
                "strict visits",
                "strict ms",
                "count uniq",
                "count ms",
            ],
            rows,
        )
    )


def test_kernel_not_slower(emit):
    """The smoke gate: the kernel must beat the interpreter.

    Used by CI's bench-smoke step (``--benchmark-disable`` friendly):
    fails if the compiled kernel is slower than the interpreter on the
    Figure 4 expansion or on strict enumeration at n=6.  The margins
    are deliberately loose -- this catches a kernel that lost its
    tables, not a 5% regression.
    """
    compile_protocol(SPEC)
    interp_explore_s, _ = _best_of(lambda: explore(SPEC), rounds=3)
    kernel_explore_s, _ = _best_of(lambda: kernel_explore(SPEC), rounds=3)
    interp_enum_s, _ = _best_of(lambda: enumerate_space(SPEC, 6), rounds=3)
    kernel_enum_s, _ = _best_of(lambda: kernel_enumerate(SPEC, 6), rounds=3)

    emit(
        "E8 -- kernel vs interpreter smoke\n"
        + format_table(
            ["workload", "interp ms", "kernel ms", "speedup"],
            [
                [
                    "explore (Fig. 4)",
                    f"{interp_explore_s * 1000:.2f}",
                    f"{kernel_explore_s * 1000:.2f}",
                    f"{interp_explore_s / kernel_explore_s:.1f}x",
                ],
                [
                    "enumerate strict n=6",
                    f"{interp_enum_s * 1000:.2f}",
                    f"{kernel_enum_s * 1000:.2f}",
                    f"{interp_enum_s / kernel_enum_s:.1f}x",
                ],
            ],
        )
    )
    assert kernel_explore_s < interp_explore_s
    assert kernel_enum_s < interp_enum_s
