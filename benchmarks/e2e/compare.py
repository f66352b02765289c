"""Regression gate over two sets of end-to-end benchmark runs.

Usage::

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json [--save FILE]

Each file is a set written by ``run.py --out``: runs of the parent
commit and runs of the change, made in alternating pairs with the same
benchmark settings, pair ``i`` being the ``i``-th run of a workload in
each file (their seeds must match).  At least 10 pairs are needed.

For every (workload, end-to-end metric) row it prints both sides'
median and quartiles (``statistics.quantiles(values, n=4)``), the
metric's bound from ``BENCHMARK.json`` and a verdict:

``improved``
    the change wins at least 9 in 10 pairs (ties count for neither)
    and its median beats the parent's by more than the parent's
    interquartile range;
``unresolved``
    either side's interquartile range, as a share of its median, is
    wider than the bound -- unless every run of the change beats every
    run of the parent;
``regressed``
    the change's median is worse than the parent's by more than the
    bound;
``unchanged``
    otherwise.

``failed_frac`` -- failed attempts over all attempts, per side -- is a
row of its own: any rise regresses.  Exit status: 0 when nothing
regressed, 1 on a regression or a rise in ``failed_frac``, 2 on usage
errors.  ``--save FILE`` writes both sets and the rows to one JSON
document; ``baseline.json`` is such a file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    better: str
    bound: float
    parent: list[float]
    change: list[float]
    wins: int | None
    verdict: str


def _relative(part: float, base: float) -> float:
    if base:
        return part / abs(base)
    return 0.0 if part == 0 else math.inf


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    return tuple(statistics.quantiles(values, n=4))


def classify(parent: list[float], change: list[float], better: str,
             bound: float) -> tuple[str, int]:
    """``(verdict, wins)`` for one metric measured in paired runs."""

    def gain(a: float, b: float) -> float:  # > 0: the change reads better
        return a - b if better == "lower" else b - a

    q1a, ma, q3a = quartiles(parent)
    q1b, mb, q3b = quartiles(change)
    wins = sum(gain(a, b) > 0 for a, b in zip(parent, change))
    spread = max(_relative(q3a - q1a, ma), _relative(q3b - q1b, mb))
    if wins >= WIN_SHARE * len(parent) and gain(ma, mb) > q3a - q1a:
        return "improved", wins
    if spread > bound and not all(gain(a, b) > 0 for a in parent for b in change):
        return "unresolved", wins
    if _relative(-gain(ma, mb), ma) > bound:
        return "regressed", wins
    return "unchanged", wins


def _series(runs: list[dict[str, Any]], workload: str) -> list[tuple[int, dict]]:
    return [(r["seed"], r["workloads"][workload]) for r in runs
            if workload in r["workloads"]]


def compare(parent_runs: list[dict[str, Any]], change_runs: list[dict[str, Any]],
            bench: dict[str, Any]) -> list[Row]:
    """Every (workload, metric) row; ``ValueError`` when the sets do not pair up."""
    names = [w["name"] for w in bench["workloads"]]
    rows: list[Row] = []
    for workload in names:
        parent = _series(parent_runs, workload)
        change = _series(change_runs, workload)
        if not parent and not change:
            continue
        if len(parent) != len(change) or len(parent) < MIN_PAIRS:
            raise ValueError(
                f"{workload}: {len(parent)} parent and {len(change)} change runs; "
                f"need equal counts of at least {MIN_PAIRS}"
            )
        seeds = [(a[0], b[0]) for a, b in zip(parent, change) if a[0] != b[0]]
        if seeds:
            raise ValueError(f"{workload}: unpaired seeds {seeds}")
        if all("metrics" in r for _, r in parent + change):
            for spec in bench["end_to_end"]:
                a = [r["metrics"][spec["name"]] for _, r in parent]
                b = [r["metrics"][spec["name"]] for _, r in change]
                verdict, wins = classify(a, b, spec["better"], spec["bound"])
                rows.append(Row(workload, spec["name"], spec["unit"],
                                spec["better"], spec["bound"], a, b, wins, verdict))
        fractions = []
        for side in (parent, change):
            failed = sum(r["failed"] for _, r in side)
            fractions.append(failed / max(1, sum(r["attempted"] for _, r in side)))
        verdict = ("regressed" if fractions[1] > fractions[0]
                   else "improved" if fractions[1] < fractions[0] else "unchanged")
        rows.append(Row(workload, "failed_frac", "ratio", "lower", 0.0,
                        [fractions[0]], [fractions[1]], None, verdict))
    return rows


def render(rows: list[Row]) -> str:
    def side(values: list[float]) -> str:
        if len(values) == 1:
            return f"{values[0]:.4g}"
        q1, median, q3 = quartiles(values)
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    table = [["workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "change", "wins", "bound", "verdict"]]
    for row in rows:
        a, b = statistics.median(row.parent), statistics.median(row.change)
        table.append([
            row.workload, row.metric, row.unit, side(row.parent), side(row.change),
            f"{_relative(b - a, a):+.1%}" if a else f"{b - a:+.4g}",
            "-" if row.wins is None else f"{row.wins}/{len(row.parent)}",
            f"{row.bound:.0%}" if row.wins is not None else "any rise",
            row.verdict,
        ])
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path, help="set file of the parent's runs")
    parser.add_argument("change", type=Path, help="set file of the change's runs")
    parser.add_argument("--save", type=Path, metavar="FILE",
                        help="write both sets and the verdicts to one JSON file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        sets = [json.loads(path.read_text(encoding="utf-8"))["runs"]
                for path in (args.parent, args.change)]
        rows = compare(*sets, bench)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    regressed = [r for r in rows if r.verdict == "regressed"]
    print(f"\n{len(rows)} rows: " + ", ".join(
        f"{sum(r.verdict == v for r in rows)} {v}"
        for v in ("improved", "unchanged", "unresolved", "regressed")))
    if args.save:
        document = {
            "schema": "repro-bench-e2e-compare/1",
            "parent": {"file": args.parent.name, "runs": sets[0]},
            "change": {"file": args.change.name, "runs": sets[1]},
            "rows": [asdict(row) for row in rows],
            "regressed": bool(regressed),
        }
        args.save.write_text(
            json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
