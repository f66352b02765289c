"""Self-test of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (it is
not part of the tier-1 suite).  One traced round of each workload, with
the ``setup_s`` repetitions cut to one, shows that every layer the
benchmark names is actually reached and that the self-time bookkeeping
closes; ``compare.py`` is checked on synthetic runs.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, HERE / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


run = _load("e2e_run", "run.py")
compare = _load("e2e_compare", "compare.py")
trace = run.TRACER

#: The layers each workload must reach (ROADMAP item 1's layer list,
#: mapped to the end-to-end metric each one should move).
ACTIVE = {
    "verdict-cold": ["import", "cli", "protocols", "lint", "ir", "core", "liveness",
                     "serialize", "engine.fingerprint", "engine.journal",
                     "engine.batch", "engine.runner"],
    "matrix-cold": ["import", "cli", "protocols", "core", "kernel", "serialize",
                    "engine.fingerprint", "engine.cache", "engine.journal",
                    "engine.batch", "engine.runner"],
    "serve-warm": ["import", "cli", "protocols", "engine.fingerprint",
                   "engine.cache", "engine.journal", "engine.batch", "serve", "idle"],
}


def test_every_wrapper_target_resolves():
    targets = [t for targets in trace.LAYERS.values() for t in targets]
    for target in targets:
        trace.resolve(target)  # raises when a wrapped function moved
    assert len(set(targets)) == len(targets)


def test_benchmark_json_names_what_the_harness_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.RUNNERS)
    layers = {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]
              if m["name"].endswith(".share")}
    assert layers == set(trace.LAYERS) | {"import", "other"}


@pytest.fixture(scope="module")
def one_round():
    """Record of one timed and one traced round per workload.

    The workloads run side by side (this checks coverage, not speed),
    each in its own work directory; verdict-cold verifies five specs
    that between them verify, fail and starve.
    """
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    expected["verdict-cold"] = {
        spec: expected["verdict-cold"][spec]
        for spec in ("illinois.proto", "mesif.proto", "broken_mesi.proto",
                     "0d19db50cfd83df5.proto", "206768b9fde05e72.proto")
    }
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "SETUP_SAMPLES", 1)
    works = {name: run.Workdir() for name in run.RUNNERS}
    try:
        with ThreadPoolExecutor(max_workers=len(works)) as pool:
            futures = {
                name: pool.submit(run.run_workload, name, seed=0, seconds=0,
                                  trace=True, work=work, expected=expected)
                for name, work in works.items()
            }
            yield {name: future.result() for name, future in futures.items()}
    finally:
        patch.undo()
        for work in works.values():
            work.close()


@pytest.mark.parametrize("workload", list(run.RUNNERS))
def test_one_traced_round_reaches_every_named_layer(one_round, workload):
    record = one_round[workload]
    assert record["failed"] == 0, record["problems"]
    assert record["rounds"] == 1
    layers = record["per_layer"]
    idle = [name for name in ACTIVE[workload] if not layers[f"{name}.calls"] > 0]
    assert not idle, f"{workload}: no calls reached {idle}"
    shares = sum(v for k, v in layers.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0, abs=0.05)
    assert all(v >= 0 for k, v in layers.items() if k.endswith(".self_s"))
    assert layers["tracing_overhead"] > 0
    assert set(record["metrics"]) == {"setup_s", "latency_ms_p50", "latency_ms_p75",
                                      "wall_s", "jobs_per_s", "peak_rss_mb"}
    assert all(v > 0 for v in record["metrics"].values())


def test_matrix_round_measures_the_kernel_ratio(one_round):
    layers = one_round["matrix-cold"]["per_layer"]
    assert layers["kernel.explore_ratio"] > 1
    assert layers["core.calls"] == layers["kernel.calls"] / 2 == 51
    assert layers["runner.parallel_efficiency"] > 0


def test_serve_round_is_all_cache_hits(one_round):
    layers = one_round["serve-warm"]["per_layer"]
    assert layers["cache.hit_ratio"] == 1.0
    assert layers["core.calls"] == 0
    # One run_batch per campaign: a function wrapped under two names
    # must not count a call twice.
    assert layers["engine.batch.calls"] == run.CLIENTS * run.REPEATS * 10
    assert layers["serve.engine_ms"] > 0


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
NOISE = [0.0, 0.5, -0.5, 1.0, -1.0, 0.3, -0.3, 0.8, -0.8, 0.1]


def _values(center: float, spread: float = 1.0) -> list[float]:
    return [center + spread * n for n in NOISE]


@pytest.mark.parametrize(
    ("parent", "change", "better", "verdict"),
    [
        (_values(100), _values(100.2), "lower", "unchanged"),
        (_values(100), _values(80), "lower", "improved"),
        (_values(100), _values(120), "lower", "regressed"),
        (_values(100), _values(108), "lower", "unchanged"),  # within the 10% bound
        (_values(100), _values(120), "higher", "improved"),
        (_values(100), _values(80), "higher", "regressed"),
        (_values(100, 30), _values(100, 30), "lower", "unresolved"),
        (_values(100, 30), _values(120, 30), "lower", "unresolved"),
    ],
)
def test_compare_classifies_synthetic_rows(parent, change, better, verdict):
    assert compare.classify(parent, change, better, 0.1)[0] == verdict


def test_compare_wide_spread_is_resolved_when_every_change_run_wins():
    # The parent's spread (38% of its median) exceeds the bound, but
    # every change run beats every parent run: not unresolved.
    parent, change = _values(150, 50), _values(95, 4)
    assert compare.classify(parent, change, "lower", 0.1)[0] == "unchanged"


def _set(path: Path, scale: float, *, failed: int = 0, seeds=range(10)) -> Path:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for index, seed in enumerate(seeds):
        metrics = {m["name"]: (10.0 + NOISE[index % 10] * 0.1) * scale
                   for m in bench["end_to_end"]}
        runs.append({"seed": seed, "workloads": {"matrix-cold": {
            "metrics": metrics, "attempted": 51,
            "failed": failed if index == 0 else 0}}})
    path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
    return path


def test_compare_gate_exit_status(tmp_path, capsys):
    parent = _set(tmp_path / "a.json", 1.0)
    assert compare.main([str(parent), str(_set(tmp_path / "b.json", 1.0))]) == 0
    saved = tmp_path / "saved.json"
    assert compare.main([str(parent), str(_set(tmp_path / "c.json", 1.0, failed=1)),
                         "--save", str(saved)]) == 1
    rows = json.loads(saved.read_text(encoding="utf-8"))["rows"]
    assert [r["verdict"] for r in rows if r["metric"] == "failed_frac"] == ["regressed"]
    # 1.5x slower is a regression on lower-is-better metrics.
    assert compare.main([str(parent), str(_set(tmp_path / "d.json", 1.5))]) == 1
    assert compare.main([str(parent), str(_set(tmp_path / "e.json", 1.0,
                                                seeds=range(1, 11)))]) == 2
    assert compare.main([str(parent), str(_set(tmp_path / "f.json", 1.0,
                                                seeds=range(9)))]) == 2
    capsys.readouterr()
