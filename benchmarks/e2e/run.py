"""End-to-end benchmark of the ``repro`` CLI and campaign service.

Three workloads, each running the system as child processes of this
one process:

* ``verdict-cold`` -- the designer's edit-and-verify loop: one fresh
  ``repro batch --spec-file F --no-cache --preflight annotate --mode
  liveness`` per sample over the 20 frozen DSL specs in ``specs/``;
* ``matrix-cold`` -- the campaign user's sweep: ``repro batch --mutants
  -j 2`` over the zoo and its 41 mutants into a fresh cache;
* ``serve-warm`` -- the service path with no verification left to do:
  two clients submit one-protocol mutant campaigns to a ``repro serve``
  whose cache already holds every verdict.

Usage::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --out results.json
    python3 benchmarks/e2e/run.py --workload serve-warm --seed 3 \\
        --seconds 20 --trace 0

Without ``--workload`` every workload runs in turn.  A workload first
does its untimed set-up (measuring ``setup_s`` on the way), then
measures whole rounds for about ``--seconds`` seconds (``run_seconds``
in ``BENCHMARK.json`` by default), checks every verdict against
``expected.json`` and prints its end-to-end metrics -- the CPU-bound
ones at reference machine speed (``Run.end_to_end``), next to their
values as measured.  ``--trace 1``
(the default) adds one traced round, run after the timed ones through
``trace.py``, and prints how its wall time splits across the repo's
layers.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
under ``--trace 1`` the per-layer ones.  ``--out FILE`` appends the
whole run record -- machine tag, settings and every raw sample -- to a
set file that ``compare.py`` reads.  Exit status: 0 when every check
passed, 1 when any attempt failed, 2 on usage errors or when the
checkout holds no ``src/repro`` to benchmark.

Nothing outside the checkout is read or written: every cache, journal,
state directory and log lives in a fresh directory under ``.work/``
here, removed when the run ends.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.util
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPECS = HERE / "specs"
TRACE = HERE / "trace.py"
SCHEMA = "repro-bench-e2e/1"

#: Set-up samples behind ``setup_s``: cold ``import repro.cli`` spawns
#: on the CLI workloads, cold ``repro serve`` spawns on ``serve-warm``.
SETUP_SAMPLES = 10
#: Load is capped at the 2 cores of the reference machine: 2 client
#: threads against the service, 2 batch workers for the matrix.
CLIENTS = 2
BATCH_WORKERS = 2
#: Each serve-warm client submits every zoo protocol this often a round.
REPEATS = 2
#: An attempt running longer than this is killed and counted failed.
TIMEOUT_S = 120.0

#: The machine-speed probe: a fixed program that touches nothing of the
#: checkout (``python -I``), spawned like the system under test is, so
#: it pays the same interpreter start, imports and bytecode execution.
#: The shared hosts this benchmark runs on swing in throughput by up to
#: 2x, for seconds or for tens of minutes at a time; the CPU-bound
#: workloads' timings are therefore reported at reference speed (see
#: ``Run.end_to_end``).
PROBE_CODE = (
    "import argparse, decimal, email.message, fractions, http.client, json\n"
    "s = 0\n"
    "for i in range(150000): s += i * i\n"
    "json.dumps([str(decimal.Decimal(i) / 7) for i in range(3000)])\n"
)
#: Probe seconds on the reference machine (a quiet 2-core x86-64 VM,
#: Python 3.11), by the number of copies run at once: one beside a
#: one-core workload, two beside one that keeps both cores busy.
REFERENCE_PROBE_S = {1: 0.090, 2: 0.105}

#: Loop type and round shape, recorded with every run.
WORKLOADS: dict[str, str] = {
    "verdict-cold": "closed loop, 1 client; a round verifies each of the 20 "
    "specs once, in seeded order, one fresh repro batch process each",
    "matrix-cold": "closed loop, 1 client; a round is one repro batch "
    f"--mutants -j {BATCH_WORKERS} over the zoo and its 41 mutants (51 jobs) "
    "into a fresh cache",
    "serve-warm": f"closed loop, {CLIENTS} clients; in a round each client "
    f"submits every zoo protocol's mutant campaign {REPEATS} times in seeded "
    "order, against one server whose cache holds every verdict",
}


def _load_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def _load_module(name: str, path: Path) -> Any:
    """Import a sibling file by path (``trace.py`` shadows a stdlib name)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


TRACER = _load_module("e2e_trace", TRACE)


def nearest_rank(values: list[float], percent: float) -> float:
    """Nearest-rank percentile: the smallest value with ``percent``% at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percent / 100 * len(ordered))) - 1]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
@dataclass
class Child:
    """One finished system-under-test process."""

    code: int
    out: str
    seconds: float
    rss_mb: float
    log: Path

    def failure(self, what: str) -> str:
        """A problem line naming ``what`` went wrong, with the log tail."""
        tail = self.log.read_text(encoding="utf-8", errors="replace")[-600:]
        timed_out = " (timed out)" if self.seconds >= TIMEOUT_S else ""
        return f"{what}: exit {self.code}{timed_out}; stderr tail: {tail.strip()!r}"


def _spawn(argv: list[str], env: dict[str, str], stderr: Any) -> subprocess.Popen:
    """Start a child, stdout piped, in a process group of its own."""
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT,
                            env=env, start_new_session=True)


def _kill(proc: subprocess.Popen) -> None:
    """SIGKILL a child's whole process group: it and the workers it forked."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _finish(proc: subprocess.Popen, timeout: float) -> tuple[bytes, float]:
    """Read ``proc``'s stdout to the end and reap it; ``(stdout, peak RSS MB)``.

    The child's process group is killed once ``timeout`` seconds pass,
    and whatever is left of it once the child has exited.  ``os.wait4``
    blocks until the exit (no polling, so no timing granularity) and
    returns the child's own resource usage, whose ``ru_maxrss`` also
    covers the descendants it reaped (batch workers).
    """
    killer = threading.Timer(timeout, _kill, (proc,))
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill(proc)
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        _kill(proc)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, usage.ru_maxrss / 1024.0


class Workdir:
    """Fresh scratch space under ``.work/`` plus the children's environment."""

    def __init__(self) -> None:
        (HERE / ".work").mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
        self._count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        # Keep the children's own temporary files inside the checkout too.
        self.env["TMPDIR"] = str(self.root)

    def fresh(self, stem: str, suffix: str = "") -> Path:
        self._count += 1
        return self.root / f"{stem}-{self._count}{suffix}"

    def run(self, argv: list[str]) -> Child:
        """Run one child to completion: spawn to exit, stdout captured."""
        log = self.fresh("stderr", ".log")
        with open(log, "wb") as err:
            began = time.perf_counter()
            proc = _spawn(argv, self.env, err)
            out, rss = _finish(proc, TIMEOUT_S)
            seconds = time.perf_counter() - began
        return Child(proc.returncode, out.decode("utf-8", errors="replace"),
                     seconds, rss, log)

    def probe(self, copies: int) -> float:
        """Run ``copies`` speed probes at once; their mean duration in seconds."""
        argv = [sys.executable, "-I", "-c", PROBE_CODE]
        began = time.perf_counter()
        procs = [_spawn(argv, self.env, subprocess.DEVNULL) for _ in range(copies)]
        seconds = []
        try:
            for proc in procs:
                _finish(proc, TIMEOUT_S)
                if proc.returncode != 0:
                    raise RuntimeError(f"speed probe exited {proc.returncode}")
                seconds.append(time.perf_counter() - began)
        finally:
            for proc in procs:
                if proc.returncode is None:
                    _kill(proc)
                    proc.wait()
        return sum(seconds) / copies

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass  # another run is using it


def repro(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def traced(dump: Path, *args: str, explore_ratio: bool = False) -> list[str]:
    flags = ["--explore-ratio"] if explore_ratio else []
    return [sys.executable, str(TRACE), str(dump), *flags, "--", *args]


class Server:
    """One ``repro serve`` child on a free port, stopped with SIGTERM."""

    def __init__(self, work: Workdir, argv: list[str]) -> None:
        self.log = work.fresh("serve", ".log")
        self.url = ""
        self.rss_mb = 0.0
        self.code: int | None = None
        env = dict(work.env, PYTHONUNBUFFERED="1")  # the port line, now
        with open(self.log, "wb") as err:
            self.proc = _spawn(argv, env, err)

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers 200 (or raise after the timeout)."""
        killer = threading.Timer(TIMEOUT_S, _kill, (self.proc,))
        killer.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", errors="replace")
        finally:
            killer.cancel()
        match = re.search(r"listening on (http://[\w.:-]+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = match.group(1)
        host, port = self.url.removeprefix("http://").rsplit(":", 1)
        deadline = time.perf_counter() + TIMEOUT_S
        while True:
            conn = http.client.HTTPConnection(host, int(port), timeout=TIMEOUT_S)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGTERM (the service drains and exits 0), then reap."""
        if self.code is not None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            _, self.rss_mb = _finish(self.proc, 30.0)
        else:  # it died on its own, and poll() has reaped it
            self.proc.stdout.close()
            _kill(self.proc)
        self.code = self.proc.returncode


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
@dataclass
class Round:
    wall_s: float
    jobs_ok: int
    latencies_ms: list[float]
    extra: dict[str, Any] = field(default_factory=dict)


class Run:
    """What one workload measured: set-up, rounds, failures, traces."""

    def __init__(self, name: str, seed: int, seconds: float, work: Workdir,
                 expected: dict[str, Any]) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.expected = expected
        self.setup_s: list[float] = []
        self.rounds: list[Round] = []
        #: Speed-probe durations over their reference: 1.0 is reference
        #: speed, 2.0 a machine running at half of it.
        self.slowdown: dict[str, list[float]] = {"setup": [], "rounds": []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.dumps: list[dict[str, Any]] = []
        self.traced_wall_s: float | None = None
        #: Per-layer metrics measured outside the traced round; each is
        #: 0 on the workloads that do not exercise it.
        self.extra: dict[str, float] = dict.fromkeys(
            ["runner.parallel_efficiency"]
            + [f"serve.{phase}_ms" for phase in ("post", "queue", "engine", "tail")],
            0.0,
        )

    def check(self, ok: bool, problem: str) -> bool:
        """Count one attempt; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def saw(self, child: Child) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)

    def probe(self, phase: str, copies: int = 1) -> float:
        """Measure the machine's slowdown next to ``phase``; the probe's seconds."""
        seconds = self.work.probe(copies)
        self.slowdown[phase].append(seconds / REFERENCE_PROBE_S[copies])
        return seconds

    def timed_rounds(self) -> Iterator[int]:
        """Round indices for about ``seconds`` of measurement.

        Another round starts only while the measured time is short of
        ``seconds`` by more than half a round, so a run overshoots or
        undershoots its length by at most half a round.
        """
        began = time.perf_counter()
        index = 0
        while True:
            yield index
            index += 1
            elapsed = time.perf_counter() - began
            if elapsed >= self.seconds - elapsed / index / 2:
                return

    def raw_end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics as measured, at whatever speed the host ran."""
        latencies = [x for r in self.rounds for x in r.latencies_ms]
        return {
            "setup_s": statistics.median(self.setup_s),
            "latency_ms_p50": nearest_rank(latencies, 50),
            "latency_ms_p75": nearest_rank(latencies, 75),
            "wall_s": statistics.median(r.wall_s for r in self.rounds),
            "jobs_per_s": statistics.median(r.jobs_ok / r.wall_s for r in self.rounds),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics at reference speed.

        A CPU-bound timing is divided by the run's median slowdown,
        probed next to the work it times: ``setup_s`` by the probes
        between set-up spawns, round timings by those between samples
        or rounds.  A workload that probes nothing during its rounds
        (``serve-warm``, whose latency is mostly the service's own poll
        timer) keeps its round timings as measured.
        """
        metrics = self.raw_end_to_end()
        setup = statistics.median(self.slowdown["setup"])
        rounds = statistics.median(self.slowdown["rounds"] or [1.0])
        metrics["setup_s"] /= setup
        for key in ("latency_ms_p50", "latency_ms_p75", "wall_s"):
            metrics[key] /= rounds
        metrics["jobs_per_s"] *= rounds
        return metrics

    def per_layer(self) -> dict[str, float]:
        metrics = layer_metrics(self.dumps)
        metrics["tracing_overhead"] = self.traced_wall_s / statistics.median(
            r.wall_s for r in self.rounds
        )
        for key in ("core.visits", "core.essential"):
            metrics[key] = self.rounds[0].extra[key]
        metrics.update(self.extra)
        return metrics

    def record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "loop": WORKLOADS[self.name],
            "rounds": len(self.rounds),
            "samples": sum(len(r.latencies_ms) for r in self.rounds),
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / max(1, self.attempted),
            "problems": self.problems,
            "raw": {
                "setup_s": self.setup_s,
                "rounds": [
                    {
                        "wall_s": r.wall_s,
                        "jobs_ok": r.jobs_ok,
                        "latencies_ms": [round(x, 3) for x in r.latencies_ms],
                        **r.extra,
                    }
                    for r in self.rounds
                ],
                "slowdown": self.slowdown,
            },
        }
        if self.rounds:
            record["metrics"] = self.end_to_end()
            record["raw_metrics"] = self.raw_end_to_end()
            if self.dumps:
                record["per_layer"] = self.per_layer()
                record["raw"]["targets"] = target_totals(self.dumps)
        return record


def target_totals(dumps: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per wrapped function: calls, self and inclusive seconds over all dumps."""
    totals: dict[str, dict[str, float]] = {}
    for dump in dumps:
        for name, stats in dump["targets"].items():
            total = totals.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                total[key] += value
    return totals


def layer_metrics(dumps: list[dict[str, Any]]) -> dict[str, float]:
    """Calls, self time and share of wall time per layer, over ``trace.py`` dumps.

    Several dumps (one per traced process) add up.  The denominator is
    every process's traced window plus its worker-thread roots, which
    ``trace.py``'s bookkeeping splits exactly into import, the layers'
    self times and ``other``.
    """
    totals = target_totals(dumps)
    total = sum(d["window_s"] + d["worker_roots_s"] for d in dumps)
    out: dict[str, float] = {
        "import.calls": len(dumps),
        "import.self_s": sum(d["import_s"] for d in dumps),
    }
    for layer, targets in dumps[0]["layers"].items():
        out[f"{layer}.calls"] = sum(totals[t]["calls"] for t in targets)
        out[f"{layer}.self_s"] = sum(totals[t]["self_s"] for t in targets)
    out["other.self_s"] = sum(
        d["window_s"] - d["import_s"] - d["main_roots_s"] for d in dumps
    )
    for key in [k for k in out if k.endswith(".self_s")]:
        out[key.removesuffix(".self_s") + ".share"] = out[key] / total

    get, put = totals[TRACER.CACHE_GET], totals[TRACER.CACHE_PUT]
    out["cache.get.self_s"] = get["self_s"]
    out["cache.put.self_s"] = put["self_s"]
    out["cache.hit_ratio"] = get["hits"] / get["calls"] if get["calls"] else 0.0
    kernel = (totals[TRACER.KERNEL_COMPILE]["incl_s"]
              + totals[TRACER.KERNEL_EXPLORE]["incl_s"])
    out["kernel.explore_ratio"] = (
        totals[TRACER.CORE_EXPLORE]["incl_s"] / kernel if kernel else 0.0
    )
    return out


# ----------------------------------------------------------------------
# Set-up shared by the CLI workloads
# ----------------------------------------------------------------------
def setup_imports(run: Run) -> None:
    """``setup_s``: cold ``import repro.cli`` spawns, after one untimed warm-up.

    The warm-up writes the bytecode caches a user's checkout already
    has, so the timed spawns pay process start and import, not
    compilation.
    """
    argv = [sys.executable, "-c", "import repro.cli"]
    for index in range(SETUP_SAMPLES + 1):
        if index:
            run.probe("setup")
        child = run.work.run(argv)
        run.saw(child)
        if child.code != 0:
            raise RuntimeError(child.failure("import repro.cli"))
        if index:
            run.setup_s.append(child.seconds)


def _read_dump(run: Run, path: Path, child_code: int | None) -> None:
    try:
        dump = _load_json(path)
    except (OSError, ValueError) as exc:
        run.check(False, f"traced child left no layer dump ({exc}); exit {child_code}")
        return
    run.dumps.append(dump)


# ----------------------------------------------------------------------
# verdict-cold
# ----------------------------------------------------------------------
def parse_summary(out: str) -> dict[str, list[str]]:
    """``label -> [verdict, essential, visits, time, source]`` from a batch table."""
    rows: dict[str, list[str]] = {}
    lines = out.splitlines()
    for index, line in enumerate(lines):
        if line.startswith("job ") and "| verdict" in line:
            for row in lines[index + 2 :]:
                if not row.strip():
                    break
                cells = [cell.strip() for cell in row.split(" | ")]
                rows[cells[0]] = cells[1:]
            break
    return rows


def verdict_sample(run: Run, argv: list[str], spec: str) -> tuple[Child, dict[str, int]]:
    """Run one verdict-cold child and check its verdict, essential count and exit."""
    child = run.work.run(argv)
    run.saw(child)
    want = run.expected[spec]
    row = parse_summary(child.out).get(Path(spec).stem)
    ok = (
        row is not None
        and row[0] == want["verdict"]
        and row[1] == str(want["essential"])
        and child.code == want["exit"]
    )
    run.check(ok, child.failure(f"{spec}: got {row}, want {want}") if not ok else "")
    counts = {"essential": int(row[1]), "visits": int(row[2])} if ok else {}
    return child, counts


def verdict_cold(run: Run, trace: bool) -> None:
    setup_imports(run)
    specs = sorted(run.expected)
    rng = random.Random(run.seed)

    def batch(spec: str) -> list[str]:
        path = (SPECS / spec).relative_to(ROOT)
        return ["batch", "--protocols", "none", "--spec-file", str(path),
                "--no-cache", "--preflight", "annotate", "--mode", "liveness"]

    for _ in run.timed_rounds():
        order = rng.sample(specs, len(specs))
        latencies, jobs_ok, visits, essential = [], 0, 0, 0
        began = time.perf_counter()
        for spec in order:
            began += run.probe("rounds")  # kept out of the round's wall time
            child, counts = verdict_sample(run, repro(*batch(spec)), spec)
            latencies.append(child.seconds * 1000.0)
            if counts:
                jobs_ok += 1
                visits += counts["visits"]
                essential += counts["essential"]
        run.rounds.append(
            Round(time.perf_counter() - began, jobs_ok, latencies,
                  {"core.visits": visits, "core.essential": essential,
                   "order": order})
        )
    if trace:
        order = rng.sample(specs, len(specs))
        began = time.perf_counter()
        for spec in order:
            dump = run.work.fresh("trace", ".json")
            child, _ = verdict_sample(run, traced(dump, *batch(spec)), spec)
            _read_dump(run, dump, child.code)
        run.traced_wall_s = time.perf_counter() - began


# ----------------------------------------------------------------------
# matrix-cold
# ----------------------------------------------------------------------
def read_journal(path: Path) -> list[dict[str, Any]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_matrix(
    run: Run, child: Child, journal: Path
) -> tuple[dict[str, dict[str, Any]], int]:
    """Check every job of one matrix run: ``(job_finish records, jobs correct)``."""
    want = run.expected
    finishes = {
        e["job"]: e for e in read_journal(journal) if e.get("event") == "job_finish"
    }
    exit_ok = child.code == want["exit"]
    correct = 0
    for label, job in want["jobs"].items():
        got = finishes.get(label)
        ok = (
            exit_ok
            and got is not None
            and got["status"] == job["status"]
            and got["essential"] == job["essential"]
        )
        if label == want["figure4"]["job"]:
            ok = ok and got["visits"] == want["figure4"]["visits"]
        correct += run.check(
            ok, child.failure(f"{label}: got {got}, want {job}") if not ok else ""
        )
    return finishes, correct


def matrix_cold(run: Run, trace: bool) -> None:
    setup_imports(run)
    efficiency = []
    for _ in run.timed_rounds():
        for _ in range(3):
            run.probe("rounds", copies=BATCH_WORKERS)
        journal = run.work.fresh("journal", ".jsonl")
        argv = repro("batch", "--mutants", "-j", str(BATCH_WORKERS),
                     "--cache-dir", str(run.work.fresh("cache")),
                     "--journal", str(journal))
        spawned = time.time()
        child = run.work.run(argv)
        run.saw(child)
        finishes, jobs_ok = check_matrix(run, child, journal)
        elapsed = sum(e["elapsed"] for e in finishes.values())
        efficiency.append(elapsed / (BATCH_WORKERS * child.seconds))
        run.rounds.append(
            Round(
                child.seconds,
                jobs_ok,
                [(e["t"] - spawned) * 1000.0 for e in finishes.values()],
                {
                    "core.visits": sum(e["visits"] or 0 for e in finishes.values()),
                    "core.essential": sum(
                        e["essential"] or 0 for e in finishes.values()
                    ),
                    "parallel_efficiency": efficiency[-1],
                },
            )
        )
    run.extra["runner.parallel_efficiency"] = statistics.median(efficiency)
    if trace:
        # -j 1 keeps every job in the traced process, where the wrappers are.
        journal = run.work.fresh("journal", ".jsonl")
        dump = run.work.fresh("trace", ".json")
        argv = traced(dump, "batch", "--mutants", "-j", "1",
                      "--cache-dir", str(run.work.fresh("cache")),
                      "--journal", str(journal), explore_ratio=True)
        child = run.work.run(argv)
        check_matrix(run, child, journal)
        run.traced_wall_s = child.seconds
        _read_dump(run, dump, child.code)


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
@dataclass
class CampaignSample:
    """Client-side clocks and the final record of one campaign."""

    protocol: str
    latency_ms: float = 0.0
    post_ms: float = 0.0
    queue_ms: float = 0.0
    engine_ms: float = 0.0
    tail_ms: float = 0.0
    final: dict[str, Any] | None = None
    error: str | None = None


def one_campaign(url: str, protocol: str) -> CampaignSample:
    """POST one campaign and follow it with ``client.watch`` to the end."""
    from repro.serve import client

    sample = CampaignSample(protocol)
    marks: dict[str, tuple[float, float]] = {}

    def on_event(event: Any) -> None:
        record = event.json()
        if record.get("event") in ("run_start", "run_end"):
            marks[record["event"]] = (record["t"], time.time())

    began = time.perf_counter()
    try:
        accepted = client.submit(
            url, {"protocols": [protocol], "mutants": True}, timeout=TIMEOUT_S
        )
        posted, posted_wall = time.perf_counter(), time.time()
        sample.final = client.watch(
            url, accepted["id"], on_event=on_event, timeout=TIMEOUT_S
        )
    except (OSError, ValueError) as exc:  # ServiceError is a ValueError
        sample.error = f"{type(exc).__name__}: {exc}"
        return sample
    done, done_wall = time.perf_counter(), time.time()
    sample.latency_ms = (done - began) * 1000.0
    sample.post_ms = (posted - began) * 1000.0
    if "run_start" in marks and "run_end" in marks:
        sample.queue_ms = (marks["run_start"][0] - posted_wall) * 1000.0
        sample.engine_ms = (marks["run_end"][0] - marks["run_start"][0]) * 1000.0
        sample.tail_ms = (done_wall - marks["run_end"][1]) * 1000.0
    else:
        sample.error = f"stream lacked run_start/run_end: {sorted(marks)}"
    return sample


def check_campaign(run: Run, sample: CampaignSample, want: dict[str, int]) -> bool:
    final = sample.final or {}
    counts = (final.get("report") or {}).get("counts") or {}
    ok = (
        sample.error is None
        and final.get("exit_code") == want["exit"]
        and counts.get("jobs") == want["jobs"]
        and counts.get("cache_hits") == want["jobs"]
        and counts.get("verified") == want["verified"]
        and counts.get("violations") == want["violations"]
    )
    return run.check(
        ok,
        f"campaign {sample.protocol}: {sample.error or counts}, exit "
        f"{final.get('exit_code')}; want {want} all cached",
    )


def serve_round(run: Run, pool: ThreadPoolExecutor, url: str,
                rng: random.Random) -> Round:
    protocols = sorted(run.expected)
    orders = [rng.sample(protocols * REPEATS, len(protocols) * REPEATS)
              for _ in range(CLIENTS)]

    def client_loop(order: list[str]) -> list[CampaignSample]:
        return [one_campaign(url, protocol) for protocol in order]

    began = time.perf_counter()
    futures = [pool.submit(client_loop, order) for order in orders]
    samples = [s for future in futures for s in future.result()]
    wall = time.perf_counter() - began
    jobs_ok = visits = essential = 0
    for sample in samples:
        want = run.expected[sample.protocol]
        if check_campaign(run, sample, want):
            jobs_ok += want["jobs"]
            for result in sample.final["report"]["results"]:
                visits += result["visits"]
                essential += result["essential"]
    return Round(
        wall, jobs_ok, [s.latency_ms for s in samples],
        {
            "order": [s.protocol for s in samples],
            "core.visits": visits,
            "core.essential": essential,
            "phases_ms": [
                [round(x, 3) for x in (s.post_ms, s.queue_ms, s.engine_ms, s.tail_ms)]
                for s in samples
            ],
        },
    )


def serve_warm(run: Run, trace: bool) -> None:
    from repro.serve import client

    def start(argv_prefix: list[str], cache: Path) -> Server:
        server = Server(run.work, argv_prefix + [
            "serve", "--port", "0", "--state-dir", str(run.work.fresh("state")),
            "--cache-dir", str(cache)])
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def stop(server: Server) -> None:
        server.stop()
        run.peak_rss_mb = max(run.peak_rss_mb, server.rss_mb)
        if server.code != 0:
            run.check(False, f"repro serve exited {server.code}; log {server.log}")

    for _ in range(SETUP_SAMPLES):
        run.probe("setup")
        began = time.perf_counter()
        server = start(repro(), run.work.fresh("cache"))
        run.setup_s.append(time.perf_counter() - began)
        stop(server)

    cache = run.work.fresh("cache")
    rng = random.Random(run.seed)
    server = start(repro(), cache)
    try:
        prefill = client.submit(
            server.url, {"protocols": ["all"], "mutants": True}, timeout=TIMEOUT_S
        )
        final = client.watch(server.url, prefill["id"], timeout=TIMEOUT_S)
        counts = (final.get("report") or {}).get("counts") or {}
        want = {k: sum(p[k] for p in run.expected.values())
                for k in ("jobs", "verified", "violations")}
        if any(counts.get(k) != v for k, v in want.items()):
            raise RuntimeError(f"prefill campaign: got {counts}, want {want}")
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            for _ in run.timed_rounds():
                run.rounds.append(serve_round(run, pool, server.url, rng))
    finally:
        stop(server)
    phases = [p for r in run.rounds for p in r.extra["phases_ms"]]
    for index, name in enumerate(("post", "queue", "engine", "tail")):
        run.extra[f"serve.{name}_ms"] = statistics.median(p[index] for p in phases)
    if trace:
        dump = run.work.fresh("trace", ".json")
        server = start(traced(dump), cache)
        try:
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                run.traced_wall_s = serve_round(run, pool, server.url, rng).wall_s
        finally:
            stop(server)
        _read_dump(run, dump, server.code)


RUNNERS: dict[str, Callable[[Run, bool], None]] = {
    "verdict-cold": verdict_cold,
    "matrix-cold": matrix_cold,
    "serve-warm": serve_warm,
}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 work: Workdir, expected: dict[str, Any]) -> dict[str, Any]:
    """Run one workload and return its record; failures are counted, not raised."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # serve-warm's client is the repo's own
    run = Run(name, seed, seconds, work, expected[name])
    try:
        RUNNERS[name](run, trace)
    except Exception:  # noqa: BLE001 - report it and go on to the next workload
        run.check(False, f"{name} aborted:\n{traceback.format_exc()}")
    return run.record()


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def machine_tag() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a plain checkout, not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def print_workload(name: str, record: dict[str, Any], bench: dict[str, Any],
                   seed: int) -> None:
    print(f"\n== {name}  (seed {seed}; {record['rounds']} rounds, "
          f"{record['samples']} latency samples)")
    print(f"   {record['loop']}")
    units = {m["name"]: m for m in bench["end_to_end"]}
    slowdown = {k: statistics.median(v) if v else None
                for k, v in record["raw"]["slowdown"].items()}
    print("   slowdown vs reference speed: " + ", ".join(
        f"{k} {v:.3f}" for k, v in slowdown.items() if v is not None))
    print(f"   {'metric':<18}{'value':>14}  {'unit':<6}{'bound':<7}{'as measured':>13}")
    for metric, value in record.get("metrics", {}).items():
        spec = units[metric]
        print(f"   {metric:<18}{value:>14.4f}  {spec['unit']:<6}{spec['bound']:<7.0%}"
              f"{record['raw_metrics'][metric]:>13.4f}  ({spec['better']} is better)")
    print(f"   {'failed_frac':<18}{record['failed_frac']:>14.4f}  {'ratio':<6}"
          f"any rise ({record['failed']} of {record['attempted']} attempts)")
    layers = record.get("per_layer")
    if not layers:
        return
    print(f"   {'layer':<20}{'calls':>8}{'self_s':>11}{'share':>8}")
    for key in [k for k in layers if k.endswith(".share")]:
        layer = key.removesuffix(".share")
        calls = layers.get(f"{layer}.calls")
        print(f"   {layer:<20}{'-' if calls is None else int(calls):>8}"
              f"{layers[layer + '.self_s']:>11.4f}{layers[key]:>8.3f}")
    shown = {k for k in layers if k.rsplit(".", 1)[-1] in ("calls", "self_s", "share")}
    for key in sorted(set(layers) - shown):
        print(f"   {key:<28}{layers[key]:>12.4f}")


def append_record(path: Path, record: dict[str, Any]) -> None:
    """Append one run to a set file (created when missing)."""
    try:
        document = _load_json(path)
    except FileNotFoundError:
        document = {"schema": SCHEMA, "runs": []}
    document["runs"].append(record)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    bench = _load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(RUNNERS),
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measured time per workload (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced round and report per-layer metrics")
    parser.add_argument("--out", type=Path, metavar="FILE",
                        help="append the full run record to this set file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"run.py: no system under test: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    expected = _load_json(HERE / "expected.json")
    names = [args.workload] if args.workload else list(RUNNERS)
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    record: dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "machine": machine_tag(), "workloads": {},
    }
    work = Workdir()
    metrics: dict[str, float] = {}
    try:
        for name in names:
            result = run_workload(name, seed=args.seed, seconds=args.seconds,
                                  trace=bool(args.trace), work=work,
                                  expected=expected)
            record["workloads"][name] = result
            print_workload(name, result, bench, args.seed)
            for problem in result["problems"][:10]:
                print(f"FAILED {name}: {problem}", file=sys.stderr)
            found = result.get("per_layer" if args.trace else "metrics", {})
            for metric in wanted:
                if metric in found:
                    key = metric if args.workload else f"{name}/{metric}"
                    metrics[key] = found[metric]
    finally:
        work.close()
    if args.out:
        append_record(args.out, record)
    attempted = sum(w["attempted"] for w in record["workloads"].values())
    failed = sum(w["failed"] for w in record["workloads"].values())
    complete = len(metrics) == len(wanted) * len(names)
    correct = failed == 0 and complete
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if complete else max(1, failed),
        "metrics": {
            key: {"value": value, "unit": units[key.rsplit("/", 1)[-1]]}
            for key, value in metrics.items()
        },
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
