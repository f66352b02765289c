"""Run one ``repro`` CLI call with per-layer timing wrappers installed.

Usage::

    python benchmarks/e2e/trace.py OUT.json [--explore-ratio] -- ARGV...

The child times ``import repro.cli``, wraps every layer's entry points
where their callers look them up (a module global, a package attribute
or a class attribute), calls ``repro.cli.main(ARGV)`` and writes what
the wrappers saw to ``OUT.json`` when ``main`` returns.  Its exit status
is ``main``'s.

Self time is kept with a per-thread stack: a wrapped call's time, minus
the time of the wrapped calls it made, is charged to its own target.
Time on the main thread outside every wrapped call (and outside the
import) is ``other``; a wrapped call at the bottom of another thread's
stack (the service runs campaigns in worker threads) opens that
thread's own root.  The accounting therefore closes: the import, every
target's self time and ``other`` sum to the main-thread window plus the
worker-thread roots, which is what ``run.py`` divides shares by.

``--explore-ratio`` re-expands, after ``main`` returns, every spec the
interpreter expanded with the compiled kernel -- ``compile_protocol``
(cold, as a worker process would pay it) then the public ``explore``
-- so the kernel layer's inclusive time sits beside the interpreter's
for the same specs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable

CORE_EXPLORE = "repro.core.verifier:explore"
KERNEL_COMPILE = "repro.kernel:compile_protocol"
KERNEL_EXPLORE = "repro.kernel:explore"
CACHE_GET = "repro.engine.cache:ResultCache.get"
CACHE_PUT = "repro.engine.cache:ResultCache.put"

#: Layer name -> wrapper targets, each ``"module:attribute path"``.  A
#: function reached through several names (``run_batch`` is imported
#: by the CLI at call time and by the service at import time) is
#: wrapped at each name its callers use.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("repro.cli:main",),
    "protocols": (
        "repro.engine.job:VerificationJob.resolve_spec",
        "repro.protocols.dsl:load_protocol",
        "repro.protocols.dsl:parse_protocol",
    ),
    "lint": ("repro.lint:lint_spec", "repro.lint:lint_source"),
    "ir": ("repro.ir:lower", "repro.ir.lower:lower"),
    "core": (CORE_EXPLORE,),
    "kernel": (KERNEL_COMPILE, KERNEL_EXPLORE),
    "liveness": ("repro.liveness:analyze_liveness",),
    "serialize": ("repro.engine.job:result_to_dict",),
    "engine.fingerprint": ("repro.engine.batch:spec_fingerprint",),
    "engine.cache": (CACHE_GET, CACHE_PUT),
    "engine.journal": (
        "repro.engine.journal:RunJournal.emit",
        "repro.engine.journal:JournalFollower.poll_lines",
    ),
    "engine.batch": ("repro.engine:run_batch", "repro.serve.app:run_batch"),
    "engine.runner": (
        "repro.engine.runner:SerialRunner.run",
        "repro.engine.runner:ParallelRunner.run",
    ),
    "serve": (
        "repro.serve.model:CampaignRequest.from_dict",
        "repro.serve.model:CampaignRequest.validate",
        "repro.serve.model:CampaignRequest.jobs",
        "repro.serve.store:CampaignStore.create",
        "repro.serve.store:CampaignStore.save_report",
        "repro.serve.app:report_to_dict",
    ),
    # Time the service's event loop spends blocked waiting for I/O or
    # its SSE poll timer; without it that wait would read as CLI work.
    "idle": ("selectors:DefaultSelector.select",),
}


def resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for one ``module:path`` target.

    Raises ``ImportError``/``AttributeError`` when the target no longer
    exists, so a renamed function fails loudly instead of leaving its
    layer silently at zero.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(function):
        raise TypeError(f"{target} is not callable")
    return owner, attr, raw


class Tracer:
    """Per-target call counts, self and inclusive time, across threads."""

    def __init__(self, record_explores: bool = False) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self.main_roots_s = 0.0
        self.worker_roots_s = 0.0
        #: ``(spec, augmented, pruning)`` of every interpreter expansion,
        #: kept only for ``--explore-ratio``.
        self.explores: list[tuple[Any, Any, Any]] | None = (
            [] if record_explores else None
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()

    def wrap(self, target: str, function: Callable[..., Any]) -> Callable[..., Any]:
        stat = self.stats.setdefault(
            target, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "hits": 0}
        )
        count_hits = target == CACHE_GET
        explores = self.explores if target == CORE_EXPLORE else None
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)
            began = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                spent = clock() - began
                children = stack.pop()
                with self._lock:
                    stat["calls"] += 1
                    stat["self_s"] += spent - children
                    stat["incl_s"] += spent
                    if count_hits and result is not None:
                        stat["hits"] += 1
                    if stack:
                        stack[-1] += spent
                    elif threading.current_thread() is self._main:
                        self.main_roots_s += spent
                    else:
                        self.worker_roots_s += spent
                if explores is not None:
                    explores.append(
                        (args[0], kwargs.get("augmented"), kwargs.get("pruning"))
                    )

        return timed

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        # Resolve (import) every target before wrapping any: a module
        # first imported after a wrap would bind the wrapper under its
        # own name, and wrapping that name again would count each call
        # twice.
        resolved = [
            (target, *resolve(target))
            for targets in LAYERS.values()
            for target in targets
        ]
        for target, owner, attr, raw in resolved:
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self.wrap(target, raw.__func__))
            else:
                wrapped = self.wrap(target, raw)
            setattr(owner, attr, wrapped)


def _explore_ratio(tracer: Tracer) -> None:
    """Expand every interpreter-expanded spec again with the kernel."""
    import repro.kernel

    for spec, augmented, pruning in tracer.explores or ():
        kwargs = {}
        if augmented is not None:
            kwargs["augmented"] = augmented
        if pruning is not None:
            kwargs["pruning"] = pruning
        repro.kernel.compile_protocol(spec)  # through the wrappers
        repro.kernel.explore(spec, **kwargs)


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    out, *flags = argv[:split]
    cli_argv = argv[split + 1 :]
    if set(flags) - {"--explore-ratio"}:
        print(f"trace.py: unknown flags {flags}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - began
    tracer = Tracer(record_explores="--explore-ratio" in flags)
    tracer.install()
    # Installing imports every wrapped module, some of which the call
    # itself would import later or never; that time is tracing cost,
    # so it stays out of the window.
    install_s = time.perf_counter() - began - import_s
    code = 2
    try:
        code = repro.cli.main(cli_argv)
        if tracer.explores is not None:
            _explore_ratio(tracer)
    finally:
        window_s = time.perf_counter() - began - install_s
        document = {
            "import_s": import_s,
            "window_s": window_s,
            "main_roots_s": tracer.main_roots_s,
            "worker_roots_s": tracer.worker_roots_s,
            "layers": LAYERS,
            "targets": tracer.stats,
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
