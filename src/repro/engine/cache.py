"""Persistent, content-addressed verification result cache.

Layout (one JSON file per entry, sharded by key prefix)::

    <root>/v<ENGINE_VERSION>/<key[:2]>/<key>.json

where ``key`` is :func:`repro.engine.fingerprint.job_key` -- a hash of
the spec fingerprint, the verification options and the engine version.
Re-running a zoo or mutant sweep therefore only verifies specs whose
*behaviour* changed; renames, reorderings and unrelated refactors all
hit the cache.

Entries are written atomically (temp file + ``os.replace``) so a
killed run never leaves a torn entry; a *corrupt* entry (unparsable
JSON or the wrong shape) is quarantined -- moved aside to
``<key>.json.quarantined`` for post-mortem -- and treated as a miss,
so one flipped bit can never wedge a sweep or be replayed as a
verdict.  The default root is ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.

Partial results (budget-exhausted runs) are cached too, flagged with
``"partial": true``; since the budgets are part of the job key, a
partial entry is only replayed for a job requesting the same budgets,
and it replays as *partial* -- never as a verified verdict.  Partials
whose exhaustion reason is ``cancelled`` are **not** cached: the
cancellation came from the runner's wall-clock timeout, which is not
part of the key, so caching them would poison unrelated runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from ..obs import active as _active_collector
from .fingerprint import ENGINE_VERSION, job_key
from .job import JobResult, JobStatus, VerificationJob

__all__ = ["default_cache_dir", "ResultCache"]


def default_cache_dir() -> Path:
    """The cache root used when none is given explicitly."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path("~/.cache").expanduser()
    return base / "repro"


class ResultCache:
    """Content-addressed store of completed verification results."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def key_for(self, fingerprint: str, job: VerificationJob) -> str:
        """The content address of *job*'s result."""
        return job_key(fingerprint, job)

    def _path(self, key: str) -> Path:
        return self.root / f"v{ENGINE_VERSION}" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, fingerprint: str, job: VerificationJob) -> JobResult | None:
        """Replay *job*'s result from the cache, or ``None`` on a miss.

        A missing entry is a plain miss.  A *corrupt* entry -- torn
        JSON, a non-dict payload, an unknown status, or a partial
        record without its ``partial`` marker -- is quarantined (moved
        aside to ``<key>.json.quarantined``) and then counts as a
        miss, so the fresh result can land cleanly.
        """
        key = self.key_for(fingerprint, job)
        path = self._path(key)
        coll = _active_collector()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            if coll is not None:
                coll.count("engine.cache.misses")
            return None
        try:
            record = json.loads(text)
            status = record["status"]
            payload = record["payload"]
            if status not in JobStatus.WITH_PAYLOAD or not isinstance(payload, dict):
                raise ValueError("malformed cache entry")
            if (status == JobStatus.PARTIAL) != bool(record.get("partial")):
                raise ValueError("partial marker does not match status")
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            if coll is not None:
                coll.count("engine.cache.misses")
            return None
        self.hits += 1
        if coll is not None:
            coll.count("engine.cache.hits")
        return JobResult(
            job,
            status,
            payload=payload,
            error=record.get("error"),
            elapsed=float(record.get("elapsed", 0.0)),
            cached=True,
            fingerprint=fingerprint,
        )

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside for post-mortem inspection."""
        try:
            os.replace(path, path.with_name(path.name + ".quarantined"))
        except OSError:
            return
        self.quarantined += 1
        coll = _active_collector()
        if coll is not None:
            coll.count("engine.cache.quarantined")

    def put(self, fingerprint: str, job: VerificationJob, result: JobResult) -> None:
        """Store a completed or partial result.

        No-op for errors/timeouts/crashes, for partials whose
        exhaustion reason is ``cancelled`` -- those stopped because of
        the runner's per-job timeout, which is not part of the job
        key, so caching them would poison runs with other timeouts --
        and for partials that visited no state: their guard tripped
        before expansion, maybe before the spec was validated, so a
        replay could stand in for the ``error`` another run reports.
        """
        if result.status not in JobStatus.WITH_PAYLOAD or result.payload is None:
            return
        if result.partial and (
            result.exhausted_reason == "cancelled"
            or not result.payload["stats"]["visits"]
        ):
            return
        key = self.key_for(fingerprint, job)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record: dict[str, Any] = {
            "key": key,
            "engine": ENGINE_VERSION,
            "fingerprint": fingerprint,
            "job": job.to_meta(),
            "status": result.status,
            "elapsed": result.elapsed,
            "payload": result.payload,
        }
        if result.partial:
            record["partial"] = True
            record["error"] = result.error
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
