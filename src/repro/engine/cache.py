"""Persistent, content-addressed verification result cache.

Layout (one file per entry, sharded by key prefix)::

    <root>/v<ENGINE_VERSION>/<key[:2]>/<key>.json

where ``key`` is :func:`repro.engine.fingerprint.job_key` -- a hash of
the spec fingerprint, the verification options and the engine version.
Re-running a zoo or mutant sweep therefore only verifies specs whose
*behaviour* changed; renames, reorderings and unrelated refactors all
hit the cache.

An entry is one JSON header line, then the payload's JSON bytes.  The
header holds the job's metadata, its status, the payload's
:func:`~repro.engine.job.payload_summary` and the payload's SHA-256.
A lookup parses only the header and checks the digest; the payload is
decoded only when a caller reads ``JobResult.payload``, so a batch that
reports statuses and counts never decodes one.  This module is the only
one that knows the layout: :meth:`ResultCache.entries` serves whole
records to everyone else.

Entries are written atomically (temp file + ``os.replace``) so a
killed run never leaves a torn entry; a *corrupt* entry (an unparsable
header, the wrong shape, or payload bytes that do not match their
digest) is quarantined -- moved aside to ``<key>.json.quarantined``
for post-mortem -- and treated as a miss, so one flipped bit can never
wedge a sweep or be replayed as a verdict.  The default root is
``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``.

Partial results (budget-exhausted runs) are cached too, flagged with
``"partial": true``; since the budgets are part of the job key, a
partial entry is only replayed for a job requesting the same budgets,
and it replays as *partial* -- never as a verified verdict.  Partials
whose exhaustion reason is ``cancelled`` are **not** cached: the
cancellation came from the runner's wall-clock timeout, which is not
part of the key, so caching them would poison unrelated runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, BinaryIO

from ..obs.collector import active as _active_collector
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
        self.quarantined = 0

    # ------------------------------------------------------------------
    def key_for(self, fingerprint: str, job: VerificationJob) -> str:
        """The content address of *job*'s result."""
        return job_key(fingerprint, job)

    def _path(self, key: str) -> Path:
        return self.root / f"v{ENGINE_VERSION}" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(
        self, fingerprint: str, job: VerificationJob, key: str | None = None
    ) -> JobResult | None:
        """Replay *job*'s result from the cache, or ``None`` on a miss.

        ``key`` is :meth:`key_for` of the job when the caller already
        holds it (batch admission journals it with the hit).

        A missing entry is a plain miss.  A *corrupt* entry -- a torn
        header, an unknown status, a partial record without its
        ``partial`` marker, a malformed summary or ``elapsed``, or
        payload bytes that fail their digest -- is quarantined (moved
        aside to ``<key>.json.quarantined``) and then counts as a miss,
        so the fresh result can land cleanly.  The hit's ``payload``
        stays undecoded until first read.
        """
        if key is None:
            key = self.key_for(fingerprint, job)
        path = self._path(key)
        hit = None
        try:
            with path.open("rb") as fh:
                header = _read_header(fh)
                body = _read_payload(fh, header)
            hit = JobResult(
                job,
                header["status"],
                payload=body,
                error=header.get("error"),
                elapsed=float(header.get("elapsed", 0.0)),
                cached=True,
                fingerprint=fingerprint,
                summary=header["summary"],
            )
        except OSError:
            pass  # no entry: a plain miss
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
        coll = _active_collector()
        if coll is not None:
            coll.count(
                "engine.cache.hits" if hit is not None else "engine.cache.misses"
            )
        return hit

    def entries(self, prefix: str) -> list[dict[str, Any]]:
        """Every intact entry whose spec fingerprint starts with *prefix*.

        Records come back in key order, each the entry's header fields
        (minus its summary and digest) plus the decoded ``payload``.
        Only matching entries' payloads are read and decoded; corrupt
        entries are skipped, not quarantined.
        """
        records = []
        version_dir = self.root / f"v{ENGINE_VERSION}"
        for path in sorted(version_dir.glob("*/*.json")):
            try:
                with path.open("rb") as fh:
                    header = _read_header(fh)
                    if not str(header["fingerprint"]).startswith(prefix):
                        continue
                    body = _read_payload(fh, header)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            del header["summary"], header["sha256"]
            records.append({**header, "payload": json.loads(body)})
        return records

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

    def put(
        self,
        fingerprint: str,
        job: VerificationJob,
        result: JobResult,
        key: str | None = None,
    ) -> None:
        """Store a completed or partial result (``key`` as in :meth:`get`).

        No-op for errors/timeouts/crashes, for partials whose
        exhaustion reason is ``cancelled`` -- those stopped because of
        the runner's per-job timeout, which is not part of the job
        key, so caching them would poison runs with other timeouts --
        and for partials that visited no state: their guard tripped
        before expansion, maybe before the spec was validated, so a
        replay could stand in for the ``error`` another run reports.
        """
        if result.status not in JobStatus.WITH_PAYLOAD or result.summary is None:
            return
        if result.partial and (
            result.exhausted_reason == "cancelled" or not result.summary["visits"]
        ):
            return
        if key is None:
            key = self.key_for(fingerprint, job)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The digest leads the entry, so hash the pieces, then write them.
        chunks = result.payload_chunks()
        digest = hashlib.sha256()
        for chunk in chunks:
            digest.update(chunk)
        header: dict[str, Any] = {
            "key": key,
            "engine": ENGINE_VERSION,
            "fingerprint": fingerprint,
            "job": job.to_meta(),
            "status": result.status,
            "elapsed": result.elapsed,
            "summary": result.summary,
            "sha256": digest.hexdigest(),
        }
        if result.partial:
            header["partial"] = True
            header["error"] = result.error
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
                fh.write(b"\n")
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


_SUMMARY_KEYS = frozenset(("visits", "expanded", "essential", "reason"))


def _read_header(fh: BinaryIO) -> dict[str, Any]:
    """Parse and check the header line of the entry open as *fh*.

    Raises ``ValueError``, ``KeyError`` or ``TypeError`` on a corrupt
    header: not one JSON object followed by a newline, an unknown
    status, a partial marker that disagrees with the status, or a
    summary of the wrong shape.
    """
    head = fh.readline()
    if not head.endswith(b"\n"):
        raise ValueError("cache entry has no payload")
    header = json.loads(head)
    status = header["status"]
    if status not in JobStatus.WITH_PAYLOAD:
        raise ValueError("malformed cache entry")
    if (status == JobStatus.PARTIAL) != bool(header.get("partial")):
        raise ValueError("partial marker does not match status")
    summary = header["summary"]
    if not isinstance(summary, dict) or summary.keys() != _SUMMARY_KEYS:
        raise ValueError("malformed summary")
    return header


def _read_payload(fh: BinaryIO, header: dict[str, Any]) -> bytes:
    """The rest of the entry open as *fh*: its payload bytes, undecoded.

    Raises ``ValueError`` or ``KeyError`` unless they are a JSON object
    whose SHA-256 is the header's digest.
    """
    body = fh.read()
    if not body.startswith(b"{"):
        raise ValueError("payload is not a JSON object")
    if hashlib.sha256(body).hexdigest() != header["sha256"]:
        raise ValueError("payload does not match its digest")
    return body
