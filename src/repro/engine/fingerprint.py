"""Spec fingerprints and cache keys.

A *fingerprint* is a stable content hash of a protocol specification:
SHA-256 over the canonical JSON rendering produced by
:func:`repro.core.serialize.spec_to_dict` (the full behavioural table
plus structural attributes).  Two instances of the same protocol --
across processes, runs and Python versions -- hash identically, while
any behavioural edit (a mutation, a perturbation, a changed DSL rule)
changes the hash.

A *job key* extends the fingerprint with the verification options and
the engine version; it addresses entries in the persistent result
cache (:mod:`repro.engine.cache`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..core.protocol import ProtocolSpec
from ..core.serialize import spec_to_dict
from .job import VerificationJob

__all__ = [
    "ENGINE_VERSION",
    "canonical_json",
    "spec_fingerprint",
    "job_key",
]

#: Version of the engine's result payload / fingerprint semantics.
#: Bump whenever :func:`spec_to_dict` or :func:`result_to_dict` change
#: shape, so stale cache entries are never replayed.
#: "2": budgets joined the job key and payloads may carry a
#: ``partial`` section.
#: "3": the choice of expansion engine joined the job key.
#: "4": the verification mode joined the job key and liveness-mode
#: payloads carry a ``liveness`` section.
#: "5": the engine choice left the job key (both engines' payloads are equal).
#: "6": :func:`spec_to_dict` tabulates every present-set, once each.
ENGINE_VERSION = "6"


def canonical_json(payload: Any) -> str:
    """Minimal, key-sorted JSON -- the hashing wire format."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_fingerprint(spec: ProtocolSpec) -> str:
    """Stable content hash (hex SHA-256) of a protocol specification."""
    return hashlib.sha256(
        canonical_json(spec_to_dict(spec)).encode("utf-8")
    ).hexdigest()


def job_key(fingerprint: str, job: VerificationJob) -> str:
    """Content address of one job's result in the persistent cache.

    The spec is represented by its fingerprint, so e.g. a registry job
    and a DSL job for behaviourally identical specs share an entry.
    Every run option participates except ``preflight``, which never
    changes a payload.  The engine that expanded the spec is not an
    option (the kernel and the interpreter produce identical payloads,
    so one verdict is cached once whichever engine produced it).  The
    resource budgets participate because an exhausted budget produces a
    *partial* payload: a partial result may only be replayed for a job
    that requested the very same budgets.
    """
    options = job.options.to_dict()
    del options["preflight"]
    return hashlib.sha256(
        canonical_json(
            {"engine": ENGINE_VERSION, "fingerprint": fingerprint, **options}
        ).encode("utf-8")
    ).hexdigest()
