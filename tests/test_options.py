"""``RunOptions``: one validated bundle behind every verification surface.

One table drives the cache-key contract (every field but ``preflight``
and ``backend`` changes the key; two keys are pinned byte for byte), the canonical
``to_dict``/``from_dict`` round trip, and the CLI: the ``batch``,
``verify`` and ``submit`` parsers must build the same options from the
same flags.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.core.essential import PruningMode
from repro.core.options import PRUNINGS, RunOptions
from repro.engine import VerificationJob, job_key, spec_fingerprint
from repro.protocols.registry import get_protocol

#: A non-default value for every field, with the flags that select it.
NON_DEFAULT: dict[str, tuple[object, list[str]]] = {
    "augmented": (False, ["--structural"]),
    "pruning": ("duplicates", ["--no-pruning"]),
    "mode": ("liveness", ["--mode", "liveness"]),
    "backend": ("interp", ["--backend", "interp"]),
    "preflight": ("annotate", ["--preflight", "annotate"]),
    "max_visits": (7, ["--max-visits", "7"]),
    "deadline": (2.5, ["--deadline", "2.5"]),
    "max_states": (9, ["--max-states", "9"]),
    "max_rss_mb": (64.0, ["--max-rss-mb", "64"]),
}

#: ``job_key`` values pinned byte for byte; refactors must keep existing
#: cache entries reachable.  Re-recorded under engine version "5", when
#: ``backend`` left the key: the old keys hashed the backend in, so every
#: entry moved (the second entry's interp backend no longer matters).
PINNED_KEYS = [
    (
        RunOptions(),
        "0e942d6b7ad8dc44722786136266252e0ec15260c04beff0a92da740a021fab4",
    ),
    (
        RunOptions(mode="liveness", backend="interp", deadline=2.0),
        "b16ba115651e3b69ba1332e693d9b71dc42e0915b77b761cc3b58d1cdc1c3b29",
    ),
]


def _key(options: RunOptions) -> str:
    fingerprint = spec_fingerprint(get_protocol("illinois"))
    return job_key(fingerprint, VerificationJob(protocol="illinois", options=options))


def test_table_covers_every_field():
    assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(RunOptions)}
    assert set(PRUNINGS) == {mode.value for mode in PruningMode}


def test_every_field_but_preflight_changes_the_cache_key():
    # ``backend`` is exempt too: both backends produce the same payload.
    base = _key(RunOptions())
    for field in dataclasses.fields(RunOptions):
        value, _ = NON_DEFAULT[field.name]
        changed = _key(RunOptions(**{field.name: value}))
        if field.name in ("preflight", "backend"):
            assert changed == base, f"{field.name} must not split the cache"
        else:
            assert changed != base, f"{field.name} must be part of the key"


@pytest.mark.parametrize(
    "options, key", PINNED_KEYS, ids=["defaults", "liveness-deadline"]
)
def test_pinned_cache_keys(options, key):
    assert _key(options) == key


def test_dict_round_trip():
    everything = RunOptions(**{k: v for k, (v, _) in NON_DEFAULT.items()})
    for options in (RunOptions(), everything):
        wire = json.loads(json.dumps(options.to_dict()))
        assert RunOptions.from_dict(wire) == options
    assert RunOptions.from_dict({}) == RunOptions()
    pruned = RunOptions(pruning=PruningMode.DUPLICATES)
    assert pruned.to_dict()["pruning"] == "duplicates"
    with pytest.raises(ValueError, match="unknown run options"):
        RunOptions.from_dict({"structural": True})


def test_batch_verify_and_submit_parse_the_same_options():
    flags = [flag for _, argv in NON_DEFAULT.values() for flag in argv]
    expected = RunOptions(**{k: v for k, (v, _) in NON_DEFAULT.items()})
    parser = build_parser()
    for head in (["batch"], ["verify", "msi"], ["submit", "http://x:1"]):
        args = parser.parse_args([*head, *flags])
        assert RunOptions.from_args(args) == expected, head
        assert RunOptions.from_args(parser.parse_args(head)) == RunOptions()


def test_bare_preflight_flag_means_reject():
    args = build_parser().parse_args(["batch", "--preflight"])
    assert RunOptions.from_args(args).preflight == "reject"


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_cli_rejects_bad_deadline(value, capsys):
    assert main(["batch", "--protocols", "msi", "--no-cache", "--deadline", value]) == 2
    assert "deadline" in capsys.readouterr().err
