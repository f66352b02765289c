"""``RunOptions``: one validated bundle behind every verification surface.

One table drives the cache-key contract (every field but ``preflight``
changes the key; two keys are pinned byte for byte), the canonical
``to_dict``/``from_dict`` round trip, and the CLI: the ``batch``,
``verify`` and ``submit`` parsers must build the same options from the
same flags.  A second table shows that the engine is not an option:
every surface refuses a ``backend``.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial

import pytest

from repro.cli import build_parser, main
from repro.core.essential import PruningMode
from repro.core.options import PRUNINGS, RunOptions
from repro.engine import VerificationJob, job_key, spec_fingerprint
from repro.protocols.registry import get_protocol
from repro.serve import ServeApp, ServerThread, client

#: A non-default value for every field, with the flags that select it.
NON_DEFAULT: dict[str, tuple[object, list[str]]] = {
    "augmented": (False, ["--structural"]),
    "pruning": ("duplicates", ["--no-pruning"]),
    "mode": ("liveness", ["--mode", "liveness"]),
    "preflight": ("annotate", ["--preflight", "annotate"]),
    "max_visits": (7, ["--max-visits", "7"]),
    "deadline": (2.5, ["--deadline", "2.5"]),
    "max_states": (9, ["--max-states", "9"]),
    "max_rss_mb": (64.0, ["--max-rss-mb", "64"]),
}

#: ``job_key`` values pinned byte for byte (engine version "7": a cache
#: entry is a summary header plus the payload bytes; the fingerprints
#: are those of version "6"); refactors must keep existing cache
#: entries reachable.
PINNED_KEYS = [
    (
        RunOptions(),
        "86749df75bc21952303519dc3be0ed3122f9dc26ea55ab0584af2f8a5a327031",
    ),
    (
        RunOptions(mode="liveness", deadline=2.0),
        "0accc56c7e097196eff1a3c7c119ce03bbaa36ac8b2aa6215769eba6b3d0c16e",
    ),
]


def _key(options: RunOptions) -> str:
    fingerprint = spec_fingerprint(get_protocol("illinois"))
    return job_key(fingerprint, VerificationJob(protocol="illinois", options=options))


def test_table_covers_every_field():
    assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(RunOptions)}
    assert set(PRUNINGS) == {mode.value for mode in PruningMode}


def test_every_field_but_preflight_changes_the_cache_key():
    base = _key(RunOptions())
    for field in dataclasses.fields(RunOptions):
        value, _ = NON_DEFAULT[field.name]
        changed = _key(RunOptions(**{field.name: value}))
        if field.name == "preflight":
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


def _cli_refuses(head: list[str], tmp_path, capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([*head, "--backend", "interp"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --backend interp" in capsys.readouterr().err


def _from_dict_refuses(tmp_path, capsys) -> None:
    with pytest.raises(ValueError, match="unknown run options"):
        RunOptions.from_dict({"backend": "interp"})


def _http_refuses(tmp_path, capsys) -> None:
    with ServerThread(ServeApp(tmp_path / "state")) as server:
        with pytest.raises(client.ServiceError) as excinfo:
            client.submit(server.base_url, {"protocols": ["msi"], "backend": "interp"})
    assert excinfo.value.status == 400 and "backend" in str(excinfo.value)
    assert list((tmp_path / "state" / "campaigns").iterdir()) == []


#: Every surface that once took an engine choice, and the code that
#: already refuses unknown input there (argparse, the unknown-key checks).
BACKEND_REFUSALS = {
    "verify": partial(_cli_refuses, ["verify", "msi"]),
    "batch": partial(_cli_refuses, ["batch", "--protocols", "msi"]),
    "submit": partial(_cli_refuses, ["submit", "http://x:1"]),
    "profile": partial(_cli_refuses, ["profile", "msi"]),
    "enumerate": partial(_cli_refuses, ["enumerate", "msi"]),
    "from_dict": _from_dict_refuses,
    "http": _http_refuses,
}


@pytest.mark.parametrize("surface", list(BACKEND_REFUSALS))
def test_backend_is_refused(surface, tmp_path, capsys):
    BACKEND_REFUSALS[surface](tmp_path, capsys)
