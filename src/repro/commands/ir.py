"""``repro ir dump``: a spec's guarded-action IR or its fingerprint."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Lower a specification to the canonical guarded-action "
        "IR (repro.ir): an interned, deterministic decision-list form "
        "shared by DSL and registry protocols, with a stable content "
        "fingerprint.  See docs/IR.md for the format."
    )
    ir_sub = parser.add_subparsers(dest="ir_command", required=True)
    dump = ir_sub.add_parser("dump", help="print a spec's IR as canonical JSON")
    dump.add_argument(
        "spec",
        help="a DSL spec file path, a registry protocol name, or a "
        "builtin DSL spec name",
    )
    dump.add_argument(
        "--compact",
        action="store_true",
        help="single-line canonical JSON (the exact fingerprint input)",
    )
    dump.add_argument(
        "--fingerprint",
        action="store_true",
        help="print only the SHA-256 content fingerprint",
    )


def run(args: argparse.Namespace) -> int:
    import json

    from ..ir import canonical_json, lower

    ir = lower(_resolve_one_spec(args.spec))
    if args.fingerprint:
        print(ir.fingerprint())
    elif args.compact:
        print(canonical_json(ir.to_dict()))
    else:
        print(json.dumps(ir.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _resolve_one_spec(target: str):
    """One spec from a path, registry name or builtin DSL name."""
    from pathlib import Path

    from ..protocols.dsl import load_builtin, load_protocol

    if Path(target).exists():
        return load_protocol(target)
    from ..protocols.registry import get_protocol

    try:
        return get_protocol(target)
    except KeyError:
        pass
    try:
        return load_builtin(target)
    except KeyError:
        raise ValueError(
            f"unknown spec {target!r}: not a file, a registry protocol "
            "or a builtin DSL spec"
        ) from None
