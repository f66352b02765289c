"""Command-line interface: ``repro`` / ``python -m repro``.

:data:`COMMANDS` lists every subcommand with its one-line help; each
one's arguments and handler live in its own module,
``repro.commands.<name>`` (see :mod:`repro.commands`), imported only
when that subcommand is parsed or run, so a spec-file ``repro batch``
compiles none of the others.

Every subcommand uses the same exit-status convention (documented in
``repro --help``): 0 for success, 1 when verification found violations
(or mutants escaped), 2 for usage, specification or input errors.
"""

from __future__ import annotations

import argparse
import signal
import sys
from types import ModuleType
from typing import Sequence

from .core.protocol import ProtocolDefinitionError
from .protocols.dsl import DslError

__all__ = [
    "main",
    "build_parser",
    "COMMANDS",
    "EXIT_OK",
    "EXIT_VIOLATION",
    "EXIT_ERROR",
    "EXIT_INTERRUPTED",
]

#: Exit status: every requested check passed.
EXIT_OK = 0
#: Exit status: verification found violations / mutants escaped.
EXIT_VIOLATION = 1
#: Exit status: usage, specification or input error.
EXIT_ERROR = 2
#: Exit status: interrupted by SIGINT (128 + signal number 2).  The
#: batch engine flushes a ``run_aborted`` journal event first, so the
#: run can be picked up again with ``repro batch --resume``.  SIGTERM
#: gets the same treatment and exits 143 (128 + 15) -- see
#: :func:`_signal_to_interrupt`.
EXIT_INTERRUPTED = 130


def _signal_to_interrupt(signum: int, frame: object) -> None:
    """Route SIGTERM through the SIGINT path: journal, then 128+signum.

    An orchestrator's kill must behave like an operator's Ctrl-C --
    the batch engine flushes ``run_aborted`` and keeps every journaled
    result -- differing only in the exit status reported.  The signal
    number rides on the ``KeyboardInterrupt`` (a plain Ctrl-C raises
    one without arguments), so :func:`main` needs no shared state.
    """
    raise KeyboardInterrupt(signum)


EXIT_STATUS_DOC = """\
exit status:
  0   success -- every requested check passed
  1   verification found violations (or mutants escaped the verifier,
      or lint found error-severity problems)
  2   usage, specification or input error (unknown protocol, bad spec
      file, malformed arguments, crashed/timed-out batch jobs,
      budget-exhausted partial results, preflight-rejected
      specifications)
  130 interrupted (SIGINT, 128+2); an interrupted batch flushes its
      journal and can be continued with `repro batch --resume JOURNAL`
  143 terminated (SIGTERM, 128+15); same journal semantics as 130
"""

#: Every subcommand, in ``repro --help`` order: name -> one-line help.
COMMANDS = {
    "list": "list protocols, mutations and workloads",
    "verify": "symbolically verify a protocol",
    "batch": "batch-verify many specs in parallel with caching + journal",
    "lint": "statically analyze specs without running verification",
    "ir": "work with the guarded-action intermediate representation",
    "profile": "verify under instrumentation; write a report + trace file",
    "mutants": "verify every injected-bug variant",
    "enumerate": "explicit Figure 2 state enumeration",
    "crossval": "Theorem 1 cross-validation",
    "simulate": "run the executable multiprocessor",
    "compare": "compare two protocols' diagrams",
    "fsm": "Definition 1 checks on the cache FSM",
    "fragility": "verify every single-point edit of a protocol",
    "fuzz": "differential fuzzing of the symbolic vs concrete engines",
    "diff": "the differential gate: every check over every spec source",
    "serve": "run the verification-as-a-service campaign server",
    "submit": "submit a campaign to a running campaign server",
    "watch": "stream a campaign's journal events from a campaign server",
    "sweep": "traffic sweep across machine sizes",
}


def _command(name: str) -> ModuleType:
    """The module holding subcommand *name*'s arguments and handler.

    Loaded with ``__import__``, not ``importlib.import_module``, so
    ``python -X importtime`` lists it.
    """
    return __import__(f"repro.commands.{name}", fromlist=("run",))


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing).

    With *command*, only that subcommand's arguments are added:
    :func:`main` parses one subcommand per process, and adding every
    subcommand's arguments costs more than parsing them.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symbolic verification of cache coherence protocols "
        "(Pong & Dubois, SPAA 1993 reproduction)",
        epilog=EXIT_STATUS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help in COMMANDS.items():
        # Every subcommand is listed with its help, for ``repro --help``
        # and for argparse's choice check; only the wanted ones get
        # their arguments.
        p = sub.add_parser(name, help=help)
        if command in (None, name):
            _command(name).add_arguments(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status.

    Usage, specification and input errors (unknown protocol names,
    malformed spec files, unreadable traces) exit with status 2 so that
    scripts can tell "the protocol is broken" (1) from "the invocation
    is broken" (2).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    named = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(named).parse_args(argv)
    try:
        return _command(args.command).run(args)
    except KeyboardInterrupt as exc:
        # The batch engine has already flushed a run_aborted journal
        # event by the time the interrupt reaches us (see run_batch).
        # SIGTERM routes through the same path (via the trampoline
        # handler) and reports 143 instead of 130.
        signum = exc.args[0] if exc.args else None
        signame = signal.Signals(signum).name if signum is not None else "SIGINT"
        print(
            f"repro {args.command}: interrupted ({signame}); journaled "
            "results are kept (batch runs continue with --resume)",
            file=sys.stderr,
        )
        return 128 + signum if signum is not None else EXIT_INTERRUPTED
    except (
        KeyError,
        ValueError,
        OSError,
        DslError,
        ProtocolDefinitionError,
    ) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
