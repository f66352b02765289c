"""PEP 562 re-exports for the package roots.

A package root lists which of its submodules defines each public name;
importing the root loads none of them.  The first access to a name
imports its defining module, caches the value on the root and returns
it, so ``from repro.engine import run_batch`` loads the batch engine
but not the worker pool's siblings, and ``import repro.cli`` loads only
what its subcommands import at module level.

Submodules are loaded with ``__import__``, not
``importlib.import_module``, so ``python -X importtime`` still lists
them.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for one package root.

    *exports* maps a submodule, relative to *package* (dotted for a
    nested one), to the public names it defines.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(__import__(f"{package}.{module}", fromlist=("__name__",)), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | home.keys())

    return list(home), __getattr__, __dir__
