"""PEP 562 lazy re-exports for the package ``__init__``s.

A process should import what it runs: the fleet supervisor routes,
journals and merges telemetry but never searches, so passing through
``repro.cluster`` must not load the engine (and numpy) behind
``repro.core``.  A package names the submodule each public name lives
in and installs the ``__getattr__`` / ``__dir__`` built here; the
submodule loads the first time one of its names is read, and the
package's real imports sit under ``TYPE_CHECKING`` for type checkers.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable


def lazy_exports(
    package: str, **exports: str
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.  Each keyword is a
    submodule, its value the whitespace-separated names re-exported
    from it.  Any other public name resolves as a submodule
    (``repro.cluster.pool`` after a bare ``import repro``, as when the
    packages imported each other eagerly) or is an ``AttributeError``.
    """
    owners = {name: mod for mod, names in exports.items() for name in names.split()}

    def __getattr__(name: str) -> object:
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        if name in owners:
            value = getattr(import_module(f"{package}.{owners[name]}"), name)
        elif name.startswith("_"):
            raise missing
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise missing from None
        # Cached: the next read never reaches this function.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owners})

    return __getattr__, __dir__
