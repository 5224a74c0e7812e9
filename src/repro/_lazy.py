"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that imported every submodule it re-exports made
``import repro.<package>`` cost the whole package — YAML, process pools,
HTTP clients and simulators included — for whichever one name the caller
wanted.  Each ``__init__`` instead declares, per submodule, the names
callers import from the package, and :func:`lazy_exports` turns that
table into the package's module ``__getattr__``: a name's submodule is
imported the first time the name is asked for, and the value is then
kept in the package namespace like an eager re-export.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping
from typing import Any

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], list[str]]:
    """``(__getattr__, __all__)`` of ``package`` for ``{submodule: names}``.

    ``from package import name`` and ``package.name`` import
    ``package.submodule`` on first use; any other name raises
    :class:`AttributeError`, which is what lets ``from package import
    submodule`` fall through to importing the submodule itself.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, sorted(where)
