"""Lazy package exports (PEP 562), shared by every package that defers one.

A package names the exports it keeps out of a serve process in a table
``name -> submodule``.  :func:`lazy_exports` returns the two module hooks
that make the table behave like eager imports: ``__getattr__`` imports the
submodule on first use, and ``__dir__`` lists the package's globals plus
every lazy name, so ``dir()``, ``help()``, tab completion and
``inspect.getmembers`` see the whole ``__all__`` without loading anything.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are ``namespace``.

    ``table`` maps an exported name to the submodule (relative to the
    package) that defines it.  A resolved name is stored in the package's
    globals, so the hook runs once per name.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
