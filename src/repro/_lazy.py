"""Package namespaces that import a member's module on first use.

A package whose ``__init__`` imports every submodule makes each of its
importers pay for all of them.  :func:`lazy_namespace` gives a package
the PEP 562 module ``__getattr__`` and ``__dir__`` instead: a re-exported
name imports its submodule when it is first looked up (``pkg.name`` or
``from pkg import name``) and is cached in the package's namespace, so
later lookups are plain attribute reads.  A submodule the table does not
name (``pkg.sub``) is imported on first attribute access, as an eager
``from . import sub`` would have made it available.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Callable

__all__ = ["lazy_namespace"]


def lazy_namespace(
    namespace: dict, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazily loaded package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule (relative, ``".trace"``) to the names the package
    re-exports from it.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif not name.startswith("__") and importlib.util.find_spec(
            f"{package}.{name}"
        ):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where) | set(namespace["__all__"]))

    return __getattr__, __dir__
