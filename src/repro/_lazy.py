"""Lazy package exports (PEP 562).

A package's ``__init__`` declares which submodule defines each public
name; the submodule is imported the first time the name is read, not
when the package is.  An entry point such as the serving layer then
loads only the layers it uses instead of the whole numerics stack.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    namespace: dict[str, Any],
    exports: Mapping[str, Iterable[str]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a relative submodule (``".core.session"``) to the
    names it defines.  A resolved name is cached in ``namespace`` (the
    package's globals), so each is looked up once.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
