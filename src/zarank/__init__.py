"""Biclique unions without large bipartite independent sets.

Build bipartite graphs as unions of complete bipartite pieces, certify via a
union bound that random placements avoid every k x k independent set, refute
under-provisioned families with a random-deletion attack, evaluate the
closed-form size conditions, and verify or audit depth-two superconcentrators.
"""

import importlib

__version__ = "0.1.0"

# The library modules, each after the modules it imports. A public name is
# imported on first use (PEP 562) from the first of them whose ``__all__``
# lists it, so that ``import zarank.cli`` loads only what a command runs:
# every CLI call is a fresh interpreter.
_LIBRARY = ("core", "bounds", "witness", "construct", "attack", "superconc")


def _load(module: str):
    return importlib.import_module(f"{__name__}.{module}")


def __getattr__(name: str):
    if name == "__all__":
        return sorted(public for module in _LIBRARY for public in _load(module).__all__)
    if name in (*_LIBRARY, "cli"):
        return _load(name)
    for module in map(_load, _LIBRARY):
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_LIBRARY, "cli"})
