"""Lazy package namespaces (PEP 562).

A package ``__init__`` that re-exports its submodules' public names would
import every submodule, and everything those import, the moment anyone
imports the package.  Instead it declares which submodule provides each
name, and the name is imported on first access::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "metrics": ("MetricsRegistry",),
        "analysis": ("analyze",),
    })

so ``from repro.obs.metrics import MetricsRegistry`` never loads the
critical-path analysis, while ``from repro.obs import analyze`` still
works.  A resolved name is stored on the package, so later lookups are
plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names are given as ``{submodule: (name, ...)}``; a submodule listed
    among its own names (``{"ops": ("ops",)}``) exports itself."""
    owner = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        sub = owner.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{sub}")
        value = module if name == sub else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
