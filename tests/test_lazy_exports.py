"""Lazy package namespaces expose exactly what eager ones did.

Each package below declares its public names with
:func:`repro._lazy.lazy_exports` and imports a submodule only when one
of its names is first used.  These checks pin that the public surface is
unchanged: every ``__all__`` name resolves to the very object its
submodule defines, ``dir`` and ``import *`` see it, and nothing else
resolves.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.baselines",
    "repro.check",
    "repro.core",
    "repro.faults",
    "repro.gpu",
    "repro.ir",
    "repro.obs",
    "repro.runtime",
    "repro.serve",
)


def submodules(package) -> list:
    """Every non-package module below ``package``, imported."""
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
        if not info.ispkg and not info.name.endswith(".__main__")
    ]


@pytest.fixture(params=LAZY_PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_package_is_lazy(package):
    assert "__getattr__" in vars(package)


def test_every_public_name_is_its_submodules_object(package):
    modules = submodules(package)
    for name in package.__all__:
        value = getattr(package, name)
        assert any(
            vars(module).get(name) is value or module is value
            for module in modules
        ), f"{package.__name__}.{name} is not defined by any submodule"
        assert vars(package)[name] is value  # resolved once, then cached


def test_dir_lists_every_public_name(package):
    assert set(package.__all__) <= set(dir(package))


def test_star_import(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)


def test_unknown_attribute_raises(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
