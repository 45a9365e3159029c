"""The package namespace: each module's __all__ is the one list of what
`neqbath` exports, re-exported as the same objects."""

import inspect

import pytest

import neqbath
from neqbath import bath, dephasing, geomphase, montecarlo, numerics

MODULES = (bath, dephasing, geomphase, montecarlo, numerics)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_declared_name_is_the_module_object(module):
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(neqbath, name) is obj, name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name


def test_package_exports_only_declared_names():
    public = {name for name, obj in vars(neqbath).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == {name for module in MODULES for name in module.__all__}
