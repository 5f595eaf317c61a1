"""The ``repro.telemetry`` package: eager core, lazily loaded toolbox."""

import importlib
import pkgutil

import pytest

import repro.telemetry


def test_every_public_name_is_its_submodules_object():
    submodules = [importlib.import_module(f"repro.telemetry.{info.name}")
                  for info in pkgutil.iter_modules(repro.telemetry.__path__)
                  if info.name != "__main__"]
    for name in repro.telemetry.__all__:
        value = getattr(repro.telemetry, name)
        owners = [module for module in submodules if name in vars(module)]
        assert owners, name
        for module in owners:
            assert vars(module)[name] is value, (name, module.__name__)


def test_an_unknown_name_raises_attribute_error():
    name = "no_such_name"
    with pytest.raises(AttributeError, match=name):
        getattr(repro.telemetry, name)
