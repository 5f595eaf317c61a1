"""Map host-profiler components to the ``repro`` package defining them.

:class:`~repro.telemetry.HostProfiler` names a component after the
class (or function) that owns the resumed generator, such as
``ChannelController`` or ``subsystem_run``.  The layer of a component
is the ``repro.<package>`` whose modules define that name, found by
importing every module, so a class added later lands in its layer
without anyone editing a table.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import repro
from repro.sim import Simulator
from repro.telemetry.hostprof import KERNEL_BUCKET


def layer_map() -> typing.Dict[str, str]:
    """Top-level class or function name -> package, over all of ``repro``.

    A name defined in two packages is ambiguous and left out, so it
    shows up as unmapped instead of being charged to a guess.
    """
    packages: typing.Dict[str, typing.Set[str]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # importing a __main__ module would run its CLI
        module = importlib.import_module(info.name)
        package = info.name.split(".")[1]
        for name, value in vars(module).items():
            if ((inspect.isclass(value) or inspect.isfunction(value))
                    and value.__module__ == info.name):
                packages.setdefault(name, set()).add(package)
    layers = {name: found.pop() for name, found in packages.items()
              if len(found) == 1}
    # The kernel bucket is the Simulator's own drain work.
    layers[KERNEL_BUCKET[0]] = layers[Simulator.__name__]
    return layers


def layer_totals(component_ns: typing.Mapping[str, int],
                 layers: typing.Mapping[str, str]
                 ) -> typing.Tuple[typing.Dict[str, int], typing.List[str]]:
    """Host ns per layer, plus the components no layer claims."""
    totals: typing.Dict[str, int] = {}
    unmapped = []
    for component, ns in component_ns.items():
        layer = layers.get(component)
        if layer is None:
            unmapped.append(component)
        else:
            totals[layer] = totals.get(layer, 0) + ns
    return totals, sorted(unmapped)
