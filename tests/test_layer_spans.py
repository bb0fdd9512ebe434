"""Every span name that a per-layer metric of ``perfbench/layers.py`` sums,
and every private target of ``perfbench/tracing.py``, names a function or
method of ``grouplab`` that the tracer wraps.  A refactor that renames or
removes one fails here instead of leaving its metric silently at zero."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import grouplab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers, tracing = _load("layers"), _load("tracing")


def _span_names():
    names = set()
    for unit, _better, source, _moves in layers.PER_LAYER.values():
        if unit == "s":
            names.update(s for s in source if not s.endswith("."))
    for layer, attrs in tracing.PRIVATE_TARGETS.items():
        names.update(f"{layer}.{attr}" for attr in attrs)
    return sorted(names)


def test_span_names_are_listed():
    names = _span_names()
    assert "structure._maximal_data" in names
    assert "groups.Group.table" in names


@pytest.mark.parametrize("name", _span_names())
def test_span_name_resolves_to_a_wrapped_function(name):
    layer, *path = name.split(".")
    assert layer in tracing.LAYERS, name
    module = getattr(grouplab, layer)
    if len(path) == 1:
        fn = vars(module).get(path[0])
        assert inspect.isfunction(fn), f"{name} is not a function of {layer}"
        assert fn.__module__ == module.__name__, f"{name} is imported, not defined"
        assert not path[0].startswith("_") or path[0] in tracing.PRIVATE_TARGETS.get(
            layer, ()
        ), f"{name} is private and no private target"
    else:
        cls_name, attr = path
        cls = vars(module).get(cls_name)
        assert inspect.isclass(cls) and cls.__module__ == module.__name__, name
        assert inspect.isfunction(vars(cls).get(attr)), f"{name} is not a method"
        assert not attr.startswith("_"), f"{name} is private"
