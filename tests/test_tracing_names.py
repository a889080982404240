"""The benchmark tracer wraps cartaneq functions by owner and name.

``bench/tracing.py`` looks each one up when a traced run starts, so a
renamed or deleted function would fail only there; this checks the names
on every test run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _resolves(owner, attr):
    # the tracer reads class attributes from the class's own namespace
    if isinstance(owner, type):
        return attr in owner.__dict__
    return hasattr(owner, attr)


def test_every_traced_name_resolves():
    layers = _layers()
    assert layers
    missing = [
        (layer, getattr(owner, "__name__", owner), attr)
        for layer, sites in layers.items()
        for owner, attr in sites
        if not _resolves(owner, attr)
    ]
    assert missing == []
