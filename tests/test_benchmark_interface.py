"""The package names the benchmark's tracer wraps.

`perfbench/tracing.py` wraps package functions at the (module, attribute)
sites listed in its `LAYERS` and reads `tensor_core._NODE_COUNTER`. A
refactor that renames or deletes one of them would fail only the traced
benchmark run; these tests load the tracer as it is and fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_site_resolves(tracing):
    sites = [(layer.name, site) for layer in tracing.LAYERS for site in layer.sites]
    assert sites
    missing = [
        (name, f"openviewer.{module}.{attr}")
        for name, (module, attr) in sites
        if not callable(getattr(importlib.import_module(f"openviewer.{module}"), attr, None))
    ]
    assert missing == []


def test_node_counter_reads_an_int(tracing):
    import openviewer.tensor_core as tc

    first = tracing.node_counter()
    assert isinstance(first, int)
    assert tracing.node_counter() == first  # reading does not consume a number
    tc.leaf([[1.0]])
    assert tracing.node_counter() == first + 1
