"""The package names the benchmark's tracer wraps.

`perfbench/tracing.py` wraps package functions at the (module, attribute)
sites listed in its `LAYERS` and reads `tensor_core._NODE_COUNTER`. A
refactor that renames or deletes one of them would fail only the traced
benchmark run; these tests load the tracer as it is and fail first. The
traced run also fails when a wrapped function records no calls, so one
small oracle solve runs under the tracer here too.
"""

import importlib
import importlib.util
import json
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


def test_oracle_run_calls_every_oracle_layer(tracing, tmp_path):
    from openviewer import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {"classes": 4, "samples_per_class": 10, "views": 2, "dims": [8, 6],
                  "sep_scale": 1.0, "noise_col_frac": 0.2, "noise_magnitude": 0.5,
                  "jitter": 0.08, "seed": 3},
        "oracle": {"max_iter": 3},
    }))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(config), "--out", str(data), "--quiet"]) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["oracle", "--config", str(config), "--manifest",
                         str(data / "manifest.json"), "--out", str(tmp_path / "oracle"),
                         "--quiet"]) == 0
    oracle_layers = [layer.name for layer in tracing.LAYERS if tracing.ORACLE in layer.workloads]
    assert "admm_oracle.power_iteration_norm" in oracle_layers
    assert [name for name in oracle_layers if tracer.calls[name] == 0] == []
