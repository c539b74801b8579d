"""Golden output of a short canonical run through the CLI.

The canonical benchmark instance (fixtures/benchmark.json, seed 1) is
written to CSV, trained for a few epochs with `openviewer train` and scored
with `openviewer eval`. The fused test-split codes and the eval summary
must match the values stored in fixtures/golden_short_run.json. The
comparison uses a tolerance rather than a byte hash because BLAS results
differ in the last bits between machines.

Regenerate the fixture (only when a behaviour change is intended) with

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np

from openviewer.cli import _write_matrix_csv, main

from helpers import FIXTURES, load_benchmark_fixture, make_openset_benchmark

GOLDEN = FIXTURES / "golden_short_run.json"
EPOCHS = 20
SEED = 1
TOLERANCE = 1e-12


def short_run(workdir: Path) -> dict:
    """Train and evaluate the canonical instance; return what eval wrote."""
    dataset, split = make_openset_benchmark(SEED)
    data = workdir / "data"
    views = []
    for v, mat in enumerate(dataset.views):
        _write_matrix_csv(data / f"view_{v}.csv", mat)
        views.append(f"view_{v}.csv")
    (data / "labels.csv").write_text("\n".join(str(c) for c in dataset.labels) + "\n")
    (data / "manifest.json").write_text(json.dumps({"views": views, "labels": "labels.csv"}))
    (workdir / "split.json").write_text(split.to_json())
    train = dict(load_benchmark_fixture()["train"], epochs=EPOCHS, seed=SEED)
    (workdir / "config.json").write_text(json.dumps({"train": train}))

    common = ["--manifest", str(data / "manifest.json"), "--split", str(workdir / "split.json"),
              "--config", str(workdir / "config.json"), "--quiet"]
    assert main(["train", *common, "--out", str(workdir / "train")]) == 0
    assert main(["eval", *common, "--checkpoint", str(workdir / "train" / "checkpoint.json"),
                 "--out", str(workdir / "eval")]) == 0
    return {
        "summary": json.loads((workdir / "eval" / "summary.json").read_text()),
        "fused": np.loadtxt(workdir / "eval" / "fused.csv", delimiter=",", ndmin=2).tolist(),
    }


def test_short_canonical_run_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = short_run(tmp_path)
    assert sorted(got["summary"]) == sorted(golden["summary"])
    for key, want in golden["summary"].items():
        assert abs(got["summary"][key] - want) <= TOLERANCE, key
    fused, want = np.array(got["fused"]), np.array(golden["fused"])
    assert fused.shape == want.shape
    assert np.max(np.abs(fused - want)) <= TOLERANCE


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = short_run(Path(tmp))
    record = {
        "comment": f"Short canonical run: benchmark.json instance and train section, "
                   f"seed {SEED}, {EPOCHS} epochs; written by tests/test_golden.py.",
        **record,
    }
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
