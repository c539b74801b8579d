"""Golden output of one reference solve through the CLI.

The planted instance of fixtures/admm_defaults.json is written to CSV with
`openviewer synth` and solved with `openviewer oracle` under the same
file's solver config. The full objective trace and, per view, the
Frobenius norms of Z, D and E and the nonzero columns of E must match
fixtures/golden_oracle.json. Every Z and E step uses the step size 1/L,
so any change to L = lambda_max(D D^T) moves the trace. The comparison
uses a relative tolerance rather than a byte hash because BLAS results
differ in the last bits between machines.

Regenerate the fixture (only when a behaviour change is intended) with

    PYTHONPATH=src:tests python tests/test_golden_oracle.py
"""

import json
from pathlib import Path

import numpy as np

from openviewer.cli import main

from helpers import FIXTURES

GOLDEN = FIXTURES / "golden_oracle.json"
DEFAULTS = FIXTURES / "admm_defaults.json"
TOLERANCE = 1e-12


def oracle_run(workdir: Path) -> dict:
    """Write the planted instance, solve it; return what the golden pins."""
    defaults = json.loads(DEFAULTS.read_text())
    config = workdir / "config.json"
    config.write_text(json.dumps({"synth": defaults["data"], "oracle": defaults["config"]}))
    data, out = workdir / "data", workdir / "oracle"
    assert main(["synth", "--config", str(config), "--out", str(data), "--quiet"]) == 0
    assert main(["oracle", "--manifest", str(data / "manifest.json"), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0

    def load(name):
        return np.loadtxt(out / name, delimiter=",", ndmin=2)

    trace = np.loadtxt(out / "objective_trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    views = []
    for v in range(len(defaults["data"]["dims"])):
        z, d, e = load(f"z_{v}.csv"), load(f"d_{v}.csv"), load(f"e_{v}.csv")
        views.append({
            "z_fro": float(np.linalg.norm(z)),
            "d_fro": float(np.linalg.norm(d)),
            "e_fro": float(np.linalg.norm(e)),
            "e_columns": np.flatnonzero(np.any(e != 0.0, axis=0)).tolist(),
        })
    return {"objective_trace": trace.tolist(), "views": views}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOLERANCE * max(abs(want), 1.0)


def test_oracle_run_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = oracle_run(tmp_path)
    assert len(got["objective_trace"]) == len(golden["objective_trace"])
    for i, (g, w) in enumerate(zip(got["objective_trace"], golden["objective_trace"])):
        assert _close(g, w), f"objective at iteration {i}: {g!r} != {w!r}"
    assert len(got["views"]) == len(golden["views"])
    for v, (g, w) in enumerate(zip(got["views"], golden["views"])):
        assert g["e_columns"] == w["e_columns"], f"view {v}"
        for key in ("z_fro", "d_fro", "e_fro"):
            assert _close(g[key], w[key]), f"view {v} {key}: {g[key]!r} != {w[key]!r}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = oracle_run(Path(tmp))
    record = {
        "comment": "Reference solve of the admm_defaults.json planted instance under its "
                   "solver config; written by tests/test_golden_oracle.py.",
        **record,
    }
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
