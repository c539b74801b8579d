"""Benchmark launcher for openviewer.

    python3 perfbench/run.py --workload train_canonical --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. With `--trace 0` the last
line of standard output is a JSON object holding the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced run. The exit
code is 0 only if every output check passed.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: the training
# matrices (about 100 x 24) are too small to gain from a second thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated at least SETUP_MIN_REPEATS times, and cheap set-ups
# until SETUP_BUDGET_S has passed, so that the reported median is steady.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 200
SETUP_BUDGET_S = 1.0


def _import_package():
    """Import openviewer from this checkout's src/ or exit non-zero."""
    src = ROOT / "src"
    if not (src / "openviewer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'openviewer'}; "
                 "run from the root of an openviewer checkout")
    sys.path.insert(0, str(src))
    import openviewer

    if Path(openviewer.__file__).resolve().parent != (src / "openviewer").resolve():
        sys.exit(f"perfbench: imported openviewer from {openviewer.__file__}, not {src}")


def _blas_runtime_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Measurement:
    """Untraced and traced operations of one run, with their checks."""

    def __init__(self, workload):
        self.workload = workload
        self.wall = []
        self.traced_wall = []
        self.traces = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def operation(self, traced: bool):
        tracer = tracing.Tracer()
        start_nodes = tracing.node_counter()
        try:
            if traced:
                with tracer.installed():
                    start = time.perf_counter()
                    outcome = self.workload.run()
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                outcome = self.workload.run()
                elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - one failed operation must not end the run
            self.attempted += self.workload.attempts()
            self.failed += self.workload.attempts()
            self.problems.append(f"operation raised {type(exc).__name__}: {exc}")
            return
        nodes = tracing.node_counter() - start_nodes
        self.attempted += self.workload.attempts()
        try:
            failed, problems = self.workload.check(outcome)
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a failure
            failed, problems = self.workload.attempts(), [f"check raised {type(exc).__name__}: {exc}"]
        self.failed += failed
        self.problems += problems
        if traced:
            snap = tracer.snapshot()
            snap["counts"][tracing.NODES] = nodes
            self.traces.append(snap)
            self.traced_wall.append(elapsed)
        else:
            self.wall.append(elapsed)

    def loop(self, seconds: float, trace: bool):
        """Operations until `seconds` have passed; traced runs alternate."""
        deadline = time.perf_counter() + seconds
        k = 0
        while k < (2 if trace else 1) or time.perf_counter() < deadline:
            self.operation(traced=trace and k % 2 == 1)
            k += 1


def setup_times(workload, seed: int, workdir: Path) -> list[float]:
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return times


def per_layer_metrics(m: Measurement) -> tuple[dict, list[str]]:
    problems = []
    n = len(m.traces)
    first = m.traces[0]
    for snap in m.traces[1:]:
        if snap["counts"] != first["counts"] or snap["calls"] != first["calls"]:
            problems.append("per-operation counts differ between traced operations")
            break
    values = {}
    covered = 0.0
    for layer in tracing.LAYERS:
        self_s = sum(s["self_s"][layer.name] for s in m.traces) / n
        covered += self_s
        calls = first["calls"][layer.name]
        values[f"{layer.name}.{layer.time_key}"] = self_s
        values[f"{layer.name}.calls"] = calls
        if m.workload.name in layer.workloads and calls == 0:
            problems.append(f"wrapper {layer.name} recorded no calls on {m.workload.name}")
    for name in tracing.COUNTERS:
        values[name] = first["counts"][name]
    traced = statistics.mean(m.traced_wall)
    values["other.s"] = traced - covered
    values["traced.wall_s"] = traced
    values["trace.overhead_s"] = traced - statistics.mean(m.wall)
    units = dict(tracing.metric_names())
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    env = environment(args.workload, args.seed, int(args.seconds), args.trace)
    print("env " + json.dumps(env), flush=True)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = setup_times(workload, args.seed, workdir)
        m = Measurement(workload)
        m.loop(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    for name, value, unit in workload.figures:
        print(f"{name} = {value!r} {unit}")
    fail_rate = m.failed / max(m.attempted, 1)
    print(f"fail_rate = {fail_rate!r} ratio ({m.failed} of {m.attempted} operations)")
    print(f"setup_s: median of {len(setups)} set-ups, min {min(setups):.4f}, max {max(setups):.4f}")
    metrics = {}
    if m.wall and (m.traces or not args.trace):
        print(f"wall_s: median of {len(m.wall)} untraced operations, "
              f"min {min(m.wall):.4f}, max {max(m.wall):.4f}")
        if args.trace:
            metrics, problems = per_layer_metrics(m)
            m.problems += problems
        else:
            metrics = {
                "wall_s": {"value": statistics.median(m.wall), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    else:
        m.problems.append("no operation completed")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for problem in m.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not m.problems and m.failed == 0
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
