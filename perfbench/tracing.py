"""Outside-in tracing: wrap package functions from the benchmark's files.

Each function is wrapped at the name its caller looks up. `trainer` imports
`forward`, `generate_pseudo`, `total_loss`, ... by name, so the wrapper for
the forward pass used in training replaces `openviewer.trainer.forward`,
not `openviewer.unfold_net.forward`; calls that go through a module
attribute (`tc.backward`, `unfold_net.rf_forward` inside `forward`) are
wrapped on the defining module.

Every wrapped call is a span. Spans nest through a stack; a layer's self
time is its span's duration minus the durations of the spans it directly
encloses. Counters are taken from a call's arguments and result at the
same boundary.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _pseudo_rows(args, kwargs, out) -> int:
    return out.size - args[0].size


def _len(args, kwargs, out) -> int:
    return len(out)


def _thresholds(args, kwargs, out) -> int:
    return len(out.points)


def _iterations(args, kwargs, out) -> int:
    return len(out.objective_trace) - 1


def _text_bytes(args, kwargs, out) -> int:
    return len(args[1].encode())


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    `name` is `<defining module>.<function>`; `sites` are the
    (module, attribute) pairs its callers look up; `workloads` are the
    workloads that must call it; `time_key` names its self-time metric;
    `counter` (metric name, function) adds a count taken at the boundary.
    """

    name: str
    sites: tuple[tuple[str, str], ...]
    workloads: frozenset[str]
    time_key: str = "s"
    counter: tuple[str, object] | None = None


TRAIN, EVAL, ORACLE = "train_canonical", "eval_openset", "oracle_planted"
_T = frozenset({TRAIN})
_E = frozenset({EVAL})
_O = frozenset({ORACLE})

LAYERS = (
    # training
    Layer("trainer.train", (("trainer", "train"),), _T, "self_s"),
    Layer("dataset.make_batches", (("trainer", "make_batches"),), _T,
          counter=("trainer.batches", _len)),
    Layer("pseudo_gen.generate_pseudo", (("trainer", "generate_pseudo"),), _T,
          counter=("pseudo_gen.rows", _pseudo_rows)),
    Layer("losses.total_loss", (("trainer", "total_loss"),), _T),
    Layer("tensor_core.backward", (("tensor_core", "backward"),), _T),
    Layer("losses.batch_stats", (("trainer", "batch_stats"),), _T),
    Layer("losses.gradient_bound", (("trainer", "gradient_bound"),), _T),
    Layer("losses.update_centers", (("trainer", "update_centers"),), _T),
    Layer("trainer.sgd_step", (("trainer", "sgd_step"),), _T),
    Layer("unfold_net.fusion_weights", (("unfold_net", "fusion_weights"),), _T),
    # the network, in training and in inference
    Layer("unfold_net.forward", (("trainer", "forward"), ("evaluation", "forward")), _T | _E),
    Layer("unfold_net.rf_forward", (("unfold_net", "rf_forward"),), _T | _E),
    Layer("unfold_net.cd_forward", (("unfold_net", "cd_forward"),), _T | _E),
    Layer("unfold_net.dn_forward", (("unfold_net", "dn_forward"),), _T | _E),
    # evaluation
    Layer("evaluation.score_test_set", (("evaluation", "score_test_set"),), _E, "self_s"),
    Layer("unfold_net.predict", (("evaluation", "predict"),), _E),
    Layer("evaluation.oscr_curve", (("evaluation", "oscr_curve"),), _E,
          counter=("evaluation.oscr_curve.thresholds", _thresholds)),
    Layer("evaluation.summary", (("evaluation", "summary"),), _E),
    # reference solver through the CLI
    Layer("cli.main", (("cli", "main"),), _O, "self_s"),
    Layer("dataset.load", (("dataset", "load"),), _O),
    Layer("admm_oracle.solve", (("admm_oracle", "solve"),), _O, "self_s",
          counter=("admm_oracle.iterations", _iterations)),
    Layer("admm_oracle.init_state", (("admm_oracle", "init_state"),), _O),
    Layer("admm_oracle.z_step", (("admm_oracle", "z_step"),), _O),
    Layer("admm_oracle.d_step", (("admm_oracle", "d_step"),), _O),
    Layer("admm_oracle.e_step", (("admm_oracle", "e_step"),), _O),
    Layer("admm_oracle.objective", (("admm_oracle", "objective"),), _O),
    Layer("admm_oracle.power_iteration_norm", (("admm_oracle", "power_iteration_norm"),), _O),
    Layer("cli.write_matrix_csv", (("cli", "_write_matrix_csv"),), _O),
    # `_io` is named `io` here: metric names start with a letter
    Layer("io.atomic_write_text", (("cli", "atomic_write_text"),), _O,
          counter=("io.atomic_write_text.bytes", _text_bytes)),
)

NODES = "tensor_core.nodes"
COUNTERS = tuple(layer.counter[0] for layer in LAYERS if layer.counter) + (NODES,)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer.name}.{layer.time_key}", "s"))
        names.append((f"{layer.name}.calls", "count"))
    names += [(c, "bytes" if c.endswith(".bytes") else "count") for c in COUNTERS]
    names += [("other.s", "s"), ("traced.wall_s", "s"), ("trace.overhead_s", "s")]
    return names


def node_counter() -> int:
    """Next DiffNode creation number, read without consuming it."""
    from openviewer import tensor_core

    text = repr(tensor_core._NODE_COUNTER)  # "count(N)"
    return int(text[text.index("(") + 1 : -1])


class Tracer:
    """Aggregates spans and counters while its wrappers are installed."""

    def __init__(self):
        self.self_s = {layer.name: 0.0 for layer in LAYERS}
        self.calls = {layer.name: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTERS}
        self._open: list[float] = []  # time covered by children of each open span

    def _wrap(self, layer: Layer, fn):
        counter = layer.counter

        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.self_s[layer.name] += elapsed - children
                self.calls[layer.name] += 1
                if self._open:
                    self._open[-1] += elapsed
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original functions on exit."""
        saved = []
        try:
            for layer in LAYERS:
                for module_name, attr in layer.sites:
                    module = importlib.import_module(f"openviewer.{module_name}")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
