"""Per-layer spans and counters, installed by wrapping babelkit's functions.

Each span accumulates self time: the wrapped call's duration minus the
durations of the spans nested in it. A counter only counts calls, so the
time of a counted function stays in the self time of the span around it.
The wrappers replace module attributes, so they see every call made through
the module (``deteval.iou`` from ``match_detections``) and every call made
through a name bound at import (``lvsa.add``, ``gradlab.power_iteration_extremes``).

Run single-threaded (``BABELKIT_THREADS=1``): the span stack is per process.
"""

import importlib
import time

import numpy as np

TAPE_OPS = ("matmul", "add", "mul", "mean", "relu", "softmax", "log", "gather", "reshape")

# metric -> functions whose self time it sums, as (module, attribute) pairs;
# an attribute "Class.method" wraps the method on the class
SPANS = {
    "deteval_io.ingest_s": [("deteval_io", "load_ground_truth"), ("deteval_io", "load_detections")],
    "deteval.evaluate_s": [("deteval", "evaluate")],
    "deteval.sort_s": [("deteval", "sort_detections")],
    "deteval.match_s": [("deteval", "match_detections")],
    "deteval.envelope_s": [("deteval", "average_precision")],
    "tape.record_s": [("tape", op) for op in TAPE_OPS] + [("lvsa", "add"), ("lvsa", "mul")],
    "tape.backward_s": [("tape", "DiffTape.backward")],
    "precision.quantize_s": [("precision", "quantize_array")],
    "lvsa.fuse_s": [("lvsa", "fuse")],
    "pivot.build_world_s": [("pivot", "build_world")],
    "pivot.pretrain_s": [("pivot", "pretrain_align")],
    "pivot.consistency_s": [("pivot", "consistency_report")],
    "gradlab.stress_s": [("gradlab", "amp_stress")],
    "gradlab.sweep_s": [("gradlab", "conditioning_sweep")],
    "gradlab.prop3_s": [("gradlab", "proposition3_experiment")],
    "gradlab.grad_report_s": [("gradlab", "per_modality_gradients")],
    "checks.power_iter_s": [("checks", "power_iteration_extremes"),
                            ("gradlab", "power_iteration_extremes")],
    "sampler.draw_s": [("sampler", "draw_epoch")],
    "cli.write_s": [("cli", "_write_csv"), ("cli", "_write_json"),
                    ("cli", "RunManifest.write"), ("cli", "np.savez")],
}

# count metric -> the span metric whose calls it counts
SPAN_COUNTS = {
    "deteval.sort_calls": "deteval.sort_s",
    "deteval.match_calls": "deteval.match_s",
    "deteval.ap_calls": "deteval.envelope_s",
    "tape.ops": "tape.record_s",
    "precision.quantize_calls": "precision.quantize_s",
    "checks.power_iter_calls": "checks.power_iter_s",
}

# count metrics of functions that get no span of their own
COUNTERS = {"deteval.iou_calls": [("deteval", "iou")]}

METRICS = (
    [(name, "s") for name in SPANS]
    + [(name, "count") for name in (*SPAN_COUNTS, *COUNTERS, "precision.quantize_elems")]
)


def _resolve(module, attr):
    """(owner object, attribute name) for a dotted path under babelkit."""
    owner = importlib.import_module(f"babelkit.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.self_time = {name: 0.0 for name in SPANS}
        self.calls = {name: 0 for name in SPANS}
        self.counts = {name: 0 for name in COUNTERS}
        self.elems = 0
        self._stack = [0.0]  # per open span: time covered by its child spans

    def _span(self, metric, fn):
        stack, self_time, calls = self._stack, self.self_time, self.calls
        clock = time.perf_counter
        count_elems = metric == "precision.quantize_s"  # also counts array elements

        def wrapped(*args, **kwargs):
            if count_elems:
                self.elems += np.size(args[0])
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_time[metric] += dt - stack.pop()
                stack[-1] += dt
                calls[metric] += 1

        return wrapped

    def _counter(self, metric, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self):
        """Wrap every target once; a function reachable under several names
        (``tape.add`` and ``lvsa.add``) gets the same wrapper under each."""
        wrappers = {}
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for metric, targets in table.items():
                for module, attr in targets:
                    owner, name = _resolve(module, attr)
                    fn = getattr(owner, name)
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = (fn, make(metric, fn))
                    setattr(owner, name, wrappers[id(fn)][1])

    def report(self):
        out = dict(self.self_time)
        out.update({c: self.calls[s] for c, s in SPAN_COUNTS.items()})
        out.update(self.counts)
        out["precision.quantize_elems"] = self.elems
        return out
