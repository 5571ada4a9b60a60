"""Spans around calls into the thermoseg layers, and the per-layer metrics.

A traced run wraps every public function of the layer modules at run time
(nothing under src/ changes). A call opens a span unless it comes from
inside the same layer, so a span marks a crossing into a layer. Spans stay
in memory and are written out when the run ends.

A few spans also carry counts (values rendered or fitted, pixels fitted,
bytes read, training steps) and, for the calls that hold large arrays, the
peak of new memory allocated during the call, as tracemalloc sees it.
"""

import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

LAYERS = ("synthgen", "ingest", "tsr", "features", "nn", "evaluate")

# calls whose memory high-water mark is recorded
MEMORY_SPANS = {"synthgen.render_video", "tsr.fit_sequence"}
MEMORY_LAYERS = {"features"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def current_layer(self):
        return self._stack[-1]["name"].split(".")[0] if self._stack else None

    @contextmanager
    def span(self, name, memory=False):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.monotonic(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        own_tracing = memory and not tracemalloc.is_tracing()
        if own_tracing:
            tracemalloc.start()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            if own_tracing:
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def wrap(self, name, func, counter=None):
        layer = name.split(".")[0]
        memory = name in MEMORY_SPANS or layer in MEMORY_LAYERS
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current_layer() == layer:
                return func(*args, **kwargs)
            with tracer.span(name, memory) as record:
                result = func(*args, **kwargs)
            if counter is not None:
                record.update(counter(args, kwargs, result))
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _frame_bytes(args, kwargs, result):
    """Size of the frame CSVs a manifest lists (read after the span ends)."""
    manifest = args[0] if args else kwargs["manifest_path"]
    base = os.path.dirname(os.path.abspath(manifest))
    total = 0
    with open(manifest, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            if key.strip() == "frame":
                total += os.path.getsize(os.path.join(base, value.strip()))
    return {"bytes": total}


COUNTERS = {
    "synthgen.render_video": lambda a, k, r: {"values": int(r.data.size)},
    "tsr.fit_sequence": lambda a, k, r: {"values": int(a[0].data.size),
                                         "valid_pixels": int(r.valid.sum())},
    "ingest.load_sequence": _frame_bytes,
    "nn.train": lambda a, k, r: {"steps": int(r[1].steps[-1])},
}


def instrument(tracer, package):
    """Wrap the public functions of each layer module of `package`.

    Every reference to a wrapped function in any loaded module of the
    package is replaced, so names imported with `from .x import f` (as the
    CLI does) are traced too. Returns a function that undoes the wrapping.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for attr, func in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(func)
                    or func.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            originals[id(func)] = (func, tracer.wrap(name, func,
                                                     COUNTERS.get(name)))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                setattr(module, attr, originals[id(value)][1])
                patched.append((module, attr, value))

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("synthgen.render_s", "s", "lower"),
    ("synthgen.render_mvals_per_s", "Mvalues/s", "higher"),
    ("synthgen.render_peak_mb", "MB", "lower"),
    ("ingest.write_s", "s", "lower"),
    ("ingest.load_s", "s", "lower"),
    ("ingest.load_mb_per_s", "MB/s", "higher"),
    ("tsr.fit_s", "s", "lower"),
    ("tsr.fit_mvals_per_s", "Mvalues/s", "higher"),
    ("tsr.fit_peak_mb", "MB", "lower"),
    ("tsr.valid_pixels", "count", "higher"),
    ("tsr.feature_io_s", "s", "lower"),
    ("features.prep_s", "s", "lower"),
    ("features.prep_peak_mb", "MB", "lower"),
    ("nn.train_s", "s", "lower"),
    ("nn.step_ms", "ms", "lower"),
    ("nn.predict_s", "s", "lower"),
    ("nn.model_io_s", "s", "lower"),
    ("evaluate.report_s", "s", "lower"),
    ("cli.synth_s", "s", "lower"),
    ("cli.fit_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.segment_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer metrics from the spans of one traced run.

    A layer that never runs in the workload reads 0 for its times, counts
    and rates.
    """
    def select(*names):
        return [s for s in spans if s["name"] in names]

    def total(chosen):
        return sum(s["end"] - s["start"] for s in chosen)

    def count(chosen, key):
        return sum(s.get(key, 0) for s in chosen)

    def peak_mb(chosen):
        return max((s.get("peak_bytes", 0) for s in chosen), default=0) / 1e6

    render = select("synthgen.render_video")
    load = select("ingest.load_sequence")
    fit = select("tsr.fit_sequence")
    prep = [s for s in spans if s["name"].startswith("features.")]
    train = select("nn.train")
    train_s = total(train)
    out = {
        "synthgen.render_s": total(render),
        "synthgen.render_mvals_per_s":
            _ratio(count(render, "values") / 1e6, total(render)),
        "synthgen.render_peak_mb": peak_mb(render),
        "ingest.write_s": total(select("ingest.write_sequence",
                                       "ingest.save_mask")),
        "ingest.load_s": total(load),
        "ingest.load_mb_per_s": _ratio(count(load, "bytes") / 1e6,
                                       total(load)),
        "tsr.fit_s": total(fit),
        "tsr.fit_mvals_per_s": _ratio(count(fit, "values") / 1e6, total(fit)),
        "tsr.fit_peak_mb": peak_mb(fit),
        "tsr.valid_pixels": count(fit, "valid_pixels"),
        "tsr.feature_io_s": total(select("tsr.write_feature_image",
                                         "tsr.read_feature_image")),
        "features.prep_s": total(prep),
        "features.prep_peak_mb": peak_mb(prep),
        "nn.train_s": train_s,
        "nn.step_ms": _ratio(1000.0 * train_s, count(train, "steps")),
        "nn.predict_s": total(select("nn.predict_map", "nn.forward")),
        "nn.model_io_s": total(select("nn.save_model", "nn.load_model")),
        "evaluate.report_s": total([s for s in spans
                                    if s["name"].startswith("evaluate.")]),
        "trace.wall_s": wall_s,
    }
    for command in ("synth", "fit", "train", "eval", "segment"):
        out[f"cli.{command}_s"] = total(select(f"cli.{command}"))
    return out
