"""Per-layer timing from outside the program.

Each public entry point of a layer is wrapped at the name its caller looks
it up by (a module attribute or a class attribute), and every wrapped call
opens a span on the ambient ``repro.obs`` tracer.  With the program's own
obs spans turned on through the public API, both kinds nest in one tree,
from which :func:`layer_table` derives each layer's self time: a span's
duration minus the part its child spans cover.

Nothing here is imported by the program; the wrappers are installed only
for the traced phase of a run (and, for the routing counter, around set-up)
and removed afterwards, so untraced timings run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import inspect

import numpy as np

# (owner, attribute, layer).  ``owner`` is a module, or ``module:Class`` for a
# method; generator functions are timed per ``next()``.
ENTRY_POINTS = [
    ("repro.scenarios.runner:ScenarioRunner", "run", "scenarios"),
    ("repro.scenarios.runner:ScenarioRunner", "run_cells", "scenarios"),
    ("repro.scenarios.runner", "load_dataset", "synthesis"),
    ("repro.scenarios.runner", "open_dataset_stream", "synthesis"),
    ("repro.synthesis.generator:ICTMGenerator", "iter_chunks", "synthesis"),
    ("repro.scenarios.runner", "simulate_link_loads", "linear_system"),
    ("repro.scenarios.runner", "simulate_link_loads_streaming", "linear_system"),
    ("repro.core.fitting", "fit_stable_fp", "fit"),
    ("repro.core.streaming", "fit_stable_fp_streaming", "fit"),
    ("repro.estimation.pipeline", "tomogravity_estimate", "tomogravity"),
    ("repro.estimation.fastpath", "_refine_chunk", "tomogravity"),
    ("repro.estimation.pipeline", "iterative_proportional_fitting_series", "ipf"),
    ("repro.estimation.fastpath", "iterative_proportional_fitting_series", "ipf"),
    ("repro.estimation.fastpath:FactorizationCache", "refine", "fastpath"),
    ("repro.estimation.fastpath:IPFSolveCache", "fit", "fastpath"),
    ("repro.estimation.pipeline", "rel_l2_temporal_error", "metrics"),
    ("repro.ingest.sources", "read_flow_file", "parse"),
    ("repro.ingest.binner:FlowBinner", "push", "binner"),
    ("repro.ingest.binner:FlowBinner", "flush", "binner"),
    ("repro.ingest.service:IngestService", "run", "service"),
    ("repro.topology.routing", "_build_routing_matrix", "routing"),
]

# The program's own obs spans, by the layer whose work they enclose.
OBS_SPAN_LAYERS = {
    "synthesize": "synthesis",
    "build_prior": "prior",
    "estimate": "pipeline",
    "estimate_chunk": "pipeline",
    "fit_als_pass": "fit",
    "sweep_cell": "scenarios",
    "emit": "scenarios",
    "serve": "service",
    "measure": "service",
    "prior": "rolling",
    "fit_observe": "rolling",
    "bin_publish": "publish",
}

LAYERS = (
    "synthesis", "routing", "linear_system", "prior", "fit", "tomogravity", "ipf",
    "fastpath", "pipeline", "metrics", "parse", "binner", "rolling", "publish",
    "service", "scenarios",
)

SPAN_PREFIX = "bench."


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _attrs(layer: str, args, result) -> dict:
    """Work counts a layer reports on its span (bins, iterations, records)."""
    if layer == "tomogravity" and args:
        return {"bins": int(np.atleast_2d(args[0]).shape[0])}
    if layer == "fit":
        history = getattr(result, "objective_history", None)
        return {"iterations": len(history) if history is not None else 0}
    return {}


def _wrap_call(function, layer: str, tracer_getter):
    name = f"{SPAN_PREFIX}{layer}.{function.__name__}"

    if layer == "ipf":
        @functools.wraps(function)
        def ipf_wrapper(matrices, *args, **kwargs):
            counts = kwargs.get("iteration_counts")
            if counts is None and kwargs.get("backend") is None:
                counts = kwargs["iteration_counts"] = np.zeros(np.shape(matrices)[0], dtype=np.intp)
            with tracer_getter().span(name) as span:
                result = function(matrices, *args, **kwargs)
                span.set(bins=int(np.shape(matrices)[0]),
                         iterations=int(np.sum(counts)) if counts is not None else 0)
            return result
        return ipf_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer_getter().span(name) as span:
            result = function(*args, **kwargs)
            extra = _attrs(layer, args, result)
            if extra:
                span.set(**extra)
        return result
    return wrapper


def _wrap_generator(function, layer: str, tracer_getter):
    name = f"{SPAN_PREFIX}{layer}.{function.__name__}"

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        iterator = function(*args, **kwargs)
        try:
            while True:
                with tracer_getter().span(name) as span:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    span.set(**_item_attrs(layer, item))
                yield item
        finally:
            iterator.close()
    return wrapper


def _item_attrs(layer: str, item) -> dict:
    if layer == "parse":
        return {"records": len(item)}
    if layer == "synthesis":
        return {"bins": int(item[1].shape[0])}
    return {}


class LayerWrappers:
    """Install/remove the entry-point wrappers (a context manager)."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self._entry_points = entry_points
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        from repro.obs import get_tracer

        for owner, attribute, layer in self._entry_points:
            target = _resolve(owner)
            original = target.__dict__[attribute] if isinstance(target, type) else getattr(target, attribute)
            wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_call
            wrapped = wrap(original, layer, get_tracer)
            if hasattr(original, "cache_clear"):  # keep lru_cache helpers reachable
                wrapped.cache_clear = original.cache_clear
                wrapped.cache_info = original.cache_info
            self._saved.append((target, attribute, original))
            setattr(target, attribute, wrapped)
        return self

    def __exit__(self, *exc):
        for target, attribute, original in reversed(self._saved):
            setattr(target, attribute, original)
        self._saved.clear()
        return False


def layer_table(events: list[dict], root_names: set[str]) -> dict:
    """Self time, span count and work counters per layer from one trace.

    ``root_names`` are the span names of the workload's operations (the
    benchmark's timed calls); only spans inside one count, so work the
    benchmark itself does between operations (its output checks) is left
    out.  The roots' summed duration is the wall time the shares refer to.
    ``coverage`` is the share of that wall time attributed to a layer below
    the operation's own entry point.
    """
    spans = {event["span"]: event for event in events if event.get("kind") == "span"}
    inside: dict[str, bool] = {}

    def under_root(span_id) -> bool:
        chain = []
        while span_id is not None and span_id not in inside:
            span = spans.get(span_id)
            if span is None:
                break
            if span["name"] in root_names:
                inside[span_id] = True
                break
            chain.append(span_id)
            span_id = span.get("parent")
        verdict = inside.get(span_id, False)
        inside.update(dict.fromkeys(chain, verdict))
        return verdict

    child_time: dict[str, float] = {}
    for span in spans.values():
        if span.get("parent") is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + float(span["duration_s"])
    table = {layer: {"self_s": 0.0, "count": 0} for layer in LAYERS}
    counters = {"tomogravity.bins": 0, "ipf.bins": 0, "ipf.iterations": 0, "fit.calls": 0,
                "fit.iterations": 0, "synthesis.bins": 0, "parse.records": 0}
    wall = root_self = attributed = 0.0
    roots = 0
    for span_id, span in spans.items():
        name = span["name"]
        if name.startswith(SPAN_PREFIX):
            layer = name[len(SPAN_PREFIX):].split(".", 1)[0]
        else:
            layer = OBS_SPAN_LAYERS.get(name)
        if layer is None or not under_root(span_id):
            continue
        self_s = float(span["duration_s"]) - child_time.get(span_id, 0.0)
        row = table[layer]
        row["self_s"] += self_s
        row["count"] += 1
        attributed += self_s
        attrs = span.get("attrs") or {}
        if name in root_names:
            wall += float(span["duration_s"])
            root_self += self_s
            roots += 1
        if layer == "tomogravity":
            counters["tomogravity.bins"] += int(attrs.get("bins", 0))
        elif layer == "ipf" and name.startswith(SPAN_PREFIX):
            counters["ipf.bins"] += int(attrs.get("bins", 0))
            counters["ipf.iterations"] += int(attrs.get("iterations", 0))
        elif layer == "fit" and name.startswith(SPAN_PREFIX):
            counters["fit.calls"] += 1
            counters["fit.iterations"] += int(attrs.get("iterations", 0))
        elif layer == "synthesis":
            counters["synthesis.bins"] += int(attrs.get("bins", 0))
        elif layer == "parse":
            counters["parse.records"] += int(attrs.get("records", 0))
    for row in table.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    return {
        "layers": table,
        "counters": counters,
        "wall_s": wall,
        "ops": roots,
        "coverage": (attributed - root_self) / wall if wall > 0 else 0.0,
    }


def format_table(table: dict) -> str:
    """The per-layer table as aligned text (self time, count, share of wall)."""
    lines = [f"{'layer':<14}{'self s':>10}{'count':>9}{'share':>8}"]
    rows = sorted(table["layers"].items(), key=lambda item: -item[1]["self_s"])
    for layer, row in rows:
        if row["count"]:
            lines.append(f"{layer:<14}{row['self_s']:>10.3f}{row['count']:>9d}{row['share']:>8.1%}")
    lines.append(f"wall {table['wall_s']:.3f} s over {table['ops']} operations; "
                 f"coverage below the operation entry point {table['coverage']:.1%}")
    return "\n".join(lines)
