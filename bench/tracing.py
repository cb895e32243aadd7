"""Per-layer tracing of rissim from outside the program.

A :class:`Tracer` replaces every public function of the rissim layer
modules, in every ``rissim.*`` namespace that binds it, with a wrapper
that records a span (name, start, end, parent span, op id) while an op is
running; ``ArrayGeometry.element_grid`` is wrapped as well. Spans stay in
memory, in typed columns of 28 bytes a span, until the run ends, and are
written as a compressed ``.npz`` of those columns. A function that a later
version of rissim no longer has is reported as absent, and its figures
read 0.

Run as a script, it is the traced child of the reproduce workload:
``python bench/tracing.py SPANS_FILE OP_ID -- <rissim cli args>`` runs
``rissim.cli.main`` under a tracer and writes the spans to SPANS_FILE.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
import types
from array import array

import numpy as np

LAYERS = ("geometry", "elements", "codebook", "channel", "beams", "patterns", "link",
          "scenario_io", "cli")

# Per-layer metrics, in the order BENCHMARK.json lists them. The first two
# parts of each name are the traced function.
PER_LAYER = (
    "geometry.element_grid.calls",
    "geometry.exact_distances.self_ms",
    "geometry.planar_distances.self_ms",
    "elements.state_coefficients.self_ms",
    "codebook.quantize_phases.calls",
    "channel.received_power.calls",
    "channel.received_power.self_ms",
    "channel.feed_illuminations.self_ms",
    "beams.synthesize_codebook.calls",
    "beams.synthesize_codebook.self_ms",
    "beams.sweep_phase_offset.calls",
    "beams.sweep_phase_offset.self_ms",
    "beams.sweep_phase_offset.codebooks_per_call",
    "beams.exhaustive_oracle.self_ms",
    "beams.quantization_loss.self_ms",
    "patterns.radiation_pattern.calls",
    "patterns.radiation_pattern.self_ms",
    "patterns.radiation_pattern.directions",
    "patterns.radiation_pattern.directions_per_ms",
    "patterns.radiation_pattern.peak_mb",
    "patterns.principal_cut.calls",
    "patterns.directivity_and_gain.self_ms",
    "patterns.pattern_metrics.self_ms",
    "patterns.pattern_to_csv.self_ms",
    "link.evaluate_scenario.calls",
    "link.evaluate_scenario.self_ms",
    "link.required_transmit_power.self_ms",
    "link.required_transmit_power.evals_per_call",
    "scenario_io.load_scenario_bundle.self_ms",
    "cli.import_ms",
    "cli.main.self_ms",
)

SETUP_OP = -1  # op id of spans recorded during set-up
WARMUP_OP = -2  # during the warm-up only the pattern engine's peak memory is measured
MB = float(1 << 20)
_PATTERN = "patterns.radiation_pattern"
_NESTED = {  # ratio metric -> (outer function, inner function counted below it)
    "codebooks_per_call": ("beams.sweep_phase_offset", "beams.synthesize_codebook"),
    "evals_per_call": ("link.required_transmit_power", "link.evaluate_scenario"),
}


class Tracer:
    """Records spans of rissim calls made while ``op`` is a set-up or op id.

    While ``op`` is :data:`WARMUP_OP` no spans are kept; the peak memory that
    ``radiation_pattern`` allocates is measured with tracemalloc instead,
    whose cost would otherwise land in the traced self times.
    """

    def __init__(self):
        self.names: dict[str, int] = {}
        self._name, self._parent, self._op = array("i"), array("i"), array("i")
        self._start, self._end = array("q"), array("q")  # perf_counter_ns
        self.directions = 0  # directions sampled by radiation_pattern in traced spans
        self.peak_bytes = 0  # largest allocation peak of one radiation_pattern call
        self.op: int | None = None
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = importlib.import_module("rissim")
        modules = {name: importlib.import_module(f"rissim.{name}") for name in LAYERS}
        wrappers = {}
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = value.__module__.removeprefix("rissim.")
                if layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patch(namespace, attr, wrappers[value])
        geometry_class = getattr(modules["geometry"], "ArrayGeometry", None)
        method = getattr(geometry_class, "element_grid", None)
        if isinstance(method, types.FunctionType):
            self._patch(geometry_class, "element_grid", self._wrap("geometry.element_grid", method))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)
        self.wrapped.add(wrapper.span_name)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if tracer.op == WARMUP_OP:
                if name == _PATTERN and not tracemalloc.is_tracing():
                    return tracer._measure_memory(fn, args, kwargs)
                return fn(*args, **kwargs)
            return tracer._record(name, fn, args, kwargs)

        wrapper.span_name = name
        return wrapper

    def _measure_memory(self, fn, args, kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            return fn(*args, **kwargs)
        finally:
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.stop()

    def _record(self, name: str, fn, args, kwargs):
        index = len(self._name)
        self._name.append(self.names.setdefault(name, len(self.names)))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op)
        self._stack.append(index)
        if name == _PATTERN and "theta" in kwargs and "phi" in kwargs:
            self.directions += len(kwargs["theta"]) * len(kwargs["phi"])
        self._end.append(0)
        self._start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[index] = time.perf_counter_ns()
            self._stack.pop()

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as arrays: name index, start and end in ns, parent index, op id."""
        return {
            "names": np.array(sorted(self.names, key=self.names.get), dtype=str),
            "name": np.frombuffer(self._name, dtype=np.intc).copy(),
            "start": np.frombuffer(self._start, dtype=np.longlong).copy(),
            "end": np.frombuffer(self._end, dtype=np.longlong).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.intc).copy(),
            "op": np.frombuffer(self._op, dtype=np.intc).copy(),
            "wrapped": np.array(sorted(self.wrapped), dtype=str),
            "directions": np.array(self.directions),
            "peak_bytes": np.array(self.peak_bytes),
        }


def save(trace: dict[str, np.ndarray], path) -> None:
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **trace)


def load(path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def merge(traces: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """One trace from the traces of several processes, renumbering links."""
    names = sorted({str(n) for t in traces for n in t["names"]})
    index = {name: i for i, name in enumerate(names)}
    parts = {key: [] for key in ("name", "start", "end", "parent", "op")}
    offset = 0
    for t in traces:
        remap = np.array([index[str(n)] for n in t["names"]], dtype=np.intc)
        parts["name"].append(remap[t["name"]] if t["name"].size else t["name"])
        parts["parent"].append(np.where(t["parent"] >= 0, t["parent"] + offset, -1))
        for key in ("start", "end", "op"):
            parts[key].append(t[key])
        offset += t["name"].size
    merged = {key: np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.intc)
              for key, arrays in parts.items()}
    merged["names"] = np.array(names, dtype=str)
    merged["wrapped"] = np.array(sorted({str(n) for t in traces for n in t["wrapped"]}), dtype=str)
    merged["directions"] = np.array(sum(int(t["directions"]) for t in traces))
    merged["peak_bytes"] = np.array(max((int(t["peak_bytes"]) for t in traces), default=0))
    return merged


def summarize(trace: dict[str, np.ndarray], ops: int, import_ms: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures per op, and the traced functions found absent.

    Self time is a span's duration less that of its wrapped children.
    ``scenario_io.load_scenario_bundle.self_ms`` is per call and counts the
    set-up's loads, since a workload may load its inputs before the ops.
    """
    index = {str(name): i for i, name in enumerate(trace["names"])}
    name, parent = trace["name"], trace["parent"]
    duration = (trace["end"] - trace["start"]).astype(np.float64)
    linked = parent >= 0
    own = duration - np.bincount(parent[linked], weights=duration[linked], minlength=name.size)
    in_op = trace["op"] != SETUP_OP

    def spans(function: str, only_ops: bool = True) -> np.ndarray:
        mask = name == index.get(function, -1)
        return mask & in_op if only_ops else mask

    def below(outer: str, inner: str) -> int:
        """Spans of ``inner`` in ops that have a span of ``outer`` above them."""
        ancestor = parent[spans(inner)].copy()
        found = np.zeros(ancestor.size, dtype=bool)
        while True:
            live = (ancestor >= 0) & ~found
            if not live.any():
                return int(found.sum())
            found[live] = name[ancestor[live]] == index.get(outer, -1)
            ancestor[live] = parent[ancestor[live]]

    directions = int(trace["directions"])
    pattern_ms = own[spans(_PATTERN)].sum() / 1e6
    values = {}
    for metric in PER_LAYER:
        function, stat = metric.rsplit(".", 1)
        calls = int(spans(function).sum())
        if stat == "calls":
            values[metric] = calls / ops
        elif stat == "self_ms" and function == "scenario_io.load_scenario_bundle":
            loads = spans(function, only_ops=False)
            values[metric] = float(own[loads].sum() / 1e6 / loads.sum()) if loads.any() else 0.0
        elif stat == "self_ms":
            values[metric] = float(own[spans(function)].sum() / 1e6 / ops)
        elif stat == "directions":
            values[metric] = directions / ops
        elif stat == "directions_per_ms":
            values[metric] = float(directions / pattern_ms) if pattern_ms else 0.0
        elif stat == "peak_mb":
            values[metric] = int(trace["peak_bytes"]) / MB
        elif stat == "import_ms":
            values[metric] = import_ms
        else:
            outer, inner = _NESTED[stat]
            values[metric] = below(outer, inner) / calls if calls else 0.0
    functions = {m.rsplit(".", 1)[0] for m in PER_LAYER if not m.endswith(".import_ms")}
    absent = sorted(functions - {str(n) for n in trace["wrapped"]})
    return values, absent


def _traced_cli(argv: list[str]) -> int:
    spans_file, op = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE OP_ID -- <rissim cli args>")
    import rissim.cli

    tracer = Tracer()
    tracer.install()
    tracer.op = op
    try:
        return rissim.cli.main(argv[3:])
    finally:
        tracer.op = None
        save(tracer.columns(), spans_file)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
