"""Span tracer for the benchmark's traced runs.

The benchmark measures end-to-end numbers with tracing off.  A traced
run installs wrappers (from this file, not from the program) around the
public calls of each ``src/repro`` layer listed in :data:`LAYERS`.
Every wrapped call records one span: name, start, end and the span that
was open when it started.  Spans stay in memory and are written out when
the run ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Summed per layer and divided by the
episode time, it gives the layer's share of the run.  The program is
single-threaded, so a layer's self-time saving caps the end-to-end gain
at that share.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

#: Root span of one timed episode; every layer span descends from one.
EPISODE = "episode"

#: layer (module under ``repro``) -> public calls timed in it.  A name
#: ``Class.method`` wraps the method on that class; ``Class.*.method``
#: wraps ``method`` on every subclass of ``Class`` in the module that
#: defines its own (one aggregated entry); a bare name is a module
#: function, patched in every ``repro`` module that imported it.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "nn.functional": ("conv2d", "conv_transpose2d", "max_pool2d"),
    "nn.tensor": ("Tensor.backward",),
    "nn.optim": ("Adam.step",),
    "core.orchestrator": ("OrchestratedTrainer.step",
                          "OrcoDCSFramework.fit_config",
                          "OrcoDCSFramework.__init__"),
    "core.fleet": ("FleetTrainer.step", "FleetSubset.step"),
    "nn.batched": ("FleetAdam.step",),
    "core.rounds": ("SegmentedFleetExecutor.execute",),
    "core.scheduler": ("EdgeTrainingScheduler.run",
                       "EdgeTrainingScheduler.execution_plan"),
    "sim.events": ("EventScheduler.run", "EventScheduler.step"),
    "sim.channel": ("UnreliableChannel.transmit",
                    "UnreliableChannel.transmit_batch",
                    "UnreliableChannel.record_trace",
                    "UnreliableChannel.rerecord_trace"),
    "sim.sampler": ("LossSampler.*.peek",),
    "wsn": ("network.TransmissionLedger.record", "energy.Battery.drain",
            "energy.RadioEnergyModel.tx_energy",
            "energy.RadioEnergyModel.rx_energy"),
    "obs": ("telemetry.TelemetryBus.emit", "exporters.JsonlWriter.write_event",
            "exporters.JsonlWriter.flush",
            "metrics.MetricsCollector.observe_event"),
    "scale.analytic": ("run_analytic", "forecast_cluster", "price_transmit"),
    "apps": ("classifier.ImageClassifier.fit",),
    "baselines": ("dcsnet.DCSNetOnline.fit_fraction",),
}

#: Wrapped calls whose arguments carry a work count: span name ->
#: ``(argument name, function of the argument giving the amount)``.
_AMOUNTS: Dict[str, Tuple[str, Callable[[object], int]]] = {
    # ``peek(self, n)``: frames of loss verdicts sampled.
    "sim.sampler.peek": ("n", int),
    # ``step(self, batches, ...)``: one round per stacked cluster.
    "core.fleet.FleetTrainer.step": ("batches", len),
}


class Tracer:
    """In-memory span recorder with a stack of open spans.

    Spans are indexed in the order they open, which is also start-time
    order in a single thread; ``parents[i]`` is the index of the span
    open when span ``i`` started (``-1`` for a root).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.amounts: Dict[str, int] = {}
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str) -> int:
        index = len(self.starts)
        self.name_of.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("span closed out of order")
        self.ends[index] = end

    def add(self, name: str, amount: int) -> None:
        self.amounts[name] = self.amounts.get(name, 0) + amount

    def episode(self):
        """Context manager timing one episode as a root span."""
        return _Span(self, EPISODE)

    def wrap(self, name: str, fn: Callable) -> Callable:
        argument, amount = _AMOUNTS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if amount is not None:
                    tracer.add(name, amount(
                        args[1] if len(args) > 1 else kwargs[argument]))

        return traced

    def spans(self) -> List[Tuple[str, float, float, int]]:
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.name_of, self.starts, self.ends, self.parents)]

    def write(self, path) -> None:
        """Write every span to ``path`` as compressed arrays."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name_of),
            start=np.asarray(self.starts), end=np.asarray(self.ends),
            parent=np.asarray(self.parents))


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.index)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Tuple[str, float, float, int]]
               ) -> List[float]:
    """Each span's duration minus the time its children cover.

    ``spans`` holds ``(name, start, end, parent_index)``.  Children are
    clipped to their parent's interval and overlapping children count
    once (the union of their intervals), so a parent's self time never
    goes negative and its children's self times never sum past its
    duration.
    """
    covered = [0.0] * len(spans)
    cover_end = [float("-inf")] * len(spans)
    order = sorted(range(len(spans)), key=lambda i: spans[i][1])
    for index in order:
        _, start, end, parent = spans[index]
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        start = max(start, p_start, cover_end[parent])
        end = min(end, p_end)
        if end > start:
            covered[parent] += end - start
        cover_end[parent] = max(cover_end[parent], end)
    return [max(0.0, (end - start) - covered[i])
            for i, (_, start, end, _) in enumerate(spans)]


def children_within_parents(spans: Sequence[Tuple[str, float, float, int]],
                            selfs: Sequence[float],
                            tolerance: float = 1e-9) -> bool:
    """True when, for every span, its children's self times sum to no
    more than its duration."""
    child_sum = [0.0] * len(spans)
    for (_, _, _, parent), own in zip(spans, selfs):
        if parent >= 0:
            child_sum[parent] += own
    return all(total <= (end - start) + tolerance
               for total, (_, start, end, _) in zip(child_sum, spans))


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _resolve(layer: str, target: str):
    """Yield ``(owner, attribute, span_name)`` for one table entry."""
    parts = target.split(".")
    module_name = "repro." + layer
    if parts[0][0].islower() and len(parts) > 1:
        # A submodule of a package layer, e.g. ``wsn`` -> ``energy``.
        module_name += "." + parts[0]
        parts = parts[1:]
    module = importlib.import_module(module_name)
    if len(parts) == 1:
        yield module, parts[0], f"{layer}.{parts[0]}"
        return
    if parts[1] == "*":
        base = getattr(module, parts[0])
        for owner in vars(module).values():
            # The base class's own method only raises; skip it.
            if (isinstance(owner, type) and issubclass(owner, base)
                    and owner is not base and parts[2] in vars(owner)):
                yield owner, parts[2], f"{layer}.{parts[2]}"
        return
    yield getattr(module, parts[0]), parts[1], f"{layer}.{'.'.join(parts)}"


def span_layers() -> Dict[str, str]:
    """Every span name the wrappers record -> its layer, in table order."""
    return {name: layer for layer, targets in LAYERS.items()
            for target in targets
            for _, _, name in _resolve(layer, target)}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every call in :data:`LAYERS`; returns the uninstall thunk.

    Install before building workload objects, so bound methods captured
    at construction time (bus subscriptions) see the wrapper.
    """
    undo: List[Tuple[object, str, object]] = []
    for layer, targets in LAYERS.items():
        for target in targets:
            for owner, attr, name in _resolve(layer, target):
                original = vars(owner)[attr]
                if isinstance(owner, type):
                    setattr(owner, attr, tracer.wrap(name, original))
                    undo.append((owner, attr, original))
                    continue
                wrapped = tracer.wrap(name, original)
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("repro")
                            and vars(module).get(attr) is original):
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, episodes: int
                  ) -> Tuple[Dict[str, float], bool]:
    """Per-episode calls and self time per wrapped call and per layer.

    Returns the metrics and whether every span's children's self times
    sum to no more than its duration.

    ``<layer>.<call>.calls`` / ``.self_s`` are per traced episode;
    ``<layer>.self_s`` sums the layer's calls and ``<layer>.share``
    divides it by the episode time.  ``unattributed.share`` is the
    episode time outside every wrapped call (the benchmark's own code
    and unwrapped program code).
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    layers = span_layers()
    calls: Dict[str, int] = {name: 0 for name in layers}
    own: Dict[str, float] = {name: 0.0 for name in layers}
    episode_s = 0.0
    unattributed = 0.0
    for (name, start, end, _), self_s in zip(spans, selfs):
        if name == EPISODE:
            episode_s += end - start
            unattributed += self_s
            continue
        calls[name] += 1
        own[name] += self_s
    per = max(episodes, 1)
    metrics: Dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name] / per
        metrics[f"{name}.self_s"] = own[name] / per
        layer_self[layers[name]] += own[name]
    for layer, total in layer_self.items():
        metrics[f"{layer}.self_s"] = total / per
        metrics[f"{layer}.share"] = total / episode_s if episode_s else 0.0
    metrics["unattributed.share"] = (unattributed / episode_s
                                     if episode_s else 0.0)
    metrics["sim.sampler.frames"] = tracer.amounts.get(
        "sim.sampler.peek", 0) / per
    stacked_calls = calls.get("core.fleet.FleetTrainer.step", 0)
    metrics["core.fleet.rounds_per_call"] = (
        tracer.amounts.get("core.fleet.FleetTrainer.step", 0) / stacked_calls
        if stacked_calls else 0.0)
    return metrics, children_within_parents(spans, selfs)
