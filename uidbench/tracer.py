"""Outside-in span tracer for uidlab's public entry points.

``Tracer.install`` replaces each entry point named in ``LAYERS`` with a
wrapper that records one span per call: layer, start and end from
perf_counter_ns, nesting depth, whether it raised, and what the per-layer
metrics need of its arguments. Functions are replaced in every loaded uidlab
module that binds them, methods on the class that defines them. Each thread
keeps its own depth and span list, so parents and self times stay correct
when producer and consumer threads interleave. ``uninstall`` puts the
originals back.

Spans stay in memory; ``harvest`` folds one repeat's spans into running
per-layer totals and keeps the raw spans of the last repeat for ``write_spans``.
"""

from __future__ import annotations

import sys
import threading
import time

ROOT = "sim.run"  # run_simulation: the root span of a sim repeat, not a layer

# (home module, function or Class.method) -> layer
LAYERS = {
    ("uidlab.core", "SeededEntropy.next_bits"): "core.entropy",
    ("uidlab.core", "SystemEntropy.next_bits"): "core.entropy",
    ("uidlab.core", "generate_ulid"): "core.generate.ulid",
    ("uidlab.core", "next_monotonic_ulid"): "core.generate.ulid",
    ("uidlab.core", "generate_uuidv7"): "core.generate.uuidv7",
    ("uidlab.core", "generate_uuidv4"): "core.generate.uuidv4",
    ("uidlab.codec", "ulid_encode"): "codec.encode.ulid",
    ("uidlab.codec", "uuid_format"): "codec.encode.uuid",
    ("uidlab.codec", "ulid_decode"): "codec.decode.ulid",
    ("uidlab.codec", "uuid_parse"): "codec.decode.uuid",
    ("uidlab.sim", "partition_for"): "sim.partition",
    ("uidlab.sim", "Topic.publish"): "sim.publish",
    ("uidlab.sim", "Topic.consume"): "sim.consume",
    ("uidlab.sim", "Sink.store"): "sim.store",
    ("uidlab.sim", "verify_ordering"): "sim.verify",
    ("uidlab.sim", "run_simulation"): ROOT,
}


# What a span keeps of its call, besides times: only what the per-layer
# metrics need, so spans hold no argument tuples.
_KEEP = {
    "sim.publish": lambda args, result: args[1].id,
    "sim.consume": lambda args, result: result or None,
    "sim.store": lambda args, result: len(args[1]),
}


class Tracer:
    def __init__(self):
        self._threads: list[list] = []  # per thread: [depth, spans]
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.raised_self_ns: dict[str, int] = {}
        self.busy_ns = 0  # union of layer spans over all threads
        self.consume_hits = 0
        self.consumed_events = 0
        self.stored_events = 0
        self.waits_ns: list[int] = []
        self.last_spans: list = []

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        """Wrapper appending (layer, start, end, depth, raised, kept) on return.

        Spans are appended when they end, so a thread's list is in post-order
        and ``depth`` alone recovers each span's parent.
        """
        clock = time.perf_counter_ns
        tls, threads = self._tls, self._threads
        keep = _KEEP.get(layer)

        def traced(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = tls.state = [0, []]
                threads.append(state)
            depth = state[0]
            state[0] = depth + 1
            result, raised = None, True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                state[0] = depth
                state[1].append((layer, t0, t1, depth, raised, keep(args, result) if keep else None))

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "uidlab" or name.startswith("uidlab.")]
        for (home, name), layer in LAYERS.items():
            owner = sys.modules[home]
            if "." in name:
                cls_name, name = name.split(".")
                # The benchmark may have swapped in a subclass; patch the definer.
                owner = next(c for c in getattr(owner, cls_name).__mro__ if name in vars(c))
                self._patch(owner, name, self._wrap(layer, vars(owner)[name]))
                continue
            original = getattr(owner, name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                if vars(module).get(name) is original:
                    self._patch(module, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # --- aggregation --------------------------------------------------------

    def harvest(self) -> None:
        """Fold the spans recorded since the last harvest into the totals."""
        published: dict[str, int] = {}
        intervals = []
        last = []
        for _depth, spans in self._threads:
            parents = [-1] * len(spans)
            waiting: dict[int, list[int]] = {}  # depth -> finished spans awaiting their parent
            child_ns: dict[int, int] = {}
            for i, (layer, t0, t1, depth, raised, kept) in enumerate(spans):
                for child in waiting.pop(depth + 1, ()):
                    parents[child] = i
                waiting.setdefault(depth, []).append(i)
                self_ns = t1 - t0 - child_ns.pop(depth + 1, 0)
                child_ns[depth] = child_ns.get(depth, 0) + t1 - t0
                self.self_ns[layer] = self.self_ns.get(layer, 0) + self_ns
                self.calls[layer] = self.calls.get(layer, 0) + 1
                if raised:
                    self.raised[layer] = self.raised.get(layer, 0) + 1
                    self.raised_self_ns[layer] = self.raised_self_ns.get(layer, 0) + self_ns
                if layer == "sim.publish" and not raised:
                    published[kept] = t1
                elif layer == "sim.store" and not raised:
                    self.stored_events += kept
            for i, (layer, t0, t1, _depth, _raised, _kept) in enumerate(spans):
                # Outermost layer spans: parentless, or children of the root.
                if layer != ROOT and (parents[i] < 0 or spans[parents[i]][0] == ROOT):
                    intervals.append((t0, t1))
            last.append((spans, parents))
        # Waits need every publish first: the consume that delivers an event
        # may run on another thread.
        for spans, _parents in last:
            for layer, _t0, t1, _depth, raised, kept in spans:
                if layer == "sim.consume" and not raised:
                    if kept:
                        self.consume_hits += 1
                        self.consumed_events += len(kept)
                        self.waits_ns.extend(t1 - published[e.id] for e in kept)
        self.busy_ns += _union_ns(intervals)
        self.last_spans = last
        self._threads.clear()
        self._tls = threading.local()

    def write_spans(self, path) -> None:
        """CSV of the last harvested repeat: thread, index, layer, start, end, parent."""
        with open(path, "w", encoding="ascii") as f:
            f.write("thread,index,layer,start_ns,end_ns,parent,raised\n")
            for thread, (spans, parents) in enumerate(self.last_spans):
                for i, (layer, t0, t1, _depth, raised, _kept) in enumerate(spans):
                    f.write(f"{thread},{i},{layer},{t0},{t1},{parents[i]},{int(raised)}\n")


def _union_ns(intervals) -> int:
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total
