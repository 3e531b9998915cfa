"""In-memory spans around the program's layer boundaries.

The traced run wraps public callables of each layer *from here* — the
program itself is not edited.  Wrappers are installed on the classes
(or, for the two protocol functions, on the module) by :func:`installed`
and always restored when the block ends.

A span is ``(id, parent, trace, name, start, end, calls)``: ``trace`` is
the epoch number, the root span of a trace is named ``epoch``, and a
layer called many times per epoch (``ContainmentCompressor.observe``,
``Pattern.evaluate``) is folded into one span per epoch whose length is
the summed time of its ``calls``.  A layer's *self time* is its span
minus its direct children.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "epoch"


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: counts taken at the same boundaries as the spans
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.trace = -1
        self.root = 0
        self._root_start = 0.0
        self._next_id = 0
        self._stacks = threading.local()
        #: per-epoch folds of per-call layers: name -> [parent, first start, busy, calls]
        self._folds: dict[str, list] = {}

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def stack(self) -> list[int]:
        try:
            return self._stacks.value
        except AttributeError:
            self._stacks.value = []
            return self._stacks.value

    def begin_epoch(self, epoch: int, start: float) -> None:
        self.trace = epoch
        self.root = self.new_id()
        self._root_start = start

    def end_epoch(self, end: float) -> None:
        for name, (parent, first, busy, calls) in self._folds.items():
            self.spans.append((self.new_id(), parent, self.trace, name, first, first + busy, calls))
        self._folds.clear()
        self.spans.append((self.root, 0, self.trace, ROOT, self._root_start, end, 1))
        self.root = 0

    def fold(self, name: str, start: float, end: float) -> None:
        entry = self._folds.get(name)
        if entry is None:
            stack = self.stack()
            self._folds[name] = [stack[-1] if stack else self.root, start, end - start, 1]
        else:
            entry[2] += end - start
            entry[3] += 1

    # ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        children: defaultdict[int, float] = defaultdict(float)
        for _id, parent, _trace, _name, start, end, _calls in self.spans:
            children[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for span_id, _parent, _trace, name, start, end, _calls in self.spans:
            out[name] += (end - start) - children.get(span_id, 0.0)
        return dict(out)

    def busy(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[3] == name)

    def starts(self, name: str) -> dict[int, float]:
        """trace id -> start of that trace's (first) span called ``name``."""
        out: dict[int, float] = {}
        for _id, _parent, trace, span_name, start, _end, _calls in self.spans:
            if span_name == name:
                out.setdefault(trace, start)
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, trace, name, start, end, calls in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "trace": trace,
                            "name": name,
                            "start": start,
                            "end": end,
                            "calls": calls,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _spanned(rec: SpanRecorder, fn, name, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a callable of the arguments."""

    def wrapper(*args, **kwargs):
        stack = rec.stack()
        span_id = rec.new_id()
        parent = stack[-1] if stack else rec.root
        stack.append(span_id)
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        stack.pop()
        label = name if isinstance(name, str) else name(*args, **kwargs)
        rec.spans.append((span_id, parent, rec.trace, label, start, end, 1))
        if after is not None:
            after(rec.counts, args, result)
        return result

    return wrapper


def _spanned_async(rec: SpanRecorder, fn, name):
    async def wrapper(*args, **kwargs):
        stack = rec.stack()
        span_id = rec.new_id()
        parent = stack[-1] if stack else rec.root
        stack.append(span_id)
        start = perf_counter()
        result = await fn(*args, **kwargs)
        end = perf_counter()
        stack.remove(span_id)
        rec.spans.append((span_id, parent, rec.trace, name, start, end, 1))
        return result

    return wrapper


def _folded(rec: SpanRecorder, fn, name, after=None):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        rec.fold(name, start, perf_counter())
        if after is not None:
            after(rec.counts, args, result)
        return result

    return wrapper


def _after_dedup(counts, args, clean):
    counts["dedup.readings_in"] += args[1].reading_count
    counts["dedup.readings_out"] += clean.reading_count


def _after_capture(counts, args, _result):
    updater = args[0]
    counts["capture.candidate_edges"] = updater.candidate_edges
    counts["graph.nodes_final"] = updater.graph.node_count
    counts["graph.edges_final"] = updater.graph.edge_count


def _after_inference(counts, args, _result):
    inference = args[0]
    counts["inference.cache_hits"] = inference.cache_hits
    counts["inference.cache_misses"] = inference.cache_misses
    counts["inference.dirty_nodes"] += inference.graph.dirty_count
    counts["inference.runs"] += 1


def _after_observe(counts, _args, messages):
    counts["compression.messages_out"] += len(messages)


def _after_extend(counts, args, _result):
    counts["index.messages_in"] += len(args[1])


def _after_evaluate(counts, _args, notes):
    counts["sase.matches"] += len(notes)


def _after_publish(counts, _args, queued):
    counts["engine.notifications_queued"] += queued


def _after_encode(counts, _args, payload):
    counts["protocol.bytes_out"] += len(payload)


def _inference_name(_self, _now, complete):
    return "inference.complete" if complete else "inference.partial"


def _layers(group: str) -> list[tuple]:
    """``(owner, attribute, make_wrapper)`` for one group of layers.

    ``core`` is what a local session runs in this process; ``serving``
    is the engine, protocol and server on top of it; ``zones`` is the
    parallel coordinator (its workers run the core in other processes,
    where spans would be out of reach, so ``core`` is not installed
    there and the public ``WorkerStats`` are reported instead).
    """
    if group == "core":
        from repro.compression.level2 import ContainmentCompressor
        from repro.core.capture import GraphUpdater
        from repro.core.iterative import IterativeInference
        from repro.core.pipeline import Spire
        from repro.readers.dedup import Deduplicator

        return [
            (Spire, "process_epoch", lambda r, f: _spanned(r, f, "pipeline")),
            (Deduplicator, "process", lambda r, f: _spanned(r, f, "dedup", _after_dedup)),
            (GraphUpdater, "apply_epoch", lambda r, f: _spanned(r, f, "capture", _after_capture)),
            (
                IterativeInference,
                "run",
                lambda r, f: _spanned(r, f, _inference_name, _after_inference),
            ),
            (
                ContainmentCompressor,
                "observe",
                lambda r, f: _folded(r, f, "compression", _after_observe),
            ),
        ]
    if group == "zones":
        from repro.distributed.parallel import ParallelCoordinator

        return [(ParallelCoordinator, "process_epoch", lambda r, f: _spanned(r, f, "zones"))]
    if group == "serving":
        from repro.query.index import EventStreamIndex
        from repro.serving import protocol
        from repro.serving.engine import StandingQueryEngine
        from repro.serving.patterns import Pattern
        from repro.serving.server import SpireServer

        layers = [
            (
                EventStreamIndex,
                "extend",
                lambda r, f: _spanned(r, f, "index.extend", _after_extend),
            ),
            (
                StandingQueryEngine,
                "publish",
                lambda r, f: _spanned(r, f, "engine.publish", _after_publish),
            ),
            (
                protocol,
                "encode_event_batch",
                lambda r, f: _spanned(r, f, "protocol.encode", _after_encode),
            ),
            (protocol, "decode_event_batch", lambda r, f: _spanned(r, f, "protocol.decode")),
            (
                SpireServer,
                "publish_epoch",
                lambda r, f: _spanned_async(r, f, "server.publish_epoch"),
            ),
        ]
        pending = list(Pattern.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "evaluate" in cls.__dict__:
                layers.append(
                    (cls, "evaluate", lambda r, f: _folded(r, f, "sase.evaluate", _after_evaluate))
                )
        return layers
    raise ValueError(f"unknown layer group {group!r}")


@contextmanager
def installed(rec: SpanRecorder, groups: tuple[str, ...]):
    """Install the wrappers of ``groups``; restore the originals on exit."""
    saved: list[tuple] = []
    try:
        for group in groups:
            for owner, attr, make in _layers(group):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(rec, original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
