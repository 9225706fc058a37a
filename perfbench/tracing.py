"""In-memory spans and counters recorded around the benchmark's calls.

A span is ``(id, name, start_ns, end_ns, parent_id)``; its layer is the part
of the name before the first dot.  Spans are kept in a list and written out
by the caller when the run ends.  Nothing here reaches into the package: the
spans wrap the public functions the workloads call, so they measure each
layer from the outside.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("circuit", "transpile", "sampler", "tomography", "qmath", "refdata", "cli")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        except Exception as exc:
            # the innermost layer span names the layer that raised
            if not hasattr(exc, "bench_layer") and layer_of(name) in LAYERS:
                exc.bench_layer = layer_of(name)
            raise
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed under span ``name``; ``count(counts, result, *args)`` adds counters."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return traced


def self_times(spans: list[list], root: int) -> dict[str, float]:
    """Seconds of each span name under ``root``, minus what its children cover.

    Children of one span never overlap (one thread), so their durations add.
    """
    inside: dict[int, list] = {}
    for sid, name, start, end, parent in spans:
        if sid == root or (parent is not None and parent in inside):
            inside[sid] = [name, end - start]
    for sid, name, start, end, parent in spans:
        if sid in inside and sid != root and parent in inside:
            inside[parent][1] -= end - start
    out: dict[str, float] = {}
    for sid, (name, ns) in inside.items():
        if sid != root:
            out[name] = out.get(name, 0.0) + ns / 1e9
    return out
