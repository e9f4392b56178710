"""In-memory span recording around the program's public layer functions.

The benchmark measures each layer from outside: a traced run swaps a
layer's public functions for wrappers that record one span per call
(name, start, end, parent span, trace id) and feed per-layer counters.
Nothing under ``src/`` changes; untraced runs never install a wrapper.

A span's *self time* is its duration minus the time its direct child
spans cover.  The process is single-threaded, so child spans nest
strictly inside their parent and never overlap one another.

Every timed region, traced or not, runs under :func:`quiesced_gc`.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_MISSING = object()


@contextmanager
def quiesced_gc():
    """Park the pre-existing heap in the permanent generation while timing.

    Collector passes then walk only what the timed code allocates, so
    set-up objects do not tax the measurement (the measure
    ``benchmarks/bench_fleet.py::_quiesced_gc`` takes for its timed runs).
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class SpanRecorder:
    """Records spans in memory and sums self time per span name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: (name id, start, end, parent span index or -1, trace id)
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []
        self._self_s: dict[int, float] = defaultdict(float)
        self.trace_id = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None, outer_only: str | None = None):
        """``fn`` recorded as span ``name``.

        ``after(result, args)`` runs once the call returns, to update the
        layer's counters.  With ``outer_only`` set to a layer prefix, it
        runs only for calls not nested inside another span of that layer,
        so a batch entry point that calls the scalar one is counted once.
        """
        nid = self._name_id(name)
        spans, stack, self_s, names = self.spans, self._stack, self._self_s, self.names
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0, nid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[idx] = (
                    nid, t0, t1, -1 if parent is None else parent[0], self.trace_id
                )
                self_s[nid] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
            if after is not None and (
                outer_only is None
                or parent is None
                or not names[parent[2]].startswith(outer_only)
            ):
                after(out, args)
            return out

        return wrapper

    def self_seconds(self, prefix: str) -> float:
        """Total self time of every span whose name starts with ``prefix``."""
        return sum(
            s for nid, s in self._self_s.items()
            if self.names[nid].startswith(prefix)
        )

    def write_jsonl(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans if s), default=0.0)
        names = self.names
        with open(path, "w") as fh:
            for i, (nid, t0, t1, parent, trace) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": names[nid], "trace": trace,
                    "parent": parent, "start_s": t0 - origin,
                    "end_s": t1 - origin,
                }) + "\n")
        return len(self.spans)


@contextmanager
def patched(targets):
    """Install ``(owner, attribute, replacement)`` triples, then restore.

    An attribute the owner did not define itself (inherited from a base
    class, or a bound method reached through an instance) is deleted
    again on exit rather than copied back.
    """
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
