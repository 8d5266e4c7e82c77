"""Per-layer attribution for the traced run: spans, profiler, recorder.

Three instruments; the profiler gets a pass of its own so its overhead
distorts neither the spans nor the untraced timings:

* :class:`Tracer` -- spans recorded by the benchmark's own wrappers
  around the calls it makes into each layer (``build_trace``,
  ``compile_study_plan``, each ``simulate``, cache ``get``/``put``).
  Spans stay in memory and are written out once, at the end.
* :func:`profile_layers` -- a deterministic profiler (``cProfile``)
  whose self time is summed by the ``repro`` subpackage that defines
  each function, and whose call counts give the real heap-event and
  cache-array call counts.
* :class:`CountingRecorder` -- a counters-only recorder passed through
  the simulator's public ``recorder=`` hook.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs import Recorder

from catalogue import LAYERS

#: (file under src/repro, function name) -> counter the profiler feeds.
_CALL_COUNTERS = {
    ("engine/events.py", "pop"): "engine.heap_pops",
    ("engine/events.py", "schedule"): "engine.callback_events",
    ("engine/events.py", "schedule_step"): "engine.step_events",
    ("engine/events.py", "note_inline"): "engine.inline_ops",
    ("memory/cache.py", "lookup"): "memory.lookup_calls",
    ("memory/cache.py", "install"): "memory.install_calls",
}


class Tracer:
    """In-memory spans: name, start, end (``perf_counter`` s), parent."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` from index ``since``."""
        return sum(s["end"] - s["start"] for s in self.spans[since:]
                   if s["name"] == name)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            duration = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[s["id"]]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1))


@contextmanager
def wrapped_cache(cache, tracer: Optional[Tracer], gets: List, puts: List,
                  after_put: Optional[Callable[[], None]] = None):
    """Route a result cache's ``get``/``put`` through the benchmark.

    Every result read (hit or miss) is appended to ``gets`` and every
    result written to ``puts``; with a tracer each call is also a span.
    ``after_put``, if given, is called after every write.  The wrappers
    are instance attributes, so the cache class is untouched.
    """
    real_get, real_put = cache.get, cache.put

    def get(key):
        if tracer is None:
            result = real_get(key)
        else:
            with tracer.span("cache.get"):
                result = real_get(key)
        gets.append(result)
        return result

    def put(key, result):
        if tracer is None:
            real_put(key, result)
        else:
            with tracer.span("cache.put"):
                real_put(key, result)
        puts.append(result)
        if after_put is not None:
            after_put()

    cache.get, cache.put = get, put
    try:
        yield cache
    finally:
        del cache.get, cache.put


class CountingRecorder(Recorder):
    """Counters and histogram maxima only; spans and instants are dropped."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.maxima: Dict[str, int] = {}

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, value - 1):
            self.maxima[name] = value


def layer_of(filename: str, repro_root: str, bench_root: str) -> str:
    """The layer a function belongs to, from the file that defines it."""
    if not filename.startswith(repro_root):
        return "other" if filename.startswith(bench_root) else "stdlib"
    rel = filename[len(repro_root):]
    if rel == "engine/events.py":
        return "engine.events"
    head = rel.split("/", 1)[0]
    return head if "/" in rel and head in LAYERS else "other"


def profile_layers(profiler: cProfile.Profile, repro_root: Path,
                   bench_root: Path, passes: int) -> Dict[str, float]:
    """Per-pass self seconds by layer plus the profiler's call counters."""
    root = str(repro_root) + "/"
    bench = str(bench_root) + "/"
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({name: 0 for name in _CALL_COUNTERS.values()})
    for (filename, _line, func), row in pstats.Stats(profiler).stats.items():
        total_calls, self_time = row[1], row[2]
        out[f"{layer_of(filename, root, bench)}.self_s"] += self_time / passes
        if filename.startswith(root):
            key = (filename[len(root):], func.rsplit(".", 1)[-1])
            if key in _CALL_COUNTERS:
                out[_CALL_COUNTERS[key]] += total_calls // passes
    return out
