"""Exporters: Chrome trace JSON, ``telemetry.json``, and the text profile.

Three views over one :class:`~repro.obs.recorder.TraceRecorder`:

* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event JSON object format, loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Spans become
  ``"X"`` complete events, instants become ``"i"``, and metadata
  ``"M"`` events name the two processes (simulated-cycle vs wall-clock
  timebase) and every thread track that appears.
* :func:`telemetry_payload` / :func:`write_telemetry` -- the
  schema-versioned ``telemetry.json`` metrics artifact written next to
  study artifacts: counters, histograms, and span aggregates, but no
  raw event list (campaigns would make that unbounded).
* :func:`format_profile` -- a human-readable report for the terminal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from .recorder import PID_CAMPAIGN, PID_SIM, COHERENCE_TID_BASE, TraceRecorder

#: Version of the ``telemetry.json`` artifact layout.  Bump on any
#: backwards-incompatible change to the payload structure.
TELEMETRY_SCHEMA_VERSION = 1

_PROCESS_NAMES = {
    PID_SIM: "simulation (simulated cycles)",
    PID_CAMPAIGN: "campaign (wall clock)",
}


def _thread_name(pid: int, tid: int) -> str:
    if pid == PID_SIM:
        if tid >= COHERENCE_TID_BASE:
            return f"directory/core {tid - COHERENCE_TID_BASE}"
        return f"core {tid}"
    if tid == 0:
        return "driver"
    return f"worker {tid}"


def chrome_trace(recorder: TraceRecorder) -> Dict[str, Any]:
    """The recorder's spans/instants as a Chrome trace-event JSON object.

    Timestamps are emitted as microseconds (the format's unit); for the
    ``PID_SIM`` process one simulated cycle maps to one microsecond, so
    Perfetto's time axis reads directly as cycles.
    """
    events: List[Dict[str, Any]] = []
    tracks = set()
    for span in recorder.spans:
        tracks.add((span.pid, span.tid))
        event: Dict[str, Any] = {
            "name": span.name, "ph": "X", "ts": span.ts, "dur": span.dur,
            "pid": span.pid, "tid": span.tid,
        }
        if span.args:
            event["args"] = span.args
        events.append(event)
    for inst in recorder.instants:
        tracks.add((inst.pid, inst.tid))
        event = {
            "name": inst.name, "ph": "i", "ts": inst.ts, "s": "t",
            "pid": inst.pid, "tid": inst.tid,
        }
        if inst.args:
            event["args"] = inst.args
        events.append(event)
    meta: List[Dict[str, Any]] = []
    for pid in sorted({pid for pid, _ in tracks}):
        meta.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                     "args": {"name": _PROCESS_NAMES.get(pid, f"pid {pid}")}})
    for pid, tid in sorted(tracks):
        meta.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                     "args": {"name": _thread_name(pid, tid)}})
    payload: Dict[str, Any] = {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "counters": dict(sorted(recorder.counters.items())),
            **recorder.meta,
        },
    }
    return payload


def write_chrome_trace(recorder: TraceRecorder,
                       path: Union[str, Path]) -> Path:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(recorder), indent=1,
                               sort_keys=False) + "\n")
    return path


def _histogram_summary(hist) -> Dict[str, Any]:
    total = sum(hist.values())
    weighted = sum(value * count for value, count in hist.items())
    return {
        "samples": total,
        "min": min(hist) if hist else 0,
        "max": max(hist) if hist else 0,
        "mean": (weighted / total) if total else 0.0,
        "buckets": {str(value): hist[value] for value in sorted(hist)},
    }


def _span_aggregates(recorder: TraceRecorder) -> Dict[str, Any]:
    agg: Dict[str, Dict[str, int]] = {}
    for span in recorder.spans:
        entry = agg.setdefault(span.name, {"count": 0, "total_dur": 0})
        entry["count"] += 1
        entry["total_dur"] += span.dur
    return dict(sorted(agg.items()))


def telemetry_payload(recorder: TraceRecorder) -> Dict[str, Any]:
    """The schema-versioned ``telemetry.json`` metrics structure.

    Layout (``schema_version`` 1)::

        {
          "schema_version": 1,
          "meta": {...},                  # run labels (config, workload, ...)
          "counters": {name: int},
          "histograms": {name: {samples, min, max, mean, buckets}},
          "spans": {name: {count, total_dur}},
          "instants": {name: count},
        }

    Durations under ``spans`` mix timebases by span name: engine span
    names (``spec.episode``, ``sb.drain`` ...) are simulated cycles,
    campaign span names (``job`` ...) are wall-clock microseconds.
    """
    instants: Dict[str, int] = {}
    for inst in recorder.instants:
        instants[inst.name] = instants.get(inst.name, 0) + 1
    return {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "meta": dict(recorder.meta),
        "counters": dict(sorted(recorder.counters.items())),
        "histograms": {name: _histogram_summary(hist)
                       for name, hist in sorted(recorder.histograms.items())},
        "spans": _span_aggregates(recorder),
        "instants": dict(sorted(instants.items())),
    }


def write_telemetry(recorder: TraceRecorder, path: Union[str, Path]) -> Path:
    """Write ``telemetry.json`` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(telemetry_payload(recorder), indent=2,
                               sort_keys=False) + "\n")
    return path


def format_profile(recorder: TraceRecorder) -> str:
    """Human-readable profile report (counters, histograms, span totals)."""
    lines: List[str] = []
    if recorder.meta:
        label = ", ".join(f"{key}={value}"
                         for key, value in sorted(recorder.meta.items()))
        lines.append(f"profile: {label}")
        lines.append("")
    spans = _span_aggregates(recorder)
    if spans:
        lines.append("spans (name: count, total duration):")
        width = max(len(name) for name in spans)
        for name, entry in spans.items():
            lines.append(f"  {name:<{width}}  {entry['count']:>8} x  "
                         f"{entry['total_dur']:>12} dur")
        lines.append("")
    if recorder.counters:
        lines.append("counters:")
        width = max(len(name) for name in recorder.counters)
        for name, value in sorted(recorder.counters.items()):
            lines.append(f"  {name:<{width}}  {value:>12}")
        lines.append("")
    if recorder.histograms:
        lines.append("histograms:")
        for name, hist in sorted(recorder.histograms.items()):
            summary = _histogram_summary(hist)
            lines.append(
                f"  {name}: {summary['samples']} samples, "
                f"min {summary['min']}, mean {summary['mean']:.1f}, "
                f"max {summary['max']}")
        lines.append("")
    if not lines:
        return "profile: no telemetry recorded\n"
    return "\n".join(lines).rstrip() + "\n"
