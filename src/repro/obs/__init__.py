"""Observability: zero-overhead-when-off instrumentation for the stack.

See :mod:`repro.obs.recorder` for the protocol and the determinism
argument, and :mod:`repro.obs.export` for the Chrome trace /
``telemetry.json`` / text-profile exporters.  DESIGN.md section 6 has
the hook-site inventory.
"""

from .export import (TELEMETRY_SCHEMA_VERSION, chrome_trace, format_profile,
                     telemetry_payload, write_chrome_trace, write_telemetry)
from .recorder import (COHERENCE_TID_BASE, PID_CAMPAIGN, PID_SIM,
                       InstantEvent, NullRecorder, Recorder, SpanEvent,
                       TraceRecorder, active)

__all__ = [
    "COHERENCE_TID_BASE",
    "PID_CAMPAIGN",
    "PID_SIM",
    "TELEMETRY_SCHEMA_VERSION",
    "InstantEvent",
    "NullRecorder",
    "Recorder",
    "SpanEvent",
    "TraceRecorder",
    "active",
    "chrome_trace",
    "format_profile",
    "telemetry_payload",
    "write_chrome_trace",
    "write_telemetry",
]
