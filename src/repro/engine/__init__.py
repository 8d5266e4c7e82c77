"""Simulation engine: event queue, system builder, simulator, results.

The event queue holds plain ``(time, sequence, fn, arg)`` tuples; see
:mod:`repro.engine.events`.
"""

from .events import EventQueue
from .results import RunResult, aggregate_breakdown
from .system import ENGINE_KINDS, System, build_system
from .simulator import Simulator, simulate

__all__ = [
    "ENGINE_KINDS",
    "EventQueue",
    "RunResult",
    "aggregate_breakdown",
    "System",
    "build_system",
    "Simulator",
    "simulate",
]
