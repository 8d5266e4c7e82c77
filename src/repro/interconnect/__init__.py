"""Interconnect model: a 2-D torus with fixed per-hop latency (Figure 6)."""

from .topology import TorusTopology

__all__ = ["TorusTopology"]
