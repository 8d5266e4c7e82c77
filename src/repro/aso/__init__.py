"""Atomic Sequence Ordering (ASO) baseline (Wenisch et al., ISCA 2007).

ASO is the closest prior proposal in the speculative-retirement lineage and
the paper's experimental comparison point (Section 6.4, Figure 11).  Like
InvisiFence-Selective it speculates only on would-be ordering stalls, but
it differs in three modelled respects:

* speculative stores are held per-store in a large FIFO **Scalable Store
  Buffer** (SSB, a 256-entry word FIFO here) rather than per-block in a
  small coalescing buffer,
* commit drains the SSB into the L2; the drain is modelled as overlapped
  with execution, so it costs no cycles of its own, and
* checkpoints are taken periodically during speculation, so a violation
  discards only the work since the last checkpoint covering the
  conflicting access.
"""

from .controller import ASOController

__all__ = ["ASOController"]
