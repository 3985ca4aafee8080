"""Helpers for splitting collectives into chunks.

The paper improves network utilization by decomposing a collective into
multiple smaller chunks that can be routed concurrently (Sec. II-A).  This
module provides small utilities shared by the synthesizer, the baselines, and
the experiments for reasoning about chunk counts and sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.collectives.pattern import CollectivePattern
from repro.errors import CollectiveError

__all__ = ["ChunkPlan", "plan_chunks"]


@dataclass(frozen=True)
class ChunkPlan:
    """Concrete chunking of a collective of a given size.

    Attributes
    ----------
    pattern:
        The collective pattern (already constructed with its chunk count).
    collective_size:
        Per-NPU buffer size in bytes.
    chunk_size:
        Size of each chunk in bytes.
    num_chunks:
        Total number of chunks flowing through the network.
    """

    pattern: CollectivePattern
    collective_size: float
    chunk_size: float
    num_chunks: int

    @property
    def total_bytes_moved_lower_bound(self) -> float:
        """Minimum bytes any algorithm must move (one delivery per missing chunk)."""
        return self.pattern.total_transfers_lower_bound() * self.chunk_size


def plan_chunks(pattern: CollectivePattern, collective_size: float) -> ChunkPlan:
    """Build a :class:`ChunkPlan` for ``pattern`` at ``collective_size`` bytes."""
    if not math.isfinite(collective_size):
        raise CollectiveError(f"collective size must be finite, got {collective_size}")
    if collective_size <= 0:
        raise CollectiveError(f"collective size must be positive, got {collective_size}")
    chunk_size = pattern.chunk_size(collective_size)
    return ChunkPlan(
        pattern=pattern,
        collective_size=float(collective_size),
        chunk_size=chunk_size,
        num_chunks=pattern.num_chunks,
    )
