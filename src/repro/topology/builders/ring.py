"""Ring topology builders (unidirectional and bidirectional)."""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.defaults import DEFAULT_ALPHA, DEFAULT_BANDWIDTH_GBPS
from repro.topology.topology import Topology

__all__ = ["build_ring"]


def build_ring(
    num_npus: int,
    *,
    alpha: float = DEFAULT_ALPHA,
    bandwidth_gbps: float = DEFAULT_BANDWIDTH_GBPS,
    bidirectional: bool = True,
) -> Topology:
    """Build a ring of ``num_npus`` NPUs.

    Parameters
    ----------
    num_npus:
        Number of NPUs; must be at least 2.
    alpha:
        Per-link latency in seconds.
    bandwidth_gbps:
        Per-link bandwidth in GB/s.
    bidirectional:
        When True (the paper's default, footnote 3) each neighbouring pair is
        connected by two opposite-direction links; otherwise only the
        ``i -> i+1`` direction exists.

    Returns
    -------
    Topology
        The ring topology, named ``Ring(n)`` or ``UniRing(n)``.
    """
    if num_npus < 2:
        raise TopologyError(f"a ring needs at least 2 NPUs, got {num_npus}")
    direction = "Ring" if bidirectional else "UniRing"
    topology = Topology(num_npus, name=f"{direction}({num_npus})")
    for npu in range(num_npus):
        nxt = (npu + 1) % num_npus
        topology.add_link(npu, nxt, alpha=alpha, bandwidth_gbps=bandwidth_gbps)
        # Two NPUs share one neighbouring pair: its reverse link is the next
        # NPU's forward link, so adding it here would duplicate that link.
        if bidirectional and num_npus > 2:
            topology.add_link(nxt, npu, alpha=alpha, bandwidth_gbps=bandwidth_gbps)
    return topology
