"""Network link model based on the alpha-beta cost model.

Every directed link in a topology carries two parameters following the
Hockney alpha-beta model used throughout the paper (Sec. IV-F):

* ``alpha`` -- the fixed latency of one transmission, in seconds.
* ``beta`` -- the serialization delay per byte, in seconds per byte
  (i.e. the reciprocal of the link bandwidth).

The transmission cost of a message of ``size`` bytes is ``alpha + beta * size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import TopologyError

__all__ = ["Link", "bandwidth_to_beta", "beta_to_bandwidth", "GIGABYTE"]

#: Number of bytes in one gigabyte, used when converting GB/s link speeds.
GIGABYTE = 1e9


def bandwidth_to_beta(bandwidth_gbps: float) -> float:
    """Convert a link bandwidth in GB/s into a beta cost in seconds per byte.

    Parameters
    ----------
    bandwidth_gbps:
        Link bandwidth expressed in gigabytes per second (the unit the paper
        uses, e.g. ``1/beta = 50 GB/s``).

    Returns
    -------
    float
        Serialization delay per byte in seconds.
    """
    if not math.isfinite(bandwidth_gbps):
        raise TopologyError(f"bandwidth must be finite, got {bandwidth_gbps}")
    if bandwidth_gbps <= 0:
        raise TopologyError(f"bandwidth must be positive, got {bandwidth_gbps}")
    return 1.0 / (bandwidth_gbps * GIGABYTE)


def beta_to_bandwidth(beta: float) -> float:
    """Convert a beta cost (seconds per byte) back into GB/s.

    A pure-latency link (``beta == 0``) has infinite bandwidth.
    """
    if beta < 0:
        raise TopologyError(f"beta must be non-negative, got {beta}")
    if beta == 0:
        return float("inf")
    return 1.0 / (beta * GIGABYTE)


@dataclass(frozen=True)
class Link:
    """A directed network link between two NPUs.

    Attributes
    ----------
    source:
        Index of the sending NPU.
    dest:
        Index of the receiving NPU.
    alpha:
        Link latency in seconds.
    beta:
        Serialization delay in seconds per byte (reciprocal of bandwidth).
        ``beta == 0`` models a pure-latency link (e.g. a control channel):
        transmissions occupy it for zero time and only pay ``alpha``
        (which must then be positive — a link cannot be free in both terms).
    """

    source: int
    dest: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise TopologyError(f"self-loop link on NPU {self.source} is not allowed")
        # NaN passes every ``< 0`` check and poisons TEN spans; infinity never
        # finishes a transfer.  Either way synthesis would later die with a
        # misleading "no path" or "stalled" error, so reject them here.
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(value):
                raise TopologyError(
                    f"link {self.source}->{self.dest} {name} cost must be finite, got {value}"
                )
        if self.alpha < 0:
            raise TopologyError(f"alpha must be non-negative, got {self.alpha}")
        if self.beta < 0:
            raise TopologyError(f"beta must be non-negative, got {self.beta}")
        if self.beta == 0 and self.alpha == 0:
            # A zero-cost link would create zero-length TEN spans, on which
            # the flat and reference synthesis engines legitimately diverge
            # (a transfer completing *at* the current time is visible to one
            # scan order but not the other); a pure-latency link must carry
            # real latency.
            raise TopologyError("link must have positive cost: alpha and beta cannot both be 0")

    @property
    def key(self) -> tuple[int, int]:
        """The ``(source, dest)`` pair identifying this link in a topology."""
        return (self.source, self.dest)

    @property
    def bandwidth_gbps(self) -> float:
        """Link bandwidth in GB/s (infinite for a pure-latency link)."""
        return beta_to_bandwidth(self.beta)

    @property
    def bytes_per_second(self) -> float:
        """Link bandwidth in bytes per second (infinite for ``beta == 0``)."""
        if self.beta == 0:
            return float("inf")
        return 1.0 / self.beta

    def cost(self, message_size: float) -> float:
        """Transmission time in seconds for a message of ``message_size`` bytes."""
        if message_size < 0:
            raise TopologyError(f"message size must be non-negative, got {message_size}")
        return self.alpha + self.beta * message_size

    def reversed(self) -> "Link":
        """Return the same link with source and destination swapped."""
        return replace(self, source=self.dest, dest=self.source)

    def scaled_bandwidth(self, factor: float) -> "Link":
        """Return a copy of this link whose bandwidth is divided by ``factor``.

        Used by switch unwinding (Sec. IV-G), where a degree-``d`` unwinding
        keeps alpha constant but multiplies beta by ``d`` because the physical
        switch port bandwidth is shared.
        """
        if factor <= 0:
            raise TopologyError(f"bandwidth sharing factor must be positive, got {factor}")
        return replace(self, beta=self.beta * factor)
