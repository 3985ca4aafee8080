"""Unit tests for the alpha-beta link model."""

import math

import pytest

from repro.errors import TopologyError
from repro.topology import Topology
from repro.topology.link import GIGABYTE, Link, bandwidth_to_beta, beta_to_bandwidth


class TestBandwidthConversion:
    def test_bandwidth_to_beta_roundtrip(self):
        beta = bandwidth_to_beta(50.0)
        assert beta_to_bandwidth(beta) == pytest.approx(50.0)

    def test_bandwidth_to_beta_value(self):
        # 50 GB/s means 1 byte takes 1 / 50e9 seconds.
        assert bandwidth_to_beta(50.0) == pytest.approx(1.0 / (50.0 * GIGABYTE))

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(TopologyError):
            bandwidth_to_beta(0.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(TopologyError):
            bandwidth_to_beta(-1.0)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        with pytest.raises(TopologyError, match="bandwidth must be finite"):
            bandwidth_to_beta(bandwidth)

    def test_zero_beta_is_infinite_bandwidth(self):
        assert beta_to_bandwidth(0.0) == math.inf

    def test_negative_beta_rejected(self):
        with pytest.raises(TopologyError):
            beta_to_bandwidth(-1e-11)


class TestLink:
    def test_cost_combines_alpha_and_beta(self):
        link = Link(source=0, dest=1, alpha=0.5e-6, beta=bandwidth_to_beta(50.0))
        expected = 0.5e-6 + 1e6 / (50.0 * GIGABYTE)
        assert link.cost(1e6) == pytest.approx(expected)

    def test_zero_size_cost_is_alpha(self):
        link = Link(source=0, dest=1, alpha=2e-6, beta=1e-11)
        assert link.cost(0.0) == pytest.approx(2e-6)

    def test_negative_size_rejected(self):
        link = Link(source=0, dest=1, alpha=1e-6, beta=1e-11)
        with pytest.raises(TopologyError):
            link.cost(-1.0)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link(source=2, dest=2, alpha=1e-6, beta=1e-11)

    def test_negative_alpha_rejected(self):
        with pytest.raises(TopologyError):
            Link(source=0, dest=1, alpha=-1e-6, beta=1e-11)

    def test_negative_link_beta_rejected(self):
        with pytest.raises(TopologyError):
            Link(source=0, dest=1, alpha=1e-6, beta=-1e-11)

    def test_zero_beta_link_is_pure_latency(self):
        link = Link(source=0, dest=1, alpha=1e-6, beta=0.0)
        assert link.cost(1e9) == pytest.approx(1e-6)
        assert link.bandwidth_gbps == math.inf
        assert link.bytes_per_second == math.inf

    def test_zero_cost_link_rejected(self):
        # alpha == beta == 0 would create zero-length TEN spans, on which the
        # synthesis engines legitimately diverge.
        with pytest.raises(TopologyError):
            Link(source=0, dest=1, alpha=0.0, beta=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, field, value):
        costs = {"alpha": 1e-6, "beta": 1e-11, field: value}
        with pytest.raises(TopologyError, match=f"{field} cost must be finite"):
            Link(source=0, dest=1, **costs)

    def test_non_finite_cost_rejected_through_add_link(self):
        topology = Topology(2)
        with pytest.raises(TopologyError, match="alpha cost must be finite"):
            topology.add_link(0, 1, alpha=math.nan, bandwidth_gbps=50.0)
        with pytest.raises(TopologyError, match="bandwidth must be finite"):
            topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=math.nan)
        assert topology.num_links == 0

    def test_key(self):
        link = Link(source=3, dest=7, alpha=1e-6, beta=1e-11)
        assert link.key == (3, 7)

    def test_bandwidth_property(self):
        link = Link(source=0, dest=1, alpha=1e-6, beta=bandwidth_to_beta(100.0))
        assert link.bandwidth_gbps == pytest.approx(100.0)

    def test_reversed_swaps_endpoints(self):
        link = Link(source=1, dest=4, alpha=1e-6, beta=1e-11)
        reverse = link.reversed()
        assert reverse.source == 4
        assert reverse.dest == 1
        assert reverse.alpha == link.alpha
        assert reverse.beta == link.beta

    def test_scaled_bandwidth_multiplies_beta(self):
        link = Link(source=0, dest=1, alpha=1e-6, beta=1e-11)
        shared = link.scaled_bandwidth(4)
        assert shared.beta == pytest.approx(4e-11)
        assert shared.alpha == pytest.approx(1e-6)

    def test_scaled_bandwidth_rejects_non_positive_factor(self):
        link = Link(source=0, dest=1, alpha=1e-6, beta=1e-11)
        with pytest.raises(TopologyError):
            link.scaled_bandwidth(0)

    def test_links_are_hashable_and_comparable(self):
        a = Link(source=0, dest=1, alpha=1e-6, beta=1e-11)
        b = Link(source=0, dest=1, alpha=1e-6, beta=1e-11)
        assert a == b
        assert hash(a) == hash(b)
