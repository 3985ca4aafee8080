"""Unit tests for the topology builders."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    DimensionSpec,
    build_2d_switch,
    build_3d_rfs,
    build_binary_hypercube,
    build_dgx1,
    build_dragonfly,
    build_fully_connected,
    build_hypercube_3d,
    build_mesh,
    build_mesh_2d,
    build_mesh_3d,
    build_multidim,
    build_ring,
    build_switch,
    build_torus,
    build_torus_2d,
    build_torus_3d,
    grid_coordinates,
    grid_index,
)


class TestRing:
    def test_bidirectional_link_count(self):
        topology = build_ring(8)
        assert topology.num_links == 16
        assert topology.is_symmetric()
        assert topology.is_connected()

    def test_unidirectional_link_count(self):
        topology = build_ring(8, bidirectional=False)
        assert topology.num_links == 8
        assert all(topology.out_degree(npu) == 1 for npu in topology.npus)

    def test_neighbours_are_adjacent_ranks(self):
        topology = build_ring(5, bidirectional=False)
        for npu in range(5):
            assert topology.has_link(npu, (npu + 1) % 5)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            build_ring(1)

    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_two_npus_get_one_link_each_way(self, bidirectional):
        topology = build_ring(2, bidirectional=bidirectional)
        assert list(topology.link_keys()) == [(0, 1), (1, 0)]

    def test_link_order_for_larger_rings_is_forward_then_reverse(self):
        assert list(build_ring(3).link_keys()) == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]

    def test_custom_parameters(self):
        topology = build_ring(4, alpha=30e-9, bandwidth_gbps=150.0)
        link = topology.link(0, 1)
        assert link.alpha == pytest.approx(30e-9)
        assert link.bandwidth_gbps == pytest.approx(150.0)


class TestFullyConnected:
    def test_link_count(self):
        topology = build_fully_connected(6)
        assert topology.num_links == 6 * 5
        assert topology.diameter_hops() == 1

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            build_fully_connected(1)


class TestGridIndexing:
    def test_roundtrip(self):
        dims = (3, 4, 5)
        for index in range(3 * 4 * 5):
            assert grid_index(grid_coordinates(index, dims), dims) == index

    def test_first_dimension_varies_fastest(self):
        assert grid_index((1, 0), (3, 4)) == 1
        assert grid_index((0, 1), (3, 4)) == 3

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(TopologyError):
            grid_index((3, 0), (3, 4))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(TopologyError):
            grid_coordinates(12, (3, 4))


class TestMesh:
    def test_2d_mesh_shape(self):
        topology = build_mesh_2d(3, 3)
        assert topology.num_npus == 9
        # 2 * (rows * (cols-1) + cols * (rows-1)) directed links.
        assert topology.num_links == 2 * (3 * 2 + 3 * 2)

    def test_2d_mesh_is_asymmetric(self):
        assert not build_mesh_2d(3, 3).is_symmetric()

    def test_corner_and_center_degrees(self):
        topology = build_mesh_2d(3, 3)
        degrees = sorted(topology.out_degree(npu) for npu in topology.npus)
        assert degrees == [2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_3d_mesh_connected(self):
        topology = build_mesh_3d(2, 2, 3)
        assert topology.num_npus == 12
        assert topology.is_connected()

    def test_mesh_rejects_empty_dims(self):
        with pytest.raises(TopologyError):
            build_mesh(())

    def test_mesh_rejects_single_npu(self):
        with pytest.raises(TopologyError):
            build_mesh((1, 1))


class TestTorus:
    def test_2d_torus_is_symmetric_and_regular(self):
        topology = build_torus_2d(4, 4)
        assert topology.is_symmetric()
        assert all(topology.out_degree(npu) == 4 for npu in topology.npus)

    def test_3d_torus_degree(self):
        topology = build_torus_3d(3, 3, 3)
        assert all(topology.out_degree(npu) == 6 for npu in topology.npus)

    def test_size_two_dimension_has_single_link_pair(self):
        topology = build_torus((2, 3))
        # Along the size-2 dimension each pair is connected once per direction.
        assert topology.has_link(0, 1) and topology.has_link(1, 0)
        assert topology.out_degree(0) == 3  # 1 along dim0 + 2 along dim1

    def test_torus_more_connected_than_mesh(self):
        assert build_torus((4, 4)).num_links > build_mesh((4, 4)).num_links


class TestHypercube:
    def test_hypercube_3d_is_a_mesh(self):
        topology = build_hypercube_3d(3, 3, 3)
        assert topology.num_npus == 27
        assert not topology.is_symmetric()
        assert "Hypercube3D" in topology.name

    def test_binary_hypercube_degree(self):
        topology = build_binary_hypercube(4)
        assert topology.num_npus == 16
        assert all(topology.out_degree(npu) == 4 for npu in topology.npus)

    def test_binary_hypercube_links_differ_in_one_bit(self):
        topology = build_binary_hypercube(3)
        for link in topology.links():
            xor = link.source ^ link.dest
            assert xor != 0 and (xor & (xor - 1)) == 0

    def test_binary_hypercube_rejects_zero_dimension(self):
        with pytest.raises(TopologyError):
            build_binary_hypercube(0)


class TestSwitch:
    def test_degree_one_unwinding_is_a_ring(self):
        topology = build_switch(6, unwind_degree=1)
        assert topology.num_links == 6
        for npu in range(6):
            assert topology.has_link(npu, (npu + 1) % 6)

    def test_full_degree_unwinding_is_fully_connected(self):
        topology = build_switch(5, unwind_degree=4)
        assert topology.num_links == 5 * 4

    def test_bandwidth_shared_across_unwound_links(self):
        base = build_switch(6, unwind_degree=1, bandwidth_gbps=120.0)
        shared = build_switch(6, unwind_degree=3, bandwidth_gbps=120.0)
        assert base.link(0, 1).bandwidth_gbps == pytest.approx(120.0)
        assert shared.link(0, 1).bandwidth_gbps == pytest.approx(40.0)

    def test_total_port_bandwidth_preserved(self):
        for degree in (1, 2, 3):
            topology = build_switch(6, unwind_degree=degree, bandwidth_gbps=120.0)
            assert topology.npu_egress_bandwidth(0) == pytest.approx(120e9)

    def test_invalid_degree_rejected(self):
        with pytest.raises(TopologyError):
            build_switch(4, unwind_degree=4)


class TestDragonFly:
    def test_shape_and_heterogeneity(self):
        topology = build_dragonfly(4, 5)
        assert topology.num_npus == 20
        assert not topology.is_homogeneous()
        assert not topology.is_symmetric()
        assert topology.is_connected()

    def test_local_links_fully_connect_groups(self):
        topology = build_dragonfly(3, 4, local_bandwidth_gbps=400.0, global_bandwidth_gbps=200.0)
        for member_a in range(4):
            for member_b in range(4):
                if member_a != member_b:
                    assert topology.has_link(member_a, member_b)

    def test_every_group_pair_has_a_global_link(self):
        num_groups, group_size = 4, 5
        topology = build_dragonfly(num_groups, group_size)
        for group_a in range(num_groups):
            for group_b in range(num_groups):
                if group_a == group_b:
                    continue
                crossing = any(
                    topology.has_link(group_a * group_size + a, group_b * group_size + b)
                    for a in range(group_size)
                    for b in range(group_size)
                )
                assert crossing

    def test_too_few_groups_rejected(self):
        with pytest.raises(TopologyError):
            build_dragonfly(1, 5)


class TestDgx1:
    def test_eight_gpus_degree_six(self):
        topology = build_dgx1()
        assert topology.num_npus == 8
        assert all(topology.out_degree(gpu) == 6 for gpu in topology.npus)
        assert all(topology.in_degree(gpu) == 6 for gpu in topology.npus)

    def test_links_are_bidirectional(self):
        topology = build_dgx1()
        for link in topology.links():
            assert topology.has_link(link.dest, link.source)


class TestMultiDim:
    def test_3d_rfs_shape(self):
        topology = build_3d_rfs(2, 4, 8)
        assert topology.num_npus == 64
        assert not topology.is_homogeneous()
        assert topology.is_connected()

    def test_3d_rfs_bandwidth_tiers(self):
        topology = build_3d_rfs(2, 4, 8, bandwidths_gbps=(200.0, 100.0, 50.0))
        bandwidths = {round(link.bandwidth_gbps) for link in topology.links()}
        assert bandwidths == {200, 100, 50}

    def test_2d_switch_shape(self):
        topology = build_2d_switch(8, 4, bandwidths_gbps=(300.0, 25.0))
        assert topology.num_npus == 32
        assert topology.is_connected()

    def test_dimension_spec_validation(self):
        with pytest.raises(TopologyError):
            DimensionSpec(kind="bogus", size=4, bandwidth_gbps=50.0)
        with pytest.raises(TopologyError):
            DimensionSpec(kind="ring", size=0, bandwidth_gbps=50.0)
        with pytest.raises(TopologyError):
            DimensionSpec(kind="switch", size=4, bandwidth_gbps=50.0, unwind_degree=5)

    def test_multidim_requires_dimensions(self):
        with pytest.raises(TopologyError):
            build_multidim([])

    def test_ring_times_ring_matches_torus_connectivity(self):
        dims = [
            DimensionSpec(kind="ring", size=4, bandwidth_gbps=50.0),
            DimensionSpec(kind="ring", size=4, bandwidth_gbps=50.0),
        ]
        composed = build_multidim(dims)
        torus = build_torus((4, 4))
        assert composed.num_npus == torus.num_npus
        assert set(composed.link_keys()) == set(torus.link_keys())

    def test_fully_connected_dimension(self):
        dims = [DimensionSpec(kind="fully_connected", size=4, bandwidth_gbps=50.0)]
        topology = build_multidim(dims)
        assert topology.num_links == 12

    def test_line_dimension_matches_mesh(self):
        dims = [
            DimensionSpec(kind="line", size=3, bandwidth_gbps=50.0),
            DimensionSpec(kind="line", size=3, bandwidth_gbps=50.0),
        ]
        composed = build_multidim(dims)
        mesh = build_mesh((3, 3))
        assert set(composed.link_keys()) == set(mesh.link_keys())
