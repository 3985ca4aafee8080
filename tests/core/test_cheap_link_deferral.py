"""The lower-cost-link deferral (Sec. IV-F) on the heterogeneous blockwise path.

Large pass-1 rounds on heterogeneous topologies run through
``_run_direct_pass_blockwise``, whose vectorized prefilter drops pairs that
the deferral would skip anyway.  Two things keep that drop exact:

* preconditions on :meth:`Topology.cheaper_reachability_regions` — regions
  nest across cost tiers and every TEN link cost is either the cheapest cost
  or a bitwise key of the regions dict (pinned below on fixed topologies, in
  both directions, and on random heterogeneous ones);
* byte equality of the flat engine against the frozen reference engine on
  topologies large enough (128+ pending pairs) to reach the blockwise path,
  with a guard that the path really met pairs the deferral drops.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.matching as matching
from repro.bench.reference import REFERENCE_ENGINE
from repro.collectives import AllGather, AllReduce
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.core.synthesizer import FLAT_ENGINE
from repro.ten.network import TimeExpandedNetwork
from repro.topology import build_2d_switch, build_3d_rfs, build_dgx1
from tests.conftest import random_connected_topology

MB = 1e6

FIXED_TOPOLOGIES = {
    "rfs_3d-2x2x4": lambda: build_3d_rfs(2, 2, 4),
    "rfs_3d-4x2x4": lambda: build_3d_rfs(4, 2, 4),
    "switch_2d-4x8": lambda: build_2d_switch(4, 8),
    "dgx1-hetero": lambda: build_dgx1(heterogeneous=True),
}


def assert_deferral_preconditions(topology, chunk_size):
    regions = topology.cheaper_reachability_regions(chunk_size)
    tiers = sorted(regions)
    # Regions nest across tiers: a dearer tier allows a superset of links.
    for cheaper, dearer in zip(tiers, tiers[1:]):
        for dest in range(topology.num_npus):
            assert regions[cheaper][dest] <= regions[dearer][dest], (cheaper, dearer, dest)
    # Every link cost the matching sees is the cheapest tier (no region) or
    # a key of the regions dict under bitwise float equality.
    ten = TimeExpandedNetwork(topology, chunk_size)
    keys = set(regions)
    for cost in ten.link_costs:
        assert cost == ten.min_link_cost or cost in keys, cost
    assert ten.min_link_cost not in keys


class TestDeferralPreconditions:
    @pytest.mark.parametrize("name", sorted(FIXED_TOPOLOGIES))
    @pytest.mark.parametrize("chunk_size", [1e3, 0.25 * MB, 4 * MB])
    def test_fixed_topologies(self, name, chunk_size):
        topology = FIXED_TOPOLOGIES[name]()
        assert not topology.is_homogeneous()
        assert_deferral_preconditions(topology, chunk_size)
        assert_deferral_preconditions(topology.reversed(), chunk_size)

    @pytest.mark.parametrize("name", sorted(FIXED_TOPOLOGIES))
    def test_region_mask_is_the_dense_regions(self, name):
        topology = FIXED_TOPOLOGIES[name]()
        regions = topology.cheaper_reachability_regions(4 * MB)
        tier_costs, mask = topology.cheaper_region_mask(4 * MB)
        assert tier_costs.tolist() == sorted(regions)
        assert mask.shape == (len(regions), topology.num_npus, topology.num_npus)
        for tier, cost in enumerate(tier_costs.tolist()):
            for dest, region in enumerate(regions[cost]):
                assert set(mask[tier, dest].nonzero()[0].tolist()) == region
        assert topology.cheaper_region_mask(4 * MB) is topology.cheaper_region_mask(4 * MB)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        num_npus=st.integers(min_value=2, max_value=10),
        extra_links=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        chunk_size=st.floats(min_value=1.0, max_value=1e9),
    )
    def test_random_heterogeneous_topologies(self, num_npus, extra_links, seed, chunk_size):
        topology = random_connected_topology(
            num_npus, random.Random(seed), extra_links=extra_links, heterogeneous=True
        )
        assert_deferral_preconditions(topology, chunk_size)
        assert_deferral_preconditions(topology.reversed(), chunk_size)


EQUIVALENCE_TOPOLOGIES = {
    "rfs_3d-2x2x4": lambda: build_3d_rfs(2, 2, 4),
    "rfs_3d-4x2x4": lambda: build_3d_rfs(4, 2, 4),
    "switch_2d-4x8": lambda: build_2d_switch(4, 8),
}
PATTERNS = {"all_gather": AllGather, "all_reduce": AllReduce}
SEEDS = (1, 7, 123)


def _entry_deferrals(ten, state, time, prefer_lowest_cost, cheap_regions):
    """Pairs the Sec. IV-F deferral drops when a blockwise round starts.

    Computed from the round-frozen ``held`` mirror before any commit, i.e.
    what the first prefilter block sees: a matchable pair with an idle
    candidate whose cheapest candidate cost has a region containing a
    current holder of the chunk.
    """
    if not prefer_lowest_cost or not cheap_regions:
        return 0
    num_chunks = state.num_chunks
    threshold = time + matching._TIME_EPS
    held = state._held
    count = 0
    for code in state._pending_array().tolist():
        if state._pair_state[code] != matching._MATCHABLE:
            continue
        dest, chunk = divmod(code, num_chunks)
        costs = [
            ten.link_costs[link_id]
            for link_id in ten.in_link_ids(dest)
            if ten.free_times[link_id] <= threshold
            and held[ten.link_sources[link_id] * num_chunks + chunk]
        ]
        if not costs:
            continue
        region_by_dest = cheap_regions.get(min(costs))
        if region_by_dest is not None and any(
            held[holder * num_chunks + chunk] for holder in region_by_dest[dest]
        ):
            count += 1
    return count


@pytest.mark.native_equivalence
@pytest.mark.parametrize("pattern_name", sorted(PATTERNS))
@pytest.mark.parametrize("topology_name", sorted(EQUIVALENCE_TOPOLOGIES))
def test_flat_matches_reference_on_heterogeneous_blockwise_path(
    monkeypatch, topology_name, pattern_name
):
    blockwise = matching._run_direct_pass_blockwise
    deferrals = []

    def spy(ten, state, time, rng, transfers, idle_total, **options):
        deferrals.append(_entry_deferrals(ten, state, time, **options))
        return blockwise(ten, state, time, rng, transfers, idle_total, **options)

    monkeypatch.setattr(matching, "_run_direct_pass_blockwise", spy)
    for seed in SEEDS:
        topology = EQUIVALENCE_TOPOLOGIES[topology_name]()
        pattern = PATTERNS[pattern_name](topology.num_npus)
        results = [
            TacosSynthesizer(SynthesisConfig(seed=seed), engine=engine).synthesize(
                topology, pattern, 4 * MB
            )
            for engine in (FLAT_ENGINE, REFERENCE_ENGINE)
        ]
        flat, reference = (result.table.to_bytes() for result in results)
        assert flat == reference, seed
    # The cases must keep reaching the heterogeneous blockwise path with pairs
    # its filter-time deferral drops, or this test covers nothing.
    assert sum(deferrals) > 0
