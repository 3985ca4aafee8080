"""Tests for the declarative spec dataclasses and their JSON round-trip."""

import json

import pytest

from repro.api.specs import (
    AlgorithmSpec,
    CollectiveSpec,
    RunSpec,
    SimulationSpec,
    TopologySpec,
    parse_size,
    topology_to_spec,
)
from repro.errors import SpecError
from repro.topology import build_mesh, build_ring


def make_run_spec(**overrides):
    base = dict(
        topology=TopologySpec(name="mesh", params={"dims": (3, 3)}),
        collective=CollectiveSpec(name="all_reduce", collective_size=64e6, chunks_per_npu=2),
        algorithm=AlgorithmSpec(name="tacos", params={"trials": 3, "seed": 7}),
        simulation=SimulationSpec(),
        label="fig14-like",
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec(name="ring", params={"num_npus": 8}),
            TopologySpec(name="mesh", params={"dims": (4, 4)}),
            CollectiveSpec(name="all_gather", collective_size=1e6),
            CollectiveSpec(name="broadcast", params={"root": 2}),
            AlgorithmSpec(name="taccl_like", params={"restarts": 5}),
            SimulationSpec(routing_message_size=1e5),
        ],
    )
    def test_simple_specs_round_trip(self, spec):
        assert type(spec).from_dict(spec.to_dict()) == spec
        assert type(spec).from_json(spec.to_json()) == spec

    def test_run_spec_round_trips_through_dict_and_json(self):
        spec = make_run_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json(indent=2)) == spec

    def test_tuples_normalize_to_lists(self):
        spec = TopologySpec(name="mesh", params={"dims": (3, 3)})
        assert spec.params["dims"] == [3, 3]
        assert spec == TopologySpec(name="mesh", params={"dims": [3, 3]})

    def test_to_json_is_valid_json(self):
        document = json.loads(make_run_spec().to_json())
        assert document["topology"]["name"] == "mesh"
        assert document["algorithm"]["params"]["trials"] == 3

    def test_unknown_keys_are_ignored(self):
        data = TopologySpec(name="ring", params={"num_npus": 4}).to_dict()
        data["future_field"] = "whatever"
        assert TopologySpec.from_dict(data) == TopologySpec(name="ring", params={"num_npus": 4})

    def test_defaults_fill_in_missing_sections(self):
        spec = RunSpec.from_dict(
            {"topology": {"name": "ring", "params": {"num_npus": 4}},
             "collective": {"name": "all_gather"}}
        )
        assert spec.algorithm == AlgorithmSpec()
        assert spec.simulation == SimulationSpec()


class TestHashing:
    def test_hash_stable_across_round_trip(self):
        spec = make_run_spec()
        clone = RunSpec.from_json(spec.to_json())
        assert spec.spec_hash() == clone.spec_hash()
        assert hash(spec) == hash(clone)

    def test_hash_differs_for_different_specs(self):
        spec = make_run_spec()
        other = make_run_spec(label="other")
        assert spec.spec_hash() != other.spec_hash()

    def test_specs_usable_as_dict_keys(self):
        spec = make_run_spec()
        clone = RunSpec.from_dict(spec.to_dict())
        assert {spec: 1}[clone] == 1


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(SpecError):
            TopologySpec(name="")

    def test_non_json_param_rejected(self):
        with pytest.raises(SpecError):
            AlgorithmSpec(name="tacos", params={"fn": object()})

    def test_nonpositive_size_rejected(self):
        with pytest.raises(SpecError):
            CollectiveSpec(name="all_gather", collective_size=0)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_size_rejected(self, size):
        with pytest.raises(SpecError, match="must be finite"):
            CollectiveSpec(name="all_gather", collective_size=size)

    def test_run_spec_rejects_plain_dict_sections(self):
        with pytest.raises(SpecError):
            RunSpec(topology={"name": "ring"}, collective=CollectiveSpec(name="all_gather"))

    def test_from_dict_requires_topology_and_collective(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict({"collective": {"name": "all_gather"}})


class TestTopologyToSpec:
    def test_round_trips_an_arbitrary_topology(self):
        from repro.api.runner import build_topology

        topology = build_mesh((2, 3))
        spec = topology_to_spec(topology)
        rebuilt = build_topology(TopologySpec.from_dict(spec.to_dict()))
        assert rebuilt == topology
        assert rebuilt.name == topology.name

    def test_preserves_link_insertion_order(self):
        topology = build_ring(4)
        spec = topology_to_spec(topology)
        sources_dests = [(link[0], link[1]) for link in spec.params["links"]]
        assert sources_dests == list(topology.link_keys())


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [("4MB", 4e6), ("1.5GB", 1.5e9), ("512KB", 512e3), ("100", 100.0),
         ("4e6", 4e6), ("2B", 2.0), ("1TB", 1e12), ("16 MB", 16e6)],
    )
    def test_accepts_human_sizes(self, text, expected):
        assert parse_size(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(SpecError):
            parse_size("lots")
