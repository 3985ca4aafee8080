"""Tests for algorithm and topology persistence (JSON and MSCCL-style XML)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from xml.etree import ElementTree

import pytest

from repro.collectives import AllGather, AllReduce
from repro.core import TacosSynthesizer, verify_algorithm
from repro.errors import ReproError, TopologyError
from repro.export import (
    algorithm_from_dict,
    algorithm_to_dict,
    algorithm_to_msccl_xml,
    load_algorithm_json,
    load_topology_json,
    save_algorithm_json,
    save_msccl_xml,
    save_topology_json,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology import build_dragonfly, build_mesh_2d, build_ring

MB = 1e6
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def mesh_algorithm():
    topology = build_mesh_2d(3, 3)
    pattern = AllGather(9)
    return topology, pattern, TacosSynthesizer().synthesize(topology, pattern, 9 * MB)


class TestAlgorithmJson:
    def test_dict_round_trip_preserves_transfers(self, mesh_algorithm):
        topology, pattern, algorithm = mesh_algorithm
        restored = algorithm_from_dict(algorithm_to_dict(algorithm))
        assert sorted(restored.transfers) == sorted(algorithm.transfers)
        assert restored.num_npus == algorithm.num_npus
        assert restored.chunk_size == pytest.approx(algorithm.chunk_size)
        assert restored.pattern_name == algorithm.pattern_name

    def test_restored_algorithm_still_verifies(self, mesh_algorithm):
        topology, pattern, algorithm = mesh_algorithm
        restored = algorithm_from_dict(algorithm_to_dict(algorithm))
        assert verify_algorithm(restored, topology, pattern)

    def test_file_round_trip(self, mesh_algorithm, tmp_path):
        _, _, algorithm = mesh_algorithm
        path = save_algorithm_json(algorithm, tmp_path / "algorithm.json")
        restored = load_algorithm_json(path)
        assert restored.collective_time == pytest.approx(algorithm.collective_time)

    def test_document_is_valid_json_with_schema_fields(self, mesh_algorithm, tmp_path):
        _, _, algorithm = mesh_algorithm
        path = save_algorithm_json(algorithm, tmp_path / "algorithm.json")
        document = json.loads(path.read_text())
        assert document["format"] == "tacos-collective-algorithm"
        assert document["version"] == 1
        assert len(document["transfers"]) == algorithm.num_transfers

    def test_wrong_format_rejected(self):
        with pytest.raises(ReproError):
            algorithm_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self, mesh_algorithm):
        _, _, algorithm = mesh_algorithm
        document = algorithm_to_dict(algorithm)
        document["version"] = 99
        with pytest.raises(ReproError):
            algorithm_from_dict(document)

    def test_malformed_document_rejected(self):
        with pytest.raises(ReproError):
            algorithm_from_dict(
                {"format": "tacos-collective-algorithm", "version": 1, "transfers": [{}]}
            )

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ReproError):
            load_algorithm_json(path)

    def test_non_serializable_metadata_is_dropped(self, mesh_algorithm):
        _, _, algorithm = mesh_algorithm
        algorithm.metadata["callable"] = lambda: None
        document = algorithm_to_dict(algorithm)
        assert "callable" not in document["metadata"]
        json.dumps(document)  # must be serializable


class TestMscclXml:
    def test_xml_structure(self, mesh_algorithm):
        _, _, algorithm = mesh_algorithm
        xml_text = algorithm_to_msccl_xml(algorithm)
        root = ElementTree.fromstring(xml_text)
        assert root.tag == "algo"
        assert int(root.attrib["ngpus"]) == 9
        assert root.attrib["coll"] == "allgather"
        gpus = root.findall("gpu")
        assert len(gpus) == 9
        total_send_steps = sum(
            len(tb.findall("step"))
            for gpu in gpus
            for tb in gpu.findall("tb")
            if tb.attrib["send"] != "-1"
        )
        assert total_send_steps == algorithm.num_transfers

    def test_reduction_collective_uses_rrc_steps(self):
        topology = build_ring(4)
        pattern = AllReduce(4)
        algorithm = TacosSynthesizer().synthesize(topology, pattern, 4 * MB)
        root = ElementTree.fromstring(algorithm_to_msccl_xml(algorithm))
        receive_types = {
            step.attrib["type"]
            for gpu in root.findall("gpu")
            for tb in gpu.findall("tb")
            if tb.attrib["recv"] != "-1"
            for step in tb.findall("step")
        }
        assert receive_types == {"rrc"}

    def test_empty_algorithm_rejected(self):
        from repro.core import CollectiveAlgorithm

        empty = CollectiveAlgorithm([], num_npus=2, chunk_size=1.0, collective_size=2.0)
        with pytest.raises(ReproError):
            algorithm_to_msccl_xml(empty)

    def test_save_to_file(self, mesh_algorithm, tmp_path):
        _, _, algorithm = mesh_algorithm
        path = save_msccl_xml(algorithm, tmp_path / "algo.xml")
        assert path.exists()
        ElementTree.fromstring(path.read_text())


class TestUtf8OnDisk:
    """Exports are UTF-8 files whatever the locale, and the readers decode UTF-8."""

    def test_msccl_xml_non_ascii_proto_round_trips(self, mesh_algorithm, tmp_path):
        _, _, algorithm = mesh_algorithm
        path = save_msccl_xml(algorithm, tmp_path / "algo.xml", proto="Ŝimple→")
        raw = path.read_bytes()
        assert 'proto="Ŝimple→"'.encode("utf-8") in raw
        assert ElementTree.fromstring(raw).attrib["proto"] == "Ŝimple→"

    def test_algorithm_json_non_ascii_round_trips(self, mesh_algorithm, tmp_path):
        _, _, algorithm = mesh_algorithm
        document = algorithm_to_dict(algorithm)
        document["topology"] = "Maille-café"
        path = tmp_path / "algorithm.json"
        path.write_bytes(json.dumps(document, ensure_ascii=False).encode("utf-8"))
        restored = load_algorithm_json(path)
        assert restored.topology_name == "Maille-café"
        saved = save_algorithm_json(restored, tmp_path / "again.json")
        assert json.loads(saved.read_bytes().decode("utf-8"))["topology"] == "Maille-café"

    def test_topology_json_non_ascii_round_trips(self, tmp_path):
        document = topology_to_dict(build_ring(3))
        document["name"] = "Anneau-é"
        path = tmp_path / "topology.json"
        path.write_bytes(json.dumps(document, ensure_ascii=False).encode("utf-8"))
        restored = load_topology_json(path)
        assert restored.name == "Anneau-é"
        saved = save_topology_json(restored, tmp_path / "again.json")
        assert json.loads(saved.read_bytes().decode("utf-8"))["name"] == "Anneau-é"

    def test_ascii_locale_still_writes_and_reads_utf8(self, tmp_path):
        """An interpreter whose locale encoding is ASCII round-trips non-ASCII text."""
        script = textwrap.dedent(
            """
            import json, sys
            from repro.collectives import AllGather
            from repro.core import TacosSynthesizer
            from repro.export import load_topology_json, save_msccl_xml, topology_to_dict
            from repro.topology import build_ring

            ring = build_ring(3)
            algorithm = TacosSynthesizer().synthesize(ring, AllGather(3), 3e6)
            save_msccl_xml(algorithm, sys.argv[1] + "/algo.xml", proto="caf\\u00e9")
            document = dict(topology_to_dict(ring), name="Anneau-\\u00e9")
            with open(sys.argv[1] + "/topology.json", "wb") as handle:
                handle.write(json.dumps(document, ensure_ascii=False).encode("utf-8"))
            assert load_topology_json(sys.argv[1] + "/topology.json").name == document["name"]
            """
        )
        environment = dict(os.environ, PYTHONPATH=SRC, LC_ALL="C", LANG="C")
        environment.update(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=environment, check=True)
        assert 'proto="café"'.encode("utf-8") in (tmp_path / "algo.xml").read_bytes()

class TestTopologyJson:
    def test_round_trip_preserves_links(self):
        topology = build_dragonfly(3, 4)
        restored = topology_from_dict(topology_to_dict(topology))
        assert restored == topology
        assert restored.name == topology.name

    def test_file_round_trip(self, tmp_path):
        topology = build_mesh_2d(3, 3)
        path = save_topology_json(topology, tmp_path / "topology.json")
        restored = load_topology_json(path)
        assert restored == topology

    def test_hand_written_document_with_bidirectional_links(self):
        document = {
            "format": "tacos-topology",
            "version": 1,
            "name": "hand-made",
            "num_npus": 3,
            "links": [
                {"source": 0, "dest": 1, "alpha": 1e-6, "bandwidth_gbps": 50.0, "bidirectional": True},
                {"source": 1, "dest": 2, "alpha": 1e-6, "beta": 2e-11, "bidirectional": True},
            ],
        }
        topology = topology_from_dict(document)
        assert topology.num_links == 4
        assert topology.has_link(2, 1)
        assert topology.link(1, 2).beta == pytest.approx(2e-11)

    def test_pure_latency_link_round_trips_as_strict_json(self, tmp_path):
        """Regression: a beta=0 link must not serialize its bandwidth as the
        bare `Infinity` constant (invalid strict JSON)."""
        import json

        from repro.topology import Topology

        topology = Topology(2, name="control-plane")
        topology.add_link(0, 1, alpha=1e-6, beta=0.0)
        path = save_topology_json(topology, tmp_path / "topology.json")

        def reject(constant):
            raise AssertionError(f"non-finite constant {constant!r} in export")

        json.loads(path.read_text(), parse_constant=reject)
        restored = load_topology_json(path)
        assert restored == topology
        assert restored.link(0, 1).beta == 0.0

    def test_wrong_format_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"format": "nope", "version": 1})

    def test_malformed_document_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict(
                {"format": "tacos-topology", "version": 1, "num_npus": 2, "links": [{"source": 0}]}
            )

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2,")
        with pytest.raises(TopologyError):
            load_topology_json(path)

    def test_loaded_topology_is_synthesizable(self, tmp_path):
        topology = build_mesh_2d(2, 3)
        path = save_topology_json(topology, tmp_path / "mesh.json")
        restored = load_topology_json(path)
        algorithm = TacosSynthesizer().synthesize(restored, AllGather(6), 6 * MB)
        assert verify_algorithm(algorithm, restored, AllGather(6))
