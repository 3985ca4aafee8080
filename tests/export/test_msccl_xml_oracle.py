"""Byte-identity oracle for the MSCCL XML writer.

``algorithm_to_msccl_xml`` writes its text straight from the algorithm's
columns.  The renderer it replaced built an ``ElementTree`` and pretty-printed
it through ``minidom``; that renderer is frozen below, verbatim, as the
reference the direct writer must match byte for byte.
"""

import sys
from typing import Dict, List
from xml.dom import minidom
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import AllGather, AllReduce, AllToAll, ReduceScatter
from repro.core import ChunkTransfer, CollectiveAlgorithm, TacosSynthesizer
from repro.errors import ReproError
from repro.export import algorithm_to_msccl_xml
from repro.topology import build_2d_switch, build_hypercube_3d, build_mesh_2d

MB = 1e6

# --- frozen reference: the ElementTree + minidom renderer, verbatim ---------


def _receive_opcode(pattern_name: str) -> str:
    """MSCCL receive opcode for the collective: reduce-copy for reducing patterns."""
    reducing = pattern_name in ("ReduceScatter", "Reduce", "AllReduce")
    return "rrc" if reducing else "recv"


def reference_msccl_xml(algorithm: CollectiveAlgorithm, *, proto: str = "Simple") -> str:
    table = algorithm.table
    if not len(table):
        raise ReproError("cannot export an empty collective algorithm")

    root = ElementTree.Element(
        "algo",
        name=f"tacos-{algorithm.pattern_name.lower()}",
        proto=proto,
        ngpus=str(algorithm.num_npus),
        coll=algorithm.pattern_name.lower(),
        nchunksperloop=str(table.num_chunks),
    )

    # Steps within a threadblock follow the synthesized transmission order —
    # the full lexicographic transfer order restricted to the block's pair.
    order = table.lexsorted_order()
    chunk_column = table.chunks[order]
    sends_per_gpu = _grouped_chunks(table.sources[order], table.dests[order], chunk_column)
    receives_per_gpu = _grouped_chunks(table.dests[order], table.sources[order], chunk_column)

    receive_opcode = _receive_opcode(algorithm.pattern_name)

    for gpu in range(algorithm.num_npus):
        gpu_element = ElementTree.SubElement(root, "gpu", id=str(gpu))
        threadblock_id = 0
        for peer, outgoing in sorted(sends_per_gpu.get(gpu, {}).items()):
            block = ElementTree.SubElement(
                gpu_element, "tb", id=str(threadblock_id), send=str(peer), recv="-1", chan="0"
            )
            for step_index, chunk in enumerate(outgoing):
                ElementTree.SubElement(
                    block,
                    "step",
                    s=str(step_index),
                    type="s",
                    srcbuf="o",
                    srcoff=str(chunk),
                    dstbuf="o",
                    dstoff=str(chunk),
                    cnt="1",
                    depid="-1",
                    deps="-1",
                    hasdep="0",
                )
            threadblock_id += 1
        for peer, incoming in sorted(receives_per_gpu.get(gpu, {}).items()):
            block = ElementTree.SubElement(
                gpu_element, "tb", id=str(threadblock_id), send="-1", recv=str(peer), chan="0"
            )
            for step_index, chunk in enumerate(incoming):
                ElementTree.SubElement(
                    block,
                    "step",
                    s=str(step_index),
                    type=receive_opcode,
                    srcbuf="o",
                    srcoff=str(chunk),
                    dstbuf="o",
                    dstoff=str(chunk),
                    cnt="1",
                    depid="-1",
                    deps="-1",
                    hasdep="0",
                )
            threadblock_id += 1

    raw = ElementTree.tostring(root, encoding="unicode")
    return minidom.parseString(raw).toprettyxml(indent="  ")


def _grouped_chunks(gpus, peers, chunks) -> Dict[int, Dict[int, List[int]]]:
    """``{gpu: {peer: [chunk, ...]}}`` with chunk lists in input order."""
    stride = int(max(int(gpus.max()), int(peers.max()))) + 1
    codes = gpus * stride + peers
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    grouped: Dict[int, Dict[int, List[int]]] = {}
    for members in np.split(order, boundaries):
        gpu, peer = divmod(int(codes[members[0]]), stride)
        grouped.setdefault(gpu, {})[peer] = chunks[members].tolist()
    return grouped


# --- cases -------------------------------------------------------------------

TOPOLOGIES = {
    "mesh3x3": lambda: build_mesh_2d(3, 3),
    "hypercube2x2x2": lambda: build_hypercube_3d(2, 2, 2),
    "switch2d-2x4": lambda: build_2d_switch(2, 4),
}
PATTERNS = {
    "all_reduce": AllReduce,
    "reduce_scatter": ReduceScatter,
    "all_gather": AllGather,
    "all_to_all": AllToAll,
}


def _synthesize(topology_name: str, pattern_name: str) -> CollectiveAlgorithm:
    topology = TOPOLOGIES[topology_name]()
    pattern = PATTERNS[pattern_name](topology.num_npus)
    return TacosSynthesizer().synthesize(topology, pattern, topology.num_npus * MB)


@pytest.fixture(scope="module")
def mesh_all_gather():
    return _synthesize("mesh3x3", "all_gather")


# Python 3.13 taught minidom to write tab, newline and carriage return in
# attribute values as character references, so there the frozen reference
# itself changes for those characters; the writer keeps the 3.9-3.12 bytes.
_MINIDOM_ESCAPES_ATTRIBUTE_WHITESPACE = sys.version_info >= (3, 13)


@pytest.mark.parametrize("pattern_name", sorted(PATTERNS))
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_synthesized_algorithm_matches_reference(topology_name, pattern_name):
    algorithm = _synthesize(topology_name, pattern_name)
    assert algorithm_to_msccl_xml(algorithm) == reference_msccl_xml(algorithm)


def test_idle_npu_gets_a_self_closing_gpu_element():
    # NPU 2 neither sends nor receives; NPU 1 both receives and forwards.
    algorithm = CollectiveAlgorithm(
        [
            ChunkTransfer(start=0.0, end=1.0, chunk=0, source=0, dest=1),
            ChunkTransfer(start=1.0, end=2.0, chunk=0, source=1, dest=3),
            ChunkTransfer(start=0.0, end=1.0, chunk=1, source=3, dest=1),
            ChunkTransfer(start=1.0, end=2.0, chunk=1, source=1, dest=0),
        ],
        num_npus=4,
        chunk_size=1.0,
        collective_size=4.0,
        pattern_name="AllGather",
    )
    text = algorithm_to_msccl_xml(algorithm)
    assert text == reference_msccl_xml(algorithm)
    assert '  <gpu id="2"/>\n' in text


@pytest.mark.parametrize("proto", ["Simple", "LL128", 'a&b"<>', "x'y", "café", "\U0001f680"])
def test_special_protos_match_reference(mesh_all_gather, proto):
    text = algorithm_to_msccl_xml(mesh_all_gather, proto=proto)
    assert text == reference_msccl_xml(mesh_all_gather, proto=proto)


def test_whitespace_in_proto_is_written_raw(mesh_all_gather):
    text = algorithm_to_msccl_xml(mesh_all_gather, proto="a\nb\tc\rd")
    assert ' proto="a\nb\tc\rd" ' in text
    if not _MINIDOM_ESCAPES_ATTRIBUTE_WHITESPACE:
        assert text == reference_msccl_xml(mesh_all_gather, proto="a\nb\tc\rd")


def _xml_char(codepoint: int) -> bool:
    return (
        codepoint in (0x9, 0xA, 0xD)
        or 0x20 <= codepoint <= 0xD7FF
        or 0xE000 <= codepoint <= 0xFFFD
        or codepoint >= 0x10000
    )


_PROTO_CHARACTERS = st.one_of(
    st.sampled_from(list("&<>\"'\n\t\r") + ["é", "ß", "中", "\U0001f680", "\x7f", "\ufffd"]),
    st.characters(blacklist_categories=("Cs",)),
).filter(lambda ch: _xml_char(ord(ch)))
if _MINIDOM_ESCAPES_ATTRIBUTE_WHITESPACE:
    _PROTO_CHARACTERS = _PROTO_CHARACTERS.filter(lambda ch: ch not in "\t\n\r")


@settings(max_examples=200, deadline=None)
@given(proto=st.text(_PROTO_CHARACTERS, max_size=24))
def test_any_xml_legal_proto_matches_reference(mesh_all_gather, proto):
    assert algorithm_to_msccl_xml(mesh_all_gather, proto=proto) == reference_msccl_xml(
        mesh_all_gather, proto=proto
    )


@pytest.mark.parametrize("proto", ["bad\x01proto", "\x00", "\ufffe", "\uffff", "lone\ud800"])
def test_proto_xml_cannot_carry_raises_repro_error(mesh_all_gather, proto):
    with pytest.raises(ReproError, match="XML cannot carry"):
        algorithm_to_msccl_xml(mesh_all_gather, proto=proto)

