"""Export a synthesized algorithm as an MSCCL-style XML program.

Collective communication libraries in the MSCCL/MSCCLang ecosystem consume
XML "algorithm programs": per-GPU lists of threadblocks whose steps are
`send` / `recv` / `recv_reduce_copy` style operations referencing chunk
indices.  This exporter lowers a :class:`CollectiveAlgorithm` into that shape
so a synthesized algorithm can be inspected by (or adapted into) such
toolchains.

The output is a faithful structural lowering rather than a byte-exact NCCL
injection artifact: each physical link used by the algorithm becomes one
threadblock per GPU (one for its sends, one for its receives), and the steps
within a threadblock follow the synthesized transmission order.  Reduction
collectives emit ``rrc`` (receive-reduce-copy) receive steps; non-reducing
collectives emit plain ``recv`` steps.

The XML text is written directly from the algorithm's columns, with no
document tree in between.  It is byte-identical to the pretty-printed DOM
(``minidom`` ``toprettyxml(indent="  ")`` of an ``ElementTree``) this module
used to build: the same ``<?xml version="1.0" ?>`` header, two-space indent,
attributes in a fixed order, self-closing empty elements, and ``& < " >``
escaped in attribute values.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.core.algorithm import CollectiveAlgorithm
from repro.errors import ReproError

__all__ = ["algorithm_to_msccl_xml", "save_msccl_xml"]

# Everything outside XML 1.0's ``Char`` production; no XML document can carry it.
_NON_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _receive_opcode(pattern_name: str) -> str:
    """MSCCL receive opcode for the collective: reduce-copy for reducing patterns."""
    reducing = pattern_name in ("ReduceScatter", "Reduce", "AllReduce")
    return "rrc" if reducing else "recv"


def _attribute(label: str, value: str) -> str:
    """``value`` escaped for a double-quoted attribute; ``label`` names it in errors."""
    illegal = _NON_XML_CHAR.search(value)
    if illegal is not None:
        raise ReproError(
            f"MSCCL XML {label} {value!r} contains {illegal.group()!r}, which XML cannot carry"
        )
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;").replace(">", "&gt;")
    )


def algorithm_to_msccl_xml(algorithm: CollectiveAlgorithm, *, proto: str = "Simple") -> str:
    """Render ``algorithm`` as an MSCCL-style XML string.

    The per-GPU threadblock groups are derived straight from the algorithm's
    columnar IR: one lexicographic sort gives the in-block step order, a
    second stable grouping pass splits the chunk column per ``(gpu, peer)``
    pair — no :class:`~repro.core.algorithm.ChunkTransfer` objects are
    materialized — and each step is written as one line of text.
    """
    table = algorithm.table
    if not len(table):
        raise ReproError("cannot export an empty collective algorithm")

    collective = _attribute("collective name", algorithm.pattern_name.lower())
    lines = [
        '<?xml version="1.0" ?>\n',
        f'<algo name="tacos-{collective}" proto="{_attribute("proto", proto)}" '
        f'ngpus="{algorithm.num_npus}" coll="{collective}" nchunksperloop="{table.num_chunks}">\n',
    ]

    # Steps within a threadblock follow the synthesized transmission order —
    # the full lexicographic transfer order restricted to the block's pair.
    order = table.lexsorted_order()
    chunk_column = table.chunks[order]
    sends_per_gpu = _grouped_chunks(table.sources[order], table.dests[order], chunk_column)
    receives_per_gpu = _grouped_chunks(table.dests[order], table.sources[order], chunk_column)

    receive_opcode = _receive_opcode(algorithm.pattern_name)
    for gpu in range(algorithm.num_npus):
        blocks = [
            (f'send="{peer}" recv="-1"', "s", chunks)
            for peer, chunks in sorted(sends_per_gpu.get(gpu, {}).items())
        ]
        blocks += [
            (f'send="-1" recv="{peer}"', receive_opcode, chunks)
            for peer, chunks in sorted(receives_per_gpu.get(gpu, {}).items())
        ]
        if not blocks:
            lines.append(f'  <gpu id="{gpu}"/>\n')
            continue
        lines.append(f'  <gpu id="{gpu}">\n')
        for threadblock_id, (endpoints, opcode, chunks) in enumerate(blocks):
            lines.append(f'    <tb id="{threadblock_id}" {endpoints} chan="0">\n')
            lines.extend(
                f'      <step s="{step_index}" type="{opcode}" srcbuf="o" srcoff="{chunk}" '
                f'dstbuf="o" dstoff="{chunk}" cnt="1" depid="-1" deps="-1" hasdep="0"/>\n'
                for step_index, chunk in enumerate(chunks)
            )
            lines.append("    </tb>\n")
        lines.append("  </gpu>\n")
    lines.append("</algo>\n")
    return "".join(lines)


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


def save_msccl_xml(algorithm: CollectiveAlgorithm, path: Union[str, Path], *, proto: str = "Simple") -> Path:
    """Write the MSCCL-style XML rendering of ``algorithm`` to ``path`` as UTF-8."""
    path = Path(path)
    path.write_text(algorithm_to_msccl_xml(algorithm, proto=proto), encoding="utf-8")
    return path
