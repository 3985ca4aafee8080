"""JSON (de)serialization of synthesized collective algorithms.

A synthesized :class:`~repro.core.algorithm.CollectiveAlgorithm` is a static
artifact that a collective communication library consumes at run time; being
able to persist it, diff it, and reload it is part of making the synthesizer
usable as a tool.  The format is a stable, versioned, plain-JSON document:

```json
{
  "format": "tacos-collective-algorithm",
  "version": 1,
  "pattern": "AllGather",
  "topology": "Mesh(3x3)",
  "num_npus": 9,
  "chunk_size": 1000000.0,
  "collective_size": 9000000.0,
  "metadata": {"seed": 0},
  "transfers": [
    {"chunk": 0, "source": 0, "dest": 1, "start": 0.0, "end": 2.05e-05},
    ...
  ]
}
```
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.core.algorithm import CollectiveAlgorithm
from repro.core.transfers import TransferTable
from repro.errors import ReproError

__all__ = [
    "algorithm_to_dict",
    "algorithm_from_dict",
    "save_algorithm_json",
    "load_algorithm_json",
]

#: Identifier stored in every exported document.
_FORMAT = "tacos-collective-algorithm"

#: Current schema version.
_VERSION = 1


def algorithm_to_dict(algorithm: CollectiveAlgorithm) -> Dict:
    """Convert an algorithm into a JSON-serializable dictionary.

    Transfers are emitted in full lexicographic ``(start, end, chunk, source,
    dest)`` order straight from the columnar IR — no :class:`ChunkTransfer`
    objects are materialized.
    """
    table = algorithm.table
    order = table.lexsorted_order()
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "pattern": algorithm.pattern_name,
        "topology": algorithm.topology_name,
        "num_npus": algorithm.num_npus,
        "chunk_size": algorithm.chunk_size,
        "collective_size": algorithm.collective_size,
        "metadata": {key: value for key, value in algorithm.metadata.items() if _is_plain(value)},
        "transfers": [
            {
                "chunk": chunk,
                "source": source,
                "dest": dest,
                "start": start,
                "end": end,
            }
            for chunk, source, dest, start, end in zip(
                table.chunks[order].tolist(),
                table.sources[order].tolist(),
                table.dests[order].tolist(),
                table.starts[order].tolist(),
                table.ends[order].tolist(),
            )
        ],
    }


def _is_plain(value: object) -> bool:
    """Whether a metadata value survives a JSON round trip unchanged."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_plain(item) for item in value)
    if isinstance(value, dict):
        return all(isinstance(key, str) and _is_plain(item) for key, item in value.items())
    return False


def algorithm_from_dict(document: Dict) -> CollectiveAlgorithm:
    """Rebuild an algorithm from a dictionary produced by :func:`algorithm_to_dict`."""
    if document.get("format") != _FORMAT:
        raise ReproError(
            f"not a {_FORMAT} document (format={document.get('format')!r})"
        )
    if document.get("version") != _VERSION:
        raise ReproError(
            f"unsupported document version {document.get('version')!r}; expected {_VERSION}"
        )
    try:
        entries = document["transfers"]
        table = TransferTable.from_columns(
            [entry["start"] for entry in entries],
            [entry["end"] for entry in entries],
            [entry["chunk"] for entry in entries],
            [entry["source"] for entry in entries],
            [entry["dest"] for entry in entries],
        )
        metadata = dict(document.get("metadata", {}))
        metadata.setdefault("imported", True)
        return CollectiveAlgorithm(
            table=table,
            num_npus=int(document["num_npus"]),
            chunk_size=float(document["chunk_size"]),
            collective_size=float(document["collective_size"]),
            pattern_name=str(document.get("pattern", "Collective")),
            topology_name=str(document.get("topology", "")),
            metadata=metadata,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ReproError(f"malformed collective algorithm document: {error}") from error


def save_algorithm_json(algorithm: CollectiveAlgorithm, path: Union[str, Path]) -> Path:
    """Write an algorithm to ``path`` as JSON; returns the path written."""
    path = Path(path)
    path.write_text(
        json.dumps(algorithm_to_dict(algorithm), indent=2, allow_nan=False), encoding="utf-8"
    )
    return path


def load_algorithm_json(path: Union[str, Path]) -> CollectiveAlgorithm:
    """Read an algorithm previously written by :func:`save_algorithm_json`."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ReproError(f"{path} is not valid JSON: {error}") from error
    return algorithm_from_dict(document)
