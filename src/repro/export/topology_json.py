"""JSON (de)serialization of topologies.

Cluster operators describe their networks in configuration files rather than
Python code; this module defines a small, versioned JSON schema for arbitrary
(heterogeneous, asymmetric) topologies and converts it to and from
:class:`~repro.topology.topology.Topology`:

```json
{
  "format": "tacos-topology",
  "version": 1,
  "name": "my-cluster",
  "num_npus": 4,
  "links": [
    {"source": 0, "dest": 1, "alpha": 5e-07, "bandwidth_gbps": 50.0},
    {"source": 0, "dest": 2, "alpha": 1e-06, "bandwidth_gbps": 25.0,
     "bidirectional": true}
  ]
}
```
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.errors import TopologyError
from repro.topology.link import beta_to_bandwidth
from repro.topology.topology import Topology

__all__ = [
    "topology_to_dict",
    "topology_from_dict",
    "save_topology_json",
    "load_topology_json",
]

#: Identifier stored in every exported document.
_FORMAT = "tacos-topology"

#: Current schema version.
_VERSION = 1


def _link_rate_fields(link) -> Dict:
    """Serialize a link's rate as ``bandwidth_gbps``, or raw ``beta`` for a
    pure-latency (``beta == 0``) link — its bandwidth is infinite, and bare
    ``Infinity`` is not valid strict JSON."""
    if link.beta == 0:
        return {"beta": 0.0}
    return {"bandwidth_gbps": beta_to_bandwidth(link.beta)}


def topology_to_dict(topology: Topology) -> Dict:
    """Convert a topology into a JSON-serializable dictionary."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "name": topology.name,
        "num_npus": topology.num_npus,
        "links": [
            {
                "source": link.source,
                "dest": link.dest,
                "alpha": link.alpha,
                **_link_rate_fields(link),
            }
            for link in sorted(topology.links(), key=lambda item: item.key)
        ],
    }


def topology_from_dict(document: Dict) -> Topology:
    """Rebuild a topology from a dictionary produced by :func:`topology_to_dict`.

    Link entries may optionally carry ``"bidirectional": true`` (convenient for
    hand-written files) and may specify either ``bandwidth_gbps`` or ``beta``.
    """
    if document.get("format") != _FORMAT:
        raise TopologyError(f"not a {_FORMAT} document (format={document.get('format')!r})")
    if document.get("version") != _VERSION:
        raise TopologyError(
            f"unsupported topology document version {document.get('version')!r}; expected {_VERSION}"
        )
    try:
        topology = Topology(int(document["num_npus"]), name=str(document.get("name", "")))
        for entry in document["links"]:
            kwargs = {"alpha": float(entry.get("alpha", 0.0))}
            if "beta" in entry:
                kwargs["beta"] = float(entry["beta"])
            else:
                kwargs["bandwidth_gbps"] = float(entry["bandwidth_gbps"])
            topology.add_link(
                int(entry["source"]),
                int(entry["dest"]),
                bidirectional=bool(entry.get("bidirectional", False)),
                **kwargs,
            )
    except (KeyError, TypeError, ValueError) as error:
        raise TopologyError(f"malformed topology document: {error}") from error
    return topology


def save_topology_json(topology: Topology, path: Union[str, Path]) -> Path:
    """Write a topology to ``path`` as strict JSON; returns the path written."""
    path = Path(path)
    path.write_text(
        json.dumps(topology_to_dict(topology), indent=2, allow_nan=False), encoding="utf-8"
    )
    return path


def load_topology_json(path: Union[str, Path]) -> Topology:
    """Read a topology previously written by :func:`save_topology_json` (or by hand)."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise TopologyError(f"{path} is not valid JSON: {error}") from error
    return topology_from_dict(document)
