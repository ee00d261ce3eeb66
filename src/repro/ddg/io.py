"""DDG serialization: JSON round-trip and a tiny text format.

The JSON schema is deliberately boring so loops can be produced by any
external tool (a real compiler frontend, a trace analyzer, a script):

```json
{
  "name": "daxpy",
  "nodes": [{"name": "i", "op": "int_arith"}, ...],
  "edges": [{"src": "i", "dst": "addr_x", "distance": 0, "kind": "register"}]
}
```

Node order is significant only for uid assignment; names must be unique
within a file (the in-memory graph tolerates duplicates, files do not).

:func:`canonical_json` is the compact, key-sorted form of the same dict:
the text a compile job's key hashes and a store entry holds.
"""

from __future__ import annotations

import json
import weakref

from repro.ddg.graph import Ddg, DdgError, EdgeKind
from repro.machine.resources import OpClass

#: ``canonical_json`` memo: per graph, the (version, name) it was taken
#: at and the text. ``name`` is a plain attribute ``version`` does not
#: track, so it is part of the check.
_CANONICAL: "weakref.WeakKeyDictionary[Ddg, tuple[tuple, str]]" = (
    weakref.WeakKeyDictionary()
)


def to_dict(ddg: Ddg) -> dict:
    """Plain-dict form of a graph (JSON-ready)."""
    names = [node.name for node in ddg.nodes()]
    if len(set(names)) != len(names):
        raise DdgError("serialization requires unique node names")
    by_uid = {node.uid: node.name for node in ddg.nodes()}
    return {
        "name": ddg.name,
        "nodes": [
            {"name": node.name, "op": node.op_class.value}
            for node in ddg.nodes()
        ],
        "edges": [
            {
                "src": by_uid[edge.src],
                "dst": by_uid[edge.dst],
                "distance": edge.distance,
                "kind": edge.kind.value,
            }
            for edge in ddg.edges()
        ],
    }


def canonical_json(ddg: Ddg) -> str:
    """:func:`to_dict` as compact JSON with sorted keys (memoized).

    Computed once per graph version and name, so hashing one loop for
    many jobs serializes it once.
    """
    stamp = (ddg.version, ddg.name)
    cached = _CANONICAL.get(ddg)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    text = json.dumps(to_dict(ddg), sort_keys=True, separators=(",", ":"))
    _CANONICAL[ddg] = (stamp, text)
    return text


def from_dict(data: dict) -> Ddg:
    """Rebuild a graph from :func:`to_dict` output."""
    ddg = Ddg(name=data.get("name", "loop"))
    by_name = {}
    for node_data in data["nodes"]:
        name = node_data["name"]
        if name in by_name:
            raise DdgError(f"duplicate node name {name!r} in file")
        by_name[name] = ddg.add_node(name, OpClass(node_data["op"]))
    for edge_data in data.get("edges", []):
        ddg.add_edge(
            by_name[edge_data["src"]],
            by_name[edge_data["dst"]],
            distance=edge_data.get("distance", 0),
            kind=EdgeKind(edge_data.get("kind", "register")),
        )
    return ddg


def dumps(ddg: Ddg, indent: int | None = 2) -> str:
    """Serialize a graph to a JSON string."""
    return json.dumps(to_dict(ddg), indent=indent)


def loads(text: str) -> Ddg:
    """Parse a graph from a JSON string."""
    return from_dict(json.loads(text))


def save(ddg: Ddg, path: str) -> None:
    """Write a graph to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(ddg))
        handle.write("\n")


def load(path: str) -> Ddg:
    """Read a graph from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
