"""Network graphs with deterministic port assignments for walker control.

A network is a symmetric graph whose nodes are quantum hosts. Every node
carries an implicit self-loop at port 0; ports 1..d(v) address its proper
neighbors in ascending label order, so coin values are reproducible across
runs. Data qubits attached to nodes form the data plane.
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple


class NetworkError(ValueError):
    """Malformed network description or invalid graph reference."""


class NetworkGraph:
    """Symmetric graph with self-loops and port-numbered edges.

    `ports[v][c]` is the node reached from v with coin value c;
    `ports[v][0] == v` always. It is the one adjacency table: neighbors,
    port counts and edges are read from it. Vertex ids are positions in
    the sorted label list. Instances are read-only and safe to share, and
    equal when their nodes, ports and data qubits are.
    """

    __slots__ = ("nodes", "ports", "data_qubits", "_ids", "_port_index")

    def __init__(self, nodes: tuple[str, ...], ports: dict[str, tuple[str, ...]],
                 data_qubits: dict[str, tuple[str, ...]]):
        ids = {v: i for i, v in enumerate(nodes)}
        port_index = {v: {u: c for c, u in enumerate(targets)} for v, targets in ports.items()}
        for name, value in zip(self.__slots__, (nodes, ports, data_qubits, ids, port_index)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"NetworkGraph is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not NetworkGraph:
            return NotImplemented
        return (self.nodes, self.ports, self.data_qubits) == (
            other.nodes, other.ports, other.data_qubits)

    # -- lookups ---------------------------------------------------------

    def vertex_id(self, label: str) -> int:
        try:
            return self._ids[label]
        except KeyError:
            raise NetworkError(f"unknown node {label!r}") from None

    def label_of(self, vid: int) -> str:
        if not 0 <= vid < len(self.nodes):
            raise NetworkError(f"vertex id {vid} out of range")
        return self.nodes[vid]

    def neighbors(self, v: str) -> tuple[str, ...]:
        self.vertex_id(v)
        return self.ports[v][1:]

    def port_count(self, v: str) -> int:
        """Valid coin values at v: self-loop plus one per neighbor."""
        return len(self.neighbors(v)) + 1

    def neighbor_of_port(self, v: str, c: int) -> str:
        self.vertex_id(v)
        targets = self.ports[v]
        if not 0 <= c < len(targets):
            raise NetworkError(f"node {v!r} has no port {c}")
        return targets[c]

    def port_of(self, v: str, u: str) -> int:
        self.vertex_id(v)
        index = self._port_index[v]
        if u not in index:
            raise NetworkError(f"no edge from {v!r} to {u!r}")
        return index[u]

    def edges(self) -> list[tuple[str, str]]:
        """Proper edges, each once as (u, v) with u < v, in sorted order."""
        return [(v, u) for v in self.nodes for u in self.neighbors(v) if v < u]

    def qubits_at(self, v: str) -> tuple[str, ...]:
        self.vertex_id(v)
        return self.data_qubits.get(v, ())

    def vertex_bits(self) -> int:
        return max(1, math.ceil(math.log2(len(self.nodes))))

    def coin_bits(self) -> int:
        widest = max(map(len, self.ports.values()))
        return max(1, math.ceil(math.log2(widest)))


def load_network(text: str) -> NetworkGraph:
    """Build a validated NetworkGraph from a JSON network description.

    The file lists proper edges only (both directions must be present);
    self-loops are added automatically at port 0.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise NetworkError(f"network file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise NetworkError("network file must be a JSON object")

    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise NetworkError('network file needs a nonempty "nodes" list')
    labels = []
    for item in raw_nodes:
        if not isinstance(item, str) or not item:
            raise NetworkError(f"node labels must be nonempty strings, got {item!r}")
        if item in labels:
            raise NetworkError(f"duplicate node label {item!r}")
        labels.append(item)
    nodes = tuple(sorted(labels))
    node_set = set(nodes)

    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise NetworkError('"edges" must be a list of [u, v] pairs')
    edges = set()
    for pair in raw_edges:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise NetworkError(f"edge entries must be [u, v] pairs, got {pair!r}")
        u, v = pair
        if not (isinstance(u, str) and isinstance(v, str)):
            raise NetworkError(f"edge endpoints must be node labels, got {pair!r}")
        if u not in node_set or v not in node_set:
            raise NetworkError(f"edge ({u!r}, {v!r}) references an unknown node")
        if u == v:
            raise NetworkError(f"explicit self-loop on {u!r}; self-loops are implicit")
        if (u, v) in edges:
            raise NetworkError(f"duplicate edge ({u!r}, {v!r})")
        edges.add((u, v))
    for u, v in edges:
        if (v, u) not in edges:
            raise NetworkError(f"asymmetric edge list: ({u!r}, {v!r}) has no reverse")

    ports = {v: (v, *sorted(u for (w, u) in edges if w == v)) for v in nodes}

    raw_data = doc.get("data_qubits") or {}
    if not isinstance(raw_data, dict):
        raise NetworkError('"data_qubits" must map node labels to name lists')
    data_qubits: dict[str, tuple[str, ...]] = {}
    for v, names in raw_data.items():
        if v not in node_set:
            raise NetworkError(f"data_qubits references unknown node {v!r}")
        if not isinstance(names, list):
            raise NetworkError(f"data_qubits[{v!r}] must be a list of names")
        for name in names:
            if not isinstance(name, str) or not name:
                raise NetworkError(f"bad qubit name {name!r} at node {v!r}")
        if len(set(names)) != len(names):
            raise NetworkError(f"duplicate data qubit name at node {v!r}")
        data_qubits[v] = tuple(names)

    return NetworkGraph(nodes, ports, data_qubits)


class PathSpec(NamedTuple):
    """A simple path given as an ordered node list."""

    nodes: tuple[str, ...]

    @classmethod
    def in_graph(cls, graph: NetworkGraph, nodes) -> "PathSpec":
        nodes = tuple(nodes)
        if not nodes:
            raise NetworkError("a path needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise NetworkError("path repeats a node")
        for u, v in zip(nodes, nodes[1:]):
            if v not in graph.neighbors(u):
                raise NetworkError(f"path hop ({u!r}, {v!r}) is not a network edge")
        return cls(nodes)

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def start(self) -> str:
        return self.nodes[0]

    @property
    def end(self) -> str:
        return self.nodes[-1]


class TreeSpec(NamedTuple):
    """Directed rooted tree inside the network. `nodes` lists the root,
    then the other tree nodes by depth, nodes of equal depth in the order
    of the (parent, child) edges naming them; `parents[i]` is the index in
    `nodes` of node i's parent, None for the root."""

    nodes: tuple[str, ...]
    parents: tuple[int | None, ...]

    @classmethod
    def in_graph(cls, graph: NetworkGraph, root: str, edges) -> "TreeSpec":
        graph.vertex_id(root)
        parent: dict[str, str] = {}
        for p, c in edges:
            p, c = str(p), str(c)
            if c not in graph.neighbors(p):
                raise NetworkError(f"tree edge ({p!r}, {c!r}) is not a network edge")
            if c == root:
                raise NetworkError("tree root cannot have a predecessor")
            if c in parent:
                raise NetworkError(f"node {c!r} has two predecessors in tree")
            parent[c] = p
        # every non-root node must hang off the root through tree edges
        depth = {}
        for c in parent:
            seen = set()
            v = c
            while v != root:
                if v in seen or v not in parent:
                    raise NetworkError(f"tree edge chain from {c!r} does not reach root")
                seen.add(v)
                v = parent[v]
            depth[c] = len(seen)
        nodes = (root, *sorted(parent, key=depth.__getitem__))
        index = {v: i for i, v in enumerate(nodes)}
        return cls(nodes, (None, *(index[parent[v]] for v in nodes[1:])))

    @property
    def root(self) -> str:
        return self.nodes[0]
