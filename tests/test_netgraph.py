import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcp import (
    NetworkError,
    PathSpec,
    TreeSpec,
    load_network,
)

from conftest import line_json, network_json


def test_ports_are_sorted_with_self_loop_first(path3):
    # neighbors in ascending label order, port 0 always the self-loop
    assert path3.ports["u"] == ("u", "A", "B")
    assert path3.neighbor_of_port("u", 0) == "u"
    assert path3.port_of("u", "A") == 1
    assert path3.port_of("u", "B") == 2
    assert path3.port_count("u") == 3
    assert path3.port_count("A") == 2


def test_vertex_ids_follow_sorted_labels():
    g = load_network(network_json(["zeta", "alpha", "mid"], [("alpha", "zeta")]))
    assert g.nodes == ("alpha", "mid", "zeta")
    assert g.vertex_id("alpha") == 0
    assert g.label_of(2) == "zeta"


def test_port_maps_are_mutually_inverse(grid3):
    for v in grid3.nodes:
        for c in range(grid3.port_count(v)):
            u = grid3.neighbor_of_port(v, c)
            assert grid3.port_of(v, u) == c or u == v


def test_has_edge_and_self_loops(path3):
    assert path3.port_of("A", "A") == 0
    with pytest.raises(NetworkError):
        path3.port_of("A", "B")


def test_bit_widths(grid3, path3):
    assert grid3.vertex_bits() == 4  # 9 nodes
    assert grid3.coin_bits() == 3  # degree-4 center => 5 ports
    assert path3.vertex_bits() == 2
    assert path3.coin_bits() == 2


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        "[]",
        '{"nodes": []}',
        '{"nodes": ["A", "A"]}',
        '{"nodes": ["A", "B"], "edges": [["A", "B"]]}',  # missing reverse
        '{"nodes": ["A"], "edges": [["A", "A"], ["A", "A"]]}',
        '{"nodes": ["A", "B"], "edges": [["A", "C"], ["C", "A"]]}',
        '{"nodes": ["A"], "data_qubits": {"X": ["q"]}}',
        '{"nodes": ["A"], "data_qubits": {"A": ["q", "q"]}}',
    ],
)
def test_load_network_rejects_malformed(doc):
    with pytest.raises(NetworkError):
        load_network(doc)


def test_unknown_node_raises(path3):
    with pytest.raises(NetworkError):
        path3.vertex_id("nope")
    with pytest.raises(NetworkError):
        path3.neighbors("nope")


def test_pathspec_validates_hops(grid3):
    p = PathSpec.in_graph(grid3, ["n00", "n01", "n02", "n12"])
    assert p.hops == 3 and p.start == "n00" and p.end == "n12"
    with pytest.raises(NetworkError):
        PathSpec.in_graph(grid3, ["n00", "n11"])  # diagonal, not an edge
    with pytest.raises(NetworkError):
        PathSpec.in_graph(grid3, ["n00", "n01", "n00"])  # repeats a node


def test_treespec_structure(btree7):
    t = TreeSpec.in_graph(
        btree7, "A",
        [("A", "b0"), ("A", "b1"), ("b0", "c00"), ("b0", "c01"),
         ("b1", "c10"), ("b1", "c11")],
    )
    assert t.root == "A"
    assert t.nodes == ("A", "b0", "b1", "c00", "c01", "c10", "c11")
    assert t.parents == (None, 0, 0, 1, 1, 2, 2)
    # edges listed out of depth order: the nodes still go by depth, and
    # nodes of equal depth in the order of the edges naming them
    t = TreeSpec.in_graph(
        btree7, "A",
        [("b1", "c10"), ("A", "b0"), ("b0", "c00"), ("A", "b1"), ("b1", "c11")],
    )
    assert t.nodes == ("A", "b0", "b1", "c10", "c00", "c11")
    assert t.parents == (None, 0, 0, 2, 1, 2)


def test_treespec_rejects_disconnected(btree7):
    with pytest.raises(NetworkError):
        TreeSpec.in_graph(btree7, "A", [("b0", "c00")])
    with pytest.raises(NetworkError):
        TreeSpec.in_graph(btree7, "A", [("A", "b0"), ("A", "b1"), ("b1", "A")])


@st.composite
def random_graphs(draw, max_nodes=8):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    return load_network(network_json(labels, chosen))


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_port_tables_consistent_on_random_graphs(g):
    for v in g.nodes:
        assert g.ports[v][0] == v
        assert g.ports[v][1:] == g.neighbors(v)
        assert list(g.neighbors(v)) == sorted(g.neighbors(v))
        for c in range(1, g.port_count(v)):
            u = g.neighbor_of_port(v, c)
            assert g.neighbor_of_port(u, g.port_of(u, v)) == v


def test_round_trip_through_json(grid3):
    doc = json.dumps(
        {
            "nodes": list(grid3.nodes),
            "edges": [[u, v] for u in grid3.nodes for v in grid3.neighbors(u)],
            "data_qubits": {v: list(q) for v, q in grid3.data_qubits.items()},
        }
    )
    again = load_network(doc)
    assert again == grid3
