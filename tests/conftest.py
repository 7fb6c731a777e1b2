import json

import numpy as np
import pytest
from hypothesis import strategies as st

from qwcp import (
    RegisterLayout,
    StateVector,
    init_state,
    invert_operator,
    load_network,
    make_coin_block,
    make_coin_controlled_data,
    make_coin_perm,
    make_data_controlled_coin,
    make_fanout,
    make_flipflop_shift,
    make_identity_shift,
    make_walk_interaction,
)
from qwcp import cli
from qwcp.cli import DATA_INIT_STATES

from instruments import from_dense


def network_json(nodes, edges, data_qubits=None):
    """Build a network description; edges listed once, mirrored here."""
    both = []
    for u, v in edges:
        both.append([u, v])
        both.append([v, u])
    return json.dumps(
        {"nodes": list(nodes), "edges": both, "data_qubits": data_qubits or {}}
    )


def grid3_json():
    """3x3 grid, nodes n<row><col>, 4-neighbor edges.

    Data qubits: control a at n00; targets b at n12 (three hops from n00),
    b at n02 and c at n20 (two hops each, leaving n00 over distinct edges).
    """
    nodes = [f"n{r}{c}" for r in range(3) for c in range(3)]
    edges = []
    for r in range(3):
        for c in range(3):
            if c < 2:
                edges.append((f"n{r}{c}", f"n{r}{c + 1}"))
            if r < 2:
                edges.append((f"n{r}{c}", f"n{r + 1}{c}"))
    return network_json(
        nodes, edges,
        {"n00": ["a"], "n12": ["b"], "n02": ["b"], "n20": ["c"]},
    )


def line_json(labels, data_qubits=None):
    return network_json(labels, list(zip(labels, labels[1:])), data_qubits)


def triangle_json():
    return network_json(
        ["A", "B", "C"],
        [("A", "B"), ("B", "C"), ("A", "C")],
        {"A": ["p", "q"], "B": ["p", "q"], "C": ["p", "q"]},
    )


def btree7_json():
    """Depth-2 binary tree as a network: A -> b0,b1 -> four leaves."""
    edges = [
        ("A", "b0"), ("A", "b1"),
        ("b0", "c00"), ("b0", "c01"),
        ("b1", "c10"), ("b1", "c11"),
    ]
    data = {"A": ["a"], "c00": ["t"], "c01": ["t"], "c10": ["t"], "c11": ["t"]}
    return network_json(
        ["A", "b0", "b1", "c00", "c01", "c10", "c11"], edges, data
    )


def binary_tree_json(depth):
    """Binary tree network: root A, the children of v are v0 and v1; a
    data qubit a at the root and t at every leaf."""
    levels = [["A"]]
    for _ in range(depth):
        levels.append([v + i for v in levels[-1] for i in "01"])
    nodes = [v for level in levels for v in level]
    edges = [(v[:-1], v) for v in nodes[1:]]
    data = {"A": ["a"], **{leaf: ["t"] for leaf in levels[-1]}}
    return network_json(nodes, edges, data), edges, levels[-1]


@pytest.fixture(autouse=True, scope="session")
def reports_render_as_json_dumps():
    """Every report `qwcp.cli.main` renders during the tests must be
    `json.dumps(report, sort_keys=True, indent=2)`, byte for byte."""
    render = cli.render_report

    def checked(report):
        text = render(report)
        assert text == json.dumps(report, sort_keys=True, indent=2)
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "render_report", checked)
        yield


@pytest.fixture
def grid3():
    return load_network(grid3_json())


@pytest.fixture
def triangle():
    return load_network(triangle_json())


@pytest.fixture
def btree7():
    return load_network(btree7_json())


@pytest.fixture
def path3():
    return load_network(
        line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]})
    )


@pytest.fixture
def path4():
    return load_network(
        line_json(["A", "B", "C", "D"], {v: ["g"] for v in "ABCD"})
    )


def random_state(layout: RegisterLayout, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=1 << layout.total_bits) + 1j * rng.normal(
        size=1 << layout.total_bits
    )
    amps /= np.linalg.norm(amps)
    return from_dense(layout, amps)


def random_qubit(rng: np.random.Generator) -> tuple[complex, complex]:
    q = rng.normal(size=2) + 1j * rng.normal(size=2)
    q /= np.linalg.norm(q)
    return (q[0], q[1])


def state_with_data(graph, layout, walker_inits, data_vec) -> StateVector:
    """Walker basis product with an arbitrary (possibly entangled) data state."""
    (walkers,) = init_state(graph, layout, walker_inits).indices  # data bits all 0
    data_vec = np.asarray(data_vec, dtype=complex)
    data_vec = data_vec / np.linalg.norm(data_vec)
    data = np.flatnonzero(data_vec)
    return StateVector(layout, walkers | data, data_vec[data])


# -- random operators for the hypothesis engine tests -----------------------

OPERATOR_KINDS = (
    "flipflop", "identity", "coinperm", "coinblock", "datactrl", "coindata",
    "interact", "fanout",
)


def operator_kinds(lay) -> list:
    """The walkops constructors a layout admits: interact and fanout need
    two walkers."""
    return [k for k in OPERATOR_KINDS if lay.k >= 2 or k not in ("interact", "fanout")]


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def subset(data, items, min_size=1, max_size=None):
    return data.draw(
        st.lists(st.sampled_from(items), min_size=min_size, max_size=max_size, unique=True)
    )


def draw_init_state(data, g, lay) -> StateVector:
    """`init_state` with random walker positions and data qubits in
    |0>, |1>, |+> or |->."""
    walkers = []
    for _ in range(lay.k):
        v = data.draw(st.sampled_from(g.nodes))
        walkers.append((v, data.draw(st.integers(0, g.port_count(v) - 1))))
    inits = {q: DATA_INIT_STATES[data.draw(st.sampled_from("01+-"))] for q in lay.data_order}
    return init_state(g, lay, walkers, inits)


def draw_operator(data, g, lay, rng, kind, near=None):
    """A random operator from the walkops constructor `kind`, inverted half
    of the time. `near` maps nodes to the walkers found there; the
    operator's node and walker are drawn from it where the constructor
    allows one of its nodes."""
    near = near or {}
    nodes = [v for v in g.nodes if g.qubits_at(v)] if kind in ("datactrl", "coindata") else g.nodes
    v = data.draw(st.sampled_from([v for v in nodes if v in near] or nodes))
    walker = data.draw(st.sampled_from(near.get(v) or range(lay.k)))
    ports = list(range(g.port_count(v)))
    swap = st.tuples(st.sampled_from(ports), st.sampled_from(ports))
    if kind == "flipflop":
        op = make_flipflop_shift(g, lay, subset(data, list(range(lay.k)), min_size=0))
    elif kind == "identity":
        op = make_identity_shift(lay)
    elif kind == "coinperm":
        op = make_coin_perm(
            g, lay, v, data.draw(st.sampled_from(ports)), data.draw(st.sampled_from(ports)),
            walker,
        )
    elif kind == "coinblock":
        coins = subset(data, ports)
        op = make_coin_block(g, lay, v, coins, random_unitary(rng, len(coins)), walker)
    elif kind == "datactrl":
        controls = subset(data, list(g.qubits_at(v)))
        pattern = "".join(data.draw(st.sampled_from("01")) for _ in controls)
        op = make_data_controlled_coin(
            g, lay, v, controls, pattern, data.draw(swap), walker
        )
    elif kind == "coindata":
        qubits = subset(data, list(g.qubits_at(v)))
        coin = data.draw(st.one_of(st.none(), st.sampled_from(ports)))
        op = make_coin_controlled_data(
            g, lay, v, qubits, random_unitary(rng, 1 << len(qubits)), walker, coin=coin
        )
    elif kind == "interact":
        control, target = subset(data, list(range(lay.k)), min_size=2, max_size=2)
        op = make_walk_interaction(
            g, lay, v, data.draw(st.sampled_from(ports)),
            data.draw(swap), control, target,
        )
    else:
        size = min(lay.k, len(g.neighbors(v)))
        successors = subset(data, list(g.neighbors(v)), max_size=size)
        walkers = subset(data, list(range(lay.k)), min_size=len(successors),
                         max_size=len(successors))
        op = make_fanout(g, lay, v, data.draw(st.sampled_from(ports)), successors, walkers)
    if data.draw(st.booleans()):
        op = invert_operator(op)
    return op
