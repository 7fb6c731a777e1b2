import json

import numpy as np
import pytest

from qwcp import RegisterLayout, StateVector, init_state, load_network


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
    return StateVector.from_dense(layout, amps)


def random_qubit(rng: np.random.Generator) -> tuple[complex, complex]:
    q = rng.normal(size=2) + 1j * rng.normal(size=2)
    q /= np.linalg.norm(q)
    return (q[0], q[1])


def state_with_data(graph, layout, walker_inits, data_vec) -> StateVector:
    """Walker basis product with an arbitrary (possibly entangled) data state."""
    base = init_state(graph, layout, walker_inits).to_dense()
    widx = int(np.flatnonzero(np.abs(base) > 0.5)[0]) >> layout.data_bits
    data_vec = np.asarray(data_vec, dtype=complex)
    data_vec = data_vec / np.linalg.norm(data_vec)
    amps = np.zeros_like(base)
    nd = layout.data_bits
    amps[widx << nd : (widx + 1) << nd] = data_vec
    return StateVector.from_dense(layout, amps)
