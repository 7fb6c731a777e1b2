"""Differential test: the sparse engine against the dense reference.

Random operator sequences, built with every walkops constructor (and with
inverted operators), run through `qwcp.statevec` and through the dense
implementations in dense_reference.py. Amplitudes, measurement branches,
walker supports, cut matrices and their purities, and the oracle
comparison must agree.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from qwcp import (
    RegisterLayout,
    compare,
    data_layout,
    load_network,
    measure,
    walker_vertex_support,
)
from qwcp.statevec import BlockAction, PermAction, apply_actions

from conftest import (
    draw_init_state,
    draw_operator,
    line_json,
    network_json,
    operator_kinds,
    random_state,
    random_unitary,
    subset,
)
from instruments import cut_matrix, cut_purity, from_dense, to_dense

TOL = 1e-12

# (network, walker count): 6, 10 and 12 bits
NETWORKS = [
    (line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]}), 1),
    (line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]}), 2),
    (
        network_json(
            ["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")],
            {"A": ["a", "b"], "B": ["b"], "C": ["c"]},
        ),
        2,
    ),
]

def draw_conditions(data, bits):
    """Conditions on some of the given bits, contradictory half the time
    there are any."""
    controls = data.draw(st.lists(st.sampled_from(bits), max_size=3))
    conditions = [((pos,), data.draw(st.integers(0, 1))) for pos in controls]
    if conditions and data.draw(st.booleans()):
        # one bit asked for both values: the action selects nothing
        (pos,), bit = conditions[0]
        conditions.append(((pos,), 1 - bit))
    return tuple(conditions)


def draw_actions(data, g, lay, rng):
    """Primitive actions of one random operator. Besides the walkops
    constructors, `perm` and `block` give a PermAction with an arbitrary
    register permutation (walkops builds only involutions) and a
    BlockAction on arbitrary bits, each under arbitrary conditions on bits
    it does not act on."""
    kind = data.draw(st.sampled_from(operator_kinds(lay) + ["perm", "block"]))
    all_bits = range(lay.total_bits)
    if kind == "perm":
        walker = data.draw(st.integers(0, lay.k - 1))
        register = range(walker * lay.walker_bits, (walker + 1) * lay.walker_bits)
        conditions = draw_conditions(data, [pos for pos in all_bits if pos not in register])
        perm = rng.permutation(1 << lay.walker_bits)
        return [PermAction(walker, perm, conditions)]
    if kind == "block":
        targets = subset(data, list(all_bits), max_size=2)
        conditions = draw_conditions(data, [pos for pos in all_bits if pos not in targets])
        matrix = random_unitary(rng, 1 << len(targets))
        return [BlockAction(tuple(targets), matrix, conditions)]
    return list(draw_operator(data, g, lay, rng, kind).iter_actions())


def draw_state(data, g, lay, rng):
    shape = data.draw(st.sampled_from(["random", "basis", "init"]))
    if shape == "random":
        return random_state(lay, rng)
    if shape == "basis":
        vec = np.zeros(1 << lay.total_bits, dtype=complex)
        vec[data.draw(st.integers(0, len(vec) - 1))] = 1.0
        return from_dense(lay, vec)
    return draw_init_state(data, g, lay)


def assert_sparse_invariants(state):
    assert state.indices.dtype == np.int64
    assert state.amplitudes.dtype == np.complex128
    assert np.all(np.diff(state.indices) > 0)
    assert np.all(state.amplitudes != 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_engine_matches_dense_reference(data):
    network, k = data.draw(st.sampled_from(NETWORKS))
    g = load_network(network)
    lay = RegisterLayout.for_network(g, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = draw_state(data, g, lay, rng)
    ref = to_dense(state)
    assert_sparse_invariants(state)

    for _ in range(data.draw(st.integers(1, 8))):
        actions = draw_actions(data, g, lay, rng)
        state = apply_actions(state, actions)
        ref = dense.apply_actions(ref, lay, actions)
        assert_sparse_invariants(state)
        assert np.abs(to_dense(state) - ref).max() <= TOL
        assert state.norm == pytest.approx(np.linalg.norm(ref), abs=TOL)

    assert walker_vertex_support(state) == [
        dense.walker_vertex_support(ref, lay, j) for j in range(lay.k)
    ]

    all_bits = list(range(lay.total_bits))
    cut = subset(data, all_bits, max_size=lay.total_bits - 1)
    assert cut_purity(cut_matrix(state, cut)[2]) == pytest.approx(
        dense.purity_across_cut(ref, lay, cut), abs=TOL
    )
    # the cut matrix's rows, placed at their keys, give the reduced density
    keep = subset(data, all_bits, max_size=3)
    keys, _, mat = cut_matrix(state, keep)
    rho = np.zeros((1 << len(keep),) * 2, dtype=complex)
    rho[np.ix_(keys, keys)] = mat @ mat.conj().T
    assert np.abs(rho - dense.reduced_density(ref, lay, keep)).max() <= TOL

    qubits = subset(data, all_bits, max_size=3)
    bases = "".join(data.draw(st.sampled_from("ZX")) for _ in qubits)
    branches = measure(state, qubits, bases)
    ref_branches = dense.measure(ref, lay, qubits, bases)
    assert [r.outcome for r, _ in branches] == [r.outcome for r, _ in ref_branches]
    for (record, branch), (ref_record, ref_branch) in zip(branches, ref_branches):
        assert record.probability == pytest.approx(ref_record.probability, abs=TOL)
        assert_sparse_invariants(branch)
        assert np.abs(to_dense(branch) - ref_branch).max() <= TOL
    seed = data.draw(st.integers(0, 2**32 - 1))
    (record, _), = measure(state, qubits, bases, np.random.default_rng(seed))
    (ref_record, _), = dense.measure(ref, lay, qubits, bases, np.random.default_rng(seed))
    assert record.outcome == ref_record.outcome

    # oracle comparison: fidelity against a random data-plane state and the
    # walker purity, against the dense reduced-density formulas
    dlay = data_layout(g)
    phi = random_state(dlay, rng)
    report = compare(state, phi)
    rho = dense.reduced_density(ref, lay, lay.data_bit_positions())
    phi_vec = to_dense(phi)
    assert report.data_fidelity == pytest.approx(
        float(np.vdot(phi_vec, rho @ phi_vec).real), abs=TOL
    )
    assert report.walker_purity == pytest.approx(
        dense.purity_across_cut(ref, lay, tuple(range(lay.k * lay.walker_bits))), abs=TOL
    )
