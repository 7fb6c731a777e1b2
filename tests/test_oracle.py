import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcp import (
    GATE_LIBRARY,
    OracleError,
    OracleGate,
    RegisterLayout,
    StateVector,
    compare,
    data_layout,
    init_state,
    measure,
    oracle_apply,
)
from conftest import random_qubit
from instruments import compare_reference, from_dense, to_dense


def test_data_layout_has_no_walker_bits(path3):
    lay = data_layout(path3)
    assert lay.k == 0
    assert lay.total_bits == 2
    assert lay.data_order == (("A", "a"), ("B", "b"))


def test_oracle_cnot_truth_table(path3):
    lay = data_layout(path3)
    cnot = OracleGate(((("A", "a"), 1),), (("B", "b"),), GATE_LIBRARY["X"])
    for a in (0, 1):
        for b in (0, 1):
            s = init_state(
                path3, lay, [],
                {("A", "a"): (1 - a, a), ("B", "b"): (1 - b, b)},
            )
            out = oracle_apply(s, [cnot])
            idx = int(np.flatnonzero(np.abs(to_dense(out)) > 0.5)[0])
            assert idx == (a << 1) | (b ^ a)


def test_oracle_zero_control_fires_on_zero(path3):
    lay = data_layout(path3)
    gate = OracleGate(((("A", "a"), 0),), (("B", "b"),), GATE_LIBRARY["X"])
    s = init_state(path3, lay, [])
    out = oracle_apply(s, [gate])
    idx = int(np.flatnonzero(np.abs(to_dense(out)) > 0.5)[0])
    assert idx == 0b01


def test_oracle_rejects_wrong_matrix_size(path3):
    lay = data_layout(path3)
    bad = OracleGate((), (("A", "a"), ("B", "b")), GATE_LIBRARY["X"])
    with pytest.raises(OracleError):
        oracle_apply(init_state(path3, lay, []), [bad])


def test_oracle_gate_sequence_order(path3):
    # H then CNOT builds a Bell pair; the reverse order does not
    lay = data_layout(path3)
    h = OracleGate((), (("A", "a"),), GATE_LIBRARY["H"])
    cx = OracleGate(((("A", "a"), 1),), (("B", "b"),), GATE_LIBRARY["X"])
    s = init_state(path3, lay, [])
    bell = oracle_apply(s, [h, cx])
    expect = np.zeros(4, dtype=complex)
    expect[0b00] = expect[0b11] = 1 / np.sqrt(2)
    assert np.allclose(to_dense(bell), expect)
    other = oracle_apply(s, [cx, h])
    assert not np.allclose(to_dense(other), expect)


def test_compare_pass_and_fail(path3):
    rng = np.random.default_rng(0)
    lay = RegisterLayout.for_network(path3, 1)
    dlay = data_layout(path3)
    di = {("A", "a"): random_qubit(rng), ("B", "b"): random_qubit(rng)}
    prot = init_state(path3, lay, [("A", 0)], di)
    oracle = init_state(path3, dlay, [], di)
    good = compare(prot, oracle)
    assert good.passed
    assert good.data_fidelity == pytest.approx(1.0)
    assert good.walker_purity == pytest.approx(1.0)
    other = init_state(path3, dlay, [], {("A", "a"): (0.0, 1.0)})
    bad = compare(prot, other)
    assert not bad.passed and bad.data_fidelity < 1.0 - 1e-9


def test_compare_detects_residual_entanglement(path3):
    lay = RegisterLayout.for_network(path3, 1)
    dlay = data_layout(path3)
    base = init_state(path3, lay, [("A", 0)])
    flip = init_state(path3, lay, [("A", 1)], {("A", "a"): (0.0, 1.0)})
    entangled = from_dense(lay, (to_dense(base) + to_dense(flip)) / np.sqrt(2))
    rep = compare(entangled, init_state(path3, dlay, []))
    assert rep.walker_purity == pytest.approx(0.5)
    assert not rep.passed


def test_compare_requires_matching_data_order(path3, triangle):
    prot = init_state(path3, RegisterLayout.for_network(path3, 1), [("A", 0)])
    other = init_state(triangle, data_layout(triangle), [])
    with pytest.raises(OracleError):
        compare(prot, other)


def sparse_state(layout, rng, count):
    """A normalised state on `count` random basis indices of `layout`."""
    size = 1 << layout.total_bits
    indices = np.sort(rng.choice(size, min(count, size), replace=False)).astype(np.int64)
    amps = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
    return StateVector(layout, indices, amps / np.linalg.norm(amps))


@st.composite
def compare_cases(draw):
    """(layout, protocol state, oracle state): 0 to 2 walkers of 1 to 3 bits
    and 0 to 4 data qubits, at least one bit in all; each state holds a
    random subset of its basis, so the two share some data keys."""
    k = draw(st.integers(0, 2))
    nv, nc = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    data = tuple(("A", f"q{i}") for i in range(draw(st.integers(0 if k else 1, 4))))
    layout = RegisterLayout(nv, nc, k, data)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = sparse_state(layout, rng, draw(st.integers(1, 40)))
    oracle = sparse_state(RegisterLayout(nv, nc, 0, data), rng, draw(st.integers(1, 16)))
    return layout, state, oracle


@settings(max_examples=200, deadline=None)
@given(compare_cases(), st.data())
def test_stacked_compare_matches_per_state_reference(case, data):
    """Per-branch purity and fidelity of one compare over a measured stack
    (branch and sample mode, random measured bits and bases) and of an
    unmeasured state agree with the per-state reference within 1e-12."""
    layout, state, oracle = case
    report = compare(state, oracle)
    want = compare_reference(state, oracle)
    assert len(report.purities) == len(report.fidelities) == 1
    assert report.purities[0] == pytest.approx(want[0], abs=1e-12, rel=0)
    assert report.fidelities[0] == pytest.approx(want[1], abs=1e-12, rel=0)

    qubits = data.draw(st.lists(st.integers(0, layout.total_bits - 1), max_size=4, unique=True))
    bases = data.draw(st.text("XZ", min_size=len(qubits), max_size=len(qubits)))
    if data.draw(st.booleans()):
        stack = measure(state, qubits, bases)
    else:
        seed = data.draw(st.integers(0, 2**32 - 1))
        stack = measure(state, qubits, bases, np.random.default_rng(seed))
        assert len(stack) == 1
    report = compare(stack, oracle)
    assert len(report.purities) == len(report.fidelities) == len(stack)
    for g, (_, branch) in enumerate(stack):
        purity, fidelity = compare_reference(branch, oracle)
        assert report.purities[g] == pytest.approx(purity, abs=1e-12, rel=0)
        assert report.fidelities[g] == pytest.approx(fidelity, abs=1e-12, rel=0)
    assert report.walker_purity == min(report.purities)
    assert report.data_fidelity == min(report.fidelities)


def test_stacked_compare_keeps_branch_keys_apart():
    """Branches whose keys meet at the stack boundary: the last data key of
    branch 0 is the first of branch 1, and the walker keys of two walkers
    repeat in both branches, so every key is ranked within its branch."""
    layout = RegisterLayout(1, 0, 2, (("A", "a"), ("A", "b")))
    # walker 0 is measured; walker 1 and the data keys are shared
    entries = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 0, 2), (1, 1, 3)]
    indices = np.array([(w0 << 3) | (w1 << 2) | d for w0, w1, d in entries], dtype=np.int64)
    amps = np.arange(1, len(entries) + 1) * (1 + 0.5j)
    state = StateVector(layout, indices, amps / np.linalg.norm(amps))
    oracle = StateVector(RegisterLayout(1, 0, 0, layout.data_order),
                         np.arange(4, dtype=np.int64), np.full(4, 0.5 + 0j))
    stack = measure(state, [0], "Z")
    report = compare(stack, oracle)
    for g, (_, branch) in enumerate(stack):
        purity, fidelity = compare_reference(branch, oracle)
        assert report.purities[g] == pytest.approx(purity, abs=1e-12, rel=0)
        assert report.fidelities[g] == pytest.approx(fidelity, abs=1e-12, rel=0)
