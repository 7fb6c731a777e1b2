import numpy as np
import pytest

from qwcp import (
    GATE_LIBRARY,
    OracleError,
    OracleGate,
    RegisterLayout,
    compare,
    data_layout,
    init_state,
    oracle_apply,
)
from conftest import random_qubit
from instruments import from_dense, to_dense


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
