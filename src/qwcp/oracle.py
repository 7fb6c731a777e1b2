"""Reference gate application on the data plane alone.

The oracle never sees walkers: it applies the requested controlled gates
directly to a data-only state, producing the ground truth that protocol
runs are compared against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgraph import NetworkGraph
from .statevec import (
    BlockAction,
    RegisterLayout,
    StateVector,
    apply_actions,
    cut_matrix,
    cut_purity,
)

PASS_TOL = 1e-9


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleGate:
    """One gate: unitary on target qubits, gated on control qubits."""

    controls: tuple[tuple[tuple[str, str], int], ...]  # ((node, name), bit)
    targets: tuple[tuple[str, str], ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class CompareReport:
    walker_purity: float
    data_fidelity: float
    passed: bool


def data_layout(graph: NetworkGraph) -> RegisterLayout:
    """Walker-free layout spanning only the declared data qubits."""
    return RegisterLayout.for_network(graph, 0)


def oracle_apply(state: StateVector, gates) -> StateVector:
    """Apply gates in order as dense small-block unitaries."""
    layout = state.layout
    actions = []
    for gate in gates:
        matrix = np.asarray(gate.matrix, dtype=complex)
        if matrix.shape != (1 << len(gate.targets),) * 2:
            raise OracleError("gate matrix size does not match target count")
        conditions = tuple(
            ((layout.data_bit(node, name),), bit)
            for (node, name), bit in gate.controls
        )
        targets = tuple(layout.data_bit(node, name) for (node, name) in gate.targets)
        actions.append(BlockAction(targets, matrix, conditions))
    result = apply_actions(state, actions)
    if abs(result.norm - 1.0) > 1e-12:
        raise OracleError(f"oracle lost norm: {result.norm!r}")
    return result


def compare(protocol_output: StateVector, oracle_output: StateVector) -> CompareReport:
    """Fidelity of the protocol's data-plane reduced state against the
    oracle's pure state, plus the walker-subsystem purity.

    Writing the protocol state as sum_w |w>|psi_w>, with w the walker
    registers, the data-plane reduced state is sum_w |psi_w><psi_w|, so the
    fidelity is sum_w |<phi|psi_w>|^2; the walker purity comes from the
    Gram matrix of the slices psi_w."""
    p_layout = protocol_output.layout
    if p_layout.data_order != oracle_output.layout.data_order:
        raise OracleError("protocol and oracle states disagree on data qubits")
    walker_bits = p_layout.walker_bit_positions()
    _, data_keys, slices = cut_matrix(protocol_output, walker_bits)
    purity = cut_purity(slices) if p_layout.k > 0 else 1.0
    _, cols, hits = np.intersect1d(
        data_keys, oracle_output.indices, assume_unique=True, return_indices=True
    )
    overlaps = slices[:, cols] @ oracle_output.amplitudes[hits].conj()
    fid = float(np.sum(np.abs(overlaps) ** 2))
    passed = purity >= 1.0 - PASS_TOL and fid >= 1.0 - PASS_TOL
    return CompareReport(purity, fid, passed)
