"""Reference gate application on the data plane alone.

The oracle never sees walkers: it applies the requested controlled gates
directly to a data-only state, producing the ground truth that protocol
runs are compared against.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .netgraph import NetworkGraph
from .statevec import (
    BlockAction,
    BranchStack,
    RegisterLayout,
    StateVector,
    apply_actions,
    check_entries,
)

PASS_TOL = 1e-9


class OracleError(ValueError):
    pass


class OracleGate(NamedTuple):
    """One gate: unitary on target qubits, gated on control qubits."""

    controls: tuple[tuple[tuple[str, str], int], ...]  # ((node, name), bit)
    targets: tuple[tuple[str, str], ...]
    matrix: np.ndarray


class CompareReport(NamedTuple):
    """Walker purity and data fidelity of each compared branch; the
    report's values are the least of each, and it passes when both do."""

    purities: np.ndarray
    fidelities: np.ndarray

    @property
    def walker_purity(self) -> float:
        return float(self.purities.min())

    @property
    def data_fidelity(self) -> float:
        return float(self.fidelities.min())

    @property
    def passed(self) -> bool:
        return self.walker_purity >= 1.0 - PASS_TOL and self.data_fidelity >= 1.0 - PASS_TOL


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


def _first_of_key(keys: np.ndarray, new_branch: np.ndarray) -> np.ndarray:
    """Flags of the entries whose (branch, key) differs from the entry
    before, for entries in (branch, key) order; `new_branch` flags the
    entries after the first whose branch differs from the one before."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first[1:] |= new_branch
    return first


def _rank_in_branch(first: np.ndarray, branch_start: np.ndarray):
    """(rank of each entry's key within its branch, the most keys of one
    branch) from `_first_of_key` flags; `branch_start` is the position of
    the first entry of each entry's branch."""
    rank = first.cumsum()
    rank -= rank[branch_start]
    return rank, int(rank.max(initial=-1)) + 1


def compare(
    protocol_output: StateVector | BranchStack, oracle_output: StateVector
) -> CompareReport:
    """Fidelity of each branch's data-plane reduced state against the
    oracle's pure state, plus its walker-subsystem purity, for every branch
    of a stack in one pass; an unmeasured state is a stack of one branch.

    Writing a branch as sum_w |w>|psi_w>, with w the walker registers, its
    data-plane reduced state is sum_w |psi_w><psi_w|, so the fidelity is
    sum_w |<phi|psi_w>|^2. The walker bits are the top bits of an index,
    so each psi_w is a run of its branch's sorted entries: one search in
    the oracle's indices gives every term, and adding up each run gives
    the overlaps. The purities come from one batched Gram product of the
    (branch, walker key, data key) array, on its smaller side."""
    layout = protocol_output.layout
    if layout.data_order != oracle_output.layout.data_order:
        raise OracleError("protocol and oracle states disagree on data qubits")
    indices, amps = protocol_output.indices, protocol_output.amplitudes
    if isinstance(protocol_output, BranchStack):
        starts = protocol_output.starts
    else:
        starts = np.array([0, len(indices)])
    branches = len(starts) - 1
    # each array is freed after its last use: at scale these temporaries,
    # not the states, set the peak
    branch = np.repeat(np.arange(branches), starts[1:] - starts[:-1])
    new_branch = branch[1:] != branch[:-1]
    first_run = _first_of_key(indices >> layout.data_bits, new_branch)
    run_starts = first_run.nonzero()[0]
    data = indices & ((1 << layout.data_bits) - 1)

    phi_indices, phi = oracle_output.indices, oracle_output.amplitudes
    at = phi_indices.searchsorted(data)
    np.minimum(at, len(phi_indices) - 1, out=at)
    missing = phi_indices[at] != data
    terms = phi[at]
    del at
    np.conjugate(terms, out=terms)
    terms *= amps
    terms[missing] = 0
    del missing
    overlaps = np.add.reduceat(terms, run_starts)
    del terms
    fidelities = np.bincount(
        branch[run_starts], weights=np.abs(overlaps) ** 2, minlength=branches
    )
    branch_start = starts[branch]
    row, rows = _rank_in_branch(first_run, branch_start)
    del first_run
    order = np.lexsort((data, branch))  # keeps `branch` as it is
    first_col = _first_of_key(data[order], new_branch)
    del data, new_branch
    rank, cols = _rank_in_branch(first_col, branch_start)
    del first_col, branch_start
    col = np.empty_like(rank)
    col[order] = rank
    del order, rank
    check_entries(branches * rows * cols, "cut matrix")
    mat = np.zeros((branches, rows, cols), dtype=complex)
    mat[branch, row, col] = amps
    del branch, row, col
    adjoint = mat.conj().transpose(0, 2, 1)
    parts = (mat @ adjoint if rows <= cols else adjoint @ mat).view(np.float64)
    return CompareReport((parts * parts).sum(axis=(1, 2)), fidelities)
