"""Test-only instruments on sparse states.

No run path needs these, so they live with the tests: the conversion to
and from a dense 2^total_bits vector, the overlap fidelity, the cut
purity and reduced density of a state (through the dense formulas in
dense_reference.py), the check that no amplitude sits on a vertex or coin
code the network lacks, and the reference state dump. Dense vectors are
limited to DENSE_MAX_BITS bits, so a test can never allocate 2^62 entries.

The sparse references of the stacked branch path live here too: the
rotation into the measured bases as one Hadamard block per X-measured
qubit, which `statevec._rotate_basis` must match float for float, the
branch-mode measure built on it, the cut matrix and its purity, the
per-state oracle comparison built from them, and the Z on one bit of one
state. So do the
bit patterns that compare amplitudes as dumps print them, and the dense
matrix of a coin swap, the block that each coin swap remap is checked
against.

`process_check` verifies a compiled protocol as a channel, on every
input at once, rather than on the one input a script's inits name.
"""
from __future__ import annotations

import json

import numpy as np

import dense_reference as dense
from qwcp.cli import _PROTOCOL_COMPILERS, parse_script, spectator_qubits
from qwcp.netgraph import load_network
from qwcp.oracle import compare, data_layout, oracle_apply
from qwcp.protocols import CNOT, run_schedule
from qwcp.statevec import (
    DUMP_TOL,
    HADAMARD,
    MAX_TOTAL_BITS,
    BlockAction,
    RegisterLayout,
    StateError,
    StateVector,
    _apply_block,
    _bit_mask,
    _gather,
    apply_actions,
    check_entries,
    init_state,
)

DENSE_MAX_BITS = 20  # 16 MiB of complex128


def to_dense(state: StateVector) -> np.ndarray:
    n = state.layout.total_bits
    if n > DENSE_MAX_BITS:
        raise ValueError(f"a dense state of {n} bits is over the {DENSE_MAX_BITS}-bit limit")
    vec = np.zeros(1 << n, dtype=complex)
    vec[state.indices] = state.amplitudes
    return vec


def from_dense(layout: RegisterLayout, vec) -> StateVector:
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (1 << layout.total_bits,):
        raise ValueError(f"dense state must have {1 << layout.total_bits} entries")
    indices = np.flatnonzero(vec).astype(np.int64)
    return StateVector(layout, indices, vec[indices])


def fidelity(s1: StateVector, s2: StateVector) -> float:
    return float(abs(np.vdot(to_dense(s1), to_dense(s2))) ** 2)


def purity_across_cut(state: StateVector, bits) -> float:
    return dense.purity_across_cut(to_dense(state), state.layout, bits)


def reduced_density(state: StateVector, bits) -> np.ndarray:
    return dense.reduced_density(to_dense(state), state.layout, bits)


def check_no_invalid_amplitude(state: StateVector, graph) -> None:
    """Every walker's amplitude stays on codes of a node and one of its ports."""
    layout = state.layout
    valid = [(graph.vertex_id(v) << layout.nc) | c
             for v in graph.nodes for c in range(graph.port_count(v))]
    weights = np.abs(state.amplitudes) ** 2
    for j in range(layout.k):
        shift = layout.total_bits - (j + 1) * layout.walker_bits
        code = (state.indices >> shift) & ((1 << layout.walker_bits) - 1)
        if weights[~np.isin(code, valid)].sum() > 1e-12:
            raise StateError(f"walker {j} has amplitude on invalid basis vectors")


def dump_reference(state: StateVector) -> bytes:
    """dump_state as one f-string per amplitude, each ending in a newline,
    zeros written as 0.0, encoded as ASCII."""
    n = state.layout.total_bits
    shown = np.abs(state.amplitudes) >= DUMP_TOL
    return "".join(
        f"{idx:0{n}b}  {a.real + 0.0!r}  {a.imag + 0.0!r}\n"
        for idx, a in zip(
            state.indices[shown].tolist(), state.amplitudes[shown].tolist()
        )
    ).encode("ascii")


def rotate_basis_reference(layout: RegisterLayout, indices, amps, qubits, bases):
    """The rotation into the measured bases as one Hadamard `_apply_block`
    per X-measured qubit, in measured order: the indices and floats that
    `statevec._rotate_basis` must give, however it computes them."""
    for pos, basis in zip(qubits, bases):
        if basis == "X":
            indices, amps = _apply_block(layout, indices, amps, BlockAction((pos,), HADAMARD))
        elif basis != "Z":
            raise StateError(f"unsupported basis {basis!r}")
    return indices, amps


def canonical_bits(amps):
    """Bit patterns of the parts after `+ 0.0`, the zero sign dumps print:
    equal floats compare equal and -0.0 is 0.0, any other sign or last
    bit still counts."""
    return (np.asarray(amps, dtype=complex) + 0.0).view(np.int64)


def measure_reference(state, qubits, bases):
    """Branch-mode measure that rotates the state, and then each collapsed
    branch back, with one Hadamard block per X-measured qubit."""
    layout, n, m = state.layout, state.layout.total_bits, len(qubits)
    indices, amps = rotate_basis_reference(
        layout, state.indices, state.amplitudes, qubits, bases
    )
    outcome = _gather(indices, n, qubits)
    probs = np.bincount(outcome, weights=np.abs(amps) ** 2, minlength=1 << m)
    branches = []
    for o in np.flatnonzero(probs > 1e-12).tolist():
        p = float(probs[o])
        kept = outcome == o
        branch = rotate_basis_reference(
            layout, indices[kept], amps[kept] / np.sqrt(p), qubits, bases
        )
        bits = tuple((o >> (m - 1 - i)) & 1 for i in range(m))
        branches.append(((qubits, bases, bits, p), branch))
    return branches


def swap_matrix(nc: int, c1: int, c2: int) -> np.ndarray:
    """The 2^nc coin register permutation exchanging coins c1 and c2, as a
    dense matrix."""
    full = np.eye(1 << nc, dtype=complex)
    full[[c1, c2]] = full[[c2, c1]]
    return full


def apply_z(state: StateVector, bit: int) -> StateVector:
    """Pauli Z on one bit: the entries with the bit set change sign. The
    indices and their order stay as they are."""
    t = 1 << (state.layout.total_bits - 1 - bit)
    amps = state.amplitudes.copy()
    np.negative(amps, out=amps, where=(state.indices & t) != 0)
    return StateVector(state.layout, state.indices, amps)


def cut_matrix(state: StateVector, bits):
    """The amplitudes as a matrix whose rows are indexed by the given bits
    (first bit most significant) and columns by the remaining bits.

    Only rows and columns holding a nonzero entry are kept. Returns
    (row_keys, col_keys, matrix): the sorted row values of `bits`, the
    sorted column indices (the stored indices with `bits` cleared), and
    the compressed matrix."""
    n = state.layout.total_bits
    rows = _gather(state.indices, n, bits)
    cols = state.indices & ~_bit_mask(n, bits)
    row_keys, r = np.unique(rows, return_inverse=True)
    col_keys, c = np.unique(cols, return_inverse=True)
    check_entries(len(row_keys) * len(col_keys), "cut matrix")
    mat = np.zeros((len(row_keys), len(col_keys)), dtype=complex)
    mat[r, c] = state.amplitudes
    return row_keys, col_keys, mat


def cut_purity(mat: np.ndarray) -> float:
    """Tr(rho^2) of the reduced state on the rows of a `cut_matrix`,
    through the Gram matrix on the smaller side."""
    if mat.shape[0] <= mat.shape[1]:
        gram = mat @ mat.conj().T
    else:
        gram = mat.conj().T @ mat
    return float(np.vdot(gram, gram).real)


def compare_reference(protocol_output: StateVector, oracle_output: StateVector):
    """(walker purity, data fidelity) of one state, as `oracle.compare` made
    them one state at a time: the cut matrix of the walker bits, its
    purity, and the overlap of each walker slice with the oracle state on
    the data keys the two share."""
    layout = protocol_output.layout
    walker_bits = tuple(range(layout.k * layout.walker_bits))
    _, data_keys, slices = cut_matrix(protocol_output, walker_bits)
    purity = cut_purity(slices) if layout.k > 0 else 1.0
    _, cols, hits = np.intersect1d(
        data_keys, oracle_output.indices, assume_unique=True, return_indices=True
    )
    overlaps = slices[:, cols] @ oracle_output.amplitudes[hits].conj()
    return purity, float(np.sum(np.abs(overlaps) ** 2))


def process_check(network: str, line: str):
    """The oracle comparison of the protocol command `line` run on a Choi
    state, or None when its layout plus reference qubits is over
    MAX_TOTAL_BITS.

    Each touched data qubit, one neither a spectator nor in the protocol's
    `fresh_qubits`, gets a reference qubit at its own node in a copy of the
    network JSON, named with a trailing prime, and each pair starts in a
    Bell state: H on the reference, then one `protocols.CNOT` block from
    it. The protocol is compiled again on that network, its schedule run
    by `run_schedule` and the oracle's gates by `oracle_apply`, and
    `compare` takes the two as they are. Its data fidelity is then the
    entanglement fidelity F_e of the compiled channel against the oracle's
    unitary, over every input at once, on each measured branch."""
    graph = load_network(network)
    (name, args, lineno), = parse_script(line).commands
    compiled = _PROTOCOL_COMPILERS[name](graph, args, lineno)
    untouched = {*spectator_qubits(compiled.layout, compiled.schedule, compiled.oracle_gates),
                 *compiled.fresh_qubits}
    touched = [q for q in compiled.layout.data_order if q not in untouched]
    if compiled.layout.total_bits + len(touched) > MAX_TOTAL_BITS:
        return None
    doc = json.loads(network)
    for v, q in touched:
        doc["data_qubits"][v] = [*doc["data_qubits"][v], q + "'"]
    graph = load_network(json.dumps(doc))
    compiled = _PROTOCOL_COMPILERS[name](graph, args, lineno)

    def choi(state):
        bit = state.layout.data_bit
        return apply_actions(state, [
            act for v, q in touched for act in (
                BlockAction((bit(v, q + "'"),), HADAMARD),
                BlockAction((bit(v, q + "'"), bit(v, q)), CNOT),
            )
        ])

    state = choi(init_state(graph, compiled.layout, compiled.walker_inits))
    final, trace = run_schedule(state, compiled.schedule, graph)
    oracle_out = oracle_apply(choi(init_state(graph, data_layout(graph), [])),
                              compiled.oracle_gates)
    return compare(final if trace.branches is None else trace.branches, oracle_out)
