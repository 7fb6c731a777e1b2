"""Test-only instruments on sparse states.

No run path needs these, so they live with the tests: the conversion to
and from a dense 2^total_bits vector, the overlap fidelity, the cut
purity and reduced density of a state (through the dense formulas in
dense_reference.py), the check that no amplitude sits on a vertex or coin
code the network lacks, and the reference state dump. Dense vectors are
limited to DENSE_MAX_BITS bits, so a test can never allocate 2^62 entries.
"""
from __future__ import annotations

import numpy as np

import dense_reference as dense
from qwcp.statevec import DUMP_TOL, RegisterLayout, StateError, StateVector

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
