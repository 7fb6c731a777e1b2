"""Dense reference engine, kept for differential tests only.

These are the dense 2^total_bits implementations that `qwcp.statevec`
used before it stored only the nonzero amplitudes. They act on a plain
complex vector `amps` indexed like `instruments.to_dense`, and the
sparse engine is checked against them.
"""
from __future__ import annotations

import math

import numpy as np

from qwcp.statevec import (
    HADAMARD,
    SUPPORT_TOL,
    BlockAction,
    MeasurementRecord,
    PermAction,
    RegisterLayout,
    StateError,
)


def _apply_on_bits(amps, layout: RegisterLayout, targets, conditions, apply) -> np.ndarray:
    """`apply` to the matrix of the selected amplitudes whose rows are
    indexed by the target bits, first bit most significant; the selected
    amplitudes are those whose other bits hold the values `conditions` fix."""
    n = layout.total_bits
    out = amps.copy().reshape((2,) * n)
    index: list[object] = [slice(None)] * n
    for bits, value in conditions:
        for offset, pos in enumerate(bits):
            bit = (value >> (len(bits) - 1 - offset)) & 1
            if isinstance(index[pos], int) and index[pos] != bit:
                return amps  # contradictory conditions select nothing
            index[pos] = bit
    for pos in targets:
        if isinstance(index[pos], int):
            raise StateError("operator targets one of its own control bits")
    sub = out[tuple(index)]
    free = [p for p in range(n) if isinstance(index[p], slice)]
    axes = [free.index(p) for p in targets]
    t = len(axes)
    moved = np.moveaxis(sub, axes, range(t))
    shape = moved.shape
    res = apply(moved.reshape(1 << t, -1))
    out[tuple(index)] = np.moveaxis(res.reshape(shape), range(t), axes)
    return out.reshape(-1)


def _apply_perm(amps: np.ndarray, layout: RegisterLayout, act: PermAction) -> np.ndarray:
    register = range(act.walker * layout.walker_bits, (act.walker + 1) * layout.walker_bits)
    inverse = np.argsort(np.asarray(act.perm))
    return _apply_on_bits(amps, layout, register, act.conditions, lambda m: m[inverse])


def _apply_block(amps: np.ndarray, layout: RegisterLayout, act: BlockAction) -> np.ndarray:
    return _apply_on_bits(
        amps, layout, act.target_bits, act.conditions, lambda m: act.matrix @ m
    )


def apply_actions(amps: np.ndarray, layout: RegisterLayout, actions) -> np.ndarray:
    for act in actions:
        if isinstance(act, PermAction):
            amps = _apply_perm(amps, layout, act)
        elif isinstance(act, BlockAction):
            amps = _apply_block(amps, layout, act)
        else:
            raise StateError(f"unknown action {act!r}")
    return amps


def _rotate_basis(amps: np.ndarray, layout: RegisterLayout, qubits, bases) -> np.ndarray:
    for pos, basis in zip(qubits, bases):
        if basis == "X":
            amps = _apply_block(amps, layout, BlockAction((pos,), HADAMARD))
        elif basis != "Z":
            raise StateError(f"unsupported basis {basis!r}")
    return amps


def measure(
    amps: np.ndarray,
    layout: RegisterLayout,
    qubits,
    bases: str,
    rng: np.random.Generator | None = None,
) -> list[tuple[MeasurementRecord, np.ndarray]]:
    """Projective measurement; returns (record, collapsed dense vector)
    pairs: every possible branch, or one drawn with `rng`."""
    qubits = tuple(qubits)
    if len(qubits) != len(bases):
        raise StateError("one basis letter per measured qubit required")
    n = layout.total_bits
    for pos in qubits:
        if not 0 <= pos < n:
            raise StateError(f"bit {pos} outside layout")
    if len(set(qubits)) != len(qubits):
        raise StateError("duplicate measured qubit")

    amps = _rotate_basis(amps, layout, qubits, bases)
    m = len(qubits)
    arr = np.moveaxis(amps.reshape((2,) * n), qubits, range(m))
    tail_shape = arr.shape[m:]
    flat = arr.reshape(1 << m, -1)
    probs = (np.abs(flat) ** 2).sum(axis=1)

    if rng is not None:
        outcomes = [int(rng.choice(len(probs), p=probs / probs.sum()))]
    else:
        outcomes = [o for o in range(1 << m) if probs[o] > 1e-12]

    branches = []
    for o in outcomes:
        p = float(probs[o])
        collapsed = np.zeros_like(flat)
        collapsed[o] = flat[o] / math.sqrt(p)
        back = np.moveaxis(collapsed.reshape((2,) * m + tail_shape), range(m), qubits)
        new_amps = _rotate_basis(back.reshape(-1), layout, qubits, bases)
        bits = tuple((o >> (m - 1 - i)) & 1 for i in range(m))
        record = MeasurementRecord(qubits, bases, bits, p)
        branches.append((record, new_amps))
    return branches


def purity_across_cut(amps: np.ndarray, layout: RegisterLayout, subsystem) -> float:
    """Tr(rho^2) of the reduced state on the given bit positions."""
    bits = tuple(subsystem)
    n = layout.total_bits
    if not bits or len(bits) >= n:
        raise StateError("subsystem must be a nonempty proper subset of bits")
    if len(set(bits)) != len(bits) or not all(0 <= b < n for b in bits):
        raise StateError("invalid subsystem bit set")
    arr = np.moveaxis(amps.reshape((2,) * n), bits, range(len(bits)))
    mat = arr.reshape(1 << len(bits), -1)
    if mat.shape[0] <= mat.shape[1]:
        gram = mat @ mat.conj().T
    else:
        gram = mat.conj().T @ mat
    return float(np.vdot(gram, gram).real)


def walker_vertex_support(
    amps: np.ndarray, layout: RegisterLayout, walker: int, tolerance: float = SUPPORT_TOL
) -> set[int]:
    """Vertex ids whose marginal probability for the walker exceeds tolerance."""
    layout._check_walker(walker)
    pre = 1 << (walker * layout.walker_bits)
    arr = amps.reshape(pre, 1 << layout.nv, -1)
    probs = (np.abs(arr) ** 2).sum(axis=(0, 2))
    return {int(v) for v in np.nonzero(probs > tolerance)[0]}


def reduced_density(amps: np.ndarray, layout: RegisterLayout, keep_bits) -> np.ndarray:
    """Reduced density matrix over the given bit positions (in given order)."""
    bits = tuple(keep_bits)
    n = layout.total_bits
    arr = np.moveaxis(amps.reshape((2,) * n), bits, range(len(bits)))
    mat = arr.reshape(1 << len(bits), -1)
    return np.einsum("ia,ja->ij", mat, mat.conj())
