"""Joint state of k walker registers and the data plane.

A state is stored sparsely, as the pair (indices, amplitudes): the
sorted basis indices that carry a nonzero amplitude, and those
amplitudes. Walkers sit in near-basis positions, so a 25-bit run holds a
few dozen nonzeros rather than 2^25 slots, and every operation costs time
in the number of nonzeros, not in 2^total_bits. Only exact zeros are left
out, so the stored values are the ones a dense vector would hold.

Bit order of a basis index, most significant first: walker 0 vertex bits,
walker 0 coin bits, walker 1 vertex bits, ... , then data qubits in layout
order. Operators are never materialized as full matrices; they act
through register permutations and small controlled blocks.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .netgraph import NetworkGraph

NORM_TOL = 1e-10
SUPPORT_TOL = 1e-9
DUMP_TOL = 1e-12
DUMP_CHUNK = 4096  # dump lines laid out and written at a time
MAX_TOTAL_BITS = 62  # indices are int64 with the sign bit clear
# entries one array may hold, as many as a dense 26-bit state: the width
# cap alone does not bound them, so each array that can grow checks this
MAX_ENTRIES = 1 << 26

SQRT1_2 = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=complex)


class StateError(ValueError):
    """Invalid state construction or operator/state mismatch."""


def check_entries(count: int, what: str = "state") -> None:
    if count > MAX_ENTRIES:
        raise StateError(f"{what} would hold {count} entries, cap is {MAX_ENTRIES}")


class RegisterLayout:
    """Bit layout for k walker registers plus named data qubits. Read-only;
    equal, and hashed alike, when nv, nc, k and data_order are."""

    __slots__ = ("nv", "nc", "k", "data_order", "walker_bits", "data_bits", "total_bits")

    def __init__(self, nv: int, nc: int, k: int, data_order: tuple[tuple[str, str], ...]):
        walker_bits, data_bits = nv + nc, len(data_order)
        total_bits = k * walker_bits + data_bits
        if total_bits > MAX_TOTAL_BITS:
            raise StateError(f"layout needs {total_bits} bits, cap is {MAX_TOTAL_BITS}")
        # the shift and coin operators tabulate every code of one register
        check_entries(1 << walker_bits, "a walker register table")
        for name, value in zip(self.__slots__, (nv, nc, k, data_order, walker_bits,
                                                data_bits, total_bits)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"RegisterLayout is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.nv, self.nc, self.k, self.data_order

    def __eq__(self, other):
        if type(other) is not RegisterLayout:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "RegisterLayout(nv={!r}, nc={!r}, k={!r}, data_order={!r})".format(*self._key())

    @classmethod
    def for_network(cls, graph: NetworkGraph, k: int) -> "RegisterLayout":
        data_order = tuple(
            (v, name) for v in graph.nodes for name in graph.qubits_at(v)
        )
        return cls(graph.vertex_bits(), graph.coin_bits(), k, data_order)

    def vertex_bit_positions(self, walker: int) -> tuple[int, ...]:
        self._check_walker(walker)
        base = walker * self.walker_bits
        return tuple(range(base, base + self.nv))

    def coin_bit_positions(self, walker: int) -> tuple[int, ...]:
        self._check_walker(walker)
        base = walker * self.walker_bits + self.nv
        return tuple(range(base, base + self.nc))

    def data_bit(self, node: str, name: str) -> int:
        try:
            pos = self.data_order.index((node, name))
        except ValueError:
            raise StateError(f"no data qubit {name!r} at node {node!r}") from None
        return self.k * self.walker_bits + pos

    def data_bit_positions(self) -> tuple[int, ...]:
        base = self.k * self.walker_bits
        return tuple(range(base, base + self.data_bits))

    def _check_walker(self, walker: int) -> None:
        if not 0 <= walker < self.k:
            raise StateError(f"walker {walker} outside 0..{self.k - 1}")


class StateVector(NamedTuple):
    """Sparse state: `indices` is a sorted, unique int64 array of basis
    indices and `amplitudes` the complex128 values there. Every basis
    index not listed has amplitude exactly zero."""

    layout: RegisterLayout
    indices: np.ndarray
    amplitudes: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class MeasurementRecord(NamedTuple):
    qubits: tuple[int, ...]
    bases: str
    outcome: tuple[int, ...]
    probability: float


class BranchStack:
    """The branches of one measurement as one sparse array: branch g holds
    the entries `starts[g]:starts[g + 1]` of `indices` and `amplitudes`,
    in ascending index order, and `records[g]` is its outcome. Indexing
    and iteration give one (MeasurementRecord, StateVector) pair per
    branch, the state a view of the stack. Read-only."""

    __slots__ = ("layout", "indices", "amplitudes", "starts", "records")

    def __init__(self, layout: RegisterLayout, indices: np.ndarray, amplitudes: np.ndarray,
                 starts: np.ndarray, records: tuple[MeasurementRecord, ...]):
        # `starts` holds one more entry than there are branches
        for name, value in zip(self.__slots__, (layout, indices, amplitudes, starts, records)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"BranchStack is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, g: int) -> tuple[MeasurementRecord, StateVector]:
        g = range(len(self))[g]
        lo, hi = self.starts[g], self.starts[g + 1]
        return self.records[g], StateVector(
            self.layout, self.indices[lo:hi], self.amplitudes[lo:hi]
        )


# -- primitive actions ----------------------------------------------------
#
# OperatorSpec constructors lower every unitary to a sequence of these two
# shapes, which is all the engine knows how to apply.


class PermAction(NamedTuple):
    """Permutation of one walker's combined vertex+coin register, gated on
    fixed values of bits outside that register (as in BlockAction).

    `perm` is the register table, a read-only int64 array mapping each old
    register code to its new one; actions may share one table."""

    walker: int
    perm: np.ndarray
    conditions: tuple[tuple[tuple[int, ...], int], ...] = ()


class BlockAction(NamedTuple):
    """Small unitary on target bits, gated on fixed values of other bits."""

    target_bits: tuple[int, ...]
    matrix: np.ndarray
    conditions: tuple[tuple[tuple[int, ...], int], ...] = ()


def _bit_mask(n: int, positions) -> int:
    """Index mask of the given bit positions (position 0 is the top bit)."""
    mask = 0
    for pos in positions:
        mask |= 1 << (n - 1 - pos)
    return mask


def _gather(indices: np.ndarray, n: int, positions) -> np.ndarray:
    """Value of the given bits of each index, first position most significant.

    Each run of consecutive positions is taken with one shift and mask."""
    key = np.zeros(len(indices), dtype=np.int64)
    positions = tuple(positions)
    start = 0
    for end in range(1, len(positions) + 1):
        if end == len(positions) or positions[end] != positions[end - 1] + 1:
            width = end - start
            field = (indices >> (n - 1 - positions[end - 1])) & ((1 << width) - 1)
            key = (key << width) | field
            start = end
    return key


def _sorted(indices: np.ndarray, amps: np.ndarray):
    """Both arrays in ascending index order.

    Every primitive hands over a few sorted runs (the entries it kept and
    the ones it rebuilt, each run in index order), and the stable sort is a
    timsort for int64, which merges such runs in near-linear time where a
    quicksort starts over. Indices are unique, so the order is the same.
    Arrays passed in as temporaries are freed as soon as they are read."""
    order = np.argsort(indices, kind="stable")
    indices = indices[order]
    return indices, amps[order]


def _unique_inverse(values: np.ndarray):
    """The sorted distinct values of a 1-D array and the position of each
    value among them, as numpy's `unique` with `return_inverse` gives
    them, for an array whose equal values are equal bits (integers, or
    floats without -0.0 and NaN). It sorts with the stable argsort of
    `_sorted`: each other sort kernel numpy loads adds to peak RSS."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return ordered[first], inverse


def _selected(n: int, indices: np.ndarray, conditions, targets):
    """Mask of the entries whose bits hold the values `conditions` fix, or
    None when the conditions ask one bit for both values and so select
    nothing. An operator may not act on a bit it is conditioned on."""
    fixed: dict[int, int] = {}
    for bits, value in conditions:
        for offset, pos in enumerate(bits):
            bit = (value >> (len(bits) - 1 - offset)) & 1
            if fixed.setdefault(pos, bit) != bit:
                return None
    for pos in targets:
        if pos in fixed:
            raise StateError("operator targets one of its own control bits")
    cond_value = _bit_mask(n, [pos for pos, bit in fixed.items() if bit])
    return (indices & _bit_mask(n, fixed)) == cond_value


def _apply_perm(layout: RegisterLayout, indices, amps, act: PermAction):
    shift = layout.total_bits - (act.walker + 1) * layout.walker_bits
    mask = (1 << layout.walker_bits) - 1
    reg = (indices >> shift) & mask
    moved = (indices & ~(mask << shift)) | (act.perm[reg] << shift)
    if act.conditions:
        register = layout.vertex_bit_positions(act.walker) + layout.coin_bit_positions(act.walker)
        selected = _selected(layout.total_bits, indices, act.conditions, register)
        if selected is None:
            return indices, amps
        moved = np.where(selected, moved, indices)
    return _sorted(moved, amps)


def _apply_block(layout: RegisterLayout, indices, amps, act: BlockAction):
    n = layout.total_bits
    selected = _selected(n, indices, act.conditions, act.target_bits)
    if selected is None or not selected.any():
        return indices, amps
    sel_indices = indices[selected]

    # one row per setting of the non-target bits, one column per target value
    t = len(act.target_bits)
    target_mask = _bit_mask(n, act.target_bits)
    bases, row = _unique_inverse(sel_indices & ~target_mask)
    check_entries(len(bases) << t)
    block = np.zeros((len(bases), 1 << t), dtype=complex)
    block[row, _gather(sel_indices, n, act.target_bits)] = amps[selected]
    block = block @ act.matrix.T
    spread = np.zeros(1 << t, dtype=np.int64)
    for j, pos in enumerate(act.target_bits):
        spread |= ((np.arange(1 << t) >> (t - 1 - j)) & 1) << (n - 1 - pos)
    # column by column: one sorted run per target value
    new_indices = (spread[:, None] | bases[None, :]).ravel()
    new_amps = block.T.ravel()
    nonzero = new_amps != 0
    return _sorted(
        np.concatenate((indices[~selected], new_indices[nonzero])),
        np.concatenate((amps[~selected], new_amps[nonzero])),
    )


def apply_actions(state: StateVector, actions) -> StateVector:
    layout = state.layout
    indices, amps = state.indices, state.amplitudes
    for act in actions:
        if isinstance(act, PermAction):
            indices, amps = _apply_perm(layout, indices, amps, act)
        elif isinstance(act, BlockAction):
            indices, amps = _apply_block(layout, indices, amps, act)
        else:
            raise StateError(f"unknown action {act!r}")
    return StateVector(layout, indices, amps)


def apply_operator(state: StateVector, op) -> StateVector:
    """Apply one OperatorSpec; checks layout identity and norm drift."""
    if op.layout != state.layout:
        raise StateError("operator built for a different layout")
    result = apply_actions(state, op.iter_actions())
    if abs(math.sqrt(np.vdot(result.amplitudes, result.amplitudes).real) - 1.0) > NORM_TOL:
        raise StateError(f"norm drifted to {result.norm!r}")
    return result


# -- construction ---------------------------------------------------------


def init_state(
    graph: NetworkGraph,
    layout: RegisterLayout,
    walker_inits,
    data_inits=None,
) -> StateVector:
    """Product state of walker basis positions and single-qubit data states.

    walker_inits: one (node_label, coin) pair per walker.
    data_inits: optional {(node, name): length-2 amplitude pair}; qubits
    not listed start in |0>.
    """
    walker_inits = list(walker_inits)
    if len(walker_inits) != layout.k:
        raise StateError(f"expected {layout.k} walker inits, got {len(walker_inits)}")
    widx = 0
    for node, coin in walker_inits:
        vid = graph.vertex_id(node)
        if not 0 <= coin < graph.port_count(node):
            raise StateError(f"coin {coin} invalid at node {node!r}")
        widx = (widx << layout.walker_bits) | (vid << layout.nc) | coin

    inits = dict(data_inits or {})
    for key in inits:
        if tuple(key) not in layout.data_order:
            raise StateError(f"data init references unknown qubit {key!r}")
    factors = {}
    for key, pos in zip(layout.data_order, layout.data_bit_positions()):
        if key not in inits:
            continue  # |0>: its factor is 1 at bit value 0
        q = np.asarray(inits[key], dtype=complex)
        if q.shape != (2,):
            raise StateError(f"data state for {key!r} must have 2 amplitudes")
        if abs(np.linalg.norm(q) - 1.0) > NORM_TOL:
            raise StateError(f"data state for {key!r} is not normalized")
        factors[pos] = q
    walkers = np.array([widx << layout.data_bits], dtype=np.int64)
    return insert_qubits(StateVector(layout, walkers, np.ones(1, dtype=complex)), factors)


def insert_qubits(state: StateVector, factors: dict) -> StateVector:
    """Kronecker product of the state with single-qubit states.

    factors: {bit position: length-2 amplitude pair}; the state must hold
    each of these bits at 0. Every stored entry becomes one entry per
    nonzero amplitude of each factor, with that factor's bit set to match;
    a product that underflows to zero is dropped. Factors are multiplied
    in on the right, in the order given, so a product comes out as
    `np.kron` would form it. `init_state` builds its product here.

    Each entry is followed by its copies with the factor's bit set, so the
    product is already in index order when the state sets no bit below
    the factor positions and the factors come in increasing position, as
    `init_state` gives them; only a product out of order is sorted."""
    if not factors:
        return state
    n = state.layout.total_bits
    indices, amps = state.indices, state.amplitudes
    check_entries(_product_size(state, factors))
    for pos, q in factors.items():
        q = np.asarray(q, dtype=complex)
        bits = np.flatnonzero(q).tolist()
        # one column per bit value, each filled by one loop over the
        # entries: a broadcast product with a 2-wide inner axis would
        # allocate numpy's iteration buffers on top
        shape = (len(indices), len(bits))
        new_indices, new_amps = np.empty(shape, dtype=np.int64), np.empty(shape, dtype=complex)
        for j, bit in enumerate(bits):
            np.bitwise_or(indices, bit << (n - 1 - pos), out=new_indices[:, j])
            np.multiply(amps, q[bit], out=new_amps[:, j])
        indices, amps = new_indices.ravel(), new_amps.ravel()
    nonzero = amps != 0
    if not nonzero.all():
        indices, amps = indices[nonzero], amps[nonzero]
    if np.any(indices[1:] <= indices[:-1]):
        indices, amps = _sorted(indices, amps)
    return StateVector(state.layout, indices, amps)


def _product_size(state: StateVector, factors: dict) -> int:
    """Entries of the product of `state` with single-qubit `factors`, as
    `insert_qubits` forms it before dropping zeros: one per stored entry
    and pattern of the factors' nonzero bits. The state must hold each
    factor bit at 0."""
    if np.any(state.indices & _bit_mask(state.layout.total_bits, factors)):
        raise StateError("inserted qubits must be 0 in the state")
    pairs = np.array(list(factors.values()), dtype=complex).reshape(-1, 2)
    return len(state.indices) * math.prod(np.count_nonzero(pairs, axis=1).tolist())


# -- measurement ----------------------------------------------------------


def _rotate_basis(layout: RegisterLayout, indices, amps, qubits, bases):
    """The entries rotated into the measured bases: one Hadamard
    `_apply_block` per X-measured qubit, in measured order."""
    for basis in bases:
        if basis not in ("X", "Z"):
            raise StateError(f"unsupported basis {basis!r}")
    for pos, basis in zip(qubits, bases):
        if basis == "X":
            indices, amps = _apply_block(layout, indices, amps, BlockAction((pos,), HADAMARD))
    return indices, amps


def measure(
    state: StateVector,
    qubits,
    bases: str,
    rng=None,
) -> BranchStack:
    """Projective measurement of the given bits, as a `BranchStack`.

    Without `rng` every nonzero-probability branch is kept with its exact
    probability; with it, a single branch is drawn with Born statistics,
    by `Generator.choice`'s rule from one `rng.random()` in [0, 1).
    Collapsed branches are renormalized and X-measured qubits are left in
    the corresponding |+>/|-> state.

    The state is rotated into the measured bases once, with one Hadamard
    block per X-measured qubit (`_rotate_basis`). Each step then runs
    once over the kept entries of all branches, each tagged with its
    outcome: the division by the square root of the branch probability,
    then, for each X-measured qubit in measured order, the doubling of
    every entry that puts the qubit back in the Hadamard column its
    outcome bit selects (a product that underflows to zero is dropped).
    One sort by (outcome, index) stacks the branches."""
    qubits = tuple(qubits)
    if len(qubits) != len(bases):
        raise StateError("one basis letter per measured qubit required")
    layout = state.layout
    n = layout.total_bits
    for pos in qubits:
        if not 0 <= pos < n:
            raise StateError(f"bit {pos} outside layout")
    if len(set(qubits)) != len(qubits):
        raise StateError("duplicate measured qubit")

    indices, amps = _rotate_basis(layout, state.indices, state.amplitudes, qubits, bases)
    m = len(qubits)
    outcome = _gather(indices, n, qubits)
    probs = np.bincount(outcome, weights=np.abs(amps) ** 2, minlength=1 << m)

    if rng is not None:
        cdf = np.cumsum(probs / probs.sum())
        outcomes = np.array([(cdf / cdf[-1]).searchsorted(rng.random(), side="right")])
        kept = outcome == outcomes[0]
    else:
        possible = probs > 1e-12
        outcomes = np.flatnonzero(possible)
        kept = possible[outcome]

    tags = outcome[kept]
    indices, amps = indices[kept], amps[kept] / np.sqrt(probs[tags])
    x_measured = [i for i, basis in enumerate(bases) if basis == "X"]
    check_entries(len(indices) << len(x_measured))
    for i in x_measured:
        t = n - 1 - qubits[i]
        column = (tags >> (m - 1 - i)) & 1
        indices = ((indices & ~(1 << t)) | np.array([[0], [1 << t]])).ravel()
        amps = (amps * HADAMARD[:, column]).ravel()
        tags = np.concatenate((tags, tags))
    if x_measured:
        nonzero = amps != 0
        indices, amps, tags = indices[nonzero], amps[nonzero], tags[nonzero]
    order = np.lexsort((indices, tags))
    bits = (outcomes[:, None] >> np.arange(m - 1, -1, -1)) & 1
    records = tuple(
        MeasurementRecord(qubits, bases, tuple(b), p)
        for b, p in zip(bits.tolist(), probs[outcomes].tolist())
    )
    starts = np.searchsorted(tags[order], np.append(outcomes, 1 << m))
    return BranchStack(layout, indices[order], amps[order], starts, records)


# -- analysis -------------------------------------------------------------


def walker_vertex_support(state: StateVector) -> list[set[int]]:
    """Each walker's vertex ids whose marginal probability exceeds
    SUPPORT_TOL, walker 0 first.

    One `bincount` covers every walker: bin (w << nv) + v sums walker w's
    entries at vertex v in index order, the same additions in the same
    order as a pass of that walker alone, so the marginals are bit for
    bit those of one pass per walker."""
    layout = state.layout
    k, nv, wb = layout.k, layout.nv, layout.walker_bits
    top = layout.total_bits - nv  # shift of walker 0's vertex field
    # one row per entry, one column per walker
    keys = (state.indices[:, None] >> np.arange(top, top - k * wb, -wb)) & ((1 << nv) - 1)
    keys += np.arange(0, k << nv, 1 << nv)
    weights = np.repeat(np.abs(state.amplitudes) ** 2, k)
    probs = np.bincount(keys.ravel(), weights=weights, minlength=k << nv)
    supports: list[set[int]] = [set() for _ in range(k)]
    for key in (probs > SUPPORT_TOL).nonzero()[0].tolist():
        supports[key >> nv].add(key & ((1 << nv) - 1))
    return supports


# byte value -> its 8 bits as '0'/'1' characters, read as one uint64
_BIT_CHARS = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) + ord("0")
).view(np.uint64).ravel()


def _window(buf: np.ndarray, width: int) -> np.ndarray:
    """Every run of `width` bytes of `buf` as one element; element k starts
    at byte k, so assigning to element k writes bytes k..k+width-1."""
    return np.ndarray((len(buf) - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))


def check_dump(core: StateVector, factors: dict) -> int:
    """Line count of the dump of `insert_qubits(core, factors)`, zero
    amplitudes included: one per core entry and pattern of the factors'
    nonzero bits. Refuses more than MAX_ENTRIES lines, and a core that
    sets a factor bit."""
    lines = _product_size(core, factors)
    if lines > MAX_ENTRIES:
        raise StateError(f"state dump would have {lines} lines, cap is {MAX_ENTRIES}")
    return lines


def dump_state(out, core: StateVector, factors: dict) -> None:
    """Write the dump of `insert_qubits(core, factors)` to the binary file
    `out`, without building that product: one ASCII line per amplitude of
    magnitude at least DUMP_TOL, `index_bits  re  im`, ascending, each
    ending in a newline; nothing when no amplitude reaches DUMP_TOL.

    Zeros are printed as `0.0`: each part is written as `x + 0.0`, which
    turns -0.0 into 0.0 and leaves every other value as it is, so the sign
    of a zero never depends on how the engine computed it.

    A line is one core entry with one pattern of the factors' nonzero
    bits. Its amplitude is the core amplitude times the factors' values,
    multiplied in the order of `factors`, as `insert_qubits` multiplies
    them, so every float is the one the product holds. These products are
    formed once per distinct core amplitude and distinct sequence of
    factor values (a qubit in |+> gives one value for both bits); each
    distinct float is formatted with `repr` once, and each distinct
    (re, im) pair once as a line tail. The line indices are sorted once.
    DUMP_CHUNK lines at a time are then laid out in one byte buffer and
    written: each line's tail from a table of tails, then its index bits
    from a table of the bit characters of every byte value."""
    if not check_dump(core, factors):
        return
    n = core.layout.total_bits
    # distinct core amplitudes, bit for bit: distinct pairs of the bit
    # patterns of their halves, in an order that never reaches the output
    halves, half_of = _unique_inverse(core.amplitudes.view(np.int64))
    codes, core_of = _unique_inverse(half_of[0::2] * len(halves) + half_of[1::2])
    values = np.empty(len(codes), dtype=complex)
    values[core_of] = core.amplitudes  # the entries of one value hold the same bits
    products = values  # value v with sequence s at v * sequences + s
    patterns = np.zeros(1, dtype=np.int64)  # the factor bits of each pattern
    split = []  # for each factor with two nonzero bits: do they hold two values
    qs = np.array(list(factors.values()), dtype=complex).reshape(-1, 2)
    for pos, q, nonzero in zip(factors, qs, (qs != 0).tolist()):
        bits = [b for b in (0, 1) if nonzero[b]]
        patterns = np.bitwise_or.outer(patterns, [b << (n - 1 - pos) for b in bits]).ravel()
        two_values = len(bits) == 2 and q[:1].tobytes() != q[1:].tobytes()
        if len(bits) == 2:
            split.append(two_values)
        if two_values:
            # equal lengths: numpy's vector loop, which `insert_qubits` takes
            # (a lone pair of scalars can take a loop that rounds apart)
            products = np.repeat(products, 2) * np.tile(q, len(products))
        else:
            products = products * q[bits[0] : bits[0] + 1]
    # a pattern's sequence: its bits of the factors that hold two values
    ordinal = np.arange(len(patterns))
    sequence = np.zeros(len(patterns), dtype=np.intp)
    for j in np.flatnonzero(split).tolist():
        sequence = 2 * sequence + ((ordinal >> (len(split) - 1 - j)) & 1)
    shown = np.abs(products) >= DUMP_TOL
    if not shown.any():
        return
    parts = products[shown].view(np.float64) + 0.0  # re, im, re, im, ...
    floats, which = _unique_inverse(parts)
    text = [repr(x) for x in floats.tolist()]
    pairs, tail_of_shown = _unique_inverse(which[0::2] * len(floats) + which[1::2])
    tails = [
        f"  {text[p // len(floats)]}  {text[p % len(floats)]}\n".encode()
        for p in pairs.tolist()
    ]
    tail_of = np.full(len(products), -1, dtype=np.intp)  # -1: below DUMP_TOL
    tail_of[shown] = tail_of_shown
    first = core_of * (len(products) // len(values))  # each core entry's first product
    # line (i << m) + p is core entry i with pattern p
    m = len(patterns).bit_length() - 1
    keys = np.bitwise_or.outer(core.indices, patterns).ravel()
    lines = np.argsort(keys, kind="stable")

    # Tails are written first, each right-aligned in the widest tail of its
    # class, so that the bytes before it fall in its line's index bits,
    # written next. A class spans widths at most n apart.
    tail_len = np.array([len(t) for t in tails])
    widths = sorted(set(tail_len.tolist()), reverse=True)
    tops = [widths[0]]
    for w in widths:
        if w < tops[-1] - n:
            tops.append(w)
    tail_class = np.searchsorted(-np.array(tops), -tail_len, side="right") - 1
    tables = [
        np.frombuffer(b"".join(t.rjust(top, b"\0")[-top:] for t in tails), dtype=f"V{top}")
        for top in tops
    ]
    nbytes = (n + 7) // 8  # low bytes of an index that hold its bits
    every_shown = shown.all()
    chunk = min(DUMP_CHUNK, len(lines))
    buf = np.empty((n + int(tail_len.max())) * chunk, dtype=np.uint8)
    # the characters of each line's index bytes, the last n of them its bits
    chars = np.empty((chunk, nbytes), dtype=np.uint64)
    bit_chars = np.ndarray((chunk,), f"V{n}", chars, 8 * nbytes - n, (8 * nbytes,))
    for lo in range(0, len(lines), DUMP_CHUNK):
        block = lines[lo : lo + DUMP_CHUNK]
        block_tail = tail_of.take(first.take(block >> m) + sequence.take(block & ((1 << m) - 1)))
        if not every_shown:
            block, block_tail = block[block_tail >= 0], block_tail[block_tail >= 0]
            if not len(block):
                continue
        if len(widths) == 1:  # lines of one length, a stride apart
            step = n + widths[0]
            start, size = slice(0, step * len(block), step), step * len(block)
            _window(buf[n:], widths[0])[start] = tables[0].take(block_tail)
        else:
            length = n + tail_len.take(block_tail)
            end = np.cumsum(length)
            start, size = end - length, int(end[-1])
            for c, (top, table) in enumerate(zip(tops, tables)):
                sel = slice(None) if len(tops) == 1 else tail_class.take(block_tail) == c
                _window(buf, top)[end[sel] - top] = table.take(block_tail[sel])
        index = keys.take(block)
        for k in range(nbytes):
            chars[: len(block), k] = _BIT_CHARS.take((index >> (8 * (nbytes - 1 - k))) & 0xFF)
        _window(buf, n)[start] = bit_chars[: len(block)]
        out.write(buf[:size])
