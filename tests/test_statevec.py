import io
import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwcp import (
    RegisterLayout,
    statevec,
    load_network,
    StateError,
    StateVector,
    compare,
    dump_state,
    init_state,
    measure,
    walker_vertex_support,
)
from qwcp.statevec import (
    BlockAction,
    DUMP_CHUNK,
    DUMP_TOL,
    HADAMARD,
    MAX_ENTRIES,
    MAX_TOTAL_BITS,
    SQRT1_2,
    PermAction,
    _gather,
    _rotate_basis,
    apply_actions,
    check_dump,
    insert_qubits,
)

from conftest import line_json, random_state
from instruments import (
    apply_z,
    canonical_bits,
    check_no_invalid_amplitude,
    cut_matrix,
    cut_purity,
    dump_reference,
    fidelity,
    from_dense,
    measure_reference,
    reduced_density,
    rotate_basis_reference,
    to_dense,
)


def test_layout_bit_positions(path3):
    lay = RegisterLayout.for_network(path3, 2)
    assert lay.walker_bits == 4 and lay.data_bits == 2
    assert lay.total_bits == 10
    assert lay.vertex_bit_positions(0) == (0, 1)
    assert lay.coin_bit_positions(0) == (2, 3)
    assert lay.vertex_bit_positions(1) == (4, 5)
    assert lay.data_bit("A", "a") == 8
    assert lay.data_bit("B", "b") == 9
    with pytest.raises(StateError):
        lay.data_bit("A", "nope")
    with pytest.raises(StateError):
        lay.vertex_bit_positions(2)


def test_layout_rejects_oversized(grid3):
    assert MAX_TOTAL_BITS == 62  # int64 indices with the sign bit clear
    assert RegisterLayout.for_network(grid3, 8).total_bits == 60  # 8*7 + 4
    with pytest.raises(StateError, match="layout needs 67 bits, cap is 62"):
        RegisterLayout.for_network(grid3, 9)
    # the check sits in the layout itself, so directly built layouts are covered
    assert wide_layout(62).total_bits == 62
    with pytest.raises(StateError, match="layout needs 63 bits, cap is 62"):
        wide_layout(63)


def test_layout_is_a_read_only_value(path3):
    """Layouts are equal, and hash alike, when nv, nc, k and data_order
    are; their widths are set once, at construction, and never change."""
    lay = RegisterLayout.for_network(path3, 2)
    twin = RegisterLayout(lay.nv, lay.nc, lay.k, tuple(list(lay.data_order)))
    assert twin is not lay and twin == lay and not twin != lay and hash(twin) == hash(lay)
    assert len({lay, twin, RegisterLayout.for_network(path3, 1)}) == 2
    assert lay != RegisterLayout(lay.nv, lay.nc, lay.k, lay.data_order[:1])
    assert lay != (lay.nv, lay.nc, lay.k, lay.data_order)
    assert eval(repr(lay), {"RegisterLayout": RegisterLayout}) == lay
    for name in ("nv", "k", "data_order", "walker_bits", "data_bits", "total_bits"):
        with pytest.raises(AttributeError):
            setattr(lay, name, 0)
        with pytest.raises(AttributeError):
            delattr(lay, name)
    assert (lay.walker_bits, lay.data_bits, lay.total_bits) == (4, 2, 10)
    assert "total_bits" in vars(RegisterLayout)["__slots__"]


def test_entry_cap_is_checked_before_each_growing_array():
    # each array below would exceed MAX_ENTRIES = 2^26; none is built
    from qwcp.statevec import MAX_ENTRIES

    assert MAX_ENTRIES == 1 << 26
    # the shift's table of one walker register: 2^(nv + nc) codes
    assert RegisterLayout(13, 13, 2, ()).walker_bits == 26
    with pytest.raises(StateError, match=f"walker register table would hold {1 << 27}"):
        RegisterLayout(14, 13, 1, ())
    lay = wide_layout(40)
    one = StateVector(lay, np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))
    plus = HADAMARD[:, 0]
    with pytest.raises(StateError, match=f"state would hold {1 << 27} entries"):
        insert_qubits(one, {pos: plus for pos in range(27)})
    assert len(insert_qubits(one, {pos: plus for pos in range(10)}).indices) == 1 << 10
    # 2^19 distinct settings of the other bits times 2^8 target values
    spread = StateVector(lay, np.arange(1 << 19, dtype=np.int64),
                         np.full(1 << 19, 2.0 ** -9.5, dtype=complex))
    with pytest.raises(StateError, match=f"state would hold {1 << 27} entries"):
        apply_actions(spread, [BlockAction(tuple(range(8)), np.eye(256, dtype=complex))])
    # measured branches: 2^14 rotated entries, each put back in the 2^14
    # values of its X-measured qubits
    with pytest.raises(StateError, match=f"state would hold {1 << 28} entries"):
        measure(one, range(14), "X" * 14)
    # compare's (branch, walker key, data key) array. One diagonal state:
    # 2^14 walker keys times 2^14 data keys
    data = tuple(("A", f"q{i}") for i in range(16))

    def oracle(data_order):
        layout = RegisterLayout(1, 1, 0, data_order)
        return StateVector(layout, np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))

    keys = np.arange(1 << 14, dtype=np.int64)
    diagonal = StateVector(RegisterLayout(7, 7, 1, data[:14]), (keys << 14) | keys,
                           np.full(1 << 14, 2.0 ** -7, dtype=complex))
    with pytest.raises(StateError, match=f"cut matrix would hold {1 << 28} entries"):
        compare(diagonal, oracle(data[:14]))
    # 2^5 branches, each 2^11 walker keys times 2^11 data keys: under the
    # cap one at a time, over it as one stack
    w, o = keys[: 1 << 11], np.arange(1 << 5, dtype=np.int64)
    stacked = StateVector(
        RegisterLayout(6, 5, 1, data),
        np.sort(((w << 16) | w)[None, :] | (o << 11)[:, None], axis=None),
        np.full(1 << 16, 2.0 ** -8, dtype=complex),
    )
    stack = measure(stacked, range(11, 16), "Z" * 5)
    assert len(stack) == 1 << 5
    with pytest.raises(StateError, match=f"cut matrix would hold {1 << 27} entries"):
        compare(stack, oracle(data))


def test_init_state_places_walker_and_data(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("u", 2)], {("B", "b"): (0.0, 1.0)})
    # u has id 2, coin 2; data a=0 b=1
    idx = (((2 << 2) | 2) << 2) | 0b01
    expect = np.zeros(1 << lay.total_bits, dtype=complex)
    expect[idx] = 1.0
    assert np.array_equal(to_dense(s), expect)
    assert walker_vertex_support(s)[0] == {2}


def test_init_state_validations(path3):
    lay = RegisterLayout.for_network(path3, 1)
    with pytest.raises(StateError):
        init_state(path3, lay, [])
    with pytest.raises(StateError):
        init_state(path3, lay, [("A", 3)])  # A has only ports 0,1
    with pytest.raises(StateError):
        init_state(path3, lay, [("A", 0)], {("A", "a"): (1.0, 1.0)})
    with pytest.raises(StateError):
        init_state(path3, lay, [("A", 0)], {("A", "zz"): (1.0, 0.0)})


def test_init_state_drops_products_that_underflow():
    # 1e-170 * 1e-170 rounds to zero; a sparse state stores no exact zero
    graph = load_network(line_json(["A", "B"], {"A": ["p", "q"]}))
    layout = RegisterLayout.for_network(graph, 1)
    tiny = (1e-170, 1.0)
    s = init_state(graph, layout, [("A", 0)], {("A", "p"): tiny, ("A", "q"): tiny})
    assert s.indices.tolist() == [1, 2, 3]
    assert np.all(s.amplitudes != 0)

@st.composite
def qubit_states(draw):
    """A normalised 2-vector: |0>, |1>, |+>, |->, a phase on one entry with
    an exact zero in the other, or a general superposition."""
    kind = draw(st.sampled_from(["0", "1", "+", "-", "zero entry", "general"]))
    fixed = {"0": (1.0, 0.0), "1": (0.0, 1.0), "+": (SQRT1_2, SQRT1_2), "-": (SQRT1_2, -SQRT1_2)}
    if kind in fixed:
        return fixed[kind]
    phase = np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    if kind == "zero entry":
        return (0.0, phase) if draw(st.booleans()) else (phase, 0.0)
    theta = draw(st.floats(0.0, np.pi / 2))
    return (np.cos(theta), phase * np.sin(theta))


def kron_reference(graph, layout, walker_inits, data_inits):
    """The dense product state, one `np.kron` per walker register and
    per data qubit in layout order."""
    vec = np.ones(1, dtype=complex)
    for node, coin in walker_inits:
        reg = np.zeros(1 << layout.walker_bits, dtype=complex)
        reg[(graph.vertex_id(node) << layout.nc) | coin] = 1.0
        vec = np.kron(vec, reg)
    for key in layout.data_order:
        vec = np.kron(vec, np.asarray(data_inits.get(key, (1.0, 0.0)), dtype=complex))
    return vec


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_init_state_matches_kron_bitwise(data):
    # 0-6 data qubits on a 2- or 3-node line (walkers of 2 or 4 bits), and
    # as many walkers, 1 to 3, as keep the layout within 12 bits
    nodes = data.draw(st.sampled_from([["A", "B"], ["A", "B", "C"]]))
    per_node = 6 // len(nodes)
    qubits = {v: [f"q{i}" for i in range(data.draw(st.integers(0, per_node)))] for v in nodes}
    graph = load_network(line_json(nodes, qubits))
    data_bits = sum(map(len, qubits.values()))
    walker_bits = RegisterLayout.for_network(graph, 1).walker_bits
    k = data.draw(st.integers(1, min(3, (12 - data_bits) // walker_bits)))
    layout = RegisterLayout.for_network(graph, k)
    walker_inits = []
    for _ in range(k):
        node = data.draw(st.sampled_from(nodes))
        walker_inits.append((node, data.draw(st.integers(0, graph.port_count(node) - 1))))
    data_inits = {key: data.draw(qubit_states()) for key in layout.data_order
                  if data.draw(st.booleans())}
    got = init_state(graph, layout, walker_inits, data_inits)
    want = kron_reference(graph, layout, walker_inits, data_inits)
    assert np.array_equal(got.indices, np.flatnonzero(want))
    assert np.array_equal(canonical_bits(to_dense(got)), canonical_bits(want))


PARTS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e-170, -3e-200]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_insert_qubits_matches_kron_in_any_order(data):
    """Factors at any positions, in any order, into states that set bits
    below them (and amplitudes and factors whose products can underflow):
    the product is sorted, unique, and `np.kron`'s, bit for bit."""
    n = data.draw(st.integers(1, 8))
    layout = RegisterLayout(1, 1, 0, tuple(("A", f"q{i}") for i in range(n)))
    positions = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4))
    factor_bits = sum(1 << (n - 1 - pos) for pos in positions)
    free = [i for i in range(1 << n) if not i & factor_bits]
    indices = sorted(data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=8,
                                        unique=True)))
    amps = [data.draw(st.builds(complex, PARTS, PARTS).filter(bool)) for _ in indices]
    factors = {pos: data.draw(st.one_of(qubit_states(), st.tuples(
        st.sampled_from([0.0, 1e-170, 0.6]), st.sampled_from([1e-160, -0.8j]))))
        for pos in positions}
    got = insert_qubits(StateVector(layout, np.array(indices, dtype=np.int64),
                                    np.array(amps, dtype=complex)), factors)
    want = {}
    for index, amp in zip(indices, amps):
        vec = np.array([amp])
        for q in factors.values():
            vec = np.kron(vec, np.asarray(q, dtype=complex))
        for pattern, value in enumerate(vec):
            for j, pos in enumerate(positions):
                index |= ((pattern >> (len(positions) - 1 - j)) & 1) << (n - 1 - pos)
            if value != 0:
                want[index] = value
            index &= ~factor_bits
    assert np.all(got.indices[1:] > got.indices[:-1])
    assert got.indices.tolist() == sorted(want)
    assert np.array_equal(got.amplitudes.view(np.int64),
                          np.array([want[i] for i in sorted(want)], dtype=complex).view(np.int64))


def test_run_peak_bytes_per_entry(tmp_path, monkeypatch):
    """Traced memory of a `remote_cu` run whose states hold 2^14 entries,
    14 controls in |+>; a state stores 24 B per entry. Tracing starts with
    the run. `init_state` peaks at most 40 B per entry above the memory
    live when it starts, and the run at most 109 B per entry (99
    measured, and a tenth more)."""
    from qwcp import cli

    controls = [f"c{i}" for i in range(14)]
    net = tmp_path / "net.json"
    net.write_text(line_json(["A", "u", "B"], {"A": controls, "B": ["b"]}))
    script = tmp_path / "s.qws"
    script.write_text("".join([
        f"network {net}\n", *(f"init A.{c}=+\n" for c in controls),
        f"remote_cu control={','.join(f'A.{c}' for c in controls)} target=B.b "
        "path=A,u,B gate=X\n"]))
    argv = ["run", str(script), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0  # lazy set-up is done before measuring
    peaks, init_above = [], []

    def init_state(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        state = statevec.init_state(*args)
        init_above.append(tracemalloc.get_traced_memory()[1] - start)
        return state

    monkeypatch.setattr(cli, "init_state", init_state)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = max(peaks + [tracemalloc.get_traced_memory()[1]])
    finally:
        tracemalloc.stop()
    entries = 1 << 14
    assert len(init_above) == 2  # the protocol's state and the oracle's
    assert max(init_above) <= 40 * entries
    assert peak <= 109 * entries


def test_perm_action_moves_one_walker_only(path3):
    lay = RegisterLayout.for_network(path3, 2)
    rng = np.random.default_rng(0)
    s = random_state(lay, rng)
    reg = 1 << lay.walker_bits
    perm = np.roll(np.arange(reg), 3)
    moved = apply_actions(s, [PermAction(1, perm)])
    # walker 0 marginal unchanged
    a0 = to_dense(s).reshape(reg, reg, -1)
    b0 = to_dense(moved).reshape(reg, reg, -1)
    assert np.allclose(
        (np.abs(a0) ** 2).sum(axis=(1, 2)), (np.abs(b0) ** 2).sum(axis=(1, 2))
    )
    # and the permutation really is applied: amplitude at (w0, p(r), d) matches
    for r in range(reg):
        assert np.allclose(b0[:, perm[r], :], a0[:, r, :])


def test_block_action_conditions(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("A", 0)])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    bit_a = lay.data_bit("A", "a")
    # condition on walker at vertex id 2 (u): A-walker state untouched
    cond_u = ((lay.vertex_bit_positions(0), 2),)
    same = apply_actions(s, [BlockAction((bit_a,), x, cond_u)])
    assert np.array_equal(to_dense(same), to_dense(s))
    # condition on vertex id 0 (A): data qubit flips
    cond_a = ((lay.vertex_bit_positions(0), 0),)
    flipped = apply_actions(s, [BlockAction((bit_a,), x, cond_a)])
    probs = np.abs(to_dense(flipped)) ** 2
    idx = int(np.flatnonzero(probs > 0.5)[0])
    assert (idx >> (lay.total_bits - 1 - bit_a)) & 1 == 1


def test_block_action_rejects_target_in_condition(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("A", 0)])
    bit = lay.data_bit("A", "a")
    with pytest.raises(StateError):
        apply_actions(s, [BlockAction((bit,), HADAMARD, (((bit,), 1),))])


def test_perm_action_rejects_condition_on_its_register(path3):
    # a remap conditioned on a bit it moves would merge entries
    lay = RegisterLayout.for_network(path3, 2)
    s = random_state(lay, np.random.default_rng(0))
    perm = np.roll(np.arange(1 << lay.walker_bits), 1)
    for bit in (*lay.vertex_bit_positions(1), *lay.coin_bit_positions(1)):
        with pytest.raises(StateError, match="its own control bits"):
            apply_actions(s, [PermAction(1, perm, (((bit,), 0),))])


def test_measure_z_branches(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("A", 0)], {("A", "a"): (HADAMARD[0, 0], HADAMARD[1, 0])})
    branches = measure(s, [lay.data_bit("A", "a")], "Z")
    assert len(branches) == 2
    for record, st_b in branches:
        assert record.probability == pytest.approx(0.5)
        assert st_b.norm == pytest.approx(1.0)
        probs = np.abs(to_dense(st_b)) ** 2
        idx = int(np.flatnonzero(probs > 0.5)[0])
        bit = (idx >> (lay.total_bits - 1 - lay.data_bit("A", "a"))) & 1
        assert bit == record.outcome[0]


def test_measure_x_basis_definite_outcome(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("A", 0)], {("A", "a"): (HADAMARD[0, 0], HADAMARD[1, 0])})
    branches = measure(s, [lay.data_bit("A", "a")], "X")
    assert len(branches) == 1
    record, st_b = branches[0]
    assert record.outcome == (0,)  # |+> is the X=+1 eigenstate
    assert fidelity(st_b, s) == pytest.approx(1.0)


def test_measure_with_rng_draws_one_branch(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("A", 0)])
    rng = np.random.default_rng(5)
    (record, _), = measure(s, [0], "Z", rng)
    assert record.probability == pytest.approx(1.0)


def test_purity_and_reduced_density_product_vs_entangled(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("A", 0)])
    cut = tuple(range(lay.k * lay.walker_bits))
    assert cut_purity(cut_matrix(s, cut)[2]) == pytest.approx(1.0)
    # entangle walker coin bit with the data qubit
    bit_a = lay.data_bit("A", "a")
    coin_low = lay.coin_bit_positions(0)[-1]
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = apply_actions(s, [BlockAction((coin_low,), HADAMARD)])
    s2 = apply_actions(s2, [BlockAction((bit_a,), x, (((coin_low,), 1),))])
    assert cut_purity(cut_matrix(s2, cut)[2]) == pytest.approx(0.5)
    rho = reduced_density(s2, (bit_a,))
    assert np.allclose(rho, np.eye(2) / 2)


def test_purity_matches_dense_reduced_density(path3):
    lay = RegisterLayout.for_network(path3, 2)
    rng = np.random.default_rng(7)
    s = random_state(lay, rng)
    cut = tuple(range(lay.k * lay.walker_bits))
    rho = reduced_density(s, cut)
    assert cut_purity(cut_matrix(s, cut)[2]) == pytest.approx(
        float(np.trace(rho @ rho).real), abs=1e-12
    )


def test_walker_vertex_support_ignores_tiny_amplitude(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("A", 0)])
    amps = to_dense(s)
    amps[-1] = 1e-8  # below support tolerance in probability
    s2 = from_dense(lay, amps / np.linalg.norm(amps))
    assert walker_vertex_support(s2)[0] == {0}


def test_check_no_invalid_amplitude(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("A", 0)])
    check_no_invalid_amplitude(s, path3)
    bad = np.zeros_like(to_dense(s))
    bad[-1] = 1.0  # vertex code 3 does not exist
    with pytest.raises(StateError):
        check_no_invalid_amplitude(from_dense(lay, bad), path3)


def dumped(core, factors=None) -> bytes:
    """The bytes `dump_state` writes for `core` times `factors`."""
    out = io.BytesIO()
    dump_state(out, core, factors or {})
    return out.getvalue()


def test_dump_state_format(path3):
    lay = RegisterLayout.for_network(path3, 1)
    s = init_state(path3, lay, [("u", 1)], {("B", "b"): (0.0, 1.0)})
    text = dumped(s)
    assert isinstance(text, bytes) and text.endswith(b"\n")
    lines = text.split(b"\n")[:-1]
    assert len(lines) == 1
    bits, re_s, im_s = lines[0].decode("ascii").split()
    assert len(bits) == lay.total_bits
    assert int(bits, 2) == (((2 << 2) | 1) << 2) | 1
    assert float(re_s) == 1.0 and float(im_s) == 0.0


SMALL_LAYOUT = RegisterLayout(2, 2, 1, (("A", "a"), ("B", "b"), ("B", "c")))  # 7 bits

# repeated values, signed zeros and both sides of DUMP_TOL, so that equal
# floats recur within and across the real and imaginary parts
PART_POOL = [
    0.0, -0.0, 0.5, -0.5, SQRT1_2, -SQRT1_2, 1.0, 1e-13,
    DUMP_TOL, -DUMP_TOL,
    np.nextafter(DUMP_TOL, 0.0), np.nextafter(DUMP_TOL, 1.0),
]
parts = st.one_of(st.sampled_from(PART_POOL), st.floats(width=64))


@st.composite
def pool_states(draw, part=parts):
    """StateVectors on SMALL_LAYOUT whose parts come from `part`."""
    idx = sorted(draw(st.sets(st.integers(0, (1 << SMALL_LAYOUT.total_bits) - 1),
                              max_size=40)))
    amps = np.empty(len(idx), dtype=complex)
    amps.real = draw(st.lists(part, min_size=len(idx), max_size=len(idx)))
    amps.imag = draw(st.lists(part, min_size=len(idx), max_size=len(idx)))
    return StateVector(SMALL_LAYOUT, np.array(idx, dtype=np.int64), amps)


def wide_layout(n):
    """A layout of n data qubits and no walker: n bits."""
    return RegisterLayout(1, 1, 0, tuple(("A", f"q{i}") for i in range(n)))


# parts whose amplitudes all lie below DUMP_TOL (|z| <= 5e-13 * sqrt(2))
TINY_POOL = [0.0, -0.0, 1e-13, -1e-13, 5e-13, -5e-13]


@st.composite
def chunked_states(draw):
    """States of up to three dump chunks of entries on layouts of 1 to
    MAX_TOTAL_BITS bits; the parts come from PART_POOL, from TINY_POOL or
    from a normal distribution.

    Every entry comes from a few drawn integers, so that a failing state
    shrinks fast: the indices step by `stride` from one of a few offsets
    (modulo 2^n, repeats merged), and pool parts cycle through a few
    drawn pool positions. Only the normal parts come from a seed."""
    n = draw(st.integers(1, MAX_TOTAL_BITS))
    # two in three states hold more than one dump chunk of entries
    count = draw(st.sampled_from([0, DUMP_CHUNK, 2 * DUMP_CHUNK])) + draw(st.integers(0, DUMP_CHUNK))
    offsets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    stride = draw(st.integers(1, 1 << n))
    steps = np.arange(count, dtype=np.int64)
    starts = np.array(offsets, dtype=np.int64)[steps % len(offsets)]
    indices = np.unique((starts + stride * steps) % (1 << n))
    source = draw(st.sampled_from(["pool", "tiny", "normal"]))
    amps = np.empty(len(indices), dtype=complex)
    if source == "normal":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        amps.real, amps.imag = rng.normal(size=(2, len(indices)))
    else:
        pool = np.array(PART_POOL if source == "pool" else TINY_POOL)
        for part in (amps.real, amps.imag):
            cycle = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
            part[:] = pool[np.array(cycle)[np.arange(len(indices)) % len(cycle)]]
    return StateVector(wide_layout(n), indices, amps)


def tiny_state():
    n = MAX_TOTAL_BITS
    indices = np.arange(0, 1 << n, (1 << n) // (2 * DUMP_CHUNK), dtype=np.int64)
    amps = np.full(len(indices), 5e-13 - 5e-13j)
    return StateVector(wide_layout(n), indices, amps)


def first_line_difference(got: bytes, want: bytes):
    """(line number, got line, wanted line) where two dumps first differ,
    or None when they are equal. A failing `==` of two long dumps makes
    pytest diff them, which takes about a minute at 2,500 lines, and
    hypothesis fails the test again for every example it tries while it
    shrinks; this keeps a failing example as cheap as a passing one."""
    lines = zip_longest(got.split(b"\n"), want.split(b"\n"))
    for number, (line, wanted) in enumerate(lines, start=1):
        if line != wanted:
            return number, line, wanted
    return None


def listed_state(n, indices, amps):
    """A state on `wide_layout(n)` with the given entries."""
    return StateVector(
        wide_layout(n), np.array(indices, dtype=np.int64), np.array(amps, dtype=complex)
    )


def mixed_tails_state(count):
    """`count` dump lines on 16 bits whose tails differ in width and
    alternate within each dump chunk."""
    pool = np.array([0.5, SQRT1_2 - 0.5j, -SQRT1_2, 1j, 0.25 + 0.125j, -1.0])
    return listed_state(16, np.arange(count) * 3, pool[np.arange(count) % len(pool)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(pool_states(), chunked_states()))
@example(tiny_state())
@example(listed_state(MAX_TOTAL_BITS, [0, (1 << MAX_TOTAL_BITS) - 1], [SQRT1_2, -1j * SQRT1_2]))
@example(listed_state(3, [1, 2, 5], [0.5, SQRT1_2, -0.5j]))
@example(mixed_tails_state(DUMP_CHUNK))
@example(mixed_tails_state(DUMP_CHUNK + 1))
def test_dump_state_matches_reference(state):
    text = dumped(state)
    assert first_line_difference(text, dump_reference(state)) is None
    if np.all(np.abs(state.amplitudes) < DUMP_TOL):
        assert text == b""


# spectator states |0>, |1>, |+> and |->
FACTOR_POOL = [(1.0, 0.0), (0.0, 1.0), (SQRT1_2, SQRT1_2), (SQRT1_2, -SQRT1_2)]
# parts of arbitrary 2-vectors: zeros of both signs, repeats, and values
# whose products with small core amplitudes underflow to zero
FACTOR_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-200, -1e-170]),
    st.floats(-2.0, 2.0, allow_subnormal=False),
)


@st.composite
def factored_states(draw):
    """(core, factors): a core state on 2 to 40 bits and up to 8 factors,
    {bit: 2-vector}, at bits the core holds at 0, in drawn order. Core
    parts come from PART_POOL, from the same values scaled down to 1e-160
    (so products with small factor values underflow), or from a normal
    distribution; factors are spectator states or arbitrary 2-vectors."""
    n = draw(st.integers(2, 40))
    bits = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(8, n - 1)))
    mask = sum(1 << (n - 1 - pos) for pos in bits)
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    indices = np.unique(np.array(raw, dtype=np.int64) & ~mask)
    amps = np.empty(len(indices), dtype=complex)
    source = draw(st.sampled_from(["pool", "small", "normal"]))
    if source == "normal":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        amps.real, amps.imag = rng.normal(size=(2, len(indices)))
    else:
        pool = np.array(PART_POOL) * (1e-160 if source == "small" else 1.0)
        for part in (amps.real, amps.imag):
            part[:] = pool[draw(st.lists(st.integers(0, len(pool) - 1),
                                         min_size=len(indices), max_size=len(indices)))]
    factors = {}
    for pos in bits:
        factors[pos] = draw(st.one_of(
            st.sampled_from(FACTOR_POOL),
            st.tuples(*[st.builds(complex, FACTOR_PARTS, FACTOR_PARTS)] * 2),
        ))
    return StateVector(wide_layout(n), indices, amps), factors


@settings(max_examples=150, deadline=None)
@given(factored_states(), st.sampled_from([1, 3, 64, DUMP_CHUNK]))
@example(  # every product underflows to zero
    (listed_state(3, [0, 1], [1e-160, -1e-160j]), {1: (1e-170, 1e-200)}), 1
)
@example((listed_state(4, [], []), {0: (SQRT1_2, SQRT1_2)}), DUMP_CHUNK)
@example((listed_state(4, [0b0001, 0b0100], [0.6, -0.8j]), {}), 1)
def test_dump_state_of_product_matches_reference(case, chunk):
    core, factors = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevec, "DUMP_CHUNK", chunk)
        text = dumped(core, factors)
    want = dump_reference(insert_qubits(core, factors))
    assert first_line_difference(text, want) is None


def test_check_dump_counts_lines_before_the_product():
    # a dump has one line per core entry and pattern of the factors'
    # nonzero bits, counted without building them
    lay = wide_layout(40)
    core = StateVector(lay, np.array([0, 1 << 10]), np.array([0.6, 0.8j]))
    plus, one = HADAMARD[:, 0], (0.0, 1.0)
    assert check_dump(core, {}) == 2
    assert check_dump(core, {0: plus, 1: one, 2: (0.0, 0.0)}) == 0
    assert check_dump(core, {pos: plus for pos in range(25)}) == MAX_ENTRIES
    over = {pos: plus for pos in range(26)}
    with pytest.raises(StateError, match=f"state dump would have {2 << 26} lines, cap is"):
        check_dump(core, over)
    out = io.BytesIO()
    with pytest.raises(StateError, match="would have"):
        dump_state(out, core, over)
    assert out.getvalue() == b""
    with pytest.raises(StateError, match="inserted qubits must be 0"):
        check_dump(core, {29: plus})  # the second entry sets bit 29


@st.composite
def rotations(draw):
    """(state, qubits, bases): a pool state on SMALL_LAYOUT, whose zeros,
    repeats and opposite values give signed zeros and cancelling sums, or
    up to 300 normal amplitudes on 1 to 12 bits; 1 to 6 measured qubits."""
    if draw(st.booleans()):
        state = draw(pool_states(st.sampled_from([0.0, -0.0, 0.5, -0.5, SQRT1_2, -SQRT1_2])))
    else:
        n = draw(st.integers(1, 12))
        steps = np.arange(draw(st.integers(0, 300)))
        offset, stride = draw(st.integers(0, (1 << n) - 1)), draw(st.integers(1, 1 << n))
        indices = np.unique((offset + stride * steps) % (1 << n))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        amps = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        state = listed_state(n, indices, amps)
    n = state.layout.total_bits
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 6), unique=True))
    bases = draw(st.text("XZ", min_size=len(qubits), max_size=len(qubits)))
    return state, tuple(qubits), bases


@settings(max_examples=150, deadline=None)
@given(rotations())
@example(  # |+>|-> in X: each pair of entries cancels in one sum
    (listed_state(2, [0, 1, 2, 3], [0.5, -0.5, 0.5, -0.5]), (0, 1), "XX")
)
@example((listed_state(3, [5], [1.0]), (2, 0, 1), "XZX"))  # one entry
def test_rotate_basis_matches_one_block_per_qubit(case):
    """The rotation `measure` applies gives what one Hadamard block per
    X-measured qubit in measured order gives: the same indices and the
    same float bits, signed zeros included. A faster rotation must keep
    them."""
    state, qubits, bases = case
    args = (state.layout, state.indices, state.amplitudes, qubits, bases)
    got, want = _rotate_basis(*args), rotate_basis_reference(*args)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


@settings(max_examples=100, deadline=None)
@given(
    pool_states(st.sampled_from([0.0, -0.0, 0.5, -0.5, SQRT1_2, -SQRT1_2, 1e-3])),
    st.lists(st.integers(0, SMALL_LAYOUT.total_bits - 1), min_size=1, max_size=4,
             unique=True),
    st.data(),
)
def test_measure_branches_match_reference_bitwise(state, qubits, data):
    qubits = tuple(qubits)
    bases = data.draw(st.text("XZ", min_size=len(qubits), max_size=len(qubits)))
    got = measure(state, qubits, bases)
    want = measure_reference(state, qubits, bases)
    assert len(got) == len(want)
    for (record, branch), (fields, (indices, amps)) in zip(got, want):
        assert (record.qubits, record.bases, record.outcome, record.probability) == fields
        assert np.array_equal(branch.indices, indices)
        assert np.array_equal(canonical_bits(branch.amplitudes), canonical_bits(amps))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_measure_branches_partition_probability(seed):
    import qwcp

    g = qwcp.load_network(
        '{"nodes": ["A", "B"], "edges": [["A", "B"], ["B", "A"]],'
        ' "data_qubits": {"A": ["a"]}}'
    )
    lay = RegisterLayout.for_network(g, 1)
    rng = np.random.default_rng(seed)
    s = random_state(lay, rng)
    qubits = [0, 1, lay.data_bit("A", "a")]
    branches = measure(s, qubits, "ZXZ")
    total = sum(record.probability for record, _ in branches)
    assert total == pytest.approx(1.0, abs=1e-9)
    for record, st_b in branches:
        assert st_b.norm == pytest.approx(1.0, abs=1e-9)
        # re-measuring the same qubits reproduces the outcome deterministically
        again = measure(st_b, qubits, "ZXZ")
        assert len(again) == 1
        assert again[0][0].outcome == record.outcome


def gather_reference(indices, n, positions):
    """_gather as one shift and mask per bit."""
    key = np.zeros(len(indices), dtype=np.int64)
    for pos in positions:
        key = (key << 1) | ((indices >> (n - 1 - pos)) & 1)
    return key


@st.composite
def bit_positions(draw, n):
    """Distinct bit positions made of runs of consecutive bits, so with
    gaps, single bits or none, and shuffled half of the time."""
    runs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=4))
    positions = list(dict.fromkeys(
        pos for start, width in runs for pos in range(start, min(n, start + width))
    ))
    if draw(st.booleans()):
        positions = draw(st.permutations(positions))
    return positions


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gather_matches_per_bit_reference(data):
    n = data.draw(st.integers(1, MAX_TOTAL_BITS))
    indices = np.array(
        data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20)), dtype=np.int64
    )
    positions = data.draw(bit_positions(n))
    got = _gather(indices, n, positions)
    assert got.dtype == np.int64
    assert np.array_equal(got, gather_reference(indices, n, positions))


PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def without_zeros(state):
    """The state without its exact-zero entries: a Z block drops them,
    apply_z keeps every entry."""
    stored = state.amplitudes != 0
    return StateVector(state.layout, state.indices[stored], state.amplitudes[stored])


def assert_same_bits(got, want):
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(canonical_bits(got.amplitudes), canonical_bits(want.amplitudes))


@settings(max_examples=100, deadline=None)
@given(
    pool_states(st.one_of(st.sampled_from(PART_POOL), st.floats(-1.0, 1.0))),
    st.lists(st.integers(0, SMALL_LAYOUT.total_bits - 1), min_size=1, max_size=3,
             unique=True),
    st.data(),
)
def test_apply_z_matches_z_block(state, qubits, data):
    """apply_z against a BlockAction of PAULI_Z, on states with signed-zero
    parts and on the branches measure makes of them."""
    state = without_zeros(state)
    bit = data.draw(st.integers(0, SMALL_LAYOUT.total_bits - 1))
    assert_same_bits(apply_z(state, bit), apply_actions(state, [BlockAction((bit,), PAULI_Z)]))
    bases = data.draw(st.text("XZ", min_size=len(qubits), max_size=len(qubits)))
    for _, branch in measure(state, qubits, bases):
        # the drawn states are not normalised, so a branch's rescale can
        # round a tiny part to an exact zero, which a block drops
        branch = without_zeros(branch)
        for bit in range(SMALL_LAYOUT.total_bits):
            assert_same_bits(
                apply_z(branch, bit), apply_actions(branch, [BlockAction((bit,), PAULI_Z)])
            )
