import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcp import (
    OperatorError,
    RegisterLayout,
    Schedule,
    Timestep,
    init_state,
    invert_operator,
    invert_schedule,
    load_network,
    make_coin_block,
    make_coin_controlled_data,
    make_coin_perm,
    make_data_controlled_coin,
    make_fanout,
    make_flipflop_shift,
    make_identity_shift,
    make_walk_interaction,
    operator_to_json,
    separate_measure,
    walker_vertex_support,
)
from qwcp import walkops
from qwcp.statevec import BlockAction, StateVector, apply_actions, apply_operator

from conftest import binary_tree_json, btree7_json, network_json, random_state, subset
from instruments import fidelity, from_dense, swap_matrix, to_dense

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture
def small():
    g = load_network(
        network_json(
            ["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")],
            {"A": ["a"], "C": ["c"]},
        )
    )
    return g, RegisterLayout.for_network(g, 2)


def dense_matrix(op, layout):
    """Materialize the operator by applying it to every basis state."""
    from qwcp.statevec import apply_actions

    dim = 1 << layout.total_bits
    cols = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        cols[:, i] = to_dense(apply_actions(from_dense(layout, e), op.iter_actions()))
    return cols


def assert_unitary(op, layout):
    mat = dense_matrix(op, layout)
    assert np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max() < 1e-12


# -- flip-flop shift ------------------------------------------------------


def test_flipflop_moves_walker_along_edge(small):
    g, lay = small
    s = init_state(g, lay, [("A", g.port_of("A", "B")), ("C", 0)])
    shift = make_flipflop_shift(g, lay)
    moved = apply_operator(s, shift)
    assert walker_vertex_support(moved)[0] == {g.vertex_id("B")}
    assert walker_vertex_support(moved)[1] == {g.vertex_id("C")}  # self-loop rests


def test_flipflop_selected_walkers_only(small):
    g, lay = small
    s = init_state(g, lay, [("A", 1), ("A", 1)])
    moved = apply_operator(s, make_flipflop_shift(g, lay, [1]))
    assert walker_vertex_support(moved)[0] == {g.vertex_id("A")}
    assert walker_vertex_support(moved)[1] == {g.vertex_id("B")}


@st.composite
def graphs_upto6(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    return load_network(network_json(labels, chosen))


@settings(max_examples=50, deadline=None)
@given(graphs_upto6())
def test_flipflop_is_an_involution(g):
    lay = RegisterLayout.for_network(g, 1)
    shift = make_flipflop_shift(g, lay)
    (action,) = shift.actions
    perm = action.perm
    for i, p in enumerate(perm):
        assert perm[p] == i


def test_flipflop_involution_statewise(small):
    g, lay = small
    shift = make_flipflop_shift(g, lay)
    rng = np.random.default_rng(3)
    s = random_state(lay, rng)
    twice = apply_operator(apply_operator(s, shift), shift)
    assert np.allclose(to_dense(twice), to_dense(s))


def test_flipflop_walkers_share_one_read_only_table(small):
    g, lay = small
    first, second = make_flipflop_shift(g, lay).actions
    assert first.perm is second.perm
    assert first.perm.dtype == np.int64 and not first.perm.flags.writeable


# -- coin operators -------------------------------------------------------


def test_coin_perm_acts_only_at_vertex(small):
    g, lay = small
    op = make_coin_perm(g, lay, "A", 0, 1, 0)
    s_a = init_state(g, lay, [("A", 0), ("A", 0)])
    out = apply_operator(s_a, op)
    # coin 0 -> 1 at A
    shift = make_flipflop_shift(g, lay, [0])
    assert walker_vertex_support(apply_operator(out, shift))[0] == {g.vertex_id("B")}
    s_b = init_state(g, lay, [("B", 0), ("A", 0)])
    assert np.allclose(to_dense(apply_operator(s_b, op)), to_dense(s_b))


def test_coin_perm_rejects_invalid_coin(small):
    g, lay = small
    with pytest.raises(OperatorError):
        make_coin_perm(g, lay, "A", 0, 3, 0)  # A has ports 0..2


def test_coin_block_hadamard_splits_support(small):
    g, lay = small
    op = make_coin_block(g, lay, "A", [0, g.port_of("A", "B")], HADAMARD, 0)
    s = init_state(g, lay, [("A", 0), ("C", 0)])
    out = apply_operator(s, op)
    moved = apply_operator(out, make_flipflop_shift(g, lay, [0]))
    assert walker_vertex_support(moved)[0] == {g.vertex_id("A"), g.vertex_id("B")}


def test_coin_block_rejects_nonunitary(small):
    g, lay = small
    with pytest.raises(OperatorError):
        make_coin_block(g, lay, "A", [0, 1], np.ones((2, 2)), 0)


def test_data_controlled_coin_fires_on_pattern(small):
    g, lay = small
    op = make_data_controlled_coin(g, lay, "A", ["a"], "1", (0, 1), 0)
    shift = make_flipflop_shift(g, lay, [0])
    s0 = init_state(g, lay, [("A", 0), ("C", 0)])
    stay = apply_operator(apply_operator(s0, op), shift)
    assert walker_vertex_support(stay)[0] == {g.vertex_id("A")}
    s1 = init_state(g, lay, [("A", 0), ("C", 0)], {("A", "a"): (0.0, 1.0)})
    go = apply_operator(apply_operator(s1, op), shift)
    assert walker_vertex_support(go)[0] == {g.vertex_id("B")}


def test_data_controlled_coin_requires_local_controls(small):
    g, lay = small
    with pytest.raises(OperatorError):
        make_data_controlled_coin(g, lay, "A", ["c"], "1", (0, 1), 0)
    with pytest.raises(OperatorError, match="control qubit 'a' listed twice"):
        make_data_controlled_coin(g, lay, "A", ["a", "a"], "10", (0, 1), 0)


def test_coin_controlled_data_fires_at_vertex(small):
    g, lay = small
    op = make_coin_controlled_data(g, lay, "C", ["c"], PAULI_X, 0)
    s = init_state(g, lay, [("C", 0), ("A", 0)])
    out = apply_operator(s, op)
    bit = lay.data_bit("C", "c")
    idx = int(np.flatnonzero(np.abs(to_dense(out)) > 0.5)[0])
    assert (idx >> (lay.total_bits - 1 - bit)) & 1 == 1
    elsewhere = init_state(g, lay, [("A", 0), ("A", 0)])
    assert np.allclose(to_dense(apply_operator(elsewhere, op)), to_dense(elsewhere))


def test_coin_controlled_data_with_coin_restriction(small):
    g, lay = small
    op = make_coin_controlled_data(g, lay, "C", ["c"], PAULI_X, 0, coin=1)
    s = init_state(g, lay, [("C", 2), ("A", 0)])
    out = apply_operator(s, op)
    assert np.allclose(to_dense(out), to_dense(s))  # wrong coin, no fire


def test_walk_interaction_conditions_on_both_walkers(small):
    g, lay = small
    c = g.port_of("A", "B")
    op = make_walk_interaction(g, lay, "A", c, (0, c), 0, 1)
    shift = make_flipflop_shift(g, lay, [1])
    both = init_state(g, lay, [("A", c), ("A", 0)])
    out = apply_operator(apply_operator(both, op), shift)
    assert walker_vertex_support(out)[1] == {g.vertex_id("B")}
    wrong_coin = init_state(g, lay, [("A", 0), ("A", 0)])
    out2 = apply_operator(apply_operator(wrong_coin, op), shift)
    assert walker_vertex_support(out2)[1] == {g.vertex_id("A")}


# (network, walker count): 20 and 57 bits
SWAP_NETWORKS = [(btree7_json(), 3), (binary_tree_json(3)[0], 8)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coin_swap_remap_equals_swap_block(data):
    """The remap of a coin swap against the dense swap block on the
    walker's coin bits, conditioned on the remap's conditions and the
    walker's vertex: the same indices, and the same amplitude bits once
    each part is `x + 0.0` (the block multiplies by 1.0, which can turn a
    -0.0 part into 0.0)."""
    network, k = data.draw(st.sampled_from(SWAP_NETWORKS))
    g = load_network(network)
    lay = RegisterLayout.for_network(g, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = data.draw(st.sampled_from(g.nodes))
    vid = g.vertex_id(v)
    c1, c2 = data.draw(st.permutations(range(g.port_count(v))))[:2]
    if data.draw(st.integers(0, 3)) == 0:
        c2 = c1  # the identity swap
    coin = data.draw(st.integers(0, g.port_count(v) - 1))
    walker, other = data.draw(st.permutations(range(k)))[:2]
    conditions = []
    if data.draw(st.booleans()):
        conditions += [(lay.vertex_bit_positions(other), vid),
                       (lay.coin_bit_positions(other), coin)]
    for pos in subset(data, list(lay.data_bit_positions()), min_size=0, max_size=3):
        conditions.append(((pos,), data.draw(st.integers(0, 1))))
    if conditions and data.draw(st.booleans()):
        bits, value = conditions[0]
        conditions.append((bits, value ^ 1))  # contradictory: selects nothing

    # every walker register holds one of a few codes, the swapped and the
    # conditioned ones among them, so the conditions select some entries
    size = data.draw(st.integers(16, 64))
    codes = [(vid << lay.nc) | c for c in (c1, c2, coin)]
    codes += rng.integers(0, 1 << lay.walker_bits, 2).tolist()
    indices = rng.integers(0, 1 << lay.data_bits, size)
    for j in range(k):
        indices |= rng.choice(codes, size) << (lay.total_bits - (j + 1) * lay.walker_bits)
    indices = np.unique(indices)
    parts = rng.normal(size=(len(indices), 2))
    # a signed zero in one part of about half of the entries
    rows = np.flatnonzero(rng.random(len(indices)) < 0.5)
    cols = rng.integers(0, 2, len(rows))
    parts[rows, cols] = np.copysign(0.0, parts[rows, cols])
    state = StateVector(lay, indices, parts.view(complex).ravel())

    remap = walkops._coin_swap(g, lay, v, (c1, c2), walker, conditions)
    block = BlockAction(
        lay.coin_bit_positions(walker), swap_matrix(lay.nc, c1, c2),
        (*conditions, (lay.vertex_bit_positions(walker), vid)),
    )
    got, want = apply_actions(state, [remap]), apply_actions(state, [block])
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(
        (got.amplitudes + 0.0).view(np.int64), (want.amplitudes + 0.0).view(np.int64)
    )


def test_fanout_spreads_control_to_helpers(small):
    g, lay = small
    c = g.port_of("A", "B")
    op = make_fanout(g, lay, "A", c, ["B", "C"], [0, 1])
    s = init_state(g, lay, [("A", c), ("A", 0)])
    out = apply_operator(s, op)
    moved = apply_operator(out, make_flipflop_shift(g, lay))
    assert walker_vertex_support(moved)[0] == {g.vertex_id("B")}
    assert walker_vertex_support(moved)[1] == {g.vertex_id("C")}


def test_fanout_validations(small):
    g, lay = small
    with pytest.raises(OperatorError):
        make_fanout(g, lay, "A", 1, ["B", "B"], [0, 1])
    with pytest.raises(OperatorError):
        make_fanout(g, lay, "A", 1, ["B", "C"], [0, 0])


# -- unitarity of every constructor ---------------------------------------


def test_all_constructed_operators_are_unitary(small):
    g, lay = small
    c_ab = g.port_of("A", "B")
    ops = [
        make_flipflop_shift(g, lay),
        make_identity_shift(lay),
        make_coin_perm(g, lay, "B", 0, 1, 1),
        make_coin_block(g, lay, "A", [0, c_ab], HADAMARD, 0),
        make_data_controlled_coin(g, lay, "A", ["a"], "0", (0, c_ab), 0),
        make_coin_controlled_data(g, lay, "C", ["c"], HADAMARD, 1),
        make_walk_interaction(g, lay, "A", c_ab, (0, c_ab), 0, 1),
        make_fanout(g, lay, "A", c_ab, ["B", "C"], [0, 1]),
    ]
    for op in ops:
        assert_unitary(op, lay)
        assert_unitary(invert_operator(op), lay)


def test_invert_operator_is_the_matrix_inverse(small):
    g, lay = small
    op = make_coin_block(g, lay, "A", [0, 1, 2], _random_unitary(3, 11), 0)
    mat = dense_matrix(op, lay)
    inv = dense_matrix(invert_operator(op), lay)
    assert np.abs(inv @ mat - np.eye(mat.shape[0])).max() < 1e-10


def test_double_inversion_gives_back_the_forward_tables(small):
    g, lay = small
    c_ab = g.port_of("A", "B")
    cycle = np.roll(np.arange(1 << lay.walker_bits), 1)  # not an involution
    cycle.flags.writeable = False
    ops = [
        make_flipflop_shift(g, lay),
        make_coin_perm(g, lay, "B", 0, 1, 1),
        make_data_controlled_coin(g, lay, "A", ["a"], "0", (0, c_ab), 0),
        make_walk_interaction(g, lay, "A", c_ab, (0, c_ab), 0, 1),
        make_fanout(g, lay, "A", c_ab, ["B", "C"], [0, 1]),
        walkops.OperatorSpec("coinperm", {}, lay, (walkops.PermAction(1, cycle),)),
    ]
    for op in ops:
        once = invert_operator(op)
        twice = invert_operator(once)
        assert len(twice.actions) == len(op.actions)
        for forward, back in zip(op.actions, twice.actions):
            assert back.perm.dtype == np.int64 and not back.perm.flags.writeable
            assert np.array_equal(back.perm, forward.perm)
            assert (back.walker, back.conditions) == (forward.walker, forward.conditions)
    assert not np.array_equal(once.actions[0].perm, cycle)


def _random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(m)
    return q


def test_measure_op_has_no_inverse(small):
    g, lay = small
    m = separate_measure(g, lay, "A", "B", "a")
    with pytest.raises(OperatorError):
        invert_operator(m)
    with pytest.raises(OperatorError):
        invert_schedule(Schedule([], measure=m))


# -- schedules ------------------------------------------------------------


def _random_schedule(g, lay, rng, steps=4):
    timesteps = []
    c_ab = g.port_of("A", "B")
    for _ in range(steps):
        pre = []
        for _ in range(rng.integers(0, 3)):
            kind = rng.integers(0, 4)
            if kind == 0:
                pre.append(make_coin_perm(g, lay, "B", 0, 1, int(rng.integers(0, 2))))
            elif kind == 1:
                pre.append(
                    make_coin_block(
                        g, lay, "A", [0, c_ab], _random_unitary(2, int(rng.integers(0, 99))), 0
                    )
                )
            elif kind == 2:
                pre.append(
                    make_data_controlled_coin(
                        g, lay, "A", ["a"], "1", (0, c_ab), 0
                    )
                )
            else:
                pre.append(
                    make_walk_interaction(g, lay, "A", c_ab, (0, c_ab), 0, 1)
                )
        shift = (
            make_flipflop_shift(g, lay)
            if rng.integers(0, 2)
            else make_identity_shift(lay)
        )
        timesteps.append(Timestep(pre, shift))
    return Schedule(timesteps)


def _apply_schedule(state, sched):
    for ts in sched.timesteps:
        for op in ts.pre_ops:
            state = apply_operator(state, op)
        state = apply_operator(state, ts.shift)
    return state


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_invert_schedule_undoes_schedule(seed):
    g = load_network(
        network_json(
            ["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")], {"A": ["a"]}
        )
    )
    lay = RegisterLayout.for_network(g, 2)
    rng = np.random.default_rng(seed)
    sched = _random_schedule(g, lay, rng)
    s = random_state(lay, rng)
    back = _apply_schedule(_apply_schedule(s, sched), invert_schedule(sched))
    assert fidelity(back, s) >= 1.0 - 1e-10


def test_invert_schedule_shape(small):
    g, lay = small
    sched = Schedule(
        [
            Timestep([make_coin_perm(g, lay, "A", 0, 1, 0)], make_flipflop_shift(g, lay)),
            Timestep([], make_flipflop_shift(g, lay)),
        ]
    )
    inv = invert_schedule(sched)
    assert len(inv.timesteps) == 3
    assert inv.timesteps[0].pre_ops == []
    assert inv.timesteps[-1].shift.params["mode"] == "identity"
    for ts in inv.timesteps:
        assert isinstance(ts.shift, walkops.OperatorSpec) and ts.shift.kind == "shift"


def test_norm_preserved_over_many_random_ops(small):
    g, lay = small
    rng = np.random.default_rng(123)
    s = random_state(lay, rng)
    applied = 0
    while applied < 1000:
        sched = _random_schedule(g, lay, rng, steps=10)
        for ts in sched.timesteps:
            for op in ts.pre_ops + [ts.shift]:
                s = apply_operator(s, op)
                applied += 1
    assert abs(s.norm - 1.0) <= 1e-10


# -- serialization --------------------------------------------------------


def test_operator_json_round_trip(small):
    # the report's schedule is plain JSON: it survives json text unchanged
    g, lay = small
    c_ab = g.port_of("A", "B")
    ops = [
        make_flipflop_shift(g, lay, [0]),
        make_identity_shift(lay),
        make_coin_perm(g, lay, "B", 0, 1, 1),
        make_coin_block(g, lay, "A", [0, c_ab], HADAMARD, 0),
        make_data_controlled_coin(g, lay, "A", ["a"], "1", (0, c_ab), 0),
        make_coin_controlled_data(g, lay, "C", ["c"], PAULI_X, 1, coin=1),
        make_walk_interaction(g, lay, "A", c_ab, (0, c_ab), 0, 1),
        make_fanout(g, lay, "A", c_ab, ["B", "C"], [0, 1]),
        separate_measure(g, lay, "A", "B", "a", walker=1),
        invert_operator(
            make_coin_block(g, lay, "A", [0, 1, 2], _random_unitary(3, 4), 0)
        ),
    ]
    assert operator_to_json(ops[-1])["inverted"] is True
    for op in ops:
        doc = operator_to_json(op)
        assert json.loads(json.dumps(doc)) == doc
