"""qwcp's copy of `np.random.default_rng(seed)`'s stream, and the branch
`measure` draws with it, held to numpy's own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcp import RegisterLayout, StateVector, measure
from qwcp.pcg64 import Pcg64

# the first two draws of seeds of one and of several 32-bit words: should
# numpy's stream ever move, the comparisons with numpy below would fail,
# and these keep qwcp's seeds on today's draws
PINNED = {
    0: ("0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2"),
    1: ("0x1.060d7be6f245cp-1", "0x1.e6a32d7782a55p-1"),
    2**32: ("0x1.c78bd7c50b582p-1", "0x1.1d4132d1fc63bp-1"),
    10**40: ("0x1.a68b1edd6126ep-2", "0x1.95e61bf180c90p-3"),
}


@pytest.mark.parametrize("seed", list(PINNED))
def test_pinned_draws(seed):
    rng = Pcg64(seed)
    assert tuple(rng.random().hex() for _ in PINNED[seed]) == PINNED[seed]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**256), st.integers(1, 8))
def test_draws_match_default_rng(seed, k):
    rng = Pcg64(seed)
    assert [rng.random() for _ in range(k)] == np.random.default_rng(seed).random(k).tolist()


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError), ("1", TypeError)])
def test_refuses_what_default_rng_refuses(seed, error):
    for make in (Pcg64, np.random.default_rng):
        with pytest.raises(error):
            make(seed)


def probability_vectors():
    """Probability vectors over 2^m outcomes: drawn weights with some
    exact zeros, one-hot vectors, and vectors holding tiny entries."""
    m = st.integers(1, 5)
    drawn = m.flatmap(lambda m: st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1 << m, max_size=1 << m))
    one_hot = m.flatmap(lambda m: st.integers(0, (1 << m) - 1).map(
        lambda i: [float(j == i) for j in range(1 << m)]))
    tiny = m.flatmap(lambda m: st.lists(
        st.sampled_from([0.0, 1e-300, 1e-30, 1e-12, 1.0]), min_size=1 << m, max_size=1 << m))
    return st.one_of(drawn, one_hot, tiny).filter(lambda p: max(p) >= 1e-3)


@settings(max_examples=300, deadline=None)
@given(probability_vectors(), st.integers(0, 2**70))
def test_measure_draws_what_choice_draws(weights, seed):
    """Measuring every qubit of a state whose basis weights are `weights`
    picks the outcome `Generator.choice(len(p), p=p)` picks, for qwcp's
    stream and for a numpy Generator alike."""
    m = len(weights).bit_length() - 1
    layout = RegisterLayout(0, 0, 0, tuple(("A", f"q{i}") for i in range(m)))
    amps = np.sqrt(np.array(weights))
    amps /= np.linalg.norm(amps)
    held = np.flatnonzero(amps)
    state = StateVector(layout, held.astype(np.int64), amps[held].astype(complex))
    probs = np.zeros(len(weights))
    probs[held] = np.abs(state.amplitudes) ** 2
    want = np.random.default_rng(seed).choice(len(probs), p=probs / probs.sum())
    for rng in (Pcg64(seed), np.random.default_rng(seed)):
        (record, _), = measure(state, range(m), "Z" * m, rng)
        assert int("".join(map(str, record.outcome)), 2) == want
