"""Stateful test of the engine on schedules built one operator at a time.

Each step appends a random walkops operator to the schedule, or closes the
timestep with a flip-flop shift, and applies it to the state. The norm
must hold after every operator and no amplitude may sit on an invalid
vertex or coin code; running the schedule from the start state
must give the state built step by step, and running `invert_schedule` of
it afterwards must give back the start state. Layouts go up to 57 bits,
wider than a dense vector could ever be and near the top bits of the int64
index.
"""
import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from qwcp import (
    RegisterLayout,
    Schedule,
    Timestep,
    invert_schedule,
    load_network,
    make_flipflop_shift,
    make_identity_shift,
    run_schedule,
    walker_vertex_support,
)
from qwcp.statevec import apply_operator

from conftest import (
    binary_tree_json,
    btree7_json,
    draw_init_state,
    draw_operator,
    grid3_json,
    line_json,
    operator_kinds,
    subset,
    triangle_json,
)
from instruments import check_no_invalid_amplitude

TOL = 1e-12
# (network, walker count): 6, 14, 25, 25, 39 and 57 bits
NETWORKS = [
    (line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]}), 1),
    (triangle_json(), 2),
    (grid3_json(), 3),
    (btree7_json(), 4),
    (grid3_json(), 5),
    (binary_tree_json(3)[0], 8),
]
# operators that can spread the state are drawn only up to this many
# nonzeros, which keeps the wide layouts fast
MAX_NNZ = 1024


def max_abs_diff(s1, s2) -> float:
    """Largest |amplitude difference| over the union of both supports."""
    keys, where = np.unique(np.concatenate((s1.indices, s2.indices)), return_inverse=True)
    diff = np.zeros(len(keys), dtype=complex)
    np.add.at(diff, where, np.concatenate((s1.amplitudes, -s2.amplitudes)))
    return float(np.abs(diff).max(initial=0.0))


class ScheduleRoundTrip(RuleBasedStateMachine):
    @initialize(data=st.data())
    def start(self, data):
        network, k = data.draw(st.sampled_from(NETWORKS))
        self.graph = load_network(network)
        self.layout = RegisterLayout.for_network(self.graph, k)
        self.rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        self.start_state = self.state = draw_init_state(data, self.graph, self.layout)
        self.timesteps, self.pending = [], []

    def apply(self, op):
        self.state = apply_operator(self.state, op)
        assert abs(self.state.norm - 1.0) <= TOL
        check_no_invalid_amplitude(self.state, self.graph)

    @precondition(lambda self: len(self.state.indices) <= MAX_NNZ)
    @rule(data=st.data())
    def operator(self, data):
        kind = data.draw(st.sampled_from(operator_kinds(self.layout)))
        near = {}
        if data.draw(st.booleans()):
            # an operator on a walker at its own node acts on the state
            for j, vertices in enumerate(walker_vertex_support(self.state)):
                for v in vertices:
                    near.setdefault(self.graph.label_of(v), []).append(j)
        op = draw_operator(data, self.graph, self.layout, self.rng, kind, near)
        self.pending.append(op)
        self.apply(op)

    @rule(data=st.data())
    def shift(self, data):
        walkers = subset(data, list(range(self.layout.k)), min_size=0)
        op = make_flipflop_shift(self.graph, self.layout, walkers)
        self.timesteps.append(Timestep(self.pending, op))
        self.pending = []
        self.apply(op)

    @invariant()
    def inverse_schedule_restores_start(self):
        sched = Schedule(
            self.timesteps + [Timestep(self.pending, make_identity_shift(self.layout))]
        )
        ran, _ = run_schedule(self.start_state, sched, self.graph)
        assert abs(ran.norm - 1.0) <= TOL
        assert max_abs_diff(ran, self.state) <= TOL
        back, _ = run_schedule(ran, invert_schedule(sched), self.graph)
        assert abs(back.norm - 1.0) <= TOL
        assert max_abs_diff(back, self.start_state) <= TOL


TestScheduleRoundTrip = ScheduleRoundTrip.TestCase
TestScheduleRoundTrip.settings = settings(
    max_examples=30, stateful_step_count=16, deadline=None
)
