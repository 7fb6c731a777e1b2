"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a `criterion N: PASS` line on success; a failing
assertion surfaces as the criterion's FAIL. Traces from criteria 1-7 are
collected so criterion 8 can audit locality and unitarity over every run.
"""
import json

import numpy as np
import pytest

from qwcp import (
    GATE_LIBRARY,
    PathSpec,
    RegisterLayout,
    TreeSpec,
    compare,
    data_layout,
    gate_request,
    init_state,
    invert_schedule,
    load_network,
    make_flipflop_shift,
    oracle_apply,
    run_schedule,
    schedule_ghz_path,
    schedule_linklevel,
    schedule_multi_control,
    schedule_multipath,
    schedule_remote_cu,
    schedule_tree,
)
from qwcp.cli import main
from qwcp.statevec import apply_operator
from qwcp.walkops import Schedule

from conftest import (
    btree7_json,
    grid3_json,
    line_json,
    network_json,
    random_state,
    state_with_data,
    triangle_json,
)
from instruments import (
    cut_matrix,
    cut_purity,
    fidelity,
    from_dense,
    purity_across_cut,
    reduced_density,
    to_dense,
)

FID_TOL = 1e-9
NORM_TOL = 1e-10

# (graph, compiled, trace) triples recorded by criteria 1-7 for criterion 8
COLLECTED_RUNS = []


def _run_and_collect(graph, compiled, state):
    final, trace = run_schedule(state, compiled.schedule, graph)
    COLLECTED_RUNS.append((graph, compiled, trace))
    return final, trace


def _oracle_state(graph, compiled, data_vec):
    dlay = data_layout(graph)
    vec = np.asarray(data_vec, dtype=complex)
    base = from_dense(dlay, vec / np.linalg.norm(vec))
    return oracle_apply(base, compiled.oracle_gates)


def _random_data_vec(layout, rng):
    v = rng.normal(size=1 << layout.data_bits) + 1j * rng.normal(
        size=1 << layout.data_bits
    )
    return v / np.linalg.norm(v)


def grid_cnot_instance(separation="reverse"):
    graph = load_network(grid3_json())
    req = gate_request(graph, [(("n00", "a"), 1)], [("n12", "b")], GATE_LIBRARY["X"])
    path = PathSpec.in_graph(graph, ["n00", "n01", "n02", "n12"])
    return graph, schedule_remote_cu(graph, req, path, separation=separation)


def test_criterion_1_remote_cnot_grid_delta3():
    graph, comp = grid_cnot_instance()
    assert comp.meta["propagation_steps"] == 3
    rng = np.random.default_rng(2024)
    arrival_checked = False
    for _ in range(20):
        vec = _random_data_vec(comp.layout, rng)
        state = state_with_data(graph, comp.layout, comp.walker_inits, vec)
        final, trace = _run_and_collect(graph, comp, state)
        if not arrival_checked:
            # walker support reaches the target at timestep 3, not before
            assert "n12" not in trace.initial_support[0]
            assert "n12" not in trace.supports[0][0]
            assert "n12" not in trace.supports[1][0]
            assert "n12" in trace.supports[2][0]
            arrival_checked = True
        report = compare(final, _oracle_state(graph, comp, vec))
        assert report.data_fidelity >= 1 - FID_TOL
        assert report.walker_purity >= 1 - FID_TOL
    print("criterion 1: PASS - remote CNOT, 3x3 grid, arrival t=3, 20 random inputs")


def test_criterion_2_measure_separation_branch_equivalence():
    graph, comp = grid_cnot_instance(separation="measure")
    rng = np.random.default_rng(7)
    for _ in range(5):
        vec = _random_data_vec(comp.layout, rng)
        state = state_with_data(graph, comp.layout, comp.walker_inits, vec)
        final, trace = _run_and_collect(graph, comp, state)
        assert len(trace.branches) >= 2
        oracle_out = _oracle_state(graph, comp, vec)
        rhos = []
        for _, branch in trace.branches:
            report = compare(branch, oracle_out)
            assert report.data_fidelity >= 1 - FID_TOL
            rhos.append(reduced_density(branch, comp.layout.data_bit_positions()))
        for i in range(len(rhos)):
            for j in range(i + 1, len(rhos)):
                overlap = float(np.trace(rhos[i] @ rhos[j]).real)
                assert overlap >= 1 - FID_TOL
    print("criterion 2: PASS - measure separation, all branches agree after correction")


def test_criterion_3_remote_toffoli():
    graph = load_network(
        line_json(["A0", "A1", "B"], {"A0": ["a"], "A1": ["b"], "B": ["c"]})
    )
    req = gate_request(
        graph, [(("A0", "a"), 1), (("A1", "b"), 1)], [("B", "c")], GATE_LIBRARY["X"]
    )
    comp = schedule_multi_control(
        graph, req, PathSpec.in_graph(graph, ["A0", "A1", "B"])
    )
    for bits in range(8):
        vec = np.zeros(8, dtype=complex)
        vec[bits] = 1.0
        state = state_with_data(graph, comp.layout, comp.walker_inits, vec)
        final, _ = _run_and_collect(graph, comp, state)
        a, b, c = (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
        expect = (a << 2) | (b << 1) | (c ^ (a & b))
        rho = reduced_density(final, comp.layout.data_bit_positions())
        assert rho[expect, expect].real == pytest.approx(1.0, abs=FID_TOL)
    rng = np.random.default_rng(31)
    for _ in range(10):
        vec = _random_data_vec(comp.layout, rng)
        state = state_with_data(graph, comp.layout, comp.walker_inits, vec)
        final, _ = _run_and_collect(graph, comp, state)
        report = compare(final, _oracle_state(graph, comp, vec))
        assert report.data_fidelity >= 1 - FID_TOL
        assert report.walker_purity >= 1 - FID_TOL
    print("criterion 3: PASS - remote Toffoli, truth table + 10 random inputs")


def test_criterion_4_multipath_two_walkers():
    graph = load_network(grid3_json())
    ctrl = [(("n00", "a"), 1)]
    reqs = [
        gate_request(graph, ctrl, [("n02", "b")], GATE_LIBRARY["X"]),
        gate_request(graph, ctrl, [("n20", "c")], GATE_LIBRARY["X"]),
    ]
    comp = schedule_multipath(
        graph, reqs,
        [
            PathSpec.in_graph(graph, ["n00", "n01", "n02"]),
            PathSpec.in_graph(graph, ["n00", "n10", "n20"]),
        ],
    )
    rng = np.random.default_rng(55)
    for _ in range(5):
        vec = _random_data_vec(comp.layout, rng)
        state = state_with_data(graph, comp.layout, comp.walker_inits, vec)
        final, _ = _run_and_collect(graph, comp, state)
        report = compare(final, _oracle_state(graph, comp, vec))
        assert report.data_fidelity >= 1 - FID_TOL
        assert report.walker_purity >= 1 - FID_TOL
    print("criterion 4: PASS - multipath k=2, both gates match the oracle product")


def test_criterion_5_tree_propagation():
    graph = load_network(btree7_json())
    tree = TreeSpec.in_graph(
        graph, "A",
        [("A", "b0"), ("A", "b1"), ("b0", "c00"), ("b0", "c01"),
         ("b1", "c10"), ("b1", "c11")],
    )
    requests = [
        gate_request(graph, [(("A", "a"), 1)], [(leaf, "t")], GATE_LIBRARY["X"])
        for leaf in ("c00", "c01", "c10", "c11")
    ]
    comp = schedule_tree(graph, tree, requests)
    plus = np.zeros(1 << comp.layout.data_bits, dtype=complex)
    plus[0] = plus[1 << (comp.layout.data_bits - 1)] = 1 / np.sqrt(2)  # control in |+>
    state = state_with_data(graph, comp.layout, comp.walker_inits, plus)
    final, trace = _run_and_collect(graph, comp, state)
    report = compare(final, _oracle_state(graph, comp, plus))
    assert report.data_fidelity >= 1 - FID_TOL
    assert report.walker_purity >= 1 - FID_TOL

    # visit timing: each non-root node is reached by its own walker at
    # exactly t = tree depth; no other walker touches it except while
    # parked at its spawn point
    walker_of = comp.meta["walker_of"]
    spawn_node = comp.meta["spawn_node"]
    assert comp.meta["arrival"] == {
        "b0": 1, "b1": 1, "c00": 2, "c01": 2, "c10": 2, "c11": 2,
    }
    for v, d in comp.meta["arrival"].items():
        w = walker_of[v]
        assert v in trace.supports[d - 1][w]
        for t in range(d - 1):
            assert v not in trace.supports[t][w]
        for other in range(comp.layout.k):
            if other == w:
                continue
            visited = any(v in sup[other] for sup in trace.supports)
            assert not visited or spawn_node.get(other) == v

    # fan-out entanglement before separation: the forward half leaves the
    # walkers GHZ-entangled with the control, so the walker-cut purity is 1/2
    prop_steps = comp.meta["propagation_steps"]
    forward = Schedule(comp.schedule.timesteps[: prop_steps + 1])
    mid, _ = run_schedule(state, forward, graph)
    # 25 bits: too wide for a dense vector, so the purity comes from the
    # compressed cut matrix, as the oracle comparison takes it
    walker_cut = cut_matrix(mid, tuple(range(comp.layout.k * comp.layout.walker_bits)))[2]
    assert cut_purity(walker_cut) == pytest.approx(0.5, abs=FID_TOL)
    print("criterion 5: PASS - tree propagation, visit timing + fan-out purity 0.5")


def test_criterion_6_ghz_four_node_path():
    graph = load_network(line_json(["A", "B", "C", "D"], {v: ["g"] for v in "ABCD"}))
    comp = schedule_ghz_path(
        graph, [PathSpec.in_graph(graph, ["A", "B", "C", "D"])],
        [{v: ["g"] for v in "ABCD"}],
    )
    assert comp.meta["propagation_steps"] == 3
    state = init_state(graph, comp.layout, comp.walker_inits)
    final, _ = _run_and_collect(graph, comp, state)
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[15] = 1 / np.sqrt(2)
    rho = reduced_density(final, comp.layout.data_bit_positions())
    assert float(np.vdot(ghz, rho @ ghz).real) >= 1 - FID_TOL
    walker_bits = tuple(range(comp.layout.k * comp.layout.walker_bits))
    assert purity_across_cut(final, walker_bits) >= 1 - FID_TOL
    print("criterion 6: PASS - 4-node GHZ in 3 propagation steps")


def test_criterion_7_linklevel_triangle():
    graph = load_network(triangle_json())

    # entangling a walker across every edge takes exactly one shift step
    bare = schedule_linklevel(graph)
    assert len(bare.schedule.timesteps) == 1
    assert bare.schedule.timesteps[0].shift.params["mode"] == "flipflop"
    assert bare.meta["entangling_shifts"] == 1

    couple = {
        ("A", "B"): ("p", "p"),
        ("A", "C"): ("q", "q"),
        ("B", "C"): ("q", "p"),
    }
    comp = schedule_linklevel(graph, couple)
    state = init_state(graph, comp.layout, comp.walker_inits)
    final, _ = _run_and_collect(graph, comp, state)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    for (u, v), (qu, qv) in couple.items():
        rho = reduced_density(final, (comp.layout.data_bit(u, qu), comp.layout.data_bit(v, qv)))
        assert float(np.vdot(bell, rho @ bell).real) >= 1 - FID_TOL
    # walkers mutually separable: every single-walker and walker-pair cut is pure
    for w in range(3):
        bits = comp.layout.vertex_bit_positions(w) + comp.layout.coin_bit_positions(w)
        assert purity_across_cut(final, bits) >= 1 - FID_TOL
    for w1 in range(3):
        for w2 in range(w1 + 1, 3):
            bits = (
                comp.layout.vertex_bit_positions(w1) + comp.layout.coin_bit_positions(w1)
                + comp.layout.vertex_bit_positions(w2) + comp.layout.coin_bit_positions(w2)
            )
            assert purity_across_cut(final, bits) >= 1 - FID_TOL
    print("criterion 7: PASS - three simultaneous Bell pairs on the triangle")


def test_criterion_8_invariant_suite():
    # (a) flip-flop involution on all graphs with <= 6 nodes we exercise
    small_graphs = [
        network_json([f"v{i}" for i in range(n)], edges)
        for n, edges in [
            (2, [("v0", "v1")]),
            (3, [("v0", "v1"), ("v1", "v2")]),
            (3, [("v0", "v1"), ("v1", "v2"), ("v0", "v2")]),
            (4, [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v0", "v3")]),
            (5, [("v0", v) for v in ("v1", "v2", "v3", "v4")]),
            (6, [(f"v{i}", f"v{j}") for i in range(6) for j in range(i + 1, 6)]),
        ]
    ]
    for doc in small_graphs:
        g = load_network(doc)
        lay = RegisterLayout.for_network(g, 1)
        shift = make_flipflop_shift(g, lay)
        (action,) = shift.actions
        for i, p in enumerate(action.perm):  # brute force over basis states
            assert action.perm[p] == i
        s = random_state(lay, np.random.default_rng(1))
        twice = apply_operator(apply_operator(s, shift), shift)
        assert np.abs(to_dense(twice) - to_dense(s)).max() < 1e-12

    # (b) norm drift over >= 1000 operator applications
    graph = load_network(triangle_json())
    lay = RegisterLayout.for_network(graph, 2)
    rng = np.random.default_rng(99)
    s = random_state(lay, rng)
    pool_graph = graph
    from qwcp import (
        make_coin_block,
        make_coin_perm,
        make_data_controlled_coin,
        make_walk_interaction,
    )

    h = GATE_LIBRARY["H"]
    pool = [
        make_flipflop_shift(pool_graph, lay),
        make_coin_perm(pool_graph, lay, "A", 0, 1, 0),
        make_coin_block(pool_graph, lay, "B", [0, 1], h, 1),
        make_data_controlled_coin(pool_graph, lay, "A", ["p"], "1", (0, 2), 0),
        make_walk_interaction(pool_graph, lay, "B", 1, (0, 1), 0, 1),
    ]
    for i in range(1000):
        s = apply_operator(s, pool[int(rng.integers(0, len(pool)))])
    assert abs(s.norm - 1.0) <= NORM_TOL

    # (c) neighbor locality for every timestep of every collected run
    assert COLLECTED_RUNS, "criteria 1-7 must run first"
    for g, _, trace in COLLECTED_RUNS:
        prev = trace.initial_support
        for sup in trace.supports:
            for w, labels in sup.items():
                closed = set()
                for v in prev[w]:
                    closed.add(v)
                    closed.update(g.neighbors(v))
                assert labels <= closed
            prev = sup

    # (d) every operator of every collected schedule passes the unitarity
    # check, and every walk move and coin swap is a remap of one walker's
    # register, conditioned only on bits outside it
    from qwcp.statevec import BlockAction, PermAction

    seen = 0
    schedules = {id(c): c for _, c, _ in COLLECTED_RUNS}
    for compiled in schedules.values():
        lay = compiled.layout
        for ts in compiled.schedule.timesteps:
            for op in list(ts.pre_ops) + [ts.shift]:
                for act in op.iter_actions():
                    if op.kind in ("shift", "coinperm", "datactrl", "interact", "fanout"):
                        assert isinstance(act, PermAction)
                        register = set(lay.vertex_bit_positions(act.walker))
                        register.update(lay.coin_bit_positions(act.walker))
                        assert not register & {p for bits, _ in act.conditions for p in bits}
                    if isinstance(act, PermAction):
                        assert sorted(act.perm) == list(range(len(act.perm)))
                    else:
                        assert isinstance(act, BlockAction)
                        m = act.matrix
                        assert (
                            np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= 1e-12
                        )
                    seen += 1
    assert seen > 100

    # (e) invert_schedule really is the inverse on random states
    graph, comp = grid_cnot_instance()
    prop_steps = comp.meta["propagation_steps"]
    forward = Schedule(comp.schedule.timesteps[: prop_steps + 1])
    rng = np.random.default_rng(123)
    for _ in range(5):
        s = random_state(comp.layout, rng)
        out = s
        for sched in (forward, invert_schedule(forward)):
            for ts in sched.timesteps:
                for op in ts.pre_ops:
                    out = apply_operator(out, op)
                out = apply_operator(out, ts.shift)
        assert fidelity(out, s) >= 1 - NORM_TOL
    print("criterion 8: PASS - involution, norm, locality, unitarity, inversion")


def test_criterion_9_deterministic_reports(tmp_path):
    net = tmp_path / "net.json"
    net.write_text(grid3_json())
    script = tmp_path / "script.qws"
    script.write_text(
        f"network {net}\n"
        "init n00.a=+\n"
        "remote_cu control=n00.a target=n12.b path=n00,n01,n02,n12 gate=X "
        "separation=measure\n"
    )
    payloads = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(
            ["run", str(script), "--seed", "42", "--mode", "sample",
             "--out", str(out)]
        )
        assert code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    report = json.loads(payloads[0])
    assert report["schema"] == 2 and report["passed"] is True
    print("criterion 9: PASS - identical seed gives bitwise-identical reports")
