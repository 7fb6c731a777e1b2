import json

import numpy as np
import pytest

from qwcp import (
    GATE_LIBRARY,
    PathSpec,
    ProtocolError,
    StateVector,
    TreeSpec,
    compare,
    data_layout,
    gate_request,
    init_state,
    load_network,
    oracle_apply,
    run_schedule,
    schedule_ghz_path,
    schedule_linklevel,
    schedule_multi_control,
    schedule_multipath,
    schedule_remote_cu,
    schedule_to_json,
    schedule_tree,
    walker_vertex_support,
)
from qwcp import protocols
from qwcp.cli import _prepare, execute, parse_script
from qwcp.walkops import Schedule

import dense_reference as dense
from conftest import grid3_json, line_json, random_qubit
from instruments import (
    apply_z,
    canonical_bits,
    measure_reference,
    process_check,
    purity_across_cut,
    reduced_density,
    to_dense,
)


def verify(compiled, graph, data_inits=None):
    """Run a compiled protocol and compare against its oracle."""
    state = init_state(graph, compiled.layout, compiled.walker_inits, data_inits)
    final, trace = run_schedule(state, compiled.schedule, graph)
    oracle_out = oracle_apply(
        init_state(graph, data_layout(graph), [], data_inits), compiled.oracle_gates
    )
    report = compare(final if trace.branches is None else trace.branches, oracle_out)
    return report, final, trace


def forward_ops(comp):
    """(kind, node, walker) of every operator of each forward timestep,
    data gates first; a fan-out gives the walkers it serves."""
    timesteps = schedule_to_json(comp.schedule)["timesteps"]
    return [
        [(op["kind"], op["node"], op.get("walker", op.get("walkers"))) for op in ts["ops"]]
        for ts in timesteps[: comp.meta["propagation_steps"] + 1]
    ]


def shift_walkers(comp):
    """Per timestep: the shift's mode, its walkers and whether it is inverted."""
    return [
        (ts["shift"]["mode"], ts["shift"]["walkers"], ts["shift"].get("inverted", False))
        for ts in schedule_to_json(comp.schedule)["timesteps"]
    ]


# -- gate_request ---------------------------------------------------------


def test_gate_request_validations(path3):
    with pytest.raises(ProtocolError):
        gate_request(path3, [(("A", "zz"), 1)], [("B", "b")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        gate_request(path3, [(("A", "a"), 2)], [("B", "b")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        gate_request(path3, [(("A", "a"), 1)], [], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        gate_request(
            path3, [(("A", "a"), 1)], [("A", "a"), ("B", "b")], np.eye(4)
        )  # targets at two nodes
    with pytest.raises(ProtocolError):
        gate_request(path3, [(("A", "a"), 1)], [("B", "b")], np.eye(4))
    with pytest.raises(ProtocolError, match=r"control qubit \('A', 'a'\) listed twice"):
        gate_request(path3, [(("A", "a"), 1), (("A", "a"), 0)], [("B", "b")], GATE_LIBRARY["X"])
    gate = gate_request(path3, [(("A", "a"), 1)], [("B", "b")], GATE_LIBRARY["X"])
    assert gate.controls == ((("A", "a"), 1),) and gate.targets == (("B", "b"),)


# -- remote controlled-U --------------------------------------------------


def cnot_instance(path3, separation="reverse"):
    req = gate_request(path3, [(("A", "a"), 1)], [("B", "b")], GATE_LIBRARY["X"])
    path = PathSpec.in_graph(path3, ["A", "u", "B"])
    return schedule_remote_cu(path3, req, path, separation=separation)


def test_remote_cnot_reverse(path3):
    comp = cnot_instance(path3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        di = {("A", "a"): random_qubit(rng), ("B", "b"): random_qubit(rng)}
        report, _, _ = verify(comp, path3, di)
        assert report.passed


def test_remote_cnot_walker_round_trip(path3):
    comp = cnot_instance(path3)
    _, final, trace = verify(comp, path3, {("A", "a"): random_qubit(np.random.default_rng(2))})
    assert trace.supports[-1][0] == {"A"}
    # reverse separation: total steps = 2*hops + 3
    assert len(comp.schedule.timesteps) == 2 * 2 + 3


def test_remote_cu_arbitrary_gate(path3):
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(m)
    req = gate_request(path3, [(("A", "a"), 1)], [("B", "b")], u)
    comp = schedule_remote_cu(
        path3, req, PathSpec.in_graph(path3, ["A", "u", "B"])
    )
    report, _, _ = verify(comp, path3, {("A", "a"): random_qubit(rng), ("B", "b"): random_qubit(rng)})
    assert report.passed


def test_remote_cu_zero_control_pattern(path3):
    req = gate_request(path3, [(("A", "a"), 0)], [("B", "b")], GATE_LIBRARY["X"])
    comp = schedule_remote_cu(
        path3, req, PathSpec.in_graph(path3, ["A", "u", "B"])
    )
    report, _, _ = verify(comp, path3, {("A", "a"): random_qubit(np.random.default_rng(3))})
    assert report.passed


def test_remote_cnot_measure_branches_agree(path3):
    comp = cnot_instance(path3, separation="measure")
    rng = np.random.default_rng(4)
    di = {("A", "a"): random_qubit(rng), ("B", "b"): random_qubit(rng)}
    state = init_state(path3, comp.layout, comp.walker_inits, di)
    final, trace = run_schedule(state, comp.schedule, path3)
    assert len(trace.branches) >= 2
    oracle_out = oracle_apply(
        init_state(path3, data_layout(path3), [], di), comp.oracle_gates
    )
    for record, branch in trace.branches:
        rep = compare(branch, oracle_out)
        assert rep.passed
    # the correction is a Z on the control qubit at the path start, A.a:
    # the measure op's one action, conditioned on that bit being 1
    params = comp.schedule.measure.params
    assert params["correct_bit"] == comp.layout.data_bit("A", "a")
    (action,) = comp.schedule.measure.actions
    assert action.conditions == (((params["correct_bit"],), 1),)


def _apply_z_reference(graph, comp, state):
    """{outcome: ((qubits, bases, probability), branch)} by the per-branch
    reference: `measure_reference` on the state before the measurement,
    then `apply_z` on each branch of odd outcome parity."""
    params = comp.schedule.measure.params
    before, _ = run_schedule(state, Schedule(comp.schedule.timesteps), graph)
    want = {}
    for (qubits, bases, outcome, p), (indices, amps) in measure_reference(
        before, tuple(params["qubits"]), params["bases"]
    ):
        branch = StateVector(comp.layout, indices, amps)
        if sum(outcome[pos] for pos in params["parity_positions"]) % 2:
            branch = apply_z(branch, params["correct_bit"])
        want[outcome] = (qubits, bases, p), branch
    return want


def _check_bitwise_against_apply_z(graph, comp, state):
    """The records and branches of the trace, in order, and each branch
    bitwise, match `_apply_z_reference`. Both parities occur in the one
    stack. Each sample-mode run gives the reference branch of the outcome
    it drew."""
    want = _apply_z_reference(graph, comp, state)
    _, trace = run_schedule(state, comp.schedule, graph)
    assert [r.outcome for r in trace.branches.records] == list(want)
    positions = comp.schedule.measure.params["parity_positions"]
    assert {sum(r.outcome[pos] for pos in positions) % 2 for r in trace.branches.records} == {0, 1}
    runs = list(trace.branches)
    for seed in range(4):
        _, sampled = run_schedule(state, comp.schedule, graph, np.random.default_rng(seed))
        assert len(sampled.branches) == 1
        runs.append(sampled.branches[0])
    for record, branch in runs:
        fields, expected = want[record.outcome]
        assert (record.qubits, record.bases, record.probability) == fields
        assert np.array_equal(branch.indices, expected.indices)
        assert np.array_equal(canonical_bits(branch.amplitudes),
                              canonical_bits(expected.amplitudes))


LINE8 = [f"v{i}" for i in range(8)]


@pytest.mark.parametrize("path", [
    ["n00", "n01", "n02", "n12"], ["n00", "n10", "n11", "n12"], ["n00", "n01", "n02"], LINE8,
])
@pytest.mark.parametrize("gate", ["X", "H", "T"])
def test_stacked_correction_matches_per_branch_apply_z(path, gate):
    """A measure-separation run shaped like the benchmark's branch check
    (remote_cu from control a to target b, every data qubit in |+>)
    against the per-branch reference, at each parity width: the end ids
    n00 and n02 differ in 1 bit, n00 and n12 in 2, v0 and v7 in 3."""
    width = {"n02": 1, "n12": 2, "v7": 3}[path[-1]]
    graph = load_network(
        line_json(LINE8, {"v0": ["a"], "v7": ["b"]}) if path == LINE8 else grid3_json()
    )
    req = gate_request(graph, [((path[0], "a"), 1)], [(path[-1], "b")], GATE_LIBRARY[gate])
    comp = schedule_remote_cu(graph, req, PathSpec.in_graph(graph, path), separation="measure")
    assert len(comp.schedule.measure.params["parity_positions"]) == width
    plus = (2 ** -0.5, 2 ** -0.5)
    di = {q: plus for q in comp.layout.data_order}
    state = init_state(graph, comp.layout, comp.walker_inits, di)
    _check_bitwise_against_apply_z(graph, comp, state)


def _step_script(tmp_path, lines):
    """(graph, compiled protocol, data inits) of a step script on path3."""
    net = tmp_path / "net.json"
    net.write_text(line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]}))
    return _prepare(parse_script(f"network {net}\n" + "\n".join(lines) + "\n"))


def test_step_script_measure_of_walker_1_matches_per_branch_apply_z(tmp_path):
    """Walker 1 carries a remote controlled-H from A.a to B.b while walker
    0 idles at u; it is then measured and the Z correction is A.a's."""
    graph, comp, di = _step_script(tmp_path, [
        "init A.a=+", "init B.b=-", "place 0 u 0", "place 1 A 0",
        "step datactrl node=A controls=a string=1 swap=0,1 walker=1",
        "step shift flipflop",
        "step coinperm node=u c1=1 c2=2 walker=1",
        "step shift flipflop",
        "step coinperm node=B c1=1 c2=0 walker=1",
        "step coindata node=B qubits=b gate=H walker=1",
        "step measure a=A b=B qubit=a walker=1",
    ])
    state = init_state(graph, comp.layout, comp.walker_inits, di)
    _check_bitwise_against_apply_z(graph, comp, state)


@pytest.mark.parametrize("seed", range(4))
def test_superposed_walker_measure_matches_per_branch_apply_z(tmp_path, seed):
    """A walker at both ends for the same other bits: the Hadamard pairs
    of the basis rotation hold two entries, where the correction before
    the measurement and the Z after it may round apart in the last bits.
    The outcomes are those of the reference, and the probabilities and
    branches agree within 1e-15."""
    graph, comp, _ = _step_script(tmp_path, [
        "step datactrl node=A controls=a string=1 swap=0,1 walker=0",
        "step coinblock node=A coins=0,1 gate=H walker=0",
        "step shift flipflop",
        "step coinperm node=u c1=1 c2=0 walker=0",
        "step measure a=A b=u qubit=a",
    ])
    rng = np.random.default_rng(seed)
    di = {q: random_qubit(rng) for q in comp.layout.data_order}
    state = init_state(graph, comp.layout, comp.walker_inits, di)
    want = _apply_z_reference(graph, comp, state)
    _, trace = run_schedule(state, comp.schedule, graph)
    assert [r.outcome for r in trace.branches.records] == list(want)
    for record, branch in trace.branches:
        (_, _, p), expected = want[record.outcome]
        assert record.probability == pytest.approx(p, abs=1e-15)
        assert np.abs(to_dense(branch) - to_dense(expected)).max() <= 1e-15


def test_remote_cu_measure_sample_mode(path3):
    comp = cnot_instance(path3, separation="measure")
    di = {("A", "a"): (np.sqrt(0.3), np.sqrt(0.7))}
    state = init_state(path3, comp.layout, comp.walker_inits, di)
    rng = np.random.default_rng(11)
    final, trace = run_schedule(state, comp.schedule, path3, rng)
    assert len(trace.branches.records) == 1
    oracle_out = oracle_apply(
        init_state(path3, data_layout(path3), [], di), comp.oracle_gates
    )
    assert compare(final, oracle_out).passed


def test_remote_cu_measure_restrictions(path3):
    path = PathSpec.in_graph(path3, ["A", "u", "B"])
    req0 = gate_request(path3, [(("A", "a"), 0)], [("B", "b")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        schedule_remote_cu(path3, req0, path, separation="measure")
    req = gate_request(path3, [(("A", "a"), 1)], [("B", "b")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        schedule_remote_cu(path3, req, path, separation="teleport")


def test_remote_cu_path_endpoint_checks(path3):
    req = gate_request(path3, [(("A", "a"), 1)], [("B", "b")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        schedule_remote_cu(
            path3, req, PathSpec.in_graph(path3, ["B", "u", "A"])
        )
    with pytest.raises(ProtocolError):
        schedule_remote_cu(path3, req, PathSpec.in_graph(path3, ["A"]))


# -- multi-control --------------------------------------------------------


def toffoli_net():
    from conftest import line_json
    from qwcp import load_network

    return load_network(
        line_json(["A0", "A1", "B"], {"A0": ["a"], "A1": ["b"], "B": ["c"]})
    )


def test_multi_control_toffoli_truth_table():
    g = toffoli_net()
    req = gate_request(
        g, [(("A0", "a"), 1), (("A1", "b"), 1)], [("B", "c")], GATE_LIBRARY["X"]
    )
    comp = schedule_multi_control(g, req, PathSpec.in_graph(g, ["A0", "A1", "B"]))
    for bits in range(8):
        a, b, c = (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
        di = {
            ("A0", "a"): (1 - a, a),
            ("A1", "b"): (1 - b, b),
            ("B", "c"): (1 - c, c),
        }
        report, final, _ = verify(comp, g, di)
        assert report.passed
        rho = reduced_density(final, comp.layout.data_bit_positions())
        expect = (a << 2) | (b << 1) | (c ^ (a & b))
        assert rho[expect, expect].real == pytest.approx(1.0)


def test_multi_control_mixed_pattern():
    g = toffoli_net()
    # fires when a=1 and b=0
    req = gate_request(
        g, [(("A0", "a"), 1), (("A1", "b"), 0)], [("B", "c")], GATE_LIBRARY["X"]
    )
    comp = schedule_multi_control(g, req, PathSpec.in_graph(g, ["A0", "A1", "B"]))
    rng = np.random.default_rng(6)
    for _ in range(3):
        di = {
            ("A0", "a"): random_qubit(rng),
            ("A1", "b"): random_qubit(rng),
            ("B", "c"): random_qubit(rng),
        }
        report, _, _ = verify(comp, g, di)
        assert report.passed


def test_multi_control_rejects_controls_at_target():
    g = toffoli_net()
    req = gate_request(
        g, [(("A0", "a"), 1), (("B", "c"), 1)], [("B", "c")], GATE_LIBRARY["X"]
    )
    with pytest.raises(ProtocolError):
        schedule_multi_control(g, req, PathSpec.in_graph(g, ["A0", "A1", "B"]))


def test_multi_control_requires_start_control():
    g = toffoli_net()
    req = gate_request(g, [(("A1", "b"), 1)], [("B", "c")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        schedule_multi_control(g, req, PathSpec.in_graph(g, ["A0", "A1", "B"]))


# -- multipath ------------------------------------------------------------


def test_multipath_two_gates(grid3):
    ctrl = [(("n00", "a"), 1)]
    r1 = gate_request(grid3, ctrl, [("n02", "b")], GATE_LIBRARY["X"])
    r2 = gate_request(grid3, ctrl, [("n20", "c")], GATE_LIBRARY["Z"])
    comp = schedule_multipath(
        grid3, [r1, r2],
        [
            PathSpec.in_graph(grid3, ["n00", "n01", "n02"]),
            PathSpec.in_graph(grid3, ["n00", "n10", "n20"]),
        ],
    )
    rng = np.random.default_rng(8)
    di = {
        ("n00", "a"): random_qubit(rng),
        ("n02", "b"): random_qubit(rng),
        ("n20", "c"): random_qubit(rng),
    }
    report, _, _ = verify(comp, grid3, di)
    assert report.passed


def test_multipath_unequal_lengths(grid3):
    ctrl = [(("n00", "a"), 1)]
    r1 = gate_request(grid3, ctrl, [("n12", "b")], GATE_LIBRARY["X"])
    r2 = gate_request(grid3, ctrl, [("n20", "c")], GATE_LIBRARY["X"])
    comp = schedule_multipath(
        grid3, [r1, r2],
        [
            PathSpec.in_graph(grid3, ["n00", "n01", "n02", "n12"]),
            PathSpec.in_graph(grid3, ["n00", "n10", "n20"]),
        ],
    )
    report, _, _ = verify(comp, grid3, {("n00", "a"): random_qubit(np.random.default_rng(9))})
    assert report.passed
    assert comp.meta["arrival"] == {"n12": 3, "n20": 2}


def test_multipath_unequal_lengths_shift_all_walkers(grid3):
    # every flip-flop but the last lists both walkers, also while walker 1
    # is parked at n20: on its self-loop the flip-flop leaves it in place
    ctrl = [(("n00", "a"), 1)]
    r1 = gate_request(grid3, ctrl, [("n12", "b")], GATE_LIBRARY["X"])
    r2 = gate_request(grid3, ctrl, [("n20", "c")], GATE_LIBRARY["X"])
    comp = schedule_multipath(
        grid3, [r1, r2],
        [
            PathSpec.in_graph(grid3, ["n00", "n01", "n02", "n12"]),
            PathSpec.in_graph(grid3, ["n00", "n10", "n20"]),
        ],
    )
    flip, flip_back = ("flipflop", [0, 1], False), ("flipflop", [0, 1], True)
    identity = ("identity", [], False)
    assert shift_walkers(comp) == (
        [flip] * 3 + [identity] + [identity] + [flip_back] * 3 + [identity]
    )
    rng = np.random.default_rng(13)
    di = {("n00", "a"): random_qubit(rng), ("n20", "c"): random_qubit(rng)}
    report, _, trace = verify(comp, grid3, di)
    assert report.passed
    assert trace.supports[1][1] == trace.supports[2][1] == {"n00", "n20"}


def test_multipath_paths_meet_again():
    # both walkers pass n11 at the same step, then part again
    doc = json.loads(grid3_json())
    doc["data_qubits"]["n21"] = ["d"]
    g = load_network(json.dumps(doc))
    ctrl = [(("n00", "a"), 1)]
    r1 = gate_request(g, ctrl, [("n12", "b")], GATE_LIBRARY["X"])
    r2 = gate_request(g, ctrl, [("n21", "d")], GATE_LIBRARY["H"])
    comp = schedule_multipath(
        g, [r1, r2],
        [
            PathSpec.in_graph(g, ["n00", "n01", "n11", "n12"]),
            PathSpec.in_graph(g, ["n00", "n10", "n11", "n21"]),
        ],
    )
    assert forward_ops(comp) == [
        [("datactrl", "n00", 0), ("fanout", "n00", [0, 1])],
        [("coinperm", "n01", 0), ("coinperm", "n10", 1)],
        [("coinperm", "n11", 0), ("coinperm", "n11", 1)],
        [("coindata", "n12", 0), ("coindata", "n21", 1),
         ("coinperm", "n12", 0), ("coinperm", "n21", 1)],
    ]
    assert comp.walker_inits == [("n00", 0), ("n00", 0)]
    rng = np.random.default_rng(14)
    di = {(v, q): random_qubit(rng) for v, q in (("n00", "a"), ("n12", "b"), ("n21", "d"))}
    report, _, trace = verify(comp, g, di)
    assert report.passed
    assert trace.supports[1] == {0: {"n00", "n11"}, 1: {"n00", "n11"}}


def test_multipath_rejects_shared_first_edge(grid3):
    ctrl = [(("n00", "a"), 1)]
    r1 = gate_request(grid3, ctrl, [("n02", "b")], GATE_LIBRARY["X"])
    r2 = gate_request(grid3, ctrl, [("n12", "b")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        schedule_multipath(
            grid3, [r1, r2],
            [
                PathSpec.in_graph(grid3, ["n00", "n01", "n02"]),
                PathSpec.in_graph(grid3, ["n00", "n01", "n11", "n12"]),
            ],
        )


def test_multipath_rejects_mismatched_controls(grid3):
    r1 = gate_request(grid3, [(("n00", "a"), 1)], [("n02", "b")], GATE_LIBRARY["X"])
    r2 = gate_request(grid3, [(("n00", "a"), 0)], [("n20", "c")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError):
        schedule_multipath(
            grid3, [r1, r2],
            [
                PathSpec.in_graph(grid3, ["n00", "n01", "n02"]),
                PathSpec.in_graph(grid3, ["n00", "n10", "n20"]),
            ],
        )


# -- tree -----------------------------------------------------------------


def btree_spec(btree7):
    return TreeSpec.in_graph(
        btree7, "A",
        [("A", "b0"), ("A", "b1"), ("b0", "c00"), ("b0", "c01"),
         ("b1", "c10"), ("b1", "c11")],
    )


def tree_requests(graph, gates, controls=((("A", "a"), 1),)):
    """One request per (node, gate name) pair: the gate on the node's
    qubit t, under `controls`."""
    return [gate_request(graph, controls, [(v, "t")], GATE_LIBRARY[g])
            for v, g in gates]


def test_tree_four_leaf_targets(btree7):
    tree = btree_spec(btree7)
    targets = ("c00", "c01", "c10", "c11")
    comp = schedule_tree(btree7, tree, tree_requests(btree7, [(v, "X") for v in targets]))
    rng = np.random.default_rng(10)
    di = {("A", "a"): random_qubit(rng)}
    report, _, trace = verify(comp, btree7, di)
    assert report.passed
    assert comp.meta["walker_of"]["c00"] == 0
    assert len(set(comp.meta["walker_of"][leaf] for leaf in targets)) == 4


def test_tree_rejects_target_at_root(btree7):
    at_root = gate_request(btree7, [(("A", "a"), 1)], [("A", "a")], GATE_LIBRARY["X"])
    with pytest.raises(ProtocolError, match="needs no propagation"):
        schedule_tree(btree7, btree_spec(btree7), [at_root])
    # so is a target off the tree, a node targeted twice, or a control off
    # the root
    b0_only = TreeSpec.in_graph(btree7, "A", [("A", "b0"), ("b0", "c00")])
    with pytest.raises(ProtocolError, match="outside the tree"):
        schedule_tree(btree7, b0_only, tree_requests(btree7, [("c11", "X")]))
    with pytest.raises(ProtocolError, match="duplicate target node 'c00'"):
        schedule_tree(btree7, b0_only, tree_requests(btree7, [("c00", "X"), ("c00", "Z")]))
    off_root = tree_requests(btree7, [("c00", "X")], controls=[(("c01", "t"), 1)])
    with pytest.raises(ProtocolError, match="shared start node"):
        schedule_tree(btree7, b0_only, off_root)


def test_tree_interior_target(btree7):
    # target at an interior node fires when that node's walker passes it
    tree = btree_spec(btree7)
    comp = schedule_tree(btree7, tree, tree_requests(btree7, [("c11", "H")]))
    report, _, _ = verify(comp, btree7, {("A", "a"): random_qubit(np.random.default_rng(12))})
    assert report.passed


def test_tree_edges_out_of_depth_order(btree7):
    # the edges list leaves before their parents, so at depth 2 the
    # visits come in node order c10, c00, c11, c01 with walkers 1, 0, 3, 2
    edges = [("b1", "c10"), ("A", "b0"), ("b0", "c00"), ("A", "b1"),
             ("b1", "c11"), ("b0", "c01")]
    tree = TreeSpec.in_graph(btree7, "A", edges)
    gates = dict(zip(("c00", "c01", "c10", "c11"), "XZHS"))
    comp = schedule_tree(btree7, tree, tree_requests(btree7, gates.items()))
    leaves = [("c10", 1), ("c00", 0), ("c11", 3), ("c01", 2)]
    assert forward_ops(comp) == [
        [("datactrl", "A", 0), ("fanout", "A", [0, 1])],
        [("fanout", "b0", [0, 2]), ("fanout", "b1", [1, 3])],
        [("coindata", v, w) for v, w in leaves] + [("coinperm", v, w) for v, w in leaves],
    ]
    assert comp.walker_inits == [("A", 0), ("A", 0), ("b0", 0), ("b1", 0)]
    assert comp.meta["walker_of"] == {
        "A": 0, "b0": 0, "b1": 1, "c00": 0, "c01": 2, "c10": 1, "c11": 3,
    }
    assert comp.meta["spawn_node"] == {1: "A", 2: "b0", 3: "b1"}
    rng = np.random.default_rng(15)
    di = {("A", "a"): random_qubit(rng)}
    di.update({(leaf, "t"): random_qubit(rng) for leaf in gates})
    report, _, _ = verify(comp, btree7, di)
    assert report.passed


# -- GHZ ------------------------------------------------------------------


def _ghz_data_gates(g, m):
    """Schedule a GHZ request of m members at A and at B and return each
    node's data gates in order, as (qubits, matrix) pairs."""
    members = [f"q{i}" for i in range(m)]
    comp = schedule_ghz_path(
        g, [PathSpec.in_graph(g, ["A", "B"])], [{"A": members, "B": members}]
    )
    got = {"A": [], "B": []}
    for ts in comp.schedule.timesteps:
        for op in ts.pre_ops:
            if op.kind == "coindata":
                got[op.params["node"]].append((op.params["qubits"], op.actions[0].matrix))
    return comp, members, got


def _apply_gate_list(state, members, gates):
    # state has one axis per member, in member order; a gate's first
    # qubit is the high bit of its matrix index
    for qs, mat in gates:
        k = len(qs)
        axes = [members.index(q) for q in qs]
        t = np.tensordot(mat.reshape((2,) * 2 * k), state, axes=(list(range(k, 2 * k)), axes))
        state = np.moveaxis(t, list(range(k)), axes)
    return state


def test_ghz_prep_matrix_builds_ghz():
    # the start node's gates, composed, are unitary and take |0..0> to GHZ
    qubits = [f"q{i}" for i in range(6)]
    g = load_network(line_json(["A", "B"], {"A": qubits, "B": qubits}))
    for m in range(1, 7):
        _, members, got = _ghz_data_gates(g, m)
        mat = np.empty((1 << m, 1 << m), dtype=complex)
        for col in range(1 << m):
            basis = np.zeros(1 << m, dtype=complex)
            basis[col] = 1
            out = _apply_gate_list(basis.reshape((2,) * m), members, got["A"])
            mat[:, col] = out.reshape(-1)
        assert np.abs(mat.conj().T @ mat - np.eye(1 << m)).max() < 1e-12, m
        expect = np.zeros(1 << m, dtype=complex)
        expect[0] = expect[-1] = 1 / np.sqrt(2)
        assert np.allclose(mat[:, 0], expect), m


def test_ghz_gate_matrices_match_loop_formulas():
    # bitwise, signed zeros included, since the report prints each entry:
    # A applies H on its first member, then a CNOT from it to each other
    # member; B one X per member
    qubits = [f"q{i}" for i in range(8)]
    g = load_network(line_json(["A", "B"], {"A": qubits, "B": qubits}))
    h, x = GATE_LIBRARY["H"], GATE_LIBRARY["X"]
    cnot = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        cnot[col ^ (col >> 1), col] += 1  # control is the high bit
    for m in range(1, 9):
        _, members, got = _ghz_data_gates(g, m)
        first, *others = members
        want_a = [([first], h)] + [([first, q], cnot) for q in others]
        assert [(qs, mat.tobytes()) for qs, mat in got["A"]] == [
            (qs, mat.tobytes()) for qs, mat in want_a], m
        assert [(qs, mat.tobytes()) for qs, mat in got["B"]] == [
            ([q], x.tobytes()) for q in members], m


def test_ghz_run_matches_dense_reference():
    # from random inits the m-member run verifies, and the dense
    # reference engine gives the same final state
    qubits = [f"q{i}" for i in range(8)]
    g = load_network(line_json(["A", "B"], {"A": qubits, "B": qubits}))
    rng = np.random.default_rng(21)
    for m in range(1, 9):
        comp, members, _ = _ghz_data_gates(g, m)
        di = {(v, q): random_qubit(rng) for v in "AB" for q in members}
        report, final, _ = verify(comp, g, di)
        assert report.passed, m
        ref = to_dense(init_state(g, comp.layout, comp.walker_inits, di))
        for ts in comp.schedule.timesteps:
            for op in [*ts.pre_ops, ts.shift]:
                ref = dense.apply_actions(ref, comp.layout, op.iter_actions())
        assert np.abs(to_dense(final) - ref).max() <= 1e-12, m


def test_ghz_four_node_path(path4):
    p = PathSpec.in_graph(path4, ["A", "B", "C", "D"])
    comp = schedule_ghz_path(path4, [p], [{v: ["g"] for v in "ABCD"}])
    report, final, _ = verify(comp, path4)
    assert report.passed
    rho = reduced_density(final, comp.layout.data_bit_positions())
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[15] = 1 / np.sqrt(2)
    assert float(np.vdot(ghz, rho @ ghz).real) >= 1 - 1e-9
    assert comp.meta["propagation_steps"] == 3


def test_ghz_multiple_qubits_per_node(path4):
    from conftest import line_json
    from qwcp import load_network

    g = load_network(
        line_json(["A", "B"], {"A": ["g", "h"], "B": ["g"]})
    )
    comp = schedule_ghz_path(
        g, [PathSpec.in_graph(g, ["A", "B"])],
        [{"A": ["g", "h"], "B": ["g"]}],
    )
    report, final, _ = verify(comp, g)
    assert report.passed
    rho = reduced_density(final, comp.layout.data_bit_positions())
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    assert float(np.vdot(ghz, rho @ ghz).real) >= 1 - 1e-9


def test_ghz_rejects_overlapping_qubits(path4):
    p1 = PathSpec.in_graph(path4, ["A", "B"])
    p2 = PathSpec.in_graph(path4, ["C", "B"])
    with pytest.raises(ProtocolError, match=r"\('B', 'g'\) used by two paths"):
        schedule_ghz_path(
            path4, [p1, p2],
            [{"A": ["g"], "B": ["g"]}, {"C": ["g"], "B": ["g"]}],
        )
    with pytest.raises(ProtocolError, match=r"\('A', 'g'\) listed twice in one path"):
        schedule_ghz_path(path4, [p1], [{"A": ["g", "g"], "B": ["g"]}])


def test_ghz_two_disjoint_paths(path4):
    p1 = PathSpec.in_graph(path4, ["A", "B"])
    p2 = PathSpec.in_graph(path4, ["D", "C"])
    comp = schedule_ghz_path(
        path4, [p1, p2],
        [{"A": ["g"], "B": ["g"]}, {"D": ["g"], "C": ["g"]}],
    )
    report, final, _ = verify(comp, path4)
    assert report.passed
    # two separate Bell pairs
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    for pair in ((("A", "g"), ("B", "g")), (("D", "g"), ("C", "g"))):
        bits = tuple(comp.layout.data_bit(n, q) for n, q in pair)
        rho = reduced_density(final, bits)
        assert float(np.vdot(bell, rho @ bell).real) >= 1 - 1e-9


def test_ghz_zero_hop_path_beside_longer_path():
    # path [A] has no hop: its walker 0 only carries A's local prep and
    # stays parked at A, listed in the flip-flops while walker 1 walks
    g = load_network(
        line_json(["A", "B", "C", "D"], {"A": ["g", "h"], "B": ["g"], "C": ["g"], "D": ["g"]})
    )
    comp = schedule_ghz_path(
        g,
        [PathSpec.in_graph(g, ["A"]), PathSpec.in_graph(g, ["B", "C", "D"])],
        [{"A": ["g", "h"]}, {v: ["g"] for v in "BCD"}],
    )
    assert forward_ops(comp) == [
        [("coindata", "A", 0), ("coindata", "A", 0), ("coindata", "B", 1),
         ("datactrl", "B", 1)],
        [("coindata", "C", 1), ("coinperm", "C", 1)],
        [("coindata", "D", 1), ("coinperm", "D", 1)],
    ]
    assert shift_walkers(comp)[:3] == [
        ("flipflop", [0, 1], False), ("flipflop", [0, 1], False), ("identity", [], False),
    ]
    assert comp.walker_inits == [("A", 0), ("B", 0)]
    report, final, trace = verify(comp, g)
    assert report.passed
    assert all(sup[0] == {"A"} for sup in trace.supports)
    for qubits in ((("A", "g"), ("A", "h")), (("B", "g"), ("C", "g"), ("D", "g"))):
        ghz = np.zeros(1 << len(qubits), dtype=complex)
        ghz[0] = ghz[-1] = 1 / np.sqrt(2)
        rho = reduced_density(final, tuple(comp.layout.data_bit(n, q) for n, q in qubits))
        assert float(np.vdot(ghz, rho @ ghz).real) >= 1 - 1e-9


# -- link-level -----------------------------------------------------------


def test_linklevel_uncoupled_single_shift(triangle):
    comp = schedule_linklevel(triangle)
    assert len(comp.schedule.timesteps) == 1
    assert comp.schedule.timesteps[0].shift.params["mode"] == "flipflop"
    state = init_state(triangle, comp.layout, comp.walker_inits)
    final, _ = run_schedule(state, comp.schedule, triangle)
    # each walker is spread across its own edge, in a pure single-walker state
    for w, (u, v) in enumerate(comp.meta["edges"]):
        sup = walker_vertex_support(final)[w]
        assert sup == {triangle.vertex_id(u), triangle.vertex_id(v)}
        bits = comp.layout.vertex_bit_positions(w) + comp.layout.coin_bit_positions(w)
        assert purity_across_cut(final, bits) == pytest.approx(1.0)


def test_linklevel_coupled_bell_pairs(triangle):
    couple = {
        ("A", "B"): ("p", "p"),
        ("A", "C"): ("q", "q"),
        ("B", "C"): ("q", "p"),
    }
    comp = schedule_linklevel(triangle, couple)
    report, final, _ = verify(comp, triangle)
    assert report.passed
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    for (u, v), (qu, qv) in couple.items():
        bits = (comp.layout.data_bit(u, qu), comp.layout.data_bit(v, qv))
        rho = reduced_density(final, bits)
        assert float(np.vdot(bell, rho @ bell).real) >= 1 - 1e-9


def test_linklevel_rejects_noncoupling_edge(triangle):
    with pytest.raises(ProtocolError):
        schedule_linklevel(triangle, {("A", "Z"): ("p", "p")})


def test_linklevel_rejects_qubit_in_two_couplings(triangle):
    with pytest.raises(ProtocolError):
        schedule_linklevel(
            triangle, {("A", "B"): ("p", "p"), ("A", "C"): ("p", "q")}
        )


# -- locality -------------------------------------------------------------


def test_supports_expand_only_to_neighbors(grid3):
    req = gate_request(grid3, [(("n00", "a"), 1)], [("n12", "b")], GATE_LIBRARY["X"])
    comp = schedule_remote_cu(
        grid3, req, PathSpec.in_graph(grid3, ["n00", "n01", "n02", "n12"])
    )
    di = {("n00", "a"): (1 / np.sqrt(2), 1 / np.sqrt(2))}
    state = init_state(grid3, comp.layout, comp.walker_inits, di)
    _, trace = run_schedule(state, comp.schedule, grid3)
    prev = trace.initial_support
    for sup in trace.supports:
        for w, labels in sup.items():
            closed = set()
            for v in prev[w]:
                closed.add(v)
                closed.update(grid3.neighbors(v))
            assert labels <= closed
        prev = sup


def test_process_check_fails_a_compile_right_only_from_default_inits(tmp_path, monkeypatch):
    # a wrong compile: the target's H applied twice, which is the identity.
    # With no init line the control starts in |0>, where the oracle's
    # controlled H is the identity too, so the run verifies. Over every
    # input the channel is the identity against controlled-H on two
    # qubits: F_e = |Tr(CH) / 4|^2 = 1/4.
    def twice(request):
        return 2 * [([q for _, q in request.targets], request.matrix)]

    monkeypatch.setattr(protocols, "_data_gate", twice)
    network = line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]})
    line = "remote_cu control=A.a target=B.b path=A,u,B gate=H"
    net = tmp_path / "net.json"
    net.write_text(network)
    report, *_ = execute(parse_script(f"network {net}\n{line}\n"))
    assert report["passed"] is True
    check = process_check(network, line)
    assert check.data_fidelity == pytest.approx(0.25, abs=1e-12)
    assert check.walker_purity == pytest.approx(1.0, abs=1e-12)
    assert not check.passed
