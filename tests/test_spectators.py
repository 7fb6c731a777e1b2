"""Spectator factoring in `qwcp.cli.execute` against the unfactored run.

`execute` runs only the core of the state: data qubits that no scheduled
action reads or writes and no oracle gate touches (spectators) start in
|0>, and their initial 2-vectors come back apart, as factors. The tests
build the full final state from the two with `insert_qubits`, and check
the dump that `dump_state` writes from them against it. The reference
here runs the whole state, as `tests/test_protocols.py` does:
`init_state` with every data init, `run_schedule`, then one `compare`
over the measured branches or the final state."""
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qwcp import (
    GATE_LIBRARY,
    NetworkError,
    OracleError,
    OracleGate,
    OperatorError,
    OperatorSpec,
    ProtocolError,
    RegisterLayout,
    Schedule,
    StateError,
    StateVector,
    compare,
    data_layout,
    init_state,
    load_network,
    oracle_apply,
    run_schedule,
)
from qwcp.cli import (
    ScriptError,
    _prepare,
    _support_json,
    execute,
    parse_script,
    spectator_qubits,
)
from qwcp.statevec import PermAction, dump_state, insert_qubits

from conftest import line_json
from instruments import dump_reference
from test_cli_fuzz import cases, script_text

REJECTED = (ScriptError, NetworkError, ProtocolError, OperatorError, StateError, OracleError)
TOL = 1e-12


def reference(script, mode, seed):
    """(report fields, final state) of the unfactored run."""
    graph, compiled, data_inits = _prepare(script)
    state = init_state(graph, compiled.layout, compiled.walker_inits, data_inits)
    rng = np.random.default_rng(0 if seed is None else seed) if mode == "sample" else None
    final, trace = run_schedule(state, compiled.schedule, graph, rng)
    fields = {
        "final_norm": final.norm,
        "supports": {
            "initial": _support_json(trace.initial_support),
            "timesteps": [_support_json(s) for s in trace.supports],
        },
        "records": [
            (list(r.qubits), r.bases, "".join(map(str, r.outcome)), r.probability)
            for r in (trace.branches.records if trace.branches is not None else ())
        ],
        "correction": None,
        "passed": None, "fidelity_vs_oracle": None, "walker_purity": None,
    }
    if compiled.schedule.measure is not None:
        params = compiled.schedule.measure.params
        (node, name), = [q for q in compiled.layout.data_order
                         if compiled.layout.data_bit(*q) == params["correct_bit"]]
        fields["correction"] = {"gate": "Z", "qubit": f"{node}.{name}",
                                "parity_positions": params["parity_positions"]}
    if compiled.oracle_gates is not None:
        oracle_out = oracle_apply(
            init_state(graph, data_layout(graph), [], data_inits), compiled.oracle_gates
        )
        report = compare(final if trace.branches is None else trace.branches, oracle_out)
        fields["passed"] = report.passed
        fields["fidelity_vs_oracle"] = report.data_fidelity
        fields["walker_purity"] = report.walker_purity
    return fields, final


def max_difference(a: StateVector, b: StateVector) -> float:
    """Largest amplitude difference of two sparse states, a missing index
    counting as zero."""
    indices = np.union1d(a.indices, b.indices)
    dense = np.zeros((2, len(indices)), dtype=complex)
    dense[0, np.searchsorted(indices, a.indices)] = a.amplitudes
    dense[1, np.searchsorted(indices, b.indices)] = b.amplitudes
    return float(np.max(np.abs(dense[0] - dense[1]), initial=0.0))


def check_against_reference(network: str, lines: list, mode: str, seed=None):
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp, "net.json")
        net.write_text(network)
        try:
            script = parse_script(script_text(net, lines))
            report, core, factors, _ = execute(script, seed=seed, mode=mode)
        except REJECTED as exc:
            event(f"rejected: {type(exc).__name__}")
            # the unfactored run rejects the script the same way
            with pytest.raises(type(exc)) as again:
                reference(parse_script(script_text(net, lines)), mode, seed)
            assert str(again.value) == str(exc)
            return
        want, want_final = reference(script, mode, seed)
        _, compiled, _ = _prepare(script)
    spectators = spectator_qubits(compiled.layout, compiled.schedule, compiled.oracle_gates)
    event(f"accepted, spectators: {len(spectators) if len(spectators) < 3 else '3+'}")
    assert report["supports"] == want["supports"]
    assert report["passed"] == want["passed"]
    got = report["measurement"]
    if got is None:
        assert want["records"] == [] and want["correction"] is None
    else:
        assert got["correction"] == want["correction"]
        assert [(got["qubits"], got["bases"], bits) for bits in got["probabilities"]] == [
            m[:3] for m in want["records"]
        ]
        for p, (*_, probability) in zip(got["probabilities"].values(), want["records"]):
            assert p == pytest.approx(probability, abs=TOL)
    for key in ("fidelity_vs_oracle", "walker_purity"):
        if want[key] is None:
            assert report[key] is None
        else:
            assert report[key] == pytest.approx(want[key], abs=TOL)
    assert report["final_norm"] == pytest.approx(want["final_norm"], abs=TOL)
    final = insert_qubits(core, factors)
    # the report's norm is the core's times the factors', not the product's
    assert abs(report["final_norm"] - final.norm) <= 1e-15 * (len(factors) + 1)
    assert final.layout == want_final.layout
    assert max_difference(final, want_final) <= TOL
    out = io.BytesIO()
    dump_state(out, core, factors)
    assert out.getvalue() == dump_reference(final)


@settings(max_examples=150, deadline=None)
@given(cases(), st.sampled_from(["branch", "sample"]), st.sampled_from([None, 3]))
def test_fuzz_scripts_match_unfactored_run(case, mode, seed):
    network, lines = case
    check_against_reference(network, lines, mode, seed)


# a line A-B-C-D; ports follow the network convention (0 is the self-loop,
# then the neighbours in ascending label order)
CORE_QUBITS = {"A": ["a"], "B": ["c"], "C": ["g"], "D": ["b"]}
GATES = ["X", "Z", "H", "T", "U[0.6,0,0.8,0;0.8,0,-0.6,0]"]


@st.composite
def spectator_cases(draw):
    """(network, script lines, mode): a valid protocol or step script on the
    line A-B-C-D whose nodes also carry spectator qubits s0.. in 0, 1, +
    or -; the core qubits start in drawn states too."""
    qubits = {v: list(q) for v, q in CORE_QUBITS.items()}
    inits = []
    for i in range(draw(st.integers(1, 4))):
        node = draw(st.sampled_from("ABCD"))
        qubits[node].append(f"s{i}")
        inits.append(f"init {node}.s{i}={draw(st.sampled_from('01+-'))}")
    for node, (name,) in CORE_QUBITS.items():
        if draw(st.booleans()):
            inits.append(f"init {node}.{name}={draw(st.sampled_from('01+-'))}")
    inits = draw(st.permutations(inits))

    def gate():
        return draw(st.sampled_from(GATES))

    commands = [
        [f"remote_cu control=A.a target=D.b path=A,B,C,D gate={gate()} "
         f"separation={draw(st.sampled_from(['reverse', 'measure']))}"],
        [f"remote_mcu controls=A.a,B.c string={draw(st.sampled_from(['01', '10', '11']))} "
         f"target=D.b path=A,B,C,D gate={gate()}"],
        [f"multipath control=B.c path=B,A target=A.a gate={gate()} "
         f"path=B,C,D target=D.b gate={gate()}"],
        [f"tree control=B.c edges=B>A,B>C,C>D target=A.a gate={gate()} "
         f"target=D.b gate={gate()}"],
        ["ghz_path path=A,B,C qubits=A.a,B.c,C.g"],
        ["linklevel couple=A,a:B,c"],
        ["walkers 1", "place 0 A 1", "step shift flipflop",
         "step coinperm node=B c1=1 c2=2 walker=0", "step shift flipflop",
         f"step coindata node=C qubits=g gate={gate()} walker=0", "step shift identity"],
        ["walkers 1", "step datactrl node=A controls=a string=1 swap=0,1 walker=0",
         "step shift flipflop", "step coinperm node=B c1=1 c2=2 walker=0",
         "step shift flipflop", "step coinperm node=C c1=1 c2=0 walker=0",
         f"step coindata node=C qubits=g gate={gate()} walker=0", "step shift identity",
         "step measure a=A b=C qubit=a"],
        # A.a only as a condition, then only as the corrected bit
        ["walkers 1", "step datactrl node=A controls=a string=1 swap=0,1 walker=0",
         "step shift flipflop"],
        ["walkers 1", "step measure a=A b=B qubit=a"],
    ]
    body = draw(st.sampled_from(commands))
    network = line_json(["A", "B", "C", "D"], qubits)
    return network, inits + body, draw(st.sampled_from(["branch", "sample"]))


# A.a in |+> next to a spectator in |1>: A.a is only a condition, then
# only the corrected bit (sample seed 0 draws the odd-parity branch)
EXAMPLE_NET = line_json(["A", "B", "C", "D"], {**CORE_QUBITS, "A": ["a", "s0"]})
EXAMPLE_INITS = ["init A.a=+", "init A.s0=1", "walkers 1"]


@settings(max_examples=150, deadline=None)
@given(spectator_cases(), st.sampled_from([None, 3]))
@example((EXAMPLE_NET, EXAMPLE_INITS + [
    "step datactrl node=A controls=a string=1 swap=0,1 walker=0", "step shift flipflop",
], "branch"), None)
@example((EXAMPLE_NET, EXAMPLE_INITS + ["step measure a=A b=B qubit=a"], "sample"), None)
def test_spectator_scripts_match_unfactored_run(case, seed):
    network, lines, mode = case
    check_against_reference(network, lines, mode, seed)


# -- which qubits are spectators ------------------------------------------

NET = line_json(["A", "B"], {"A": ["c", "s"], "B": ["t", "u"]})


def prepared(lines):
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp, "net.json")
        net.write_text(NET)
        _, compiled, _ = _prepare(parse_script(f"network {net}\n" + "\n".join(lines)))
    return compiled


def test_condition_bit_is_not_a_spectator():
    # datactrl reads A.c as a condition and writes only the walker's coin
    compiled = prepared(["step datactrl node=A controls=c string=1 swap=0,1 walker=0"])
    assert spectator_qubits(compiled.layout, compiled.schedule, None) == [
        ("A", "s"), ("B", "t"), ("B", "u")
    ]


def test_target_bit_is_not_a_spectator():
    compiled = prepared(["place 0 B 0", "step coindata node=B qubits=u gate=X walker=0"])
    assert spectator_qubits(compiled.layout, compiled.schedule, None) == [
        ("A", "c"), ("A", "s"), ("B", "t")
    ]


def test_oracle_gate_qubits_are_not_spectators():
    layout = RegisterLayout.for_network(load_network(NET), 1)
    gate = OracleGate(((("A", "c"), 1),), (("B", "t"),), GATE_LIBRARY["X"])
    assert spectator_qubits(layout, Schedule([]), [gate]) == [("A", "s"), ("B", "u")]


def test_measured_and_corrected_bits_are_not_spectators():
    # the correction is the measure op's action, here a walker swap where B.u is 1
    layout = RegisterLayout.for_network(load_network(NET), 1)
    swap = np.arange(1 << layout.walker_bits)[::-1]
    correction = PermAction(0, swap, (((layout.data_bit("B", "u"),), 1),))
    params = {"qubits": [layout.data_bit("A", "s")]}
    measure = OperatorSpec("measure", params, layout, actions=(correction,))
    assert spectator_qubits(layout, Schedule([], measure), None) == [("A", "c"), ("B", "t")]


def test_remote_cu_spectators_and_final_state():
    """Only the control and target are core; an untouched |1> qubit is
    inserted back at its bit."""
    compiled = prepared(["remote_cu control=A.c target=B.t path=A,B gate=X"])
    layout = compiled.layout
    assert spectator_qubits(layout, compiled.schedule, compiled.oracle_gates) == [
        ("A", "s"), ("B", "u")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp, "net.json")
        net.write_text(NET)
        report, core, factors, _ = execute(parse_script(
            f"network {net}\ninit A.c=+\ninit B.u=1\n"
            "remote_cu control=A.c target=B.t path=A,B gate=X\n"
        ))
    assert report["passed"] is True
    assert list(factors) == [layout.data_bit("B", "u")]
    final = insert_qubits(core, factors)
    u_bit = 1 << (layout.total_bits - 1 - layout.data_bit("B", "u"))
    assert np.all(final.indices & u_bit)
    assert len(final.indices) == 2


def test_insert_qubits_checks_and_expands():
    layout = RegisterLayout(1, 1, 0, (("A", "p"), ("A", "q"), ("A", "r")))
    state = StateVector(layout, np.array([0b000, 0b010]), np.array([0.6, 0.8j]))
    out = insert_qubits(state, {0: (0.0, 1.0), 2: (0.6, -0.8j)})
    assert out.indices.tolist() == [0b100, 0b101, 0b110, 0b111]
    assert np.allclose(out.amplitudes, [0.36, -0.48j, 0.48j, 0.64])
    assert insert_qubits(state, {}) is state
    with pytest.raises(StateError):
        insert_qubits(state, {1: (1.0, 0.0)})  # the state sets bit 1
