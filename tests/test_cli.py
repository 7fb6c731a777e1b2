import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwcp
from qwcp import cli
from qwcp.cli import Script, ScriptError, execute, main, parse_script, render_report
from qwcp.statevec import DUMP_CHUNK, insert_qubits

from conftest import (
    binary_tree_json, btree7_json, grid3_json, line_json, network_json, triangle_json,
)
from instruments import dump_reference, to_dense


@pytest.fixture
def path3_file(tmp_path):
    f = tmp_path / "net.json"
    f.write_text(line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]}))
    return f


def write_script(tmp_path, text, name="script.qws"):
    f = tmp_path / name
    f.write_text(text)
    return f


# -- parsing --------------------------------------------------------------


def test_parse_basic_script(path3_file):
    script = parse_script(
        f"""
        # a remote gate
        network {path3_file}
        walkers 1
        init A.a=+
        remote_cu control=A.a target=B.b path=A,u,B gate=X separation=reverse
        """
    )
    assert script.walkers == 1
    assert script.inits == (("A", "a", "+"),)
    assert script.commands[0][0] == "remote_cu"


def test_parse_round_trips(path3_file):
    text = (
        f"network {path3_file}\n"
        "walkers 2\n"
        "init A.a=1\n"
        "place 0 u 1\n"
        "step coinperm node=u c1=1 c2=2 walker=0\n"
        "step shift flipflop\n"
    )
    assert parse_script(text) == Script(
        network=str(path3_file),
        walkers=2,
        inits=(("A", "a", "1"),),
        places=((0, "u", 1),),
        commands=(
            ("step", ("coinperm", ("node", "u"), ("c1", "1"), ("c2", "2"), ("walker", "0")), 5),
            ("step", ("shift", "flipflop"), 6),
        ),
    )


@pytest.mark.parametrize(
    "line",
    [
        "frobnicate x=1",
        "walkers zero",
        "walkers 0",
        "init A.a=2",
        "init Aa",
        "remote_cu control=A.a target=B.b path=A,u,B gate=",
        "place x A",
        "walkers \u00b2",
        "network a.json b.json",
        "init A.a=+ B.b=0",
        "place 0",
    ],
)
def test_parse_rejects_bad_lines(line):
    with pytest.raises(ScriptError):
        parse_script(line)


def test_parse_reports_line_numbers():
    with pytest.raises(ScriptError) as err:
        parse_script("network a.json\n\nbogus command\n")
    assert err.value.line == 3


def test_parse_rejects_mixed_commands(path3_file):
    with pytest.raises(ScriptError):
        parse_script(
            "remote_cu control=A.a target=B.b path=A,u,B gate=X\n"
            "step shift identity\n"
        )
    with pytest.raises(ScriptError):
        parse_script(
            "linklevel\n"
            "remote_cu control=A.a target=B.b path=A,u,B gate=X\n"
        )


def test_parse_custom_gate_matrix():
    mat = cli._parse_gate("U[0.6,0,0.8,0;0.8,0,-0.6,0]", 1)
    assert np.allclose(mat, [[0.6, 0.8], [0.8, -0.6]])
    with pytest.raises(ScriptError):
        cli._parse_gate("U[1,0;0]", 1)
    with pytest.raises(ScriptError):
        cli._parse_gate("Q", 1)


# -- execution ------------------------------------------------------------


def cnot_script(path3_file, extra="separation=reverse"):
    return (
        f"network {path3_file}\n"
        "init A.a=+\n"
        f"remote_cu control=A.a target=B.b path=A,u,B gate=X {extra}\n"
    )


def test_execute_remote_cnot(path3_file):
    script = parse_script(cnot_script(path3_file))
    report, *_ = execute(script)
    assert report["schema"] == 2
    assert report["passed"] is True
    assert report["fidelity_vs_oracle"] >= 1 - 1e-9
    assert report["walker_purity"] >= 1 - 1e-9
    assert report["steps"] == 7  # 3 forward + 4 reverse
    assert report["supports"]["timesteps"][1]["0"] == ["A", "B"]


def test_execute_measure_mode_branches(path3_file):
    script = parse_script(cnot_script(path3_file, "separation=measure"))
    report, *_ = execute(script, mode="branch")
    assert len(report["measurement"]["probabilities"]) >= 2
    assert report["passed"] is True
    # the Z acts on the control qubit at the path start
    assert report["measurement"]["correction"]["qubit"] == "A.a"


def test_execute_rejects_unknown_mode(path3_file):
    script = parse_script(cnot_script(path3_file, "separation=measure"))
    with pytest.raises(ScriptError, match="unknown mode 'smaple'"):
        execute(script, mode="smaple")


def test_step_measure_separates_the_named_walker(path3_file):
    # walker 1 carries A.a to B and flips B.b there; walker 0 stays at A.
    # Measuring walker 1 leaves the data in the Bell state CNOT|+>|0>.
    from qwcp import (
        GATE_LIBRARY, OracleGate, compare, data_layout, init_state, load_network, oracle_apply,
    )
    from qwcp.statevec import SQRT1_2

    script = parse_script(
        f"network {path3_file}\n"
        "walkers 2\n"
        "init A.a=+\n"
        "place 1 A 0\n"
        "step datactrl node=A controls=a string=1 swap=0,1 walker=1\n"
        "step shift flipflop walkers=1\n"
        "step coinperm node=u c1=1 c2=2 walker=1\n"
        "step shift flipflop walkers=1\n"
        "step coinperm node=B c1=1 c2=0 walker=1\n"
        "step coindata node=B qubits=b gate=X walker=1\n"
        "step measure a=A b=B qubit=a walker=1\n"
    )
    report, _, _, trace = execute(script)
    assert report["schedule"]["measure"]["walker"] == 1
    walker1_bits = [4, 5, 6, 7]  # 4-bit walker registers on the 3-node path
    assert report["measurement"]["qubits"] == walker1_bits
    assert len(report["measurement"]["probabilities"]) == 2
    assert report["measurement"]["correction"]["qubit"] == "A.a"
    graph = load_network(path3_file.read_text())
    bell = oracle_apply(
        init_state(graph, data_layout(graph), [], {("A", "a"): (SQRT1_2, SQRT1_2)}),
        [OracleGate(((("A", "a"), 1),), (("B", "b"),), GATE_LIBRARY["X"])],
    )
    assert all(compare(branch, bell).passed for _, branch in trace.branches)


def outcome_bits(record):
    return "".join(map(str, record.outcome))


def test_measurement_block_projects_the_branch_records(path3_file):
    """In branch mode the block's outcome keys, in order, are the records'
    outcomes, and its probabilities the records' floats; the rendered
    report keeps that order. Sample mode holds exactly the drawn outcome,
    with the float branch mode gives it."""
    script = parse_script(cnot_script(path3_file, "separation=measure"))
    report, _, _, trace = execute(script)
    block, records = report["measurement"], trace.branches.records
    assert len(records) >= 2
    assert list(block["probabilities"]) == [outcome_bits(r) for r in records]
    assert [float.hex(p) for p in block["probabilities"].values()] == [
        float.hex(r.probability) for r in records]
    assert all((block["qubits"], block["bases"]) == (list(r.qubits), r.bases) for r in records)
    rendered = json.loads(render_report(report))["measurement"]
    assert list(rendered["probabilities"]) == list(block["probabilities"])
    drawn = set()
    for seed in range(8):
        sampled, _, _, one = execute(script, seed=seed, mode="sample")
        (record,) = one.branches.records
        bits = outcome_bits(record)
        assert sampled["measurement"]["probabilities"] == {bits: record.probability}
        assert float.hex(record.probability) == float.hex(block["probabilities"][bits])
        assert {k: v for k, v in sampled["measurement"].items() if k != "probabilities"} == {
            k: v for k, v in block.items() if k != "probabilities"}
        drawn.add(bits)
    assert len(drawn) >= 2


def test_trace_prints_each_outcome_and_the_correction_once(path3_file, tmp_path, capsys):
    script = write_script(tmp_path, cnot_script(path3_file, "separation=measure"))
    out = tmp_path / "report.json"
    assert main(["run", str(script), "--out", str(out), "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    block = json.loads(out.read_text())["measurement"]
    assert [line for line in lines if line.startswith("outcome ")] == [
        f"outcome {bits}: p={p!r}" for bits, p in block["probabilities"].items()]
    positions = block["correction"]["parity_positions"]
    assert [line for line in lines if line.startswith("correction")] == [
        f"correction: Z on A.a where the outcome bits at {positions} have odd parity"]


def test_execute_unknown_qubit_is_script_error(path3_file):
    script = parse_script(
        f"network {path3_file}\ninit A.zz=1\nlinklevel\n"
    )
    with pytest.raises(ScriptError):
        execute(script)


def test_execute_step_script(path3_file):
    script = parse_script(
        f"network {path3_file}\n"
        "walkers 1\n"
        "place 0 A 1\n"
        "step shift flipflop\n"
    )
    report, *_ = execute(script)
    assert report["protocol"] == "steps"
    assert report["fidelity_vs_oracle"] is None
    assert report["supports"]["timesteps"][0]["0"] == ["u"]


def test_execute_step_script_gate_sequence(path3_file):
    # walk A->u->B, then flip B's qubit conditioned on arrival
    script = parse_script(
        f"network {path3_file}\n"
        "walkers 1\n"
        "place 0 A 1\n"
        "step shift flipflop\n"
        "step coinperm node=u c1=1 c2=2 walker=0\n"
        "step shift flipflop\n"
        "step coindata node=B qubits=b gate=X walker=0\n"
    )
    report, final, _, _ = execute(script)  # A.a is a spectator in |0>: no factor
    assert report["supports"]["timesteps"][-1]["0"] == ["B"]
    idx = int(np.flatnonzero(np.abs(to_dense(final)) > 0.5)[0])
    assert idx & 1 == 1  # B.b is the lowest bit and got flipped


GHZ_NET = line_json(["A", "B", "C", "D"], {v: ["g"] for v in "ABCD"})


# one request of each protocol, with the walkers it sizes for itself
PROTOCOL_REQUESTS = [
    (triangle_json(), "linklevel", 3),  # one per edge
    (line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]}),
     "remote_cu control=A.a target=B.b path=A,u,B gate=X", 1),
    (line_json(["A0", "A1", "B"], {"A0": ["a"], "A1": ["b"], "B": ["c"]}),
     "remote_mcu controls=A0.a,A1.b target=B.c path=A0,A1,B gate=X", 1),
    (grid3_json(),
     "multipath control=n00.a path=n00,n01,n02 target=n02.b gate=X "
     "path=n00,n10,n20 target=n20.c gate=Z", 2),  # one per path
    (btree7_json(),
     "tree control=A.a edges=A>b0,A>b1,b0>c00,b0>c01,b1>c10 target=c10.t gate=X",
     3),  # one per leaf
    (GHZ_NET, "ghz_path path=A,B qubits=A.g,B.g path=D qubits=D.g", 2),
]


@pytest.mark.parametrize("network, command, walkers", PROTOCOL_REQUESTS,
                         ids=[command.split()[0] for _, command, _ in PROTOCOL_REQUESTS])
def test_walkers_needed_defaults(tmp_path, capsys, network, command, walkers):
    net = tmp_path / "net.json"
    net.write_text(network)
    report, *_ = execute(parse_script(f"network {net}\n{command}\n"))
    assert report["protocol"] == command.split()[0]
    assert report["passed"] is True
    assert len(report["supports"]["initial"]) == walkers
    # a protocol command sizes its own walkers, so a walker count is refused
    script = write_script(tmp_path, f"network {net}\nwalkers {walkers}\n{command}\n")
    assert main(["run", str(script)]) == 2
    assert "walkers is only valid in step scripts" in capsys.readouterr().err


def test_network_override(path3_file, tmp_path):
    script = parse_script("linklevel\n")
    report, *_ = execute(script, network_override=str(path3_file))
    assert report["protocol"] == "linklevel"
    with pytest.raises(ScriptError):
        execute(script)  # no network given anywhere


# -- main / exit codes ----------------------------------------------------


def test_main_success_writes_report(path3_file, tmp_path, capsys):
    script = write_script(tmp_path, cnot_script(path3_file))
    out = tmp_path / "report.json"
    dump = tmp_path / "state.txt"
    code = main(
        ["run", str(script), "--seed", "1", "--out", str(out), "--dump-state", str(dump), "--trace"]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert dump.read_text().strip()
    assert "t=1:" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--out", "--dump-state"])
def test_main_unwritable_output_exit_2(path3_file, tmp_path, capsys, flag):
    # every output is opened before any is written, so no report is left
    script = write_script(tmp_path, cnot_script(path3_file))
    argv = ["run", str(script), flag, str(tmp_path / "missing" / "f.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: cannot write" in captured.err
    assert captured.out == ""
    if flag == "--dump-state":
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists() or out.read_text() == ""


@pytest.mark.parametrize("alias", ["dot_dot", "hard_link"])
def test_main_one_file_for_both_outputs_exit_2(path3_file, tmp_path, capsys, alias):
    # the two names are one file, which neither output may write
    script = write_script(tmp_path, cnot_script(path3_file))
    out = tmp_path / "f.txt"
    if alias == "dot_dot":
        (tmp_path / "sub").mkdir()
        dump = f"{tmp_path}/sub/../f.txt"
    else:
        out.touch()
        dump = tmp_path / "g.txt"
        os.link(out, dump)
    argv = ["run", str(script), "--out", str(out), "--dump-state", str(dump)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --out and --dump-state name the same file\n"
    assert captured.out == "" and (not out.exists() or out.read_text() == "")


@pytest.mark.parametrize("which", ["script", "network file"])
def test_main_undecodable_file_exit_2(tmp_path, capsys, which):
    net = write_script(tmp_path, PATH3_NET, name="net.json")
    script = write_script(tmp_path, f"network {net}\n{CNOT_LINE}")
    (script if which == "script" else net).write_bytes(b"\xff\xfe not utf-8\n")
    assert main(["run", str(script)]) == 2
    assert f"error: cannot read {which}: " in capsys.readouterr().err


def python_process(args, **env) -> subprocess.CompletedProcess:
    """`python args` in a fresh interpreter that imports this qwcp, with
    `env` added to its environment."""
    env = {**os.environ, "PYTHONPATH": str(Path(qwcp.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


# a path whose end node's label is not ASCII, and its remote CNOT
E_ACUTE_NET = line_json(["A", "u", "C\u00e9"], {"A": ["a"], "C\u00e9": ["b"]})
E_ACUTE_SCRIPT = "init A.a=+\nremote_cu control=A.a target=C\u00e9.b path=A,u,C\u00e9 gate=X\n"


def test_main_reads_utf8_in_an_ascii_locale(tmp_path):
    """Both input files are decoded as UTF-8 whatever the locale: in the C
    locale without UTF-8 mode, a script and a network file naming `Cé`
    run as they do in UTF-8 mode, to the same report bytes."""
    ascii_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    probe = python_process(
        ["-c", "import locale; print(locale.getpreferredencoding(False))"], **ascii_locale
    )
    if codecs.lookup(probe.stdout.decode().strip()).name != "ascii":
        pytest.skip("the C locale's encoding is not ASCII on this platform")
    net, script = tmp_path / "net.json", tmp_path / "script.qws"
    net.write_bytes(json.dumps(json.loads(E_ACUTE_NET), ensure_ascii=False).encode())
    script.write_bytes(f"network {net}\n{E_ACUTE_SCRIPT}".encode())
    reports = []
    for name, env in (("ascii.json", ascii_locale), ("utf8.json", {"PYTHONUTF8": "1"})):
        done = python_process(["-m", "qwcp.cli", "run", str(script), "--out",
                               str(tmp_path / name)], **env)
        assert (done.returncode, done.stderr) == (0, b"")
        reports.append((tmp_path / name).read_bytes())
    assert reports[0] == reports[1]
    assert b'"C\\u00e9"' in reports[0]


def test_main_unencodable_trace_exit_2(tmp_path):
    """A `--trace` that stdout's encoding cannot hold exits 2 as any other
    output failure does, with no traceback; the report is already written."""
    net = write_script(tmp_path, E_ACUTE_NET, name="net.json")
    script = write_script(tmp_path, f"network {net}\n{E_ACUTE_SCRIPT}")
    out = tmp_path / "r.json"
    done = python_process(["-m", "qwcp.cli", "run", str(script), "--out", str(out), "--trace"],
                          PYTHONIOENCODING="ascii")
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: cannot write output: 'ascii' codec can't encode")
    assert b"Traceback" not in done.stderr and done.stderr.count(b"\n") == 1
    assert json.loads(out.read_bytes())["passed"] is True


def test_main_dump_matches_reference(tmp_path):
    # a 3x3 remote CNOT with measure separation and ten spectators in |+>,
    # as the benchmark's 4x4 run: every core entry times 2^10 spectator
    # patterns, several dump chunks; the target in |-> gives amplitudes of
    # both signs, so line tails of two widths
    spectators = {"n01": ["s0", "s1", "s2"], "n11": ["s3", "s4", "s5"],
                  "n20": ["s6", "s7", "s8", "s9"]}
    net = write_script(
        tmp_path,
        network_json(
            [f"n{r}{c}" for r in range(3) for c in range(3)],
            [(f"n{r}{c}", f"n{r}{c + 1}") for r in range(3) for c in range(2)]
            + [(f"n{r}{c}", f"n{r + 1}{c}") for r in range(2) for c in range(3)],
            {"n00": ["a"], "n22": ["b"], **spectators},
        ),
        name="net.json",
    )
    inits = "".join(f"init {v}.{q}=+\n" for v, qs in spectators.items() for q in qs)
    text = (
        f"network {net}\ninit n00.a=+\ninit n22.b=-\n{inits}"
        "remote_cu control=n00.a target=n22.b path=n00,n01,n02,n12,n22 gate=X "
        "separation=measure\n"
    )
    script, dump = write_script(tmp_path, text), tmp_path / "state.txt"
    assert main(["run", str(script), "--out", str(tmp_path / "r.json"),
                 "--dump-state", str(dump)]) == 0
    _, core, factors, _ = execute(parse_script(text))
    final = insert_qubits(core, factors)
    assert len(final.indices) > DUMP_CHUNK
    assert dump.read_bytes() == dump_reference(final)


def test_main_parse_error_exit_2(tmp_path, capsys):
    script = write_script(tmp_path, "nonsense\n")
    assert main(["run", str(script)]) == 2
    assert "error" in capsys.readouterr().err


def test_main_missing_script_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.qws")]) == 2


PATH3_NET = line_json(["A", "u", "B"], {"A": ["a"], "B": ["b"]})
CNOT_LINE = "remote_cu control=A.a target=B.b path=A,u,B gate=X\n"
# the path A,u,B plus a branch A,w
FORK_NET = network_json(
    ["A", "u", "B", "w"], [("A", "u"), ("u", "B"), ("A", "w")],
    {"A": ["a", "c"], "B": ["b"], "w": ["x"]},
)


# one line per case: network, commands, a part of the error message, id
BAD_INPUTS = [
    ("{broken", "linklevel\n", "not valid JSON", "broken_json"),
    ('{"nodes": ["A", "B"], "data_qubits": [1]}', "linklevel\n",
     '"data_qubits" must map', "data_qubits_not_object"),
    ('{"nodes": ["A", "B"], "edges": 5}', "linklevel\n",
     '"edges" must be a list', "edges_not_list"),
    ('{"nodes": ["A", "B"], "edges": [[["A"], "B"]]}', "linklevel\n",
     "edge endpoints must be node labels", "edge_endpoint_not_label"),
    (PATH3_NET, "step coinperm node=A c1=x c2=1 walker=0\n",
     "expected integer, got 'x'", "step_int_not_integer"),
    (PATH3_NET, CNOT_LINE.replace("gate=X", "gate=U[a,b]"),
     "gate entries must be numbers", "gate_entry_not_number"),
    (PATH3_NET, CNOT_LINE.replace("gate=X", "gate=U[1,0;0,0,1,0]"),
     "custom gate must be square", "gate_columns_ragged"),
    (PATH3_NET, "walkers 1\nplace 5 A\nstep coinperm node=u c1=1 c2=2 walker=0\n",
     "place names walker 5", "place_walker_out_of_range"),
    (PATH3_NET, "step datactrl node=A controls=a string=1 swap=1 walker=0\n",
     "expected two integers", "step_swap_not_a_pair"),
    (triangle_json(), "linklevel couple=A,p:B,p couple=B,q:A,q\n",
     "edge A,B is coupled twice", "linklevel_edge_coupled_twice"),
    # the gate is parsed before the script's walker count is refused
    (PATH3_NET, "walkers 26\n" + CNOT_LINE.replace("gate=X", "gate=Q"),
     "unknown gate 'Q'", "unknown_gate_with_oversized_layout"),
    (line_json(["A", "B"], {"A": ["a"], "B": ["b"]}),
     "init A.a=+\nstep measure a=A b=B qubit=a\n"
     "step coinperm node=A c1=0 c2=1 walker=0\nstep shift flipflop\n",
     "measure must be the last step", "step_after_measure"),
    (FORK_NET,
     "multipath control=A.a control=A.c path=A,u,B target=B.b gate=X "
     "path=A,w target=w.x gate=X\n",
     "duplicate argument 'control'", "multipath_control_twice"),
    (FORK_NET, "tree control=A.a edges=A>u,u>B edges=A>w target=w.x gate=X\n",
     "duplicate argument 'edges'", "tree_edges_twice"),
    (FORK_NET, "tree control=A.a edges=A>u,u>B,A>w\n",
     "tree needs at least one target=", "tree_without_target"),
    # too deep a nesting for json.loads, more digits than int() converts
    ("[" * 200_000 + "]" * 200_000, "linklevel\n", "not valid JSON",
     "network_nested_too_deep"),
    ('{"nodes": ["A", "B"], "edges": [], "n": ' + "1" * 5000 + "}", "linklevel\n",
     "not valid JSON", "network_integer_too_long"),
    (PATH3_NET, f"walkers {'1' * 5000}\nstep shift identity\n",
     "expected integer", "walkers_too_many_digits"),
    (PATH3_NET, f"walkers 1\nplace {'1' * 5000} A\nstep shift identity\n",
     "expected integer", "place_too_many_digits"),
    # a repeated header line is refused, not an override of the first
    (PATH3_NET, "init A.a=0\ninit A.a=1\n" + CNOT_LINE, "second init", "init_twice"),
    (PATH3_NET, "walkers 2\nplace 0 A 0\nplace 0 B 0\nstep shift identity\n",
     "second place", "place_twice"),
    (PATH3_NET, "network net.json\n" + CNOT_LINE, "second network line", "network_twice"),
    (PATH3_NET, "walkers 1\nwalkers 2\nstep shift identity\n",
     "second walkers line", "walkers_twice"),
    # command arguments
    (PATH3_NET, CNOT_LINE.replace("gate=X", "string=10 gate=X"),
     "string= must be a bit per control qubit", "control_string_too_long"),
    (FORK_NET, "multipath control=A.a\n", "multipath needs at least one path=",
     "multipath_without_path"),
    (PATH3_NET, "ghz_path\n", "ghz_path needs at least one path=", "ghz_path_without_path"),
    (FORK_NET, "tree control=A.a edges=A-u target=u.b gate=X\n",
     "tree edge must be parent>child", "tree_edge_without_arrow"),
    (PATH3_NET, "tree control=A.a edges=A>u,B>u target=B.b gate=X\n",
     "node 'u' has two predecessors in tree", "tree_node_two_parents"),
    (triangle_json(), "linklevel couple=A,p\n", "couple= must be U,qu:V,qv",
     "linklevel_couple_without_colon"),
    (triangle_json(), "linklevel couple=A:B,p\n", "couple= must be U,qu:V,qv",
     "linklevel_couple_side_without_comma"),
    # step commands
    (PATH3_NET, "step\n", "step needs an operator name", "step_without_operator"),
    (PATH3_NET, "step node=A coinperm\n", "step operator name must come first",
     "step_operator_not_first"),
    (PATH3_NET, "step shift sideways\n", "step shift needs flipflop or identity",
     "step_shift_unknown_mode"),
    (PATH3_NET, "step frobnicate\n", "unknown step operator 'frobnicate'",
     "step_unknown_operator"),
    (PATH3_NET, "step coinperm node=A c1=0 c2=1 walker=0 extra\n",
     "unexpected bare word 'extra'", "step_bare_word"),
    (PATH3_NET, "step coinperm node=A c1=0 c2=1 walker=0 colour=red\n",
     "unknown argument 'colour'", "step_unknown_argument"),
    (PATH3_NET, "init A.a=+\n", "script contains no commands", "no_commands"),
    # network file
    ('{"nodes": ["A", 1]}', "linklevel\n", "node labels must be nonempty strings",
     "node_label_not_string"),
    ('{"nodes": ["A", "B"], "edges": [["A", "B", "A"]]}', "linklevel\n",
     "edge entries must be [u, v] pairs", "edge_entry_not_pair"),
    ('{"nodes": ["A", "B"], "edges": [["A", "B"], ["A", "B"], ["B", "A"]]}', "linklevel\n",
     "duplicate edge ('A', 'B')", "edge_twice"),
    ('{"nodes": ["A", "B"], "edges": [["A", "B"], ["B", "A"]], "data_qubits": {"A": [""]}}',
     "linklevel\n", "bad qubit name '' at node 'A'", "qubit_name_empty"),
]


@pytest.mark.parametrize(
    "network, commands, message", [case[:3] for case in BAD_INPUTS],
    ids=[case[3] for case in BAD_INPUTS],
)
def test_main_bad_input_exit_2(tmp_path, capsys, monkeypatch, network, commands, message):
    # run from tmp_path, so that a relative `network net.json` names this network
    monkeypatch.chdir(tmp_path)
    net = write_script(tmp_path, network, name="net.json")
    script = write_script(tmp_path, f"network {net}\n{commands}")
    assert main(["run", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    # an overlong token is echoed cut short, not in full
    assert len(err) < 200 and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text, message",
    [
        ("init A.a=0\ninit A.a=1\n", "line 2: second init of 'A.a'"),
        ("walkers 2\nplace 0 A\n# B\nplace 0 B 1\n", "line 4: second place of walker '0'"),
        ("network a.json\nnetwork b.json\n", "line 2: second network line"),
        ("walkers 1\ninit A.a=+\nwalkers 1\n", "line 3: second walkers line"),
    ],
    ids=["init", "place", "network", "walkers"],
)
def test_parse_refuses_repeated_header_line(text, message):
    with pytest.raises(ScriptError) as info:
        parse_script(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "command, message",
    [
        ("control=A.a edges=A>u,u>B,A>w target=B.b,w.x gate=X",
         "all target qubits must sit at one node"),
        ("control=A.a edges=A>u,u>B,A>w target=w.x gate=X target=w.x gate=Z",
         "duplicate target node 'w'"),
        ("control=B.b edges=A>u,u>B,A>w target=w.x gate=X",
         "control qubits must sit at the shared start node"),
    ],
    ids=["target_group_spans_two_nodes", "target_node_twice", "control_off_root"],
)
def test_main_tree_request_exit_3(tmp_path, capsys, command, message):
    # a tree request is checked as multipath's is: gate_request, then
    # schedule_tree, both precondition errors
    net = write_script(tmp_path, FORK_NET, name="net.json")
    script = write_script(tmp_path, f"network {net}\ntree {command}\n")
    assert main(["run", str(script)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        "remote_cu control=A.a,A.a string=10 target=B.b path=A,u,B gate=X",
        "remote_mcu controls=A.a,A.a string=11 target=B.b path=A,u,B gate=X",
        "multipath control=A.a,A.a string=10 path=A,u,B target=B.b gate=X",
        "tree control=A.a,A.a string=10 edges=A>u,u>B target=B.b gate=X",
        "step datactrl node=A controls=a,a string=10 swap=0,1 walker=0",
    ],
    ids=["remote_cu", "remote_mcu", "multipath", "tree", "step_datactrl"],
)
def test_main_control_listed_twice_exit_3(tmp_path, capsys, command):
    # two bits of one control qubit: a pattern that can never hold, or says
    # one thing twice, is refused rather than run
    net = write_script(tmp_path, PATH3_NET, name="net.json")
    script = write_script(tmp_path, f"network {net}\n{command}\n")
    assert main(["run", str(script)]) == 3
    assert "listed twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        "coinperm node=Z c1=-1 c2=0 walker=0",
        "datactrl node=Z controls=a string=1 swap=-1,0 walker=0",
        "interact node=Z coin=-1 swap=-1,0 control=0 target=1",
    ],
    ids=["coinperm", "datactrl", "interact"],
)
def test_main_unknown_node_wins_over_bad_coin(tmp_path, capsys, command):
    # the node is looked up before its coins are checked, so an unknown
    # node is a parse error (2), not a bad coin (3)
    net = write_script(tmp_path, PATH3_NET, name="net.json")
    script = write_script(tmp_path, f"network {net}\nwalkers 2\nstep {command}\n")
    assert main(["run", str(script)]) == 2
    assert "unknown node 'Z'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["branch", "sample"])
def test_main_negative_seed_exit_2(path3_file, tmp_path, capsys, mode):
    script = write_script(tmp_path, cnot_script(path3_file, "separation=measure"))
    assert main(["run", str(script), "--seed", "-1", "--mode", mode]) == 2
    assert capsys.readouterr().err.startswith("error:")


def fresh_main(argv):
    """`main(argv)` in a fresh interpreter: its exit code, and whether
    numpy.random was imported by the end of the run."""
    probe = (
        "import sys; from qwcp.cli import main; "
        f"code = main({argv!r}); print(code, 'numpy.random' in sys.modules)"
    )
    done = python_process(["-c", probe])
    assert done.returncode == 0, done.stderr
    return done.stdout.decode().split()


def test_main_branch_mode_builds_no_rng(path3_file, tmp_path):
    script = write_script(tmp_path, cnot_script(path3_file, "separation=measure"))
    here, unseeded, out = (tmp_path / n for n in ("here.json", "unseeded.json", "sub.json"))
    argv = ["run", str(script), "--seed", "3", "--out"]
    assert main(argv + [str(here)]) == 0
    assert main(["run", str(script), "--out", str(unseeded)]) == 0
    # the seed shows in the report and nowhere else
    assert json.loads(here.read_text()) == {**json.loads(unseeded.read_text()), "seed": 3}
    # in a fresh interpreter the same run never imports numpy.random
    assert fresh_main(argv + [str(out)]) == ["0", "False"]
    assert out.read_bytes() == here.read_bytes()


def test_main_sample_mode_imports_no_numpy_random(path3_file, tmp_path, monkeypatch):
    """A sampled run draws from qwcp's own copy of `default_rng`'s stream:
    it reports what a run drawing from a numpy Generator seeded alike
    reports, and in a fresh interpreter it never imports numpy.random."""
    script = write_script(tmp_path, cnot_script(path3_file, "separation=measure"))
    own, numpy_rng, sub = (tmp_path / n for n in ("own.json", "numpy.json", "sub.json"))
    for seed in [*range(6), 2**32, 2**64 + 1, 10**40]:
        argv = ["run", str(script), "--mode", "sample", "--seed", str(seed), "--out"]
        assert main(argv + [str(own)]) == 0
        with monkeypatch.context() as patched:
            patched.setattr(cli, "Pcg64", np.random.default_rng)
            assert main(argv + [str(numpy_rng)]) == 0
        assert own.read_bytes() == numpy_rng.read_bytes()
    assert fresh_main(argv + [str(sub)]) == ["0", "False"]
    assert sub.read_bytes() == own.read_bytes()


STEP_SCRIPTS = [
    # datactrl, interact, both shifts, coinblock, coinperm and coindata
    "walkers 2\ninit A.a=+\nplace 1 A 0\n"
    "step datactrl node=A controls=a string=1 swap=0,1 walker=0\n"
    "step interact node=A coin=1 swap=0,1 control=0 target=1\n"
    "step shift flipflop walkers=0,1\n"
    "step coinblock node=u coins=1,2 gate=H walker=1\n"
    "step coinperm node=u c1=1 c2=2 walker=0\n"
    "step shift flipflop\n"
    "step coindata node=B qubits=b gate=X walker=0\n"
    "step shift identity\n",
    # the measurement instrument
    "init A.a=+\n"
    "step datactrl node=A controls=a string=1 swap=0,1 walker=0\n"
    "step shift flipflop\nstep coinperm node=u c1=1 c2=2 walker=0\nstep shift flipflop\n"
    "step coinperm node=B c1=1 c2=0 walker=0\nstep coindata node=B qubits=b gate=X walker=0\n"
    "step measure a=A b=B qubit=a\n",
]


def run_every_kind(tmp_path, run=main):
    """Call `run` (`main`) on one script of each protocol and step command,
    a sampled run, and a run with a dump and a trace; each must exit 0."""
    path3 = line_json(["A", "u", "B"], {"A": ["a", "s"], "B": ["b"]})
    runs = [(network, command, []) for network, command, _ in PROTOCOL_REQUESTS]
    runs += [(path3, text, []) for text in STEP_SCRIPTS]
    # a spectator in |+> and a Y on the target: the dump has factors and
    # amplitudes with both parts nonzero
    request = ("init A.a=+\ninit A.s=+\n"
               "remote_cu control=A.a target=B.b path=A,u,B gate=Y separation=measure")
    runs += [(path3, request, ["--mode", "sample", "--seed", "3"]),
             (path3, request, ["--dump-state", str(tmp_path / "dump.txt"), "--trace"])]
    net = tmp_path / "net.json"
    for network, text, options in runs:
        net.write_text(network)
        script = write_script(tmp_path, f"network {net}\n{text}\n")
        assert run(["run", str(script), "--out", str(tmp_path / "r.json"), *options]) == 0
    assert (tmp_path / "dump.txt").read_text().count("\n") > 1


def test_runs_sort_with_the_stable_argsort_only(tmp_path, monkeypatch):
    """Every sort and grouping of a run is the stable argsort: each other
    sort kernel numpy loads, and `np.unique`'s, adds to peak RSS."""
    stable_argsort, kinds = np.argsort, []

    def argsort(a, *args, kind=None, **kwargs):
        kinds.append(kind)
        return stable_argsort(a, *args, kind=kind, **kwargs)

    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "argsort", argsort)
    monkeypatch.setattr(np, "unique", unique)
    run_every_kind(tmp_path)
    assert kinds and set(kinds) == {"stable"}


def test_main_interns_nothing(tmp_path, monkeypatch):
    """`main` reads its inputs without pathlib, which interns every path
    component: each such string that dies leaves a dead slot in CPython's
    interned-string table, and each rebuild of that table raises a
    long-lived caller's peak RSS by about 0.9 MB."""
    interned = []

    def counting(text):
        interned.append(text)
        return text

    def counted_main(argv):
        with monkeypatch.context() as patched:
            patched.setattr(sys, "intern", counting)
            return main(argv)

    run_every_kind(tmp_path, counted_main)
    assert interned == []


def test_import_cli_imports_no_dataclasses():
    """qwcp's records are NamedTuples or __slots__ classes, so importing
    the CLI in a fresh interpreter generates no dataclass code."""
    probe = "import sys, qwcp.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(qwcp.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["False"]


def test_records_stay_read_only(path3_file):
    """Each record type that was a frozen dataclass refuses to set or
    delete a field."""
    from qwcp.netgraph import PathSpec, TreeSpec
    from qwcp.oracle import CompareReport
    from qwcp.protocols import _Visit
    from qwcp.statevec import BlockAction, PermAction

    script = parse_script(cnot_script(path3_file, "separation=measure"))
    graph, compiled, _ = cli._prepare(script)
    _, core, _, trace = execute(script)
    ops = [op for ts in compiled.schedule.timesteps for op in (*ts.pre_ops, ts.shift)]
    actions = [act for op in ops for act in op.iter_actions()]
    records = [
        (script, "commands"), (graph, "ports"), (PathSpec.in_graph(graph, "AuB"), "nodes"),
        (TreeSpec.in_graph(graph, "A", ["Au"]), "parents"), (compiled.oracle_gates[0], "matrix"),
        (CompareReport(np.ones(1), np.ones(1)), "purities"), (_Visit("A"), "parent"),
        (compiled.layout, "nv"), (core, "amplitudes"), (trace.branches.records[0], "outcome"),
        (trace.branches, "starts"), (next(a for a in actions if isinstance(a, PermAction)), "perm"),
        (next(a for a in actions if isinstance(a, BlockAction)), "matrix"),
        (compiled.schedule.measure, "params"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_compiles_and_runs_share_no_mutable_default(path3_file):
    """Two step-script compiles get two `meta` dicts, and two measuring
    runs two `measurement` blocks, none of whose parts they share."""
    steps = parse_script(f"network {path3_file}\nwalkers 1\nstep shift flipflop\n")
    first, second = (cli._prepare(steps)[1] for _ in range(2))
    assert first.meta == second.meta == {} and first.meta is not second.meta
    assert execute(steps)[0]["measurement"] is None
    measuring = parse_script(cnot_script(path3_file, "separation=measure"))
    one, two = (execute(measuring)[0]["measurement"] for _ in range(2))
    assert type(one) is dict and one == two and one is not two
    for key in ("qubits", "probabilities", "correction"):
        assert one[key] is not two[key]
    assert one["correction"]["parity_positions"] is not two["correction"]["parity_positions"]


def test_main_memory_error_names_innermost_qwcp_frame(path3_file, tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "compare", exhausted)
    script = write_script(tmp_path, cnot_script(path3_file))
    assert main(["run", str(script)]) == 3
    assert capsys.readouterr() == ("", "error: out of memory in cli.execute\n")


def test_main_out_of_memory_exit_3(tmp_path):
    """A run that exhausts its address space exits 3, naming the qwcp
    function whose allocation failed, with no traceback. 24 controls in
    |+> hold 2^24 entries per state, 384 MiB at 24 B an entry (amplitude
    and index), more than the child's address space, capped at 300 MB."""
    resource = pytest.importorskip("resource")
    controls = [f"c{i}" for i in range(24)]
    net = tmp_path / "net.json"
    net.write_text(line_json(["A", "u", "B"], {"A": controls, "B": ["b"]}))
    script = write_script(tmp_path, "".join(
        [f"network {net}\n", *(f"init A.{c}=+\n" for c in controls),
         f"remote_cu control={','.join(f'A.{c}' for c in controls)} target=B.b "
         "path=A,u,B gate=X\n"]))
    cap = 300 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {**os.environ, "PYTHONPATH": str(Path(qwcp.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from qwcp.cli import main; sys.exit(main())",
         "run", str(script)],
        env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    module, _, function = done.stderr.removeprefix("error: out of memory in ").partition(".")
    assert module in {"statevec", "oracle", "protocols", "walkops", "cli"}, done.stderr
    assert function.rstrip("\n").isidentifier() and done.stderr.count("\n") == 1


def test_main_calls_share_no_state(path3_file, tmp_path, capsys):
    script = write_script(tmp_path, cnot_script(path3_file))
    out = tmp_path / "report.json"
    assert main(["run", str(script), "--out", str(out), "--trace"]) == 0
    first = capsys.readouterr().out
    assert first.startswith("protocol: ") and "t=1:" in first
    out.unlink()
    assert main(["run", str(script)]) == 0
    second = capsys.readouterr().out
    assert not out.exists()
    assert "t=1:" not in second
    assert json.loads(second)["passed"] is True


def test_main_precondition_error_exit_3(tmp_path, capsys):
    # the depth-4 tree needs one walker per leaf: 16 walkers of 7 bits
    # (31 nodes, up to 4 ports) and 17 data qubits blow the 62-bit cap
    network, edges, leaves = binary_tree_json(4)
    net = write_script(tmp_path, network, name="net.json")
    targets = " ".join(f"target={leaf}.t gate=X" for leaf in leaves)
    script = write_script(
        tmp_path,
        f"network {net}\ntree control=A.a "
        f"edges={','.join(f'{u}>{v}' for u, v in edges)} {targets}\n",
    )
    assert main(["run", str(script)]) == 3
    assert "layout needs 129 bits" in capsys.readouterr().err


@pytest.mark.parametrize("request_line", [
    "remote_cu control=A.q0 target=B.b path=A,B gate=X",
    "remote_cu control=" + ",".join(f"A.q{i}" for i in range(30)) + " string="
    + "0" * 30 + " target=B.b path=A,B gate=X",
], ids=["spectators", "controls"])
def test_main_entry_cap_exit_3(tmp_path, capsys, request_line):
    # 53 bits is within the width cap, but 50 qubits in |+> would make 2^30
    # state entries for the controls alone: refused before it is built. As
    # spectators, 49 of them stay out of the run, which exits 0; their dump
    # would have 2^49 lines per core entry, and is refused before its file
    # is opened
    from qwcp.statevec import MAX_ENTRIES

    names = [f"q{i}" for i in range(50)]
    net = write_script(tmp_path, line_json(["A", "B"], {"A": names, "B": ["b"]}),
                       name="net.json")
    inits = "".join(f"init A.{q}=+\n" for q in names)
    script = write_script(tmp_path, f"network {net}\n{inits}{request_line}\n")
    spectators = "string=" not in request_line
    assert main(["run", str(script), "--out", str(tmp_path / "r.json")]) == (
        0 if spectators else 3
    )
    dump = tmp_path / "state.txt"
    assert main(["run", str(script), "--dump-state", str(dump)]) == 3
    err = capsys.readouterr().err
    assert f"cap is {MAX_ENTRIES}" in err
    if spectators:  # CNOT|+>|0> leaves 2 core entries
        assert f"state dump would have {2 << 49} lines" in err
    assert not dump.exists()


def test_main_ghz_forty_members_at_one_node(tmp_path):
    # the start node prepares its members with one H and 39 CNOTs, so the
    # core state holds 2 entries however many members there are
    names = [f"q{i}" for i in range(40)]
    net = write_script(tmp_path, line_json(["A", "B"], {"A": names, "B": ["b"]}),
                       name="net.json")
    members = ",".join(f"A.{q}" for q in names)
    script = write_script(tmp_path, f"network {net}\nghz_path path=A,B qubits={members},B.b\n")
    out = tmp_path / "r.json"
    assert main(["run", str(script), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_main_runs_a_57_bit_tree(tmp_path):
    # depth 3: 15 nodes (4 vertex bits), up to 4 ports (2 coin bits), one
    # walker per leaf: 8 * 6 + 9 data qubits = 57 bits, within the cap of
    # 62 that int64 indices allow
    network, edges, leaves = binary_tree_json(3)
    net = write_script(tmp_path, network, name="net.json")
    targets = " ".join(f"target={leaf}.t gate=X" for leaf in leaves)
    script = write_script(
        tmp_path,
        f"network {net}\ninit A.a=+\ntree control=A.a "
        f"edges={','.join(f'{u}>{v}' for u, v in edges)} {targets}\n",
    )
    out, dump = tmp_path / "r.json", tmp_path / "state.txt"
    assert main(["run", str(script), "--out", str(out), "--dump-state", str(dump)]) == 0
    assert json.loads(out.read_text())["passed"] is True
    assert {len(line.split()[0]) for line in dump.read_text().splitlines()} == {57}


TRIANGLE_NET = network_json(["A", "B", "T"], [("A", "B"), ("B", "T"), ("A", "T")],
                            {"A": ["a"], "T": ["t"]})


@pytest.mark.parametrize("paths", [
    "path=A,B,T target=T.t gate=X path=A,T target=T.t gate=Z",
    "path=A,T target=T.t gate=Z path=A,B,T target=T.t gate=X",
], ids=["long_first", "short_first"])
def test_main_multipath_gates_apply_in_delivery_order(tmp_path, paths):
    # Z and X on the same target do not commute: the oracle must apply
    # them in the order the walkers deliver them, shorter path first
    net = write_script(tmp_path, TRIANGLE_NET, name="net.json")
    script = write_script(
        tmp_path, f"network {net}\ninit A.a=+\nmultipath control=A.a {paths}\n"
    )
    out = tmp_path / "r.json"
    assert main(["run", str(script), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("init", ["init A.a=+\n", ""], ids=["control_plus", "control_zero"])
@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_main_non_finite_gate_exit_3(tmp_path, init, entry):
    # the unitarity error is NaN here, which compares false against any
    # tolerance; the gate must still be rejected
    net = write_script(tmp_path, PATH3_NET, name="net.json")
    gate_line = CNOT_LINE.replace("gate=X", f"gate=U[{entry},0,0,0;0,0,1,0]")
    script = write_script(tmp_path, f"network {net}\n{init}{gate_line}")
    assert main(["run", str(script)]) == 3


@pytest.mark.parametrize(
    "init, couple, code",
    [
        ("init C.a=+\n", "C,a:D,a", 3),
        ("init C.a=1\n", "C,a:D,a", 3),
        ("init D.a=-\n", "D,a:C,a", 3),  # listed first, D.a is the pair's first half
        ("init C.a=0\n", "C,a:D,a", 0),
        ("init D.a=1\n", "C,a:D,a", 0),
        ("init C.a=+\n", "D,a:C,a", 0),
    ],
    ids=["first_plus", "first_one", "first_minus_reversed", "first_zero",
         "second_one", "second_plus_reversed"],
)
def test_main_linklevel_needs_fresh_first_qubit(tmp_path, capsys, init, couple, code):
    # the walker-controlled X flips make the Bell pair from |0> on the
    # first-listed coupled qubit; the other qubit may start anywhere
    net = write_script(
        tmp_path,
        '{"nodes": ["C", "D"], "edges": [["C", "D"], ["D", "C"]],'
        ' "data_qubits": {"C": ["a"], "D": ["a"]}}',
        name="net.json",
    )
    script = write_script(tmp_path, f"network {net}\n{init}linklevel couple={couple}\n")
    assert main(["run", str(script), "--out", str(tmp_path / "r.json")]) == code
    if code == 3:
        assert f"{couple[0]}.a to start in |0>" in capsys.readouterr().err


@pytest.mark.parametrize(
    "nodes, init, couple, code",
    [
        (("R1", "N1", "R0", "N3"), "R0.a=1", "R1,a:R0,a", 0),
        (("N0", "N1", "N2", "N3"), "N2.a=1", "N2,a:N0,a", 3),
    ],
    ids=["first_above_second", "first_below_second"],
)
def test_main_linklevel_fresh_qubit_ignores_label_order(tmp_path, nodes, init, couple, code):
    # a star around nodes[0]: the coupled edge's walker starts at the
    # first-listed node, whichever label sorts first, so that node's qubit
    # is the one that must start in |0>
    net = write_script(tmp_path, network_json(
        nodes, [(nodes[0], v) for v in nodes[1:]], {v: ["a"] for v in nodes}
    ), name="net.json")
    script = write_script(tmp_path, f"network {net}\ninit {init}\nlinklevel couple={couple}\n")
    out = tmp_path / "r.json"
    assert main(["run", str(script), "--out", str(out)]) == code
    if code == 0:
        assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("init", [
    "init A.b=1\n", "init A.b=+\n", "init A.a=-\ninit A.b=1\ninit B.b=+\n",
], ids=["second_start_qubit_one", "second_start_qubit_plus", "all_set"])
def test_main_ghz_start_qubits_may_start_anywhere(tmp_path, init):
    # the walker launches on A.a alone, which the local prep leaves as H
    # made it, so every member gets the oracle's CNOT from A.a
    net = write_script(
        tmp_path, line_json(["A", "u", "B"], {"A": ["a", "b"], "B": ["b"]}), name="net.json"
    )
    script = write_script(
        tmp_path, f"network {net}\n{init}ghz_path path=A,u,B qubits=A.a,A.b,B.b\n"
    )
    out = tmp_path / "r.json"
    assert main(["run", str(script), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_main_linklevel_without_data_qubits_passes(tmp_path):
    from qwcp.oracle import PASS_TOL

    net = write_script(
        tmp_path, '{"nodes": ["A", "B"], "edges": [["A", "B"], ["B", "A"]]}',
        name="net.json",
    )
    script = write_script(tmp_path, f"network {net}\nlinklevel\n")
    out = tmp_path / "r.json"
    assert main(["run", str(script), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["fidelity_vs_oracle"] == pytest.approx(1.0, abs=PASS_TOL)


def test_main_oracle_error_exit_3(path3_file, tmp_path, monkeypatch):
    from qwcp.oracle import OracleError

    def broken_oracle(*args, **kwargs):
        raise OracleError("oracle lost norm")

    script = write_script(tmp_path, cnot_script(path3_file))
    monkeypatch.setattr(cli, "oracle_apply", broken_oracle)
    assert main(["run", str(script)]) == 3


def test_main_verification_failure_exit_4(path3_file, tmp_path, monkeypatch, capsys):
    from qwcp.oracle import CompareReport

    script = write_script(tmp_path, cnot_script(path3_file))
    monkeypatch.setattr(
        cli, "compare", lambda *a, **k: CompareReport(np.ones(1), np.zeros(1))
    )
    assert main(["run", str(script), "--out", str(tmp_path / "r.json")]) == 4
    assert "verification failed" in capsys.readouterr().err


def test_reports_are_deterministic(path3_file, tmp_path):
    script = write_script(tmp_path, cnot_script(path3_file, "separation=measure"))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(
            ["run", str(script), "--seed", "42", "--mode", "sample", "--out", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


# every character class json escapes or passes: quotes, backslashes,
# control characters, non-ASCII (astral too) and lone surrogates
JSON_CHARS = st.one_of(
    st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\x80\u2028\ud800\udfff\U0001f600')
)
TEXT = st.text(JSON_CHARS, max_size=8)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e16, 1.0]),
)
INTS = st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40))
# what a report holds: exact scalars, lists, and dicts with str keys
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)


def json_values(leaves):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(TEXT, children, max_size=4),
    ), max_leaves=16)


@settings(max_examples=400, deadline=None)
@given(json_values(SCALARS))
def test_render_report_is_json_dumps(value):
    assert render_report(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    (1, 2), {"a": [(1,)]}, {1: 0}, {"a": {None: 0}}, [{1.5: 0}], np.float64(1.0),
    {"a": np.float64(0.5)}, [np.int64(1)], {"a": _Int(1)}, [_Float(1.0)], _Str("a"),
    {"a": [_Str("b")]}, {1, 2}, [b"x"],
], ids=["tuple", "tuple item", "int key", "None key", "float key", "np.float64",
        "np.float64 item", "np.int64 item", "int subclass", "float subclass", "str subclass",
        "str subclass item", "set", "bytes"])
def test_render_report_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        render_report(value)


@pytest.mark.parametrize("value", [
    {1, 2}, np.int64(1), [1, {"a": np.int64(2)}], {"a": [frozenset()]}, {(1,): 0},
    {"a": 1, 2: 3}, {None: 1, 0: 2}, {np.int64(1): 0},
])
def test_render_report_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        render_report(value)


def test_report_includes_schedule_json(path3_file):
    script = parse_script(cnot_script(path3_file))
    report, *_ = execute(script)
    kinds = [op["kind"] for ts in report["schedule"]["timesteps"] for op in ts["ops"]]
    assert "datactrl" in kinds and "coindata" in kinds


def test_grid_protocols_through_cli(tmp_path):
    net = tmp_path / "grid.json"
    net.write_text(grid3_json())
    script = write_script(
        tmp_path,
        f"network {net}\ninit n00.a=+\n"
        "multipath control=n00.a path=n00,n01,n02 target=n02.b gate=X "
        "path=n00,n10,n20 target=n20.c gate=Z\n",
    )
    out = tmp_path / "r.json"
    assert main(["run", str(script), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True and report["protocol"] == "multipath"
