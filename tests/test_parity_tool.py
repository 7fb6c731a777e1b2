"""The compiler-record diff of `tools/parity.py` and the recording plugin
`tools/record_schedules.py`."""
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import parity  # noqa: E402
import record_schedules  # noqa: E402

import qwcp  # noqa: E402
from qwcp import cli, protocols  # noqa: E402

from conftest import line_json  # noqa: E402

TEST = "tests/test_x.py::test_y"


def record(call, compiler="schedule_tree", **result):
    return {"test": TEST, "call": call, "compiler": compiler, **result}


def test_compare_calls_reports_only_the_inserted_record():
    old = {TEST: [record(i, meta={"n": i}) for i in range(4)]}
    # one call made before the others shifts their positions by one
    inserted = record(1, "schedule_linklevel", error="ProtocolError: walker budget")
    new = {TEST: [old[TEST][0], inserted, *(dict(r, call=r["call"] + 1) for r in old[TEST][1:])]}
    assert parity.compare_calls(old, new) == [f"{TEST} call 1: only in new"]
    assert parity.compare_calls(new, old) == [f"{TEST} call 1: only in old"]
    assert parity.compare_calls(old, new, skipped={TEST}) == []
    changed = {TEST: [old[TEST][0], record(1, meta={"n": 9}), *old[TEST][2:]]}
    assert parity.compare_calls(old, changed) == [f"{TEST} call 1: .meta.n: 1 != 9"]
    assert parity.compare_calls({}, {TEST: [record(0)]}) == [f"{TEST} call 0: only in new"]


def test_runs_line_counts_workload_runs_only(tmp_path, monkeypatch, capsys):
    for side in ("old", "new"):
        (tmp_path / side / "qwcp").mkdir(parents=True)
        (tmp_path / side / "qwcp" / "cli.py").touch()
    job = {"name": "job", "argv": ["run", "s.qw"], "mode": "branch"}
    monkeypatch.setattr(parity.workloads, "WORKLOADS", ["w"])
    monkeypatch.setattr(parity.workloads, "generate", lambda workload, seed, where: [job])
    monkeypatch.setattr(parity, "compare_fuzz", lambda *args: (5, ["fuzz case 3 differs"]))
    argv = [str(tmp_path / "old"), str(tmp_path / "new"), "--seeds", "1", "2"]

    def run_side(stdout):
        return lambda src, argv, outdir: {"exit code": 0, "stdout": stdout(src),
                                           "out": b'{"measurements": []}'}

    # a differing fuzz case fails the comparison, but no workload run differs
    monkeypatch.setattr(parity, "run_side", run_side(lambda src: b"same"))
    assert parity.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "5 fuzz cases on each side, 1 differ", "2 runs on each side, 0 differ"]
    monkeypatch.setattr(parity, "run_side", run_side(lambda src: src.name.encode()))
    assert parity.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "2 runs on each side, 2 differ"


def test_tests_line_counts_uncompared_new_calls(tmp_path, monkeypatch, capsys):
    for side in ("old", "new"):
        (tmp_path / side / "qwcp").mkdir(parents=True)
        (tmp_path / side / "qwcp" / "cli.py").touch()
    monkeypatch.setattr(parity.workloads, "WORKLOADS", [])
    monkeypatch.setattr(parity, "compare_fuzz", lambda *args: (0, []))
    fixed, unfixed = "tests/test_a.py::test_fix", "tests/test_a.py::test_same"
    gone = "tests/test_b.py::test_new_name"
    calls = {fixed: [record(0)], unfixed: [record(0), record(1)]}
    new_calls = {**calls, fixed: [record(0), record(1), record(2)], gone: [record(0)] * 2}
    sides = {
        "old": (1, ["tests/test_b.py"], {fixed}, calls),
        "new": (0, [], set(), new_calls),
    }
    monkeypatch.setattr(parity, "record_calls",
                        lambda src, tests, workdir: sides[workdir.name.split("-")[1]])
    argv = [str(tmp_path / "old"), str(tmp_path / "new"), "--tests", str(tmp_path)]
    assert parity.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    # the test fixed by the new tree and the module the old tree cannot
    # import leave 3 + 2 new calls uncompared; the other test's calls pair up
    assert out[0].endswith("3 and 7 compiler calls, 1 differences, 5 new-tree calls not compared")
    assert out[1] == (f"{fixed}: fails against old tree only; "
                      "its 3 new-tree compiler calls are not compared")
    assert out[2] == ("tests/test_b.py: failed to collect against old tree, "
                      "2 new-tree compiler calls not compared")


def test_module_new_to_the_suite_without_compiler_calls_is_a_note(tmp_path, monkeypatch,
                                                                  capsys):
    for side in ("old", "new"):
        (tmp_path / side / "qwcp").mkdir(parents=True)
        (tmp_path / side / "qwcp" / "cli.py").touch()
    monkeypatch.setattr(parity.workloads, "WORKLOADS", [])
    monkeypatch.setattr(parity, "compare_fuzz", lambda *args: (0, []))
    calls = {TEST: [record(0)]}
    sides = {"old": (1, ["tests/test_new.py"], set(), calls), "new": (0, [], set(), calls)}
    monkeypatch.setattr(parity, "record_calls",
                        lambda src, tests, workdir: sides[workdir.name.split("-")[1]])
    argv = [str(tmp_path / "old"), str(tmp_path / "new"), "--tests", str(tmp_path)]
    # the module imports a name only the new tree has, and compiles nothing
    assert parity.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("1 and 1 compiler calls, 0 differences, 0 new-tree calls not compared")
    assert out[1] == ("note: tests/test_new.py: failed to collect against old tree, "
                      "0 new-tree compiler calls not compared")
    # a module that fails against both trees still counts
    sides["new"] = (1, ["tests/test_new.py"], set(), calls)
    assert parity.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("2 differences, 0 new-tree calls not compared")
    assert not any(line.startswith("note: ") for line in out)


def test_recorder_wraps_the_step_compiler(tmp_path, monkeypatch):
    # the plugin rebinds these names; monkeypatch puts the originals back
    monkeypatch.setattr(cli, "_compile_steps", cli._compile_steps)
    for name in record_schedules.COMPILERS:
        for module in (protocols, qwcp, cli):
            monkeypatch.setattr(module, name, getattr(module, name))
    plugins: dict = {}
    out = tmp_path / "calls.jsonl"
    config = SimpleNamespace(
        getoption=lambda option: str(out),
        pluginmanager=SimpleNamespace(register=lambda p, name: plugins.setdefault(name, p),
                                      get_plugin=plugins.get),
    )
    record_schedules.pytest_configure(config)
    net = tmp_path / "net.json"
    net.write_text(line_json(["A", "B"], {"A": ["a"], "B": ["b"]}))
    scripts = [
        "init A.a=+\nstep datactrl node=A controls=a string=1 swap=0,1 walker=0\n"
        "step shift flipflop\nstep measure a=A b=B qubit=a\n",
        "step measure a=A b=A qubit=a\n",
        "remote_cu control=A.a target=B.b path=A,B gate=X\n",
    ]
    for i, text in enumerate(scripts):
        script = tmp_path / f"s{i}.qws"
        script.write_text(f"network {net}\n{text}")
        cli.main(["run", str(script), "--out", str(tmp_path / "r.json")])
    record_schedules.pytest_unconfigure(config)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["compiler"] for r in records] == [
        "_compile_steps", "_compile_steps", "schedule_remote_cu"]
    steps, refused, _ = records
    assert steps["schedule"]["measure"]["bases"] == "XZ"
    assert steps["oracle_gates"] == [] and steps["walker_inits"] == [["A", 0]]
    assert refused["error"] == "ProtocolError: measurement separation needs two distinct nodes"


DRAWS = """\
from hypothesis import given, settings, strategies as st

import literals  # hypothesis reads constants from local modules that are not tests


@settings(max_examples=200, database=None)
@given(st.integers())
def test_draw(x):
    with open("draws.txt", "a") as f:
        f.write(f"{x}\\n")
"""


def test_recorded_draws_ignore_source_literals(tmp_path):
    """Under the plugin, hypothesis draws the same examples from seed 0
    beside two source modules that hold different literals."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qwcp.__file__).parents[1]), str(Path(record_schedules.__file__).parent)]))
    draws = []
    for side, values in (("a", "()"), ("b", "(918273645, -5550123, 2**40 + 7)")):
        tests = tmp_path / side
        tests.mkdir()
        (tests / "literals.py").write_text(f"VALUES = {values}\n")
        (tests / "test_draw.py").write_text(DRAWS)
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "record_schedules",
             "-p", "no:cacheprovider", "--hypothesis-seed=0",
             "--record-schedules", str(tests / "calls.jsonl"), str(tests)],
            cwd=tests, env=env, capture_output=True, check=True, timeout=120,
        )
        draws.append((tests / "draws.txt").read_text().split())
    assert len(draws[0]) >= 100 and draws[0] == draws[1]
