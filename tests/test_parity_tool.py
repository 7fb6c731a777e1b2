"""The compiler-record diff of `tools/parity.py`."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import parity  # noqa: E402

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
