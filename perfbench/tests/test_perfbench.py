"""Tests of the benchmark itself: generator, correctness gate and tracing.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from qwcp import cli

import workloads
from tracing import LAYER_SPANS, Tracer, instrument
from worker import Runner, gate_report, layer_metrics

BENCH = Path(__file__).resolve().parents[1]


def _content(workload, seed):
    return [
        (job.name, job.net.to_json(), job.lines, job.mode, job.seed, job.dump, job.trace)
        for job in workloads.build_jobs(workload, seed)
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    assert _content(workload, 5) == _content(workload, 5)
    first = workloads.generate(workload, 5, tmp_path / "a")
    again = workloads.generate(workload, 5, tmp_path / "a")
    assert first == again
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    texts = [(tmp_path / "a" / name).read_text() for name in files]
    workloads.generate(workload, 5, tmp_path / "a")
    assert texts == [(tmp_path / "a" / name).read_text() for name in files]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_sizes(workload, tmp_path):
    a = workloads.generate(workload, 1, tmp_path / "a")
    b = workloads.generate(workload, 2, tmp_path / "b")
    size = ("name", "bits", "nodes", "data_qubits", "mode", "command")
    assert [[j[k] for k in size] for j in a] == [[j[k] for k in size] for j in b]
    assert _content(workload, 1) != _content(workload, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_workload_passes_gate(workload, tmp_path):
    jobs = workloads.generate(workload, 3, tmp_path, reduced=True)
    runner = Runner(jobs)
    runner.run_pass()
    runner.run_pass()
    assert runner.problems == []
    assert (runner.attempted, runner.failed) == (2 * len(jobs), 0)


def test_full_size_sweep_has_every_command():
    commands = {job.lines[-1].split()[0] for job in workloads.build_jobs("sweep", 0)}
    assert commands == {"remote_cu", "remote_mcu", "multipath", "tree", "ghz_path",
                        "linklevel", "step"}


def test_gate_rejects_bad_reports():
    good = {"passed": True, "fidelity_vs_oracle": 1.0, "walker_purity": 1.0,
            "final_norm": 1.0}
    assert gate_report(good) == []
    assert gate_report({**good, "passed": None, "fidelity_vs_oracle": None,
                        "walker_purity": None}) == []
    assert gate_report({**good, "passed": False})
    assert gate_report({**good, "fidelity_vs_oracle": 1 - 1e-6})
    assert gate_report({**good, "walker_purity": 0.5})
    assert gate_report({**good, "final_norm": 1 + 1e-8})


def test_report_with_passed_flipped_counts_as_failure(tmp_path, monkeypatch):
    jobs = workloads.generate("tree25", 3, tmp_path, reduced=True)
    real_main = cli.main

    def flipping_main(argv):
        code = real_main(argv)
        report = Path(jobs[0]["report"])
        doc = json.loads(report.read_text())
        doc["passed"] = False
        report.write_text(cli.render_report(doc) + "\n")
        return code

    monkeypatch.setattr(cli, "main", flipping_main)
    runner = Runner(jobs)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "passed=False" in runner.problems[0]


def test_changed_output_between_runs_counts_as_failure(tmp_path, monkeypatch):
    jobs = workloads.generate("tree25", 3, tmp_path, reduced=True)
    runner = Runner(jobs)
    runner.run_pass()
    real_main = cli.main

    def noisy_main(argv):
        print("extra line")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", noisy_main)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_changed_counts_between_traced_runs_count_as_failure(tmp_path):
    jobs = workloads.generate("tree25", 3, tmp_path, reduced=True)
    runner = Runner(jobs, Tracer())
    with instrument(runner.tracer):
        runner.run_pass(traced=True)
        runner._counts[jobs[0]["name"]]["peak_nnz"] += 1
        runner.run_pass(traced=True)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_instrument_restores_bindings():
    from qwcp import protocols
    from qwcp.netgraph import PathSpec

    before = (cli.run_schedule, cli.main, protocols.apply_operator,
              PathSpec.__dict__["in_graph"])
    with instrument(Tracer()):
        assert cli.run_schedule is not before[0]
    after = (cli.run_schedule, cli.main, protocols.apply_operator,
             PathSpec.__dict__["in_graph"])
    assert after == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_fit_in_traced_wall_time(workload, tmp_path):
    jobs = workloads.generate(workload, 4, tmp_path, reduced=True)
    runner = Runner(jobs, Tracer())
    with instrument(runner.tracer):
        runner.run_pass(traced=True)
    assert runner.failed == 0
    layers = layer_metrics(runner.tracer)
    traced_wall = sum(runner.durations[True]) / len(runner.durations[True])
    assert 0 < sum(layers[m] for m in LAYER_SPANS) <= traced_wall
    assert layers["statevec.bits"] == sum(j["bits"] for j in jobs) / len(jobs)
    assert layers["oracle.compare_n"] >= 1 or workload == "sweep"


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
