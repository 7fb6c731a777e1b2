"""Workload process: run generated jobs through `qwcp.cli.main` and check them.

Started by run.py in a fresh interpreter with `src` on the path, one
process per workload, so that peak RSS belongs to that workload alone.
Runs are a closed loop with one client: each `main` call starts when the
previous one has returned and been checked.

    python3 perfbench/worker.py MANIFEST RESULT --seconds S --trace 0|1
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import fmean

import numpy as np
from qwcp import cli

from tracing import LAYER_SPANS, OP_KINDS, REPEATED_COUNTS, Tracer, instrument

FIDELITY_TOL = 1e-9
NORM_TOL = 1e-10
MIN_PASSES = 2  # every job runs at least twice, so determinism is checked


def gate_report(report: dict) -> list:
    """Problems with one report; an empty list means the run is correct."""
    problems = []
    if report.get("passed") is not None and report["passed"] is not True:
        problems.append(f"passed={report['passed']!r}")
    for key in ("fidelity_vs_oracle", "walker_purity"):
        value = report.get(key)
        if value is not None and not value >= 1.0 - FIDELITY_TOL:
            problems.append(f"{key}={value!r}")
    norm = report.get("final_norm")
    if not isinstance(norm, float) or not abs(norm - 1.0) <= NORM_TOL:
        problems.append(f"final_norm={norm!r}")
    return problems


class Runner:
    """Runs jobs, applies the correctness gate, and keeps the tallies."""

    def __init__(self, jobs, tracer: Tracer | None = None):
        self.jobs = jobs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.durations = {False: [], True: []}  # traced? -> seconds per run
        self._digests: dict = {}
        self._counts: dict = {}

    def run_pass(self, traced: bool = False) -> None:
        for job in self.jobs:
            self.run_job(job, traced)

    def run_job(self, job: dict, traced: bool = False) -> None:
        for path in (job["report"], job["dump"]):
            if path:
                Path(path).unlink(missing_ok=True)
        console = io.StringIO()
        problems = []
        if traced:
            self.tracer.begin_run()
        start = time.perf_counter()
        try:
            with redirect_stdout(console), redirect_stderr(console):
                code = cli.main(job["argv"])
        except Exception:  # a traceback is a failed run, not a failed benchmark
            code = None
            problems.append(traceback.format_exc(limit=-2))
        elapsed = time.perf_counter() - start
        self.durations[traced].append(elapsed)
        if code is not None:
            problems += self.check(job, code, console.getvalue(), traced)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{job['name']}: {'; '.join(problems)}")

    def check(self, job: dict, code: int, console: str, traced: bool) -> list:
        if code != 0:
            return [f"exit code {code}: {console.strip()[-300:]}"]
        try:
            report_bytes = Path(job["report"]).read_bytes()
            dump_bytes = Path(job["dump"]).read_bytes() if job["dump"] else b""
            report = json.loads(report_bytes)
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        problems = gate_report(report)
        digest = hashlib.sha256(
            report_bytes + b"\0" + dump_bytes + b"\0" + console.encode()
        ).hexdigest()
        if self._digests.setdefault(job["name"], digest) != digest:
            problems.append("report, dump or trace differs from an earlier run")
        if traced:
            counts = self.tracer.counts[self.tracer.run]
            counts = {key: counts[key] for key in REPEATED_COUNTS}
            if self._counts.setdefault(job["name"], counts) != counts:
                problems.append("computed counts differ from an earlier run")
        return problems


def layer_metrics(tracer: Tracer) -> dict:
    """Per-run means of every layer's self time and of the computed counts."""
    runs = [tracer.counts[r] for r in sorted(tracer.counts)]
    n = len(runs)
    self_times = tracer.self_times()
    out = {m: self_times.get(span, 0.0) / n for m, span in LAYER_SPANS.items()}
    total = sum(runs, Counter())
    for kind in OP_KINDS:
        out[f"statevec.apply_n.{kind}"] = total[f"apply_n.{kind}"] / n
    out["statevec.support_n"] = total["support_n"] / n
    out["statevec.branches"] = total["branches"] / n
    out["oracle.compare_n"] = total["compare_n"] / n
    out["statevec.bits"] = total["bits"] / n
    out["protocols.timesteps"] = total["timesteps"] / n
    out["statevec.peak_nnz"] = total["peak_nnz"] / n
    out["statevec.nnz_frac"] = fmean(
        c["peak_nnz"] / (1 << c["bits"]) if c["bits"] else 0.0 for c in runs
    )
    out["statevec.bytes_computed"] = fmean(
        16 * (1 << c["bits"]) * (c["actions"] + c["support_n"]) for c in runs
    )
    return out


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_workload(jobs, seconds: float, trace: bool, spans_path=None) -> dict:
    tracer = Tracer() if trace else None
    runner = Runner(jobs, tracer)
    # traced and untraced passes alternate, so both see the same machine
    # state; a traced run makes at least two traced passes for the count check
    min_passes = MIN_PASSES + 1 if trace else MIN_PASSES
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        if trace and passes % 2 == 0:
            with instrument(tracer):
                runner.run_pass(traced=True)
        else:
            runner.run_pass()
        passes += 1
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "durations": runner.durations[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if trace:
        layers = layer_metrics(tracer)
        traced_run = fmean(runner.durations[True])
        layers["trace.run_s"] = traced_run
        layers["trace.overhead_frac"] = traced_run / fmean(runner.durations[False]) - 1.0
        result["layers"] = layers
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    jobs = json.loads(Path(args.manifest).read_text())
    result = run_workload(jobs, args.seconds, bool(args.trace), args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
