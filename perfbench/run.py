"""qwcp benchmark: one workload of `qwcp run`, end to end or layer by layer.

    python3 perfbench/run.py --workload tree25|branch_verify|sweep \
        --seed N --seconds S --trace 0|1

Run it from the root of a qwcp checkout; it uses the sources in `src/`.
The seed generates the workload's networks and scripts (workloads.py);
qwcp sees only those files, through `qwcp.cli.main(["run", ...])`, in a
fresh worker process per workload (worker.py). Every run passes a
correctness gate, and failed runs count against `attempted`.

With --trace 0 the worker runs untraced and this prints the end-to-end
metrics; with --trace 1 it alternates traced and untraced passes and
prints the per-layer metrics (tracing.py). Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path("perfbench") / ".work"
SETUP_SAMPLES = 11  # fresh interpreters per run; the median is reported
TIME_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
P90_MIN_RUNS = 100  # p90 is reported once ten samples lie beyond it

END_TO_END_UNITS = {"setup_s": "s", "run_s_p50": "s", "runs_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# per-layer counts derived from sizes rather than timed
COMPUTED = {"statevec.bits", "protocols.timesteps", "statevec.peak_nnz",
            "statevec.nnz_frac", "statevec.bytes_computed"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def qwcp_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict, deadline: float) -> list:
    """Seconds from starting a fresh interpreter until `qwcp.cli` is
    imported. The first start is discarded: it may compile bytecode."""
    code = "import qwcp.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"cannot import qwcp.cli: {err.decode(errors='replace')[-500:]}")
        times.append(elapsed)
    return times[1:]


def run_worker(env, manifest, result, seconds, trace, spans, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), str(result),
           "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"workload process exited with code {code}")
    return json.loads(Path(result).read_text())


def describe(jobs) -> str:
    bits = sorted({j["bits"] for j in jobs})
    modes = Counter(j["mode"] for j in jobs)
    commands = Counter(j["command"] for j in jobs)
    return (
        f"scripts={len(jobs)} bits={bits[0]}..{bits[-1]} "
        f"nodes={max(j['nodes'] for j in jobs)} "
        f"data_qubits={max(j['data_qubits'] for j in jobs)} "
        f"modes={dict(sorted(modes.items()))} commands={dict(sorted(commands.items()))}"
    )


def end_to_end(result: dict, setup: list) -> dict:
    durations = result["durations"]
    passed = result["attempted"] - result["failed"]
    return {
        "setup_s": median(setup),
        "run_s_p50": median(durations),
        "runs_per_s": passed / sum(durations),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_unit(name: str) -> str:
    if name in tracing.LAYER_SPANS or name == "trace.run_s":
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def report(args, jobs, result, setup) -> dict:
    machine = result["machine"]
    print(f"# qwcp benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# workload {args.workload}: {describe(jobs)}")
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    section = "per_layer" if args.trace else "end_to_end"
    baseline = json.loads((HERE / "baseline.json").read_text())
    print(f"# baseline measured on {baseline['measured_on']}")
    recorded = baseline[section].get(args.workload, {})
    if args.trace:
        metrics = {k: (v, per_layer_unit(k)) for k, v in result["layers"].items()}
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(result, setup).items()}
    for name, (value, unit) in metrics.items():
        tag = " (computed)" if name in COMPUTED else ""
        print(f"{name:32s} {value:<12.6g} {unit:6s} baseline {recorded.get(name, '-')}{tag}")
    if not args.trace:
        durations = result["durations"]
        if len(durations) >= P90_MIN_RUNS:
            p90 = f"{quantiles(durations, n=10)[-1]:.6g} s"
        else:
            p90 = f"not reported, fewer than {P90_MIN_RUNS} runs"
        print(f"{'run_s_p90':32s} {p90} (n={len(durations)})")
        print(f"{'fail_frac':32s} {failed / attempted:.6g} ({failed} of {attempted} runs)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qwcp benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    os.chdir(ROOT)
    if not (ROOT / "src" / "qwcp" / "cli.py").is_file():
        print("error: no qwcp sources at src/qwcp; run from a qwcp checkout",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        jobs = workloads.generate(args.workload, args.seed, workdir)
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps(jobs))
        env = qwcp_env()
        setup = [] if args.trace else measure_setup(env, deadline)
        spans = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
        result = run_worker(env, manifest, workdir / "result.json", args.seconds,
                            args.trace, spans, deadline)
        line = json.dumps(report(args, jobs, result, setup))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
