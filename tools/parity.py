"""Output parity of two qwcp source trees on the benchmark's workloads.

    python3 tools/parity.py OLD_SRC NEW_SRC [--seeds 1 5 77 201 401]

Every job that `perfbench/workloads.generate` builds for the three
workloads at the given seeds runs as `qwcp run` in a subprocess, once with
PYTHONPATH=OLD_SRC and once with PYTHONPATH=NEW_SRC. Each branch-mode job
that measures is replayed in `--mode sample` with `--dump-state` at
sample seeds 0-7. Exit codes, stdout, stderr, report bytes and dump bytes
must match exactly; a changed signed zero in a dump counts as a difference.

Exits 0 when every run matches, 1 when any differs, and 2 on bad usage.
Reads `perfbench/` and writes only to a temporary directory.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

RUN_MAIN = "import sys; from qwcp.cli import main; sys.exit(main(sys.argv[1:]))"
REPLAY_SEEDS = range(8)
OUTPUT_FLAGS = ("--out", "--dump-state")


def with_option(argv: list, flag: str, value: str) -> list:
    """argv with `flag value` set, replacing an existing value."""
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


def run_side(src: Path, argv: list, outdir: Path) -> dict:
    """Run one `qwcp` argv against one source tree. Output files go under
    `outdir`; the result holds everything that must match."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for flag in OUTPUT_FLAGS:
        if flag in argv:
            files[flag] = outdir / flag.lstrip("-")
            argv = with_option(argv, flag, str(files[flag]))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv], env=env,
                          capture_output=True, timeout=600)
    result = {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for flag, path in files.items():
        result[flag.lstrip("-")] = path.read_bytes() if path.exists() else None
    return result


def first_difference(old: bytes, new: bytes) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"line {i}: {a[:120]!r} != {b[:120]!r}"
    return f"{len(old_lines)} lines != {len(new_lines)} lines"


def compare_runs(label: str, old: dict, new: dict) -> list:
    problems = []
    for key in old:
        a, b = old[key], new[key]
        if a == b:
            continue
        detail = (first_difference(a, b) if isinstance(a, bytes) and isinstance(b, bytes)
                  else f"{a!r} != {b!r}")
        problems.append(f"{label}: {key} differs, {detail}")
    return problems


def measures(report: bytes | None) -> bool:
    try:
        return bool(json.loads(report)["measurements"])
    except (TypeError, ValueError, KeyError):
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 5, 77, 201, 401])
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "qwcp" / "cli.py").is_file():
            parser.error(f"no qwcp package under {src}")
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()

    problems, runs = [], 0
    with tempfile.TemporaryDirectory(prefix="qwcp-parity-") as tmp:
        tmp = Path(tmp)
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                jobs = workloads.generate(workload, seed, tmp / f"{workload}-s{seed}")
                for job in jobs:
                    label = f"{workload} seed {seed} {job['name']}"
                    outdir = tmp / "out" / f"{workload}-s{seed}-{job['name']}"
                    old = run_side(old_src, job["argv"], outdir / "old")
                    new = run_side(new_src, job["argv"], outdir / "new")
                    problems += compare_runs(label, old, new)
                    runs += 1
                    if job["mode"] != "branch" or not measures(old["out"]):
                        continue
                    for replay in REPLAY_SEEDS:
                        sample = with_option(job["argv"], "--mode", "sample")
                        sample = with_option(sample, "--seed", str(replay))
                        # run_side points the dump at its own output directory
                        sample = with_option(sample, "--dump-state", "state.dump")
                        sub = outdir / f"sample{replay}"
                        problems += compare_runs(
                            f"{label} sample seed {replay}",
                            run_side(old_src, sample, sub / "old"),
                            run_side(new_src, sample, sub / "new"),
                        )
                        runs += 1
    for problem in problems:
        print(problem)
    print(f"{runs} runs on each side, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
