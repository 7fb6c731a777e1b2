"""Output parity of two qwcp source trees on the benchmark's workloads.

    python3 tools/parity.py OLD_SRC NEW_SRC [--seeds 1 5 77 201 401] [--tests DIR]

Every job that `perfbench/workloads.generate` builds for the three
workloads at the given seeds runs as `qwcp run` in a subprocess, once with
PYTHONPATH=OLD_SRC and once with PYTHONPATH=NEW_SRC. Each branch-mode job
that measures is replayed in `--mode sample` with `--dump-state` at
sample seeds 0-7, 2^32, 2^64 + 1 and 10^40 (the last three of two, three
and five 32-bit words). Exit codes, stdout, stderr, report bytes and dump
bytes must match exactly; a changed signed zero in a dump counts as a
difference. An output whose lines differ only in float literals is
reported as such, with its largest absolute float difference, and the
largest one over all runs is printed at the end; it still counts as a
difference. A differing report first names the top-level keys whose
values differ, sorted. A job measures when its old report holds a
`measurement` block (report schema 2) or measurement records (schema 1).

The workload runs all exit 0, so a fixed corpus of 2,000 distinct cases
of the grammar in `tests/test_cli_fuzz.py` is replayed as well, to cover
the error paths: the cases, with mode, extras and seed drawn as in its
test, are drawn once (derandomized, so every call draws the same corpus;
a case drawn again is skipped, and the distinct count is printed), and
each tree runs all of them through `qwcp.cli.main` in one subprocess,
with each case's temporary directory written as TMP. Exit code, stdout,
stderr, report and dump must match; each differing case is printed with
its script and counts as one difference.

With `--tests DIR`, the pytest suite in DIR also runs once against each
tree under the `record_schedules` plugin (this directory), and every
protocol or step-script compiler call the tests make must give the same
record: the compiler, `schedule_to_json`, `walker_inits`, `meta`, the
oracle gates, or the error text. Each test's records are diffed as a
sequence, so a call made by one tree only counts once, as inserted or
removed, and the calls after it still pair up. Both runs use hypothesis
seed 0, a fresh example database and no constants taken from the source
(the plugin turns that off), so they draw the same examples even when
the two trees hold different literals.
Collection goes on past a test module that fails to import (say, one
that imports a name only the new tree has), so the other modules still
yield records; every module that failed to collect on either side is
named and counts as a difference, except a module that fails against
the old tree only and makes no compiler call against the new one (say,
the test module of a new qwcp module): it leaves nothing uncompared, and
is printed as a note. Every test that fails against the new
tree counts as a difference. A test that fails against the old tree only
(say, the regression test of a bug the new tree fixes) stops early
there, or shrinks a failing example, so its records are not counted;
such tests are listed by name. Beside each such test, and each module
that fails to collect against the old tree, stands the number of
new-tree compiler calls it made, which went uncompared.

The last lines count the differing fuzz cases and the differing
workload runs and sample replays; the `--tests` line counts the record
differences and the uncompared new-tree calls. Exits 0 when every run,
fuzz case and record matches, 1 when any differs, and 2 on bad usage.
Reads `perfbench/` and `tests/` and writes only to a temporary directory.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

RUN_MAIN = "import sys; from qwcp.cli import main; sys.exit(main(sys.argv[1:]))"
# runs one function of this module on file arguments, in a subprocess
RUN_HERE = "import sys, pathlib, parity; getattr(parity, sys.argv[1])(*map(pathlib.Path, sys.argv[2:]))"
FUZZ_CASES = 2000  # distinct cases in the replayed corpus
FUZZ_DRAWS = 6000  # examples drawn at most to find them
REPLAY_SEEDS = (*range(8), 2**32, 2**64 + 1, 10**40)
OUTPUT_FLAGS = ("--out", "--dump-state")
# a float literal as repr or JSON writes it; digits alone are integers or index bits
FLOAT = re.compile(rb"(-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan|Infinity|NaN))")


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


def float_difference(old: bytes, new: bytes) -> tuple[int, float] | None:
    """(differing lines, largest absolute float difference) when the two
    texts have the same lines apart from float literals, else None."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return None
    lines, largest = 0, 0.0
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        parts_a, parts_b = FLOAT.split(a), FLOAT.split(b)
        # split keeps the floats at odd positions, the text between at even
        if len(parts_a) != len(parts_b) or parts_a[0::2] != parts_b[0::2]:
            return None
        lines += 1
        for x, y in zip(parts_a[1::2], parts_b[1::2]):
            largest = max(largest, abs(float(x) - float(y)))
    return lines, largest


def changed_keys(old: bytes, new: bytes) -> str:
    """`keys K, ...; ` naming the sorted top-level keys whose values differ
    between two JSON reports (a key on one side only included), or "" when
    either side is not a JSON object."""
    try:
        a, b, missing = json.loads(old), json.loads(new), object()
        keys = sorted(k for k in a.keys() | b.keys() if a.get(k, missing) != b.get(k, missing))
    except (ValueError, AttributeError):
        return ""
    return f"keys {', '.join(keys)}; "


def compare_runs(label: str, old: dict, new: dict, floats: list) -> list:
    """Problems of one run pair; the largest float-only difference of each
    output goes to `floats`. A differing report names its changed keys
    first."""
    problems = []
    for key in old:
        a, b = old[key], new[key]
        if a == b:
            continue
        if isinstance(a, bytes) and isinstance(b, bytes):
            found = float_difference(a, b)
            if found is not None:
                floats.append(found[1])
                detail = (f"in floats only, {found[0]} lines, largest difference "
                          f"{found[1]:.3g}; first {first_difference(a, b)}")
            else:
                detail = first_difference(a, b)
            if key == "out":
                detail = changed_keys(a, b) + detail
        else:
            detail = f"{a!r} != {b!r}"
        problems.append(f"{label}: {key} differs, {detail}")
    return problems


def record_calls(src: Path, tests: Path, workdir: Path) -> tuple[int, list, set, dict]:
    """Run the suite in `tests` against `src` with the recording plugin;
    returns pytest's exit code, the modules that failed to collect, the
    tests that failed, and each test's records in call order."""
    workdir.mkdir(parents=True)
    out = workdir / "calls.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TOOLS)]),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "record_schedules",
           "-p", "no:cacheprovider", "--hypothesis-seed=0", f"--rootdir={tests.parent}",
           "--continue-on-collection-errors", "--record-schedules", str(out), str(tests)]
    proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, timeout=1800)
    records = [json.loads(line) for line in out.read_text().splitlines()] if out.exists() else []
    uncollected = sorted(r["collect_error"] for r in records if "collect_error" in r)
    failed = {r["failed"] for r in records if "failed" in r}
    calls: dict = {}
    for r in records:
        if "test" in r:
            calls.setdefault(r["test"], []).append(r)
    return proc.returncode, uncollected, failed, calls


def first_json_difference(a, b, where: str = "") -> str:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                return first_json_difference(a.get(key), b.get(key), f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return first_json_difference(x, y, f"{where}[{i}]")
    return f"{where or 'record'}: {json.dumps(a)[:120]} != {json.dumps(b)[:120]}"


def compare_calls(old: dict, new: dict, skipped=frozenset()) -> list:
    """Differing records, leaving out the tests in `skipped`. `old` and
    `new` map each test to its records in call order. The two lists of a
    test are matched as sequences of record contents (the call position
    left out), so only the calls inserted, removed or changed show."""
    problems = []
    for test in sorted(set(old) | set(new)):
        if test in skipped:
            continue
        a, b = old.get(test, []), new.get(test, [])
        content = [[json.dumps({k: v for k, v in r.items() if k != "call"}, sort_keys=True)
                    for r in records] for records in (a, b)]
        matcher = difflib.SequenceMatcher(None, *content, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                continue
            if tag == "replace" and i2 - i1 == j2 - j1:
                problems += [f"{test} call {x['call']}: {first_json_difference(x, y)}"
                             for x, y in zip(a[i1:i2], b[j1:j2])]
                continue
            problems += [f"{test} call {r['call']}: only in old" for r in a[i1:i2]]
            problems += [f"{test} call {r['call']}: only in new" for r in b[j1:j2]]
    return problems


class _CorpusFull(Exception):
    """Raised by the corpus draw once it holds FUZZ_CASES cases, to stop it."""


def draw_fuzz_corpus(out: Path) -> None:
    """Write FUZZ_CASES distinct cases of the `test_cli_fuzz` grammar to
    `out` as JSON, in the order drawn. Hypothesis repeats many examples
    (often the one just before), so a case equal to one already kept is
    skipped and drawing goes on until FUZZ_CASES are kept, or fails after
    FUZZ_DRAWS draws. `tests` and a qwcp tree must be importable."""
    from hypothesis import HealthCheck, Phase, given, settings
    from test_cli_fuzz import EXTRAS, MODES, SEEDS, cases

    corpus, seen = [], set()

    @settings(max_examples=FUZZ_DRAWS, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], report_multiple_bugs=False,
              suppress_health_check=list(HealthCheck))
    @given(cases(), MODES, EXTRAS, SEEDS)
    def collect(case, mode, extras, seed):
        if len(corpus) == FUZZ_CASES:
            raise _CorpusFull
        network, lines = case
        entry = {"network": network, "lines": lines, "mode": mode, "extras": extras,
                 "seed": seed}
        key = json.dumps(entry, sort_keys=True)
        if key not in seen:
            seen.add(key)
            corpus.append(entry)

    try:
        collect()
    except _CorpusFull:
        pass
    if len(corpus) < FUZZ_CASES:
        raise RuntimeError(f"{FUZZ_DRAWS} draws gave only {len(corpus)} distinct fuzz cases")
    out.write_text(json.dumps(corpus))


def replay_fuzz_corpus(corpus: Path, out: Path) -> None:
    """Run every case of `corpus` through `qwcp.cli.main` in this process,
    as `test_cli_fuzz` does, and write each one's outputs to `out`."""
    from qwcp.cli import main
    from test_cli_fuzz import write_case

    results = []
    for case in json.loads(corpus.read_text()):
        with tempfile.TemporaryDirectory() as tmp:
            argv = write_case(tmp, case["network"], case["lines"], case["mode"],
                              case["extras"], case["seed"])
            files = {"out": Path(tmp, "r.json"), "dump-state": Path(tmp, "d.txt")}
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except Exception as exc:  # a crash is an outcome to compare too
                    code = f"raised {type(exc).__name__}: {exc}"
            result = {"exit code": code, "stdout": stdout.getvalue(),
                      "stderr": stderr.getvalue()}
            for key, path in files.items():
                result[key] = path.read_text() if path.exists() else None
        results.append({key: value.replace(tmp, "TMP") if isinstance(value, str) else value
                        for key, value in result.items()})
    out.write_text(json.dumps(results))


def run_here(src: Path, function: str, *paths: Path) -> subprocess.CompletedProcess:
    """Call `function` of this module on `paths` in a subprocess that
    imports qwcp from `src` and the fuzz grammar from `tests`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [src, ROOT / "tests", TOOLS])))
    return subprocess.run([sys.executable, "-c", RUN_HERE, function, *map(str, paths)],
                          env=env, capture_output=True, timeout=1800)


def compare_fuzz(old_src: Path, new_src: Path, tmp: Path, floats: list) -> tuple[int, list]:
    """(cases replayed, one problem per differing case or failed replay)."""
    corpus = tmp / "fuzz-corpus.json"
    proc = run_here(new_src, "draw_fuzz_corpus", corpus)
    if proc.returncode:
        return 0, [f"fuzz corpus: drawing failed: {proc.stderr.decode()[-2000:]}"]
    cases = json.loads(corpus.read_text())
    distinct = len({json.dumps(case, sort_keys=True) for case in cases})
    print(f"fuzz corpus: {len(cases)} cases, {distinct} distinct")
    sides = []
    for side, src in (("old", old_src), ("new", new_src)):
        out = tmp / f"fuzz-{side}.json"
        proc = run_here(src, "replay_fuzz_corpus", corpus, out)
        if proc.returncode:
            return len(cases), [f"fuzz replay failed against {side} tree: "
                                f"{proc.stderr.decode()[-2000:]}"]
        sides.append([{key: value.encode() if isinstance(value, str) else value
                       for key, value in result.items()}
                      for result in json.loads(out.read_text())])
    problems = []
    for i, (case, old, new) in enumerate(zip(cases, *sides)):
        found = compare_runs(f"fuzz case {i}", old, new, floats)
        if found:
            dump = " --dump-state" + (" at --out" if case["extras"] == "same" else "")
            extras = f" --seed {case['seed']} --trace{dump}" if case["extras"] else ""
            script = "".join(f"\n    {line}" for line in case["lines"])
            problems.append("\n".join(found) + f"\n  --mode {case['mode']}{extras}; "
                            f"network {case['network']}; script:{script}")
    return len(cases), problems


def measures(report: bytes | None) -> bool:
    """Whether a report records a measurement: a `measurement` block
    (schema 2) or a nonempty `measurements` list (schema 1)."""
    try:
        found = json.loads(report)
        return bool(found.get("measurement") or found.get("measurements"))
    except (TypeError, ValueError, AttributeError):
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 5, 77, 201, 401])
    parser.add_argument("--tests", type=Path,
                        help="also compare every compiler call this test directory makes")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "qwcp" / "cli.py").is_file():
            parser.error(f"no qwcp package under {src}")
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()

    run_problems, floats, runs = [], [], 0
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
                    run_problems += compare_runs(label, old, new, floats)
                    runs += 1
                    if job["mode"] != "branch" or not measures(old["out"]):
                        continue
                    for replay in REPLAY_SEEDS:
                        sample = with_option(job["argv"], "--mode", "sample")
                        sample = with_option(sample, "--seed", str(replay))
                        # run_side points the dump at its own output directory
                        sample = with_option(sample, "--dump-state", "state.dump")
                        sub = outdir / f"sample{replay}"
                        run_problems += compare_runs(
                            f"{label} sample seed {replay}",
                            run_side(old_src, sample, sub / "old"),
                            run_side(new_src, sample, sub / "new"),
                            floats,
                        )
                        runs += 1
        fuzz_cases, fuzz_problems = compare_fuzz(old_src, new_src, tmp, floats)
        problems = run_problems + fuzz_problems
        if args.tests is not None:
            tests = args.tests.resolve()
            old_code, old_uncollected, old_failed, old_calls = record_calls(
                old_src, tests, tmp / "calls-old")
            new_code, new_uncollected, new_failed, new_calls = record_calls(
                new_src, tests, tmp / "calls-new")
            # the new tree's calls in tests that fail, or do not collect,
            # against the old tree have nothing to be compared with
            unpaired = {test: len(calls) for test, calls in new_calls.items()
                        if test.split("::")[0] in old_uncollected}
            old_only = old_failed - new_failed
            unpaired.update({test: len(new_calls.get(test, ())) for test in old_only})
            call_problems = compare_calls(old_calls, new_calls, set(unpaired))
            call_problems += [f"{test}: fails against new tree" for test in sorted(new_failed)]
            notes = []
            for side, modules in (("old", old_uncollected), ("new", new_uncollected)):
                for module in modules:
                    problem = f"{module}: failed to collect against {side} tree"
                    if side == "old":
                        left = sum(n for test, n in unpaired.items()
                                   if test.split("::")[0] == module)
                        problem += f", {left} new-tree compiler calls not compared"
                        if not left and module not in new_uncollected:
                            notes.append(problem)
                            continue
                    call_problems.append(problem)
            # 1 only says some tests failed; any other code means pytest
            # itself did not run them, so their records are missing
            call_problems += [f"{tests}: pytest exit {code} against {side} tree"
                              for side, code in (("old", old_code), ("new", new_code))
                              if code not in (0, 1)]
            problems += call_problems
            print(f"{tests}: pytest exit {old_code} (old), {new_code} (new); "
                  f"{sum(map(len, old_calls.values()))} and "
                  f"{sum(map(len, new_calls.values()))} compiler calls, "
                  f"{len(call_problems)} differences, "
                  f"{sum(unpaired.values())} new-tree calls not compared")
            for test in sorted(old_only):
                print(f"{test}: fails against old tree only; its {unpaired[test]} "
                      "new-tree compiler calls are not compared")
            for note in notes:
                print(f"note: {note}")
    for problem in problems:
        print(problem)
    if floats:
        print(f"{len(floats)} outputs differ in floats only, largest difference "
              f"{max(floats)!r}")
    print(f"{fuzz_cases} fuzz cases on each side, {len(fuzz_problems)} differ")
    print(f"{runs} runs on each side, {len(run_problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
