"""Pytest plugin: record what every protocol compiler call returns.

    PYTHONPATH=SRC:tools python3 -m pytest -p record_schedules \
        --record-schedules FILE [TESTS]

While the tests run, every call of a `schedule_*` compiler in
`qwcp.protocols` (direct, or through `qwcp.cli`) and of the step-script
compiler `qwcp.cli._compile_steps` appends one JSON line to FILE: the
test's node id, the call's position in that test, the compiler name and
either the result (`schedule_to_json`, `walker_inits`, `meta` and the
oracle gates, none for a step script) or the error type and text. A
test module that fails to collect appends `{"collect_error": node id}`
instead, and a test that fails appends `{"failed": node id}` after its
calls. Hypothesis takes no constants from local source files, the tree
under test included, so two trees draw the same examples.
`tools/parity.py --tests` compares the records of two source trees.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis.internal.conjecture import providers

COMPILERS = (
    "schedule_remote_cu",
    "schedule_multi_control",
    "schedule_multipath",
    "schedule_tree",
    "schedule_ghz_path",
    "schedule_linklevel",
)


def _json_value(value):
    """Plain JSON form of meta values, oracle matrices and tuples."""
    if isinstance(value, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def result_record(compiled) -> dict:
    from qwcp.walkops import schedule_to_json

    return {
        "schedule": schedule_to_json(compiled.schedule),
        "walker_inits": _json_value(compiled.walker_inits),
        "meta": _json_value(compiled.meta),
        "oracle_gates": [
            {"controls": _json_value(g.controls), "targets": _json_value(g.targets),
             "matrix": _json_value(np.asarray(g.matrix, dtype=complex))}
            for g in compiled.oracle_gates or ()
        ],
    }


class Recorder:
    def __init__(self, path):
        self.path = path
        self.test = None
        self.calls = 0
        self.out = open(path, "w")
        self.local_constants = None  # hypothesis's own, while it is replaced

    def wrap(self, name, fn):
        def recorded(*args, **kwargs):
            record = {"test": self.test, "call": self.calls, "compiler": name}
            self.calls += 1
            try:
                compiled = fn(*args, **kwargs)
            except Exception as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                self.write(record)
                raise
            record.update(result_record(compiled))
            self.write(record)
            return compiled

        return recorded

    def write(self, record):
        self.out.write(json.dumps(record, sort_keys=True) + "\n")
        self.out.flush()

    def pytest_collectreport(self, report):
        if report.failed:
            self.write({"collect_error": report.nodeid})

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.write({"failed": report.nodeid})

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.test, self.calls = item.nodeid, 0
        yield
        self.test = None


def pytest_addoption(parser):
    parser.addoption("--record-schedules", metavar="FILE",
                     help="write one JSON line per protocol compiler call to FILE")


def pytest_configure(config):
    path = config.getoption("--record-schedules")
    if not path:
        return
    import qwcp
    from qwcp import cli, protocols

    recorder = Recorder(path)
    # tests and the CLI bind the compilers by name, so every binding is
    # replaced before the test modules are imported
    for name in COMPILERS:
        wrapped = recorder.wrap(name, getattr(protocols, name))
        for module in (protocols, qwcp, cli):
            setattr(module, name, wrapped)
    cli._compile_steps = recorder.wrap("_compile_steps", cli._compile_steps)
    config.pluginmanager.register(recorder, "record-schedules-recorder")
    # hypothesis mixes the literals it finds in the source of local modules
    # into its draws, so two trees whose literals differ would draw
    # different examples from one seed; offered none, both draw alike
    if hasattr(providers, "_get_local_constants"):
        recorder.local_constants = providers._get_local_constants
        empty = type(providers._local_constants)()
        providers._get_local_constants = lambda: empty


def pytest_unconfigure(config):
    recorder = config.pluginmanager.get_plugin("record-schedules-recorder")
    if recorder is not None:
        recorder.out.close()
        if recorder.local_constants is not None:
            providers._get_local_constants = recorder.local_constants
