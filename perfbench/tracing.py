"""Spans around qwcp's layer boundaries, recorded from outside the program.

The qwcp modules import each other's functions by name (`from .statevec
import apply_operator`), so a wrapper only sees calls if it replaces the
binding in the module that makes the call. `instrument` does that for
every boundary the benchmark reports and restores the originals on exit.

A span is (name, start, end, parent index, run id). Spans stay in memory
until `write` is called at the end of the benchmark.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

OP_KINDS = ("shift", "coinperm", "coinblock", "datactrl", "coindata", "interact", "fanout")

# per-layer seconds metric -> the span name whose self time it sums
LAYER_SPANS = {
    **{f"statevec.apply_s.{k}": f"statevec.apply.{k}" for k in OP_KINDS},
    "statevec.support_s": "statevec.support",
    "statevec.init_state_s": "statevec.init_state",
    "statevec.measure_s": "statevec.measure",
    "oracle.compare_s": "oracle.compare",
    "oracle.oracle_apply_s": "oracle.oracle_apply",
    "protocols.compile_s": "protocols.compile",
    "protocols.run_schedule_self_s": "protocols.run_schedule",
    "walkops.schedule_to_json_s": "walkops.schedule_to_json",
    "netgraph.load_network_s": "netgraph.load_network",
    "netgraph.spec_s": "netgraph.spec",
    "cli.parse_script_s": "cli.parse_script",
    "cli.render_report_s": "cli.render_report",
    "cli.dump_state_s": "cli.dump_state",
    "cli.self_s": "cli.main",
}

# counts that must repeat exactly when the same script runs again
REPEATED_COUNTS = ("bits", "timesteps", "peak_nnz") + tuple(f"apply_n.{k}" for k in OP_KINDS)

CLI_BINDINGS = {
    "run_schedule": "protocols.run_schedule",
    "compare": "oracle.compare",
    "oracle_apply": "oracle.oracle_apply",
    "init_state": "statevec.init_state",
    "load_network": "netgraph.load_network",
    "schedule_remote_cu": "protocols.compile",
    "schedule_multi_control": "protocols.compile",
    "schedule_multipath": "protocols.compile",
    "schedule_tree": "protocols.compile",
    "schedule_ghz_path": "protocols.compile",
    "schedule_linklevel": "protocols.compile",
    "dump_state": "cli.dump_state",
    "schedule_to_json": "walkops.schedule_to_json",
    "parse_script": "cli.parse_script",
    "render_report": "cli.render_report",
}


class Tracer:
    """In-memory span and count recorder for single-threaded runs."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, run]
        self.counts: dict = {}  # run id -> Counter
        self.run = -1
        self._stack: list = []

    def begin_run(self) -> None:
        self.run += 1
        self.counts[self.run] = Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, value=1) -> None:
        self.counts[self.run][key] += value

    def note_nnz(self, amplitudes) -> None:
        """Peak nonzero amplitudes; timed as its own span so that no layer's
        self time includes it (it shows as tracing overhead instead)."""
        with self.span("trace.instrument"):
            nnz = int(np.count_nonzero(amplitudes))
            c = self.counts[self.run]
            c["peak_nnz"] = max(c["peak_nnz"], nnz)

    def self_times(self) -> dict:
        """Span name -> summed self time (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "run": run}) + "\n")


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Patch qwcp's layer bindings to record into `tracer`; undo on exit."""
    from qwcp import cli, protocols
    from qwcp.netgraph import PathSpec, TreeSpec

    def before_run_schedule(state, sched, *args, **kwargs):
        tracer.counts[tracer.run]["bits"] = state.layout.total_bits
        tracer.counts[tracer.run]["timesteps"] = len(sched.timesteps)
        tracer.note_nnz(state.amplitudes)

    def after_measure(branches):
        tracer.count("branches", len(branches))
        for _, branch in branches:
            tracer.note_nnz(branch.amplitudes)

    apply_operator = protocols.apply_operator

    def traced_apply(state, op):
        with tracer.span(f"statevec.apply.{op.kind}"):
            result = apply_operator(state, op)
        tracer.count(f"apply_n.{op.kind}")
        tracer.count("actions", sum(1 for _ in op.iter_actions()))
        tracer.note_nnz(result.amplitudes)
        return result

    hooks = {
        "run_schedule": {"before": before_run_schedule},
        "compare": {"after": lambda _: tracer.count("compare_n")},
    }
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for attr, name in CLI_BINDINGS.items():
            patch(cli, attr, _wrap(tracer, getattr(cli, attr), name, **hooks.get(attr, {})))
        patch(cli, "main", _wrap(tracer, cli.main, "cli.main"))
        for cls in (PathSpec, TreeSpec):
            patch(cls, "in_graph",
                  classmethod(_wrap(tracer, cls.in_graph.__func__, "netgraph.spec")))
        patch(protocols, "apply_operator", traced_apply)
        patch(protocols, "walker_vertex_support", _wrap(
            tracer, protocols.walker_vertex_support, "statevec.support",
            after=lambda _: tracer.count("support_n")))
        patch(protocols, "measure",
              _wrap(tracer, protocols.measure, "statevec.measure", after=after_measure))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
