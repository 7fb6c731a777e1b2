"""Command-line front end: parse protocol scripts, run them, emit reports.

Script grammar (line-oriented, `#` starts a comment):

    network FILE
    walkers N
    init NODE.QUBIT=0|1|+|-
    place WALKER NODE [COIN]
    remote_cu control=A.a[,A.b] [string=BITS] target=B.b[,B.c] path=A,u,B
              gate=G [separation=reverse|measure]
    remote_mcu controls=A0.a,A1.b string=11 target=B.c path=A0,A1,B gate=G
    multipath control=A.a path=... target=... gate=... path=... target=... gate=...
    tree control=A.a[,A.b] [string=BITS] edges=A>u,A>w,u>v
         target=u.b[,u.c] gate=G [target=... gate=...]
    ghz_path path=A,B,C qubits=A.g,B.g,C.g [path=... qubits=...]
    linklevel [couple=U,qu:V,qv ...]
    step coinperm node=V c1=N c2=N walker=W
    step coinblock node=V coins=0,1 gate=G walker=W
    step datactrl node=V controls=a,b string=BITS swap=C1,C2 walker=W
    step coindata node=V qubits=a[,b] gate=G walker=W [coin=C]
    step interact node=V coin=C swap=C1,C2 control=W target=W
    step shift flipflop [walkers=0,1]
    step shift identity
    step measure a=NODE b=NODE qubit=NAME [walker=W]

Gates: a library name (X, Y, Z, H, S, T, I) or a custom unitary
`U[re,im,re,im;...]` listing columns separated by `;`, each column a
flat re,im sequence. A script holds either one protocol command or a
sequence of `step` commands, of which `step measure` must be the last.
`walkers` and `place` belong to step scripts only: a protocol command
runs as many walkers as its request needs. A second `network` or
`walkers` line, `init` of one qubit or `place` of one walker is an error.
A key may appear once per command; only group keys repeat (`path=`,
`target=` and `couple=`, each followed by its group's other keys).
`multipath` needs at least one `path=` and `tree` at least one
`target=`; each of their groups is one gate, on qubits at one node,
under the command's shared controls, and a tree names each target node
once.

Exit codes: 0 success, 2 script/network parse error (JSON nested too
deep and numbers of more digits than `int` converts included), a script
or network file that cannot be read or is not UTF-8 (in any locale), an
unwritable `--out`/`--dump-state` path or one file named by both (then no
report is written), a `--trace` that stdout cannot take (after the
report), 3 precondition or construction error (a `--dump-state` dump of
more than 2^26 lines included, refused before any output is written) or
out of memory (`error: out of memory in MODULE.FUNCTION`, the innermost
qwcp frame that was allocating), 4 oracle verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .netgraph import NetworkError, PathSpec, TreeSpec, load_network
from .oracle import OracleError, compare, data_layout, oracle_apply
from .pcg64 import Pcg64
from .protocols import (
    GATE_LIBRARY,
    CompiledProtocol,
    ProtocolError,
    gate_request,
    run_schedule,
    schedule_ghz_path,
    schedule_linklevel,
    schedule_multi_control,
    schedule_multipath,
    schedule_remote_cu,
    schedule_tree,
    separate_measure,
)
from .statevec import (
    BlockAction,
    RegisterLayout,
    SQRT1_2,
    StateError,
    check_dump,
    dump_state,
    init_state,
)
from .walkops import (
    OperatorError,
    OperatorSpec,
    Schedule,
    Timestep,
    make_coin_block,
    make_coin_controlled_data,
    make_coin_perm,
    make_data_controlled_coin,
    make_flipflop_shift,
    make_identity_shift,
    make_walk_interaction,
    schedule_to_json,
)

DATA_INIT_STATES = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (SQRT1_2, SQRT1_2),
    "-": (SQRT1_2, -SQRT1_2),
}


class ScriptError(ValueError):
    """Syntax or reference error in a protocol script."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class Script(NamedTuple):
    """Parsed protocol script; commands keep their source line for errors."""

    network: str | None
    walkers: int | None
    inits: tuple  # ((node, qubit, state_label), ...)
    places: tuple  # ((walker, node, coin), ...)
    commands: tuple  # ((name, ((key, value) | word, ...), line), ...)


# -- parsing --------------------------------------------------------------


def _parse_kv(token: str, line: int):
    if "=" not in token:
        return token
    key, _, value = token.partition("=")
    if not key or not value:
        raise ScriptError(f"malformed argument {token!r}", line)
    return (key, value)


def parse_script(text: str) -> Script:
    network = None
    walkers = None
    inits: dict = {}  # (node, qubit) -> state label
    places: dict = {}  # walker -> (node, coin)
    commands: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name, args = tokens[0], tokens[1:]
        if name == "network":
            if len(args) != 1:
                raise ScriptError("network takes exactly one file path", lineno)
            if network is not None:
                raise ScriptError("second network line", lineno)
            network = args[0]
        elif name == "walkers":
            if len(args) != 1 or not args[0].isdecimal() or _int(args[0], lineno) < 1:
                raise ScriptError("walkers takes one positive integer", lineno)
            if walkers is not None:
                raise ScriptError("second walkers line", lineno)
            walkers = int(args[0])
        elif name == "init":
            if len(args) != 1:
                raise ScriptError("init takes NODE.QUBIT=STATE", lineno)
            ref, _, state = args[0].partition("=")
            node, qubit = _parse_qubit_ref(ref, lineno)
            if state not in DATA_INIT_STATES:
                raise ScriptError(
                    f"unknown initial state {state!r} (use 0, 1, +, -)", lineno
                )
            if (node, qubit) in inits:
                raise ScriptError(f"second init of {_shown(ref)}", lineno)
            inits[node, qubit] = state
        elif name == "place":
            if len(args) not in (2, 3):
                raise ScriptError("place takes WALKER NODE [COIN]", lineno)
            if not args[0].isdecimal() or (len(args) == 3 and not args[2].isdecimal()):
                raise ScriptError("place walker/coin must be integers", lineno)
            coin = _int(args[2], lineno) if len(args) == 3 else 0
            walker = _int(args[0], lineno)
            if walker in places:
                raise ScriptError(f"second place of walker {_shown(args[0])}", lineno)
            places[walker] = (args[1], coin)
        elif name in _PROTOCOL_COMPILERS or name == "step":
            commands.append((name, tuple(_parse_kv(t, lineno) for t in args), lineno))
        else:
            raise ScriptError(f"unknown command {name!r}", lineno)
    protocol_count = sum(1 for name, _, _ in commands if name != "step")
    if protocol_count > 1:
        raise ScriptError("a script may hold at most one protocol command")
    if protocol_count and any(name == "step" for name, _, _ in commands):
        raise ScriptError("protocol and step commands cannot be mixed")
    return Script(network, walkers, tuple((*q, s) for q, s in inits.items()),
                  tuple((w, *p) for w, p in places.items()), tuple(commands))


def _parse_qubit_ref(text: str, line: int) -> tuple[str, str]:
    node, dot, qubit = text.rpartition(".")
    if not dot or not node or not qubit:
        raise ScriptError(f"expected NODE.QUBIT, got {text!r}", line)
    return node, qubit


def _parse_gate(text: str, line: int) -> np.ndarray:
    if text.startswith("U[") and text.endswith("]"):
        cols = []
        for col_text in text[2:-1].split(";"):
            try:
                nums = [float(x) for x in col_text.split(",") if x]
            except ValueError:
                msg = f"gate entries must be numbers, got {col_text!r}"
                raise ScriptError(msg, line) from None
            if len(nums) % 2:
                raise ScriptError("gate entries must be re,im pairs", line)
            cols.append([complex(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)])
        if len({len(col) for col in cols}) != 1 or len(cols) != len(cols[0]):
            raise ScriptError("custom gate must be square", line)
        return np.array(cols, dtype=complex).T
    if text in GATE_LIBRARY:
        return GATE_LIBRARY[text]
    raise ScriptError(f"unknown gate {text!r}", line)


def _args(args, line, required=(), optional=(), head=None, members=()):
    """Read `key=value` arguments into ({key: value}, [group, ...]). Each key
    of `required` must appear once and each of `optional` at most once;
    each `head=` opens a group, which must then hold each of `members`
    once. Bare words and other keys are errors."""
    keys: dict = {}
    groups: list[dict] = []
    for arg in args:
        if isinstance(arg, str):
            raise ScriptError(f"unexpected bare word {arg!r}", line)
        key, value = arg
        if key == head:
            groups.append({head: value})
        elif key in members:
            if not groups or key in groups[-1]:
                raise ScriptError(f"{key}= must follow its {head}=", line)
            groups[-1][key] = value
        elif key in required or key in optional:
            if key in keys:
                raise ScriptError(f"duplicate argument {key!r}", line)
            keys[key] = value
        else:
            raise ScriptError(f"unknown argument {key!r}", line)
    for key in required:
        if key not in keys:
            raise ScriptError(f"missing argument {key!r}", line)
    for group in groups:
        for key in members:
            if key not in group:
                raise ScriptError(f"each {head}= needs {key}=", line)
    return keys, groups


def _qubit_refs(text, line):
    return [_parse_qubit_ref(ref, line) for ref in text.split(",")]


def _controls(text, string, line):
    refs = _qubit_refs(text, line)
    if string is None:
        string = "1" * len(refs)
    if len(string) != len(refs) or any(ch not in "01" for ch in string):
        raise ScriptError("string= must be a bit per control qubit", line)
    return [(ref, int(b)) for ref, b in zip(refs, string)]


def _shown(text):
    """`text` as an error echoes it: its repr, cut after 20 characters."""
    return repr(text[:20]) + ("..." if len(text) > 20 else "")


def _int(text, line):
    try:
        return int(text)
    except ValueError:
        raise ScriptError(f"expected integer, got {_shown(text)}", line) from None


def _int_list(text, line):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ScriptError(f"expected integer list, got {_shown(text)}", line) from None


def _int_pair(text, line):
    values = _int_list(text, line)
    if len(values) != 2:
        raise ScriptError(f"expected two integers, got {_shown(text)}", line)
    return values


# -- compilation ----------------------------------------------------------
#
# Each `_compile_*` parses its arguments into specs and hands them to a
# compiler, which sizes the layout to the walkers the request needs.


def _compile_remote_gate(graph, args, line, multi=False) -> CompiledProtocol:
    """`remote_cu` (controls at the path start, reverse or measure
    separation) or, with `multi`, `remote_mcu` (controls along the path)."""
    control_key = "controls" if multi else "control"
    kv, _ = _args(
        args, line, required=(control_key, "target", "path", "gate"),
        optional=("string",) if multi else ("string", "separation"),
    )
    controls = _controls(kv[control_key], kv.get("string"), line)
    targets = _qubit_refs(kv["target"], line)
    request = gate_request(graph, controls, targets, _parse_gate(kv["gate"], line))
    path = PathSpec.in_graph(graph, kv["path"].split(","))
    if multi:
        return schedule_multi_control(graph, request, path)
    return schedule_remote_cu(graph, request, path, kv.get("separation", "reverse"))


def _compile_multipath(graph, args, line) -> CompiledProtocol:
    kv, groups = _args(
        args, line, required=("control",), optional=("string",),
        head="path", members=("target", "gate"),
    )
    if not groups:
        raise ScriptError("multipath needs at least one path=", line)
    controls = _controls(kv["control"], kv.get("string"), line)
    paths, requests = [], []
    for g in groups:
        paths.append(PathSpec.in_graph(graph, g["path"].split(",")))
        targets = _qubit_refs(g["target"], line)
        requests.append(gate_request(graph, controls, targets, _parse_gate(g["gate"], line)))
    return schedule_multipath(graph, requests, paths)


def _compile_tree(graph, args, line) -> CompiledProtocol:
    kv, groups = _args(
        args, line, required=("control", "edges"), optional=("string",),
        head="target", members=("gate",),
    )
    if not groups:
        raise ScriptError("tree needs at least one target=", line)
    edges = []
    for pair in kv["edges"].split(","):
        parent, sep, child = pair.partition(">")
        if not sep or not parent or not child:
            raise ScriptError(f"tree edge must be parent>child, got {pair!r}", line)
        edges.append((parent, child))
    controls = _controls(kv["control"], kv.get("string"), line)
    tree = TreeSpec.in_graph(graph, edges[0][0], edges)
    requests = [
        gate_request(graph, controls, _qubit_refs(g["target"], line),
                     _parse_gate(g["gate"], line))
        for g in groups
    ]
    return schedule_tree(graph, tree, requests)


def _compile_ghz(graph, args, line) -> CompiledProtocol:
    _, groups = _args(args, line, head="path", members=("qubits",))
    if not groups:
        raise ScriptError("ghz_path needs at least one path=", line)
    paths, qubit_sets = [], []
    for g in groups:
        paths.append(PathSpec.in_graph(graph, g["path"].split(",")))
        qmap: dict[str, list] = {}
        for node, qubit in _qubit_refs(g["qubits"], line):
            qmap.setdefault(node, []).append(qubit)
        qubit_sets.append(qmap)
    return schedule_ghz_path(graph, paths, qubit_sets)


def _compile_linklevel(graph, args, line) -> CompiledProtocol:
    _, groups = _args(args, line, head="couple")
    couple = {}
    for g in groups:
        side_u, sep, side_v = g["couple"].partition(":")
        if not sep:
            raise ScriptError("couple= must be U,qu:V,qv", line)
        try:
            u, qu = side_u.split(",")
            v, qv = side_v.split(",")
        except ValueError:
            raise ScriptError("couple= must be U,qu:V,qv", line) from None
        if (u, v) in couple or (v, u) in couple:
            raise ScriptError("edge {},{} is coupled twice".format(*sorted((u, v))), line)
        couple[(u, v)] = (qu, qv)
    return schedule_linklevel(graph, couple)


_PROTOCOL_COMPILERS = {
    "remote_cu": _compile_remote_gate,
    "remote_mcu": partial(_compile_remote_gate, multi=True),
    "multipath": _compile_multipath,
    "tree": _compile_tree,
    "ghz_path": _compile_ghz,
    "linklevel": _compile_linklevel,
}


def _compile_step(graph, layout, args, line) -> OperatorSpec:
    """One `step` command: a shift, the measurement instrument, or a coin
    or data operator."""
    if not args:
        raise ScriptError("step needs an operator name", line)
    op_name, rest = args[0], args[1:]
    if not isinstance(op_name, str):
        raise ScriptError("step operator name must come first", line)
    if op_name == "shift":
        words = [a for a in rest if isinstance(a, str)]
        kv, _ = _args([a for a in rest if not isinstance(a, str)], line, optional=("walkers",))
        if words == ["identity"]:
            return make_identity_shift(layout)
        if words == ["flipflop"]:
            chosen = _int_list(kv["walkers"], line) if "walkers" in kv else None
            return make_flipflop_shift(graph, layout, chosen)
        raise ScriptError("step shift needs flipflop or identity", line)
    if op_name == "measure":
        kv, _ = _args(rest, line, required=("a", "b", "qubit"), optional=("walker",))
        return separate_measure(
            graph, layout, kv["a"], kv["b"], kv["qubit"], _int(kv.get("walker", "0"), line)
        )
    if op_name == "coinperm":
        kv, _ = _args(rest, line, required=("node", "c1", "c2", "walker"))
        return make_coin_perm(
            graph, layout, kv["node"], _int(kv["c1"], line), _int(kv["c2"], line),
            _int(kv["walker"], line),
        )
    if op_name == "coinblock":
        kv, _ = _args(rest, line, required=("node", "coins", "gate", "walker"))
        return make_coin_block(
            graph, layout, kv["node"], _int_list(kv["coins"], line),
            _parse_gate(kv["gate"], line), _int(kv["walker"], line),
        )
    if op_name == "datactrl":
        kv, _ = _args(rest, line, required=("node", "controls", "string", "swap", "walker"))
        return make_data_controlled_coin(
            graph, layout, kv["node"], kv["controls"].split(","), kv["string"],
            _int_pair(kv["swap"], line), _int(kv["walker"], line),
        )
    if op_name == "coindata":
        kv, _ = _args(rest, line, required=("node", "qubits", "gate", "walker"),
                      optional=("coin",))
        return make_coin_controlled_data(
            graph, layout, kv["node"], kv["qubits"].split(","),
            _parse_gate(kv["gate"], line), _int(kv["walker"], line),
            coin=_int(kv["coin"], line) if "coin" in kv else None,
        )
    if op_name == "interact":
        kv, _ = _args(rest, line, required=("node", "coin", "swap", "control", "target"))
        swap = _int_pair(kv["swap"], line)
        return make_walk_interaction(
            graph, layout, kv["node"], _int(kv["coin"], line), swap,
            _int(kv["control"], line), _int(kv["target"], line),
        )
    raise ScriptError(f"unknown step operator {op_name!r}", line)


def _compile_steps(graph, script: Script) -> CompiledProtocol:
    """A `step` script: the operators up to each shift make one timestep, a
    trailing group gets an identity shift, and `measure` must come last.
    Walkers start where `place` puts them, else at coin 0 of the first
    node."""
    places = script.places
    k = script.walkers or (max(w for w, _, _ in places) + 1 if places else 1)
    layout = RegisterLayout.for_network(graph, k)
    timesteps, pending, measure = [], [], None
    for _, args, line in script.commands:
        if measure is not None:
            raise ScriptError("measure must be the last step", line)
        op = _compile_step(graph, layout, args, line)
        if op.kind == "shift":
            timesteps.append(Timestep(pending, op))
            pending = []
        elif op.kind == "measure":
            measure = op
        else:
            pending.append(op)
    if pending:
        timesteps.append(Timestep(pending, make_identity_shift(layout)))
    placed = {w: (node, coin) for w, node, coin in places}
    if placed and max(placed) >= k:
        raise ScriptError(f"place names walker {max(placed)} outside 0..{k - 1}")
    return CompiledProtocol(
        name="steps",
        layout=layout,
        schedule=Schedule(timesteps, measure),
        walker_inits=[placed.get(w, (graph.nodes[0], 0)) for w in range(k)],
        oracle_gates=None,
        meta={},
    )


# -- execution ------------------------------------------------------------


def _prepare(script: Script, network_override: str | None = None):
    """Load the network and compile the script; returns (graph, compiled
    protocol, {(node, qubit): 2-vector} data inits)."""
    network_path = network_override or script.network
    if network_path is None:
        raise ScriptError("no network file given (script line or --network)")
    try:
        with open(network_path, encoding="utf-8") as f:
            network_text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScriptError(f"cannot read network file: {exc}") from None
    graph = load_network(network_text)
    if not script.commands:
        raise ScriptError("script contains no commands")
    name, args, line = script.commands[0]
    if name == "step":
        compiled = _compile_steps(graph, script)
    else:
        compiled = _PROTOCOL_COMPILERS[name](graph, args, line)
        if script.places:
            raise ScriptError("place is only valid in step scripts")
        if script.walkers is not None:
            raise ScriptError("walkers is only valid in step scripts")

    data_inits = {}
    for node, qubit, state in script.inits:
        if qubit not in graph.qubits_at(node):
            raise ScriptError(f"init references unknown qubit {node}.{qubit}")
        data_inits[(node, qubit)] = DATA_INIT_STATES[state]
    for node, qubit in compiled.fresh_qubits:
        if data_inits.get((node, qubit), DATA_INIT_STATES["0"]) != DATA_INIT_STATES["0"]:
            raise ProtocolError(
                f"{compiled.name} needs {node}.{qubit} to start in |0>; "
                "drop its init or set it to 0"
            )
    return graph, compiled, data_inits


def spectator_qubits(layout: RegisterLayout, schedule: Schedule, oracle_gates) -> list:
    """Data qubits, as (node, name) in layout order, that no action of the
    schedule reads or writes (conditions, block targets, measured bits,
    the corrected bit) and no oracle gate touches. Such a qubit stays in
    its initial single-qubit state for the whole run."""
    touched = set()
    for ts in schedule.timesteps:
        for op in (*ts.pre_ops, ts.shift):
            for act in op.iter_actions():
                touched.update(pos for bits, _ in act.conditions for pos in bits)
                if isinstance(act, BlockAction):
                    touched.update(act.target_bits)
    if schedule.measure is not None:
        touched.update(schedule.measure.params["qubits"])
        touched.add(schedule.measure.params["correct_bit"])
    gate_qubits = set()
    for gate in oracle_gates or ():
        gate_qubits.update(q for q, _ in gate.controls)
        gate_qubits.update(gate.targets)
    return [
        q for q in layout.data_order
        if q not in gate_qubits and layout.data_bit(*q) not in touched
    ]


def execute(
    script: Script,
    network_override: str | None = None,
    seed: int | None = None,
    mode: str = "branch",
):
    """Run a parsed script; returns (report dict, final core StateVector,
    spectator factors, trace).

    Only the core of the state is run: spectator data qubits (see
    `spectator_qubits`) start in |0> in the protocol and oracle states,
    and their initial 2-vectors are kept apart as `factors`, {layout bit:
    2-vector} for those not in |0>, in layout order. `run_schedule`,
    `measure`, `oracle_apply` and `compare` see core states, and so do
    `trace.branches`. One `compare` call checks every measured branch (or
    the final state of a run that measures nothing), and the report holds
    the least fidelity and purity. The full final state is
    `insert_qubits(core, factors)`; it is never built here:
    `dump_state` writes its dump from the two parts, and the report's
    `final_norm` is the core's norm times each factor's norm, in layout
    order. `mode` is "branch" (keep every measured branch) or "sample"
    (draw one from `Pcg64(seed)`, numpy's `default_rng(seed)` stream; seed
    0 when `seed` is None)."""
    if mode not in ("branch", "sample"):
        raise ScriptError(f"unknown mode {mode!r} (use branch or sample)")
    graph, compiled, data_inits = _prepare(script, network_override)
    layout = compiled.layout
    spectators = spectator_qubits(layout, compiled.schedule, compiled.oracle_gates)
    # spectators leave the data inits; those not in |0> become factors
    factors = {layout.data_bit(*q): data_inits.pop(q) for q in spectators if q in data_inits}

    # no name holds an initial state: the run frees it once it is applied
    core, trace = run_schedule(
        init_state(graph, layout, compiled.walker_inits, data_inits),
        compiled.schedule, graph, _rng(mode, seed),
    )

    comparison = None
    if compiled.oracle_gates is not None:
        oracle_out = oracle_apply(
            init_state(graph, data_layout(graph), [], data_inits), compiled.oracle_gates
        )
        comparison = compare(core if trace.branches is None else trace.branches, oracle_out)
    final_norm = core.norm
    for q in factors.values():
        final_norm *= float(np.linalg.norm(q))

    report = {
        "schema": 1,
        "protocol": compiled.name,
        "mode": mode,
        "seed": seed,
        "steps": len(compiled.schedule.timesteps),
        "final_norm": final_norm,
        "fidelity_vs_oracle": comparison.data_fidelity if comparison else None,
        "walker_purity": comparison.walker_purity if comparison else None,
        "passed": comparison.passed if comparison else None,
        "measurements": [
            {
                "qubits": list(r.qubits),
                "bases": r.bases,
                "outcome": list(r.outcome),
                "probability": r.probability,
            }
            for r in (trace.branches.records if trace.branches is not None else ())
        ],
        "classical_messages": trace.classical_messages,
        "supports": {
            "initial": _support_json(trace.initial_support),
            "timesteps": [_support_json(s) for s in trace.supports],
        },
        "meta": _meta_json(compiled.meta),
        "schedule": schedule_to_json(compiled.schedule),
    }
    return report, core, factors, trace


def _rng(mode: str, seed: int | None):
    """The run's rng: `Pcg64(seed)` in sample mode, seed 0 when `seed` is
    None, and None in branch mode."""
    if seed is not None and seed < 0:
        raise ScriptError("--seed must be a non-negative integer")
    return Pcg64(0 if seed is None else seed) if mode == "sample" else None


def _support_json(support: dict) -> dict:
    return {str(w): sorted(labels) for w, labels in support.items()}


def _meta_json(meta: dict) -> dict:
    return json.loads(json.dumps(meta, sort_keys=True, default=str))


def render_report(report: dict) -> str:
    """`json.dumps(report, sort_keys=True, indent=2)`, byte for byte, for a
    report: dicts with str keys, lists, and finite str, int, float, bool
    and None values, each of exactly its type. Anything else, a tuple, a
    non-str key or a subclass such as `np.float64`, raises TypeError.

    With an indent, json runs its pure-Python encoder, a chain of nested
    generators; this writes the same text in one recursive pass into one
    list, each scalar through the formatter json uses."""
    out: list[str] = []
    _render(report, "", "\n", out)
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
# exact type -> JSON text
_SCALAR_JSON = {
    str: _encode_str,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _render(value, head: str, newline: str, out: list) -> None:
    """Append `head`, then the JSON text of `value`, to `out`; `newline` is
    a line break and the indent of the line `value` starts on. Container
    items of a scalar type are formatted in place, without a call, and
    `_encode_str` raises TypeError for a key that is not a str."""
    scalar = _SCALAR_JSON.get(type(value))
    if scalar is not None:
        out.append(head + scalar(value))
    elif type(value) is list:
        if not value:
            out.append(head + "[]")
            return
        inner = newline + "  "
        head += "[" + inner
        for item in value:
            scalar = _SCALAR_JSON.get(type(item))
            if scalar is not None:
                out.append(head + scalar(item))
            else:
                _render(item, head, inner, out)
            head = "," + inner
        out.append(newline + "]")
    elif type(value) is dict:
        if not value:
            out.append(head + "{}")
            return
        inner = newline + "  "
        head += "{" + inner
        for key, item in sorted(value.items()):
            head += _encode_str(key) + ": "
            scalar = _SCALAR_JSON.get(type(item))
            if scalar is not None:
                out.append(head + scalar(item))
            else:
                _render(item, head, inner, out)
            head = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not a report value")


def render_trace(report: dict) -> str:
    lines = [f"protocol: {report['protocol']}  steps: {report['steps']}"]
    lines.append(f"t=0 (initial): {_fmt_support(report['supports']['initial'])}")
    for t, sup in enumerate(report["supports"]["timesteps"], start=1):
        lines.append(f"t={t}: {_fmt_support(sup)}")
    for msg in report["classical_messages"]:
        lines.append(
            f"message to {msg['to']}: outcomes={msg['outcomes']} "
            f"parity={msg['parity']} correction={msg['correction']}"
        )
    return "\n".join(lines)


def _fmt_support(sup: dict) -> str:
    return "  ".join(
        f"w{w}@{{{','.join(labels)}}}" for w, labels in sorted(sup.items(), key=lambda i: int(i[0]))
    )


def _same_file(a, b) -> bool:
    """Whether paths `a` and `b` name one file: two existing ones by device
    and inode, so hard links too, else by their resolved paths."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


@cache
def _parser() -> argparse.ArgumentParser:
    """The `qwcp` argument parser, built on first use and shared."""
    parser = argparse.ArgumentParser(
        prog="qwcp",
        description="Quantum-walk control protocol simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="parse and execute a protocol script")
    run.add_argument("script", help="protocol script file")
    run.add_argument("--network", help="network JSON file (overrides the script)")
    run.add_argument("--seed", type=int, default=None, help="rng seed")
    run.add_argument("--mode", choices=("branch", "sample"), default="branch")
    run.add_argument("--out", help="write the report JSON here (default stdout)")
    run.add_argument("--dump-state", help="write the final state dump here")
    run.add_argument("--trace", action="store_true", help="print per-step supports")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except MemoryError as exc:
        print(f"error: out of memory in {_allocating_frame(exc)}", file=sys.stderr)
        return 3


def _allocating_frame(exc: BaseException) -> str:
    """`module.function` of the innermost qwcp frame in `exc`'s traceback."""
    here, site = os.path.dirname(__file__), "cli.main"
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if os.path.dirname(code.co_filename) == here:
            site = f"{os.path.splitext(os.path.basename(code.co_filename))[0]}.{code.co_name}"
        tb = tb.tb_next
    return site


def _run(args) -> int:
    try:
        with open(args.script, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read script: {exc}", file=sys.stderr)
        return 2
    try:
        script = parse_script(text)
        report, core, factors, _ = execute(
            script, network_override=args.network, seed=args.seed, mode=args.mode
        )
        if args.dump_state:
            check_dump(core, factors)
    except (ScriptError, NetworkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, OperatorError, StateError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.out and args.dump_state and _same_file(args.out, args.dump_state):
        print("error: --out and --dump-state name the same file", file=sys.stderr)
        return 2
    rendered = render_report(report)
    try:
        # every output is opened before any is written: a failed open leaves no report
        with (
            open(args.out, "w") if args.out else nullcontext(sys.stdout) as report_out,
            open(args.dump_state, "wb") if args.dump_state else nullcontext() as dump_out,
        ):
            print(rendered, file=report_out)
            if dump_out is not None:
                dump_state(dump_out, core, factors)
        if args.trace:
            # a label stdout's encoding cannot hold fails here, after the report
            print(render_trace(report))
    except (OSError, UnicodeEncodeError) as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2

    if report["passed"] is False:
        print("verification failed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
