"""Compile distributed-gate and entanglement procedures into schedules.

Every builder returns a CompiledProtocol bundling the schedule, walker
initial positions, the oracle gate list used for verification, and timing
metadata. Separation restores a walker/data product state either by
unitary reversal of the propagation history or, for the single-path
controlled gate, by measuring the walker registers with a classical
correction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .netgraph import NetworkGraph, PathSpec, TreeSpec
from .oracle import OracleGate
from .statevec import (
    RegisterLayout,
    StateVector,
    apply_operator,
    apply_z,
    measure,
    walker_vertex_support,
)
from .walkops import (
    OperatorError,
    OperatorSpec,
    Schedule,
    Timestep,
    invert_schedule,
    make_coin_block,
    make_coin_controlled_data,
    make_coin_perm,
    make_data_controlled_coin,
    make_fanout,
    make_flipflop_shift,
    make_identity_shift,
    make_measure_and_correct,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)

GATE_LIBRARY: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}


class ProtocolError(ValueError):
    """Request inconsistent with the graph, path, or walker budget."""


@dataclass(frozen=True)
class GateRequest:
    """A controlled gate: control qubits with required bits, and target
    qubits (all at one node) carrying the unitary."""

    controls: tuple[tuple[str, str, int], ...]
    targets: tuple[tuple[str, str], ...]
    unitary: np.ndarray
    name: str = ""

    @classmethod
    def build(cls, graph, controls, targets, unitary, name=""):
        controls = tuple((str(n), str(q), int(b)) for n, q, b in controls)
        targets = tuple((str(n), str(q)) for n, q in targets)
        for node, qubit, bit in controls:
            if qubit not in graph.qubits_at(node):
                raise ProtocolError(f"control qubit {qubit!r} not declared at {node!r}")
            if bit not in (0, 1):
                raise ProtocolError("control bits must be 0 or 1")
        if not targets:
            raise ProtocolError("gate needs at least one target qubit")
        target_nodes = {n for n, _ in targets}
        if len(target_nodes) != 1:
            raise ProtocolError("all target qubits must sit at one node")
        for node, qubit in targets:
            if qubit not in graph.qubits_at(node):
                raise ProtocolError(f"target qubit {qubit!r} not declared at {node!r}")
        unitary = np.asarray(unitary, dtype=complex)
        if unitary.shape != (1 << len(targets),) * 2:
            raise ProtocolError("unitary size does not match target count")
        return cls(controls, targets, unitary, name)

    @property
    def target_node(self) -> str:
        return self.targets[0][0]

    def oracle_gate(self) -> OracleGate:
        return OracleGate(
            controls=tuple(((n, q), b) for n, q, b in self.controls),
            targets=self.targets,
            matrix=self.unitary,
        )


@dataclass
class RunTrace:
    initial_support: dict
    supports: list
    final_norm: float = 1.0
    records: list = field(default_factory=list)
    branches: list = field(default_factory=list)
    classical_messages: list = field(default_factory=list)


@dataclass
class CompiledProtocol:
    name: str
    graph: NetworkGraph
    layout: RegisterLayout
    schedule: Schedule
    walker_inits: list
    oracle_gates: list
    meta: dict = field(default_factory=dict)


# -- assembly helpers -----------------------------------------------------


def _merge(prop_steps, extras, layout):
    """Forward timesteps: data-plane gate insertions, then propagation ops.

    Insertions condition only on a walker's vertex, which the same-step
    coin operations never change, so they go first; at the launch step
    this lets a local preparation precede the data-controlled coin."""
    merged = []
    for t, ts in enumerate(prop_steps):
        merged.append(Timestep(extras.get(t, []) + list(ts.pre_ops), ts.shift))
    return merged


def _with_reverse(prop_steps, extras, layout):
    merged = _merge(prop_steps, extras, layout)
    suffix = invert_schedule(Schedule(list(prop_steps)))
    return Schedule(merged + suffix.timesteps)


def _park_extra_walkers(layout, inits, node):
    while len(inits) < layout.k:
        inits.append((node, 0))
    return inits


def _pattern(controls_at_node) -> str:
    return "".join(str(bit) for _, _, bit in controls_at_node)


# -- single path ----------------------------------------------------------


def schedule_remote_cu(
    graph,
    layout,
    request: GateRequest,
    path: PathSpec,
    separation: str = "reverse",
    intermediate_gates: dict | None = None,
) -> CompiledProtocol:
    """Remote controlled gate over one path, walker 0 as carrier.

    intermediate_gates: optional {node: (qubit_names, matrix)} applied at
    the walker's arrival at interior path nodes, i.e. controlled by the
    same control pattern."""
    A, B = path.start, path.end
    if path.hops < 1:
        raise ProtocolError("path must have at least one hop")
    if any(node != A for node, _, _ in request.controls) or not request.controls:
        raise ProtocolError("remote_cu needs all control qubits at the path start")
    if request.target_node != B:
        raise ProtocolError("target qubits must sit at the path end")
    if layout.k < 1:
        raise ProtocolError("at least one walker required")
    if separation not in ("reverse", "measure"):
        raise ProtocolError(f"unknown separation {separation!r}")

    names = [q for _, q, _ in request.controls]
    out0 = graph.port_of(A, path.nodes[1])
    prop = [
        Timestep(
            [make_data_controlled_coin(
                graph, layout, A, names, _pattern(request.controls),
                ("swap", 0, out0), 0,
            )],
            make_flipflop_shift(graph, layout, [0]),
        )
    ]
    for i in range(1, path.hops):
        v = path.nodes[i]
        prop.append(
            Timestep(
                [make_coin_perm(
                    graph, layout, v,
                    graph.port_of(v, path.nodes[i - 1]),
                    graph.port_of(v, path.nodes[i + 1]), 0,
                )],
                make_flipflop_shift(graph, layout, [0]),
            )
        )
    prop.append(
        Timestep(
            [make_coin_perm(graph, layout, B, graph.port_of(B, path.nodes[-2]), 0, 0)],
            make_identity_shift(layout),
        )
    )

    extras: dict[int, list] = {
        path.hops: [
            make_coin_controlled_data(
                graph, layout, B, [q for _, q in request.targets], request.unitary, 0
            )
        ]
    }
    oracle_gates = [request.oracle_gate()]
    for v, (qnames, matrix) in (intermediate_gates or {}).items():
        if v not in path.nodes[1:-1]:
            raise ProtocolError(f"intermediate gate node {v!r} is not interior to path")
        t = path.nodes.index(v)
        extras.setdefault(t, []).append(
            make_coin_controlled_data(graph, layout, v, qnames, matrix, 0)
        )
        oracle_gates.append(
            OracleGate(
                controls=tuple(((n, q), b) for n, q, b in request.controls),
                targets=tuple((v, q) for q in qnames),
                matrix=np.asarray(matrix, dtype=complex),
            )
        )

    if separation == "reverse":
        sched = _with_reverse(prop, extras, layout)
    else:
        if len(request.controls) != 1 or request.controls[0][2] != 1:
            raise ProtocolError(
                "measure separation supports a single plain control qubit"
            )
        if intermediate_gates:
            raise ProtocolError("measure separation does not take intermediate gates")
        sched = Schedule(
            _merge(prop, extras, layout),
            measure=_vertex_measurement(graph, layout, A, B, names[0]),
        )

    inits = _park_extra_walkers(layout, [(A, 0)], A)
    return CompiledProtocol(
        name="remote_cu",
        graph=graph,
        layout=layout,
        schedule=sched,
        walker_inits=inits,
        oracle_gates=oracle_gates,
        meta={"propagation_steps": path.hops, "arrival": {B: path.hops}},
    )


def separate_reverse(prefix: Schedule) -> Schedule:
    """Unitary separation: undo the whole measurement-free propagation
    history; the inverted initial data-controlled permutation lands last
    and disentangles walker from data."""
    for ts in prefix.timesteps:
        for op in ts.pre_ops:
            if op.is_data_unitary:
                raise OperatorError(
                    "reverse suffix must be built from the propagation prefix only"
                )
    return invert_schedule(prefix)


def separate_measure(graph, layout, a_node, b_node, correction_qubit) -> OperatorSpec:
    """Measurement separation for a single-path controlled gate; see
    _vertex_measurement for the basis choice."""
    return _vertex_measurement(graph, layout, a_node, b_node, correction_qubit)


def _vertex_measurement(graph, layout, a_node, b_node, correction_qubit) -> OperatorSpec:
    a_id, b_id = graph.vertex_id(a_node), graph.vertex_id(b_node)
    if a_id == b_id:
        raise ProtocolError("measurement separation needs two distinct nodes")
    qubits, bases, parity_positions = [], [], []
    for offset, pos in enumerate(layout.vertex_bit_positions(0)):
        bit_a = (a_id >> (layout.nv - 1 - offset)) & 1
        bit_b = (b_id >> (layout.nv - 1 - offset)) & 1
        qubits.append(pos)
        if bit_a == bit_b:
            bases.append("Z")
        else:
            parity_positions.append(len(bases))
            bases.append("X")
    for pos in layout.coin_bit_positions(0):
        qubits.append(pos)
        bases.append("Z")
    return make_measure_and_correct(
        layout,
        qubits,
        "".join(bases),
        parity_positions,
        layout.data_bit(a_node, correction_qubit),
        [a_node, b_node],
        walker=0,
    )


# -- multiple control nodes ----------------------------------------------


def schedule_multi_control(graph, layout, request: GateRequest, path: PathSpec) -> CompiledProtocol:
    """Controlled gate whose control qubits live at several nodes visited
    in order along the path; reverse separation only."""
    if path.hops < 1:
        raise ProtocolError("path must have at least one hop")
    control_nodes = []
    by_node: dict[str, list] = {}
    for node, qubit, bit in request.controls:
        if node not in path.nodes:
            raise ProtocolError(f"control node {node!r} is not on the path")
        if node == path.end:
            raise ProtocolError("controls at the target node are unsupported")
        by_node.setdefault(node, []).append((node, qubit, bit))
        if node not in control_nodes:
            control_nodes.append(node)
    if not by_node:
        raise ProtocolError("at least one control qubit required")
    if path.start not in by_node:
        raise ProtocolError("the path must start at a control node")
    if request.target_node != path.end:
        raise ProtocolError("target qubits must sit at the path end")
    if layout.k < 1:
        raise ProtocolError("at least one walker required")

    A, B = path.start, path.end
    prop = []
    for i, v in enumerate(path.nodes[:-1]):
        nxt = path.nodes[i + 1]
        c_out = graph.port_of(v, nxt)
        if i == 0:
            ops = [make_data_controlled_coin(
                graph, layout, v,
                [q for _, q, _ in by_node[v]], _pattern(by_node[v]),
                ("swap", 0, c_out), 0,
            )]
        else:
            c_in = graph.port_of(v, path.nodes[i - 1])
            if v in by_node:
                ops = [
                    make_coin_perm(graph, layout, v, c_in, 0, 0),
                    make_data_controlled_coin(
                        graph, layout, v,
                        [q for _, q, _ in by_node[v]], _pattern(by_node[v]),
                        ("swap", 0, c_out), 0,
                    ),
                ]
            else:
                ops = [make_coin_perm(graph, layout, v, c_in, c_out, 0)]
        prop.append(Timestep(ops, make_flipflop_shift(graph, layout, [0])))
    prop.append(
        Timestep(
            [make_coin_perm(graph, layout, B, graph.port_of(B, path.nodes[-2]), 0, 0)],
            make_identity_shift(layout),
        )
    )
    extras = {
        path.hops: [
            make_coin_controlled_data(
                graph, layout, B, [q for _, q in request.targets], request.unitary, 0
            )
        ]
    }
    sched = _with_reverse(prop, extras, layout)
    inits = _park_extra_walkers(layout, [(A, 0)], A)
    return CompiledProtocol(
        name="remote_mcu",
        graph=graph,
        layout=layout,
        schedule=sched,
        walker_inits=inits,
        oracle_gates=[request.oracle_gate()],
        meta={"propagation_steps": path.hops, "arrival": {B: path.hops}},
    )


# -- parallel propagation -------------------------------------------------


def schedule_multipath(graph, layout, requests, paths) -> CompiledProtocol:
    """One walker per path, fanned out from the shared control node."""
    if len(requests) != len(paths) or not paths:
        raise ProtocolError("one gate request per path required")
    A = paths[0].start
    controls = requests[0].controls
    for p in paths:
        if p.start != A:
            raise ProtocolError("all paths must share the control node")
        if p.hops < 1:
            raise ProtocolError("each path must have at least one hop")
    for req in requests:
        if req.controls != controls:
            raise ProtocolError("all gates must share the same control qubits")
        if any(node != A for node, _, _ in req.controls) or not req.controls:
            raise ProtocolError("control qubits must sit at the shared start node")
    for req, p in zip(requests, paths):
        if req.target_node != p.end:
            raise ProtocolError("each target must sit at its path end")
    k = len(paths)
    if layout.k < k:
        raise ProtocolError(f"walker budget {layout.k} insufficient for {k} paths")
    first_hops = [p.nodes[1] for p in paths]
    if len(set(first_hops)) != len(first_hops):
        raise ProtocolError("paths must leave the control node over distinct edges")

    names = [q for _, q, _ in controls]
    c0 = graph.port_of(A, first_hops[0])
    maxd = max(p.hops for p in paths)
    t0_ops = [
        make_data_controlled_coin(
            graph, layout, A, names, _pattern(controls), ("swap", 0, c0), 0
        )
    ]
    if k > 1:
        t0_ops.append(make_fanout(graph, layout, A, c0, first_hops, list(range(k))))
    prop = [Timestep(t0_ops, make_flipflop_shift(graph, layout, list(range(k))))]
    extras: dict[int, list] = {}
    for t in range(1, maxd + 1):
        ops = []
        for j, p in enumerate(paths):
            if t < p.hops:
                v = p.nodes[t]
                ops.append(
                    make_coin_perm(
                        graph, layout, v,
                        graph.port_of(v, p.nodes[t - 1]),
                        graph.port_of(v, p.nodes[t + 1]), j,
                    )
                )
            elif t == p.hops:
                ops.append(
                    make_coin_perm(
                        graph, layout, p.end,
                        graph.port_of(p.end, p.nodes[t - 1]), 0, j,
                    )
                )
                extras.setdefault(t, []).append(
                    make_coin_controlled_data(
                        graph, layout, p.end,
                        [q for _, q in requests[j].targets],
                        requests[j].unitary, j,
                    )
                )
        active = [j for j in range(k) if t < paths[j].hops]
        shift = (
            make_flipflop_shift(graph, layout, active)
            if active
            else make_identity_shift(layout)
        )
        prop.append(Timestep(ops, shift))

    sched = _with_reverse(prop, extras, layout)
    inits = _park_extra_walkers(layout, [(A, 0) for _ in range(k)], A)
    return CompiledProtocol(
        name="multipath",
        graph=graph,
        layout=layout,
        schedule=sched,
        walker_inits=inits,
        oracle_gates=[req.oracle_gate() for req in requests],
        meta={
            "propagation_steps": maxd,
            "arrival": {p.end: p.hops for p in paths},
        },
    )


def schedule_tree(graph, layout, tree: TreeSpec, controls, targets) -> CompiledProtocol:
    """Tree propagation: pass-through coins at chain nodes, fan-outs at
    branch nodes, one walker per leaf.

    controls: (node, qubit, bit) entries, all at the tree root.
    targets: {node: (qubit_names, matrix)} for non-root tree nodes."""
    A = tree.root
    controls = tuple(controls)
    if not controls or any(node != A for node, _, _ in controls):
        raise ProtocolError("tree controls must sit at the root")
    if not tree.edges:
        raise ProtocolError("tree must contain at least one edge")
    for v in targets:
        if v not in tree.tree_nodes:
            raise ProtocolError(f"target node {v!r} is outside the tree")
        if v == A:
            raise ProtocolError("target at the control node needs no propagation")

    order = sorted(tree.tree_nodes, key=tree.depth)
    walker_of = {A: 0}
    spawn_node: dict[int, str] = {}
    next_id = 1
    for v in order:
        for idx, u in enumerate(tree.successors(v)):
            if idx == 0:
                walker_of[u] = walker_of[v]
            else:
                walker_of[u] = next_id
                spawn_node[next_id] = v
                next_id += 1
    if layout.k < next_id:
        raise ProtocolError(
            f"walker budget {layout.k} insufficient, tree needs {next_id}"
        )

    names = [q for _, q, _ in controls]
    depth_of = {v: tree.depth(v) for v in tree.tree_nodes}
    max_depth = max(depth_of.values())
    prop = []
    extras: dict[int, list] = {}
    for t in range(max_depth + 1):
        ops = []
        for v in order:
            if depth_of[v] != t:
                continue
            w = walker_of[v]
            succ = tree.successors(v)
            if v == A:
                c0 = graph.port_of(A, succ[0])
                ops.append(
                    make_data_controlled_coin(
                        graph, layout, A, names, _pattern(controls),
                        ("swap", 0, c0), 0,
                    )
                )
                if len(succ) > 1:
                    ops.append(
                        make_fanout(
                            graph, layout, A, c0, list(succ),
                            [walker_of[u] for u in succ],
                        )
                    )
            else:
                c_in = graph.port_of(v, tree.parent(v))
                if len(succ) == 1:
                    ops.append(
                        make_coin_perm(
                            graph, layout, v, c_in, graph.port_of(v, succ[0]), w
                        )
                    )
                elif len(succ) > 1:
                    ops.append(
                        make_fanout(
                            graph, layout, v, c_in, list(succ),
                            [walker_of[u] for u in succ],
                        )
                    )
                else:
                    ops.append(make_coin_perm(graph, layout, v, c_in, 0, w))
            if v in targets:
                qnames, matrix = targets[v]
                extras.setdefault(t, []).append(
                    make_coin_controlled_data(graph, layout, v, qnames, matrix, w)
                )
        shift = (
            make_flipflop_shift(graph, layout, list(range(next_id)))
            if t < max_depth
            else make_identity_shift(layout)
        )
        prop.append(Timestep(ops, shift))

    sched = _with_reverse(prop, extras, layout)
    inits = [(A, 0)] * layout.k
    for w, v in spawn_node.items():
        inits[w] = (v, 0)
    oracle_gates = [
        OracleGate(
            controls=tuple(((n, q), b) for n, q, b in controls),
            targets=tuple((v, q) for q in qnames),
            matrix=np.asarray(matrix, dtype=complex),
        )
        for v, (qnames, matrix) in targets.items()
    ]
    return CompiledProtocol(
        name="tree",
        graph=graph,
        layout=layout,
        schedule=sched,
        walker_inits=inits,
        oracle_gates=oracle_gates,
        meta={
            "propagation_steps": max_depth,
            "arrival": {v: depth_of[v] for v in tree.tree_nodes if v != A},
            "walker_of": dict(walker_of),
            "spawn_node": dict(spawn_node),
        },
    )


# -- entanglement distribution -------------------------------------------


def _ghz_prep_matrix(m: int) -> np.ndarray:
    """Local circuit H(q0); CNOT(q0 -> qi), composed as one 2^m unitary."""
    h = GATE_LIBRARY["H"]
    lower_mask = (1 << (m - 1)) - 1
    dim = 1 << m
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        top, rest = col >> (m - 1), col & lower_mask
        for new_top in range(2):
            row = (new_top << (m - 1)) | (rest ^ (lower_mask if new_top else 0))
            mat[row, col] += h[new_top, top]
    return mat


def schedule_ghz_path(graph, layout, paths, qubit_sets) -> CompiledProtocol:
    """GHZ distribution: local GHZ prep at each path start, then a walk
    whose per-node coin also X-flips that node's member qubits.

    qubit_sets: one {node: [qubit names]} per path; sets must be disjoint
    across paths and each path start must contribute at least one qubit."""
    if len(paths) != len(qubit_sets) or not paths:
        raise ProtocolError("one qubit map per path required")
    seen: set[tuple[str, str]] = set()
    for p, qmap in zip(paths, qubit_sets):
        if p.start not in qmap or not qmap[p.start]:
            raise ProtocolError("each path start must contribute at least one qubit")
        for v, qnames in qmap.items():
            if v not in p.nodes:
                raise ProtocolError(f"qubit node {v!r} is not on its path")
            for q in qnames:
                if q not in graph.qubits_at(v):
                    raise ProtocolError(f"qubit {q!r} not declared at node {v!r}")
                if (v, q) in seen:
                    raise ProtocolError(f"qubit {(v, q)!r} used by two paths")
                seen.add((v, q))
    k = len(paths)
    if layout.k < k:
        raise ProtocolError(f"walker budget {layout.k} insufficient for {k} paths")

    maxd = max(p.hops for p in paths)
    steps = max(1, maxd + 1)
    prop = [Timestep([], None) for _ in range(steps)]
    prop_ops: list[list] = [[] for _ in range(steps)]
    extras: dict[int, list] = {}
    x1 = GATE_LIBRARY["X"]
    oracle_gates = []
    for j, (p, qmap) in enumerate(zip(paths, qubit_sets)):
        start_qubits = qmap[p.start]
        extras.setdefault(0, []).append(
            make_coin_controlled_data(
                graph, layout, p.start, start_qubits,
                _ghz_prep_matrix(len(start_qubits)), j,
            )
        )
        member_qubits = [(v, q) for v in p.nodes for q in qmap.get(v, [])]
        first = member_qubits[0]
        oracle_gates.append(OracleGate((), (first,), GATE_LIBRARY["H"]))
        for other in member_qubits[1:]:
            oracle_gates.append(OracleGate(((first, 1),), (other,), x1))
        if p.hops == 0:
            continue
        c_out = graph.port_of(p.start, p.nodes[1])
        prop_ops[0].append(
            make_data_controlled_coin(
                graph, layout, p.start, start_qubits, "1" * len(start_qubits),
                ("swap", 0, c_out), j,
            )
        )
        for t in range(1, p.hops + 1):
            v = p.nodes[t]
            qnames = qmap.get(v, [])
            if qnames:
                xk = _kron_power(x1, len(qnames))
                extras.setdefault(t, []).append(
                    make_coin_controlled_data(graph, layout, v, qnames, xk, j)
                )
            if t < p.hops:
                prop_ops[t].append(
                    make_coin_perm(
                        graph, layout, v,
                        graph.port_of(v, p.nodes[t - 1]),
                        graph.port_of(v, p.nodes[t + 1]), j,
                    )
                )
            else:
                prop_ops[t].append(
                    make_coin_perm(
                        graph, layout, v, graph.port_of(v, p.nodes[t - 1]), 0, j
                    )
                )
    for t in range(steps):
        active = [j for j in range(k) if t < paths[j].hops]
        shift = (
            make_flipflop_shift(graph, layout, active)
            if active
            else make_identity_shift(layout)
        )
        prop[t] = Timestep(prop_ops[t], shift)

    sched = _with_reverse(prop, extras, layout)
    inits = _park_extra_walkers(layout, [(p.start, 0) for p in paths], paths[0].start)
    return CompiledProtocol(
        name="ghz_path",
        graph=graph,
        layout=layout,
        schedule=sched,
        walker_inits=inits,
        oracle_gates=oracle_gates,
        meta={"propagation_steps": maxd, "arrival": {p.end: p.hops for p in paths}},
    )


def _kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, mat)
    return out


def schedule_linklevel(graph, layout, couple: dict | None = None) -> CompiledProtocol:
    """One walker per proper edge: a two-level coin then a single flip-flop
    shift entangles each walker across its edge.

    couple: optional {(u, v): (qubit_at_u, qubit_at_v)} with u < v; coupled
    edges additionally receive a data-plane Bell pair, after which the
    walker is returned and disentangled (two more timesteps, one of them a
    flip-flop)."""
    edges = sorted(
        {tuple(sorted((v, u))) for v in graph.nodes for u in graph.neighbors(v)}
    )
    if not edges:
        raise ProtocolError("graph has no proper edges")
    if layout.k < len(edges):
        raise ProtocolError(
            f"walker budget {layout.k} insufficient for {len(edges)} edges"
        )
    couple = dict(couple or {})
    coupled_qubits = set()
    for edge, (qu, qv) in couple.items():
        edge = tuple(edge)
        if edge not in edges:
            raise ProtocolError(f"coupled pair {edge!r} is not a network edge")
        u, v = edge
        if qu not in graph.qubits_at(u) or qv not in graph.qubits_at(v):
            raise ProtocolError(f"coupling qubits for edge {edge!r} are not local")
        for qubit in ((u, qu), (v, qv)):
            if qubit in coupled_qubits:
                raise ProtocolError(f"data qubit {qubit!r} is in two couplings")
            coupled_qubits.add(qubit)

    hmat = GATE_LIBRARY["H"]
    x1 = GATE_LIBRARY["X"]
    t0_ops, t1_ops, t2_ops = [], [], []
    coupled_walkers = []
    oracle_gates = []
    for w, (u, v) in enumerate(edges):
        c_uv = graph.port_of(u, v)
        t0_ops.append(make_coin_block(graph, layout, {u: ([0, c_uv], hmat)}, w))
        pair = couple.get((u, v))
        if pair is not None:
            qu, qv = pair
            t0_ops.append(
                make_coin_controlled_data(graph, layout, u, [qu], x1, w, coin=c_uv)
            )
            t1_ops.append(make_coin_controlled_data(graph, layout, v, [qv], x1, w))
            t2_ops.append(
                make_data_controlled_coin(
                    graph, layout, u, [qu], "1", ("swap", 0, c_uv), w
                )
            )
            coupled_walkers.append(w)
            oracle_gates.append(OracleGate((), ((u, qu),), hmat))
            oracle_gates.append(OracleGate((((u, qu), 1),), ((v, qv),), x1))

    steps = [
        Timestep(t0_ops, make_flipflop_shift(graph, layout, list(range(len(edges)))))
    ]
    if coupled_walkers:
        steps.append(
            Timestep(t1_ops, make_flipflop_shift(graph, layout, coupled_walkers))
        )
        steps.append(Timestep(t2_ops, make_identity_shift(layout)))
    sched = Schedule(steps)
    inits = _park_extra_walkers(
        layout, [(u, 0) for u, _ in edges], edges[0][0]
    )
    return CompiledProtocol(
        name="linklevel",
        graph=graph,
        layout=layout,
        schedule=sched,
        walker_inits=inits,
        oracle_gates=oracle_gates,
        meta={
            "edges": [list(e) for e in edges],
            "entangling_shifts": 1,
            "coupled": sorted(couple),
        },
    )


# -- execution ------------------------------------------------------------


def run_schedule(
    state: StateVector,
    sched: Schedule,
    graph: NetworkGraph,
    mode: str = "branch",
    rng=None,
) -> tuple[StateVector, RunTrace]:
    """Apply each timestep (coins/interactions, then the shift), then the
    terminal measurement if present. Records per-step walker supports.

    A measured branch whose outcome parity is odd gets the classical Z
    correction through `apply_z`, which changes the signs of the entries
    with the corrected bit set where they are: the indices and their
    order stay, so nothing is grouped or re-sorted."""
    layout = state.layout

    def supports(s):
        return {
            j: {graph.label_of(v) for v in walker_vertex_support(s, j)}
            for j in range(layout.k)
        }

    trace = RunTrace(initial_support=supports(state), supports=[])
    for ts in sched.timesteps:
        for op in ts.pre_ops:
            state = apply_operator(state, op)
        state = apply_operator(state, ts.shift)
        trace.supports.append(supports(state))

    if sched.measure is not None:
        params = sched.measure.params
        allowed = set(params["allowed_vertices"])
        found = trace.supports[-1] if trace.supports else trace.initial_support
        if not found[params["walker"]] <= allowed:
            raise ProtocolError(
                "measurement separation precondition violated: walker support "
                f"{sorted(found[params['walker']])} outside {sorted(allowed)}"
            )
        branches = measure(
            state, params["qubits"], params["bases"], mode=mode, rng=rng
        )
        corrected = []
        for record, branch_state in branches:
            parity = 0
            for pos in params["parity_positions"]:
                parity ^= record.outcome[pos]
            if parity:
                branch_state = apply_z(branch_state, params["correct_bit"])
            corrected.append((record, branch_state))
            trace.records.append(record)
            trace.classical_messages.append(
                {
                    "to": params["allowed_vertices"][1],
                    "outcomes": list(record.outcome),
                    "parity": parity,
                    "correction": "Z" if parity else None,
                }
            )
        trace.branches = corrected
        state = corrected[0][1]

    trace.final_norm = state.norm
    return state, trace
