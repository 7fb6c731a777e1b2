"""Compile distributed-gate and entanglement procedures into schedules.

Every walk goes through one compiler, `_compile`, over a forest of
visits (one visit is one stop of a walker): local data launches a walker
at a root, the walker is passed on hop by hop, fans out to further
walkers at a branch and is parked at each leaf. A single path is a
chain, multipath is a root with one chain per path, a tree is its own
nodes in `TreeSpec` order, and GHZ distribution is a forest of chains.
The `schedule_*` builders validate a request and lay out its visits,
oracle gates and metadata. A controlled-gate request is the
`OracleGate` that `gate_request` checks, and its builder hands it to the
oracle unchanged. `remote_cu` is the `remote_mcu` walk with every control
at the path start; the two fan-out forms, multipath and tree, take one
request per target node and check their shared controls alike.
`_compile` sizes the register layout to exactly the walkers the forest
uses, builds the walk and adds the separation. `schedule_linklevel` has
no walk, sizes its layout to one walker per network edge and builds its
own timesteps. No builder takes a walker count: the request fixes it.

Every builder returns a CompiledProtocol bundling the schedule, walker
initial positions, the oracle gate list used for verification, and timing
metadata. Separation restores a walker/data product state either by
unitary reversal of the propagation history or, for the single-path
controlled gate, by measuring the walker register. The classical Z
correction that measurement calls for is applied by deferred
measurement: as the measure op's action, a swap of the walker's two end
vertices where the corrected qubit is 1, before the measurement.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .netgraph import NetworkGraph, PathSpec, TreeSpec
from .oracle import OracleGate
from .statevec import (
    HADAMARD,
    BranchStack,
    PermAction,
    RegisterLayout,
    StateVector,
    apply_actions,
    apply_operator,
    measure,
    walker_vertex_support,
)
from .walkops import (
    OperatorSpec,
    Schedule,
    Timestep,
    _read_only,
    invert_schedule,
    make_coin_block,
    make_coin_controlled_data,
    make_coin_perm,
    make_data_controlled_coin,
    make_fanout,
    make_flipflop_shift,
    make_identity_shift,
)

GATE_LIBRARY: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": HADAMARD,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}
# X on the second qubit where the first is 1: control first, as listed
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


class ProtocolError(ValueError):
    """Request inconsistent with the graph or path."""


def gate_request(graph, controls, targets, unitary) -> OracleGate:
    """A controlled gate: control qubits, each ((node, qubit), required
    bit) and listed once, and target qubits, all at one node, carrying the
    unitary."""
    controls = tuple(((str(n), str(q)), int(b)) for (n, q), b in controls)
    targets = tuple((str(n), str(q)) for n, q in targets)
    for i, ((node, qubit), bit) in enumerate(controls):
        if qubit not in graph.qubits_at(node):
            raise ProtocolError(f"control qubit {qubit!r} not declared at {node!r}")
        if bit not in (0, 1):
            raise ProtocolError("control bits must be 0 or 1")
        if (node, qubit) in (q for q, _ in controls[:i]):
            raise ProtocolError(f"control qubit {(node, qubit)!r} listed twice")
    if not targets:
        raise ProtocolError("gate needs at least one target qubit")
    if len({n for n, _ in targets}) != 1:
        raise ProtocolError("all target qubits must sit at one node")
    for node, qubit in targets:
        if qubit not in graph.qubits_at(node):
            raise ProtocolError(f"target qubit {qubit!r} not declared at {node!r}")
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (1 << len(targets),) * 2:
        raise ProtocolError("unitary size does not match target count")
    return OracleGate(controls, targets, unitary)


def _data_gate(request: OracleGate) -> list:
    """The gates applied at the target node: one (target qubit names,
    unitary) pair."""
    return [([q for _, q in request.targets], request.matrix)]


class RunTrace(NamedTuple):
    initial_support: dict
    supports: list
    branches: BranchStack | None


class CompiledProtocol(NamedTuple):
    name: str
    layout: RegisterLayout
    schedule: Schedule
    walker_inits: list
    oracle_gates: list
    meta: dict
    # data qubits the schedule assumes start in |0>, as (node, name)
    fresh_qubits: tuple = ()


# -- the walk compiler ----------------------------------------------------


class _Visit(NamedTuple):
    """One stop of a walker: its node, the index of the visit it came from
    (None at a root), the ((node, qubit), bit) controls that launch it from
    here, and the data gates, (qubit names, matrix) pairs applied in order
    on arrival."""

    node: str
    parent: int | None = None
    controls: tuple = ()
    gates: tuple = ()


def _path_visits(visits, nodes, parent=None, controls=None, gates=None):
    """Append one visit per path node to `visits`, each hanging off the one
    before and the first off visit `parent`; `controls` and `gates` map a
    node to its launch controls and its list of data gates."""
    for v in nodes:
        visits.append(_Visit(v, parent, tuple((controls or {}).get(v, ())),
                             tuple((gates or {}).get(v, ()))))
        parent = len(visits) - 1


def _forest(visits):
    """(depth, children, walker of each visit, walker inits) of a visit
    forest whose parents precede their children. Each root takes the next
    walker id, the first child keeps its parent's walker, and each further
    child takes the next id, starting parked at the fan-out's node."""
    kids: list[list[int]] = [[] for _ in visits]
    depth = []
    for i, visit in enumerate(visits):
        depth.append(0 if visit.parent is None else depth[visit.parent] + 1)
        if visit.parent is not None:
            kids[visit.parent].append(i)
    walker: list = [None] * len(visits)
    inits = []
    for i, visit in enumerate(visits):
        if visit.parent is None:
            walker[i] = len(inits)
            inits.append((visit.node, 0))
        for n, child in enumerate(kids[i]):
            if n == 0:
                walker[child] = walker[i]
            else:
                walker[child] = len(inits)
                inits.append((visit.node, 0))
    return depth, kids, walker, inits


def _compile(name, graph, visits, oracle_gates, meta, measure=None):
    """Compile the walk of a visit forest into protocol `name`: one
    forward timestep per depth, then the separation. That is the unitary
    reversal of the walk operators, or, with `measure=(a_node, b_node,
    qubit)`, `separate_measure`. The layout holds the walkers `_forest`
    numbers, and no others.

    A root launches its walker with a data-controlled coin; an interior
    visit passes the walker on, or, when it has controls, parks it and
    launches it again; a visit with several children fans out; a leaf
    parks the walker on its self-loop. A timestep holds its data gates,
    then its walk operators, each in visit-list order; reversal skips the
    data gates. Every shift but the last is a flip-flop on all walkers; a
    parked walker sits on its self-loop, where the flip-flop is the
    identity.

    The data gates condition only on a walker's vertex, which the
    same-step coin operations never change, so they go first; at the
    launch step this lets a local preparation precede the data-controlled
    coin. `meta` gains `propagation_steps`, the depth of the forest."""
    depth, kids, walker, inits = _forest(visits)
    layout = RegisterLayout.for_network(graph, len(inits))

    ops: list[list] = [[] for _ in range(max(depth) + 1)]
    gates: list[list] = [[] for _ in ops]
    for i, visit in enumerate(visits):
        v, w, step = visit.node, walker[i], ops[depth[i]]
        succ = [visits[child].node for child in kids[i]]
        c_in = None if visit.parent is None else graph.port_of(v, visits[visit.parent].node)
        if c_in is not None and (visit.controls or not succ):
            step.append(make_coin_perm(graph, layout, v, c_in, 0, w))
        if succ:
            c_out = graph.port_of(v, succ[0])
            if visit.controls:
                step.append(make_data_controlled_coin(
                    graph, layout, v, [q for (_, q), _ in visit.controls],
                    "".join(str(bit) for _, bit in visit.controls), (0, c_out), w,
                ))
            if len(succ) > 1:
                step.append(make_fanout(
                    graph, layout, v, c_out if visit.controls else c_in, succ,
                    [walker[child] for child in kids[i]],
                ))
            elif not visit.controls:
                step.append(make_coin_perm(graph, layout, v, c_in, c_out, w))
        for qnames, matrix in visit.gates:
            gates[depth[i]].append(
                make_coin_controlled_data(graph, layout, v, qnames, matrix, w)
            )

    shifts = [make_flipflop_shift(graph, layout)] * (len(ops) - 1)
    shifts.append(make_identity_shift(layout))
    forward = [Timestep(g + step, shift) for g, step, shift in zip(gates, ops, shifts)]
    if measure is None:
        walk = Schedule([Timestep(step, shift) for step, shift in zip(ops, shifts)])
        sched = Schedule(forward + invert_schedule(walk).timesteps)
    else:
        sched = Schedule(forward, measure=separate_measure(graph, layout, *measure))
    return CompiledProtocol(name, layout, sched, inits, oracle_gates,
                            {"propagation_steps": len(ops) - 1, **meta})


# -- single path ----------------------------------------------------------


def _single_path(name, graph, request, path, measure=None) -> CompiledProtocol:
    """Protocol `name`: one walker launched at the path start and
    relaunched at each later control node, the gate applied at the path
    end, and `measure` passed on to `_compile`."""
    if path.hops < 1:
        raise ProtocolError("path must have at least one hop")
    by_node: dict[str, list] = {}
    for (node, qubit), bit in request.controls:
        if node not in path.nodes:
            raise ProtocolError(f"control node {node!r} is not on the path")
        if node == path.end:
            raise ProtocolError("controls at the target node are unsupported")
        by_node.setdefault(node, []).append(((node, qubit), bit))
    if not by_node:
        raise ProtocolError("at least one control qubit required")
    if path.start not in by_node:
        raise ProtocolError("the path must start at a control node")
    if request.targets[0][0] != path.end:
        raise ProtocolError("target qubits must sit at the path end")

    visits: list = []
    _path_visits(visits, path.nodes, controls=by_node,
                 gates={path.end: _data_gate(request)})
    return _compile(name, graph, visits, [request], {"arrival": {path.end: path.hops}},
                    measure)


def schedule_remote_cu(
    graph, request: OracleGate, path: PathSpec, separation: str = "reverse"
) -> CompiledProtocol:
    """Remote controlled gate over one path, walker 0 as carrier: the
    `remote_mcu` walk with every control at the path start, separated by
    reversal or by `separate_measure`."""
    if any(node != path.start for (node, _), _ in request.controls) or not request.controls:
        raise ProtocolError("remote_cu needs all control qubits at the path start")
    if separation not in ("reverse", "measure"):
        raise ProtocolError(f"unknown separation {separation!r}")
    measure = None
    if separation == "measure":
        if len(request.controls) != 1 or request.controls[0][1] != 1:
            raise ProtocolError(
                "measure separation supports a single plain control qubit"
            )
        measure = (path.start, path.end, request.controls[0][0][1])
    return _single_path("remote_cu", graph, request, path, measure)


def schedule_multi_control(graph, request: OracleGate, path: PathSpec) -> CompiledProtocol:
    """Controlled gate whose control qubits live at several nodes visited
    in order along the path; reverse separation only."""
    return _single_path("remote_mcu", graph, request, path)


def separate_measure(graph, layout, a_node, b_node, correction_qubit, walker=0) -> OperatorSpec:
    """Measurement separation for a single-path controlled gate: measure
    the walker's vertex bits in X where the two end vertex ids differ and
    in Z elsewhere, and its coin bits in Z. An odd X parity calls for a Z
    on `correction_qubit` at `a_node`, and `params` name the X positions
    and that bit. By deferred measurement the Z is the op's one action,
    applied before the measurement: where the qubit is 1, the walker's
    vertex bits that differ between the ends flip, which exchanges
    `a_node` and `b_node`."""
    a_id, b_id = graph.vertex_id(a_node), graph.vertex_id(b_node)
    if a_id == b_id:
        raise ProtocolError("measurement separation needs two distinct nodes")
    diff = a_id ^ b_id
    flips = [(diff >> (layout.nv - 1 - offset)) & 1 for offset in range(layout.nv)]
    qubits = [*layout.vertex_bit_positions(walker), *layout.coin_bit_positions(walker)]
    correct_bit = layout.data_bit(a_node, correction_qubit)
    params = {
        "qubits": qubits,
        "bases": "".join("X" if f else "Z" for f in flips) + "Z" * layout.nc,
        "parity_positions": [i for i, f in enumerate(flips) if f],
        "correct_bit": correct_bit,
        "allowed_vertices": [a_node, b_node],
        "walker": walker,
    }
    swap = _read_only(np.arange(1 << layout.walker_bits, dtype=np.int64) ^ (diff << layout.nc))
    return OperatorSpec("measure", params, layout,
                        actions=(PermAction(walker, swap, (((correct_bit,), 1),)),))


# -- parallel propagation -------------------------------------------------


def _shared_controls(requests, root):
    """The control qubits of `requests`, which they must all share, all at
    `root`, the node the walk fans out from."""
    if not requests:
        raise ProtocolError("at least one gate request required")
    controls = requests[0].controls
    for req in requests:
        if req.controls != controls:
            raise ProtocolError("all gates must share the same control qubits")
    if not controls or any(node != root for (node, _), _ in controls):
        raise ProtocolError("control qubits must sit at the shared start node")
    return controls


def schedule_multipath(graph, requests, paths) -> CompiledProtocol:
    """One walker per path, fanned out from the shared control node. Gates
    apply on arrival, so the oracle takes them by path length, stably."""
    if len(requests) != len(paths) or not paths:
        raise ProtocolError("one gate request per path required")
    A = paths[0].start
    for p in paths:
        if p.start != A:
            raise ProtocolError("all paths must share the control node")
        if p.hops < 1:
            raise ProtocolError("each path must have at least one hop")
    controls = _shared_controls(requests, A)
    for req, p in zip(requests, paths):
        if req.targets[0][0] != p.end:
            raise ProtocolError("each target must sit at its path end")
    first_hops = [p.nodes[1] for p in paths]
    if len(set(first_hops)) != len(first_hops):
        raise ProtocolError("paths must leave the control node over distinct edges")

    visits = [_Visit(A, controls=controls)]
    for req, p in zip(requests, paths):
        _path_visits(visits, p.nodes[1:], 0, gates={p.end: _data_gate(req)})
    oracle_gates = [req for req, _ in sorted(zip(requests, paths), key=lambda rp: rp[1].hops)]
    return _compile("multipath", graph, visits, oracle_gates,
                    {"arrival": {p.end: p.hops for p in paths}})


def schedule_tree(graph, tree: TreeSpec, requests) -> CompiledProtocol:
    """Tree propagation: pass-through coins at chain nodes, fan-outs at
    branch nodes, one walker per leaf. The requests share their controls,
    at the tree root, and each targets its own non-root tree node, where
    its gate applies on arrival; the oracle takes them in request order.
    The visits are the tree's nodes in its own order, so a node's walker
    reaches it at the node's depth."""
    controls = _shared_controls(requests, tree.root)
    gates = {}
    for req in requests:
        v = req.targets[0][0]
        if v not in tree.nodes:
            raise ProtocolError(f"target node {v!r} is outside the tree")
        if v == tree.root:
            raise ProtocolError("target at the control node needs no propagation")
        if v in gates:
            raise ProtocolError(f"duplicate target node {v!r}")
        gates[v] = _data_gate(req)

    visits = [_Visit(tree.root, controls=controls)]
    visits += [_Visit(v, p, gates=tuple(gates.get(v, ())))
               for v, p in zip(tree.nodes[1:], tree.parents[1:])]
    depth, _, walker, inits = _forest(visits)
    return _compile("tree", graph, visits, list(requests), {
        "arrival": dict(zip(tree.nodes[1:], depth[1:])),
        "walker_of": dict(zip(tree.nodes, walker)),
        "spawn_node": {w: inits[w][0] for w in range(1, len(inits))},
    })


# -- entanglement distribution -------------------------------------------


def schedule_ghz_path(graph, paths, qubit_sets) -> CompiledProtocol:
    """GHZ distribution: the oracle's circuit at each path start (H on the
    first member, then a CNOT from it to each other member there), then a
    walk whose arrival at each later node X-flips that node's members, one
    X each.

    qubit_sets: one {node: [qubit names]} per path; sets must be disjoint
    across paths and each path start must contribute at least one qubit.
    The walker launches on the first start qubit, which the prep leaves as
    H made it, so all members get the oracle's CNOT from it, from any init."""
    if len(paths) != len(qubit_sets) or not paths:
        raise ProtocolError("one qubit map per path required")
    seen: dict[tuple[str, str], int] = {}  # qubit -> index of its path
    for i, (p, qmap) in enumerate(zip(paths, qubit_sets)):
        if p.start not in qmap or not qmap[p.start]:
            raise ProtocolError("each path start must contribute at least one qubit")
        for v, qnames in qmap.items():
            if v not in p.nodes:
                raise ProtocolError(f"qubit node {v!r} is not on its path")
            for q in qnames:
                if q not in graph.qubits_at(v):
                    raise ProtocolError(f"qubit {q!r} not declared at node {v!r}")
                if (v, q) in seen:
                    why = "listed twice in one path" if seen[v, q] == i else "used by two paths"
                    raise ProtocolError(f"qubit {(v, q)!r} {why}")
                seen[v, q] = i

    x1 = GATE_LIBRARY["X"]
    visits: list = []
    oracle_gates = []
    for p, qmap in zip(paths, qubit_sets):
        first, *others = qmap[p.start]
        path_gates = {v: [([q], x1) for q in qmap.get(v, ())] for v in p.nodes[1:]}
        path_gates[p.start] = [([first], HADAMARD)] + [([first, q], CNOT) for q in others]
        launch = {p.start: [((p.start, first), 1)]}
        _path_visits(visits, p.nodes, controls=launch, gates=path_gates)
        root, *members = [(v, q) for v in p.nodes for q in qmap.get(v, [])]
        oracle_gates.append(OracleGate((), (root,), HADAMARD))
        for other in members:
            oracle_gates.append(OracleGate(((root, 1),), (other,), x1))
    return _compile("ghz_path", graph, visits, oracle_gates,
                    {"arrival": {p.end: p.hops for p in paths}})


def schedule_linklevel(graph, couple: dict | None = None) -> CompiledProtocol:
    """One walker per proper edge: a two-level coin then a single flip-flop
    shift entangles each walker across its edge.

    couple: optional {(u, v): (qubit_at_u, qubit_at_v)}, at most one entry
    per edge; a coupled edge's walker starts at u, other walkers at the
    lower label of their edge. Coupled edges additionally receive a
    data-plane Bell pair, after which the walker is returned and
    disentangled (two more timesteps, one of them a flip-flop). The pair
    is built from |0> on qubit_at_u, so that qubit is listed in
    `fresh_qubits`. Errors name an edge by its sorted labels."""
    edges = graph.edges()
    if not edges:
        raise ProtocolError("graph has no proper edges")
    layout = RegisterLayout.for_network(graph, len(edges))
    pairs = {}  # sorted edge -> (u, v, qubit_at_u, qubit_at_v)
    coupled_qubits = set()
    for (u, v), (qu, qv) in (couple or {}).items():
        edge = tuple(sorted((u, v)))
        if edge not in edges:
            raise ProtocolError(f"coupled pair {edge!r} is not a network edge")
        if qu not in graph.qubits_at(u) or qv not in graph.qubits_at(v):
            raise ProtocolError(f"coupling qubits for edge {edge!r} are not local")
        for qubit in ((u, qu), (v, qv)):
            if qubit in coupled_qubits:
                raise ProtocolError(f"data qubit {qubit!r} is in two couplings")
            coupled_qubits.add(qubit)
        pairs[edge] = (u, v, qu, qv)

    hmat = HADAMARD
    x1 = GATE_LIBRARY["X"]
    t0_ops, t1_ops, t2_ops = [], [], []
    coupled_walkers = []
    oracle_gates = []
    inits = []
    for w, edge in enumerate(edges):
        u, v, qu, qv = pairs.get(edge, (*edge, None, None))
        c_uv = graph.port_of(u, v)
        inits.append((u, 0))
        t0_ops.append(make_coin_block(graph, layout, u, [0, c_uv], hmat, w))
        if qu is not None:
            t0_ops.append(
                make_coin_controlled_data(graph, layout, u, [qu], x1, w, coin=c_uv)
            )
            t1_ops.append(make_coin_controlled_data(graph, layout, v, [qv], x1, w))
            t2_ops.append(
                make_data_controlled_coin(graph, layout, u, [qu], "1", (0, c_uv), w)
            )
            coupled_walkers.append(w)
            oracle_gates.append(OracleGate((), ((u, qu),), hmat))
            oracle_gates.append(OracleGate((((u, qu), 1),), ((v, qv),), x1))

    steps = [Timestep(t0_ops, make_flipflop_shift(graph, layout))]
    if coupled_walkers:
        steps.append(
            Timestep(t1_ops, make_flipflop_shift(graph, layout, coupled_walkers))
        )
        steps.append(Timestep(t2_ops, make_identity_shift(layout)))
    return CompiledProtocol(
        name="linklevel",
        layout=layout,
        schedule=Schedule(steps),
        walker_inits=inits,
        oracle_gates=oracle_gates,
        meta={
            "edges": [list(e) for e in edges],
            "entangling_shifts": 1,
            "coupled": sorted(pairs),
        },
        # the walker-controlled X at u makes its half of the pair from |0>
        fresh_qubits=tuple((u, qu) for u, _, qu, _ in pairs.values()),
    )


# -- execution ------------------------------------------------------------


def run_schedule(
    state: StateVector,
    sched: Schedule,
    graph: NetworkGraph,
    rng=None,
) -> tuple[StateVector, RunTrace]:
    """Apply each timestep (coins/interactions, then the shift), then the
    terminal measurement if present: its actions, the correction deferred
    to before the measurement, then `measure`, which samples one branch
    with `rng` and keeps them all without. Records per-step walker
    supports and the measured branches."""

    def supports(s):
        return {
            j: {graph.label_of(v) for v in vertices}
            for j, vertices in enumerate(walker_vertex_support(s))
        }

    initial, steps, branches = supports(state), [], None
    for ts in sched.timesteps:
        for op in ts.pre_ops:
            state = apply_operator(state, op)
        state = apply_operator(state, ts.shift)
        steps.append(supports(state))

    if sched.measure is not None:
        params = sched.measure.params
        allowed = set(params["allowed_vertices"])
        found = steps[-1] if steps else initial
        if not found[params["walker"]] <= allowed:
            raise ProtocolError(
                "measurement separation precondition violated: walker support "
                f"{sorted(found[params['walker']])} outside {sorted(allowed)}"
            )
        branches = measure(apply_actions(state, sched.measure.actions),
                           params["qubits"], params["bases"], rng)
        state = branches[0][1]
    return state, RunTrace(initial, steps, branches)
