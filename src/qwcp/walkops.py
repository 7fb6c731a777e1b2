"""Constructors for every walk-control unitary, plus schedules.

Each constructor validates its inputs against the graph and lowers the
operator to register permutations and controlled blocks that the state
engine applies directly. Specs carry JSON-able parameters, from which
the report renders each schedule.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .netgraph import NetworkGraph
from .statevec import BlockAction, PermAction, RegisterLayout

UNITARY_TOL = 1e-12


class OperatorError(ValueError):
    """Invalid operator construction."""


class OperatorSpec(NamedTuple):
    """Tagged description of one unitary step (or terminal instrument).

    kinds: shift, coinperm, coinblock, datactrl, coindata, interact,
    fanout (its parts' actions in order), measure (terminal instrument,
    built by `protocols.separate_measure`).
    """

    kind: str
    params: dict
    layout: RegisterLayout
    actions: tuple = ()

    def iter_actions(self):
        return iter(self.actions)


class Timestep(NamedTuple):
    pre_ops: list
    shift: OperatorSpec


class Schedule(NamedTuple):
    """Time-ordered operator list: per timestep, coins/interactions then
    exactly one shift; an optional measurement may only appear at the end."""

    timesteps: list
    measure: OperatorSpec | None = None


# -- helpers --------------------------------------------------------------


def _check_unitary(matrix: np.ndarray, what: str) -> None:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise OperatorError(f"{what} must be a square matrix")
    eye = np.eye(matrix.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        error = np.abs(matrix.conj().T @ matrix - eye).max()
    # `not <=` so that a NaN error (from a NaN or infinite entry), which
    # compares false against any tolerance, is rejected too
    if not error <= UNITARY_TOL:
        raise OperatorError(f"{what} is not unitary")


def _check_coin(graph: NetworkGraph, v: str, c: int) -> None:
    if not 0 <= c < graph.port_count(v):
        raise OperatorError(f"coin {c} invalid at node {v!r}")


def _embed_coin_matrix(layout: RegisterLayout, coins, matrix) -> np.ndarray:
    """Place a small coin-space unitary inside the 2^nc coin register."""
    coins = list(coins)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (len(coins), len(coins)):
        raise OperatorError("coin matrix size does not match coin list")
    if len(set(coins)) != len(coins):
        raise OperatorError("repeated coin index in block")
    dim = 1 << layout.nc
    if any(not 0 <= c < dim for c in coins):
        raise OperatorError("coin index outside coin register")
    full = np.eye(dim, dtype=complex)
    full[np.ix_(coins, coins)] = matrix
    return full


def _matrix_to_json(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, dtype=complex)]


def _read_only(table: np.ndarray) -> np.ndarray:
    """`table`, locked against writes: a PermAction's table may be shared."""
    table.flags.writeable = False
    return table


def _coin_swap(graph, layout, v, swap, walker, conditions=()) -> PermAction:
    """The walker's register remap exchanging codes (v, c1) and (v, c2),
    `swap` = (c1, c2) both valid at vertex v, on the entries that meet
    `conditions` (bits outside the walker's register)."""
    vid = graph.vertex_id(v)
    c1, c2 = swap
    _check_coin(graph, v, c1)
    _check_coin(graph, v, c2)
    layout._check_walker(walker)
    perm = np.arange(1 << layout.walker_bits, dtype=np.int64)
    a, b = (vid << layout.nc) | c1, (vid << layout.nc) | c2
    perm[a], perm[b] = b, a
    return PermAction(walker, _read_only(perm), tuple(conditions))


# -- constructors ---------------------------------------------------------


def make_flipflop_shift(graph, layout, walkers=None) -> OperatorSpec:
    """Edge-reversing shift |v, c_vu> -> |u, c_uv| on the listed walkers.

    Self-loops are fixed points; codes that are not edges of the graph
    are left alone, so the permutation is total on the register."""
    walkers = sorted(range(layout.k)) if walkers is None else sorted(set(walkers))
    for j in walkers:
        layout._check_walker(j)
    reg = 1 << layout.walker_bits
    perm = list(range(reg))
    for v in graph.nodes:
        vid = graph.vertex_id(v)
        for c in range(graph.port_count(v)):
            u = graph.neighbor_of_port(v, c)
            c_back = graph.port_of(u, v)
            perm[(vid << layout.nc) | c] = (graph.vertex_id(u) << layout.nc) | c_back
    if sorted(perm) != list(range(reg)):
        raise OperatorError("flip-flop map is not a bijection; bad port tables")
    table = _read_only(np.array(perm, dtype=np.int64))  # one table for every walker
    return OperatorSpec(
        kind="shift",
        params={"mode": "flipflop", "walkers": list(walkers)},
        layout=layout,
        actions=tuple(PermAction(j, table) for j in walkers),
    )


def make_identity_shift(layout) -> OperatorSpec:
    return OperatorSpec("shift", {"mode": "identity", "walkers": []}, layout)


def make_coin_perm(graph, layout, v, c1, c2, walker) -> OperatorSpec:
    """Swap coin values c1 and c2 at vertex v only, for one walker."""
    return OperatorSpec(
        kind="coinperm",
        params={"node": v, "c1": c1, "c2": c2, "walker": walker},
        layout=layout,
        actions=(_coin_swap(graph, layout, v, (c1, c2), walker),),
    )


def make_coin_block(graph, layout, v, coins, matrix, walker) -> OperatorSpec:
    """Coin unitary `matrix` on the listed coins of one walker at vertex v;
    every other vertex and coin is left alone."""
    layout._check_walker(walker)
    vid = graph.vertex_id(v)
    for c in coins:
        _check_coin(graph, v, c)
    _check_unitary(matrix, f"coin block at {v!r}")
    action = BlockAction(
        target_bits=layout.coin_bit_positions(walker),
        matrix=_embed_coin_matrix(layout, coins, matrix),
        conditions=((layout.vertex_bit_positions(walker), vid),),
    )
    return OperatorSpec(
        kind="coinblock",
        params={
            "assignments": {v: [list(coins), _matrix_to_json(matrix)]},
            "walker": walker,
        },
        layout=layout,
        actions=(action,),
    )


def make_data_controlled_coin(graph, layout, v, controls, s, swap, walker) -> OperatorSpec:
    """Swap of coins `swap` = (c1, c2) at vertex v, applied iff the
    control qubits (all local to v) are in computational pattern s."""
    graph.vertex_id(v)  # an unknown node is reported before any other fault
    layout._check_walker(walker)
    controls = list(controls)
    if len(s) != len(controls) or any(ch not in "01" for ch in s):
        raise OperatorError("control pattern must be a bit string matching controls")
    if not controls:
        raise OperatorError("at least one control qubit required")
    local = graph.qubits_at(v)
    for i, name in enumerate(controls):
        if name not in local:
            raise OperatorError(f"control qubit {name!r} is not at node {v!r}")
        if name in controls[:i]:
            raise OperatorError(f"control qubit {name!r} listed twice")
    conditions = [((layout.data_bit(v, name),), int(bit)) for name, bit in zip(controls, s)]
    return OperatorSpec(
        kind="datactrl",
        params={
            "node": v,
            "controls": controls,
            "s": s,
            "walker": walker,
            "permutation": True,
            "action": ["swap", *swap],
        },
        layout=layout,
        actions=(_coin_swap(graph, layout, v, swap, walker, conditions),),
    )


def make_coin_controlled_data(graph, layout, v, qubits, matrix, walker, coin=None) -> OperatorSpec:
    """Unitary on v's data qubits where the walker sits at vertex v.

    coin: optionally restrict to one coin value."""
    vid = graph.vertex_id(v)
    layout._check_walker(walker)
    qubits = list(qubits)
    if not qubits or len(set(qubits)) != len(qubits):
        raise OperatorError("data target list must be nonempty and distinct")
    local = graph.qubits_at(v)
    for name in qubits:
        if name not in local:
            raise OperatorError(f"data qubit {name!r} is not at node {v!r}")
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (1 << len(qubits),) * 2:
        raise OperatorError("data unitary size does not match qubit count")
    _check_unitary(matrix, f"data unitary at {v!r}")
    conditions = [(layout.vertex_bit_positions(walker), vid)]
    if coin is not None:
        _check_coin(graph, v, coin)
        conditions.append((layout.coin_bit_positions(walker), coin))
    action = BlockAction(
        target_bits=tuple(layout.data_bit(v, name) for name in qubits),
        matrix=matrix,
        conditions=tuple(conditions),
    )
    params = {
        "node": v,
        "qubits": qubits,
        "matrix": _matrix_to_json(matrix),
        "walker": walker,
        "coin": coin,
    }
    return OperatorSpec("coindata", params, layout, actions=(action,))


def make_walk_interaction(
    graph, layout, v, coin, swap, control_walker, target_walker
) -> OperatorSpec:
    """Swap of coins `swap` = (c1, c2) on the target walker, applied iff
    the control walker is at (v, coin) and the target walker is at
    vertex v."""
    if control_walker == target_walker:
        raise OperatorError("interaction needs two distinct walkers")
    vid = graph.vertex_id(v)
    layout._check_walker(control_walker)
    layout._check_walker(target_walker)
    _check_coin(graph, v, coin)
    conditions = (
        (layout.vertex_bit_positions(control_walker), vid),
        (layout.coin_bit_positions(control_walker), coin),
    )
    return OperatorSpec(
        kind="interact",
        params={
            "node": v,
            "coin": coin,
            "control": control_walker,
            "target": target_walker,
            "permutation": True,
            "action": ["swap", *swap],
        },
        layout=layout,
        actions=(_coin_swap(graph, layout, v, swap, target_walker, conditions),),
    )


def make_fanout(graph, layout, v, coin, successors, walkers) -> OperatorSpec:
    """Composed control fan-out: one interaction per helper walker, then a
    coin relabel sending the incoming walker toward the first successor.

    Helper walkers must have been initialized at |v, self-loop>."""
    successors = list(successors)
    walkers = list(walkers)
    if len(successors) != len(walkers) or not successors:
        raise OperatorError("one walker per successor required")
    if len(set(successors)) != len(successors):
        raise OperatorError("duplicate successor in fan-out")
    if len(set(walkers)) != len(walkers):
        raise OperatorError("duplicate walker in fan-out")
    _check_coin(graph, v, coin)
    for u in successors:
        if u not in graph.neighbors(v):
            raise OperatorError(f"fan-out successor {u!r} is not adjacent to {v!r}")
    lead = walkers[0]
    parts = [
        make_walk_interaction(
            graph, layout, v, coin, (0, graph.port_of(v, u)), lead, w
        )
        for u, w in zip(successors[1:], walkers[1:])
    ]
    first_port = graph.port_of(v, successors[0])
    if first_port != coin:
        parts.append(make_coin_perm(graph, layout, v, coin, first_port, lead))
    return OperatorSpec(
        kind="fanout",
        params={
            "node": v,
            "coin": coin,
            "successors": successors,
            "walkers": walkers,
        },
        layout=layout,
        actions=tuple(act for part in parts for act in part.actions),
    )


# -- inversion ------------------------------------------------------------


def invert_operator(op: OperatorSpec) -> OperatorSpec:
    if op.kind == "measure":
        raise OperatorError("a measurement has no inverse")
    inverses = [
        PermAction(act.walker, _read_only(np.argsort(act.perm, kind="stable")), act.conditions)
        if isinstance(act, PermAction)
        else BlockAction(act.target_bits, act.matrix.conj().T, act.conditions)
        for act in op.actions
    ]
    # a fan-out is never self-inverse: its `inverted` flag always toggles
    self_inverse = op.kind != "fanout" and len(inverses) <= 1 and all(
        np.array_equal(act.perm, inv.perm) if isinstance(act, PermAction)
        else np.abs(act.matrix - inv.matrix).max() <= UNITARY_TOL
        for act, inv in zip(op.actions, inverses)
    )
    params = op.params if self_inverse else {**op.params, "inverted": not op.params.get("inverted", False)}
    return OperatorSpec(op.kind, params, op.layout, actions=tuple(reversed(inverses)))


def invert_schedule(sched: Schedule) -> Schedule:
    """Reverse a measurement-free schedule, inverting every operator.

    The result is regrouped so each timestep still carries exactly one
    shift; its first timestep has no pre-shift operators and its last
    shift is the identity."""
    if sched.measure is not None:
        raise OperatorError("cannot invert a schedule containing a measurement")
    if not sched.timesteps:
        return Schedule([])
    layout = sched.timesteps[0].shift.layout
    inv_pre = [
        [invert_operator(op) for op in reversed(ts.pre_ops)] for ts in sched.timesteps
    ]
    inv_shift = [invert_operator(ts.shift) for ts in sched.timesteps]
    steps = [Timestep([], inv_shift[-1])]
    for i in range(len(sched.timesteps) - 1, 0, -1):
        steps.append(Timestep(inv_pre[i], inv_shift[i - 1]))
    steps.append(Timestep(inv_pre[0], make_identity_shift(layout)))
    return Schedule(steps)


# -- JSON rendering -----------------------------------------------------


def operator_to_json(op: OperatorSpec) -> dict:
    return {"kind": op.kind, **op.params}


def schedule_to_json(sched: Schedule) -> dict:
    return {
        "timesteps": [
            {
                "ops": [operator_to_json(op) for op in ts.pre_ops],
                "shift": operator_to_json(ts.shift),
            }
            for ts in sched.timesteps
        ],
        "measure": operator_to_json(sched.measure) if sched.measure else None,
    }
