"""Property test: every valid protocol request verifies.

A random connected network (2 to 7 nodes, 1 or 2 data qubits per node)
and a random valid request for one of the six protocol commands run
through `qwcp.cli.main`. Paths are random simple walks, trees random
subtrees, gates library names or random 2x2 unitaries, and data qubits
start in a random one of 0, 1, + and -. Every run must exit 0 with
`passed: true`, and a reverse-separated run must end with the walker
supports it started with. A layout over the bit cap must exit 3 with the
cap message; hypothesis counts it as an event, and it never counts as a
pass.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qwcp import GATE_LIBRARY, load_network
from qwcp.cli import main
from qwcp.statevec import MAX_TOTAL_BITS

from conftest import network_json

PROTOCOLS = ["remote_cu", "remote_mcu", "multipath", "tree", "ghz_path", "linklevel"]


@st.composite
def networks(draw):
    """(labels, edges, {node: qubit names}): a random spanning tree keeps
    the graph connected, and up to n further edges close cycles."""
    n = draw(st.integers(2, 7))
    labels = [f"N{i}" for i in range(n)]
    edges = {(labels[draw(st.integers(0, i - 1))], labels[i]) for i in range(1, n)}
    others = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
              if (u, v) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=n, unique=True)))
    qubits = {v: ["a", "b"][:draw(st.integers(1, 2))] for v in labels}
    return labels, sorted(edges), qubits


def unitary_text(draw) -> str:
    """A library gate, or a random 2x2 unitary as U[...] column by column."""
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted(GATE_LIBRARY)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return "U[" + ";".join(
        ",".join(repr(part) for z in u[:, j].tolist() for part in (z.real, z.imag))
        for j in range(2)
    ) + "]"


@st.composite
def requests(draw, kind):
    """(network text, script lines, walker count, reverse separated?)."""
    labels, edges, qubits = draw(networks())
    adjacent = {v: sorted({u for e in edges if v in e for u in e} - {v}) for v in labels}

    def walk(path, max_hops=6):
        """`path` extended by a random simple walk of 0 to max_hops hops."""
        path = list(path)
        for _ in range(draw(st.integers(0, max_hops))):
            onward = [u for u in adjacent[path[-1]] if u not in path]
            if not onward:
                break
            path.append(draw(st.sampled_from(onward)))
        return path

    def qubit(node):
        return f"{node}.{draw(st.sampled_from(qubits[node]))}"

    def controls(node):
        names = draw(st.permutations(qubits[node]))[:draw(st.integers(1, len(qubits[node])))]
        bits = "".join(draw(st.sampled_from("01")) for _ in names)
        return ",".join(f"{node}.{q}" for q in names), bits

    fresh = set()
    reverse = True
    start = draw(st.sampled_from(labels))
    if kind == "remote_cu":
        path = walk([start, draw(st.sampled_from(adjacent[start]))])
        if draw(st.booleans()):
            reverse = False
            line, k = f"control={qubit(start)} separation=measure", 1
        else:
            refs, bits = controls(start)
            line, k = f"control={refs} string={bits}", 1
        line += f" target={qubit(path[-1])} path={','.join(path)} gate={unitary_text(draw)}"
    elif kind == "remote_mcu":
        path = walk([start, draw(st.sampled_from(adjacent[start]))])
        refs = [qubit(start)] + [qubit(v) for v in path[1:-1] if draw(st.booleans())]
        refs = list(dict.fromkeys(refs))
        bits = "".join(draw(st.sampled_from("01")) for _ in refs)
        line = (f"controls={','.join(refs)} string={bits} target={qubit(path[-1])} "
                f"path={','.join(path)} gate={unitary_text(draw)}")
        k = 1
    elif kind == "multipath":
        first = draw(st.lists(st.sampled_from(adjacent[start]), min_size=1, max_size=3,
                              unique=True))
        refs, bits = controls(start)
        line = f"control={refs} string={bits}"
        for hop in first:
            path = walk([start, hop], max_hops=3)
            line += f" path={','.join(path)} target={qubit(path[-1])} gate={unitary_text(draw)}"
        k = len(first)
    elif kind == "tree":
        tree_nodes, tree_edges = [start], []
        for _ in range(draw(st.integers(1, len(labels) - 1))):
            grow = [(u, v) for u in tree_nodes for v in adjacent[u] if v not in tree_nodes]
            if not grow:
                break
            u, v = draw(st.sampled_from(grow))
            tree_nodes.append(v)
            tree_edges.append((u, v))
        targets = draw(st.lists(st.sampled_from(tree_nodes[1:]), min_size=1, unique=True))
        refs, bits = controls(start)
        line = f"control={refs} string={bits} edges=" + ",".join(f"{u}>{v}" for u, v in tree_edges)
        line += "".join(f" target={qubit(v)} gate={unitary_text(draw)}" for v in targets)
        parents = {u for u, _ in tree_edges}
        k = sum(v not in parents for v in tree_nodes[1:])
    elif kind == "ghz_path":
        used, line, k = set(), "", 0
        for _ in range(draw(st.integers(1, 2))):
            path = walk([draw(st.sampled_from(labels))], max_hops=3)
            free = {v: [q for q in qubits[v] if (v, q) not in used] for v in path}
            if not free[path[0]]:
                continue
            members = [(path[0], draw(st.sampled_from(free[path[0]])))]
            members += [(v, q) for v in path for q in free[v]
                        if (v, q) not in members and draw(st.booleans())]
            used.update(members)
            line += (f" path={','.join(path)} qubits="
                     + ",".join(f"{v}.{q}" for v, q in members))
            k += 1
    else:
        reverse, line, k = False, "", len(edges)
        coupled = set()
        for u, v in draw(st.lists(st.sampled_from(edges), unique=True, max_size=3)):
            qu = [q for q in qubits[u] if (u, q) not in coupled]
            qv = [q for q in qubits[v] if (v, q) not in coupled]
            if qu and qv:
                pair = (u, draw(st.sampled_from(qu))), (v, draw(st.sampled_from(qv)))
                coupled.update(pair)
                fresh.add(pair[0])  # the Bell pair is built from |0> here
                line += f" couple={u},{pair[0][1]}:{v},{pair[1][1]}"

    inits = [f"init {v}.{q}={draw(st.sampled_from('01+-'))}"
             for v in labels for q in qubits[v]
             if (v, q) not in fresh and draw(st.booleans())]
    network = network_json(labels, edges, qubits)
    return network, [*inits, f"{kind} {line.strip()}".rstrip()], k, reverse


@pytest.mark.parametrize("kind", PROTOCOLS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_valid_request_verifies(kind, data):
    network, lines, k, reverse = data.draw(requests(kind))
    graph = load_network(network)
    bits = k * (graph.vertex_bits() + graph.coin_bits()) + sum(
        len(graph.qubits_at(v)) for v in graph.nodes
    )
    with tempfile.TemporaryDirectory() as tmp:
        net, script, out = Path(tmp, "net.json"), Path(tmp, "script.qw"), Path(tmp, "r.json")
        net.write_text(network)
        script.write_text("\n".join([f"network {net}", *lines]) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(script), "--out", str(out)])
        if bits > MAX_TOTAL_BITS:
            event("layout over the bit cap")
            assert code == 3 and f"cap is {MAX_TOTAL_BITS}" in err.getvalue(), lines
            return
        assert code == 0, (lines, err.getvalue())
        report = json.loads(out.read_text())
    assert report["passed"] is True, lines
    if reverse:
        supports = report["supports"]
        assert supports["timesteps"][-1] == supports["initial"], lines
