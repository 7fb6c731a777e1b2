"""Property test: every valid protocol request verifies.

A random connected network (2 to 7 nodes, 1 to 4 data qubits per node)
and a random valid request for one of the six protocol commands run
through `qwcp.cli.main`. Paths are random simple walks, trees random
subtrees, gates library names or random 2x2 unitaries, and data qubits
start in a random one of 0, 1, + and -. Every run must exit 0 with
`passed: true`, and a reverse-separated run must end with the walker
supports it started with. The compiled request must also pass
`process_check`, which compares it with the oracle on every input at
once, whenever its layout plus one reference qubit per touched data
qubit fits the bit cap. A single-path request with every control at
the path start compiles to the same walk as `remote_cu` with reverse
separation and as `remote_mcu`. A layout over the bit cap must exit 3
with the cap message; hypothesis counts it as an event, and it never
counts as a pass. Two metamorphic variants of a drawn request, its nodes
renamed and a leaf with an unused |+> qubit added, must give the same
verdict.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qwcp import GATE_LIBRARY, load_network, schedule_to_json
from qwcp.cli import _compile_remote_gate, main, parse_script
from qwcp.statevec import MAX_TOTAL_BITS

from conftest import network_json
from instruments import process_check

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
    qubits = {v: ["a", "b", "c", "d"][:draw(st.integers(1, 4))] for v in labels}
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


def layout_bits(network, walkers):
    graph = load_network(network)
    return walkers * (graph.vertex_bits() + graph.coin_bits()) + sum(
        len(graph.qubits_at(v)) for v in graph.nodes
    )


def run(network, lines, dump=False):
    """(exit code, report or None, dump line count or None, stderr) of one
    `main` run of the script `lines` on `network`."""
    with tempfile.TemporaryDirectory() as tmp:
        net, script, out, state = (
            Path(tmp, f) for f in ("net.json", "script.qw", "r.json", "d.txt")
        )
        net.write_text(network)
        script.write_text("\n".join([f"network {net}", *lines]) + "\n")
        argv = ["run", str(script), "--out", str(out)]
        if dump:
            argv += ["--dump-state", str(state)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        report = json.loads(out.read_text()) if out.exists() else None
        count = state.read_bytes().count(b"\n") if state.exists() else None
    return code, report, count, err.getvalue()


@pytest.mark.parametrize("kind", PROTOCOLS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_valid_request_verifies(kind, data):
    network, lines, k, reverse = data.draw(requests(kind))
    code, report, _, err = run(network, lines)
    if layout_bits(network, k) > MAX_TOTAL_BITS:
        event("layout over the bit cap")
        assert code == 3 and f"cap is {MAX_TOTAL_BITS}" in err, lines
        return
    assert code == 0, (lines, err)
    assert report["passed"] is True, lines
    if reverse:
        supports = report["supports"]
        assert supports["timesteps"][-1] == supports["initial"], lines
    check = process_check(network, lines[-1])
    if check is None:
        event("process check over the bit cap")
    else:
        assert check.passed, (lines, check.data_fidelity, check.walker_purity)
    if kind in ("remote_cu", "remote_mcu"):
        assert_single_path_merge(network, lines[-1])


def assert_single_path_merge(network, line):
    """With every control at the path start, a `remote_cu` or `remote_mcu`
    request compiles as `remote_cu` with reverse separation and as
    `remote_mcu` to the same schedule, walker inits, meta, layout and
    oracle gates; only the name differs."""
    (_, args, _), = parse_script(line).commands
    kv = dict(args)
    refs = kv.get("control") or kv["controls"]
    if any(ref.rpartition(".")[0] != kv["path"].split(",")[0] for ref in refs.split(",")):
        return
    event("single-path merge checked")
    rest = [(k, v) for k, v in args if k not in ("control", "controls", "separation")]
    graph = load_network(network)
    cu = _compile_remote_gate(graph, [("control", refs), *rest], 1)
    mcu = _compile_remote_gate(graph, [("controls", refs), *rest], 1, multi=True)
    assert (cu.name, mcu.name) == ("remote_cu", "remote_mcu")
    assert schedule_to_json(cu.schedule) == schedule_to_json(mcu.schedule), line
    assert (cu.walker_inits, cu.meta, cu.layout) == (mcu.walker_inits, mcu.meta, mcu.layout)
    assert len(cu.oracle_gates) == len(mcu.oracle_gates) == 1
    (a,), (b,) = cu.oracle_gates, mcu.oracle_gates
    assert (a.controls, a.targets) == (b.controls, b.targets)
    assert np.array_equal(a.matrix, b.matrix)


def assert_same_verdict(got, want, lines):
    """Same exit code and `passed`; fidelity and purity within 1e-12."""
    assert got[0] == want[0], (lines, got[3])
    assert got[1]["passed"] == want[1]["passed"], lines
    for key in ("fidelity_vs_oracle", "walker_purity"):
        assert abs(got[1][key] - want[1][key]) <= 1e-12, (key, lines)


@pytest.mark.parametrize("kind", PROTOCOLS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_relabelled_or_extended_request_agrees(kind, data):
    """Metamorphic checks. Renaming the nodes through a random bijection
    reorders the vertex ids and ports the walks use; adding a leaf node
    that holds one unused qubit in |+> renumbers them too. Neither may
    change the verdict. A reverse-separated walker ends in its start
    position, so the leaf at most doubles the dump; a measure separation
    puts back in superposition the vertex bits that differ between two
    positions, which depend on the vertex ids, and linklevel runs one
    more walker, on the leaf's edge."""
    network, lines, k, reverse = data.draw(requests(kind))
    if layout_bits(network, k) > MAX_TOTAL_BITS:
        return
    want = run(network, lines, dump=reverse)

    doc = json.loads(network)
    labels = list(doc["nodes"])
    order = data.draw(st.permutations(range(len(labels))))
    names = dict(zip(labels, (f"R{i}" for i in order)))

    def rename(text):
        return re.sub(r"\bN\d\b", lambda m: names[m.group()], text)

    got = run(rename(network), [rename(line) for line in lines])
    assert_same_verdict(got, want, lines)

    anchor = data.draw(st.sampled_from(labels))
    doc["nodes"].append("L")  # sorts first, so every vertex id moves
    doc["edges"] += [[anchor, "L"], ["L", anchor]]
    doc["data_qubits"]["L"] = ["s"]
    extended = json.dumps(doc)
    if layout_bits(extended, k + (kind == "linklevel")) > MAX_TOTAL_BITS:
        return
    got = run(extended, ["init L.s=+", *lines], dump=reverse)
    assert_same_verdict(got, want, lines)
    if reverse:
        assert got[2] <= 2 * want[2], lines
