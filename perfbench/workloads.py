"""Seeded generator of the benchmark's networks and protocol scripts.

Each workload is a list of jobs. A job is one `qwcp run` invocation: a
generated script (its `network` line names a generated network file), the
argv passed to `qwcp.cli.main`, and the size facts the benchmark reports.
Paths are relative to the checkout root, where the benchmark runs.

The seed changes labels, gates, initial data states, path orientation and
sampling seeds, never the size of a job: every seed gives the same bit
counts, walker counts and operator counts, so that runs with different
seeds measure the same amount of work.
"""
from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

WORKLOADS = ("tree25", "branch_verify", "sweep")
LIBRARY_GATES = ("X", "Y", "Z", "H", "S", "T")


# -- networks -------------------------------------------------------------


class Net:
    """A generated network: labels, undirected edges and data qubits.

    Ports follow qwcp's documented convention: port 0 is the self-loop and
    ports 1..d(v) are the neighbours in ascending label order."""

    def __init__(self, nodes, edges, data_qubits):
        self.nodes = sorted(nodes)
        self.adj = {v: set() for v in self.nodes}
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.data = {v: list(q) for v, q in data_qubits.items() if q}

    def port(self, v, u):
        return 1 + sorted(self.adj[v]).index(u)

    def register_bits(self, walkers: int) -> int:
        vbits = max(1, math.ceil(math.log2(len(self.nodes))))
        cbits = max(1, math.ceil(math.log2(max(len(a) for a in self.adj.values()) + 1)))
        return walkers * (vbits + cbits) + self.data_count

    @property
    def data_count(self) -> int:
        return sum(len(q) for q in self.data.values())

    def to_json(self) -> str:
        edges = [[v, u] for v in self.nodes for u in sorted(self.adj[v])]
        return json.dumps(
            {"nodes": self.nodes, "edges": edges, "data_qubits": self.data},
            sort_keys=True,
        )


def grid(rows: int, cols: int, data_qubits) -> Net:
    nodes = [f"n{r}{c}" for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"n{r}{c}", f"n{r}{c + 1}"))
            if r + 1 < rows:
                edges.append((f"n{r}{c}", f"n{r + 1}{c}"))
    return Net(nodes, edges, data_qubits)


def line(labels, data_qubits) -> Net:
    return Net(labels, list(zip(labels, labels[1:])), data_qubits)


def binary_tree(leaf_count: int, data_qubits) -> tuple[Net, list]:
    """Root A, two children b0,b1 (one when leaf_count is 2), two leaves
    under each child. Returns the network and its tree edges."""
    children = ["b0", "b1"][: max(1, leaf_count // 2)]
    tree_edges = [("A", b) for b in children]
    for b in children:
        tree_edges += [(b, f"c{b[1]}0"), (b, f"c{b[1]}1")]
    nodes = ["A"] + children + [c for _, c in tree_edges if c.startswith("c")]
    return Net(nodes, tree_edges, data_qubits), tree_edges


# -- script pieces ------------------------------------------------------------


def custom_gate(rng: random.Random) -> str:
    """A random single-qubit unitary as a `U[...]` literal (columns)."""
    theta, phi, lam = (rng.uniform(0.1, 3.0) for _ in range(3))
    u00 = complex(math.cos(theta / 2))
    u10 = cmath.exp(1j * phi) * math.sin(theta / 2)
    u01 = -cmath.exp(1j * lam) * math.sin(theta / 2)
    u11 = cmath.exp(1j * (phi + lam)) * math.cos(theta / 2)
    cols = [(u00, u10), (u01, u11)]
    return "U[" + ";".join(
        ",".join(f"{z.real!r},{z.imag!r}" for z in col) for col in cols
    ) + "]"


def any_gate(rng: random.Random) -> str:
    return custom_gate(rng) if rng.random() < 0.3 else rng.choice(LIBRARY_GATES)


def any_init(rng: random.Random) -> str:
    return rng.choice("01+-")


def lattice_path(rng: random.Random, start, end) -> list:
    """A random monotone shortest path between two grid cells."""
    (r, c), (r1, c1) = start, end
    dr, dc = (r1 > r) - (r1 < r), (c1 > c) - (c1 < c)
    moves = ["r"] * abs(r1 - r) + ["c"] * abs(c1 - c)
    rng.shuffle(moves)
    path = [f"n{r}{c}"]
    for m in moves:
        if m == "r":
            r += dr
        else:
            c += dc
        path.append(f"n{r}{c}")
    return path


class Job:
    """One generated script, its network, and the argv that runs it."""

    def __init__(self, name, net, walkers, lines, mode="branch", seed=None,
                 dump=False, trace=False):
        self.name = name
        self.net = net
        self.walkers = walkers
        self.lines = lines
        self.mode = mode
        self.seed = seed
        self.dump = dump
        self.trace = trace

    def write(self, workdir: Path) -> dict:
        net_path = workdir / f"{self.name}.json"
        script_path = workdir / f"{self.name}.qw"
        net_path.write_text(self.net.to_json() + "\n")
        script_path.write_text(
            "\n".join([f"network {net_path.as_posix()}"] + self.lines) + "\n"
        )
        report = workdir / f"{self.name}.report.json"
        argv = ["run", script_path.as_posix(), "--mode", self.mode,
                "--out", report.as_posix()]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        dump = None
        if self.dump:
            dump = (workdir / f"{self.name}.dump").as_posix()
            argv += ["--dump-state", dump]
        if self.trace:
            argv.append("--trace")
        return {
            "name": self.name,
            "command": self.lines[-1].split()[0],
            "argv": argv,
            "report": report.as_posix(),
            "dump": dump,
            "mode": self.mode,
            "bits": self.net.register_bits(self.walkers),
            "nodes": len(self.net.nodes),
            "data_qubits": self.net.data_count,
        }


# -- workloads ----------------------------------------------------------------


def tree_job(rng: random.Random, leaf_count: int = 4) -> Job:
    """Tree propagation, one walker per leaf, X on every leaf, control |+>.

    The seed puts each leaf qubit in |+> or |->, so every seed holds the
    same 2^(leaves + 1) nonzero amplitudes."""
    _, tree_edges = binary_tree(leaf_count, {})
    leaves = [c for _, c in tree_edges if c.startswith("c")]
    net, _ = binary_tree(leaf_count, {"A": ["a"], **{v: ["t"] for v in leaves}})
    lines = ["init A.a=+"] + [f"init {v}.t={rng.choice('+-')}" for v in leaves]
    targets = " ".join(f"target={v}.t gate=X" for v in leaves)
    edges = ",".join(f"{p}>{c}" for p, c in tree_edges)
    lines.append(f"tree control=A.a edges={edges} {targets}")
    return Job("tree", net, leaf_count, lines)


def branch_verify_job(rng: random.Random, side: int = 4, data_count: int = 10) -> Job:
    """remote_cu corner to corner along the border, measure separation,
    branch mode, every data qubit in |+>, with a state dump and trace."""
    far = side - 1
    nodes = [f"n{r}{c}" for r in range(side) for c in range(side)]
    data = {"n00": ["a"], f"n{far}{far}": ["b"]}
    spare = [v for v in nodes if v not in data]
    for i in range(data_count - 2):
        data.setdefault(rng.choice(spare), []).append(f"q{i}")
    net = grid(side, side, data)
    lines = [f"init {v}.{q}=+" for v in net.nodes for q in net.data.get(v, [])]
    if rng.random() < 0.5:
        path = [f"n0{c}" for c in range(side)] + [f"n{r}{far}" for r in range(1, side)]
    else:
        path = [f"n{r}0" for r in range(side)] + [f"n{far}{c}" for c in range(1, side)]
    lines.append(
        f"remote_cu control=n00.a target=n{far}{far}.b path={','.join(path)} "
        f"gate={any_gate(rng)} separation=measure"
    )
    return Job("grid", net, 1, lines, dump=True, trace=True)


CORNERS = ((0, 0), (0, 2), (2, 0), (2, 2))


def _opposite(cell):
    return (2 - cell[0], 2 - cell[1])


def sweep_cu_reverse(rng, name):
    start = rng.choice(CORNERS)
    opp = _opposite(start)
    end = rng.choice([(opp[0], 1), (1, opp[1])])
    path = lattice_path(rng, start, end)
    a, b = path[0], path[-1]
    spare = rng.choice([v for v in grid(3, 3, {}).nodes if v not in (a, b)])
    net = grid(3, 3, {a: ["a", "a2"], b: ["b"], spare: ["s"]})
    lines = [f"init {a}.a={any_init(rng)}", f"init {a}.a2={any_init(rng)}",
             f"init {b}.b={any_init(rng)}", f"init {spare}.s={any_init(rng)}"]
    string = "".join(rng.choice("01") for _ in range(2))
    lines.append(
        f"remote_cu control={a}.a,{a}.a2 string={string} target={b}.b "
        f"path={','.join(path)} gate={any_gate(rng)} separation=reverse"
    )
    return Job(name, net, 1, lines)


def sweep_cu_measure_branch(rng, name):
    labels = [f"L{i}" for i in range(6)]
    if rng.random() < 0.5:
        labels.reverse()
    a, b = labels[0], labels[-1]
    net = line(labels, {a: ["a"], b: ["b"], rng.choice(labels[1:-1]): ["s"]})
    lines = [f"init {a}.a=+", f"init {b}.b={any_init(rng)}"]
    lines.append(
        f"remote_cu control={a}.a target={b}.b path={','.join(labels)} "
        f"gate={any_gate(rng)} separation=measure"
    )
    return Job(name, net, 1, lines)


def sweep_cu_measure_sample(rng, name):
    start = rng.choice(CORNERS)
    path = lattice_path(rng, start, _opposite(start))
    a, b = path[0], path[-1]
    net = grid(3, 3, {a: ["a"], b: ["b"], path[2]: ["s"]})
    lines = [f"init {a}.a=+", f"init {b}.b={any_init(rng)}",
             f"init {path[2]}.s={any_init(rng)}"]
    lines.append(
        f"remote_cu control={a}.a target={b}.b path={','.join(path)} "
        f"gate={any_gate(rng)} separation=measure"
    )
    return Job(name, net, 1, lines, mode="sample", seed=rng.randrange(1 << 30))


def sweep_mcu(rng, name):
    labels = [f"m{i}" for i in range(5)]
    if rng.random() < 0.5:
        labels.reverse()
    second = rng.choice(labels[1:-1])
    net = line(labels, {labels[0]: ["a"], second: ["c"], labels[-1]: ["t"]})
    lines = [f"init {labels[0]}.a={any_init(rng)}", f"init {second}.c={any_init(rng)}",
             f"init {labels[-1]}.t={any_init(rng)}"]
    string = "".join(rng.choice("01") for _ in range(2))
    lines.append(
        f"remote_mcu controls={labels[0]}.a,{second}.c string={string} "
        f"target={labels[-1]}.t path={','.join(labels)} gate={any_gate(rng)}"
    )
    return Job(name, net, 1, lines)


def sweep_multipath(rng, name):
    start = rng.choice(CORNERS)
    r, c = start
    dr, dc = (1 if r == 0 else -1), (1 if c == 0 else -1)
    ends = [(r, c + 2 * dc), (r + 2 * dr, c)]
    if rng.random() < 0.5:
        ends[0] = (r + dr, c + dc)  # second hop turns the corner
    paths = [
        [f"n{r}{c}", f"n{r}{c + dc}", f"n{ends[0][0]}{ends[0][1]}"],
        [f"n{r}{c}", f"n{r + dr}{c}", f"n{ends[1][0]}{ends[1][1]}"],
    ]
    a = paths[0][0]
    net = grid(3, 3, {a: ["a"], paths[0][-1]: ["b"], paths[1][-1]: ["c"]})
    lines = [f"init {a}.a={any_init(rng)}", f"init {paths[0][-1]}.b={any_init(rng)}",
             f"init {paths[1][-1]}.c={any_init(rng)}"]
    groups = " ".join(
        f"path={','.join(p)} target={p[-1]}.{q} gate={any_gate(rng)}"
        for p, q in zip(paths, "bc")
    )
    lines.append(f"multipath control={a}.a {groups}")
    return Job(name, net, 2, lines)


def sweep_tree(rng, name):
    net, tree_edges = binary_tree(2, {"A": ["a"], "b0": ["s"], "c00": ["t"], "c01": ["t"]})
    lines = [f"init {v}.{q}={any_init(rng)}" for v in net.nodes for q in net.data.get(v, [])]
    targets = " ".join(
        f"target={v}.{q} gate={any_gate(rng)}"
        for v, q in (("b0", "s"), ("c00", "t"), ("c01", "t"))
    )
    edges = ",".join(f"{p}>{c}" for p, c in tree_edges)
    lines.append(f"tree control=A.a edges={edges} {targets}")
    return Job(name, net, 2, lines)


def sweep_ghz(rng, name):
    labels = [f"g{i}" for i in range(6)]
    net = line(labels, {v: ["g"] for v in labels})
    first, second = labels[:3], labels[3:]
    if rng.random() < 0.5:
        first.reverse()
    if rng.random() < 0.5:
        second.reverse()
    groups = " ".join(
        f"path={','.join(p)} qubits={','.join(v + '.g' for v in p)}"
        for p in (first, second)
    )
    return Job(name, net, 2, [f"ghz_path {groups}"])


def sweep_linklevel(rng, name):
    nodes = ["A", "B", "C"]
    net = Net(nodes, [("A", "B"), ("B", "C"), ("A", "C")],
              {v: ["p", "q"] for v in nodes})
    free = {v: ["p", "q"] for v in nodes}
    for v in nodes:
        rng.shuffle(free[v])
    # a qubit can hold one Bell pair, so coupled edges never share a qubit
    couples = " ".join(
        f"couple={u},{free[u].pop()}:{v},{free[v].pop()}"
        for u, v in rng.sample([("A", "B"), ("A", "C"), ("B", "C")], 2)
    )
    return Job(name, net, 3, [f"linklevel {couples}"])


def sweep_steps_walk(rng, name):
    """Single walker: hop, pass-through coin, custom coin block, data gate."""
    start = rng.choice(CORNERS)
    path = lattice_path(rng, start, _opposite(start))[:3]
    a, u, b = path
    net = grid(3, 3, {u: ["x"], b: ["y"]})
    lines = [
        "walkers 1",
        f"place 0 {a} {net.port(a, u)}",
        f"init {u}.x={any_init(rng)}",
        f"init {b}.y={any_init(rng)}",
        "step shift flipflop",
        f"step coinperm node={u} c1={net.port(u, a)} c2={net.port(u, b)} walker=0",
        f"step coindata node={u} qubits=x gate={any_gate(rng)} walker=0",
        "step shift flipflop",
        f"step coinblock node={b} coins=0,{net.port(b, u)} gate={custom_gate(rng)} walker=0",
        f"step coindata node={b} qubits=y gate={any_gate(rng)} walker=0 coin=0",
        "step shift identity",
    ]
    return Job(name, net, 1, lines)


def sweep_steps_interact(rng, name):
    """Two walkers at one node: data-controlled coin, then an interaction."""
    labels = [f"w{i}" for i in range(4)]
    if rng.random() < 0.5:
        labels.reverse()
    a, nxt = labels[1], labels[2]
    net = line(labels, {a: ["a"], nxt: ["z"]})
    out = net.port(a, nxt)
    lines = [
        "walkers 2",
        f"place 0 {a} 0",
        f"place 1 {a} 0",
        f"init {a}.a={any_init(rng)}",
        f"init {nxt}.z={any_init(rng)}",
        f"step datactrl node={a} controls=a string={rng.choice('01')} swap=0,{out} walker=0",
        f"step interact node={a} coin={out} swap=0,{out} control=0 target=1",
        "step shift flipflop walkers=0,1",
        f"step coindata node={nxt} qubits=z gate={any_gate(rng)} walker=1",
        "step shift identity",
    ]
    return Job(name, net, 2, lines)


def sweep_steps_measure(rng, name):
    """A hand-built remote CNOT whose walker is measured out at the end."""
    labels = ["A", "u", "B"]
    net = line(labels, {"A": ["a"], "B": ["b"]})
    lines = [
        "walkers 1",
        "init A.a=+",
        f"init B.b={any_init(rng)}",
        "step datactrl node=A controls=a string=1 swap=0,1 walker=0",
        "step shift flipflop",
        "step coinperm node=u c1=1 c2=2 walker=0",
        "step shift flipflop",
        "step coinperm node=B c1=1 c2=0 walker=0",
        f"step coindata node=B qubits=b gate={any_gate(rng)} walker=0",
        "step shift identity",
        "step measure a=A b=B qubit=a",
    ]
    return Job(name, net, 1, lines)


SWEEP_TEMPLATES = (
    sweep_cu_reverse,
    sweep_cu_measure_branch,
    sweep_cu_measure_sample,
    sweep_mcu,
    sweep_multipath,
    sweep_tree,
    sweep_ghz,
    sweep_linklevel,
    sweep_steps_walk,
    sweep_steps_interact,
    sweep_steps_measure,
)


def build_jobs(workload: str, seed: int, reduced: bool = False) -> list:
    """The jobs of one workload; `reduced` shrinks tree25 and branch_verify
    and keeps one script per sweep template, for the benchmark's tests."""
    rng = random.Random(seed)
    if workload == "tree25":
        return [tree_job(rng, leaf_count=2 if reduced else 4)]
    if workload == "branch_verify":
        return [branch_verify_job(rng, side=3, data_count=4) if reduced
                else branch_verify_job(rng)]
    if workload == "sweep":
        copies = 1 if reduced else 2
        return [
            make(random.Random(f"{seed}:{i}:{k}"), f"{make.__name__[6:]}{k}")
            for k in range(copies)
            for i, make in enumerate(SWEEP_TEMPLATES)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, workdir: Path, reduced: bool = False) -> list:
    """Write the workload's networks and scripts; return the job manifests."""
    workdir.mkdir(parents=True, exist_ok=True)
    return [job.write(workdir) for job in build_jobs(workload, seed, reduced)]
