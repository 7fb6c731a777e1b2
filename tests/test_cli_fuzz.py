"""Grammar-driven fuzz of `qwcp run`: whatever the script and network
file say, `main` returns one of the documented exit codes and never
raises (0 success, 2 parse error, 3 precondition error, 4 verification
failure). A protocol command that compiles is a valid request, so a
script with one never exits 4.

A case is a small network and a script in the grammar of `qwcp.cli`.
Paths follow the network's edges and qubit references name declared
qubits, so that most runs get past parsing into compilation and the
engine; one node label is not ASCII (`É`), so report escaping, error
echoes and traces meet one. Every value is sometimes replaced by a bad
one or left out. Bad values include an integer of more than 20 digits
and a control list that names one qubit twice; a header line, the
network line included, is sometimes repeated, and the state dump is
sometimes pointed at the report's own path. Header lines are otherwise
drawn with one line per subject (`walkers`, a qubit's `init`, a
walker's `place`), so that no other case stops at the repeated-line
refusal."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qwcp.cli import main

PROTOCOLS = ["remote_cu", "remote_mcu", "multipath", "tree", "ghz_path", "linklevel"]
LABELS = ["A", "B", "C", "D", "É"]  # one not ASCII
QUBITS = ["a", "b"]
GATES = [
    "X", "Z", "H", "T", "I", "Q",
    "U[0,0,1,0;1,0,0,0]",
    "U[0.6,0,0.8,0;0.8,0,-0.6,0]",
    "U[2,0,0,0;0,0,1,0]",
    "U[nan,0,0,0;0,0,1,0]",
    "U[inf,0,0,0;0,0,1,0]",
    "U[1,0]",
    "U[1,0,0,0,0,0,0,0;0,0,1,0,0,0,0,0;0,0,0,0,1,0,0,0;0,0,0,0,0,0,0,1]",
]
LONG_INTEGER = "9" * 24
NETWORK_LINE = "network NET"  # stands for the case's own network file
BROKEN_NETWORKS = [
    "", "{", "[]", "null", '{"nodes": 5}', '{"nodes": ["A", "A"]}',
    '{"nodes": ["A", "B"], "edges": [["A", "B"]]}',
    '{"nodes": ["A"], "edges": [["A", "Z"]]}',
    '{"nodes": ["A"], "data_qubits": {"Z": ["a"]}}',
    '{"nodes": ["A"], "data_qubits": {"A": "a"}}',
    '{"nodes": ["A"], "data_qubits": {"A": ["a", "a"]}}',
]


@st.composite
def cases(draw):
    """(network file text, script lines)."""
    nodes = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    qubits = {v: draw(st.lists(st.sampled_from(QUBITS), max_size=2, unique=True))
              for v in nodes}
    adjacent = {v: sorted({u for e in edges for u in e if v in e} - {v}) for v in nodes}
    network = json.dumps({
        "nodes": nodes,
        "edges": [list(e) for u, v in edges for e in ((u, v), (v, u))],
        "data_qubits": {v: q for v, q in qubits.items() if q},
    })

    def spoil(good, *bad):
        """`good` most of the time, otherwise one of the `bad` values."""
        return draw(st.sampled_from(bad)) if bad and draw(st.integers(0, 19)) == 7 else good

    def node():
        return spoil(draw(st.sampled_from(nodes)), "Z")

    def integer(high=3):
        return spoil(str(draw(st.integers(0, high))), "-1", "x", "9", LONG_INTEGER)

    def ints(size):
        return spoil(",".join(integer() for _ in range(size)), "0", "x,y", "0,1,2")

    def bits(size):
        return spoil("".join(draw(st.sampled_from("01")) for _ in range(size)), "2")

    def ref(at=None):
        at = at or node()
        return f"{at}.{spoil(draw(st.sampled_from(qubits.get(at) or QUBITS)), 'zz')}"

    def twice(refs):
        """The list `refs`, or sometimes `refs` with its first entry again."""
        return spoil(refs, [*refs, refs[0]])

    def walk(start=None):
        path = [start or draw(st.sampled_from(nodes))]
        for _ in range(draw(st.integers(0, 3))):
            onward = [u for u in adjacent.get(path[-1], ()) if u not in path]
            if not onward:
                break
            path.append(draw(st.sampled_from(onward)))
        return spoil(path, [node()], [path[0], path[0]], [*path, node()])

    def line(name, *parts):
        """`name` and its `key=value` parts; a part is sometimes left out."""
        kept = [f"{key}={value}" for key, value in parts if spoil(True, False)]
        return " ".join([name, *kept])

    def gate():
        return draw(st.sampled_from(GATES))

    def protocol():
        kind = draw(st.sampled_from(PROTOCOLS))
        path = walk()
        if kind == "remote_cu":
            controls = twice([ref(path[0])])
            parts = [("control", ",".join(controls)), ("target", ref(path[-1])),
                     ("path", ",".join(path)), ("gate", gate())]
            if draw(st.booleans()):
                parts.append(("string", bits(len(controls))))
            if draw(st.booleans()):
                parts.append(
                    ("separation", spoil(draw(st.sampled_from(["reverse", "measure"])), "x"))
                )
            return line(kind, *parts)
        if kind == "remote_mcu":
            controls = twice([ref(v) for v in path[:-1]] or [ref()])
            return line(kind, ("controls", ",".join(controls)),
                        ("string", bits(len(controls))), ("target", ref(path[-1])),
                        ("path", ",".join(path)), ("gate", gate()))
        if kind == "multipath":
            parts = [("control", ",".join(twice([ref(path[0])])))]
            for _ in range(draw(st.integers(1, 2))):
                branch = walk(path[0])
                parts += [("path", ",".join(branch)), ("target", ref(branch[-1])),
                          ("gate", gate())]
            return line(kind, *parts)
        if kind == "tree":
            tree_edges = [f"{u}>{v}" for u, v in zip(path, path[1:])] or [f"{path[0]}>{node()}"]
            other = walk(path[0])
            tree_edges += [f"{u}>{v}" for u, v in zip(other, other[1:])
                           if v not in path and draw(st.booleans())]
            return line(kind, ("control", ",".join(twice([ref(path[0])]))),
                        ("edges", ",".join(tree_edges)), ("target", ref(path[-1])),
                        ("gate", gate()))
        if kind == "ghz_path":
            return line(kind, ("path", ",".join(path)),
                        ("qubits", ",".join(ref(v) for v in path)))
        if edges and draw(st.booleans()):
            u, v = draw(st.sampled_from(edges))
            return line(kind, ("couple", f"{u},{ref(u)[2:]}:{v},{ref(v)[2:]}"))
        return kind

    def step():
        kind = draw(st.sampled_from(
            ["coinperm", "coinblock", "datactrl", "coindata", "interact", "shift",
             "measure"]
        ))
        name = f"step {kind}"
        if kind == "coinperm":
            return line(name, ("node", node()), ("c1", integer()), ("c2", integer()),
                        ("walker", integer(1)))
        if kind == "coinblock":
            return line(name, ("node", node()), ("coins", ints(2)), ("gate", gate()),
                        ("walker", integer(1)))
        if kind == "datactrl":
            at = node()
            controls = twice([ref(at)[len(at) + 1:]])
            return line(name, ("node", at), ("controls", ",".join(controls)),
                        ("string", bits(len(controls))), ("swap", ints(2)),
                        ("walker", integer(1)))
        if kind == "coindata":
            at = node()
            parts = [("node", at), ("qubits", ref(at)[len(at) + 1:]), ("gate", gate()),
                     ("walker", integer(1))]
            if draw(st.booleans()):
                parts.append(("coin", integer()))
            return line(name, *parts)
        if kind == "interact":
            return line(name, ("node", node()), ("coin", integer()), ("swap", ints(2)),
                        ("control", integer(1)), ("target", integer(1)))
        if kind == "shift":
            how = spoil(draw(st.sampled_from(["flipflop", "identity"])), "", "x")
            if how == "flipflop" and draw(st.booleans()):
                return line(f"{name} flipflop", ("walkers", ints(1)))
            return f"{name} {how}".rstrip()
        a = node()
        return line(name, ("a", a), ("b", walk(a)[-1]), ("qubit", ref(a)[len(a) + 1:]),
                    ("walker", integer(1)))

    header, subjects = [], set()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["walkers", "init", "place"]))
        if kind == "walkers":
            subject = "walkers"
            count = spoil(str(draw(st.integers(1, 3))), "0", "x", LONG_INTEGER)
            text = f"walkers {count}"
        elif kind == "init":
            subject = ref()
            text = f"init {subject}={spoil(draw(st.sampled_from('01+-')), '2')}"
        else:
            subject = integer(2)
            text = f"place {subject} {node()} {integer()}".rstrip()
        # a second line of one subject only as the spoil below
        if (kind, subject) not in subjects:
            subjects.add((kind, subject))
            header.append(text)
    # a repeated header line, the network line (see `script_text`) included
    header += spoil([], [draw(st.sampled_from([*header, NETWORK_LINE]))])
    if draw(st.booleans()):
        body = [protocol()]
    else:
        body = [step() for _ in range(draw(st.integers(1, 4)))]
    return spoil(network, *BROKEN_NETWORKS), header + body


def script_text(net, lines) -> str:
    """The script of a case whose network file is `net`: a `network` line,
    then `lines`, each `NETWORK_LINE` among them naming `net` again."""
    return "".join(f"network {net}\n" if line == NETWORK_LINE else line + "\n"
                   for line in [NETWORK_LINE, *lines])


def write_case(tmp, network, lines, mode, extras, seed):
    """Write a case's network and script to the directory `tmp` and return
    its `qwcp run` argv. `extras` adds `--seed`, `--trace` and a state
    dump, which "same" points at the report's path."""
    net = Path(tmp, "net.json")
    net.write_text(network)
    script = Path(tmp, "script.qw")
    script.write_text(script_text(net, lines), encoding="utf-8")
    argv = ["run", str(script), "--mode", mode, "--out", str(Path(tmp, "r.json"))]
    if extras:
        dump = "r.json" if extras == "same" else "d.txt"
        argv += ["--seed", str(seed), "--trace", "--dump-state", str(Path(tmp, dump))]
    return argv


MODES = st.sampled_from(["branch", "sample"])
EXTRAS = st.sampled_from([False, True, True, "same"])
SEEDS = st.one_of(st.integers(-3, 9), st.integers(2**32, 2**130))  # one to five 32-bit words


@settings(max_examples=200, deadline=None)
@given(cases(), MODES, EXTRAS, SEEDS)
def test_main_exit_code_contract(case, mode, extras, seed):
    network, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = write_case(tmp, network, lines, mode, extras, seed)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    if any(line.split()[0] in PROTOCOLS for line in lines):
        assert code != 4, (lines, out.getvalue())
