"""Golden CLI outputs: the case list, the in-process runner, and regeneration.

Each case is one ``qmc`` command line.  Its stdout, stderr and exit code,
as ``cli.main`` produces them in-process, are kept in ``cases.json``; the
chain, tangent and observable files the cases read are kept in
``inputs/``.  ``tests/test_golden.py`` reruns every case and compares
(keys, strings, integers, booleans, CSV headers, ``#`` keys and exit codes
exactly, floats to 1e-12 of their array's scale).

Regenerate both, from the repository root, with

    PYTHONPATH=src python tests/golden/regenerate.py

or check, writing nothing, that every case still prints its golden byte
for byte with

    PYTHONPATH=src python tests/golden/regenerate.py --check

which reruns every case, lists each one whose stdout, stderr or exit code
differs from ``cases.json`` (or that is missing from it or from the case
list), and exits 1 if there is one and 0 otherwise.  A change meant to
leave every printed bit alone shows it this way.  For a record whose
floats moved, the line also gives the number of floats that moved and the
largest absolute move, with where it is: the JSON key path, the CSV row
(counted from 1 after the header) and column, or the key of a ``#`` line.

Run as a script, it re-executes itself with ``OPENBLAS_NUM_THREADS=1``,
because BLAS thread counts move printed floats at roundoff: a record then
changes only when the code does.  Importing it, as the tests do, changes
no setting.

A golden may change only together with a CHANGES.md line that says which
case moved and by how much.
"""

import contextlib
import io as pyio
import json
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
CASES_FILE = HERE / "cases.json"
IN = "{inputs}"  # argv placeholder for the inputs directory

CHAINS = [
    "m1", "m2", "m3", "S", "d4", "d12", "d24", "d12p3", "d16p2", "red8", "red16", "nonfaithful",
    "d24p3",
]


def _random_isometry(rng, rows, cols):
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(m)[0]


def _cyclic(rng, d, k, p):
    """Period-p chain: every Kraus operator maps block a into block a + 1 mod p."""
    size = d // p
    v = np.zeros((d * k, d), dtype=complex)
    for a in range(p):
        w = _random_isometry(rng, k * size, size)
        dst = ((a + 1) % p) * size
        for u in range(k):
            v[u::k][dst : dst + size, a * size : (a + 1) * size] = w[u * size : (u + 1) * size]
    return v


def _reducible(rng, d, k):
    """Two random chains of size d/2 side by side."""
    h = d // 2
    v = np.zeros((d * k, d), dtype=complex)
    for lo in (0, h):
        w = _random_isometry(rng, h * k, h)
        for u in range(k):
            v[u::k][lo : lo + h, lo : lo + h] = w[u::k]
    return v


def _non_faithful(rng):
    """d = 3, k = 2: span{|0>, |1>} is invariant and |2> decays into it, so
    the unique stationary state has rank 2."""
    v = np.zeros((6, 3), dtype=complex)
    v[:4] = _random_isometry(rng, 4, 3)  # rows (s, u) with s in {0, 1}
    return v


def _inputs():
    """{file name: JSON object} of every input file, from fixed seeds."""
    from qmc import io, qubit_example
    from qmc.channels import Isometry

    rng = np.random.default_rng(20261020)
    chains = {
        "m1": qubit_example.isometry("m1", 0.3),
        "m2": qubit_example.isometry("m2", 0.2),
        "m3": qubit_example.isometry("m3", 0.3),
        "S": qubit_example.fixture_s(),
        "d4": Isometry(_random_isometry(rng, 8, 4), 4, 2),
        "d12": Isometry(_random_isometry(rng, 24, 12), 12, 2),
        "d24": Isometry(_random_isometry(rng, 48, 24), 24, 2),
        "d12p3": Isometry(_cyclic(rng, 12, 2, 3), 12, 2),
        "d16p2": Isometry(_cyclic(rng, 16, 2, 2), 16, 2),
        "red8": Isometry(_reducible(rng, 8, 2), 8, 2),
        "nonfaithful": Isometry(_non_faithful(rng), 3, 2),
    }
    out = {f"{name}.json": io.isometry_to_json(iso) for name, iso in chains.items()}
    # a gauge-equivalent copy of d4 and of d12: (w (x) 1) v w* with a phase
    for name in ("d4", "d12"):
        iso = chains[name]
        w = _random_isometry(rng, iso.d, iso.d)
        c = np.exp(0.7j)
        v = np.conj(c) * np.kron(w, np.eye(iso.k)) @ iso.v @ w.conj().T
        out[f"{name}_gauge.json"] = io.isometry_to_json(Isometry(v, iso.d, iso.k))
    for name in ("d4", "d12p3"):
        iso = chains[name]
        a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
        out[f"{name}_tangent.json"] = io.matrix_to_json(a)
    out["m2_tangent.json"] = io.matrix_to_json(qubit_example.golden_tangent("m2")[0])
    out["q2.json"] = io.matrix_to_json(np.diag([0.7, -0.3]))
    out["q4.json"] = io.matrix_to_json(np.diag([1.0, 0.0, -0.5, 0.25]))
    out["q3.json"] = io.matrix_to_json(np.eye(3))
    # drawn last, so that every earlier input keeps its draws
    out["red16.json"] = io.isometry_to_json(Isometry(_reducible(rng, 16, 2), 16, 2))
    out["d24p3.json"] = io.isometry_to_json(Isometry(_cyclic(rng, 24, 2, 3), 24, 2))
    a = rng.standard_normal(chains["d24"].v.shape) + 1j * rng.standard_normal(chains["d24"].v.shape)
    out["d24_tangent.json"] = io.matrix_to_json(a)
    return out


def _f(name):
    return f"{IN}/{name}.json"


def cases():
    """[(case id, argv)] with ``{inputs}`` standing for the inputs directory."""
    out = []
    for name in CHAINS:
        out.append((f"analyze-{name}", ["analyze", _f(name)]))
    out += [
        ("analyze-d4-tol", ["analyze", _f("d4"), "--tol-gap", "1e-6", "--tol-peripheral", "1e-6"]),
        ("analyze-usage-missing", ["analyze"]),
        ("analyze-usage-tol", ["analyze", _f("d4"), "--tol-gap", "x"]),
        ("analyze-bad-tol", ["analyze", _f("d4"), "--tol-gap", "-1"]),
        ("equiv-d4-gauge", ["equiv", _f("d4"), _f("d4_gauge")]),
        ("equiv-d12-gauge", ["equiv", _f("d12"), _f("d12_gauge")]),
        ("equiv-d4-d12", ["equiv", _f("d4"), _f("d12")]),
        ("equiv-S-S", ["equiv", _f("S"), _f("S")]),
        ("equiv-m1-m2", ["equiv", _f("m1"), _f("m2")]),
        ("equiv-d24-d24", ["equiv", _f("d24"), _f("d24")]),
        ("equiv-d12p3-self", ["equiv", _f("d12p3"), _f("d12p3")]),
        ("equiv-d24p3-self", ["equiv", _f("d24p3"), _f("d24p3")]),
        ("equiv-red8", ["equiv", _f("red8"), _f("red8")]),
        ("equiv-red16", ["equiv", _f("red16"), _f("red16")]),
        ("equiv-usage-missing", ["equiv", _f("d4")]),
        ("equiv-usage-flag", ["equiv", _f("d4"), _f("d4"), "--tol-gap", "1"]),
        ("tangent-m2", ["tangent", _f("m2"), _f("m2_tangent")]),
        ("tangent-d4", ["tangent", _f("d4"), _f("d4_tangent")]),
        ("tangent-d12p3", ["tangent", _f("d12p3"), _f("d12p3_tangent")]),
        ("tangent-d24", ["tangent", _f("d24"), _f("d24_tangent")]),
        ("tangent-red8", ["tangent", _f("red8"), _f("d4_tangent")]),
        ("tangent-shape", ["tangent", _f("d12"), _f("d4_tangent")]),
        ("tangent-usage-missing", ["tangent", _f("d4")]),
        ("tangent-usage-flag", ["tangent", _f("d4"), _f("d4_tangent"), "--seed", "1"]),
        ("qfi-m1", ["qfi", "--model", "m1", "--theta", "0.3", "--n-max", "100", "--n-step", "10"]),
        ("qfi-m2", ["qfi", "--model", "m2", "--theta", "0.2", "--n-max", "60", "--n-step", "20"]),
        ("qfi-m3", ["qfi", "--model", "m3", "--theta", "0.3", "--n-max", "60", "--n-step", "20"]),
        ("qfi-d4", ["qfi", _f("d4"), _f("d4_tangent"), "--n-max", "300", "--n-step", "30"]),
        ("qfi-d12p3", ["qfi", _f("d12p3"), _f("d12p3_tangent"), "--n-max", "40", "--n-step", "8"]),
        ("qfi-red8", ["qfi", _f("red8"), _f("d4_tangent"), "--n-max", "40"]),
        ("qfi-usage-grid", ["qfi", "--model", "m1", "--theta", "0.3", "--n-max", "5", "--n-step", "10"]),
        ("qfi-usage-theta", ["qfi", "--model", "m1"]),
        ("variance-m1", ["variance", "--model", "m1", "--theta", "0.3", "--n-list", "8,16,64"]),
        ("variance-m3-block2", ["variance", "--model", "m3", "--theta", "0.3", "--block", "2",
                                "--n-list", "2,9,40"]),
        ("variance-d4", ["variance", _f("d4"), _f("q2"), "--n-list", "1,5,50"]),
        ("variance-d12p3-block2", ["variance", _f("d12p3"), _f("q4"), "--n-list", "2,6,30"]),
        ("variance-d16p2", ["variance", _f("d16p2"), _f("q2"), "--n-list", "4,40"]),
        ("variance-d24p3", ["variance", _f("d24p3"), _f("q2"), "--n-list", "4,40"]),
        ("variance-red8", ["variance", _f("red8"), _f("q2")]),
        ("variance-red16", ["variance", _f("red16"), _f("q2")]),
        ("variance-q3", ["variance", _f("d4"), _f("q3")]),
        ("variance-usage-list", ["variance", "--model", "m1", "--theta", "0.3", "--n-list", "8,x"]),
        ("variance-usage-block", ["variance", "--model", "m3", "--theta", "0.3", "--block", "2",
                                  "--n-list", "1"]),
        ("converge-m2", ["converge", "--model", "m2", "--theta", "0.2", "--pow-min", "2",
                         "--pow-max", "6"]),
        ("converge-m1", ["converge", "--model", "m1", "--theta", "0.3", "--pow-min", "3",
                         "--pow-max", "6"]),
        ("converge-d4", ["converge", _f("d4"), "--pow-min", "2", "--pow-max", "5", "--seed", "3"]),
        ("converge-d12", ["converge", _f("d12"), "--seed", "1", "--pow-min", "6", "--pow-max", "9"]),
        ("converge-d12p3", ["converge", _f("d12p3"), "--pow-min", "1", "--pow-max", "3"]),
        ("converge-red8", ["converge", _f("red8"), "--pow-min", "1", "--pow-max", "3"]),
        ("converge-usage-pow", ["converge", "--model", "m2", "--theta", "0.2", "--pow-min", "4",
                                "--pow-max", "4"]),
        ("converge-usage-seed", ["converge", "--model", "m2", "--theta", "0.2", "--seed", "x"]),
        ("limit-model-m1", ["limit-model", "--model", "m1", "--theta", "0.3"]),
        ("limit-model-m3", ["limit-model", "--model", "m3", "--theta", "0.3",
                            "--scale-grid", "0.5,1.5"]),
        ("limit-model-d4-x", ["limit-model", _f("d4"), "--x", _f("d4_tangent")]),
        ("limit-model-d4", ["limit-model", _f("d4"), "--seed", "2", "--scale-grid", "1.0,2.0"]),
        ("limit-model-d12p3", ["limit-model", _f("d12p3"), "--scale-grid", "1.1"]),
        ("limit-model-red8", ["limit-model", _f("red8")]),
        ("limit-model-usage-grid", ["limit-model", "--model", "m1", "--theta", "0.3",
                                    "--scale-grid", "1,nan"]),
        ("limit-model-usage-model", ["limit-model", "--model", "m9", "--theta", "0.3"]),
        ("simulate-m1", ["simulate", "--model", "m1", "--theta", "0.35", "--n", "200",
                         "--trials", "20", "--seed", "1"]),
        ("simulate-m2", ["simulate", "--model", "m2", "--theta", "0.2", "--n", "100",
                         "--trials", "10", "--seed", "5"]),
        ("simulate-m3-block2", ["simulate", "--model", "m3", "--theta", "0.3", "--n", "120",
                                "--trials", "12", "--seed", "2", "--block", "2"]),
        ("simulate-bad-trials", ["simulate", "--model", "m1", "--theta", "0.35", "--n", "20",
                                 "--trials", "1", "--seed", "1"]),
        ("simulate-usage-model", ["simulate", "--n", "20", "--trials", "4", "--seed", "1"]),
        ("simulate-usage-n", ["simulate", "--model", "m1", "--theta", "0.3", "--trials", "4",
                              "--seed", "1"]),
        ("example-m1-full", ["example", "--model", "m1", "--theta", "0.3", "--report", "full"]),
        ("example-m2", ["example", "--model", "m2", "--theta", "0.2"]),
        ("example-m3-full", ["example", "--model", "m3", "--theta", "0.3", "--report", "full"]),
        ("example-m1-interval", ["example", "--model", "m1", "--theta", "0.6"]),
        ("example-usage-model", ["example", "--theta", "0.3"]),
        ("example-usage-report", ["example", "--model", "m1", "--theta", "0.3", "--report", "x"]),
    ]
    return out


def run(argv, inputs=INPUTS):
    """(exit code, stdout, stderr) of ``qmc <argv>`` run in-process."""
    from qmc import cli

    argv = [a.replace(IN, str(inputs)) for a in argv]
    out, err = pyio.StringIO(), pyio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _records():
    records = []
    for case_id, argv in cases():
        code, out, err = run(argv)
        records.append({"id": case_id, "argv": argv, "exit": code, "stdout": out, "stderr": err})
    return records


def cell(text):
    """A CSV or ``#`` value: an int, a float, or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def floats_at(text):
    """{place: float} of one stdout or stderr text.

    A JSON document gives each float at its key path; any other text is
    read as CSV, which gives each float of a ``#`` line at ``# key`` and
    each float cell at ``row r column name``.
    """
    out = {}

    def walk(node, where):
        if isinstance(node, float):
            out[where] = node
        elif isinstance(node, dict):
            for key, val in node.items():
                walk(val, f"{where}.{key}" if where else key)
        elif isinstance(node, list):
            for i, val in enumerate(node):
                walk(val, f"{where}[{i}]")

    if text.lstrip().startswith(("{", "[")):
        walk(json.loads(text), "")
        return out
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    for line in comments:
        key, _, val = line.partition("=")
        walk(cell(val), key)
    rows = [line.split(",") for line in lines[len(comments):]]
    for r, row in enumerate(rows[1:], 1):
        for name, val in zip(rows[0], row):
            walk(cell(val), f"row {r} column {name}")
    return out


def float_moves(got, want):
    """[(|move|, place)] of every float that differs between two records'
    stdout and stderr, largest first; a NaN on one side moves by inf."""
    moves = []
    for stream in ("stdout", "stderr"):
        g, w = floats_at(got[stream]), floats_at(want[stream])
        for place in g.keys() & w.keys():
            if g[place] != w[place] and not (np.isnan(g[place]) and np.isnan(w[place])):
                size = abs(g[place] - w[place])
                moves.append((np.inf if np.isnan(size) else size, f"{stream} {place}"))
    return sorted(moves, reverse=True)


def check():
    """Rerun every case against ``cases.json``; 1 if any record differs, else 0."""
    want = {r["id"]: r for r in json.loads(CASES_FILE.read_text())}
    got = {r["id"]: r for r in _records()}
    bad = [case_id for case_id in {**want, **got} if want.get(case_id) != got.get(case_id)]
    for case_id in bad:
        w, g = want.get(case_id), got.get(case_id)
        fields = [k for k in ("argv", "exit", "stdout", "stderr") if w and g and w[k] != g[k]]
        moves = float_moves(g, w) if fields else []
        line = f"differs: {case_id} {' '.join(fields) or 'missing on one side'}"
        if moves:
            size, place = moves[0]
            noun = "float" if len(moves) == 1 else "floats"
            line += f"; {len(moves)} {noun} moved, largest by {size:.1e} at {place}"
        print(line)
    print(f"{len(got) - len(bad)} of {len(got)} cases reproduce byte for byte", file=sys.stderr)
    return 1 if bad else 0


def main():
    INPUTS.mkdir(exist_ok=True)
    for name, obj in _inputs().items():
        (INPUTS / name).write_text(json.dumps(obj) + "\n")
    records = _records()
    CASES_FILE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {CASES_FILE}", file=sys.stderr)


if __name__ == "__main__":
    # numpy has started its BLAS threads by now, so the pin needs a fresh process
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit("usage: regenerate.py [--check]")
    main()
