"""Golden CLI outputs: every case of ``tests/golden/regenerate.py`` still
prints what its golden holds.

Keys and their order, strings, integers, booleans, CSV headers, the keys of
``#`` lines and exit codes must match exactly.  A float must agree with its
golden to ``RTOL`` times the scale of its array: the largest magnitude in
the JSON list, matrix or complex number that holds it, in its CSV column or,
for a lone float, its own magnitude, and never less than ``FLOOR``.  The
floor stands for the unit norm of the states and isometries every output is
built from, so a residual at roundoff is compared with the roundoff of a
unit quantity, not with itself.  A spectrum (an ``eigenvalues`` list) is
compared as a set, since eigenvalues of equal modulus, like the +-lambda
pairs of a period-2 chain, may trade places in its order at roundoff.

The bound is wide enough for BLAS thread counts, which moved printed floats
by at most 4e-15 of their scale, and tight enough that a move of 1e-10
relative in any float of unit size fails.
"""

import json

import numpy as np
import pytest

from golden import regenerate as golden

RTOL = 1e-12
FLOOR = 1.0

_RECORDS = json.loads(golden.CASES_FILE.read_text())
_COMPLEX_KEYS = ({"re", "im"}, {"rows", "cols", "re", "im"})


def _is_array(node):
    """True for a list of numbers, nested lists or complex numbers, and for
    a complex number or matrix in the ``io`` schema: the unit a scale is
    taken over."""
    if isinstance(node, dict):
        return set(node) in _COMPLEX_KEYS
    if isinstance(node, list):
        return all(
            isinstance(x, (int, float)) and not isinstance(x, bool) or _is_array(x) for x in node
        )
    return False


def _floats(node):
    if isinstance(node, float):
        return [node]
    if isinstance(node, dict):
        return [x for v in node.values() for x in _floats(v)]
    if isinstance(node, list):
        return [x for v in node for x in _floats(v)]
    return []


def _same_float(got, want, scale):
    if np.isnan(want) or np.isinf(want):
        return got == want or (np.isnan(got) and np.isnan(want))
    return abs(got - want) <= RTOL * max(scale, FLOOR)


def _compare(got, want, where, scale=None):
    """Assert that the parsed JSON ``got`` matches ``want`` by the rules above."""
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if scale is None and _is_array(want):
        scale = max(map(abs, _floats(want)), default=0.0)
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            if key == "eigenvalues":
                _compare_spectrum(got[key], want[key], f"{where}.{key}")
            else:
                _compare(got[key], want[key], f"{where}.{key}", scale)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", scale)
    elif isinstance(want, float):
        own = abs(want) if scale is None else scale
        assert _same_float(got, want, own), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _compare_spectrum(got, want, where):
    """Every eigenvalue on each side within the bound of one on the other."""
    assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
    if not want:
        return
    g = np.array([complex(z["re"], z["im"]) for z in got])
    w = np.array([complex(z["re"], z["im"]) for z in want])
    gap = np.maximum(abs(g.real[:, None] - w.real), abs(g.imag[:, None] - w.imag))
    tol = RTOL * max(max(map(abs, _floats(want))), FLOOR)
    assert gap.min(axis=0).max() <= tol and gap.min(axis=1).max() <= tol, f"{where}: moved"


def _compare_csv(got, want, where):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{where}: {len(got_lines)} lines"
    comments = [(g, w) for g, w in zip(got_lines, want_lines) if w.startswith("#")]
    for g, w in comments:
        gkey, _, gval = g.partition("=")
        wkey, _, wval = w.partition("=")
        assert gkey == wkey, f"{where}: {g!r} != {w!r}"
        _compare(golden.cell(gval), golden.cell(wval), f"{where} {wkey}")
    rows = want_lines[len(comments):]
    got_rows = got_lines[len(comments):]
    assert got_rows[0] == rows[0], f"{where}: header {got_rows[0]!r} != {rows[0]!r}"
    want_cols = list(zip(*[[golden.cell(c) for c in r.split(",")] for r in rows[1:]]))
    got_cols = list(zip(*[[golden.cell(c) for c in r.split(",")] for r in got_rows[1:]]))
    for name, g, w in zip(rows[0].split(","), got_cols, want_cols):
        _compare(list(g), list(w), f"{where} column {name}")


def compare_output(got, want, where):
    """Compare one stdout or stderr text with its golden."""
    if not want:
        assert not got, f"{where}: unexpected output {got[:200]!r}"
    elif want.lstrip().startswith(("{", "[")):
        # a JSON document on stdout, a one-line JSON error on stderr
        _compare(json.loads(got), json.loads(want), where)
    else:
        _compare_csv(got, want, where)


@pytest.fixture(scope="module")
def outputs():
    return {r["id"]: golden.run(r["argv"]) for r in _RECORDS}


def test_case_list_matches_the_goldens():
    assert [(r["id"], r["argv"]) for r in _RECORDS] == [
        (case_id, argv) for case_id, argv in golden.cases()
    ]


@pytest.mark.parametrize("record", _RECORDS, ids=[r["id"] for r in _RECORDS])
def test_cli_output_matches_golden(record, outputs):
    code, out, err = outputs[record["id"]]
    assert code == record["exit"]
    compare_output(out, record["stdout"], f"{record['id']} stdout")
    compare_output(err, record["stderr"], f"{record['id']} stderr")


def test_a_float_moved_by_1e_10_relative_fails():
    record = next(r for r in _RECORDS if r["id"] == "analyze-d12")
    report = json.loads(record["stdout"])
    z = report["eigenvalues"][0]
    z["re"] *= 1.0 + 1e-10
    with pytest.raises(AssertionError, match="eigenvalues"):
        compare_output(json.dumps(report, indent=2), record["stdout"], "mutant")
    record = next(r for r in _RECORDS if r["id"] == "qfi-m1")
    lines = record["stdout"].splitlines()
    n, f_n, rate = lines[-1].split(",")
    lines[-1] = ",".join([n, repr(float(f_n) * (1.0 + 1e-10)), rate])
    with pytest.raises(AssertionError, match="f_n"):
        compare_output("\n".join(lines) + "\n", record["stdout"], "mutant")


def test_check_lists_each_record_that_moved(tmp_path, monkeypatch, capsys):
    # usage errors print no float, so they reproduce byte for byte at any
    # BLAS thread count
    records = [r for r in _RECORDS if r["id"] in ("analyze-usage-missing", "analyze-usage-tol")]
    monkeypatch.setattr(golden, "cases", lambda: [(r["id"], r["argv"]) for r in records])
    path = tmp_path / "cases.json"
    monkeypatch.setattr(golden, "CASES_FILE", path)
    path.write_text(json.dumps(records))
    assert golden.check() == 0
    assert capsys.readouterr().out == ""
    moved = dict(records[1], stderr=records[1]["stderr"] + " ", exit=records[1]["exit"] + 1)
    path.write_text(json.dumps([records[0], moved]))
    assert golden.check() == 1
    assert capsys.readouterr().out == f"differs: {moved['id']} exit stderr\n"
    path.write_text(json.dumps(records[:1]))
    assert golden.check() == 1
    assert capsys.readouterr().out == f"differs: {records[1]['id']} missing on one side\n"
    # a record whose floats moved names the largest move and where it is: a
    # JSON key path, or a CSV row and column; the cases are replayed from
    # their goldens, so the moves are the only difference
    records = [next(r for r in _RECORDS if r["id"] == i) for i in ("limit-model-m3", "qfi-m1")]
    monkeypatch.setattr(golden, "cases", lambda: [(r["id"], r["argv"]) for r in records])
    replay = {tuple(r["argv"]): (r["exit"], r["stdout"], r["stderr"]) for r in records}
    monkeypatch.setattr(golden, "run", lambda argv: replay[tuple(argv)])
    report = json.loads(records[0]["stdout"])
    report["scale_distances"][1]["distance"] += 2e-15
    report["trace_distance_xy"] += 3e-13
    lines = records[1]["stdout"].splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + 0.25)
    lines[-1] = ",".join(cells)
    moved = [
        dict(records[0], stdout=json.dumps(report, indent=2) + "\n"),
        dict(records[1], stdout="\n".join(lines) + "\n"),
    ]
    path.write_text(json.dumps(moved))
    assert golden.check() == 1
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert capsys.readouterr().out == (
        "differs: limit-model-m3 stdout; 2 floats moved, largest by 3.0e-13"
        " at stdout trace_distance_xy\n"
        f"differs: qfi-m1 stdout; 1 float moved, largest by 2.5e-01"
        f" at stdout row {len(rows)} column {header[1]}\n"
    )
