import ast
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmc import cli, gauge, io, linalg
from qmc.channels import Isometry
from qmc.errors import DimensionMismatch
from qmc.qubit_example import fixture_s, isometry

import oracles

QMC = shutil.which("qmc")


def _run(*args, stdin=None, env=None):
    cmd = [QMC] if QMC else [sys.executable, "-m", "qmc.cli"]
    if env is not None:
        env = {**os.environ, **env}
    return subprocess.run(
        cmd + list(args), capture_output=True, text=True, input=stdin, timeout=300, env=env
    )


def _write_iso(tmp_path, iso, name):
    path = tmp_path / name
    path.write_text(json.dumps(io.isometry_to_json(iso)))
    return str(path)


def test_matrix_json_round_trip_is_exact():
    rng = np.random.default_rng(40)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = io.matrix_from_json(io.matrix_to_json(m))
    assert np.array_equal(back, m)


def test_isometry_json_round_trip_is_exact():
    iso = isometry("m2", 0.2)
    back = io.isometry_from_json(io.isometry_to_json(iso))
    assert np.array_equal(back.v, iso.v)
    assert back.d == 2 and back.k == 2


def test_malformed_matrix_rejected():
    with pytest.raises(DimensionMismatch):
        io.matrix_from_json({"rows": 2, "cols": 2, "re": [1, 2, 3], "im": [0, 0, 0]})


def test_csv_cells_round_trip():
    import io as pyio

    buf = pyio.StringIO()
    rows = [(3, 0.1 + 0.2), (4, 1.0 / 3.0)]
    io.write_csv(("n", "value"), rows, fh=buf, settings={"alpha": 0.25})
    text = buf.getvalue()
    assert text.startswith("# alpha=0.25")
    data_lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    assert data_lines[0] == "n,value"
    for line, (n, val) in zip(data_lines[1:], rows):
        cn, cv = line.split(",")
        assert int(cn) == n
        assert float(cv) == val  # repr round trip, no precision loss


def test_split_report_round_trips_complex_theta():
    from qmc.ergodic import analyze
    from qmc.gauge import split

    iso = isometry("m2", 0.2)
    # the raw velocity a = (0.3 + i) v has v* a = (0.3 + i) 1, so theta_im = 1
    sp = split(analyze(iso), (0.3 + 1j) * iso.v)
    assert abs(sp.theta_im - 1.0) < 1e-12
    rep = json.loads(json.dumps(io.split_report(sp)))
    assert io.complex_from_json(rep["theta"]) == complex(sp.theta, sp.theta_im)
    assert np.array_equal(io.matrix_from_json(rep["kgen"]), sp.kgen)


def test_profile_report_emits_spectral_gap():
    from qmc.channels import Isometry
    from qmc.ergodic import analyze

    v = np.zeros((4, 2))
    v[0, 0] = v[3, 1] = 1.0
    for iso in (fixture_s(), isometry("m1", 0.3), Isometry(v, 2, 2)):
        profile = analyze(iso)
        gap = profile.diagnostics["spectral_gap"]
        rep = json.loads(json.dumps(io.profile_report(profile)))
        assert rep["diagnostics"]["spectral_gap"] == gap
        mods = np.abs(profile.eigenvalues)
        inner = mods[mods < 1.0 - profile.tol.peripheral_band]
        assert gap == 1.0 - (inner.max() if inner.size else 0.0)


def test_import_does_not_load_scipy():
    import qmc

    src = str(Path(qmc.__file__).resolve().parents[1])
    code = "import sys, qmc, qmc.cli; print('scipy' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_analyze_exit_codes(tmp_path):
    path = _write_iso(tmp_path, fixture_s(), "s.json")
    res = _run("analyze", path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["irreducible"] is True
    assert report["period"] == 2

    # reducible chain: report still printed, exit code 2
    v = np.zeros((4, 2))
    v[0, 0] = v[3, 1] = 1.0
    from qmc.channels import Isometry

    path2 = _write_iso(tmp_path, Isometry(v, 2, 2), "red.json")
    res2 = _run("analyze", path2)
    assert res2.returncode == 2
    rep2 = json.loads(res2.stdout)
    assert rep2["irreducible"] is False

    # garbage input: exit 1 with a single-line json error on stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res3 = _run("analyze", str(bad))
    assert res3.returncode == 1
    err = json.loads(res3.stderr.strip())
    assert "kind" in err and "detail" in err


def test_cli_rejects_non_finite_isometry(tmp_path):
    obj = io.isometry_to_json(fixture_s())
    obj["kraus"][0]["re"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))  # json writes the bare token NaN
    assert "NaN" in path.read_text()
    res = _run("analyze", str(path))
    assert res.returncode == 1
    assert json.loads(res.stderr.strip())["kind"] == "NotIsometry"


def test_cli_zero_tolerance_is_not_the_default(tmp_path):
    path = _write_iso(tmp_path, fixture_s(), "s.json")
    res = _run("analyze", path, "--tol-gap", "0")
    assert res.returncode == 1
    err = json.loads(res.stderr.strip())
    assert "simplicity_gap" in err["detail"]
    # the CSV settings report the tolerances actually used
    from qmc.cli import _build_parser, _settings

    args = _build_parser().parse_args(["qfi", "--model", "m1", "--theta", "0.3", "--tol-gap", "1e-7"])
    settings = _settings(args)
    assert settings["tol_gap"] == 1e-7 and settings["tol_faithful"] == 1e-9


def test_cli_equiv(tmp_path):
    from qmc.gauge import act

    iso = isometry("m1", 0.3)
    w = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)
    iso2 = act((np.exp(0.7j), w), iso)
    p1 = _write_iso(tmp_path, iso, "a.json")
    p2 = _write_iso(tmp_path, iso2, "b.json")
    res = _run("equiv", p1, p2)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["equivalent"] is True
    assert "phase" in out and "unitary" in out

    p3 = _write_iso(tmp_path, isometry("m1", 0.32), "c.json")
    res2 = _run("equiv", p1, p3)
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["equivalent"] is False


def test_cli_tangent(tmp_path):
    from qmc.qubit_example import golden_tangent

    iso = isometry("m1", 0.3)
    a, _ = golden_tangent("m1")
    pv = _write_iso(tmp_path, iso, "v.json")
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps(io.matrix_to_json(a)))
    res = _run("tangent", pv, str(pa))
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    a_id = io.matrix_from_json(out["split"]["a_id"])
    assert np.linalg.norm(a_id - a) < 1e-9  # m1's printed velocity is identifiable
    theta = complex(out["split"]["theta"]["re"], out["split"]["theta"]["im"])
    assert abs(theta) < 1e-9
    assert len(out["modes"]) == 2


def test_cli_qfi_csv():
    res = _run("qfi", "--model", "m1", "--theta", "0.3", "--n-max", "100", "--n-step", "50")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    settings = [l for l in lines if l.startswith("#")]
    assert any("qfi_rate=" in l for l in settings)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "n,f_n,f_n_over_n"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 2
    n, fn, rate_n = data[1].split(",")
    assert int(n) == 100
    assert abs(float(rate_n) - float(fn) / 100) < 1e-12


def test_cli_variance_csv():
    res = _run("variance", "--model", "m1", "--theta", "0.35", "--n-list", "16,64")
    assert res.returncode == 0, res.stderr
    lines = [l for l in res.stdout.strip().splitlines()]
    assert any("sigma2=" in l for l in lines if l.startswith("#"))
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "n,window_variance"
    assert len(data) == 3


def test_cli_converge_reports_slope(tmp_path):
    path = _write_iso(tmp_path, fixture_s(), "s.json")
    res = _run("converge", path, "--seed", "5", "--pow-min", "6", "--pow-max", "9")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    slope_line = [l for l in lines if "slope=" in l]
    assert slope_line
    slope = float(slope_line[0].split("slope=")[1].split()[0])
    assert slope < 0


def test_cli_limit_model(tmp_path):
    path = _write_iso(tmp_path, fixture_s(), "s.json")
    res = _run("limit-model", path, "--seed", "3")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["model_type"] == "mixed-gaussian"
    assert out["period"] == 2
    zeta = np.asarray(out["zeta_norms"], dtype=float)
    assert abs(zeta.sum() - 1.0) < 1e-9
    assert len(out["scale_distances"]) == 6


@pytest.mark.parametrize(
    "argv",
    [["limit-model", "CHAIN", "--seed", "3"], ["converge", "CHAIN", "--seed", "5"]],
    ids=["limit-model", "converge"],
)
def test_cli_horizon_grids_factorise_the_resolvent_twice(tmp_path, monkeypatch, capsys, argv):
    # one LU for the seeded tangent, one for every tangent the grid needs
    # (the stationary solve of analyze is its own and not counted here)
    rng = np.random.default_rng(8)
    iso = Isometry(oracles.random_isometry(rng, 6, 2), 6, 2)
    path = _write_iso(tmp_path, iso, "chain.json")
    lus = []

    def spy(*args, **kwargs):
        lus.append(args[4].shape)
        return linalg.bordered_solve(*args, **kwargs)

    monkeypatch.setattr(gauge, "bordered_solve", spy)
    assert cli.main([path if a == "CHAIN" else a for a in argv]) == 0
    assert capsys.readouterr().out
    assert len(lus) == 2, lus


def test_cli_simulate_csv_reproducible(tmp_path):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    args = (
        "simulate", "--model", "m1", "--theta", "0.35",
        "--n", "200", "--trials", "40", "--seed", "11",
    )
    r1 = _run(*args, "--csv", str(csv1))
    r2 = _run(*args, "--csv", str(csv2))
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert csv1.read_bytes() == csv2.read_bytes()
    summary = json.loads(r1.stdout)
    assert summary["model"] == "m1"
    assert summary["trials"] == 40
    assert summary["seed"] == 11
    assert 0.0 <= summary["outside_fraction"] <= 1.0
    body = csv1.read_text()
    header = [l for l in body.splitlines() if not l.startswith("#")][0]
    assert header == "trial,x_bar,estimate"


SIMULATE = ("simulate", "--theta", "0.3", "--seed", "1")
CONVERGE = ("converge", "--model", "m1", "--theta", "0.3")
QFI = ("qfi", "--model", "m1", "--theta", "0.3")
VARIANCE = ("variance", "--model", "m1", "--theta", "0.35", "--n-list")
LIMIT = ("limit-model", "--model", "m1", "--theta", "0.3", "--scale-grid")


@pytest.mark.parametrize(
    "argv,env,kind,flag",
    [
        (SIMULATE + ("--model", "m3", "--n", "1", "--block", "2", "--trials", "5"), None, "DimensionMismatch", None),
        (SIMULATE + ("--model", "m1", "--n", "50", "--trials", "1"), None, "InvalidCount", None),
        (SIMULATE + ("--model", "m1", "--n", "50", "--trials", "4"), {"QMC_THREADS": "two"}, "InvalidCount", None),
        (SIMULATE + ("--model", "m1", "--n", "50", "--trials", "4", "--seed", "-1"), None, "InvalidCount", None),
        (CONVERGE + ("--pow-min", "-1", "--pow-max", "3"), None, "InvalidCount", "--pow-min"),
        (CONVERGE + ("--pow-min", "5", "--pow-max", "3"), None, "InvalidCount", "--pow-max"),
        (CONVERGE + ("--pow-min", "5", "--pow-max", "5"), None, "InvalidCount", "--pow-max"),
        (QFI + ("--n-step", "0"), None, "InvalidCount", "--n-step"),
        (QFI + ("--n-max", "10", "--n-step", "25"), None, "InvalidCount", "--n-max"),
        (VARIANCE + ("16,x",), None, "InvalidCount", "--n-list"),
        (VARIANCE + (",",), None, "InvalidCount", "--n-list"),
        (VARIANCE + ("16,-4",), None, "InvalidCount", "--n-list"),
        (LIMIT + ("1,nan",), None, "OutOfInterval", "--scale-grid"),
        (LIMIT + ("1,,2",), None, "OutOfInterval", "--scale-grid"),
    ],
    ids=[
        "n-below-block",
        "one-trial",
        "bad-threads",
        "negative-seed",
        "converge-negative-power",
        "converge-empty-range",
        "converge-one-size",
        "qfi-step-zero",
        "qfi-max-below-step",
        "n-list-not-a-number",
        "n-list-empty-entries",
        "n-list-negative",
        "scale-grid-nan",
        "scale-grid-empty-entry",
    ],
)
def test_cli_simulate_rejects_bad_counts(argv, env, kind, flag):
    # the rows cover the count and list flags of converge, qfi, variance and
    # limit-model as well as simulate
    res = _run(*argv, env=env)
    assert res.returncode == 1, res.stdout
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    err = json.loads(line)
    assert err["kind"] == kind
    if flag is not None:
        assert flag in err["detail"]
    # a flag that fails only against another must name both
    if "--n-max" in argv:
        assert "--n-max" in err["detail"] and "--n-step" in err["detail"]


def test_cli_example_bundle():
    res = _run("example", "--model", "m2", "--theta", "0.2")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["model"] == "m2"
    assert out["limit_model"] == "gaussian-shift"
    assert abs(out["mean"]["closed_form"] - out["mean"]["stationary"]) < 1e-10
    full = _run("example", "--model", "m3", "--theta", "0.1", "--report", "full")
    assert full.returncode == 0
    rep = json.loads(full.stdout)
    assert set(out) <= set(rep)  # full report extends the summary


def test_cli_usage_errors():
    res = _run("simulate", "--n", "10", "--trials", "2")
    assert res.returncode == 1
    err = json.loads(res.stderr.strip())
    assert err["kind"] == "UsageError"
    res2 = _run("qfi", "--model", "m1")
    assert res2.returncode == 1


@pytest.mark.parametrize("subcommand", ["converge", "limit-model"])
@pytest.mark.parametrize("unit", [1.0, 0.6 + 0.8j], ids=["one", "phase"])
def test_cli_seeded_tangent_needs_identifiable_directions(tmp_path, subcommand, unit):
    # at d = k = 1 no direction is identifiable, so no seeded tangent exists
    path = _write_iso(tmp_path, Isometry(np.array([[unit]]), 1, 1), "unit.json")
    res = _run(subcommand, path)
    assert res.returncode == 1
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert json.loads(lines[0])["kind"] == "NotIdentifiable"


# flags these subcommands used to accept without reading them
TOL_AND_CAP = [("--tol-peripheral", "0.5"), ("--tol-faithful", "0.5"), ("--tol-gap", "0.5"),
               ("--cap-tensor", "1")]
DROPPED_FLAGS = [
    base + list(flag)
    for base in (["equiv", "a.json", "b.json"], list(SIMULATE) + ["--model", "m1", "--n", "5", "--trials", "2"])
    for flag in TOL_AND_CAP
] + [
    base + ["--cap-tensor", "1"]
    for base in (["analyze", "a.json"], ["tangent", "a.json", "t.json"], ["limit-model", "a.json"],
                 ["example", "--model", "m1", "--theta", "0.3"])
]


@pytest.mark.parametrize("argv", DROPPED_FLAGS, ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_cli_flags_no_command_reads_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    assert exc.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "UsageError"


def _args_read(fn, seen=None):
    """Attribute names of ``args`` that a cli function reads, following the
    module-level helpers it hands ``args`` to."""
    seen = set() if seen is None else seen
    if fn.__name__ in seen:
        return set()
    seen.add(fn.__name__)
    tree = ast.parse(inspect.getsource(fn))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args" and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        passed = [a for a in node.args if isinstance(a, ast.Name) and a.id == "args"]
        if node.func.id == "getattr" and passed:
            reads.add(node.args[1].value)
        elif passed and callable(getattr(cli, node.func.id, None)):
            reads |= _args_read(getattr(cli, node.func.id), seen)
    return reads


def test_cli_every_flag_is_read_by_its_command():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "subcommand")
    unread = {}
    for name, parser in sub.choices.items():
        declared = {a.dest for a in parser._actions if a.dest != "help"}
        missing = declared - _args_read(parser.get_default("func"))
        if missing:
            unread[name] = sorted(missing)
    assert not unread


def test_cli_stdin_dash(tmp_path):
    iso = fixture_s()
    payload = json.dumps(io.isometry_to_json(iso))
    res = _run("analyze", "-", stdin=payload)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["irreducible"] is True


def test_cli_variance_names_n_list_when_a_window_is_shorter_than_the_block(capsys):
    # the block is known only once the observable is read; the window check
    # of finite_window_variance would name no flag
    argv = ["variance", "--model", "m3", "--theta", "0.3", "--block", "2", "--n-list", "4,1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["kind"] == "InvalidCount" and "--n-list" in err["detail"]
