"""Workload definitions: seeded inputs, fixed task lists and their checks.

``BUILDERS[name](seed, scratch)`` returns the workload's list of ``Task``
objects; ``scratch`` is a directory for input files.  A pass runs every
task in order; a task returns ``None`` when its output passes its
correctness check and a short reason string when it does not.  Tasks
that depend on an earlier task of the same pass (``split`` needs the
profile from ``analyze``) share the per-pass ``state`` dict.

Every call into the package goes through a module attribute
(``qmc.ergodic.analyze``, ``qmc.cli.main``, ...), looked up at call time,
so the tracer's wrappers see the calls the benchmark makes as well as the
calls the modules make to each other.

The checks compare discrete facts (verdicts, periods, exceptions, exact
zeros) or quantities with a known limit, never a residual that a valid
new algorithm could legitimately move.
"""

import contextlib
import csv
import io as _io
import json
from dataclasses import dataclass

import numpy as np

import qmc
import qmc.cli
import qmc.ergodic
import qmc.gauge
import qmc.io
import qmc.statmodel
import qmc.trajectories
from qmc.errors import NotIrreducible


@dataclass
class Task:
    name: str
    run: object  # callable(state) -> None or a failure reason


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream)))


def _random_isometry(rng, d_out, d_in):
    """Haar-like isometry C^d_in -> C^d_out (QR of a complex Gaussian)."""
    m = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, _ = np.linalg.qr(m)
    return q


def random_chain(rng, d, k):
    """Random chain; primitive with probability one."""
    return qmc.Isometry(_random_isometry(rng, d * k, d), d, k)


def cyclic_chain(rng, d, k, p):
    """Period-p chain: Kraus operators map block a into block a+1 mod p.

    For each block a, the stacked maps B_{u,a}: H_a -> H_{a+1} form a
    random isometry H_a -> C^k (x) H_{a+1}, so sum_u K_u* K_u = 1.
    """
    size = d // p
    kraus = [np.zeros((d, d), dtype=complex) for _ in range(k)]
    for a in range(p):
        src = slice(a * size, (a + 1) * size)
        dst = slice(((a + 1) % p) * size, ((a + 1) % p + 1) * size)
        w = _random_isometry(rng, k * size, size)
        for u in range(k):
            kraus[u][dst, src] = w[u * size : (u + 1) * size]
    return qmc.isometry_from_kraus(kraus)


def reducible_chain(rng, d, k):
    """Block-diagonal chain of two random chains of size d/2: reducible."""
    h = d // 2
    left = random_chain(rng, h, k).kraus
    right = random_chain(rng, h, k).kraus
    kraus = []
    for a, b in zip(left, right):
        m = np.zeros((d, d), dtype=complex)
        m[:h, :h] = a
        m[h:, h:] = b
        kraus.append(m)
    return qmc.isometry_from_kraus(kraus)


def _random_unitary(rng, d):
    return _random_isometry(rng, d, d)


# --------------------------------------------------------------------------
# spectral


def _spectral_chain_tasks(label, iso, expect, rng):
    """Tasks for one chain; ``expect`` is the period, or 0 for reducible."""
    d, k = iso.d, iso.k
    a = rng.standard_normal((d * k, d)) + 1j * rng.standard_normal((d * k, d))
    q = np.diag(np.arange(k)).astype(complex)
    gauge_elem = (complex(np.exp(2j * np.pi * rng.random())), _random_unitary(rng, d))
    key = f"profile:{label}"
    tasks = []

    def analyze(state):
        prof = qmc.ergodic.analyze(iso)
        state[key] = prof
        if expect == 0:
            return None if not prof.is_irreducible else "reducible chain reported irreducible"
        if not prof.is_irreducible:
            return f"irreducible chain reported reducible: {prof.diagnostics.get('reason')}"
        if prof.period != expect:
            return f"period {prof.period}, built with {expect}"
        return None

    def split(state):
        prof = state[key]
        if expect == 0:
            try:
                qmc.gauge.split(prof, a)
            except NotIrreducible:
                return None
            return "split of a reducible chain did not raise NotIrreducible"
        sp = qmc.gauge.split(prof, a)
        res = np.linalg.norm(iso.v.conj().T @ sp.a_id)
        if not res <= 1e-8 * np.linalg.norm(a):
            return f"v* a_id has norm {res:.3e}"
        return None

    def variance(state):
        prof = state[key]
        if expect == 0:
            try:
                qmc.statmodel.asymptotic_variance(prof, q)
            except NotIrreducible:
                return None
            return "variance of a reducible chain did not raise NotIrreducible"
        s2 = qmc.statmodel.asymptotic_variance(prof, q)
        if not (np.isfinite(s2) and s2 > 0):
            return f"sigma^2 = {s2!r}"
        return None

    def witness(state):
        iso2 = qmc.gauge.act(gauge_elem, iso)
        if expect == 0:
            try:
                qmc.gauge.equivalence_witness(iso, iso2)
            except NotIrreducible:
                return None
            return "witness on a reducible chain did not raise NotIrreducible"
        found = qmc.gauge.equivalence_witness(iso, iso2)
        if found is None:
            return "gauge-equivalent chains reported inequivalent"
        if not qmc.gauge.witness_matches(state[key], found, gauge_elem):
            return "witness does not match the gauge element"
        return None

    def span(state):
        verdict = qmc.ergodic.access_span_check(iso)
        if verdict != state[key].is_irreducible:
            return f"span oracle says {verdict}, analyze says {state[key].is_irreducible}"
        return None

    tasks += [
        Task(f"analyze:{label}", analyze),
        Task(f"split:{label}", split),
        Task(f"asymptotic_variance:{label}", variance),
    ]
    if d <= 16:
        tasks += [
            Task(f"equivalence_witness:{label}", witness),
            Task(f"access_span_check:{label}", span),
        ]
    return tasks


def build_spectral(seed, scratch):
    rng = _rng(seed, 1)
    chains = [
        ("d8k2", random_chain(rng, 8, 2), 1),
        ("d16k2", random_chain(rng, 16, 2), 1),
        ("d24k2", random_chain(rng, 24, 2), 1),
        ("d32k2", random_chain(rng, 32, 2), 1),
        ("d16k3", random_chain(rng, 16, 3), 1),
        ("d16p2", cyclic_chain(rng, 16, 2, 2), 2),
        ("d24p3", cyclic_chain(rng, 24, 2, 3), 3),
        ("d16red", reducible_chain(rng, 16, 2), 0),
    ]
    tasks = []
    for label, iso, expect in chains:
        tasks += _spectral_chain_tasks(label, iso, expect, rng)
    return tasks


# --------------------------------------------------------------------------
# horizon


def _run_cli(argv):
    """Run qmc.cli.main in-process; returns (exit code, stdout text)."""
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qmc.cli.main(argv)
    return code, buf.getvalue()


def _parse_csv(text):
    settings, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            settings[key] = val
        else:
            body.append(line)
    rows = list(csv.DictReader(body))
    return settings, rows


def _cli_task(name, argv, check):
    def run(state):
        code, out = _run_cli(argv)
        if code != 0:
            return f"exit code {code}"
        return check(out)

    return Task(name, run)


def _check_qfi(out):
    _, rows = _parse_csv(out)
    rate = qmc.qubit_example.closed_form_qfi_rate(0.3)
    last = rows[-1]
    n, ratio = int(last["n"]), float(last["f_n_over_n"])
    # F_n/n = rate + O(1/n); at n = 8000 the correction is far below 1%
    if not abs(ratio - rate) <= 0.01 * rate:
        return f"F_n/n = {ratio} at n = {n}, closed-form rate {rate}"
    return None


def _check_slope(out):
    """m1: the error decays like n^(-1/2)."""
    settings, _ = _parse_csv(out)
    slope = float(settings["slope"])
    if not abs(slope + 0.5) <= 0.2:
        return f"log-log error slope {slope}, expected -1/2 +- 0.2"
    return None


def _check_decay(out):
    """Random chain with y = -x: the n^(-1/2) term can cancel, leaving n^(-1),
    so only decay at least as fast as the n^(-1/2) bound is required."""
    settings, rows = _parse_csv(out)
    slope = float(settings["slope"])
    errors = [float(r["error"]) for r in rows]
    if not (all(np.isfinite(errors)) and slope <= -0.3):
        return f"log-log error slope {slope}, expected at most -0.3"
    return None


def _check_variance(out):
    settings, rows = _parse_csv(out)
    vals = [float(settings["sigma2"])] + [float(r["window_variance"]) for r in rows]
    if not all(np.isfinite(v) and v > 0 for v in vals):
        return f"non-positive or non-finite variance in {vals}"
    return None


def _check_limit_model(out):
    rep = json.loads(out)
    at_one = [e["distance"] for e in rep["scale_distances"] if e["scale"] == 1.0]
    if at_one != [0.0]:
        return f"scale-1.0 mixture distance {at_one}, expected exactly 0"
    return None


def _check_example(out):
    rep = json.loads(out)
    mean = rep["mean"]
    if not abs(mean["stationary"] - mean["closed_form"]) <= 1e-9:
        return f"stationary mean {mean['stationary']} vs closed form {mean['closed_form']}"
    return None


def build_horizon(seed, scratch):
    rng = _rng(seed, 2)
    chain_path = scratch / f"horizon-chain-{seed}.json"
    chain_path.write_text(json.dumps(qmc.io.isometry_to_json(random_chain(rng, 16, 2))))
    chain = str(chain_path)
    return [
        _cli_task(
            "qfi:m1",
            ["qfi", "--model", "m1", "--theta", "0.3", "--n-max", "8000", "--n-step", "25"],
            _check_qfi,
        ),
        _cli_task(
            "converge:m1",
            ["converge", "--model", "m1", "--theta", "0.3", "--pow-min", "6", "--pow-max", "16"],
            _check_slope,
        ),
        _cli_task(
            "converge:d16",
            ["converge", chain, "--seed", "5", "--pow-min", "6", "--pow-max", "12"],
            _check_decay,
        ),
        _cli_task(
            "variance:m3",
            ["variance", "--model", "m3", "--theta", "0.3", "--block", "2",
             "--n-list", "16,64,256,1024,4096"],
            _check_variance,
        ),
        _cli_task("limit-model:d16", ["limit-model", chain, "--seed", "3"], _check_limit_model),
        _cli_task(
            "example:m1",
            ["example", "--model", "m1", "--theta", "0.3", "--report", "full"],
            _check_example,
        ),
        _cli_task(
            "example:m3",
            ["example", "--model", "m3", "--theta", "0.3", "--report", "full"],
            _check_example,
        ),
    ]


# --------------------------------------------------------------------------
# sampler


def build_sampler(seed, scratch):
    """Trajectory tasks of under a second each on a quiet host.

    The batch shapes (500 trials at d = 2, 100 trials at d = 8) set the
    per-step cost; the step counts are kept short so that a 38 s run
    holds a dozen or more passes for the per-task medians.
    """
    rng = _rng(seed, 3)
    s_m1, s_m3, s_d8 = (int(s) for s in rng.integers(0, 2**31, size=3))
    iso8 = random_chain(rng, 8, 3)
    q8 = np.diag(np.arange(3)).astype(complex)

    def estimator_m1(state):
        out = qmc.trajectories.run_estimator("m1", 0.35, n=2000, trials=500, seed=s_m1)
        if not out["outside_fraction"] <= 0.05:
            return f"outside fraction {out['outside_fraction']}"
        return None

    def estimator_m3(state):
        out = qmc.trajectories.run_estimator("m3", 0.3, n=2000, trials=400, seed=s_m3, block=2)
        if not np.all(np.isfinite(out["estimates"])):
            return "non-finite estimates"
        return None

    def fluctuations_d8(state):
        prof = qmc.ergodic.analyze(iso8)
        st = qmc.trajectories.fluctuation_stats(iso8, prof, q8, n=500, trials=100, seed=s_d8)
        dev = abs(st.empirical_var - st.predicted_var)
        if not dev <= 4 * st.var_stderr:
            return f"|emp - pred| = {dev:.4g} exceeds 4 * stderr = {4 * st.var_stderr:.4g}"
        return None

    return [
        Task("run_estimator:m1", estimator_m1),
        Task("run_estimator:m3b2", estimator_m3),
        Task("fluctuation_stats:d8k3", fluctuations_d8),
    ]


BUILDERS = {"spectral": build_spectral, "horizon": build_horizon, "sampler": build_sampler}
