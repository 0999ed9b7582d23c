import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmc import ergodic
from qmc.channels import Isometry, isometry_from_kraus
from qmc.ergodic import analyze, output_state
from qmc.gaussian import mixture_trace_distance
from qmc.errors import (
    DimensionMismatch,
    GaugeConstraintViolated,
    NotHermitian,
    NotIdentifiable,
    NotIrreducible,
    NotTangent,
    SingularResolvent,
    UnitDimMismatch,
    WitnessInconsistent,
)
from qmc.gauge import (
    act,
    equivalence_witness,
    mode_decompose,
    restricted_resolvent_solve,
    singular_dimension,
    split,
    stabiliser,
    stabiliser_tangent_action,
    tangent_inner,
    witness_matches,
)
from qmc.linalg import bordered_solve, dag
from qmc.qubit_example import fixture_s, golden_modes, isometry
from qmc.statmodel import asymptotic_variance, qfi_rate

import oracles


def _random_gauge(rng, d):
    w = oracles.random_unitary(rng, d)
    c = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return complex(c), w


def test_witness_recovery_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        iso = Isometry(oracles.random_isometry(rng, 2, 2), 2, 2)
        profile = analyze(iso)
        if not profile.is_irreducible:
            continue
        g = _random_gauge(rng, 2)
        iso2 = act(g, iso)
        witness = equivalence_witness(iso, iso2)
        assert witness is not None
        assert witness_matches(profile, witness, g)


def test_witness_reconstructs_output_states():
    rng = np.random.default_rng(12)
    iso = Isometry(oracles.random_isometry(rng, 2, 2), 2, 2)
    g = _random_gauge(rng, 2)
    iso2 = act(g, iso)
    c, w = equivalence_witness(iso, iso2)
    # the witness satisfies (w (x) 1) v2 = c v1 w, so undoing it on iso
    # must reproduce iso2 up to numerical noise
    rec = act((np.conj(c), dag(w)), iso)
    rho = np.eye(2) / 2
    for n in range(1, 6):
        delta = output_state(rec, rho, n) - output_state(iso2, rho, n)
        assert oracles.trace_norm(delta) < 1e-9, n


def test_gauge_action_preserves_output_statistics():
    rng = np.random.default_rng(13)
    iso = Isometry(oracles.random_isometry(rng, 2, 2), 2, 2)
    c, w = _random_gauge(rng, 2)
    iso2 = act((c, w), iso)
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    # conjugating the input compensates the gauge exactly
    for n in (1, 3):
        s1 = output_state(iso, rho, n)
        s2 = output_state(iso2, w @ rho @ dag(w), n)
        assert oracles.trace_norm(s1 - s2) < 1e-10


def test_inequivalent_chains_give_none():
    assert equivalence_witness(isometry("m1", 0.3), isometry("m1", 0.32)) is None


def test_witness_stops_at_a_reducible_first_chain(monkeypatch):
    # two decoupled blocks: the first chain is reducible, and the second is
    # never analysed
    rng = np.random.default_rng(21)
    blocks = [oracles.random_isometry(rng, 2, 2) for _ in range(2)]
    kraus = [
        np.kron(np.diag([1.0, 0.0]), blocks[0][u::2]) + np.kron(np.diag([0.0, 1.0]), blocks[1][u::2])
        for u in range(2)
    ]
    reducible = isometry_from_kraus(kraus)
    analysed = []
    monkeypatch.setattr(ergodic, "analyze", lambda iso: analysed.append(iso) or analyze(iso))
    with pytest.raises(NotIrreducible):
        equivalence_witness(reducible, isometry_from_kraus(kraus[::-1]))
    assert analysed == [reducible]


@pytest.mark.parametrize("other", ["x", None], ids=["string", "none"])
def test_witness_rejects_an_operand_that_is_not_an_isometry(other, monkeypatch):
    # iso2 = "x" used to escape as AttributeError from iso2.d
    analysed = []
    monkeypatch.setattr(ergodic, "analyze", lambda iso: analysed.append(iso) or analyze(iso))
    for pair in ((isometry("m1", 0.3), other), (other, isometry("m1", 0.3))):
        with pytest.raises(DimensionMismatch):
            equivalence_witness(*pair)
    assert not analysed


def test_witness_rejects_unequal_unit_dimensions():
    iso3 = Isometry(oracles.random_isometry(np.random.default_rng(4), 2, 3), 2, 3)
    with pytest.raises(UnitDimMismatch):
        equivalence_witness(isometry("m1", 0.3), iso3)


def test_singular_bordered_system_raises_singular_resolvent(monkeypatch):
    from qmc import gauge

    profile = analyze(isometry("m1", 0.3))

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(gauge, "bordered_solve", singular)
    with pytest.raises(SingularResolvent):
        restricted_resolvent_solve(profile, np.diag([1.0, -1.0]).astype(complex))


def test_swap_point_stabiliser():
    profile = analyze(fixture_s())
    gens = stabiliser(profile)
    assert len(gens) == 2
    (c0, w0), (c1, w1) = gens
    assert abs(c0 - 1) < 1e-12 and np.linalg.norm(w0 - np.eye(2)) < 1e-12
    assert abs(c1 + 1) < 1e-10
    assert np.linalg.norm(np.abs(w1) - np.eye(2)) < 1e-10
    for g in gens:
        fixed = act(g, profile.iso)
        assert np.linalg.norm(fixed.v - profile.iso.v) < 1e-9
    # the generators are the caller's to change; the profile keeps its own
    z = profile.zmat.copy()
    for _, w in gens:
        w[:] = 0.0
    assert np.array_equal(profile.zmat, z)
    assert np.array_equal(stabiliser(profile)[0][1], np.eye(2))


def test_model3_reflection_equivalences():
    """The two parameter reflections act by the same conjugation, with
    opposite phases."""
    theta = 0.3
    iso = isometry("m3", theta)
    profile = analyze(iso)
    z = np.diag([1.0, -1.0]).astype(complex)
    for other, c_expected in ((np.pi - theta, 1.0), (-theta, -1.0)):
        iso2 = isometry("m3", other, strict=False)
        witness = equivalence_witness(iso, iso2)
        assert witness is not None
        assert witness_matches(profile, witness, (c_expected, z)), other


def test_witness_matches_rejects_pairs_that_are_not_gauge_elements():
    profile = analyze(isometry("m1", 0.3))
    g = (1.0, np.eye(2))
    for bad in ((np.nan, 1), (1.0, np.full((2, 2), np.nan)), (1.0, 2.0 * np.eye(2))):
        with pytest.raises(GaugeConstraintViolated):
            witness_matches(profile, bad, g)
        with pytest.raises(GaugeConstraintViolated):
            witness_matches(profile, g, bad)
    with pytest.raises(DimensionMismatch):
        witness_matches(profile, (1.0, np.eye(3)), g)
    assert witness_matches(profile, g, g)


def test_split_idempotent_and_orthogonal():
    rng = np.random.default_rng(14)
    profile = analyze(isometry("m1", 0.3))
    for _ in range(6):
        raw = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        s = split(profile, raw)
        assert np.linalg.norm(dag(profile.iso.v) @ s.a_id) < 1e-9
        s2 = split(profile, s.a_id)
        assert np.linalg.norm(s2.a_id - s.a_id) < 1e-9
        assert abs(s2.theta) < 1e-9


def test_mode_decomposition_sums_and_is_orthogonal():
    profile = analyze(fixture_s())
    rng = np.random.default_rng(15)
    raw = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a_id = split(profile, raw).a_id
    modes = mode_decompose(profile, a_id)
    assert len(modes) == profile.period
    assert np.linalg.norm(sum(modes) - a_id) < 1e-10
    cross = tangent_inner(profile, modes[0], modes[1])
    assert abs(cross) < 1e-10


def test_stabiliser_action_is_mode_phase():
    profile = analyze(fixture_s())
    modes = golden_modes()
    for m_idx, mat in ((0, modes["B0"]), (1, modes["B1"])):
        acted = stabiliser_tangent_action(profile, 1, mat)
        assert np.linalg.norm(acted - profile.gamma**m_idx * mat) < 1e-10
    # applying the generator p times is the identity
    twice = stabiliser_tangent_action(
        profile, 1, stabiliser_tangent_action(profile, 1, modes["B1"])
    )
    assert np.linalg.norm(twice - modes["B1"]) < 1e-10


def test_singular_dimensions_at_swap_point():
    dims = singular_dimension(analyze(fixture_s()))
    assert dims["d_id"] == 8
    assert dims["d_nonid"] == 4
    assert dims["mode_dims"] == [4, 4]
    assert dims["l"] == 4


def test_tangent_inner_is_positive_sesquilinear():
    profile = analyze(isometry("m1", 0.3))
    rng = np.random.default_rng(16)
    raw = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    x = split(profile, raw).a_id
    y = split(profile, raw[::-1]).a_id
    gxx = tangent_inner(profile, x, x)
    assert gxx.real > 0 and abs(gxx.imag) < 1e-12
    assert abs(tangent_inner(profile, x, y) - np.conj(tangent_inner(profile, y, x))) < 1e-12
    assert abs(tangent_inner(profile, 2j * x, y) - (-2j) * tangent_inner(profile, x, y)) < 1e-12


def test_non_finite_operands_are_rejected():
    # each guard used to read `x > tol`, which is False for NaN
    profile = analyze(isometry("m1", 0.3))
    nan = np.full((4, 2), np.nan)
    for bad in (nan, np.full((4, 2), np.inf)):
        with pytest.raises(NotTangent):
            split(profile, bad)
    with pytest.raises(NotIdentifiable):
        tangent_inner(profile, nan, nan)


@pytest.mark.parametrize(
    "iso",
    [
        isometry("m3", 0.3),
        isometry("m1", 0.3),
        Isometry(oracles.random_isometry(np.random.default_rng(41), 4, 2), 4, 2),
    ],
    ids=["m3-p1", "m1-p2", "random-d4"],
)
def test_split_recovers_what_dmu_pushed_forward(iso):
    profile = analyze(iso)
    rng = np.random.default_rng(42)
    d = iso.d
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + dag(h)
    kgen = h - np.trace(profile.rho_ss @ h).real * np.eye(d)
    theta = float(rng.standard_normal())
    a = oracles.dmu(iso, theta, kgen)
    sp = split(profile, a)
    assert abs(sp.theta - theta) <= 1e-12 and abs(sp.theta_im) <= 1e-12
    assert np.linalg.norm(sp.kgen - kgen) <= 1e-12 * np.linalg.norm(kgen)
    assert np.linalg.norm(sp.a_id) <= 1e-12 * np.linalg.norm(a)


def test_non_finite_gauge_elements_are_rejected():
    # the phase and unitarity guards used to read `x > 1e-8`, which is
    # False for NaN; the NaN then surfaced as NotIsometry from the result
    iso = isometry("m1", 0.3)
    with pytest.raises(GaugeConstraintViolated):
        act((complex("nan+0j"), np.eye(2)), iso)
    with pytest.raises(GaugeConstraintViolated):
        act((1.0, np.full((2, 2), np.nan)), iso)


def test_witness_rejects_non_finite_eigenvector(monkeypatch):
    import qmc.gauge as gauge

    # the bordered solve belongs to the dense route, which m2 (d = 2) takes
    # by the size rule; the Kraus stage is made undecided to keep it so
    monkeypatch.setattr(gauge, "_kraus_peripheral", lambda *args: None)
    monkeypatch.setattr(gauge, "bordered_eigvec", lambda m, lam: (np.full(m.shape[0], np.nan), 0.0))
    iso = isometry("m2", 0.2)
    with pytest.raises(WitnessInconsistent):
        equivalence_witness(iso, iso)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_witness_rejects_non_finite_relation_residual(monkeypatch):
    # m2 has period 1, so the polar step is the only SVD of the call
    svd = np.linalg.svd

    def nan_left_factor(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return np.full_like(u, np.nan), s, vh

    monkeypatch.setattr(np.linalg, "svd", nan_left_factor)
    iso = isometry("m2", 0.2)
    with pytest.raises(WitnessInconsistent, match="relation residual"):
        equivalence_witness(iso, iso)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_kraus_witness_rejects_non_finite_relation_residual(monkeypatch):
    # a primitive d = 16 pair takes the Kraus route, and analyze certifies
    # both chains without an SVD, so again the polar step is the only one
    svd = np.linalg.svd
    calls = []

    def nan_left_factor(a, *args, **kwargs):
        calls.append(a.shape)
        u, s, vh = svd(a, *args, **kwargs)
        return np.full_like(u, np.nan), s, vh

    rng = np.random.default_rng(15)
    iso = Isometry(oracles.random_isometry(rng, 16, 2), 16, 2)
    iso2 = act(_random_gauge(rng, 16), iso)
    monkeypatch.setattr(np.linalg, "svd", nan_left_factor)
    with pytest.raises(WitnessInconsistent, match="relation residual"):
        equivalence_witness(iso, iso2)
    assert calls == [(16, 16)]


# draws whose chains both certificates decide: p = 1 and p = 2 at d = 8
CERTIFIED_DRAWS = {(8, 3, 1, 0): 1, (8, 3, 2, 0): 2}


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=3),
    period=st.sampled_from([1, 2, 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(d=8, k=3, period=1, seed=0)
@example(d=8, k=3, period=2, seed=0)
def test_spectral_profile_is_gauge_invariant(d, k, period, seed):
    # T' = w T(w* . w) w* is T conjugated by an orthogonal map of the real
    # Hermitian coordinates, so the spectrum, the verdict, the gap and the
    # condition number are invariant and rho_ss moves to w rho_ss w*.  The
    # size rule is lifted so that both certificates run at these d.
    _check_gauge_invariance(d, k, period, seed, ergodic._KRAUS_MIN_D)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=8),
    k=st.integers(min_value=1, max_value=3),
    period=st.sampled_from([1, 2, 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(d=8, k=3, period=1, seed=0)
@example(d=8, k=3, period=2, seed=0)
def test_spectral_profile_is_gauge_invariant_on_the_kraus_route(d, k, period, seed):
    # the same draws with the certificate stepping in Kraus form at every d
    _check_gauge_invariance(d, k, period, seed, 1)


def _check_gauge_invariance(d, k, period, seed, kraus_min_d):
    rng = np.random.default_rng(seed)
    if period > 1 and d % period == 0:
        iso = Isometry(oracles.cyclic_isometry(rng, d, k, period), d, k)
    else:
        iso = Isometry(oracles.random_isometry(rng, d, k), d, k)
    c, w = _random_gauge(rng, d)
    answers = []
    certify = ergodic._certify

    def spy(r, chain, tol):
        answers.append(certify(r, chain, tol))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_CERTIFY_MIN_D", 1)
        mp.setattr(ergodic, "_KRAUS_MIN_D", kraus_min_d)
        mp.setattr(ergodic, "_certify", spy)
        before, after = analyze(iso), analyze(act((c, w), iso))
    if (d, k, period, seed) in CERTIFIED_DRAWS:
        assert answers == [CERTIFIED_DRAWS[d, k, period, seed]] * 2
    assert oracles.spectrum_distance(after.eigenvalues, before.eigenvalues) <= 1e-10
    assert after.is_irreducible == before.is_irreducible
    assert after.period == before.period
    gap = before.diagnostics["spectral_gap"]
    assert abs(after.diagnostics["spectral_gap"] - gap) <= 1e-10
    if not before.is_irreducible:
        return
    assert np.linalg.norm(after.rho_ss - w @ before.rho_ss @ dag(w)) <= 1e-10
    a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    cond = split(before, a).resolvent_cond
    assert abs(split(after, a).resolvent_cond - cond) <= 1e-8 * cond
    # the output process is the same on the whole orbit, so is its CLT
    # variance; a random Hermitian q has sigma^2 > 0 unless k = 1
    q = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q = q + dag(q)
    s2 = asymptotic_variance(before, q)
    assert abs(asymptotic_variance(after, q) - s2) <= 1e-10 * max(abs(s2), np.linalg.norm(q) ** 2)
    # an identifiable tangent moves to conj(c) (w (x) 1) x w*, and the
    # mixture distance of the limit model is the same at both points; at
    # k = 1 the identifiable space is {0} and a_id is roundoff
    points = []
    for _ in range(2):
        raw = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
        x = split(before, raw).a_id
        points.append(x / np.sqrt(tangent_inner(before, x, x).real) if k > 1 else x)
    moved = [np.conj(c) * np.kron(w, np.eye(k)) @ x @ dag(w) for x in points]
    dist = mixture_trace_distance(before, *points)
    assert abs(mixture_trace_distance(after, *moved) - dist) <= 1e-9
    # and the stabiliser orbit of a point is one point of the limit model
    orbit = stabiliser_tangent_action(after, 1, moved[0])
    assert mixture_trace_distance(after, moved[0], orbit) <= 1e-9
    # the QFI rate of a raw tangent carried along by the gauge action is
    # invariant, and so is the cross rate of two; at k = 1 both are roundoff
    b = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    a_moved, b_moved = (np.conj(c) * np.kron(w, np.eye(k)) @ t @ dag(w) for t in (a, b))
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    rate = qfi_rate(before, a)
    assert abs(qfi_rate(after, a_moved) - rate) <= 1e-10 * max(rate, np.linalg.norm(a) ** 2)
    cross = qfi_rate(before, a, b)
    assert abs(qfi_rate(after, a_moved, b_moved) - cross) <= 1e-10 * max(abs(cross), scale)


# --------------------------------------------------------------------------
# stacked tangents: one factorisation per call


def _stack_chains():
    rng = np.random.default_rng(1313)
    yield "primitive-d5", Isometry(oracles.random_isometry(rng, 5, 2), 5, 2)
    yield "p2-d6", Isometry(oracles.cyclic_isometry(rng, 6, 2, 2), 6, 2)
    yield "p3-d6", Isometry(oracles.cyclic_isometry(rng, 6, 2, 3), 6, 2)
    yield "d1", Isometry(oracles.random_isometry(rng, 1, 3), 1, 3)


STACK_PROFILES = [(label, analyze(iso)) for label, iso in _stack_chains()]


def _raw_stack(rng, shape, m):
    return rng.standard_normal((m,) + shape) + 1j * rng.standard_normal((m,) + shape)


def _close13(got, ref, scale):
    return np.linalg.norm(got - ref) <= 1e-13 * max(np.linalg.norm(ref), scale)


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("label,profile", STACK_PROFILES, ids=[c[0] for c in STACK_PROFILES])
def test_stacked_split_equals_member_splits(label, profile, m):
    assert profile.is_irreducible
    rng = np.random.default_rng(m)
    a = _raw_stack(rng, profile.iso.v.shape, m)
    splits = split(profile, a)
    assert isinstance(splits, list) and len(splits) == m
    for t, got in zip(a, splits):
        ref = split(profile, t)
        scale = np.linalg.norm(t)
        assert abs(got.theta - ref.theta) <= 1e-13 * scale
        assert abs(got.theta_im - ref.theta_im) <= 1e-13 * scale
        assert _close13(got.kgen, ref.kgen, scale)
        assert _close13(got.a_id, ref.a_id, scale)
        assert got.resolvent_cond == ref.resolvent_cond
    # (I - T) x = rhs - s rho_ss on Tr(rho_ss x) = 0, member by member
    rhs = _raw_stack(rng, (profile.d, profile.d), m)
    x = restricted_resolvent_solve(profile, rhs)
    assert x.shape == rhs.shape and profile.resolvent_cond == splits[0].resolvent_cond
    for b, got in zip(rhs, x):
        ref = restricted_resolvent_solve(profile, b)
        assert _close13(got, ref, np.linalg.norm(b))


def test_stacked_split_gives_equal_members_equal_splits():
    profile = STACK_PROFILES[0][1]
    rng = np.random.default_rng(4)
    a = _raw_stack(rng, profile.iso.v.shape, 2)
    splits = split(profile, np.stack([a[0], a[1], 1.0 * a[0], a[1]]))
    for i, j in ((0, 2), (1, 3)):
        assert np.array_equal(splits[i].a_id, splits[j].a_id)
        assert np.array_equal(splits[i].kgen, splits[j].kgen)
    # a lone tangent keeps the single-call result, not a one-member list
    assert np.array_equal(split(profile, a[0]).a_id, splits[0].a_id)


def test_stacked_split_rejects_bad_members():
    profile = STACK_PROFILES[1][1]
    rng = np.random.default_rng(5)
    shape = profile.iso.v.shape
    a = _raw_stack(rng, shape, 3)
    a[1, 0, 0] = np.nan
    with pytest.raises(NotTangent):
        split(profile, a)
    for bad in (
        _raw_stack(rng, (shape[0] + 1, shape[1]), 2),
        _raw_stack(rng, shape, 0),
        _raw_stack(rng, (2,) + shape, 2),
    ):
        with pytest.raises(DimensionMismatch):
            split(profile, bad)
    d = profile.d
    with pytest.raises(DimensionMismatch):
        restricted_resolvent_solve(profile, _raw_stack(rng, (d + 1, d + 1), 2))
    rhs = _raw_stack(rng, (d, d), 3)
    rhs[2, 1, 1] = np.inf
    with pytest.raises(NotHermitian):
        restricted_resolvent_solve(profile, rhs)


@pytest.mark.parametrize("system", ["real", "complex"])
def test_bordered_solve_block_equals_column_solves(system):
    rng = np.random.default_rng(6)
    n, m = 9, 4
    a = rng.standard_normal((n, n))
    col, row = rng.standard_normal((2, n))
    if system == "complex":
        a = a + 1j * rng.standard_normal((n, n))
    rhs = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    tail = rng.standard_normal(m)
    x, s = bordered_solve(a, 0.3, col, row, rhs, tail)
    assert x.shape == (n, m) and s.shape == (m,)
    for j in range(m):
        xj, sj = bordered_solve(a, 0.3, col, row, rhs[:, j], tail[j])
        assert np.linalg.norm(x[:, j] - xj) <= 1e-13 * np.linalg.norm(xj)
        assert abs(s[j] - sj) <= 1e-13 * max(abs(sj), 1.0)
