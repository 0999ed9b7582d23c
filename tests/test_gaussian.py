import numpy as np
import pytest

from qmc.channels import Isometry
from qmc.ergodic import analyze
from qmc.errors import (
    DimensionMismatch,
    GramNotPSD,
    IndexOutOfRange,
    InvalidCount,
    NotIdentifiable,
    ProfileMismatch,
)
from qmc.gauge import mode_decompose, split, stabiliser_tangent_action, tangent_inner
from qmc import gaussian
from qmc.gaussian import (
    ModePoint,
    lambda_k,
    mixture_gram,
    mixture_trace_distance,
    mode_point,
    predicted_component_limit,
    zeta_gram,
)
from qmc.qubit_example import fixture_s, golden_modes, isometry, periodic_point

import oracles


def _identifiable(profile, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    shape = (profile.d * profile.k, profile.d)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a_id = split(profile, raw).a_id
    norm = np.sqrt(tangent_inner(profile, a_id, a_id).real)
    return a_id * (scale / norm)


def test_zeta_normalisation_random_periodic_models():
    rng = np.random.default_rng(30)
    checked = 0
    while checked < 25:
        w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
        try:
            iso = periodic_point(w, z)
        except Exception:
            continue
        profile = analyze(iso)
        if not profile.is_irreducible:
            continue
        x = _identifiable(profile, checked + 100, scale=rng.uniform(0.2, 1.5))
        total = np.sum(zeta_gram(profile, x, x)).real
        assert abs(total - 1.0) < 1e-10
        checked += 1


def test_zeta_split_is_hyperbolic_for_period_two():
    """Pure mode-1 displacements split the sector weights into
    exp(-r^2) cosh r^2 and exp(-r^2) sinh r^2."""
    profile = analyze(fixture_s())
    b1 = golden_modes()["B1"]
    for scale in (0.35, 1.0, 1.7):
        x = scale * b1
        r2 = tangent_inner(profile, x, x).real
        g = zeta_gram(profile, x, x)
        assert abs(g[0] - np.exp(-r2) * np.cosh(r2)) < 1e-12
        assert abs(g[1] - np.exp(-r2) * np.sinh(r2)) < 1e-12


def test_eta_hat_vanishes_at_origin():
    profile = analyze(fixture_s())
    zero = np.zeros((4, 2))
    lam = lambda_k(profile, zero, zero)
    assert np.max(np.abs(lam)) < 1e-14


def test_component_limit_selection_rule_at_origin():
    """With both displacements zero the predicted limit is the bare
    stationary weight, concentrated on b = a + r mod p."""
    profile = analyze(fixture_s())
    zero = np.zeros((4, 2))
    p = profile.period
    for r in range(p):
        for a in range(p):
            for b in range(p):
                val = predicted_component_limit(profile, a, b, 0, 0, r, zero, zero)
                if (a - b + r) % p == 0:
                    assert abs(val - 1.0) < 1e-12, (a, b, r)
                else:
                    assert abs(val) < 1e-12, (a, b, r)


def test_coherent_overlap_properties():
    profile = analyze(fixture_s())
    x = _identifiable(profile, 31)
    y = _identifiable(profile, 32)
    # the coherent overlap is exp(lambda_0)
    oxx = np.exp(lambda_k(profile, x, x)[0])
    assert abs(oxx - 1.0) < 1e-12
    oxy = np.exp(lambda_k(profile, x, y)[0])
    oyx = np.exp(lambda_k(profile, y, x)[0])
    assert abs(oxy - np.conj(oyx)) < 1e-12
    assert abs(oxy) < 1.0


def test_mixture_distance_separates_scales():
    profile = analyze(fixture_s())
    x = _identifiable(profile, 33)
    assert mixture_trace_distance(profile, x, x) < 1e-12
    d_scaled = mixture_trace_distance(profile, x, 1.3 * x)
    assert d_scaled > 1e-3
    d_sym = mixture_trace_distance(profile, 1.3 * x, x)
    assert abs(d_scaled - d_sym) < 1e-12


def test_mixture_invariant_under_stabiliser_orbit():
    profile = analyze(fixture_s())
    x = _identifiable(profile, 34)
    gx = stabiliser_tangent_action(profile, 1, x)
    assert mixture_trace_distance(profile, x, gx) < 1e-9


@pytest.mark.parametrize("kind", ["tangent_inner", "mode_decompose"])
def test_identifiable_tangent_of_the_wrong_shape_is_rejected(kind):
    profile = analyze(fixture_s())
    bad = np.zeros((3, 2), dtype=complex)
    with pytest.raises(DimensionMismatch):
        if kind == "tangent_inner":
            tangent_inner(profile, bad, bad)
        else:
            mode_decompose(profile, bad)


def test_stabiliser_index_must_be_an_integer():
    profile = analyze(fixture_s())
    x = _identifiable(profile, 37)
    with pytest.raises(InvalidCount):
        stabiliser_tangent_action(profile, 1.5, x)
    # any integer is read mod p, negative ones included
    assert np.array_equal(
        stabiliser_tangent_action(profile, -1, x), stabiliser_tangent_action(profile, 1, x)
    )


def test_mixture_gram_needs_a_point():
    with pytest.raises(DimensionMismatch):
        mixture_gram(analyze(fixture_s()), [])


def test_mixture_gram_rejects_points_that_are_not_a_sequence():
    # a bare number used to escape as TypeError from the loop over points
    with pytest.raises(DimensionMismatch, match="sequence"):
        mixture_gram(analyze(fixture_s()), 5)


def test_gram_psd_and_deficiency():
    profile = analyze(fixture_s())
    x = _identifiable(profile, 35)
    y = _identifiable(profile, 36)
    g = mixture_gram(profile, [x, y])
    assert g.shape == (2 * profile.period, 2 * profile.period)
    evals = np.linalg.eigvalsh(g)
    assert evals.min() > -1e-10
    # relabelling the family only permutes the Gram
    g2 = mixture_gram(profile, [y, x])
    assert abs(np.trace(g) - np.trace(g2)) < 1e-12


def test_indefinite_sector_raises_gram_not_psd(monkeypatch):
    # mixture_gram's eigvalsh is the one PSD check on the distance path:
    # negating one sector's zeta Gram makes that block negative definite
    profile = analyze(fixture_s())
    x, y = _identifiable(profile, 35), _identifiable(profile, 36)
    mode_gram = gaussian._mode_gram

    def indefinite(*args):
        c, lam, z = mode_gram(*args)
        z = z.copy()
        z[-1] *= -1.0
        return c, lam, z

    monkeypatch.setattr(gaussian, "_mode_gram", indefinite)
    with pytest.raises(GramNotPSD):
        mixture_gram(profile, [x, y])
    with pytest.raises(GramNotPSD):
        mixture_trace_distance(profile, x, y)


def test_mixture_distance_makes_one_eigvalsh_and_no_other_decomposition(monkeypatch):
    profile = analyze(fixture_s())
    x, y = mode_point(profile, np.stack([_identifiable(profile, 35), _identifiable(profile, 36)]))
    calls = []
    for name in ("eigvalsh", "eigh", "eig", "eigvals", "svd"):
        real = getattr(np.linalg, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    assert mixture_trace_distance(profile, x, y) > 1e-3
    assert calls == ["eigvalsh"]


def test_mode_point_of_another_chain_is_rejected():
    profile = analyze(fixture_s())
    other = analyze(isometry("m2", 0.2))
    point = mode_point(other, _identifiable(other, 40))
    for fn in (lambda_k, zeta_gram):
        with pytest.raises(ProfileMismatch):
            fn(profile, point, point)
    with pytest.raises(ProfileMismatch):
        mixture_gram(profile, [point])


def test_predicted_limit_rejects_indices_outside_the_blocks():
    profile = analyze(fixture_s())  # period 2, one eigenvector per block
    x = _identifiable(profile, 41)
    for a, b, i, j, r in [
        (2, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, 0, 0, 2), (0, 1, 1, 0, 0), (0, 0, -1, 0, 0)
    ]:
        with pytest.raises(IndexOutOfRange):
            predicted_component_limit(profile, a, b, i, j, r, x, x)


def test_triangle_inequality_sampled():
    profile = analyze(fixture_s())
    x = _identifiable(profile, 37)
    y = _identifiable(profile, 38)
    z = _identifiable(profile, 39)
    dxy = mixture_trace_distance(profile, x, y)
    dyz = mixture_trace_distance(profile, y, z)
    dxz = mixture_trace_distance(profile, x, z)
    assert dxz <= dxy + dyz + 1e-10


@pytest.mark.parametrize("label", [0.5, 1.0, np.array([0, 1])], ids=["half", "float-one", "array"])
def test_predicted_component_limit_rejects_labels_that_are_not_integers(label):
    profile = analyze(fixture_s())
    x = _identifiable(profile, 41)
    for args in [(label, 0, 0, 0, 0), (0, label, 0, 0, 0), (0, 0, label, 0, 0),
                 (0, 0, 0, label, 0), (0, 0, 0, 0, label)]:
        with pytest.raises(InvalidCount):
            predicted_component_limit(profile, *args, x, x)


@pytest.mark.parametrize("period", [1, 2, 3])
def test_limit_model_matches_the_pairwise_reference(period):
    rng = np.random.default_rng(60 + period)
    profile = analyze(Isometry(oracles.cyclic_isometry(rng, 6, 2, period), 6, 2))
    assert profile.is_irreducible and profile.period == period
    raw = 0.3 * (rng.standard_normal((3, 12, 6)) + 1j * rng.standard_normal((3, 12, 6)))
    points = mode_point(profile, raw)
    for x in points:
        for y in points:
            want = oracles.coherent_overlap_pairwise(profile, x.a_id, y.a_id)
            assert abs(np.exp(lambda_k(profile, x, y)[0]) - want) <= 1e-12
            want = oracles.zeta_pairwise(profile, x, y)
            assert np.max(np.abs(zeta_gram(profile, x, y) - want)) <= 1e-12
            want = oracles.lambda_pairwise(profile, x, y)
            assert np.max(np.abs(lambda_k(profile, x, y) - want)) <= 1e-12
    want = oracles.mixture_gram_pairwise(profile, points)
    assert np.max(np.abs(mixture_gram(profile, points) - want)) <= 1e-12


@pytest.mark.parametrize("period", [1, 2, 3])
def test_mixture_distance_matches_the_embedded_reference(period):
    # the closed form against the Gram embedding it replaced: random pairs,
    # a point and its copy, and a point and each of its stabiliser images
    rng = np.random.default_rng(70 + period)
    profile = analyze(Isometry(oracles.cyclic_isometry(rng, 6, 2, period), 6, 2))
    assert profile.is_irreducible and profile.period == period
    raw = 0.5 * (rng.standard_normal((4, 12, 6)) + 1j * rng.standard_normal((4, 12, 6)))
    points = mode_point(profile, raw)
    for x in points:
        for y in points:
            want = oracles.mixture_trace_distance_embedded(profile, x, y)
            assert abs(mixture_trace_distance(profile, x, y) - want) <= 1e-12
        x, s = mode_point(profile, np.stack([x.a_id, 1.0 * x.a_id]))
        assert mixture_trace_distance(profile, x, s) == 0.0
        for k in range(1, period):
            gx = stabiliser_tangent_action(profile, k, x.a_id)
            assert mixture_trace_distance(profile, x, gx) <= 1e-9


@pytest.mark.parametrize("period", [1, 2, 3])
def test_mixture_distance_of_a_point_and_its_copy_is_exactly_zero(period):
    # the benchmark's limit-model check needs the scale-1 distance to be 0.0:
    # the split of equal members and the Gram of equal points are bit for bit
    # equal, so every sector has a_m = b_m, and det_m = a_m b_m - |c_m|^2 is
    # at most the roundoff of |c_m|^2, under the floor that reads it as 0
    d, seed = {1: (16, 64), 2: (8, 1), 3: (6, 0)}[period]
    rng = np.random.default_rng(seed)
    if period == 1:
        v = oracles.random_isometry(rng, d, 2)
    else:
        v = oracles.cyclic_isometry(rng, d, 2, period)
    profile = analyze(Isometry(v, d, 2))
    assert profile.period == period
    x = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    x, s = mode_point(profile, np.stack([x, 1.0 * x]))
    assert mixture_trace_distance(profile, x, s) == 0.0


def test_a_mode_point_is_checked_at_construction():
    profile = analyze(fixture_s())  # period 2
    x = mode_point(profile, _identifiable(profile, 42))
    with pytest.raises(NotIdentifiable):
        ModePoint(profile, [x.modes[0], profile.iso.v])
    with pytest.raises(DimensionMismatch):
        ModePoint(profile, x.modes[:1])
    # the tangent is the sum of the modes, so a point cannot disagree with itself
    assert np.array_equal(x.a_id, x.modes[0] + x.modes[1])
