import numpy as np
import pytest

from qmc.ergodic import analyze
from qmc.errors import GramNotPSD, IndexOutOfRange, InvalidCount, ProfileMismatch
from qmc.gauge import split, stabiliser_tangent_action, tangent_inner
from qmc.gaussian import (
    coherent_overlap,
    eta_hat,
    gram_deficiency_bound,
    lambda_k,
    mixture_equivalent,
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
    eh = eta_hat(profile, zero, zero)
    assert np.max(np.abs(eh)) < 1e-14
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
    oxx = coherent_overlap(profile, x, x)
    assert abs(oxx - 1.0) < 1e-12
    oxy = coherent_overlap(profile, x, y)
    oyx = coherent_overlap(profile, y, x)
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
    assert mixture_equivalent(profile, x, x)
    assert not mixture_equivalent(profile, x, 1.3 * x)


def test_mixture_invariant_under_stabiliser_orbit():
    profile = analyze(fixture_s())
    x = _identifiable(profile, 34)
    gx = stabiliser_tangent_action(profile, 1, x)
    assert mixture_trace_distance(profile, x, gx) < 1e-9
    assert mixture_equivalent(profile, x, gx)


def test_gram_psd_and_deficiency():
    profile = analyze(fixture_s())
    x = _identifiable(profile, 35)
    y = _identifiable(profile, 36)
    g = mixture_gram(profile, [x, y])
    assert g.gram.shape == (2 * profile.period, 2 * profile.period)
    evals = np.linalg.eigvalsh(g.gram)
    assert evals.min() > -1e-10
    assert gram_deficiency_bound(g.gram, g.gram) < 1e-9
    # relabelling the family only permutes the Gram
    g2 = mixture_gram(profile, [y, x])
    assert abs(np.trace(g.gram) - np.trace(g2.gram)) < 1e-12


def test_deficiency_bound_rejects_non_finite_gram():
    # a NaN entry used to reach eigh and raise numpy's LinAlgError
    profile = analyze(fixture_s())
    g = mixture_gram(profile, [_identifiable(profile, 35)]).gram
    for bad in (np.nan, np.inf):
        broken = g.copy()
        broken[0, -1] = bad
        with pytest.raises(GramNotPSD):
            gram_deficiency_bound(broken, g)
        with pytest.raises(GramNotPSD):
            gram_deficiency_bound(g, broken)


def test_mode_point_of_another_chain_is_rejected():
    profile = analyze(fixture_s())
    other = analyze(isometry("m2", 0.2))
    point = mode_point(other, _identifiable(other, 40))
    for fn in (coherent_overlap, lambda_k, zeta_gram):
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
