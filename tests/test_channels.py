import numpy as np
import pytest

from qmc.channels import (
    DEFAULT_TENSOR_CAP,
    Isometry,
    apply_steps,
    block_length,
    channel,
    dilation,
    isometry_from_kraus,
    sandwich_map,
)
from qmc.errors import DimensionMismatch, NotIsometry, SizeCap, UnitDimMismatch
from qmc.linalg import dag, vec, unvec
from qmc.qubit_example import fixture_s, isometry

import oracles


def test_kraus_slices_interleave_rows():
    rng = np.random.default_rng(0)
    for d, k in ((2, 2), (3, 2), (2, 3)):
        v = oracles.random_isometry(rng, d, k)
        iso = Isometry(v, d, k)
        for u, kop in enumerate(iso.kraus):
            assert np.allclose(kop, v[u::k])
        # completeness: sum K^dag K = 1
        acc = sum(dag(kop) @ kop for kop in iso.kraus)
        assert np.linalg.norm(acc - np.eye(d)) < 1e-12


def test_rejects_non_isometry():
    rng = np.random.default_rng(1)
    v = oracles.random_isometry(rng, 2, 2)
    with pytest.raises(NotIsometry):
        Isometry(v + 0.01, 2, 2)
    # the Isometry it builds checks sum K* K = 1
    with pytest.raises(NotIsometry):
        isometry_from_kraus([kop + 0.01 for kop in Isometry(v, 2, 2).kraus])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_entries(bad):
    with pytest.raises(NotIsometry):
        Isometry(np.full((4, 2), bad), 2, 2)
    v = oracles.random_isometry(np.random.default_rng(3), 2, 2)
    v[1, 0] = bad
    with pytest.raises(NotIsometry):
        Isometry(v, 2, 2)
    kraus = [np.eye(2), np.zeros((2, 2))]
    kraus[1][0, 1] = bad
    with pytest.raises(NotIsometry):
        isometry_from_kraus(kraus)


def test_sandwich_map_rejects_unequal_unit_dimensions():
    iso3 = Isometry(oracles.random_isometry(np.random.default_rng(4), 2, 3), 2, 3)
    with pytest.raises(UnitDimMismatch):
        sandwich_map(isometry("m1", 0.3), iso3)


def test_block_length_is_exact_integer_power():
    assert block_length(1, 1) == 1
    assert block_length(1, 2) == 0
    assert block_length(8, 2) == 3
    assert block_length(3**5, 3) == 5
    for dim, k in [(2, 1), (6, 2), (0, 2), (10, 3)]:
        with pytest.raises(DimensionMismatch):
            block_length(dim, k)


def test_kraus_round_trip():
    rng = np.random.default_rng(2)
    v = oracles.random_isometry(rng, 2, 2)
    iso = Isometry(v, 2, 2)
    iso2 = isometry_from_kraus(iso.kraus)
    assert np.linalg.norm(iso2.v - iso.v) < 1e-12


def test_channel_matrix_matches_kraus_sum():
    """Both pictures act, through vec, exactly as the explicit Kraus sums."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = oracles.random_isometry(rng, 2, 2)
        iso = Isometry(v, 2, 2)
        schro = channel(iso, "schrodinger")
        heis = channel(iso, "heisenberg")
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        by_vec = unvec(schro.m @ vec(x), (2, 2))
        by_sum = sum(kop @ x @ dag(kop) for kop in iso.kraus)
        assert np.linalg.norm(by_vec - by_sum) < 1e-12
        by_vec = unvec(heis.m @ vec(x), (2, 2))
        by_sum = sum(dag(kop) @ x @ kop for kop in iso.kraus)
        assert np.linalg.norm(by_vec - by_sum) < 1e-12
        # unitality of the Heisenberg picture, trace preservation of the other
        assert np.linalg.norm(unvec(heis.m @ vec(np.eye(2)), (2, 2)) - np.eye(2)) < 1e-12
        rho = x @ dag(x)
        assert abs(np.trace(unvec(schro.m @ vec(rho), (2, 2))) - np.trace(rho)) < 1e-12


def test_superoperator_call_on_matrix():
    iso = isometry("m1", 0.3)
    schro = channel(iso, "schrodinger")
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    out = schro(rho)
    by_sum = sum(kop @ rho @ dag(kop) for kop in iso.kraus)
    assert np.linalg.norm(out - by_sum) < 1e-12


def test_sandwich_map_is_two_sided_kraus_sum():
    rng = np.random.default_rng(4)
    v1 = oracles.random_isometry(rng, 2, 2)
    v2 = oracles.random_isometry(rng, 2, 2)
    i1, i2 = Isometry(v1, 2, 2), Isometry(v2, 2, 2)
    sm = sandwich_map(i1, i2)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    by_vec = unvec(sm.m @ vec(x), (2, 2))
    by_sum = sum(dag(k1) @ x @ k2 for k1, k2 in zip(i1.kraus, i2.kraus))
    assert np.linalg.norm(by_vec - by_sum) < 1e-12


@pytest.mark.parametrize("d1,d2,k", [(1, 1, 1), (1, 1, 3), (2, 2, 3), (3, 2, 2), (16, 16, 2)])
def test_sandwich_map_matches_kron_sum_oracle(d1, d2, k):
    rng = np.random.default_rng(100 * d1 + 10 * d2 + k)
    i1 = Isometry(oracles.random_isometry(rng, d1, k), d1, k)
    i2 = Isometry(oracles.random_isometry(rng, d2, k), d2, k)
    sm = sandwich_map(i1, i2)
    assert sm.shape_in == sm.shape_out == (d1, d2)
    assert np.max(np.abs(sm.m - oracles.sandwich_map_kron(i1, i2))) <= 1e-15


def test_dilation_matches_stepwise_chain():
    rng = np.random.default_rng(5)
    v = oracles.random_isometry(rng, 2, 2)
    iso = Isometry(v, 2, 2)
    for n in (1, 2, 3):
        vn = dilation(iso, n)
        assert vn.shape == (2 * 2**n, 2)
        assert np.linalg.norm(dag(vn) @ vn - np.eye(2)) < 1e-12
        for col in range(2):
            phi = np.eye(2)[col]
            # oracle layout is output-major, the library keeps system first
            ref = oracles.chain_state(iso, phi, n).T.reshape(-1)
            assert np.linalg.norm(vn[:, col] - ref) < 1e-12


def test_apply_steps_vs_oracle():
    rng = np.random.default_rng(6)
    v = oracles.random_isometry(rng, 2, 2)
    iso = Isometry(v, 2, 2)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi /= np.linalg.norm(phi)
    out = apply_steps(iso, phi, 4)
    ref = oracles.chain_state(iso, phi, 4).T.reshape(-1)
    assert np.linalg.norm(out.reshape(-1) - ref) < 1e-12


@pytest.mark.parametrize(
    "phi", [np.array([np.nan, 1.0]), np.array([1.0, np.inf]), np.ones(3)], ids=["nan", "inf", "length-3"]
)
def test_apply_steps_rejects_a_bad_system_vector(phi):
    with pytest.raises(DimensionMismatch):
        apply_steps(isometry("m1", 0.3), phi, 2)


def test_tensor_cap_enforced():
    iso = isometry("m1", 0.3)
    n_too_big = 1 + int(np.log2(DEFAULT_TENSOR_CAP))
    with pytest.raises(SizeCap):
        dilation(iso, n_too_big)
    assert dilation(iso, 3, cap=8).shape == (16, 2)


def test_equal_isometries_hash_equal():
    v = fixture_s().v
    flipped = v.copy()
    flipped[v == 0] = complex(-0.0, -0.0)  # equal to v under __eq__, other bytes
    assert flipped.tobytes() != v.tobytes()
    a, b = Isometry(v, 2, 2), Isometry(flipped, 2, 2)
    assert a == b and hash(a) == hash(b)
    assert {a: "swap"}[b] == "swap"
    assert len({a, b, Isometry(v.copy(), 2, 2)}) == 1
    assert Isometry(-v, 2, 2) not in {a}
