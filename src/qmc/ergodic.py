"""Spectral and ergodic analysis of the transfer operator.

``analyze`` classifies a chain as irreducible or not and, in the
irreducible case, extracts the full peripheral data: period p, the
peripheral eigenvalues gamma^a (p-th roots of unity), a canonical
stabiliser unitary Z with T(Z) = gamma Z, the cyclic family of periodic
projections P_a with T(P_a) = P_{a-1 mod p}, and the dual Schrodinger
eigen-operators J_j with T_*(J_j) = gamma^j J_j.

The canonical Z is gauged so that the projection attached to eigenvalue 1
has the largest possible overlap with the first standard basis vector
(ties broken by the next basis vector, and so on).  Downstream code must
not depend on the labeling beyond the cyclic relations above; tests check
relabeling invariance of everything built on top.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import DEFAULT_TENSOR_CAP, Isometry, apply_steps, channel
from .errors import (
    DimensionMismatch,
    LabelingFailure,
    NotIrreducible,
    NotPSD,
    PeripheralMismatch,
    SizeCap,
)
from .linalg import bordered_eigvec, bordered_solve, dag, herm_part, unvec, vec

__all__ = [
    "ErgodicTol",
    "SpectralProfile",
    "analyze",
    "periodic_projections",
    "ergodic_projection",
    "stationary_eigenbasis",
    "output_state",
    "access_span_check",
]


@dataclass(frozen=True)
class ErgodicTol:
    """Tolerance bundle for the spectral classification.

    peripheral_band : eigenvalues with ``|lambda| >= 1 - peripheral_band``
        count as peripheral
    faithfulness_floor : minimum eigenvalue of the stationary state for the
        chain to count as irreducible
    simplicity_gap : eigenvalue 1 must be separated from the rest of the
        spectrum near 1 by at least this much
    """

    peripheral_band: float = 1e-8
    faithfulness_floor: float = 1e-9
    simplicity_gap: float = 1e-8

    def __post_init__(self):
        for name in ("peripheral_band", "faithfulness_floor", "simplicity_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class SpectralProfile:
    """Result of :func:`analyze`.

    ``peripheral`` is a list of triples ``(gamma^j, Z^j, J_j)`` for
    j = 0..p-1; ``projections`` the periodic projections P_a; ``rho_ss``
    the stationary state.  For a chain that fails the irreducibility
    checks only ``is_irreducible``, ``eigenvalues`` and ``diagnostics``
    are guaranteed to be populated.
    """

    iso: Isometry
    d: int
    k: int
    eigenvalues: np.ndarray
    is_irreducible: bool
    diagnostics: dict
    tol: ErgodicTol
    period: int = 0
    gamma: complex = 0j
    rho_ss: np.ndarray = None
    zmat: np.ndarray = None
    peripheral: list = field(default_factory=list)
    projections: list = field(default_factory=list)
    block_dims: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    # 2-norm condition number of the restricted resolvent; computed on the
    # first gauge.restricted_resolvent_solve call, a scalar (no d^2 x d^2 cache)
    _resolvent_cond: float = field(default=None, repr=False, compare=False)

    def require_irreducible(self):
        if not self.is_irreducible:
            raise NotIrreducible(self.diagnostics.get("reason", "chain is not irreducible"))


def _canonical_z(u_raw, p, tol):
    """Polish a peripheral eigen-operator into the canonical stabiliser Z.

    ``u_raw`` is any (nonzero) eigenvector of the Heisenberg transfer matrix
    for eigenvalue gamma = exp(2 pi i / p), reshaped to d x d.  For an
    irreducible chain it is proportional to a unitary with spectrum
    {c gamma^a}.  Returns the relabeled Z = sum_a gamma^a P_a whose
    eigenvalue-1 projection maximises the standard-basis overlap rule.
    """
    d = u_raw.shape[0]
    # unitary polar factor removes the modulus freedom
    w, s, vh = np.linalg.svd(u_raw)
    if s[-1] < 1e-10 * s[0]:
        raise PeripheralMismatch("peripheral eigen-operator is numerically singular")
    u = w @ vh
    evals, evecs = np.linalg.eig(u)
    gamma = np.exp(2j * np.pi / p)
    # cluster the unitary's eigenvalues around c * gamma^a; the overall
    # phase c is fixed by the first eigenvalue
    c0 = evals[0] / abs(evals[0])
    labels = np.array([int(np.argmin(np.abs(ev / c0 - gamma ** np.arange(p)))) for ev in evals])
    spread = max(
        abs(ev / c0 - gamma ** labels[i]) for i, ev in enumerate(evals)
    )
    if spread > 1e-6:
        raise PeripheralMismatch(
            f"stabiliser spectrum deviates from roots of unity by {spread:.3e}"
        )
    # orthonormalise eigenvectors within each cluster (eig output may be
    # skewed for repeated eigenvalues)
    projections = []
    for a in range(p):
        cols = evecs[:, labels == a]
        if cols.shape[1] == 0:
            raise PeripheralMismatch(f"stabiliser eigenvalue cluster {a} is empty")
        q, _ = np.linalg.qr(cols)
        projections.append(q @ dag(q))
    # relabeling: among the p cyclic shifts, pick the one whose projection
    # at label 0 wins the standard-basis overlap rule
    best_shift, best_key = 0, None
    for shift in range(p):
        pj = projections[shift % p]
        key = tuple(float(pj[j, j].real) for j in range(d))
        if best_key is None or key > best_key:
            best_key, best_shift = key, shift
    projections = [projections[(a + best_shift) % p] for a in range(p)]
    z = sum(gamma**a * projections[a] for a in range(p))
    return z, projections


def analyze(iso, tol=None):
    """Classify the chain and extract its peripheral spectral data.

    One Schrodinger transfer matrix T_s is built per call; the Heisenberg
    matrix is its conjugate transpose.  The spectrum comes from an
    eigenvalues-only decomposition, and the stationary state and the
    peripheral eigen-operator from bordered solves, so no eigenvector
    matrix is ever formed.
    """
    if tol is None:
        tol = ErgodicTol()
    d, k = iso.d, iso.k
    ts = channel(iso, "schrodinger")
    evals = np.linalg.eigvals(ts.m)
    order = np.argsort(-np.abs(evals))
    evals_sorted = evals[order]
    diagnostics = {}
    profile = SpectralProfile(
        iso=iso,
        d=d,
        k=k,
        eigenvalues=evals_sorted,
        is_irreducible=False,
        diagnostics=diagnostics,
        tol=tol,
    )

    # eigenvalue 1: simple within the gap?
    dist_to_one = np.abs(evals - 1.0)
    i_one = int(np.argmin(dist_to_one))
    near_one = np.sum(dist_to_one <= tol.simplicity_gap)
    diagnostics["distance_to_one"] = float(dist_to_one[i_one])
    if dist_to_one[i_one] > tol.simplicity_gap:
        diagnostics["reason"] = "no eigenvalue within simplicity_gap of 1"
        return profile
    if near_one > 1:
        diagnostics["reason"] = f"eigenvalue 1 has multiplicity {near_one} within simplicity_gap"
        return profile

    # stationary state: vec(1) is the left 1-eigenvector of the
    # trace-preserving T_s, so it borders the system and fixes Tr rho = 1
    one = vec(np.eye(d, dtype=complex))
    try:
        x, _ = bordered_solve(ts.m, 1.0, one, one, np.zeros(d * d), 1.0)
    except np.linalg.LinAlgError:
        diagnostics["reason"] = "stationary bordered system is singular"
        return profile
    rho = herm_part(unvec(x, (d, d)))
    rho = rho / np.trace(rho).real
    eigs_rho = np.linalg.eigvalsh(rho)
    diagnostics["stationary_min_eigenvalue"] = float(eigs_rho[0])
    profile.rho_ss = rho
    if eigs_rho[0] < tol.faithfulness_floor:
        diagnostics["reason"] = (
            f"stationary state not faithful (min eigenvalue {eigs_rho[0]:.3e})"
        )
        return profile

    # peripheral spectrum
    per_idx = np.where(np.abs(evals) >= 1.0 - tol.peripheral_band)[0]
    p = len(per_idx)
    gamma = np.exp(2j * np.pi / p)
    targets = gamma ** np.arange(p)
    assigned = set()
    worst = 0.0
    for i in per_idx:
        j = int(np.argmin(np.abs(evals[i] - targets)))
        worst = max(worst, float(np.abs(evals[i] - targets[j])))
        assigned.add(j)
    diagnostics["peripheral_deviation"] = worst
    if len(assigned) != p or worst > 1e-6:
        raise PeripheralMismatch(
            f"peripheral set of size {p} does not match the p-th roots of unity "
            f"(max deviation {worst:.3e}); adjust peripheral_band"
        )
    profile.period = p
    profile.gamma = complex(gamma) if p > 1 else 1.0 + 0j

    # canonical stabiliser unitary and periodic projections
    if p == 1:
        z = np.eye(d, dtype=complex)
        projections = [np.eye(d, dtype=complex)]
    else:
        try:
            u, res = bordered_eigvec(ts.m, gamma, adjoint=True)
        except np.linalg.LinAlgError:
            res = np.inf
        if not res <= 1e-6:
            raise PeripheralMismatch(
                "Heisenberg transfer operator has no eigen-operator at the expected "
                f"peripheral eigenvalue (relative residual {res:.3e})"
            )
        z, projections = _canonical_z(unvec(u, (d, d)), p, tol)

    # verify the cyclic labeling: T(P_a) = P_{a-1 mod p}, with T = T_s*
    def th_apply(x):
        return unvec((vec(x).conj() @ ts.m).conj(), (d, d))

    label_res = 0.0
    for a in range(p):
        img = th_apply(projections[a])
        label_res = max(label_res, float(np.linalg.norm(img - projections[(a - 1) % p])))
    if label_res > 1e-7:
        raise LabelingFailure(
            f"periodic projections fail the cyclic relation (residual {label_res:.3e})"
        )
    profile.residuals["cyclic_labeling"] = label_res
    profile.residuals["z_eigenrelation"] = float(
        np.linalg.norm(th_apply(z) - gamma * z)
    ) if p > 1 else 0.0

    # block weights and dual eigen-operators
    rho_blocks = [projections[a] @ rho @ projections[a] for a in range(p)]
    weights = [float(np.trace(rb).real) for rb in rho_blocks]
    profile.residuals["block_weights"] = max(abs(wt - 1.0 / p) for wt in weights)
    peripheral = []
    for j in range(p):
        zj = np.linalg.matrix_power(z, j) if j else np.eye(d, dtype=complex)
        jj = sum(np.conj(gamma ** (a * j)) * rho_blocks[a] for a in range(p))
        peripheral.append((complex(gamma**j), zj, jj))
    profile.zmat = z
    profile.projections = projections
    profile.peripheral = peripheral
    profile.block_dims = [int(round(np.trace(pj).real)) for pj in projections]
    profile.is_irreducible = True
    diagnostics["reason"] = "irreducible"
    return profile


def periodic_projections(profile):
    """Cyclic family P_a with T(P_a) = P_{a-1 mod p}; see :func:`analyze`."""
    profile.require_irreducible()
    return [pj.copy() for pj in profile.projections]


def ergodic_projection(profile, rho):
    """Time-average limit projection E_*(rho) = p sum_a Tr(rho P_a) rho_a^ss."""
    profile.require_irreducible()
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (profile.d, profile.d):
        raise DimensionMismatch(f"state shape {rho.shape}, expected ({profile.d}, {profile.d})")
    p = profile.period
    out = np.zeros_like(rho)
    for a in range(p):
        pj = profile.projections[a]
        weight = np.trace(rho @ pj)
        out = out + p * weight * (pj @ profile.rho_ss @ pj)
    return out


def stationary_eigenbasis(profile, degeneracy_tol=1e-9):
    """Block-resolved eigendecomposition of the stationary state.

    Returns a list over blocks a of lists of pairs ``(pi, phi)`` with
    eigenvalues in descending order inside each block.  Within a
    numerically degenerate eigenvalue cluster the eigenvectors are rotated
    to align with the standard basis (QR of the projected identity), which
    makes the output deterministic.
    """
    profile.require_irreducible()
    d = profile.d
    out = []
    for a in range(profile.period):
        pj = profile.projections[a]
        w, u = np.linalg.eigh(pj)
        cols = u[:, w > 0.5]
        da = cols.shape[1]
        rho_blk = dag(cols) @ profile.rho_ss @ cols
        vals, vecs = np.linalg.eigh(rho_blk)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        # align degenerate clusters with the standard basis
        i = 0
        while i < da:
            j = i + 1
            while j < da and abs(vals[j] - vals[i]) <= degeneracy_tol:
                j += 1
            if j - i > 1:
                sub = cols @ vecs[:, i:j]  # d x m frame of the cluster
                proj = sub @ dag(sub)
                seeds = []
                for e in np.eye(d, dtype=complex).T:
                    cand = proj @ e
                    if np.linalg.norm(cand) > 1e-8:
                        seeds.append(cand)
                    if len(seeds) == j - i:
                        break
                if len(seeds) == j - i:
                    q, _ = np.linalg.qr(np.stack(seeds, axis=1))
                    vecs = vecs.copy()
                    vecs[:, i:j] = dag(cols) @ q
            i = j
        out.append([(float(vals[i]), cols @ vecs[:, i]) for i in range(da)])
    return out


def output_state(iso, rho_in, n, cap=DEFAULT_TENSOR_CAP):
    """Reduced state of the first n output units, system traced out.

    Unit factors are ordered chronologically: the first emitted unit is the
    leftmost (most significant) tensor factor.
    """
    d, k = iso.d, iso.k
    if k**n > cap:
        raise SizeCap(f"k^n = {k**n} exceeds cap {cap}")
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (d, d):
        raise DimensionMismatch(f"input state shape {rho_in.shape}, expected ({d}, {d})")
    vals, vecs = np.linalg.eigh(herm_part(rho_in))
    if vals[0] < -1e-10:
        raise NotPSD(f"input state has eigenvalue {vals[0]:.3e}")
    out = np.zeros((k**n, k**n), dtype=complex)
    for pi, phi in zip(vals, vecs.T):
        if pi <= 1e-14:
            continue
        psi = apply_steps(iso, phi, n, cap=cap).reshape(d, k**n)
        out += pi * dag(psi) @ psi
    return out


def access_span_check(iso, depth_cap=None, tol=1e-10):
    """Algebraic irreducibility oracle, independent of the spectral route.

    Grows the linear span of all Kraus words K_{w_m} ... K_{w_1} (starting
    from the empty word, the identity) under left multiplication by the
    generators, one word length at a time.  The Kraus family admits no
    common invariant subspace exactly when this unital algebra is the full
    matrix algebra, i.e. when the span reaches dimension d^2; that in turn
    is equivalent to the channel having a unique faithful stationary state.
    Returns True for irreducible.

    Each level multiplies the previous level's new directions by every
    generator, scales each candidate to unit norm, and orthogonalises the
    block twice against the basis so far (CGS2, which keeps the basis
    orthonormal to working precision; Bjorck, LAA 197-198, 1994).  The new
    directions are the right singular vectors of the residual block whose
    singular values exceed ``tol``: a relative rank tolerance, since the
    candidates had unit norm before projection.
    """
    d = iso.d
    full = d * d
    if depth_cap is None:
        depth_cap = full
    kraus = np.stack(iso.kraus)
    basis = (np.eye(d, dtype=complex) / np.sqrt(d)).reshape(1, full)
    frontier = basis
    for _ in range(depth_cap):
        cand = np.einsum("uij,fjl->fuil", kraus, frontier.reshape(-1, d, d)).reshape(-1, full)
        norms = np.linalg.norm(cand, axis=1)
        cand = cand[norms > 0] / norms[norms > 0, None]
        if cand.shape[0] == 0:
            break
        cand -= (cand @ basis.conj().T) @ basis
        cand -= (cand @ basis.conj().T) @ basis  # second pass: CGS2
        _, sv, vh = np.linalg.svd(cand, full_matrices=False)
        frontier = vh[sv > tol]
        if frontier.shape[0] == 0:
            break
        basis = np.concatenate([basis, frontier])
        if basis.shape[0] >= full:
            return True
    return basis.shape[0] >= full
