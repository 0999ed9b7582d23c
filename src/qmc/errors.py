"""Exception types used across the package, and the one reader of each
value kind: counts, arrays, real parameters, system vectors and states.

Every error carries a ``kind`` tag (stable string, equal to the class name)
and a human-readable ``detail``.  The CLI serialises failures as a single
JSON line ``{"kind": ..., "detail": ...}`` on stderr, so the tags are part
of the public interface and should not be renamed casually.
"""

import numpy as np


class QmcError(Exception):
    """Base class for all package errors."""

    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = str(detail)

    @property
    def kind(self):
        return type(self).__name__

    def to_json(self):
        return {"kind": self.kind, "detail": self.detail}


class DimensionMismatch(QmcError):
    """Operands have incompatible shapes or dimensions."""


class NotIsometry(QmcError):
    """Matrix fails the isometry condition v* v = 1 beyond tolerance."""


class NotPSD(QmcError):
    """Matrix expected to be positive semi-definite is not."""


class UnitDimMismatch(QmcError):
    """Kraus family length or block size inconsistent with the unit dimension."""


class NotIrreducible(QmcError):
    """Operation requires an irreducible chain but the profile says otherwise."""


class PeripheralMismatch(QmcError):
    """Peripheral eigenvalues do not form a root-of-unity group within tolerance."""


class LabelingFailure(QmcError):
    """Cyclic labeling of the periodic projections could not be verified."""


class SizeCap(QmcError):
    """Requested tensor size exceeds the configured cap."""


class WitnessInconsistent(QmcError):
    """Peripheral witness vector is not proportional to a unitary."""


class GaugeConstraintViolated(QmcError):
    """Gauge generator violates hermiticity or the stationary trace constraint."""


class NotTangent(QmcError):
    """Matrix is not a tangent direction at the base isometry."""


class SingularResolvent(QmcError):
    """Restricted resolvent solve failed (matrix numerically singular)."""


class ResolventIllConditioned(QmcError):
    """Restricted resolvent condition number exceeds the configured bound."""


class NotIdentifiable(QmcError):
    """Vector expected in the identifiable subspace has a range-V component."""


class RetractionFailure(QmcError):
    """Perturbed matrix is too far from an isometry for the polar retraction."""


class ProfileMismatch(QmcError):
    """Profile does not belong to the isometry passed alongside it."""


class GramNotPSD(QmcError):
    """Gram matrix has an eigenvalue below the negativity tolerance."""


class IndexOutOfRange(QmcError):
    """Block or eigenvector index outside the valid range."""


class IncompleteMeasurement(QmcError):
    """Measurement vectors do not resolve the identity on the block."""


class InvalidCount(QmcError):
    """Step, trial or seed count outside its valid range."""


class DegenerateState(QmcError):
    """State decomposition hit a degeneracy the caller must resolve."""


class OutOfInterval(QmcError):
    """Model parameter outside the admissible interval."""


class ReducibleParameters(QmcError):
    """Parameter choice lands on a reducible point of the model family."""


class NotHermitian(QmcError):
    """Observable is not Hermitian within tolerance."""


class ObservableNotDiagonal(QmcError):
    """Observable is not diagonal in the measured block basis."""


def as_integer(name, value, minimum=None):
    """``value`` as an int; InvalidCount unless it is an integer (numpy ones
    too) and, when ``minimum`` is given, at least ``minimum``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise InvalidCount(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidCount(f"{name} = {value}, expected >= {minimum}")
    return int(value)


def as_complex_array(name, value):
    """``value`` as a complex ndarray; DimensionMismatch when numpy cannot
    read it as numbers (a string, a ragged nesting, a non-numeric object)."""
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError):
        kind = type(value).__name__
        raise DimensionMismatch(f"{name} is not an array of numbers, got a {kind}") from None


def as_real(name, value):
    """``value`` read by ``float()``; OutOfInterval when it is not a real number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise OutOfInterval(f"{name} = {value!r} is not a number") from None


def as_vector(name, value, d):
    """``value`` as a length-d complex vector; DimensionMismatch unless it is
    finite with d entries (any shape)."""
    phi = as_complex_array(name, value)
    if phi.size != d or not np.isfinite(phi).all():
        raise DimensionMismatch(f"{name} must be {d} finite entries, got shape {phi.shape}")
    return phi.reshape(d)


def as_state(name, value, d):
    """``value`` as a d x d complex array that is a state up to normalisation.

    DimensionMismatch for another shape; NotHermitian unless it is finite and
    Hermitian to 1e-10 of max(1, ||rho||); NotPSD unless its eigenvalues
    are at least -1e-10 of that scale and its trace is at least 1e-14.
    """
    rho = as_complex_array(name, value)
    if rho.shape != (d, d):
        raise DimensionMismatch(f"{name} shape {rho.shape}, expected ({d}, {d})")
    if not np.isfinite(rho).all():
        raise NotHermitian(f"{name} has non-finite entries")
    scale = max(1.0, np.linalg.norm(rho))
    skew = np.linalg.norm(rho - rho.conj().T)
    if not (skew <= 1e-10 * scale):
        raise NotHermitian(f"{name} is not Hermitian (defect {skew:.3e})")
    low = np.linalg.eigvalsh(rho)[0]
    if not (low >= -1e-10 * scale):
        raise NotPSD(f"{name} has eigenvalue {low:.3e} < 0")
    tr = np.trace(rho).real
    if not (tr >= 1e-14):
        raise NotPSD(f"{name} has trace {tr:.3e}, expected a positive trace")
    return rho
