"""Exception types used across the package, and the integer check behind InvalidCount.

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
    """Step, trial or seed count, or thread setting, outside its valid range."""


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
