"""Exception hierarchy shared by the whole package.

Three top branches matter for the CLI exit-code mapping: bad input (2),
recovery failure (3), and model mismatch (4). Everything else derives from
one of those so callers can catch coarsely.
"""


class VRecoverError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInputError(VRecoverError):
    """Malformed arguments, dimension mismatches, violated preconditions."""

    exit_code = 2


class RecoveryFailureError(VRecoverError):
    """The recovery pipeline could not produce a result from the data."""

    exit_code = 3


class ModelMismatchError(VRecoverError):
    """The data is inconsistent with the assumed measurement model."""

    exit_code = 4


# --- recovery-failure flavors -------------------------------------------------

class PairingFailureError(RecoveryFailureError):
    """A root set could not be arranged into conjugate-reciprocal pairs."""


class NotASquareError(RecoveryFailureError):
    """A Laurent polynomial expected to be a perfect square is not one."""


class MatchingFailureError(RecoveryFailureError):
    """The dual split's two cofactor candidates disagree."""


class DegenerateSupportError(RecoveryFailureError):
    """Recovered poles collide or make a closed-form denominator vanish."""


class DegenerateInstanceError(RecoveryFailureError):
    """A candidate predicts zero y or a nonpositive scale, or theta^n hits the sample rotation."""


class AmbiguousSupportError(RecoveryFailureError):
    """A recovered root is too far from every grid point to snap safely."""


class GridCollisionError(RecoveryFailureError):
    """Two recovered roots snap to the same grid point."""


class AmbiguousDisambiguationError(RecoveryFailureError):
    """The extra measurement does not separate the candidates clearly."""


class RankDeficiencyError(RecoveryFailureError):
    """A matrix required to have full column rank does not."""


class NumericalFailureError(RecoveryFailureError):
    """A numerical invariant (root residual, agreement of two routes) broke."""


class ResolutionError(RecoveryFailureError):
    """A brute-force search grid is too coarse to separate solutions."""


# --- model-mismatch flavors ---------------------------------------------------

class InconsistentSolutionError(ModelMismatchError):
    """The recovered solution fails the forward consistency check."""


class NonIdentifiableError(ModelMismatchError):
    """Several exact fits exist; the instance is not identifiable."""
