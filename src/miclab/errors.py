"""Exception types raised by the library.

Every failure mode that callers are expected to handle gets its own class so
that CLI and test code can branch on the exact cause rather than parsing
messages.  All of them derive from :class:`MicLabError`.
"""

import copyreg


class MicLabError(Exception):
    """Base class for all errors raised by miclab."""

    # Rebuild from args and attributes without calling __init__, so that
    # every subclass pickles across worker-process boundaries.
    def __reduce__(self):
        return (copyreg.__newobj__, (type(self), *self.args), self.__dict__)


# ---------------------------------------------------------------- kernel

class NotHermitian(MicLabError):
    """Input matrix is not Hermitian within tolerance.

    index names the offending matrix of a stack, when there is one.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        self.message = message
        super().__init__(message if index is None else f"element {index}: {message}")


class ConvergenceFailure(MicLabError):
    """LAPACK failed: an eigensolver or SVD did not converge, or a
    factorization, solve or inverse met a singular matrix."""


class SingularOperator(MicLabError):
    """Operation requires a (numerically) positive definite operator."""


class ShapeMismatch(MicLabError):
    """Operands have incompatible shapes."""


class NonFinite(MicLabError):
    """A NaN or infinite entry.

    index names the first offending matrix of a stack, the first offending
    entry of a probability vector, or the first offending row of a Gram
    matrix.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"element {index} has a non-finite entry")


# ------------------------------------------------------------- povm core

class NotPsd(MicLabError):
    """A matrix that must be positive semidefinite is not."""

    def __init__(self, index: int, min_eigenvalue: float):
        self.index = index
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"element {index} is not positive semidefinite "
            f"(min eigenvalue {min_eigenvalue:.3e})"
        )


class SumNotIdentity(MicLabError):
    """Effects do not sum to the identity."""

    def __init__(self, deficit: float):
        self.deficit = deficit
        super().__init__(f"effect sum deviates from identity by {deficit:.3e}")


class WrongCount(MicLabError):
    """Wrong number of elements for the requested structure."""

    def __init__(self, got: int, expected: int):
        self.got = got
        self.expected = expected
        super().__init__(f"expected {expected} elements, got {got}")


class LinearlyDependent(MicLabError):
    """Operators fail to span a space of the required dimension."""

    def __init__(self, rank: int, required: int, detail: str = ""):
        self.rank = rank
        self.required = required
        msg = f"operators span only {rank} of {required} dimensions"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class IllConditionedGram(MicLabError):
    """Gram matrix too ill conditioned for a reliable inverse."""

    def __init__(self, condition_number: float, detail: str = ""):
        self.condition_number = condition_number
        msg = f"Gram matrix numerically unusable (condition number {condition_number:.3e})"
        super().__init__(msg + (f": {detail}" if detail else ""))


class InvalidState(MicLabError):
    """Matrix is not a valid density operator."""


class NotNormalized(MicLabError):
    """A vector that must be a unit vector is not."""

    def __init__(self, index: int, norm: float):
        self.index = index
        self.norm = norm
        super().__init__(f"vector {index} has norm {norm!r}, expected 1")


# ---------------------------------------------------------- constructions

class DegenerateFiducial(MicLabError):
    """State has a vanishing displacement component, so its orbit cannot span."""

    def __init__(self, k: int, l: int, magnitude: float):
        self.index = (k, l)
        self.magnitude = magnitude
        super().__init__(
            f"displacement component ({k},{l}) has magnitude {magnitude:.3e}"
        )


class NotSic(MicLabError):
    """Gram matrix does not match the symmetric equiangular form."""

    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"max Gram deviation from SIC form is {deviation:.3e}")


class BetaOutOfRange(MicLabError):
    """Equiangular mixing parameter outside the positivity interval."""


class BetaZero(MicLabError):
    """Equiangular mixing parameter must be nonzero."""


class EvenDimension(MicLabError):
    """Construction is defined for odd dimensions only."""


class EnvelopeExceeded(MicLabError):
    """Requested dimension exceeds the dense-numerics envelope."""

    def __init__(self, dim: int, limit: int):
        self.dim = dim
        self.limit = limit
        super().__init__(f"dimension {dim} exceeds supported limit {limit}")


# --------------------------------------------------------------- analysis

class BiasedMic(MicLabError):
    """Operation requires an unbiased MIC (all weights equal to 1/d)."""


class SingularConditionalMatrix(MicLabError):
    """Conditional-probability matrix is numerically singular."""

    def __init__(self, condition_number: float):
        self.condition_number = condition_number
        super().__init__(
            f"conditional matrix condition number {condition_number:.3e} exceeds 1e12"
        )


# -------------------------------------------------------------- ensembles

class SamplingExhausted(MicLabError):
    """Random MIC generation failed repeatedly."""

    def __init__(self, kind: str, d: int, attempts: int, sample_index: int = None):
        self.kind = kind
        self.d = d
        self.attempts = attempts
        self.sample_index = sample_index
        where = "" if sample_index is None else f" (sample {sample_index})"
        super().__init__(
            f"could not draw a valid {kind} MIC in d={d} after {attempts} attempts{where}"
        )


class WrongDimension(MicLabError):
    """Operation is only defined for a specific dimension."""
