"""Exception types shared across the toolkit, and the threshold gate that raises them."""


class SpincolError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SpincolError):
    """Matrix shapes are inconsistent with the declared dimensions."""


class NotOrthonormal(SpincolError):
    """Spinor columns are not orthonormal under the AO metric."""


class LinearlyDependent(SpincolError):
    """Spinor or orbital columns are numerically linearly dependent."""


class NonHermitianResult(SpincolError):
    """A quantity that must be real carried a too-large imaginary part."""


class NotUnitVector(SpincolError):
    """Direction argument is not a unit 3-vector."""


class NotSymmetric(SpincolError):
    """Matrix argument is not symmetric at tolerance."""


class TooLarge(SpincolError):
    """Requested Fock-space expansion exceeds the brute-force guard rail."""


class ParseError(SpincolError):
    """Determinant file is malformed."""


class ShapeError(SpincolError):
    """Determinant file declares inconsistent dimensions."""


def check_within(
    value: float, limit: float, what: str, error: type[SpincolError] = SpincolError, hint: str = ""
) -> None:
    """Raise ``error`` naming ``what``, ``value`` and ``limit`` unless ``value <= limit``.

    Written so that a NaN value fails the gate too.
    """
    if not value <= limit:
        raise error(f"{what} {value:.3e} is not within {limit:g}{hint}")
