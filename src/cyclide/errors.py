"""Exception types shared across the package."""


class CyclideError(Exception):
    """Base class for all library errors."""


class ParseError(CyclideError):
    """Bad coefficient input (unknown key, malformed number, wrong mode)."""


class ShapeError(CyclideError):
    """A motion or polynomial that does not fit the Darboux coefficient
    shape: `apply_motion` raises it for a rotation part that is not
    orthogonal."""


class NotQuartic(CyclideError):
    """Quartic normalization requested on a surface with a0 = 0."""


class ZeroScale(CyclideError):
    """Weighted rescale with lambda = 0."""


class ZeroInput(CyclideError):
    """All fourteen coefficients vanish."""


class NotNormalized(CyclideError):
    """Operation requires the translation-normalized form a0 = 1, b = 0."""


class ZeroCubicPart(CyclideError):
    """Cubic-surface operation with b1 = b2 = b3 = 0."""


class PreconditionError(CyclideError):
    """A documented operation precondition was violated."""


class Inconsistent(CyclideError):
    """The linear system for the distinguished eigenvalue has no common
    solution; the input is not Dupin or the tolerance is too tight."""


class ComplexRoots(CyclideError):
    """The eigenvalue quadratic has negative discriminant."""


class IrrationalSpectrum(CyclideError):
    """Exact mode cannot represent the requested value; the discriminant is
    not a perfect rational square.  Use float mode."""


class TooManyDigits(CyclideError):
    """An exact value has more decimal digits than Python converts from int
    to str (`sys.get_int_max_str_digits`).  Use float mode."""


class FormulaDisagreement(CyclideError):
    """Independent formulas for the same invariant disagree."""


class DegenerateRatio(CyclideError):
    """Torus radius ratio undefined (alpha^2 = gamma^2, touching spheres)."""


class NotRealOverR(CyclideError):
    """The requested Moebius map is not defined over the reals."""


class PoleInput(CyclideError):
    """Point coincides with the inversion center; image is at infinity."""


class CalibrationFailed(CyclideError):
    """No sign/direction convention reached the required residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class NoRealPoints(CyclideError):
    """Surface has no real points to sample."""


class SeedInvariantViolation(CyclideError):
    """Generator seed violates m^2 = s*t*u."""


class InternalCheckError(CyclideError):
    """Self-check failed (case dispatch vs. generator oracle, etc.)."""
