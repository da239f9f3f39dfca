"""Torus radii and explicit point maps between canonical Dupin cyclides and
tori, with empirical calibration of the sign/direction conventions.

The printed inversion formulas carry sign choices (each canonical parameter
may be negated) and an ambiguous reading of which side is the source; the
calibrator resolves both by measuring implicit-equation residuals on sample
points and stores the working convention explicitly in the map.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence

from .canonical import CanonicalQuartic
from .core import DarbouxCoefficients, point_residual
from .errors import CalibrationFailed, DegenerateRatio, NotRealOverR, PoleInput, PreconditionError
from .scalar import Scalar

FORWARD = "forward"
INVERSE = "inverse"

# largest residual over the samples that `calibrate_convention` accepts
CALIBRATION_BOUND = 1e-9


class TorusSpec(namedtuple("TorusSpec", "r_sq R_sq")):
    """Squared minor/major radii; negative values encode the degenerate and
    empty families."""

    __slots__ = ()

    def ratio(self) -> Scalar:
        if self.R_sq == 0:
            raise DegenerateRatio("R^2 = 0")
        return self.r_sq / self.R_sq

    def j0(self) -> Scalar:
        rho = self.ratio()
        return rho * (1 - rho)

    def coefficients(self) -> DarbouxCoefficients:
        """Implicit torus equation (x^2+y^2+z^2+R^2-r^2)^2 = 4R^2(x^2+y^2):
        the canonical equation at (alpha^2, gamma^2, delta^2) = (R^2, 0, r^2),
        exact when both radii are."""
        return CanonicalQuartic(self.R_sq, 0, self.r_sq, 0).coefficients()


def torus_radii(q: CanonicalQuartic) -> TorusSpec:
    """Scaled-convention radii (r^2, R^2) = (delta^2-gamma^2, alpha^2-gamma^2):
    the ratio matches r^2/R^2 = (delta^2-gamma^2)/(alpha^2-gamma^2), and for
    gamma = 0 this is the torus the canonical equation already is."""
    if q.alpha_sq == q.gamma_sq:
        raise DegenerateRatio(
            "alpha^2 = gamma^2: touching-spheres family, radius ratio undefined")
    return TorusSpec(r_sq=q.delta_sq - q.gamma_sq, R_sq=q.alpha_sq - q.gamma_sq)


def torus_radii_inversive(q: CanonicalQuartic) -> tuple[float, float]:
    """Unscaled radii of the inversion image: r = gamma^2 eps/(alpha eps + beta delta),
    R likewise with beta; float, principal roots.  NotRealOverR when the data
    is not real."""
    alpha = cmath.sqrt(complex(q.alpha_sq))
    gamma = cmath.sqrt(complex(q.gamma_sq))
    delta = cmath.sqrt(complex(q.delta_sq))
    beta = cmath.sqrt(complex(q.alpha_sq - q.gamma_sq))
    eps = cmath.sqrt(complex(q.delta_sq - q.gamma_sq))
    den = alpha * eps + beta * delta
    if abs(den) < 1e-12:
        raise NotRealOverR("alpha*eps + beta*delta = 0")
    r = complex(q.gamma_sq) * eps / den
    R = complex(q.gamma_sq) * beta / den
    if abs(r.imag) > 1e-9 * (1 + abs(r)) or abs(R.imag) > 1e-9 * (1 + abs(R)):
        raise NotRealOverR(f"radii not real: r={r}, R={R}")
    return (r.real, R.real)


MOBT = "mobt"
MOBT2A = "mobt2a"
MOBT2 = "mobt2"


class MoebiusMap(namedtuple("MoebiusMap",
                            "center translation factor axis_swap direction signs variant",
                            defaults=(FORWARD, (1, 1), MOBT))):
    """Inversion composed with a similarity:
    P -> translation + factor * swap(P - center)/|P - center|^2, with center
    and translation float 3-tuples and the sign pair `signs` of two ints.

    direction=inverse applies the algebraic inverse, which is the same kind
    of map with center and translation exchanged.
    """

    __slots__ = ()

    def inverse(self) -> "MoebiusMap":
        return self._replace(direction=INVERSE if self.direction == FORWARD else FORWARD)

    def apply(self, point) -> tuple[float, float, float]:
        src, dst = self.center, self.translation
        if self.direction == INVERSE:
            src, dst = dst, src
        v = tuple(float(p) - float(s) for p, s in zip(point, src))
        n2 = sum(w * w for w in v)
        if n2 == 0:
            raise PoleInput(f"point {point} is the inversion center")
        w = tuple(self.factor * comp / n2 for comp in v)
        if self.axis_swap:
            w = (w[0], w[2], w[1])
        return tuple(float(d) + comp for d, comp in zip(dst, w))

    def to_json(self) -> dict:
        return {"center": list(self.center), "translation": list(self.translation),
                "factor": self.factor, "swap": self.axis_swap,
                "direction": self.direction, "signs": list(self.signs),
                "variant": self.variant}


def _real_or_raise(value: complex, what: str, scale: float = 1.0) -> float:
    if abs(value.imag) > 1e-9 * max(1.0, scale, abs(value.real)):
        raise NotRealOverR(f"{what} = {value} is not real")
    return value.real


def build_map(q: CanonicalQuartic, variant: str,
              signs: tuple[int, int] = (1, 1)) -> MoebiusMap:
    """Populate the map data from the printed inversion formulas.

    mobt:   center (gamma,0,0), translation ((alpha delta + beta eps)/gamma, 0, 0),
            factor 2 beta eps, no axis swap; real iff gamma real nonzero and
            beta*eps real (signs flip beta, eps).
    mobt2a: center (alpha,0,0), radical sqrt((gamma^2-alpha^2)(delta^2-alpha^2)),
            translation (gamma delta + radical)/alpha, factor 2 radical, swap y/z.
    mobt2:  torus input r = delta, R = alpha (gamma must be 0): center (r,0,0),
            translation (sqrt(R^2-r^2),0,0), factor 2 r sqrt(R^2-r^2), swap y/z.
    """
    s1, s2 = signs
    a2, g2, d2 = (complex(float(q.alpha_sq)), complex(float(q.gamma_sq)),
                  complex(float(q.delta_sq)))
    scale = max(1.0, abs(a2), abs(g2), abs(d2))
    if variant == MOBT:
        if not (q.gamma_sq and float(q.gamma_sq) > 0):
            raise NotRealOverR("mobt requires gamma real and nonzero")
        gamma = math.sqrt(float(q.gamma_sq))
        alpha = cmath.sqrt(a2)
        delta = cmath.sqrt(d2)
        beta = s1 * cmath.sqrt(a2 - g2)
        eps = s2 * cmath.sqrt(d2 - g2)
        factor = _real_or_raise(2 * beta * eps, "2*beta*eps", scale)
        trans = _real_or_raise((alpha * delta + beta * eps) / gamma,
                               "(alpha*delta+beta*eps)/gamma", scale)
        return MoebiusMap((gamma, 0.0, 0.0), (trans, 0.0, 0.0), factor,
                          axis_swap=False, signs=signs, variant=variant)
    if variant == MOBT2A:
        if not (q.alpha_sq and float(q.alpha_sq) > 0):
            raise NotRealOverR("mobt2a requires alpha real and nonzero")
        alpha = math.sqrt(float(q.alpha_sq))
        radical = s1 * cmath.sqrt((g2 - a2) * (d2 - a2))
        gd = s2 * cmath.sqrt(g2) * cmath.sqrt(d2)
        factor = _real_or_raise(2 * radical, "2*sqrt((g2-a2)(d2-a2))", scale)
        trans = _real_or_raise((gd + radical) / alpha, "(gamma*delta+radical)/alpha",
                               scale)
        return MoebiusMap((alpha, 0.0, 0.0), (trans, 0.0, 0.0), factor,
                          axis_swap=True, signs=signs, variant=variant)
    if variant == MOBT2:
        if float(q.gamma_sq) != 0:
            raise PreconditionError("mobt2 expects a torus (gamma = 0)")
        if not float(q.alpha_sq) > 0:
            raise NotRealOverR("mobt2 requires R^2 > 0")
        R = math.sqrt(float(q.alpha_sq))
        rad2 = float(q.alpha_sq) - float(q.delta_sq)
        if rad2 <= 0 or float(q.delta_sq) <= 0:
            raise NotRealOverR("mobt2 requires 0 < r < R")
        r = s2 * math.sqrt(float(q.delta_sq))
        radical = s1 * math.sqrt(rad2)
        return MoebiusMap((r, 0.0, 0.0), (radical, 0.0, 0.0), 2 * r * radical,
                          axis_swap=True, signs=signs, variant=variant)
    raise PreconditionError(f"unknown variant {variant!r}")


class CalibrationReport(namedtuple("CalibrationReport", "signs axis_swap direction "
                                                       "target_side residual")):
    """The convention `calibrate_convention` chose; target_side is "cyclide"
    or "torus"."""

    __slots__ = ()


def _torus_side_coefficients(q: CanonicalQuartic, variant: str) -> DarbouxCoefficients:
    if variant == MOBT2:
        # image torus has minor sqrt(R^2 - r^2), same major R
        r2, R2 = float(q.delta_sq), float(q.alpha_sq)
        return TorusSpec(R2 - r2, R2).coefficients()
    if variant == MOBT2A:
        # the alpha<->gamma swapped inversion radii (dual ratio 1 - r^2/R^2)
        swapped = CanonicalQuartic(q.gamma_sq, q.alpha_sq, q.delta_sq, q.agd)
        r, R = torus_radii_inversive(swapped)
        return TorusSpec(r * r, R * R).coefficients()
    r, R = torus_radii_inversive(q)
    return TorusSpec(r * r, R * R).coefficients()


def calibrate_convention(q: CanonicalQuartic, variant: str,
                         samples: Sequence[tuple[float, float, float]]):
    """Search the sign/swap/direction conventions and the source/target role
    for the one minimizing the max target-equation residual over the samples.

    Returns (map, report); raises CalibrationFailed with the best residual
    when nothing reaches the bound.
    """
    if len(samples) < 10:
        raise PreconditionError("calibration needs at least 10 sample points")
    sides = (("cyclide", point_residual(q.coefficients().to_float())),
             ("torus", point_residual(_torus_side_coefficients(q, variant))))

    # canonical order: printed signs, printed swap, forward first; the first
    # convention meeting the bound wins, so ties on rounding noise between
    # equally valid sign symmetries resolve to the printed formula
    best: tuple[float, MoebiusMap | None, CalibrationReport | None] = (
        math.inf, None, None)
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        try:
            base = build_map(q, variant, signs=(s1, s2))
        except (NotRealOverR, PreconditionError):
            continue
        for swap in (base.axis_swap, not base.axis_swap):
            for direction in (FORWARD, INVERSE):
                mapped = base._replace(axis_swap=swap, direction=direction)
                try:
                    images = [mapped.apply(p) for p in samples]
                except PoleInput:
                    continue
                for side_name, residual in sides:
                    res = max(residual(img) for img in images)
                    if res <= CALIBRATION_BOUND:
                        return mapped, CalibrationReport((s1, s2), swap,
                                                         direction, side_name, res)
                    if res < best[0]:
                        best = (res, mapped,
                                CalibrationReport((s1, s2), swap, direction,
                                                  side_name, res))
    res, mapped, report = best
    raise CalibrationFailed(
        f"best residual {res:.3e} exceeds bound {CALIBRATION_BOUND:.1e}",
        best_residual=res)
