"""Real-point classification of Dupin cyclides and the Moebius invariant J0.

Quartic classification works on the squared canonical parameters
(s, t, u) = (alpha^2, gamma^2, delta^2) derived from the spectral triple;
the semi-algebraic conditions partition the admissible set {s*t*u >= 0}.
Every admissible region, edge and vertex of the parameter diagram receives
exactly one label (three boundary strata that the coefficient-level
condition list leaves out are included here: the horn-torus edge, the
one-point edge at s = t < 0 <= u, and sphere-with-point taking precedence
over the touching-spheres line).  J0 takes the `Prepared` form of its
input (`recognizer.prepare`) alone, with its policy, and is computed at its
gauge (weight 0: no scale-back); the classifiers and `willmore_energy` take
values at the caller's scale and a policy.
"""
from __future__ import annotations

import enum
import math
from collections import namedtuple

from .canonical import SpectralData
from .errors import FormulaDisagreement, PreconditionError
from .invariants import base_invariants  # noqa: F401  (traced by bench/)
from .recognizer import Prepared, TolerancePolicy
from .scalar import Scalar


class SurfaceClass(enum.Enum):
    SMOOTH_RING = "SM"
    SPINDLE = "SP"
    HORN = "H"
    TWO_TOUCHING_SPHERES = "R"
    SPHERE_AND_POINT = "Q"
    DOUBLE_SPHERE = "D"
    CIRCLE = "C"
    ONE_POINT = "P"
    TWO_POINTS = "PP"
    NO_REAL_POINTS = "NP"
    # cubic-only reducible surfaces
    SPHERE_TANGENT_PLANE = "ST"
    PLANE_AND_POINT = "PL"

    @property
    def code(self) -> str:
        return self.value


J0_FINITE = "finite"
J0_MINUS_INF = "minus_infinity"
J0_UNDEFINED = "undefined"


class J0Value(namedtuple("J0Value", "kind value", defaults=(None,))):
    """J0 of a surface: kind J0_FINITE with its value, or a kind alone."""

    __slots__ = ()

    @classmethod
    def finite(cls, v: Scalar) -> "J0Value":
        return cls(J0_FINITE, v)

    @classmethod
    def minus_infinity(cls) -> "J0Value":
        return cls(J0_MINUS_INF)

    @classmethod
    def undefined(cls) -> "J0Value":
        return cls(J0_UNDEFINED)


def classify_quartic(sd: SpectralData, pol: TolerancePolicy) -> SurfaceClass:
    label, _ = classify_quartic_report(sd, pol)
    return label


def classify_quartic_report(sd: SpectralData,
                            pol: TolerancePolicy) -> tuple[SurfaceClass, bool]:
    """(label, ambiguous): ambiguous flags a float equality decided within
    tolerance, i.e. the input sits on (or hugs) a stratification boundary.

    Each of the six signs the diagram reads, of s - t, u - s, u - t, s, t
    and u, is one zero test against max(1, |s|, |t|, |u|), and ambiguous is
    read off the same tests: a nonzero value taken as zero (exact zero tests
    are literal, so only float mode can be ambiguous).  With m1 <= m2 the
    pair (s, t) sorted, u - m1 and u - m2 are u - s and u - t in some order.
    """
    s, t, u = sd.squares()
    scale = max(1.0, abs(s), abs(t), abs(u))
    signs = []
    ambiguous = False
    for v in (s - t, u - s, u - t, s, t, u):
        if pol.is_zero(v, scale):
            signs.append(0)
            ambiguous = ambiguous or v != 0
        else:
            signs.append((v > 0) - (v < 0))
    sgn_st, sgn_us, sgn_ut, sgn_s, sgn_t, sgn_u = signs
    if sgn_s * sgn_t * sgn_u < 0:
        raise PreconditionError(
            f"inadmissible parameters (s,t,u)=({s},{t},{u}): product < 0 means "
            "the implicit equation is not real")
    # m1 = min(s, t), m2 = max(s, t)
    sgn_m1, sgn_m2, sgn_um1, sgn_um2 = ((sgn_s, sgn_t, sgn_us, sgn_ut) if sgn_st <= 0
                                        else (sgn_t, sgn_s, sgn_ut, sgn_us))

    if sgn_st == 0:
        if sgn_us == 0:
            # the origin unless s > 0
            label = SurfaceClass.SPHERE_AND_POINT if sgn_s > 0 else SurfaceClass.ONE_POINT
        elif sgn_s > 0:
            label = SurfaceClass.TWO_TOUCHING_SPHERES
        elif sgn_s == 0:
            # (0, 0, u < 0) has no real points
            label = SurfaceClass.DOUBLE_SPHERE if sgn_u > 0 else SurfaceClass.NO_REAL_POINTS
        else:
            label = SurfaceClass.ONE_POINT  # s = t < 0 <= u
    elif sgn_um2 == 0:
        # horn includes the horn torus m1 = 0; two points: u = m2 = 0 > m1
        label = SurfaceClass.HORN if sgn_m2 > 0 else SurfaceClass.TWO_POINTS
    elif sgn_um1 == 0:
        if sgn_m1 > 0:
            label = SurfaceClass.HORN
        elif sgn_m1 == 0:
            label = SurfaceClass.CIRCLE
        else:
            label = SurfaceClass.ONE_POINT  # u = m1 < 0 <= m2
    elif sgn_um1 > 0 and sgn_um2 < 0:
        # two points: m1 < u <= 0 <= m2
        label = SurfaceClass.SMOOTH_RING if sgn_m1 >= 0 else SurfaceClass.TWO_POINTS
    elif sgn_um1 < 0:
        # no real points: u < m1 <= 0
        label = SurfaceClass.SPINDLE if sgn_m1 > 0 else SurfaceClass.NO_REAL_POINTS
    else:
        # u > m2; two points: m1 < m2 <= 0 <= u
        label = SurfaceClass.SPINDLE if sgn_m1 >= 0 else SurfaceClass.TWO_POINTS
    return label, ambiguous


def classify_cubic(p: Scalar, q: Scalar, pol: TolerancePolicy) -> SurfaceClass:
    pq = p * q
    if not pol.is_zero(pq):
        if pq < 0:
            return SurfaceClass.SMOOTH_RING
        if not pol.is_zero(p - q):
            return SurfaceClass.SPINDLE
        return SurfaceClass.SPHERE_TANGENT_PLANE
    if not pol.is_zero(p - q):
        return SurfaceClass.HORN
    if not pol.is_zero(p) or not pol.is_zero(q):
        return SurfaceClass.SPHERE_TANGENT_PLANE
    return SurfaceClass.PLANE_AND_POINT


def _fraction_vote(num: Scalar, den: Scalar, pol: TolerancePolicy) -> J0Value:
    nz = pol.is_zero(num)
    dz = pol.is_zero(den)
    if dz and nz:
        return J0Value.undefined()
    if dz:
        return J0Value.minus_infinity()
    return J0Value.finite(pol.div(num, den))


def j0_quartic(prep: Prepared, sd: SpectralData) -> J0Value:
    """All three printed forms; they must agree.

    Spectral: (A1-2A2-A3)(A2+2A3-A1)/(A2-A3)^2, invariant under A2<->A3.
    A1-based: (7A1^2-8C0A1+2C0^2+W1)/(3A1^2-2C0A1-C0^2+4W1).
    Coefficient-level: the C0/W1/W2/E0/f0 rational form.
    Zero denominator with nonzero numerator means minus infinity (touching
    spheres, double sphere); 0/0 is undefined (sphere with a point on it).
    prep is the prepared quartic sd was recovered from; sd / scale_back(2)
    is the triple at its gauge.
    """
    k2 = prep.scale_back(2)
    a1, a2, a3 = sd.A1 / k2, sd.A2 / k2, sd.A3 / k2

    inv, pol = prep.inv, prep.pol
    C0, W1, W2, E0, f0 = inv.C0, inv.W1, inv.W2, inv.E0, prep.work.f0
    votes = [
        _fraction_vote((a1 - 2 * a2 - a3) * (a2 + 2 * a3 - a1), (a2 - a3) ** 2, pol),
        _fraction_vote(
            7 * a1 * a1 - 8 * C0 * a1 + 2 * C0 ** 2 + W1,
            3 * a1 * a1 - 2 * C0 * a1 - C0 ** 2 + 4 * W1, pol),
        _fraction_vote(
            (4 * f0 - C0 ** 2) * (28 * f0 + C0 ** 2) + 4 * (8 * f0 + C0 ** 2) * W1
            - 12 * C0 * (W2 - 2 * E0),
            12 * f0 * (4 * f0 - C0 ** 2) + (28 * f0 + C0 ** 2) * W1
            - 8 * C0 * (W2 - 2 * E0), pol),
    ]

    first, second, third = votes
    if first.kind == second.kind == third.kind == J0_FINITE:
        ref = first.value
        # an int constant: no float conversion of an exact J0
        size = 10_000 * max(1.0, abs(ref))
        if not pol.is_zero(second.value - ref, size) or not pol.is_zero(third.value - ref, size):
            raise FormulaDisagreement(
                f"J0 formulas disagree: {[first.value, second.value, third.value]}")
        return first
    kinds = {v.kind for v in votes}
    if len(kinds) != 1:
        # degenerate strata may zero one fraction's numerator and denominator
        # while another stays decisive; a decisive vote wins, but finite and
        # minus-infinity verdicts must not coexist.  Two kinds or more hold
        # a decisive one.
        if J0_FINITE in kinds and J0_MINUS_INF in kinds:
            raise FormulaDisagreement(f"J0 formulas disagree: {votes}")
        return next(v for v in votes if v.kind != J0_UNDEFINED)
    return votes[0]


def j0_cubic(prep: Prepared) -> J0Value:
    """Weight-8 rational form in the cubic coefficients; prep is a prepared
    cubic."""
    work, inv = prep.work, prep.inv
    b1, b2, b3 = work.b
    c1, c2, c3 = work.c
    d1, d2, d3 = work.d
    e1, e2, e3 = work.e
    B0, C0 = inv.B0, inv.C0
    y5 = d1 * d1 + d2 * d2 + d3 * d3 - 4 * (b1 * e1 + b2 * e2 + b3 * e3)
    y6 = (5 * (b1 * b1 * d1 * d1 + b2 * b2 * d2 * d2 + b3 * b3 * d3 * d3)
          + 10 * b1 * b2 * (c3 * d3 - d1 * d2)
          + 10 * b1 * b3 * (c2 * d2 - d1 * d3)
          + 10 * b2 * b3 * (c1 * d1 - d2 * d3)
          - 2 * C0 * (b1 * b2 * d3 + b1 * b3 * d2 + b2 * b3 * d1)
          - b1 * b1 * (c1 * c1 + 4 * c2 * c3)
          - b2 * b2 * (c2 * c2 + 4 * c1 * c3)
          - b3 * b3 * (c3 * c3 + 4 * c1 * c2))
    cc = c1 * c2 + c1 * c3 + c2 * c3
    num = 3 * (B0 * (-2 * y5 + cc) + y6)
    den = B0 * (y5 + 2 * (c1 * c1 + c2 * c2 + c3 * c3) + cc) + 2 * y6
    return _fraction_vote(num, den, prep.pol)


def willmore_energy(j: J0Value, pol: TolerancePolicy):
    """pi^2 / sqrt(J0) for finite positive J0 (2*pi^2 at the maximum 1/4);
    None marks the bending energy as not applicable (J0 <= 0 or no smooth
    torus-type real surface).  J0 is scale-free, so a float J0 within the
    policy's tolerance of 0 counts as 0."""
    if (j.kind != J0_FINITE or j.value is None or j.value <= 0
            or pol.is_zero(j.value)):
        return None
    return math.pi ** 2 / math.sqrt(float(j.value))
