"""Exact ground-truth generators, perturbers and surface-point samplers.

Everything here is the brute-force oracle side of the test architecture:
surfaces built from known canonical parameters and exact rational motions,
against which the recognizer and canonicalizer are checked.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .canonical import CanonicalQuartic, _sqrt, spectral_data
from .classify import SurfaceClass, classify_quartic
from .core import (DarbouxCoefficients, EuclideanMotion, _dot, apply_motion,
                   normalize_quartic, point_residual, weighted_rescale)
from .errors import (CyclideError, InternalCheckError, IrrationalSpectrum,
                     NoRealPoints, PreconditionError, SeedInvariantViolation)
from .recognizer import TolerancePolicy, recognize
from .scalar import EXACT, FLOAT

# draws `perturb_off_variety` makes before giving up
PERTURB_ATTEMPTS = 10


class QuarticSeed(namedtuple("QuarticSeed", "s t u m motion lam")):
    """Canonical squares (s,t,u) = (alpha^2, gamma^2, delta^2), m = alpha*gamma*delta,
    then an exact motion and a weighted rescale lam (1 by default).  The
    constructor checks m^2 = s*t*u; `_make` and `_replace` skip the check."""

    __slots__ = ()

    def __new__(cls, s, t, u, m, motion, lam=Fraction(1)):
        if m * m != s * t * u:
            raise SeedInvariantViolation(f"m^2 = {m * m} != s*t*u = {s * t * u}")
        return tuple.__new__(cls, (s, t, u, m, motion, lam))


def quaternion_rotation(a: int, b: int, c: int, d: int) -> EuclideanMotion:
    """Exact rational rotation from a nonzero integer quaternion."""
    n = Fraction(a * a + b * b + c * c + d * d)
    if n == 0:
        raise PreconditionError("zero quaternion")
    rows = (
        (a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)),
        (2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)),
        (2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d),
    )
    rows = tuple(tuple(Fraction(v) / n for v in row) for row in rows)
    return EuclideanMotion.rotation_by(rows)


_REFLECT = EuclideanMotion.rotation_by(
    ((Fraction(1), 0, 0), (0, Fraction(1), 0), (0, 0, Fraction(-1))))


def random_rotation(seed, reflect: bool | None = None) -> EuclideanMotion:
    """Rational orthogonal matrix from a seeded random integer quaternion,
    optionally composed with a coordinate reflection to cover both O(3)
    components (reflect=None picks at random)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    while True:
        quat = tuple(rng.randint(-5, 5) for _ in range(4))
        if any(quat):
            break
    rot = quaternion_rotation(*quat)
    if reflect is None:
        reflect = bool(rng.getrandbits(1))
    return rot.after(_REFLECT) if reflect else rot


def random_fraction(rng: random.Random, num=6, den=4) -> Fraction:
    """n/d with n drawn from [-num, num], then d from [1, den]."""
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_motion(rng: random.Random, translate: bool = True) -> EuclideanMotion:
    rot = random_rotation(rng)
    if not translate:
        return rot
    t = tuple(random_fraction(rng) for _ in range(3))
    return EuclideanMotion(rot.rotation, t)


def generate_quartic_dupin(seed: QuarticSeed) -> DarbouxCoefficients:
    """Guaranteed point of the quartic Dupin variety."""
    c = CanonicalQuartic(seed.s, seed.t, seed.u, seed.m).coefficients()
    c = apply_motion(c, seed.motion)
    return weighted_rescale(c, seed.lam)


def generate_cubic_dupin(p, q, motion: EuclideanMotion) -> DarbouxCoefficients:
    """Guaranteed cubic Dupin cyclide from the parabolic canonical form."""
    p, q = Fraction(p), Fraction(q)
    c = DarbouxCoefficients.make(
        a0=0, b=(1, 0, 0), c=(-(p + q), -p, -q), e=(p * q / 4, 0, 0))
    return apply_motion(c, motion)


def random_quartic_seed(rng: random.Random, motion: EuclideanMotion | None = None,
                        smooth: bool = False, rescale: bool = True) -> QuarticSeed:
    """Admissible random seed: squares with zero or two sign flips keep
    m^2 = s*t*u solvable in the rationals (m = +/- product of the roots)."""
    if motion is None:
        motion = random_motion(rng)
    while True:
        a, b, c = (Fraction(rng.randint(0, 4)) for _ in range(3))
        if smooth:
            # 0 <= gamma^2 < delta^2 < alpha^2, all with rational product root
            lo, mid, hi = sorted((a, b, c))
            if not (lo < mid < hi):
                continue
            s, t, u = hi * hi, lo * lo, mid * mid
            m = hi * lo * mid
            break
        s, t, u = a * a, b * b, c * c
        m = a * b * c
        flips = rng.choice([(), (0, 1), (0, 2), (1, 2)])
        vals = [s, t, u]
        for i in flips:
            vals[i] = -vals[i]
        s, t, u = vals
        if m * m == s * t * u:
            break
    lam = Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2])) if rescale else Fraction(1)
    return QuarticSeed(s=s, t=t, u=u, m=m, motion=motion, lam=lam)


def perturb_off_variety(c: DarbouxCoefficients,
                        rng: random.Random) -> DarbouxCoefficients:
    """Add a random nonzero rational to one of e1, e2, e3, f0; resample the
    rare accidental returns to the variety (codimension 4 makes them measure
    zero along a generic line, but boundary strata exist)."""
    pol = TolerancePolicy(EXACT)
    for _ in range(PERTURB_ATTEMPTS):
        field = rng.choice(["e1", "e2", "e3", "f0"])
        delta = random_fraction(rng)
        if delta == 0:
            continue
        cand = c.replace(**{field: getattr(c, field) + delta})
        try:
            if not recognize(cand, pol).is_dupin:
                return cand
        except InternalCheckError:
            raise
        except CyclideError:
            continue
    raise PreconditionError(f"could not leave the variety in {PERTURB_ATTEMPTS} attempts")


# --------------------------------------------------------------------------
# surface point sampling


def _rational_circle(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Rational point on the unit circle via the tangent half-angle map."""
    t = random_fraction(rng, num=8, den=5)
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def _float_circle(rng: random.Random) -> tuple[float, float]:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return (math.cos(ang), math.sin(ang))


def _newton_polish(c: DarbouxCoefficients, point):
    """Three Newton steps along the gradient of the float surface c from
    point, to squeeze out float error.  Each step takes one translation: c
    translated by the point has the value F(point) in its f0 slot and
    grad F(point) / 2 in e."""
    pt = tuple(map(float, point))
    for _ in range(3):
        moved = apply_motion(c, EuclideanMotion.translation_by(pt))
        grad = [2 * v for v in moved.e]
        g2 = _dot(grad, grad)
        if g2 == 0:
            break
        step = moved.f0 / g2
        pt = tuple(p - step * g for p, g in zip(pt, grad))
    return pt


def _ring_cyclide_points(alpha, beta, gamma, delta, n, rng, exact):
    """Points of the canonical ring/spindle/horn family via the rational
    circle parametrization; alpha, beta, gamma, delta real, alpha > gamma."""
    pts = []
    attempts = 0
    while len(pts) < n and attempts < 20 * n + 50:
        attempts += 1
        cu, su = _rational_circle(rng) if exact else _float_circle(rng)
        cv, sv = _rational_circle(rng) if exact else _float_circle(rng)
        den = alpha - gamma * cu * cv
        if den == 0 or (not exact and abs(float(den)) < 1e-9):
            continue
        x = (delta * (gamma - alpha * cu * cv) + beta * beta * cu) / den
        y = beta * su * (alpha - delta * cv) / den
        z = beta * sv * (gamma * cu - delta) / den
        pts.append((x, y, z))
    return pts


def _sphere_points(center_x, radius, n, rng, exact):
    pts = []
    for _ in range(n):
        cu, su = _rational_circle(rng) if exact else _float_circle(rng)
        cv, sv = _rational_circle(rng) if exact else _float_circle(rng)
        pts.append((center_x + radius * cu,
                    radius * su * cv,
                    radius * su * sv))
    return pts


def _canonical_points(sq, dsq, label, n, rng, exact):
    """Sample the canonical surface with squares sq = (s, t, u), linear
    coefficient D = +sqrt(dsq) >= 0."""
    s, t, u = sq
    if label == SurfaceClass.NO_REAL_POINTS:
        raise NoRealPoints("surface has no real points")
    if label in (SurfaceClass.SMOOTH_RING, SurfaceClass.SPINDLE, SurfaceClass.HORN):
        alpha = _sqrt(s, exact, "alpha^2 =")
        gamma = _sqrt(t, exact, "gamma^2 =")
        delta = _sqrt(u, exact, "delta^2 =")
        beta = _sqrt(s - t, exact, "alpha^2-gamma^2 =")
        return _ring_cyclide_points(alpha, beta, gamma, delta, n, rng, exact)
    if label == SurfaceClass.CIRCLE:
        radius = _sqrt(s, exact, "alpha^2 =")
        out = []
        for _ in range(n):
            cu, su = _rational_circle(rng) if exact else _float_circle(rng)
            out.append((radius * cu, radius * su, 0 * radius))
        return out
    if label == SurfaceClass.DOUBLE_SPHERE:
        return _sphere_points(0 * u, _sqrt(u, exact, "delta^2 ="), n, rng, exact)
    if label in (SurfaceClass.TWO_TOUCHING_SPHERES, SurfaceClass.SPHERE_AND_POINT):
        alpha = _sqrt(s, exact, "alpha^2 =")
        delta = _sqrt(u, exact, "delta^2 =")
        half = max(1, n // 2)
        pts = []
        if alpha - delta != 0:
            pts += _sphere_points(alpha, abs(alpha - delta), half, rng, exact)
        else:
            pts.append((alpha, 0 * alpha, 0 * alpha))
        pts += _sphere_points(-alpha, abs(alpha + delta), n - len(pts), rng, exact)
        return pts
    # point classes: complete the square on Amin, the c-diagonal of the
    # canonical equation
    a1, a2, a3 = CanonicalQuartic(s, t, u, 0).coefficients().c
    if a1 == 0 and a2 == 0 and a3 == 0:
        return [(0 * s, 0 * s, 0 * s)]
    amin = min(a1, a2, a3)
    d_lin = _sqrt(dsq, exact, "D^2 =")
    x0 = -d_lin / (2 * (a1 - amin)) if a1 != amin else 0 * s
    rho_sq = -amin / 2
    free_sq = rho_sq - x0 * x0
    if not exact:
        free_sq = max(float(free_sq), 0.0)
    free = _sqrt(free_sq, exact, "rho^2-x0^2 =")
    if amin == a2:
        pts = [(x0, free, 0 * s), (x0, -free, 0 * s)]
    else:
        pts = [(x0, 0 * s, free), (x0, 0 * s, -free)]
    uniq = []
    for p in pts:
        if p not in uniq:
            uniq.append(p)
    return uniq


def _exact_axis_frame(cn: DarbouxCoefficients, sd) -> list[tuple] | None:
    """Rows of R with cn(x) = canonical(Rx), for axis-aligned exact inputs
    (d = 0, e supported on one axis).  Returns None when not applicable."""
    if any(v != 0 for v in cn.d):
        return None
    nonzero_e = [i for i, v in enumerate(cn.e) if v != 0]
    if len(nonzero_e) > 1:
        return None
    targets = (sd.A1, sd.A2, sd.A3)
    diag = cn.c
    axes = [(Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1))]
    import itertools
    for perm in itertools.permutations(range(3)):
        if tuple(diag[p] for p in perm) != targets:
            continue
        if nonzero_e:
            axis = nonzero_e[0]
            if perm[0] != axis:
                continue
            sign = 1 if cn.e[axis] > 0 else -1
        else:
            sign = 1
        rows = [axes[perm[0]], axes[perm[1]], axes[perm[2]]]
        rows[0] = tuple(sign * v for v in rows[0])
        return rows
    return None


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _unit(v):
    n = math.hypot(*v)
    return tuple(x / n for x in v)


def _normal(v):
    """A unit vector normal to v, from the axis least along v."""
    i = min(range(3), key=lambda k: abs(v[k]))
    return _unit(_cross(v, tuple(float(k == i) for k in range(3))))


def _float_frame(cn: DarbouxCoefficients, sd):
    """Rows of R with cn(x) = canonical(R x), in floats: r1 along e, or else
    the A1 eigenvector of P; r2, r3 the eigenvectors of P normal to r1, for
    A2 <= A3."""
    c1, c2, c3 = (float(v) for v in cn.c)
    d1, d2, d3 = (float(v) for v in cn.d)
    P = ((c1, d3, d2), (d3, c2, d1), (d2, d1, c3))
    a1 = float(sd.A1)
    scale = max(1.0, abs(a1), abs(float(sd.A2)), abs(float(sd.A3)))
    size = lambda v: math.hypot(*v)
    r1 = tuple(2.0 * float(v) for v in cn.e)
    if size(r1) <= 1e-9 * scale ** 1.5:    # |2e| = D, weighted degree 3
        # the A1 eigenvector is normal to the rows of P - A1 I: the largest
        # cross product of two rows, unless that is rounding noise (A1 is
        # repeated); then any vector normal to the largest row
        rows = [tuple(v - a1 * (i == j) for j, v in enumerate(r))
                for i, r in enumerate(P)]
        r1 = max((_cross(rows[i - 1], rows[i]) for i in range(3)), key=size)
        if size(r1) <= 1e-9 * scale ** 2:
            top = max(rows, key=size)
            r1 = _normal(top) if size(top) > 1e-9 * scale else (1.0, 0.0, 0.0)
    r1 = _unit(r1)
    q1 = _normal(r1)
    q2 = _cross(r1, q1)
    # the block of P on (q1, q2) turns by theta onto its eigenvectors, the
    # larger eigenvalue A3 along theta
    Pq1, Pq2 = (tuple(_dot(row, q) for row in P) for q in (q1, q2))
    theta = math.atan2(2 * _dot(q1, Pq2), _dot(q1, Pq1) - _dot(q2, Pq2)) / 2
    cs, sn = math.cos(theta), math.sin(theta)
    r2 = tuple(cs * y - sn * x for x, y in zip(q1, q2))
    r3 = tuple(cs * x + sn * y for x, y in zip(q1, q2))
    return [r1, r2, r3]


def sample_surface_points(c: DarbouxCoefficients, n: int, rng: random.Random):
    """Points on the real locus of a recognized Dupin quartic.

    Canonical tori/cyclides are sampled through their circle families with
    rational angles (exact residual 0 when the radii are rational); moved
    surfaces push canonical points through the recovered frame (float).
    Point classes return their finitely many points; NoRealPoints otherwise.
    """
    exact_in = c.is_exact()
    pol = TolerancePolicy(EXACT) if exact_in else TolerancePolicy(FLOAT)
    verdict = recognize(c, pol)
    if verdict.kind != "DupinQuartic":
        raise PreconditionError(
            f"sampling is implemented for quartic Dupin surfaces, got {verdict.kind}")
    fc = c.to_float()
    cn = normalize_quartic(c if exact_in else fc)
    sd = spectral_data(verdict.prepared)
    label = classify_quartic(sd, pol)
    squares = sd.squares()

    frame = _exact_axis_frame(cn, sd) if exact_in else None
    exact = exact_in and frame is not None
    if frame is None:
        frame = _float_frame(cn, sd)
        squares = tuple(float(v) for v in squares)
    try:
        canon_pts = _canonical_points(squares, sd.Dsq, label, n, rng, exact)
    except IrrationalSpectrum:
        exact = False
        squares = tuple(float(v) for v in squares)
        canon_pts = _canonical_points(squares, float(sd.Dsq), label, n, rng, exact)
        frame = [tuple(float(v) for v in row) for row in frame]

    shift = tuple(-pol.div(v, c.a0) / 2 for v in c.b)  # cn(x) = (c/a0)(x + shift)
    # float points are measured on the float copy, as they are polished
    residual = point_residual(c if exact else fc)
    bound = 0 if exact else 1e-12
    out = []
    for X in canon_pts:
        # cn(x) = canonical(R x)  =>  x = R^T X; then undo the b shift
        # 0 + : a zero coordinate is +0.0 even when its three terms are -0.0
        x = tuple(0 + _dot(col, X) for col in zip(*frame))
        pt = tuple(x[i] + shift[i] for i in range(3))
        if not exact:
            pt = tuple(float(v) for v in pt)
            if not residual(pt) <= bound:
                pt = _newton_polish(fc, pt)
        if residual(pt) <= bound:
            out.append(pt)
    if not out:
        raise NoRealPoints("no sample points survived the residual filter")
    return out
