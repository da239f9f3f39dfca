"""The straight-line float kernels against the formulations they replaced.

`apply_motion`, `weighted_rescale` and `classify_quartic_report` are written
out slot by slot, with every float operation in the order of the versions
below (dot products, a closure per entry, a sign closure re-testing the same
differences).  Those versions are kept here as references: on random float
tuples with signs, zeros, subnormals and magnitudes from 1e-150 to 1e150,
and on boundary parameters with exact ties and one-ulp neighbours, the
kernels give the same floats, bit for bit, and the same decisions.  Exact
mode is checked against the TriPoly substitution of tests/tripoly.py, in
test_core.
"""
import math
import random
import sys
from fractions import Fraction

import pytest

from cyclide import DarbouxCoefficients, EuclideanMotion, SurfaceClass, TolerancePolicy
from cyclide.classify import classify_quartic_report
from cyclide.core import SLOT_WEIGHTS, apply_motion, weighted_rescale
from cyclide.errors import PreconditionError, ShapeError, ZeroScale
from cyclide.genkit import random_rotation
from cyclide.scalar import EXACT, FLOAT

_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def reference_apply_motion(c, m):
    """apply_motion written with dot products, a closure and generators."""
    a0, b, e, u = c.a0, c.b, c.e, m.translation
    M = ((c.c1, c.d3, c.d2), (c.d3, c.c2, c.d1), (c.d2, c.d1, c.c3))
    if m.rotation != _IDENTITY:
        if m.orthogonality_defect() != 0:
            raise ShapeError("rotation part of the motion is not orthogonal")
        Rt = tuple(zip(*m.rotation))
        b, e, u = (tuple(_dot(r, v) for r in Rt) for v in (b, e, u))
        RtM = tuple(tuple(_dot(r, row) for row in M) for r in Rt)
        M = tuple(tuple(_dot(row, r) for r in Rt) for row in RtM)
    T = _dot(u, u)
    bu = _dot(b, u)
    Mu = tuple(_dot(row, u) for row in M)
    k = 2 * a0 * T + 2 * bu
    f0 = a0 * T * T + 2 * T * bu + _dot(u, Mu) + 2 * _dot(e, u) + c.f0
    e = tuple(e[i] + k * u[i] + T * b[i] + Mu[i] for i in range(3))

    def quad(i, j):
        diag = M[i][j] + k if i == j else M[i][j]
        return diag + 4 * a0 * u[i] * u[j] + 2 * (b[i] * u[j] + u[i] * b[j])

    cd = (quad(0, 0), quad(1, 1), quad(2, 2), quad(1, 2), quad(0, 2), quad(0, 1))
    b = tuple(b[i] + 2 * a0 * u[i] for i in range(3))
    return DarbouxCoefficients(a0, *b, *cd, *e, f0)


def reference_weighted_rescale(c, lam):
    """weighted_rescale written with a power table and a generator."""
    if lam == 0:
        raise ZeroScale("weighted rescale requires lambda != 0")
    l2 = lam * lam
    power = (1, lam, l2, l2 * lam, l2 * l2)
    return c._make((c.a0, *(v * power[w] for v, w in zip(c[1:], SLOT_WEIGHTS[1:]))))


def reference_classify(s, t, u, pol):
    """classify_quartic_report written with a sign closure on (s, t, u)."""
    scale = max(1.0, abs(s), abs(t), abs(u))

    def sgn(v):
        return 0 if pol.is_zero(v, scale) else (v > 0) - (v < 0)

    ambiguous = any(v != 0 and pol.is_zero(v, scale)
                    for v in (s - t, u - s, u - t, s, t, u))
    m1, m2 = (s, t) if sgn(s - t) <= 0 else (t, s)
    if sgn(s) * sgn(t) * sgn(u) < 0:
        raise PreconditionError(
            f"inadmissible parameters (s,t,u)=({s},{t},{u}): product < 0 means "
            "the implicit equation is not real")
    C = SurfaceClass
    if sgn(s - t) == 0:
        if sgn(u - s) == 0:
            return (C.SPHERE_AND_POINT if sgn(s) > 0 else C.ONE_POINT), ambiguous
        if sgn(s) > 0:
            return C.TWO_TOUCHING_SPHERES, ambiguous
        if sgn(s) == 0:
            return (C.DOUBLE_SPHERE if sgn(u) > 0 else C.NO_REAL_POINTS), ambiguous
        return C.ONE_POINT, ambiguous
    if sgn(u - m2) == 0:
        return (C.HORN if sgn(m2) > 0 else C.TWO_POINTS), ambiguous
    if sgn(u - m1) == 0:
        if sgn(m1) > 0:
            return C.HORN, ambiguous
        return (C.CIRCLE if sgn(m1) == 0 else C.ONE_POINT), ambiguous
    if sgn(u - m1) > 0 and sgn(u - m2) < 0:
        return (C.SMOOTH_RING if sgn(m1) >= 0 else C.TWO_POINTS), ambiguous
    if sgn(u - m1) < 0:
        return (C.SPINDLE if sgn(m1) > 0 else C.NO_REAL_POINTS), ambiguous
    return (C.SPINDLE if sgn(m1) >= 0 else C.TWO_POINTS), ambiguous


class Squares(tuple):
    """Stand-in for SpectralData: the classifier reads only squares()."""

    def squares(self):
        return tuple(self)


def random_float(rng, center):
    """A float with a random sign: zero, subnormal, a small integer, or of
    magnitude about 10**center, spread over twenty decades."""
    r = rng.random()
    if r < 0.08:
        return rng.choice((0.0, -0.0))
    if r < 0.12:
        return rng.choice((-1, 1)) * 5e-324 * rng.randint(1, 2 ** 52)
    if r < 0.2:
        return float(rng.randint(-4, 4))
    return rng.choice((-1.0, 1.0)) * rng.uniform(1, 10) * 10.0 ** (center + rng.uniform(-10, 10))


def random_tuples(rng, count):
    for _ in range(count):
        center = rng.uniform(-140, 140)
        yield DarbouxCoefficients._make(random_float(rng, center) for _ in range(14))


def random_motion(rng, center):
    """Identity, a translation, or a rational rotation with a translation, in
    floats; about four fifths of float rotations are not orthogonal to the
    bit and raise ShapeError."""
    t = tuple(random_float(rng, center) for _ in range(3))
    kind = rng.randrange(3)
    if kind == 0:
        return EuclideanMotion(_IDENTITY, (0.0, 0.0, 0.0))
    if kind == 1:
        return EuclideanMotion.translation_by(t)
    rows = random_rotation(rng).rotation
    return EuclideanMotion(tuple(tuple(map(float, row)) for row in rows), t)


def bits(c):
    return tuple(v.hex() for v in c)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ShapeError, PreconditionError, ZeroScale) as exc:
        return (type(exc), str(exc))


def test_apply_motion_matches_the_reference_bit_for_bit():
    rng = random.Random(2024)
    rotated = 0
    for c in random_tuples(rng, 10000):
        m = random_motion(rng, rng.uniform(-140, 140) / 4)
        want = outcome(reference_apply_motion, c, m)
        got = outcome(apply_motion, c, m)
        if isinstance(want, DarbouxCoefficients):
            assert type(got) is DarbouxCoefficients and bits(got) == bits(want), (c, m)
            rotated += m.rotation != _IDENTITY
        else:
            assert got == want
    assert rotated > 500


def test_weighted_rescale_matches_the_reference_bit_for_bit():
    rng = random.Random(2025)
    for c in random_tuples(rng, 10000):
        lam = random_float(rng, rng.uniform(-40, 40))
        want = outcome(reference_weighted_rescale, c, lam)
        got = outcome(weighted_rescale, c, lam)
        if isinstance(want, DarbouxCoefficients):
            assert type(got) is DarbouxCoefficients and bits(got) == bits(want), (c, lam)
        else:
            assert got == want


def boundary_squares(rng):
    """(s, t, u) on and next to the strata: exact ties, zeros, one-ulp
    neighbours and differences at the tolerance."""
    base = [0.0, -0.0, 1.0, -1.0, 4.0, -4.0, 1e-9, -1e-9, 2.5e-9, 1e3, -1e3]
    x = rng.choice(base) if rng.random() < 0.5 else rng.uniform(-5, 5)

    def near(v):
        r = rng.random()
        if r < 0.4:
            return v
        if r < 0.7:
            return math.nextafter(v, rng.choice((-math.inf, math.inf)))
        if r < 0.85:
            return v + rng.choice((-1, 1)) * 1e-9 * max(1.0, abs(v)) * rng.choice((0.5, 1.0, 2.0))
        return rng.choice(base)
    return tuple(near(x) for _ in range(3))


@pytest.mark.parametrize("tau", [1e-9, 0.0, 1e-3])
def test_classifier_matches_the_reference_on_random_and_boundary_squares(tau):
    rng = random.Random(2026)
    pol = TolerancePolicy(FLOAT, tau)
    labels, flagged = set(), 0
    for i in range(10000):
        stu = (boundary_squares(rng) if i % 2 else
               tuple(rng.choice((-1, 1)) * rng.uniform(0, 5) for _ in range(3)))
        want = outcome(reference_classify, *stu, pol)
        got = outcome(classify_quartic_report, Squares(stu), pol)
        assert got == want, stu
        if isinstance(want[0], SurfaceClass):
            labels.add(want[0])
            flagged += want[1]
    assert len(labels) == 10
    assert flagged > 0 or tau == 0.0


def test_exact_classifier_matches_the_reference():
    rng = random.Random(2027)
    pol = TolerancePolicy(EXACT)
    values = [Fraction(v) for v in (-4, -1, 0, 1, 4)] + [Fraction(1, 3), Fraction(-1, 3)]
    labels = set()
    for _ in range(3000):
        stu = tuple(rng.choice(values) for _ in range(3))
        want = outcome(reference_classify, *stu, pol)
        assert outcome(classify_quartic_report, Squares(stu), pol) == want, stu
        if isinstance(want[0], SurfaceClass):
            labels.add(want[0])
            assert want[1] is False
    assert len(labels) == 10


def test_float_kernels_agree_on_overflow_and_underflow():
    """inf and nan slots compare by their hex form."""
    huge = DarbouxCoefficients._make([1e150] * 14)
    tiny = DarbouxCoefficients._make([sys.float_info.min] * 14)
    for c in (huge, tiny):
        m = EuclideanMotion.translation_by((1e100, -1e-200, 3.0))
        assert bits(apply_motion(c, m)) == bits(reference_apply_motion(c, m))
        assert bits(weighted_rescale(c, 1e80)) == bits(reference_weighted_rescale(c, 1e80))
