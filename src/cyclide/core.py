"""Coefficient data model, Euclidean motions and their action on the slots.

The fourteen homogeneous coefficients (a0, b1..b3, c1..c3, d1..d3, e1..e3, f0)
name the implicit surface

    a0*(x^2+y^2+z^2)^2 + 2*(b1*x+b2*y+b3*z)*(x^2+y^2+z^2)
      + c1*x^2 + c2*y^2 + c3*z^2 + 2*d1*y*z + 2*d2*x*z + 2*d3*x*y
      + 2*e1*x + 2*e2*y + 2*e3*z + f0  =  0.

`DarbouxCoefficients` is that 14-tuple with named slots, and each action on
the slots is written once, here.  `SLOT_WEIGHTS` is the weighted degree of
each slot under (x,y,z) -> lam*(x,y,z) (0 for a0, 1 b, 2 c and d, 3 e, 4 f0),
and every residual is weighted-homogeneous in it; `weighted_rescale` and the
float gauge write these weights out slot by slot, and only the tests read
the table.  An index swap sigma_ij exchanges subscripts i and j in b, c, d
and e at once, by a table of slot indices.
`sigma_images(c) = (c, sigma12 c, sigma13 c)`, the images as plain 14-tuples,
is the one place the index 2 and 3 images of a formula are taken (K2, K3
of K1, likewise L, M, the cubic targets, the quadric forms and the cubic
shift).  The symmetric invariants agree on the images.

With M the symmetric matrix [[c1,d3,d2],[d3,c2,d1],[d2,d1,c3]], an orthogonal
motion acts on the coefficients in closed form (`apply_motion`): a rotation
turns b, M, e into R^T b, R^T M R, R^T e, and a translation updates them by
polynomials in a0, b and the shift.  That translation is written out once,
slot by slot over locals, for both modes, as is `weighted_rescale`: exact
for rationals, and in float mode each slot comes from one fixed order of
operations, so the floats it rounds are the same on every run and every
caller.  The same translation evaluates the surface at a point: c
translated by p has F(p) in its f0 slot and grad F(p) / 2 in e, which is
how `point_residual` and the sampler's Newton polish read them.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from operator import itemgetter

from .errors import NotQuartic, ShapeError, ZeroScale
from .scalar import Scalar


class DarbouxCoefficients(namedtuple(
        "DarbouxCoefficients", "a0 b1 b2 b3 c1 c2 c3 d1 d2 d3 e1 e2 e3 f0")):
    """The fourteen slots, all Fractions or ints (exact) or all floats."""

    __slots__ = ()

    @classmethod
    def make(cls, a0=0, b=(0, 0, 0), c=(0, 0, 0), d=(0, 0, 0), e=(0, 0, 0), f0=0,
             exact: bool = True) -> "DarbouxCoefficients":
        conv = Fraction if exact else float
        return cls._make(map(conv, (a0, *b, *c, *d, *e, f0)))

    def astuple(self) -> tuple[Scalar, ...]:
        return tuple(self)

    # the 3-slot groups, as plain tuples
    b = property(itemgetter(slice(1, 4)))
    c = property(itemgetter(slice(4, 7)))
    d = property(itemgetter(slice(7, 10)))
    e = property(itemgetter(slice(10, 13)))

    def is_exact(self) -> bool:
        return all(map(isinstance, self, repeat((Fraction, int))))

    def replace(self, **kw) -> "DarbouxCoefficients":
        return self._replace(**kw)

    def scale(self, lam: Scalar) -> "DarbouxCoefficients":
        """Projective rescale: all fourteen entries times lam (same surface)."""
        return self._make(v * lam for v in self)

    def to_float(self) -> "DarbouxCoefficients":
        return self._make(map(float, self))


COEFF_FIELDS = DarbouxCoefficients._fields

# weighted degree of each slot
SLOT_WEIGHTS = (0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 4)

# the index swaps sigma12 and sigma13 as slot index tables: a0 and f0 stay,
# and each 3-slot group of b, c, d, e is permuted by (1, 0, 2) or (2, 1, 0)
_SIGMA12_SLOTS, _SIGMA13_SLOTS = (
    itemgetter(0, *(g + i for g in (1, 4, 7, 10) for i in perm), 13)
    for perm in ((1, 0, 2), (2, 1, 0)))


class EuclideanMotion(namedtuple("EuclideanMotion", "rotation translation")):
    """Rigid (or improper-orthogonal) motion: x -> R x + t, with the
    rotation R a 3-tuple of 3-tuple rows and the translation t a 3-tuple."""

    __slots__ = ()

    @classmethod
    def identity(cls) -> "EuclideanMotion":
        one, zero = Fraction(1), Fraction(0)
        return cls(((one, zero, zero), (zero, one, zero), (zero, zero, one)),
                   (zero, zero, zero))

    @classmethod
    def translation_by(cls, t) -> "EuclideanMotion":
        """x -> x + t on the int `_IDENTITY`, which `apply_motion` skips."""
        return cls(_IDENTITY, tuple(t))

    @classmethod
    def rotation_by(cls, rows) -> "EuclideanMotion":
        return cls(tuple(tuple(r) for r in rows), (Fraction(0),) * 3)

    def after(self, other: "EuclideanMotion") -> "EuclideanMotion":
        """Motion x -> self(other(x))."""
        cols = tuple(zip(*other.rotation))
        return EuclideanMotion(
            tuple(tuple(_dot(row, col) for col in cols) for row in self.rotation),
            tuple(_dot(row, other.translation) + t
                  for row, t in zip(self.rotation, self.translation)))

    def inverse(self) -> "EuclideanMotion":
        """Inverse assuming orthogonal rotation part (R^T, -R^T t)."""
        Rt = tuple(zip(*self.rotation))
        return EuclideanMotion(Rt, tuple(-_dot(row, self.translation) for row in Rt))

    def orthogonality_defect(self) -> Scalar:
        """max |(R^T R - I)_ij|; exactly 0 for exact rotations."""
        cols = tuple(zip(*self.rotation))
        return max(abs(_dot(ci, cj) - (1 if i == j else 0))
                   for i, ci in enumerate(cols) for j, cj in enumerate(cols))


_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _dot(x, y) -> Scalar:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def apply_motion(c: DarbouxCoefficients, m: EuclideanMotion) -> DarbouxCoefficients:
    """Coefficients of p(R y + t) as a polynomial in y, for the motion
    x -> R y + t.

    R must be orthogonal, exactly so for rational R (ShapeError otherwise).
    Then p(R y + t) is p rotated by R, a step skipped when R is the identity,
    and translated by u = R^T t, each in closed form and exact for rationals.
    The translation is written out once, slot by slot, for both modes; its
    operation order fixes the float rounding.
    """
    a0, b1, b2, b3, c1, c2, c3, d1, d2, d3, e1, e2, e3, f0 = c
    u1, u2, u3 = m.translation
    # M = [[m11, m12, m13], [m21, m22, m23], [m31, m32, m33]], symmetric
    # before a rotation; a float rotation may leave it asymmetric by rounding
    m11, m12, m13, m21, m22, m23, m31, m32, m33 = c1, d3, d2, d3, c2, d1, d2, d1, c3
    if m.rotation != _IDENTITY:
        if m.orthogonality_defect() != 0:
            raise ShapeError("rotation part of the motion is not orthogonal")
        Rt = tuple(zip(*m.rotation))
        M = ((m11, m12, m13), (m21, m22, m23), (m31, m32, m33))
        (b1, b2, b3), (e1, e2, e3), (u1, u2, u3) = (
            tuple(_dot(r, v) for r in Rt) for v in ((b1, b2, b3), (e1, e2, e3), (u1, u2, u3)))
        RtM = tuple(tuple(_dot(r, row) for row in M) for r in Rt)  # M symmetric
        (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = (
            tuple(_dot(row, r) for r in Rt) for row in RtM)
    # p(y + u), with rho^2 -> rho^2 + 2 u.y + T and Mu = M u
    a2, a4 = 2 * a0, 4 * a0
    T = u1 * u1 + u2 * u2 + u3 * u3
    bu = b1 * u1 + b2 * u2 + b3 * u3
    mu1 = m11 * u1 + m12 * u2 + m13 * u3
    mu2 = m21 * u1 + m22 * u2 + m23 * u3
    mu3 = m31 * u1 + m32 * u2 + m33 * u3
    k = a2 * T + 2 * bu
    return c._make((
        a0, b1 + a2 * u1, b2 + a2 * u2, b3 + a2 * u3,
        m11 + k + a4 * u1 * u1 + 2 * (b1 * u1 + u1 * b1),
        m22 + k + a4 * u2 * u2 + 2 * (b2 * u2 + u2 * b2),
        m33 + k + a4 * u3 * u3 + 2 * (b3 * u3 + u3 * b3),
        m23 + a4 * u2 * u3 + 2 * (b2 * u3 + u2 * b3),
        m13 + a4 * u1 * u3 + 2 * (b1 * u3 + u1 * b3),
        m12 + a4 * u1 * u2 + 2 * (b1 * u2 + u1 * b2),
        e1 + k * u1 + T * b1 + mu1,
        e2 + k * u2 + T * b2 + mu2,
        e3 + k * u3 + T * b3 + mu3,
        a0 * T * T + 2 * T * bu + (u1 * mu1 + u2 * mu2 + u3 * mu3)
        + 2 * (e1 * u1 + e2 * u2 + e3 * u3) + f0))


def point_residual(c: DarbouxCoefficients):
    """point -> |F(point)| / (max|c_i| (1 + |point|^2)^2), F the surface of
    c: the value of the equation relative to the largest coefficient and to
    the size of the point, in the types of c and the point (exactly 0 on the
    surface for exact ones).  F(point) is the f0 slot of c translated by the
    point."""
    scale = max(abs(v) for v in c)
    if c.is_exact():
        scale = Fraction(scale)    # an int c and point divide as Fractions

    def residual(point) -> Scalar:
        value = apply_motion(c, EuclideanMotion.translation_by(point)).f0
        return abs(value) / (scale * (1 + _dot(point, point)) ** 2)

    return residual


def sigma_images(c: DarbouxCoefficients) -> tuple[tuple[Scalar, ...], ...]:
    """(c, sigma12 c, sigma13 c), the images as plain 14-tuples in slot
    order: the slots on which a formula written for index 1 gives its index
    2 and index 3 images, with no `DarbouxCoefficients` copy made."""
    return (c, _SIGMA12_SLOTS(c), _SIGMA13_SLOTS(c))


def weighted_rescale(c: DarbouxCoefficients, lam: Scalar) -> DarbouxCoefficients:
    """Coefficient action of (x,y,z) -> (lam*x, lam*y, lam*z) followed by
    dividing the polynomial by lam^4: each slot times lam to its
    `SLOT_WEIGHTS` entry (a0 left as it is)."""
    if lam == 0:
        raise ZeroScale("weighted rescale requires lambda != 0")
    l2 = lam * lam
    l3, l4 = l2 * lam, l2 * l2
    a0, b1, b2, b3, c1, c2, c3, d1, d2, d3, e1, e2, e3, f0 = c
    return c._make((a0, b1 * lam, b2 * lam, b3 * lam, c1 * l2, c2 * l2, c3 * l2,
                    d1 * l2, d2 * l2, d3 * l2, e1 * l3, e2 * l3, e3 * l3, f0 * l4))


def normalize_quartic(c: DarbouxCoefficients) -> DarbouxCoefficients:
    """Divide by a0, then shift (x,y,z) -> (x - b1/2, y - b2/2, z - b3/2).

    Exact input stays exact: an int a0 divides as a Fraction and an odd int
    b_i halves as one, so int input with a0 = 1 and even b stays in ints.
    Result has a0 = 1 and b = 0 exactly, in float mode too: the shifted b is
    b + 2*(-b/2), which rounds to zero unless b is subnormal; then b/2 may
    round, and that slot keeps +-5e-324.
    """
    if c.a0 == 0:
        raise NotQuartic("a0 = 0: not a quartic")
    scaled = c
    if c.a0 != 1:
        # an int a0 divides as a Fraction, so exact input stays exact
        a0 = Fraction(c.a0) if isinstance(c.a0, int) else c.a0
        scaled = c._make(v / a0 for v in c)
    b1, b2, b3 = scaled.b
    if b1 == 0 and b2 == 0 and b3 == 0:
        return scaled
    shift = (-_half(b1), -_half(b2), -_half(b3))
    return apply_motion(scaled, EuclideanMotion.translation_by(shift))


def _half(v: Scalar) -> Scalar:
    """v / 2, exact for an int: an int when v is even, else a Fraction."""
    if isinstance(v, int):
        return v // 2 if v % 2 == 0 else Fraction(v, 2)
    return v / 2
