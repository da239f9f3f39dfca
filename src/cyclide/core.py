"""Coefficient data model, trivariate polynomial carrier, Euclidean motions.

The fourteen homogeneous coefficients (a0, b1..b3, c1..c3, d1..d3, e1..e3, f0)
name the implicit surface

    a0*(x^2+y^2+z^2)^2 + 2*(b1*x+b2*y+b3*z)*(x^2+y^2+z^2)
      + c1*x^2 + c2*y^2 + c3*z^2 + 2*d1*y*z + 2*d2*x*z + 2*d3*x*y
      + 2*e1*x + 2*e2*y + 2*e3*z + f0  =  0.

`DarbouxCoefficients` is that 14-tuple with named slots, and each action on
the slots is written once, here.  `SLOT_WEIGHTS` is the weighted degree of
each slot under (x,y,z) -> lam*(x,y,z) (0 for a0, 1 b, 2 c and d, 3 e, 4 f0):
`weighted_rescale` and the float gauge read it, and every residual is
weighted-homogeneous in it.  An index swap sigma_ij exchanges subscripts i
and j in b, c, d and e at once, by one table of slot indices.
`sigma_images(c) = (c, sigma12 c, sigma13 c)`, the images as plain 14-tuples,
is where the index 2 and 3 images of a formula are taken (K2, K3 of K1,
likewise L, M, the cubic targets, the quadric forms and the cubic shift);
`apply_permutation` and `sigma_orbit` give the same images as
`DarbouxCoefficients`.  The symmetric invariants agree on the orbit.

With M the symmetric matrix [[c1,d3,d2],[d3,c2,d1],[d2,d1,c3]], an orthogonal
motion acts on the coefficients in closed form (`apply_motion`): a rotation
turns b, M, e into R^T b, R^T M R, R^T e, and a translation updates them by
polynomials in a0, b and the shift.  That translation is written out once,
slot by slot over locals, for both modes, as is `weighted_rescale`: exact
for rationals, and in float mode each slot comes from one fixed order of
operations, so the floats it rounds are the same on every run and every
caller.  The sparse TriPoly expansion and its affine substitution are the
reference those formulas are tested against, and the point evaluator of the
generators and the Moebius map (`point_residual`).
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
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
        return all(isinstance(v, (Fraction, int)) for v in self)

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

# index permutations sigma_ij swap the indicated subscript in b, c, d, e
SIGMA12 = "s12"
SIGMA13 = "s13"
SIGMA23 = "s23"
_PERMS = {SIGMA12: (1, 0, 2), SIGMA13: (2, 1, 0), SIGMA23: (0, 2, 1)}
# as slot index tables: a0 and f0 stay, each 3-slot group is permuted
_SLOT_TABLES = {which: itemgetter(0, *(g + i for g in (1, 4, 7, 10) for i in perm), 13)
                for which, perm in _PERMS.items()}
_SIGMA12_SLOTS, _SIGMA13_SLOTS = _SLOT_TABLES[SIGMA12], _SLOT_TABLES[SIGMA13]


Monomial = tuple[int, int, int]


class TriPoly:
    """Sparse trivariate polynomial of total degree <= 4.

    Zero coefficients are never stored.  Supports exactly the arithmetic its
    users need: add, multiply, scale, point evaluation, and the affine
    substitution the tests take as the reference for `apply_motion`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Scalar] | None = None):
        self.terms: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    if sum(mono) > 4:
                        raise ShapeError(f"monomial {mono} exceeds total degree 4")
                    self.terms[mono] = coeff

    @classmethod
    def constant(cls, v: Scalar) -> "TriPoly":
        return cls({(0, 0, 0): v})

    def __eq__(self, other):
        return isinstance(other, TriPoly) and self.terms == other.terms

    def __add__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) + coeff
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        res = TriPoly()
        res.terms = out
        return res

    def __mul__(self, other: "TriPoly") -> "TriPoly":
        out: dict[Monomial, Scalar] = {}
        for (i1, j1, k1), v1 in self.terms.items():
            for (i2, j2, k2), v2 in other.terms.items():
                mono = (i1 + i2, j1 + j2, k1 + k2)
                if sum(mono) > 4:
                    raise ShapeError("product exceeds total degree 4")
                s = out.get(mono, 0) + v1 * v2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        res = TriPoly()
        res.terms = out
        return res

    def scaled(self, lam: Scalar) -> "TriPoly":
        if lam == 0:
            return TriPoly()
        res = TriPoly()
        res.terms = {m: v * lam for m, v in self.terms.items()}
        return res

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def evaluate(self, point) -> Scalar:
        x, y, z = point
        total = 0
        for (i, j, k), v in self.terms.items():
            total += v * x**i * y**j * z**k
        return total

    def substitute_affine(self, rows, translation) -> "TriPoly":
        """Substitute (x,y,z) -> (rows[0].(x,y,z)+t0, rows[1]..., rows[2]...).

        rows is the 3x3 matrix applied to the variable vector; translation the
        added constant.  Exact when all inputs are rational.
        """
        lin = []
        for r in range(3):
            t: dict[Monomial, Scalar] = {}
            coeffs = (rows[r][0], rows[r][1], rows[r][2])
            for axis, cval in enumerate(coeffs):
                if cval != 0:
                    mono = tuple(1 if a == axis else 0 for a in range(3))
                    t[mono] = cval
            if translation[r] != 0:
                t[(0, 0, 0)] = translation[r]
            p = TriPoly()
            p.terms = t
            lin.append(p)
        maxdeg = self.degree()
        powers = []
        for p in lin:
            pw = [TriPoly.constant(1), p]
            for _ in range(2, maxdeg + 1):
                pw.append(pw[-1] * p)
            powers.append(pw)
        out = TriPoly()
        for (i, j, k), v in self.terms.items():
            term = powers[0][i] * powers[1][j] * powers[2][k]
            out = out + term.scaled(v)
        return out


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

    def apply_point(self, p):
        R, t = self.rotation, self.translation
        return tuple(sum(R[i][j] * p[j] for j in range(3)) + t[i] for i in range(3))

    def after(self, other: "EuclideanMotion") -> "EuclideanMotion":
        """Motion x -> self(other(x))."""
        R1, t1 = self.rotation, self.translation
        R2, t2 = other.rotation, other.translation
        R = tuple(tuple(sum(R1[i][k] * R2[k][j] for k in range(3)) for j in range(3))
                  for i in range(3))
        t = tuple(sum(R1[i][k] * t2[k] for k in range(3)) + t1[i] for i in range(3))
        return EuclideanMotion(R, t)

    def inverse(self) -> "EuclideanMotion":
        """Inverse assuming orthogonal rotation part (R^T, -R^T t)."""
        R, t = self.rotation, self.translation
        Rt = tuple(tuple(R[j][i] for j in range(3)) for i in range(3))
        ti = tuple(-sum(Rt[i][k] * t[k] for k in range(3)) for i in range(3))
        return EuclideanMotion(Rt, ti)

    def orthogonality_defect(self) -> Scalar:
        """max |(R^T R - I)_ij|; exactly 0 for exact rotations."""
        R = self.rotation
        worst = 0
        for i in range(3):
            for j in range(3):
                s = sum(R[k][i] * R[k][j] for k in range(3))
                target = 1 if i == j else 0
                worst = max(worst, abs(s - target))
        return worst


def polynomial_from_coefficients(c: DarbouxCoefficients) -> TriPoly:
    """Expand the implicit equation term by term into a sparse polynomial."""
    one = Fraction(1) if c.is_exact() else 1.0
    rho2 = TriPoly({(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): one})
    p = (rho2 * rho2).scaled(c.a0)
    blin = TriPoly({(1, 0, 0): 2 * c.b1, (0, 1, 0): 2 * c.b2, (0, 0, 1): 2 * c.b3})
    p = p + blin * rho2
    p = p + TriPoly({
        (2, 0, 0): c.c1, (0, 2, 0): c.c2, (0, 0, 2): c.c3,
        (0, 1, 1): 2 * c.d1, (1, 0, 1): 2 * c.d2, (1, 1, 0): 2 * c.d3,
        (1, 0, 0): 2 * c.e1, (0, 1, 0): 2 * c.e2, (0, 0, 1): 2 * c.e3,
        (0, 0, 0): c.f0,
    })
    return p


def point_residual(c: DarbouxCoefficients):
    """point -> |F(point)| / (max|c_i| (1 + |point|^2)^2), F the surface of
    c expanded once: the value of the equation relative to the largest
    coefficient and to the size of the point, in the types of c and the
    point (exactly 0 on the surface for exact ones)."""
    poly = polynomial_from_coefficients(c)
    scale = max(abs(v) for v in c)

    def residual(point) -> Scalar:
        return abs(poly.evaluate(point)) / (scale * (1 + sum(x * x for x in point)) ** 2)

    return residual


# monomials whose coefficient must equal a stated multiple of a named entry;
# everything not listed must vanish
_SHAPE = {
    "a0": [((4, 0, 0), 1), ((0, 4, 0), 1), ((0, 0, 4), 1),
           ((2, 2, 0), 2), ((2, 0, 2), 2), ((0, 2, 2), 2)],
    "b1": [((3, 0, 0), 2), ((1, 2, 0), 2), ((1, 0, 2), 2)],
    "b2": [((0, 3, 0), 2), ((2, 1, 0), 2), ((0, 1, 2), 2)],
    "b3": [((0, 0, 3), 2), ((2, 0, 1), 2), ((0, 2, 1), 2)],
    "c1": [((2, 0, 0), 1)], "c2": [((0, 2, 0), 1)], "c3": [((0, 0, 2), 1)],
    "d1": [((0, 1, 1), 2)], "d2": [((1, 0, 1), 2)], "d3": [((1, 1, 0), 2)],
    "e1": [((1, 0, 0), 2)], "e2": [((0, 1, 0), 2)], "e3": [((0, 0, 1), 2)],
    "f0": [((0, 0, 0), 1)],
}
_KNOWN_MONOS = {m for spots in _SHAPE.values() for m, _ in spots}


def coefficients_from_polynomial(p: TriPoly) -> DarbouxCoefficients:
    """Exact left-inverse of polynomial_from_coefficients.

    Raises ShapeError when repeated monomials disagree (e.g. coeff(x^4) !=
    coeff(y^4)) or a monomial outside the Darboux shape appears: the input is
    then not a Darboux cyclide at all.
    """
    for mono in p.terms:
        if mono not in _KNOWN_MONOS:
            raise ShapeError(f"monomial {mono} not allowed in Darboux form")
    exact = all(isinstance(v, (Fraction, int)) for v in p.terms.values())

    def scalar(mono):
        v = p.terms.get(mono, 0)
        return Fraction(v) if exact else float(v)

    values = {}
    for name, spots in _SHAPE.items():
        candidates = [scalar(m) / mult for m, mult in spots]
        first = candidates[0]
        for got, (m, _) in zip(candidates[1:], spots[1:]):
            if got != first:
                raise ShapeError(
                    f"inconsistent {name}: monomial {m} gives {got}, expected {first}")
        values[name] = first
    return DarbouxCoefficients(**values)


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


def apply_permutation(c: DarbouxCoefficients, which: str) -> DarbouxCoefficients:
    """Swap one index pair simultaneously in b, c, d, e (a0, f0 fixed)."""
    return DarbouxCoefficients._make(_SLOT_TABLES[which](c))


def sigma_orbit(c: DarbouxCoefficients) -> tuple[DarbouxCoefficients, ...]:
    """(c, sigma12 c, sigma13 c): the copies on which a formula written for
    index 1 gives its index 2 and index 3 images."""
    return (c, apply_permutation(c, SIGMA12), apply_permutation(c, SIGMA13))


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
