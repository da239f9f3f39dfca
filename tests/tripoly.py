"""The sparse trivariate polynomial: the tests' reference for the surface.

`polynomial_from_coefficients` expands the implicit Darboux equation term by
term, `TriPoly.substitute_affine` moves it by an affine substitution and
`coefficients_from_polynomial` reads the fourteen slots back, so a closed
form of the package (`apply_motion`, `weighted_rescale`, the point value
read off a translation) can be checked against the polynomial it stands
for, independently of every coefficient-update formula.
"""
from fractions import Fraction

from cyclide import DarbouxCoefficients
from cyclide.errors import ShapeError

Monomial = tuple[int, int, int]


class TriPoly:
    """Sparse trivariate polynomial of total degree <= 4.

    Zero coefficients are never stored.  Supports exactly the arithmetic its
    users need: add, multiply, scale, point evaluation, partial derivatives
    and affine substitution.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    if sum(mono) > 4:
                        raise ShapeError(f"monomial {mono} exceeds total degree 4")
                    self.terms[mono] = coeff

    @classmethod
    def constant(cls, v) -> "TriPoly":
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
        out = {}
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

    def scaled(self, lam) -> "TriPoly":
        if lam == 0:
            return TriPoly()
        res = TriPoly()
        res.terms = {m: v * lam for m, v in self.terms.items()}
        return res

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def evaluate(self, point):
        x, y, z = point
        total = 0
        for (i, j, k), v in self.terms.items():
            total += v * x**i * y**j * z**k
        return total

    def derivative(self, axis: int) -> "TriPoly":
        """The partial derivative along x, y or z (axis 0, 1 or 2)."""
        res = TriPoly()
        for mono, v in self.terms.items():
            if mono[axis]:
                lower = tuple(e - (a == axis) for a, e in enumerate(mono))
                res.terms[lower] = v * mono[axis]
        return res

    def substitute_affine(self, rows, translation) -> "TriPoly":
        """Substitute (x,y,z) -> (rows[0].(x,y,z)+t0, rows[1]..., rows[2]...).

        rows is the 3x3 matrix applied to the variable vector; translation the
        added constant.  Exact when all inputs are rational.
        """
        lin = []
        for r in range(3):
            t = {}
            for axis, cval in enumerate(rows[r]):
                if cval != 0:
                    t[tuple(1 if a == axis else 0 for a in range(3))] = cval
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
