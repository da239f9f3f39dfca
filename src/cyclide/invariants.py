"""Every named coefficient polynomial: the symmetric abbreviations, the 12
quartic ideal generators, the e=0 reduction, the cubic rational targets, and
the rotational-quadric forms.

Each family of named residuals is a plain {name: value} dict, keyed and
ordered as it is reported (the cubic targets as their cleared (lhs, rhs)
pairs), and `RESIDUAL_WEIGHTS` is the one table of their weighted degrees,
including the residuals `recognizer` and `canonical` build themselves.

A formula written for index 1 is one kernel over a slot tuple (`k_form`,
`l_form`, `m_form`, `_e_numerator`, `_s1`, `_t1`), unpacked once per call;
its index 2 and 3 images are the same kernel on the plain tuples of
`core.sigma_images`.  The symmetric scalars a kernel reads (C0, W1 + 4 f0,
W2 - C0 W1 - 4 E0, B0, W3) are passed in, computed once by its caller."""
from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .core import DarbouxCoefficients, sigma_images
from .errors import NotNormalized, PreconditionError, ZeroCubicPart
from .scalar import Scalar


class InvariantBundle(NamedTuple):
    """Symmetric abbreviations, invariant under all index permutations, as a
    named 7-tuple: `prepare` builds the one bundle of a quartic or cubic
    that every later stage reads (a cubic's canonical form one more, of
    its recentred copy), so it is as cheap to make as `DarbouxCoefficients`."""

    B0: Scalar
    C0: Scalar
    E0: Scalar
    W1: Scalar
    W2: Scalar
    W3: Scalar
    W4: Scalar


def base_invariants(c: DarbouxCoefficients) -> InvariantBundle:
    _, b1, b2, b3, c1, c2, c3, d1, d2, d3, e1, e2, e3, _ = c
    return InvariantBundle(
        B0=b1 * b1 + b2 * b2 + b3 * b3,
        C0=c1 + c2 + c3,
        E0=e1 * e1 + e2 * e2 + e3 * e3,
        W1=c1 * c2 + c1 * c3 + c2 * c3 - d1 * d1 - d2 * d2 - d3 * d3,
        W2=c1 * c2 * c3 + 2 * d1 * d2 * d3 - c1 * d1 * d1 - c2 * d2 * d2 - c3 * d3 * d3,
        W3=b1 * b1 * c1 + b2 * b2 * c2 + b3 * b3 * c3
           + 2 * b2 * b3 * d1 + 2 * b1 * b3 * d2 + 2 * b1 * b2 * d3,
        W4=c1 * e1 * e1 + c2 * e2 * e2 + c3 * e3 * e3
           + 2 * d1 * e2 * e3 + 2 * d2 * e1 * e3 + 2 * d3 * e1 * e2,
    )


def k_form(s) -> Scalar:
    """K1 = (c3-c2)e2e3 + d1(e2^2-e3^2) + (d2e2-d3e3)e1 at the 14 slots s."""
    _, _, _, _, _, c2, c3, d1, d2, d3, e1, e2, e3, _ = s
    return (c3 - c2) * e2 * e3 + d1 * (e2 * e2 - e3 * e3) + (d2 * e2 - d3 * e3) * e1


def l_form(s, C0: Scalar, w14: Scalar) -> Scalar:
    """L1 at the 14 slots s, with the symmetric C0 and w14 = W1 + 4 f0 of
    base_invariants(c), c being s or any sigma-image of it."""
    _, _, _, _, _, c2, c3, d1, d2, d3, e1, e2, e3, _ = s
    return ((w14 - (c2 + c3) ** 2 - d2 * d2 - d3 * d3) * e1
            + (C0 * d3 + c3 * d3 - d1 * d2) * e2
            + (C0 * d2 + c2 * d2 - d1 * d3) * e3)


def m_form(s, w14: Scalar, h: Scalar) -> Scalar:
    """M1 = 2(c1e1+d3e2+d2e3)(W1+4f0) + e1(W2 - C0 W1 - 4 E0) at the 14
    slots s, with the symmetric w14 = W1 + 4 f0 and h = W2 - C0 W1 - 4 E0."""
    _, _, _, _, c1, _, _, _, d2, d3, e1, e2, e3, _ = s
    return 2 * (c1 * e1 + d3 * e2 + d2 * e3) * w14 + e1 * h


def lm_scalars(c: DarbouxCoefficients, inv: InvariantBundle
               ) -> Tuple[Scalar, Scalar, Scalar]:
    """(C0, W1 + 4 f0, W2 - C0 W1 - 4 E0): the symmetric scalars `l_form`
    and `m_form` read, from inv = base_invariants(c)."""
    return inv.C0, inv.W1 + 4 * c.f0, inv.W2 - inv.C0 * inv.W1 - 4 * inv.E0


# weighted degree of every named residual, under the slot weights of
# `core.SLOT_WEIGHTS`; every residual is weighted-homogeneous
RESIDUAL_WEIGHTS = {
    # the 12 generators of the quartic ideal (`quartic_generators`)
    "K1": 8, "K2": 8, "K3": 8, "L1": 7, "L2": 7, "L3": 7,
    "M1": 9, "M2": 9, "M3": 9, "N1": 8, "N2": 10, "N3": 12,
    # the e = 0 strata (d), (e), (f) of the case logic
    "W1+4f0": 4, "W2-C0W1": 6, "Y0": 8, "Y1": 8,
    "W1+3f0": 4, "(W2-C0W1)^2-4f0^3": 12,
    # the cleared cubic equalities (`cubic_forms`)
    "4e1*B0^3-P1": 9, "4e2*B0^3-P2": 9, "4e3*B0^3-P3": 9, "4f0*B0^4-Q": 12,
    # the rotational-quadric forms and det Phat (`quadric_forms`)
    **dict.fromkeys(("S0", "S1", "S12", "S13", "T1", "T12", "T13"), 6),
    "detPhat": 10,
    # the A1 system and the spectral closure of `canonical` (A_i weigh 2)
    "G1": 5, "G2": 5, "G3": 5, "H1": 6, "H2": 6, "H3": 4, "charpoly": 6,
    "Dsq-4E0": 6, "F-f0": 4, "sym1": 2, "sym2": 4, "sym3": 6,
}


def _require_normalized(c: DarbouxCoefficients):
    if c[0] != 1 or c[1] != 0 or c[2] != 0 or c[3] != 0:
        raise NotNormalized("requires a0 = 1 and b = 0 (run normalize_quartic)")


def quartic_generators(c: DarbouxCoefficients) -> Dict[str, Scalar]:
    """The 12 generators K1..N3 at a normalized quartic c, by name: K, L and
    M on the sigma-images of c, every L and M with the symmetric scalars of
    the one bundle of c (it is sigma-invariant), and the symmetric N1, N2,
    N3.  All twelve vanish exactly when the surface is a Dupin cyclide."""
    _require_normalized(c)
    inv = base_invariants(c)
    C0, w14, h = lm_scalars(c, inv)
    s1, s2, s3 = sigma_images(c)
    n1, n2, n3 = _n_forms(c, inv)
    return {"K1": k_form(s1), "K2": k_form(s2), "K3": k_form(s3),
            "L1": l_form(s1, C0, w14), "L2": l_form(s2, C0, w14),
            "L3": l_form(s3, C0, w14), "M1": m_form(s1, w14, h),
            "M2": m_form(s2, w14, h), "M3": m_form(s3, w14, h),
            "N1": n1, "N2": n2, "N3": n3}


def quartic_generators_vanish(c: DarbouxCoefficients, inv: InvariantBundle) -> bool:
    """True iff all 12 generators of `quartic_generators` are exactly zero
    at the normalized exact quartic c, decided lazily: the symmetric N1, N2,
    N3 first, from inv = base_invariants(c) alone, then K, L and M on the
    sigma-images only when every N vanishes; it stops at the first nonzero
    generator.  N leads because K, L and M are linear in e, so at e = 0 only
    N can be nonzero."""
    _require_normalized(c)
    if any(_n_forms(c, inv)):
        return False
    C0, w14, h = lm_scalars(c, inv)
    for s in sigma_images(c):
        if k_form(s) or l_form(s, C0, w14) or m_form(s, w14, h):
            return False
    return True


def _n_forms(c: DarbouxCoefficients, inv: InvariantBundle):
    """(N1, N2, N3), lazily: a generator that yields each in turn, so a
    caller that stops at a nonzero N1 computes neither N2 nor N3."""
    w14 = inv.W1 + 4 * c.f0
    yield ((4 * inv.W1 + 12 * c.f0 - 3 * inv.C0 ** 2) * w14
           - 2 * inv.C0 * (inv.W2 - inv.C0 * inv.W1 - 6 * inv.E0) - 4 * inv.W4)
    big = inv.W2 + inv.C0 * inv.W1 + 8 * inv.C0 * c.f0 - 4 * inv.E0
    yield 4 * (inv.W2 - inv.C0 * inv.W1 - 2 * inv.E0) * w14 + (inv.C0 ** 2 - 4 * c.f0) * big
    yield big * big - 4 * w14 ** 3


def reduced_generators_e0(c: DarbouxCoefficients, inv: InvariantBundle
                          ) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
    """(Y0, Y1, Y2, Y3) of the e = 0 reduction; precondition e1 = e2 = e3 = 0.
    Only C0, W1 and W2 of inv are read, so the bundle of c with any e serves."""
    if any(v != 0 for v in c.e):
        raise PreconditionError("Y reduction requires e1 = e2 = e3 = 0")
    C0, W1, W2, f0 = inv.C0, inv.W1, inv.W2, c.f0
    w14 = W1 + 4 * f0
    y0 = (4 * W1 + 12 * f0 - C0 ** 2) ** 2 - 16 * f0 * C0 ** 2
    y1 = (4 * W1 + 12 * f0 - 3 * C0 ** 2) * w14 - 2 * C0 * (W2 - C0 * W1)
    y2 = (W2 - C0 * W1) * (C0 ** 2 - 4 * W1 - 4 * f0) - 8 * W2 * w14
    y3 = (C0 * W1 + 9 * W2) ** 2 - 4 * W1 ** 3 - 4 * W2 * (C0 ** 3 + 27 * W2)
    return (y0, y1, y2, y3)


def _e_numerator(s, B0: Scalar, W3: Scalar) -> Scalar:
    """B0^3 * E1 as a polynomial (division-free) at the 14 slots s; B0 and
    W3 are symmetric, so the bundle of c serves every sigma-image of c."""
    _, b1, b2, b3, c1, c2, c3, d1, d2, d3, _, _, _, _ = s
    return (-b1 * (W3 - B0 * (c2 + c3)) ** 2
            + 2 * b1 * b1 * B0 * (b3 * c3 * d2 + b2 * c2 * d3)
            - 4 * b1 * B0 * (b3 * d2 + b2 * d3) ** 2
            + 2 * B0 * (b3 * d2 + b2 * d3) * (b2 * b2 * c1 + b3 * b3 * c1 - 2 * b2 * b3 * d1)
            - 2 * b2 * b3 * B0 * (c2 - c3) * (b2 * d2 - b3 * d3)
            + b1 * B0 * B0 * ((c1 - c2) * (c1 - c3) - d1 * d1 + d2 * d2 + d3 * d3)
            + 2 * d1 * B0 * B0 * (b2 * d2 + b3 * d3))


def cubic_forms(c: DarbouxCoefficients,
                inv: InvariantBundle) -> Dict[str, Tuple[Scalar, Scalar]]:
    """Rational targets that cut out Dupin cyclides among cubics: the
    surface is Dupin iff 4*e_i = P_i/B0^3 (i = 1,2,3) and f0 = Q/(4*B0^4).
    Each equality is kept cleared of its B0 power, as the pair (lhs, rhs) =
    (4*e_i*B0^3, P_i) or (4*f0*B0^4, Q), so no division is made; the pairs
    are keyed by the name of their residual lhs - rhs.  P1 is taken on the
    sigma-images of c for P2, P3; inv = base_invariants(c)."""
    if c.a0 != 0:
        raise PreconditionError("cubic forms require a0 = 0")
    if inv.B0 == 0:
        raise ZeroCubicPart("B0 = 0: no cubic part")
    B0 = inv.B0
    p1, p2, p3 = (_e_numerator(s, B0, inv.W3) for s in sigma_images(c))
    q = (inv.W3 * (inv.W3 - B0 * inv.C0) ** 2 + B0 * B0 * inv.W3 * inv.W1
         + B0 ** 3 * (inv.W2 - inv.C0 * inv.W1))
    B3 = B0 ** 3
    B4 = B3 * B0
    return {"4e1*B0^3-P1": (4 * c.e1 * B3, p1), "4e2*B0^3-P2": (4 * c.e2 * B3, p2),
            "4e3*B0^3-P3": (4 * c.e3 * B3, p3), "4f0*B0^4-Q": (4 * c.f0 * B4, q)}


def _s1(s) -> Scalar:
    _, _, _, _, c1, c2, c3, d1, d2, d3, _, _, _, _ = s
    return (d1 * (d2 * d2 + d3 * d3 - 2 * d1 * d1)
            + (c2 + c3 - 2 * c1) * d2 * d3 + 2 * (c2 - c1) * (c3 - c1) * d1)


def _t1(s) -> Scalar:
    _, _, _, _, _, c2, c3, d1, d2, d3, _, _, _, _ = s
    return d1 * (d2 * d2 - d3 * d3) + (c2 - c3) * d2 * d3


def quadric_forms(c: DarbouxCoefficients) -> Dict[str, Scalar]:
    """The seven cubic forms that cut out rotational quadrics, by name (the
    symmetric S0, then S1, T1 and their sigma12, sigma13 images), and det of
    the extended 4x4 symmetric matrix, "detPhat" (zero when the quadric is
    singular)."""
    if c.a0 != 0 or any(v != 0 for v in c.b):
        raise PreconditionError("quadric forms require a0 = 0 and b = 0")
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    e1, e2, e3 = c.e
    s0 = ((c3 - c2) * d1 * d1 + (c1 - c3) * d2 * d2 + (c2 - c1) * d3 * d3
          + (c1 - c2) * (c1 - c3) * (c2 - c3))
    images = sigma_images(c)
    s1, s12, s13 = map(_s1, images)
    t1, t12, t13 = map(_t1, images)
    # 4x4 determinant of [[c1,d3,d2,e1],[d3,c2,d1,e2],[d2,d1,c3,e3],[e1,e2,e3,f0]]
    m = ((c1, d3, d2, e1), (d3, c2, d1, e2), (d2, d1, c3, e3), (e1, e2, e3, c.f0))
    return {"S0": s0, "S1": s1, "S12": s12, "S13": s13,
            "T1": t1, "T12": t12, "T13": t13, "detPhat": _det4(m)}


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _det4(m):
    total = 0
    sign = 1
    for col in range(4):
        minor = [[m[r][cc] for cc in range(4) if cc != col] for r in range(1, 4)]
        total = total + sign * m[0][col] * _det3(minor)
        sign = -sign
    return total
