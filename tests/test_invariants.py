"""Named polynomials: anchor values, the independent elimination-based
evaluation path, syzygies and weighted homogeneity.

The second evaluation route builds every generator from the eigenvalue
system {G1,G2,G3,H1,H2,H3} by 2x2 resultants and division combinations, so a
transcription slip in either route breaks the agreement tests.
"""
from fractions import Fraction

import pytest

from conftest import CUBIC22, TORUS21, rand_fraction, random_coefficients
from cyclide import (DarbouxCoefficients, base_invariants, cubic_forms, quadric_forms,
                     quartic_generators, reduced_generators_e0, weighted_rescale)
from cyclide.errors import NotNormalized, PreconditionError, ZeroCubicPart
from cyclide.invariants import RESIDUAL_WEIGHTS
from sigma_orbit import SIGMA12, SIGMA13, apply_permutation


def normalized_random(rng, with_e=True):
    c = random_coefficients(rng, a0=1, with_b=False, with_e=with_e)
    return c


# --- independent evaluation path: the eigenvalue-system eliminations -------

def _gh_system(c, a1):
    inv = base_invariants(c)
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    e1, e2, e3 = c.e
    g = (
        -e1 * a1 + c1 * e1 + d3 * e2 + d2 * e3,
        -e2 * a1 + d3 * e1 + c2 * e2 + d1 * e3,
        -e3 * a1 + d2 * e1 + d1 * e2 + c3 * e3,
    )
    h1 = 2 * (inv.W1 + 4 * c.f0) * a1 + inv.W2 - inv.C0 * inv.W1 - 4 * inv.E0
    h2 = ((inv.C0 ** 2 + 4 * inv.W1 + 12 * c.f0) * a1
          - inv.C0 ** 3 + 4 * inv.C0 * c.f0 - 4 * inv.E0)
    h3 = a1 * a1 - 2 * inv.C0 * a1 + inv.C0 ** 2 - inv.W1 - 4 * c.f0
    return g, h1, h2, h3


def _linear_parts(c):
    """(G_i, H_1, H_2) as (slope, intercept) pairs in the eigenvalue variable."""
    zero, one = Fraction(0), Fraction(1)
    g0, h10, h20, _ = _gh_system(c, zero)
    g1, h11, h21, _ = _gh_system(c, one)
    gs = [(gi1 - gi0, gi0) for gi0, gi1 in zip(g0, g1)]
    return gs, (h11 - h10, h10), (h21 - h20, h20)


def _res2(lin_a, lin_b):
    """Resultant of two linear polynomials (a1*X + a0, b1*X + b0)."""
    (a1, a0), (b1, b0) = lin_a, lin_b
    return a1 * b0 - b1 * a0


def generators_via_eliminations(c, rng):
    """K, L, M, N rebuilt from the printed eliminations; independent of the
    closed forms used by the library."""
    gs, h1, h2 = _linear_parts(c)

    def sig(perm):
        return _linear_parts(apply_permutation(c, perm))

    out = {}
    out["K1"] = -_res2(gs[1], gs[2])
    out["K2"] = -_res2(gs[0], gs[2])
    out["K3"] = _res2(gs[0], gs[1])

    def l_comb(cc):
        # -e1 H3 + (c1+2c2+2c3-A1) G1 - d3 G2 - d2 G3, A1-independent
        a1 = rand_fraction(rng)
        g, _, _, h3 = _gh_system(cc, a1)
        return (-cc.e1 * h3 + (cc.c1 + 2 * cc.c2 + 2 * cc.c3 - a1) * g[0]
                - cc.d3 * g[1] - cc.d2 * g[2])

    out["L1"] = l_comb(c)
    out["L2"] = l_comb(apply_permutation(c, SIGMA12))
    out["L3"] = l_comb(apply_permutation(c, SIGMA13))

    out["M1"] = _res2(h1, gs[0])
    out["M2"] = _res2(h1, gs[1])
    out["M3"] = _res2(h1, gs[2])

    a1 = rand_fraction(rng)
    g, h1v, h2v, h3v = _gh_system(c, a1)
    inv = base_invariants(c)
    out["N1"] = (-(inv.C0 ** 2 + 4 * inv.W1 + 12 * c.f0) * h3v + a1 * h2v
                 - inv.C0 * (h2v + 2 * h1v)
                 - 4 * c.e1 * g[0] - 4 * c.e2 * g[1] - 4 * c.e3 * g[2])
    out["N2"] = -_res2(h1, h2)
    # Res of linear h1 = (a,b) with monic quadratic X^2 - 2 C0 X + (C0^2-W1-4f0)
    a, b = h1
    p_lin, q_const = -2 * inv.C0, inv.C0 ** 2 - inv.W1 - 4 * c.f0
    out["N3"] = a * a * q_const - a * b * p_lin + b * b
    return out


class TestBaseInvariants:
    def test_torus_anchor(self):
        # oracle: the closed torus formulas at R=2, r=1
        R2, r2 = Fraction(4), Fraction(1)
        inv = base_invariants(TORUS21)
        assert inv.C0 == -2 * R2 - 6 * r2 == -14
        assert inv.W1 == 4 * (R2 + r2) * (3 * r2 - R2) == -20
        assert inv.W2 == 8 * (R2 + r2) ** 2 * (R2 - r2) == 600
        assert inv.E0 == 0 and inv.B0 == 0

    def test_all_zero(self):
        inv = base_invariants(DarbouxCoefficients.make())
        assert all(v == 0 for v in (inv.B0, inv.C0, inv.E0, inv.W1, inv.W2,
                                    inv.W3, inv.W4))

    def test_single_terms(self):
        c = DarbouxCoefficients.make(a0=1, c=(1, 0, 0), e=(1, 0, 0))
        inv = base_invariants(c)
        assert (inv.C0, inv.E0, inv.W1, inv.W2, inv.W4) == (1, 1, 0, 0, 1)

    def test_permutation_symmetry(self, rng):
        for _ in range(20):
            c = random_coefficients(rng, with_b=True)
            inv = base_invariants(c)
            for perm in (SIGMA12, SIGMA13):
                assert base_invariants(apply_permutation(c, perm)) == inv


class TestQuarticGenerators:
    def test_torus_all_vanish(self):
        assert all(v == 0 for v in quartic_generators(TORUS21).values())

    def test_single_term_witnesses(self):
        c = DarbouxCoefficients.make(a0=1, c=(1, 0, 0), e=(1, 0, 0))
        g = quartic_generators(c)
        assert g["M1"] == -4 and g["N1"] == 8
        assert g["K1"] == g["K2"] == g["K3"] == 0
        assert g["L1"] == g["L2"] == g["L3"] == 0

    def test_zero_surface(self):
        assert all(v == 0 for v in quartic_generators(DarbouxCoefficients.make(a0=1)).values())

    def test_requires_normalized(self):
        with pytest.raises(NotNormalized):
            quartic_generators(DarbouxCoefficients.make(a0=2, c=(1, 1, 1)))
        with pytest.raises(NotNormalized):
            quartic_generators(DarbouxCoefficients.make(a0=1, b=(1, 0, 0)))

    def test_elimination_route_agrees(self, rng):
        for _ in range(100):
            c = normalized_random(rng)
            direct = quartic_generators(c)
            other = generators_via_eliminations(c, rng)
            assert direct == other

    def test_weighted_homogeneity(self, rng):
        for _ in range(100):
            c = normalized_random(rng)
            lam = rand_fraction(rng, 1, 5, 3)
            scaled = weighted_rescale(c, lam)
            g = quartic_generators(c)
            gs = quartic_generators(scaled)
            for name, v in g.items():
                assert gs[name] == lam ** RESIDUAL_WEIGHTS[name] * v, name


class TestSyzygies:
    """The displayed syzygies hold with K2, K3 negated relative to the
    sigma-image convention (ledgered sign slip); all verified symbolically
    and re-checked here on random rational tuples."""

    def test_kl_and_m_syzygies(self, rng):
        for _ in range(100):
            c = normalized_random(rng)
            g = quartic_generators(c)
            e1, e2, e3 = c.e
            c1, c2, c3 = c.c
            d1, d2, d3 = c.d
            K1, K2, K3 = g["K1"], -g["K2"], -g["K3"]
            L1, L2, L3 = g["L1"], g["L2"], g["L3"]
            assert e1 * K1 + e2 * K2 + e3 * K3 == 0
            assert e1 * L2 - e2 * L1 == d2 * K1 + d1 * K2 + (c1 + c2 + 2 * c3) * K3
            assert e3 * L1 - e1 * L3 == d3 * K1 + d1 * K3 + (c1 + 2 * c2 + c3) * K2
            assert e2 * L3 - e3 * L2 == d3 * K2 + d2 * K3 + (2 * c1 + c2 + c3) * K1
            assert 2 * e1 * g["M2"] - 2 * e2 * g["M1"] == (
                (c2 * d2 - c3 * d2 - 2 * d1 * d3) * K1
                - (2 * c2 * d1 + 2 * c3 * d1 + d2 * d3) * K2
                - (2 * c3 ** 2 + 2 * d1 ** 2 + d2 ** 2 - 8 * c.f0) * K3
                + 2 * (d3 * e1 - c1 * e2 - c3 * e2 + d1 * e3) * L1
                + (2 * c2 * e1 + 2 * c3 * e1 - 2 * d3 * e2 - d2 * e3) * L2
                - d2 * e2 * L3)

    def test_y_syzygies(self, rng):
        for _ in range(100):
            c = normalized_random(rng, with_e=False)
            inv = base_invariants(c)
            C0, W1, W2, f0 = inv.C0, inv.W1, inv.W2, c.f0
            y0, y1, y2, y3 = reduced_generators_e0(c, inv)
            assert -2 * C0 * y2 == 3 * y0 * (W1 + 4 * f0) + (C0 ** 2 - 12 * W1 - 36 * f0) * y1
            # displayed with "-8 W3"; the b-free reduction ring forces +8 W2
            assert -2 * C0 * y3 == (W2 - C0 * W1 + 8 * W2) * (y0 - 3 * y1) \
                - (C0 ** 2 - 3 * W1) * y2
            # N reductions at e = 0: Y0*(W1+4f0) membership combination
            g = quartic_generators(c)
            assert y0 * (W1 + 4 * f0) == (C0 ** 2 + 4 * W1 + 12 * f0) * g["N1"] \
                + 2 * C0 * g["N2"]
            # the W1+4f0 = 0 tracking syzygy; the displayed "W3" term is
            # -W2 - 2*C0*f0 in the b-free ring
            assert (W2 - C0 * W1) ** 2 == g["N3"] + 4 * (
                (W1 + 4 * f0) ** 2 + C0 * (-W2 - 2 * C0 * f0)
                - 2 * C0 ** 2 * f0) * (W1 + 4 * f0)

    def test_n1_two_ways(self, rng):
        # direct form vs the H,G combination at a random eigenvalue sample
        for _ in range(50):
            c = normalized_random(rng)
            direct = quartic_generators(c)["N1"]
            other = generators_via_eliminations(c, rng)["N1"]
            assert direct == other


class TestReducedE0:
    def test_torus(self):
        y0, y1, _, _ = reduced_generators_e0(TORUS21, base_invariants(TORUS21))
        assert y0 == 0 and y1 == 0
        # arithmetic oracle: (4*(-20)+108-196)^2 - 16*9*196 = 28224 - 28224
        assert (4 * -20 + 12 * 9 - (-14) ** 2) ** 2 == 16 * 9 * 196

    def test_double_sphere(self):
        c = DarbouxCoefficients.make(a0=1, c=(-2, -2, -2), f0=1)
        y0, y1, _, _ = reduced_generators_e0(c, base_invariants(c))
        assert y0 == 0 and y1 == 0

    def test_zeros(self):
        c = DarbouxCoefficients.make(a0=1)
        assert reduced_generators_e0(c, base_invariants(c)) == (0, 0, 0, 0)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            c = DarbouxCoefficients.make(a0=1, e=(1, 0, 0))
            reduced_generators_e0(c, base_invariants(c))


def targets(c):
    return cubic_forms(c, base_invariants(c))


def residuals(pairs):
    return tuple(lhs - rhs for lhs, rhs in pairs.values())


class TestCubicForms:
    def test_cubic22(self):
        assert residuals(targets(CUBIC22)) == (0, 0, 0, 0)
        # with e1 = 0 the first pair shows the target 4 e1 = P1 / B0^3 = -4
        t = targets(CUBIC22.replace(e1=Fraction(0)))
        assert t["4e1*B0^3-P1"] == (0, -4) and residuals(t)[1:] == (0, 0, 0)

    def test_all_c_d_zero(self):
        c = DarbouxCoefficients.make(a0=0, b=(1, 0, 0))
        assert tuple(targets(c).values()) == ((0, 0),) * 4

    def test_homogeneity(self, rng):
        # weighted degrees 9, 9, 9, 12; projective degrees 7, 7, 7, 9
        for _ in range(30):
            c = random_coefficients(rng, a0=0, with_b=True)
            if base_invariants(c).B0 == 0:
                continue
            t = targets(c)
            lam = rand_fraction(rng, 1, 4, 3)
            tw = targets(weighted_rescale(c, lam))
            tp = targets(c.scale(Fraction(3)))
            for r, rw, rp, w, d in zip(residuals(t), residuals(tw), residuals(tp),
                                       (9, 9, 9, 12), (7, 7, 7, 9)):
                assert rw == lam ** w * r and rp == 3 ** d * r

    def test_zero_cubic_part(self):
        with pytest.raises(ZeroCubicPart):
            targets(DarbouxCoefficients.make(a0=0, c=(1, 2, 3)))


class TestQuadricForms:
    def test_rotational_cone(self):
        c = DarbouxCoefficients.make(a0=0, c=(1, 1, 2))
        q = quadric_forms(c)
        assert all(v == 0 for v in q.values())

    def test_non_rotational(self):
        c = DarbouxCoefficients.make(a0=0, c=(1, 2, 3), f0=1)
        q = quadric_forms(c)
        assert q["S0"] == -2

    def test_zeros(self):
        q = quadric_forms(DarbouxCoefficients.make(a0=0))
        assert all(v == 0 for v in q.values())

    def test_discriminant_sum_of_squares(self, rng):
        # disc of X^3 - C0 X^2 + W1 X - W2 equals the printed sum of squares
        for _ in range(50):
            c = random_coefficients(rng, a0=0, with_e=False)
            inv = base_invariants(c)
            b, cc, d = -inv.C0, inv.W1, -inv.W2
            disc = (18 * b * cc * d - 4 * b ** 3 * d + b ** 2 * cc ** 2
                    - 4 * cc ** 3 - 27 * d ** 2)
            q = quadric_forms(c.replace(e1=Fraction(0), e2=Fraction(0),
                                        e3=Fraction(0), f0=Fraction(0)))
            sos = (q["S0"] ** 2 + q["S1"] ** 2 + q["S12"] ** 2 + q["S13"] ** 2
                   + 15 * (q["T1"] ** 2 + q["T12"] ** 2 + q["T13"] ** 2))
            assert disc == sos
