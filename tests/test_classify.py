"""Real-point taxonomy and the Moebius invariant J0."""
import math
import random
from fractions import Fraction

import pytest

from conftest import CUBIC22, TORUS21, rand_fraction
from cyclide import (DarbouxCoefficients, EuclideanMotion, SurfaceClass,
                     apply_motion, classify_cubic, classify_quartic, j0_cubic,
                     j0_quartic, prepare, spectral_data,
                     weighted_rescale, willmore_energy)
from cyclide.canonical import CanonicalQuartic, SpectralData
from cyclide.classify import J0Value
from cyclide.genkit import (generate_cubic_dupin, generate_quartic_dupin,
                            random_motion, random_quartic_seed)
from cyclide.pipeline import analyze
from tripoly import polynomial_from_coefficients


def j0_of(c, pol):
    """J0 of a quartic through its prepared form and spectral data."""
    prep = prepare(c, pol)
    return j0_quartic(prep, spectral_data(prep))


def spectral_from_triple(a1, a2, a3):
    f = Fraction
    a1, a2, a3 = f(a1), f(a2), f(a3)
    dsq = -(a2 + a3) * (a1 - a2) * (a1 - a3)
    fv = (a2 * a2 + a3 * a3 + a2 * a3 - a1 * a2 - a1 * a3) / 4
    return SpectralData(A1=a1, A2=a2, A3=a3, Dsq=dsq, F=fv)


class TestClassifyQuartic:
    def test_torus_smooth(self, pol):
        assert classify_quartic(spectral_from_triple(-10, -10, 6), pol) \
            == SurfaceClass.SMOOTH_RING

    def test_origin_point(self, pol):
        assert classify_quartic(spectral_from_triple(0, 0, 0), pol) \
            == SurfaceClass.ONE_POINT

    def test_double_sphere(self, pol):
        assert classify_quartic(spectral_from_triple(-2, -2, -2), pol) \
            == SurfaceClass.DOUBLE_SPHERE

    def test_swap_invariance(self, pol, rng):
        for _ in range(40):
            c = generate_quartic_dupin(random_quartic_seed(rng))
            sd = spectral_data(prepare(c, pol))
            swapped = SpectralData(sd.A1, sd.A3, sd.A2, sd.Dsq, sd.F)
            assert classify_quartic(sd, pol) == classify_quartic(swapped, pol)

    @pytest.mark.parametrize("squares,label", [
        ((4, 1, 2), SurfaceClass.SMOOTH_RING),
        ((1, 0, 4), SurfaceClass.SPINDLE),   # u > max
        ((9, 4, 1), SurfaceClass.SPINDLE),   # u < min
        ((4, 0, 4), SurfaceClass.HORN),      # horn torus edge
        ((4, 1, 4), SurfaceClass.HORN),
        ((4, 1, 1), SurfaceClass.HORN),      # u = min > 0
        ((1, 1, 4), SurfaceClass.TWO_TOUCHING_SPHERES),
        ((1, 1, 1), SurfaceClass.SPHERE_AND_POINT),
        ((0, 0, 1), SurfaceClass.DOUBLE_SPHERE),
        ((4, 0, 0), SurfaceClass.CIRCLE),
        ((-1, -1, 4), SurfaceClass.ONE_POINT),   # ledgered gap case
        ((4, -1, -1), SurfaceClass.ONE_POINT),   # u = min < 0
        ((4, -9, -1), SurfaceClass.TWO_POINTS),
        ((-1, -2, 5), SurfaceClass.TWO_POINTS),
        ((4, -1, -9), SurfaceClass.NO_REAL_POINTS),
        ((0, 0, -1), SurfaceClass.NO_REAL_POINTS),
    ])
    def test_parameter_regions(self, pol, squares, label):
        s, t, u = (Fraction(v) for v in squares)
        a1 = -2 * (s + t + u)
        lo, hi = sorted((2 * (t - s - u), 2 * (s - t - u)))
        assert classify_quartic(spectral_from_triple(a1, lo, hi), pol) == label

    def test_matches_real_point_count_oracle(self, pol):
        # the ledgered one-point gap: c = (-4,-8,-8), e1 = -8, f0 = 32 has the
        # single real point (2,0,0)
        c = DarbouxCoefficients.make(a0=1, c=(-4, -8, -8), e=(-8, 0, 0), f0=32)
        sd = spectral_data(prepare(c, pol))
        assert classify_quartic(sd, pol) == SurfaceClass.ONE_POINT
        # direct check that (2,0,0) and nothing near it solves the equation
        poly = polynomial_from_coefficients(c)
        assert poly.evaluate((Fraction(2), Fraction(0), Fraction(0))) == 0


class TestClassifyCubic:
    def test_smooth(self, pol):
        assert classify_cubic(Fraction(-2), Fraction(2), pol) == SurfaceClass.SMOOTH_RING

    def test_horn(self, pol):
        assert classify_cubic(Fraction(0), Fraction(3), pol) == SurfaceClass.HORN

    def test_sphere_tangent_plane(self, pol):
        assert classify_cubic(Fraction(1), Fraction(1), pol) \
            == SurfaceClass.SPHERE_TANGENT_PLANE

    def test_spindle_and_plane_point(self, pol):
        assert classify_cubic(Fraction(1), Fraction(2), pol) == SurfaceClass.SPINDLE
        assert classify_cubic(Fraction(0), Fraction(0), pol) \
            == SurfaceClass.PLANE_AND_POINT

    def test_float_product_within_tolerance_is_zero(self, fpol):
        # p q = 1e-10 is zero at tau = 1e-9 while p = q = 1e-5 is not
        assert classify_cubic(1e-5, 1e-5, fpol) == SurfaceClass.SPHERE_TANGENT_PLANE

    def test_float_class_matches_exact_on_generated_cubics(self, pol, fpol):
        # the pairs p = q, p = 0, q = -p and a generic one, randomly moved,
        # with every coefficient times 10^k for k in -6..6
        rng = random.Random(17)
        wrong = []
        for i in range(78):
            v, w = rand_fraction(rng), rand_fraction(rng)
            k = Fraction(10) ** (i % 13 - 6)
            for pair in ((v, v), (0, v), (v, -v), (v, w)):
                c = generate_cubic_dupin(*pair, random_motion(rng)).scale(k)
                want = analyze(c, pol)["class"]
                got = analyze(c.to_float(), fpol).get("class")
                if got != want:
                    wrong.append((pair, k, want, got))
        assert wrong == []


class TestJ0Quartic:
    def test_torus_3_16(self, pol):
        j = j0_of(TORUS21, pol)
        assert j.kind == "finite" and j.value == Fraction(3, 16)
        # oracle: (r^2/R^2)(1 - r^2/R^2) at r=1, R=2
        assert Fraction(1, 4) * Fraction(3, 4) == Fraction(3, 16)

    def test_double_sphere_minus_inf(self, pol):
        j = j0_of(DarbouxCoefficients.make(a0=1, c=(-2, -2, -2), f0=1), pol)
        assert j.kind == "minus_infinity"

    def test_horn_torus_zero(self, pol):
        j = j0_of(DarbouxCoefficients.make(a0=1, c=(-4, -4, 0), f0=0), pol)
        assert j.kind == "finite" and j.value == 0

    def test_sphere_and_point_undefined(self, pol):
        j = j0_of(CanonicalQuartic(1, 1, 1, 1).coefficients(), pol)
        assert j.kind == "undefined"

    def test_three_formulas_agree_smooth(self, pol, rng):
        for _ in range(60):
            seed = random_quartic_seed(rng, smooth=True)
            # raises FormulaDisagreement on mismatch
            j = j0_of(generate_quartic_dupin(seed), pol)
            assert j.kind == "finite" and 0 < j.value <= Fraction(1, 4)

    def test_moebius_invariance(self, pol, rng):
        for _ in range(15):
            seed = random_quartic_seed(rng, smooth=True)
            c = generate_quartic_dupin(seed)
            base = j0_of(c, pol)
            j_m = j0_of(apply_motion(c, random_motion(rng)), pol)
            j_s = j0_of(weighted_rescale(c, rand_fraction(rng, 1, 4, 2)), pol)
            assert base.value == j_m.value == j_s.value

    def test_class_j0_annotations(self, pol, rng):
        for _ in range(60):
            seed = random_quartic_seed(rng)
            prep = prepare(generate_quartic_dupin(seed), pol)
            sd = spectral_data(prep)
            label = classify_quartic(sd, pol)
            j = j0_quartic(prep, sd)
            if label == SurfaceClass.SMOOTH_RING:
                assert j.kind == "finite" and 0 < j.value <= Fraction(1, 4)
            elif label == SurfaceClass.SPINDLE:
                assert j.kind == "finite" and j.value < 0
            elif label in (SurfaceClass.HORN, SurfaceClass.CIRCLE):
                assert j.kind == "finite" and j.value == 0
            elif label in (SurfaceClass.DOUBLE_SPHERE,
                           SurfaceClass.TWO_TOUCHING_SPHERES):
                assert j.kind == "minus_infinity"


class TestJ0Cubic:
    def test_cubic22(self, pol):
        j = j0_cubic(prepare(CUBIC22, pol))
        assert j.kind == "finite" and j.value == Fraction(1, 4)

    def test_horn_cubic(self, pol):
        c = generate_cubic_dupin(0, 3, EuclideanMotion.identity())
        j = j0_cubic(prepare(c, pol))
        assert j.kind == "finite" and j.value == 0

    def test_projective_scale(self, pol):
        j = j0_cubic(prepare(CUBIC22.scale(Fraction(5)), pol))
        assert j.value == Fraction(1, 4)

    def test_pq_formula_oracle(self, pol, rng):
        # J0 = -pq/(p-q)^2 for the canonical parabolic family
        for _ in range(25):
            p = rand_fraction(rng, -4, 4, 3)
            q = rand_fraction(rng, -4, 4, 3)
            c = generate_cubic_dupin(p, q, random_motion(rng))
            j = j0_cubic(prepare(c, pol))
            if p == q:
                if p == 0:
                    assert j.kind == "undefined"
                else:
                    assert j.kind == "minus_infinity"
            else:
                assert j.value == -p * q / (p - q) ** 2


class TestWillmore:
    def test_maximum(self, pol):
        assert willmore_energy(J0Value.finite(Fraction(1, 4)), pol) \
            == pytest.approx(2 * math.pi ** 2)

    def test_torus_value(self, pol):
        got = willmore_energy(J0Value.finite(Fraction(3, 16)), pol)
        assert got == pytest.approx(4 * math.pi ** 2 / math.sqrt(3), rel=1e-12)

    def test_not_applicable(self, pol):
        assert willmore_energy(J0Value.minus_infinity(), pol) is None
        assert willmore_energy(J0Value.undefined(), pol) is None
        assert willmore_energy(J0Value.finite(Fraction(-1, 2)), pol) is None
        assert willmore_energy(J0Value.finite(Fraction(0)), pol) is None

    def test_float_zero_within_tolerance(self, fpol):
        # J0 is scale-free: a float J0 of rounding size is J0 = 0
        assert willmore_energy(J0Value.finite(2e-16), fpol) is None
        assert willmore_energy(J0Value.finite(1e-9), fpol) is None
        assert willmore_energy(J0Value.finite(2e-9), fpol) \
            == pytest.approx(math.pi ** 2 / math.sqrt(2e-9))

    def test_float_agrees_with_exact_on_a_j0_zero_cubic(self, pol, fpol):
        # the (p, q) = (-3, 0) horn cubic of `cyclide generate --seed 7`,
        # row 27: J0 = 0 exactly, and float J0 is rounding noise about 0
        f = Fraction
        c = DarbouxCoefficients.make(
            a0=0, b=(f(6, 11), f(-6, 11), f(-7, 11)),
            c=(f(375, 121), f(12, 121), f(339, 121)),
            d=(f(135, 121), f(-14, 121), f(-12, 121)),
            e=(f(3, 22), f(-3, 22), f(-7, 44)))
        exact = analyze(c, pol)
        assert (exact["class"], exact["J0"], exact["willmore"]) == ("H", 0, None)
        got = analyze(c.to_float(), fpol)
        assert got["class"] == "H" and abs(got["J0"]) <= 1e-9
        assert got["willmore"] is None
