"""Generator soundness, coverage, rejection and surface sampling."""
import hashlib
import random
import sys
from fractions import Fraction

import pytest

from conftest import TORUS21, rand_fraction, random_coefficients
from cyclide import (DarbouxCoefficients, EuclideanMotion, SurfaceClass, apply_motion,
                     classify_quartic, prepare, recognize, spectral_data)
from cyclide.canonical import CanonicalQuartic
from cyclide.core import point_residual
from cyclide.errors import NoRealPoints, SeedInvariantViolation
from cyclide.genkit import (QuarticSeed, generate_cubic_dupin, generate_quartic_dupin,
                            perturb_off_variety, random_motion,
                            random_quartic_seed, sample_surface_points)
from cyclide.moebius import TorusSpec
from tripoly import polynomial_from_coefficients

SEED = 20240811   # the seed of the `rng` fixture
# the points of `test_float_points_of_exact_input_are_pinned`; their floats
# come through libm (cos, sin, atan2, hypot), so the digest also pins the
# host it was taken on (x86-64 Linux, CPython 3.11)
SAMPLES_DIGEST = "c436a53ec6c708e9698c50441f1004f286dcd35e80c0fcce9e7e5ef7025f3cff"


class TestGenerate:
    def test_torus_seed(self):
        ident = EuclideanMotion.identity()
        seed = QuarticSeed(Fraction(4), Fraction(0), Fraction(1), Fraction(0), ident)
        assert generate_quartic_dupin(seed) == TORUS21

    def test_zero_seed_point(self):
        ident = EuclideanMotion.identity()
        seed = QuarticSeed(Fraction(0), Fraction(0), Fraction(0), Fraction(0), ident)
        c = generate_quartic_dupin(seed)
        assert c == DarbouxCoefficients.make(a0=1)

    def test_seed_invariant(self):
        ident = EuclideanMotion.identity()
        with pytest.raises(SeedInvariantViolation):
            QuarticSeed(Fraction(4), Fraction(1), Fraction(2), Fraction(3), ident)
        seed = QuarticSeed(Fraction(9), Fraction(1), Fraction(4), Fraction(6), ident)
        # an immutable record in the order (s, t, u, m, motion, lam), lam = 1 by default
        assert tuple(seed) == (9, 1, 4, 6, ident, 1) and seed.lam == 1
        assert QuarticSeed(s=9, t=1, u=4, m=-6, motion=ident, lam=2).m == -6
        with pytest.raises(AttributeError):
            seed.lam = Fraction(2)
        with pytest.raises(SeedInvariantViolation):
            QuarticSeed(s=9, t=1, u=4, m=5, motion=ident)

    def test_cubic_examples(self, pol):
        ident = EuclideanMotion.identity()
        c = generate_cubic_dupin(2, -2, ident)
        assert c.e1 == -1 and c.c == (0, -2, 2)
        assert generate_cubic_dupin(0, 0, ident).b == (1, 0, 0)
        v = recognize(generate_cubic_dupin(1, 1, random_motion(random.Random(1))), pol)
        assert v.kind == "DupinCubic"

    def test_soundness(self, pol, rng):
        for _ in range(60):
            c = generate_quartic_dupin(random_quartic_seed(rng))
            assert recognize(c, pol).is_dupin
        for _ in range(30):
            p = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            q = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            assert recognize(generate_cubic_dupin(p, q, random_motion(rng)),
                             pol).is_dupin

    def test_class_coverage(self, pol):
        # seeds hitting every quartic label of the taxonomy
        targets = {
            (9, 1, 4, 6): SurfaceClass.SMOOTH_RING,
            (1, 0, 4, 0): SurfaceClass.SPINDLE,
            (4, 1, 4, 4): SurfaceClass.HORN,
            (1, 1, 4, 2): SurfaceClass.TWO_TOUCHING_SPHERES,
            (1, 1, 1, 1): SurfaceClass.SPHERE_AND_POINT,
            (0, 0, 1, 0): SurfaceClass.DOUBLE_SPHERE,
            (1, 0, 0, 0): SurfaceClass.CIRCLE,
            (-1, -1, 1, 1): SurfaceClass.ONE_POINT,
            (4, -9, -1, 6): SurfaceClass.TWO_POINTS,
            (4, -1, -9, 6): SurfaceClass.NO_REAL_POINTS,
            (0, 0, 0, 0): SurfaceClass.ONE_POINT,
        }
        seen = set()
        ident = EuclideanMotion.identity()
        for (s, t, u, m), want in targets.items():
            seed = QuarticSeed(Fraction(s), Fraction(t), Fraction(u), Fraction(m), ident)
            c = generate_quartic_dupin(seed)
            sd = spectral_data(prepare(c, pol), pol)
            assert classify_quartic(sd, pol) == want, (s, t, u, m)
            seen.add(want)
        quartic_labels = {
            SurfaceClass.SMOOTH_RING, SurfaceClass.SPINDLE, SurfaceClass.HORN,
            SurfaceClass.TWO_TOUCHING_SPHERES, SurfaceClass.SPHERE_AND_POINT,
            SurfaceClass.DOUBLE_SPHERE, SurfaceClass.CIRCLE,
            SurfaceClass.ONE_POINT, SurfaceClass.TWO_POINTS,
            SurfaceClass.NO_REAL_POINTS}
        assert seen == quartic_labels


class TestPerturb:
    def test_torus_f0_bump(self, pol):
        bumped = TORUS21.replace(f0=Fraction(10))
        assert not recognize(bumped, pol).is_dupin

    def test_cubic_f0_bump(self, pol, cubic22):
        assert not recognize(cubic22.replace(f0=Fraction(1)), pol).is_dupin

    def test_always_off_variety(self, pol, rng):
        for _ in range(50):
            c = generate_quartic_dupin(random_quartic_seed(rng))
            bad = perturb_off_variety(c, rng)
            assert not recognize(bad, pol).is_dupin


class TestSampling:
    def test_torus_exact(self, rng):
        pts = sample_surface_points(TORUS21, 20, rng)
        poly = polynomial_from_coefficients(TORUS21)
        assert len(pts) == 20
        for p in pts:
            assert all(isinstance(v, Fraction) for v in p)
            assert poly.evaluate(p) == 0
        # the axis-circle point (2, 0, 1) lies on the surface
        assert poly.evaluate((Fraction(2), Fraction(0), Fraction(1))) == 0

    def test_circle_class(self, rng, pol):
        c = CanonicalQuartic(4, 0, 0, 0).coefficients()
        pts = sample_surface_points(c, 12, rng)
        for x, y, z in pts:
            assert x * x + y * y == 4 and z == 0

    def test_no_real_points(self, rng):
        c = CanonicalQuartic(4, -1, -9, 6).coefficients()
        with pytest.raises(NoRealPoints):
            sample_surface_points(c, 5, rng)

    def test_point_class_exact(self, rng):
        # one real point at (-1, 0, 0), exactly representable
        c = CanonicalQuartic(1, -1, -1, 1).coefficients()
        pts = sample_surface_points(c, 5, rng)
        assert pts == [(-1, 0, 0)]
        assert polynomial_from_coefficients(c).evaluate(pts[0]) == 0

    def test_point_class_irrational_falls_to_float(self, rng):
        # two real points (-2/3, +-sqrt(104)/3, 0): float fallback
        c = CanonicalQuartic(4, -9, -1, 6).coefficients()
        pts = sample_surface_points(c, 5, rng)
        assert len(pts) == 2
        poly = polynomial_from_coefficients(c)
        scale = max(abs(float(v)) for v in c.astuple())
        for p in pts:
            norm = scale * (1 + sum(float(x) ** 2 for x in p)) ** 2
            assert abs(float(poly.evaluate(p))) <= 1e-12 * norm

    def test_moved_surface_float_residual(self, rng):
        for _ in range(5):
            seed = random_quartic_seed(rng, smooth=True)
            c = generate_quartic_dupin(seed)
            pts = sample_surface_points(c.to_float(), 15, rng)
            poly = polynomial_from_coefficients(c.to_float())
            scale = max(abs(float(v)) for v in c.astuple())
            for p in pts:
                norm = scale * (1 + sum(x * x for x in p)) ** 2
                assert abs(poly.evaluate(p)) <= 1e-12 * norm

    def test_float_sampling_needs_no_numpy(self, rng, monkeypatch):
        # a None entry makes `import numpy` raise ImportError
        monkeypatch.setitem(sys.modules, "numpy", None)
        moved = generate_quartic_dupin(random_quartic_seed(rng, random_motion(rng),
                                                           smooth=True))
        for c in (moved.to_float(), TORUS21.to_float()):
            pts = sample_surface_points(c, 10, rng)
            poly = polynomial_from_coefficients(c)
            scale = max(abs(v) for v in c)
            assert pts
            for p in pts:
                norm = scale * (1 + sum(x * x for x in p)) ** 2
                assert abs(poly.evaluate(p)) <= 1e-12 * norm

    def test_touching_spheres_sampling(self, rng):
        c = CanonicalQuartic(1, 1, 4, 2).coefficients()
        pts = sample_surface_points(c, 16, rng)
        poly = polynomial_from_coefficients(c)
        assert pts and all(poly.evaluate(p) == 0 for p in pts)

    @pytest.mark.parametrize("squares, label", [
        ((0, 0, 4, 0), SurfaceClass.DOUBLE_SPHERE),
        ((4, 4, 4, 8), SurfaceClass.SPHERE_AND_POINT),   # alpha = delta
        ((0, 0, 0, 0), SurfaceClass.ONE_POINT),
    ], ids=["double sphere", "touching at alpha = delta", "one point"])
    def test_degenerate_canonical_classes(self, squares, label, pol, rng):
        c = CanonicalQuartic(*squares).coefficients()
        assert classify_quartic(spectral_data(prepare(c, pol), pol), pol) == label
        residual = point_residual(c)
        pts = sample_surface_points(c, 6, rng)
        assert pts and all(type(v) is Fraction for p in pts for v in p)
        assert all(residual(p) == 0 for p in pts)

    def test_float_points_of_exact_input_are_pinned(self):
        # exact input sampled in floats (irrational radii, a rotated frame)
        # is measured on its float copy: the same residual, bit for bit, as
        # on the exact coefficients, so the same points
        cases = [(TorusSpec(3, 4).coefficients(exact=True), 50, 1008)]
        cases += [(TorusSpec(3, 4).coefficients(exact=True), n, SEED) for n in (50, 30)]
        cases += [(TorusSpec(1, 16).coefficients(exact=True), 20, SEED)]
        cases += [(TorusSpec(R2 - r2, R2).coefficients(exact=True), 25, SEED)
                  for r2, R2 in ((1, 4), (4, 9), (1, 9))]
        cases += [(CanonicalQuartic(4, -9, -1, 6).coefficients(), 5, SEED)]
        rng = random.Random(SEED)
        cases += [(generate_quartic_dupin(random_quartic_seed(rng, smooth=True)), 10, SEED)
                  for _ in range(4)]
        digest = hashlib.sha256()
        floats = 0
        for c, n, seed in cases:
            pts = sample_surface_points(c, n, random.Random(seed))
            exact, fast = point_residual(c), point_residual(c.to_float())
            for p in pts:
                if type(p[0]) is float:
                    floats += 1
                    assert fast(p).hex() == float(exact(p)).hex()
            digest.update((";".join(",".join(v.hex() if type(v) is float else str(v)
                                             for v in p) for p in pts) + "\n").encode())
        assert floats == 247
        assert digest.hexdigest() == SAMPLES_DIGEST

    def test_int_input_samples_as_its_fraction_copy(self):
        # the int R=2, r=1 torus moved by (1, 0, 0): b1 / a0 is a Fraction
        c = DarbouxCoefficients(1, 2, 0, 0, -4, -8, 8, 0, 0, 0, -8, 0, 0, 0)
        exact = c._make(map(Fraction, c))
        pts = sample_surface_points(c, 20, random.Random(1))
        assert pts == sample_surface_points(exact, 20, random.Random(1))
        assert len(pts) == 20
        poly = polynomial_from_coefficients(exact)
        for p in pts:
            assert all(type(v) is Fraction for v in p) and poly.evaluate(p) == 0


def oracle_residual(c, point):
    """|F(p)| / (max|c_i| (1 + |p|^2)^2) and grad F(p), F expanded as a
    TriPoly, in exact arithmetic on the values of c and p."""
    c = c._make(map(Fraction, c))
    point = tuple(map(Fraction, point))
    poly = polynomial_from_coefficients(c)
    scale = max(abs(v) for v in c) * (1 + sum(x * x for x in point)) ** 2
    grad = tuple(poly.derivative(i).evaluate(point) for i in range(3))
    return abs(poly.evaluate(point)) / scale, grad


def translated(c, point):
    return apply_motion(c, EuclideanMotion.translation_by(point))


class TestPointResidual:
    def test_value_and_gradient_equal_the_oracle(self, rng):
        # random exact surfaces at random points, off the surface
        for i in range(200):
            c = random_coefficients(rng, a0=rand_fraction(rng) if i % 4 else 0,
                                    with_b=i % 3 != 0)
            if not any(c):
                continue
            p = tuple(rand_fraction(rng) for _ in range(3))
            value, grad = oracle_residual(c, p)
            assert point_residual(c)(p) == value
            assert tuple(2 * v for v in translated(c, p).e) == grad

    def test_value_and_gradient_on_the_surface(self, rng):
        # exact samples of moved tori: the value is 0, the gradient the oracle's
        for _ in range(10):
            shift = tuple(rand_fraction(rng) for _ in range(3))
            c = apply_motion(TORUS21, EuclideanMotion.translation_by(shift))
            residual = point_residual(c)
            for p in sample_surface_points(c, 5, rng):
                value, grad = oracle_residual(c, p)
                assert residual(p) == value == 0
                assert tuple(2 * v for v in translated(c, p).e) == grad

    def test_float_residual_agrees_with_the_exact_one(self, rng):
        # on float samples and off them, within 1e-14 of the normalizer
        worst = 0.0
        for _ in range(5):
            c = generate_quartic_dupin(random_quartic_seed(rng, smooth=True)).to_float()
            residual = point_residual(c)
            pts = sample_surface_points(c, 10, rng)
            pts += [tuple(2 * x + 1 for x in p) for p in pts]
            for p in pts:
                worst = max(worst, abs(residual(p) - oracle_residual(c, p)[0]))
        assert worst <= 1e-14

    def test_exactly_zero_on_exact_samples(self, rng):
        residual = point_residual(TORUS21)
        for p in sample_surface_points(TORUS21, 10, rng):
            assert type(residual(p)) is Fraction and residual(p) == 0
        off = (Fraction(1), Fraction(2), Fraction(3))
        value = polynomial_from_coefficients(TORUS21).evaluate(off)
        assert residual(off) == abs(value) / (10 * (1 + 14) ** 2) != 0
