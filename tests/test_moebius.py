"""Torus radii, point maps, calibration and the duality properties."""
import math
from fractions import Fraction

import pytest

from cyclide import (TolerancePolicy, build_map, calibrate_convention,
                     classify_quartic, j0_quartic, prepare, spectral_data,
                     torus_radii, torus_radii_inversive)
from cyclide.canonical import CanonicalQuartic
from cyclide.classify import SurfaceClass
from cyclide.errors import (CalibrationFailed, DegenerateRatio, NotRealOverR,
                            PoleInput, PreconditionError)
from cyclide.genkit import sample_surface_points
from cyclide.moebius import MOBT, MOBT2, MOBT2A, TorusSpec

SQ3 = math.sqrt(3.0)


def cq(s, t, u, m=0.0):
    return CanonicalQuartic(alpha_sq=s, gamma_sq=t, delta_sq=u, agd=m)


class TestTorusRadii:
    def test_gamma_zero_passthrough(self):
        spec = torus_radii(cq(Fraction(4), Fraction(0), Fraction(1)))
        assert (spec.r_sq, spec.R_sq) == (1, 4)

    def test_scaled_convention(self):
        spec = torus_radii(cq(Fraction(4), Fraction(1), Fraction(2)))
        assert (spec.r_sq, spec.R_sq) == (1, 3)
        assert spec.ratio() == Fraction(1, 3)
        assert spec.j0() == Fraction(2, 9)

    def test_degenerate(self):
        with pytest.raises(DegenerateRatio):
            torus_radii(cq(Fraction(1), Fraction(1), Fraction(2)))

    def test_inversive(self):
        r, R = torus_radii_inversive(cq(4.0, 1.0, 2.0, math.sqrt(8.0)))
        # r = gamma^2 eps/(alpha eps + beta delta) = 1/(2 + sqrt(6))
        assert r == pytest.approx(1.0 / (2.0 + math.sqrt(6.0)), rel=1e-14)
        assert R == pytest.approx(SQ3 / (2.0 + math.sqrt(6.0)), rel=1e-14)
        assert (r / R) ** 2 == pytest.approx(1.0 / 3.0, rel=1e-12)


class TestBuildMap:
    def test_mobt2_values(self):
        m = build_map(cq(4.0, 0.0, 1.0), MOBT2)
        assert m.center == (1.0, 0.0, 0.0)
        assert m.translation[0] == pytest.approx(SQ3, rel=1e-15)
        assert m.factor == pytest.approx(2 * SQ3, rel=1e-15)
        assert m.axis_swap

    def test_mobt_gamma_zero_unreal(self):
        with pytest.raises(NotRealOverR):
            build_map(cq(4.0, 0.0, 1.0), MOBT)

    def test_mobt_values(self):
        m = build_map(cq(4.0, 1.0, 2.0), MOBT)
        assert m.center == (1.0, 0.0, 0.0)
        assert m.translation[0] == pytest.approx(2 * math.sqrt(2) + SQ3, rel=1e-14)
        assert m.factor == pytest.approx(2 * SQ3, rel=1e-14)
        assert not m.axis_swap


class TestApplyMap:
    def test_axis_points(self):
        m = build_map(cq(4.0, 0.0, 1.0), MOBT2)
        img = m.apply((2 + SQ3, 0.0, 0.0))
        assert img[0] == pytest.approx(3.0, abs=1e-12)
        assert img[1] == img[2] == 0.0
        img2 = m.apply((2 - SQ3, 0.0, 0.0))
        assert img2[0] == pytest.approx(-3.0, abs=1e-12)

    def test_pole(self):
        m = build_map(cq(4.0, 0.0, 1.0), MOBT2)
        with pytest.raises(PoleInput):
            m.apply((1.0, 0.0, 0.0))

    def test_inverse_is_involution(self):
        m = build_map(cq(4.0, 0.0, 1.0), MOBT2)
        p = (2 + SQ3, 0.4, -0.2)
        q = m.inverse().apply(m.apply(p))
        assert all(a == pytest.approx(b, abs=1e-12) for a, b in zip(p, q))


class TestCalibration:
    def test_torus_pair(self, rng):
        # source: the minor-sqrt(3) torus; target: the (r,R) = (1,2) torus
        src = TorusSpec(3, 4).coefficients(exact=True)
        pts = sample_surface_points(src, 50, rng)
        m, report = calibrate_convention(cq(4.0, 0.0, 1.0), MOBT2,
                                         [tuple(map(float, p)) for p in pts])
        assert report.residual <= 1e-9
        img = m.apply((2 + SQ3, 0.0, 0.0))
        assert img[0] == pytest.approx(3.0, abs=1e-12)

    def test_cyclide_mobt(self, rng):
        q = cq(4.0, 1.0, 2.0, math.sqrt(8.0))
        r, R = torus_radii_inversive(q)
        src = TorusSpec(r * r, R * R).coefficients().to_float()
        pts = sample_surface_points(src, 40, rng)
        m, report = calibrate_convention(q, MOBT, pts)
        assert report.residual <= 1e-9
        # torus axis point R + r lands on the cyclide axis point -3 - sqrt(2)
        img = m.apply((R + r, 0.0, 0.0))
        assert img[0] == pytest.approx(-3 - math.sqrt(2), abs=1e-9)

    def test_cyclide_mobt2a(self, rng):
        q = cq(4.0, 1.0, 2.0, math.sqrt(8.0))
        pts = sample_surface_points(q.coefficients(exact=False), 40, rng)
        m, report = calibrate_convention(q, MOBT2A, pts)
        assert report.residual <= 1e-9
        assert report.target_side == "torus"

    def test_needs_samples(self):
        with pytest.raises(PreconditionError):
            calibrate_convention(cq(4.0, 0.0, 1.0), MOBT2, [(3.0, 0.0, 0.0)])

    def test_fails_on_wrong_surface(self, rng):
        # points of a completely different torus cannot calibrate
        src = TorusSpec(1, 16).coefficients(exact=True)
        pts = [tuple(map(float, p)) for p in sample_surface_points(src, 20, rng)]
        with pytest.raises(CalibrationFailed):
            calibrate_convention(cq(4.0, 0.0, 1.0), MOBT2, pts)


class TestDualityProperties:
    def test_involution_on_samples(self, rng):
        src = TorusSpec(3, 4).coefficients(exact=True)
        pts = [tuple(map(float, p)) for p in sample_surface_points(src, 30, rng)]
        m, _ = calibrate_convention(cq(4.0, 0.0, 1.0), MOBT2, pts)
        inv = m.inverse()
        for p in pts:
            q = inv.apply(m.apply(p))
            err = max(abs(a - b) for a, b in zip(p, q))
            assert err <= 1e-12 * max(1.0, max(abs(v) for v in p))

    def test_j0_consistency(self, pol, rng):
        # torus-side invariant equals the cyclide-side invariant
        q = cq(Fraction(4), Fraction(1), Fraction(2))
        spec = torus_radii(q)
        assert spec.j0() == Fraction(2, 9)
        # spectral route on the exact cyclide with agd^2 = 8 is irrational;
        # use the float pipeline for the surface itself
        fpol = TolerancePolicy("float", 1e-9)
        prep = prepare(cq(4.0, 1.0, 2.0, math.sqrt(8.0)).coefficients(exact=False), fpol)
        j = j0_quartic(prep, spectral_data(prep, fpol), fpol)
        assert float(j.value) == pytest.approx(2.0 / 9.0, rel=1e-9)

    def test_composition_connects_dual_tori(self, rng):
        # mobt2 relates minor radii r and sqrt(R^2 - r^2) for r < R
        for (r2, R2) in ((1, 4), (4, 9), (1, 9)):
            q = cq(float(R2), 0.0, float(r2))
            dual = TorusSpec(R2 - r2, R2).coefficients(exact=True)
            pts = [tuple(map(float, p))
                   for p in sample_surface_points(dual, 25, rng)]
            m, report = calibrate_convention(q, MOBT2, pts)
            assert report.residual <= 1e-9


class TestTorusSpecLabels:
    @pytest.mark.parametrize("r2,R2,label", [
        (1, 4, SurfaceClass.SMOOTH_RING),
        (4, 4, SurfaceClass.HORN),
        (4, 1, SurfaceClass.SPINDLE),
        (0, 4, SurfaceClass.CIRCLE),
        (4, 0, SurfaceClass.DOUBLE_SPHERE),
        (-1, 4, SurfaceClass.NO_REAL_POINTS),
        (-2, -1, SurfaceClass.NO_REAL_POINTS),
        (-1, -2, SurfaceClass.TWO_POINTS),
        (-1, -1, SurfaceClass.ONE_POINT),
        (0, 0, SurfaceClass.ONE_POINT),
        (1, -1, SurfaceClass.TWO_POINTS),
        (0, -1, SurfaceClass.TWO_POINTS),
        (-1, 0, SurfaceClass.NO_REAL_POINTS),
    ])
    def test_labels(self, r2, R2, label, pol):
        c = TorusSpec(Fraction(r2), Fraction(R2)).coefficients(exact=True)
        assert classify_quartic(spectral_data(prepare(c, pol), pol), pol) == label
