"""Canonical-form recovery: eigenvalues, squared parameters, cubic pair."""
import random
from fractions import Fraction

import pytest

from conftest import CUBIC22, TORUS21, rand_fraction
from cyclide import (DarbouxCoefficients, EuclideanMotion, apply_motion,
                     canonical_cubic_params, canonical_quartic_params,
                     normalize_quartic, prepare, spectral_data,
                     weighted_rescale)
from cyclide.errors import Inconsistent, IrrationalSpectrum, TooManyDigits
from cyclide.genkit import (generate_cubic_dupin, generate_quartic_dupin,
                            random_motion, random_quartic_seed, random_rotation)


def spectral(c, pol):
    return spectral_data(prepare(c, pol), pol)


class TestRecoverA1:
    def test_torus(self, pol):
        # H1 route: A1 = -(W2 - C0 W1)/(2 (W1+4f0)) = -320/32 = -10
        assert spectral(TORUS21, pol).A1 == -10

    def test_zeros(self, pol):
        assert spectral(DarbouxCoefficients.make(a0=1), pol).A1 == 0

    def test_double_sphere(self, pol):
        c = DarbouxCoefficients.make(a0=1, c=(-2, -2, -2), f0=1)
        assert spectral(c, pol).A1 == -2

    def test_eigenvector_route(self, pol, rng):
        for _ in range(10):
            seed = random_quartic_seed(rng, motion=random_rotation(rng),
                                       rescale=False)
            c = generate_quartic_dupin(seed)
            assert spectral(c, pol).A1 == -2 * (seed.s + seed.t + seed.u)

    def test_inconsistent_on_non_dupin(self, pol):
        c = DarbouxCoefficients.make(a0=1, c=(1, 0, 0), e=(1, 0, 0))
        with pytest.raises(Inconsistent, match="A1 system"):
            spectral(c, pol)

    def test_h3_double_root_stratum(self, pol):
        # e = 0, W1+4f0 = 0, C0^2+4W1+12f0 = 0: A1 = C0 double root
        c = DarbouxCoefficients.make(a0=1, c=(2, 2, -2), f0=1)
        assert spectral(c, pol).A1 == 2


class TestRecoverA23:
    def test_torus(self, pol):
        sd = spectral(TORUS21, pol)
        assert (sd.A2, sd.A3) == (-10, 6)

    def test_zeros(self, pol):
        sd = spectral(DarbouxCoefficients.make(a0=1), pol)
        assert (sd.A2, sd.A3) == (0, 0)

    def test_double_sphere(self, pol):
        sd = spectral(DarbouxCoefficients.make(a0=1, c=(-2, -2, -2), f0=1), pol)
        assert (sd.A2, sd.A3) == (-2, -2)

    def test_irrational_spectrum_exact(self, pol):
        # Dupin (case d) with A1 = 0 and A2, A3 = +-sqrt(2)
        c = DarbouxCoefficients.make(a0=1, c=(0, 1, -1), d=(1, 0, 0),
                                     f0=Fraction(1, 2))
        with pytest.raises(IrrationalSpectrum):
            spectral(c, pol)

    def test_float_mode_handles_irrational(self, fpol):
        c = DarbouxCoefficients.make(a0=1, c=(0, 1, -1), d=(1, 0, 0),
                                     f0=Fraction(1, 2)).to_float()
        sd = spectral(c, fpol)
        assert sd.A1 == pytest.approx(0.0, abs=1e-12)
        assert sd.A2 == pytest.approx(-2 ** 0.5, abs=1e-12)
        assert sd.A3 == pytest.approx(2 ** 0.5, abs=1e-12)


class TestSpectralData:
    def test_closure_checks(self, pol, rng):
        from cyclide.invariants import base_invariants
        for _ in range(20):
            c = normalize_quartic(generate_quartic_dupin(random_quartic_seed(rng)))
            sd = spectral(c, pol)
            inv = base_invariants(c)
            a1, a2, a3 = sd.A1, sd.A2, sd.A3
            assert a1 ** 3 - inv.C0 * a1 ** 2 + inv.W1 * a1 - inv.W2 == 0
            assert a1 + a2 + a3 == inv.C0
            assert a1 * a2 + a1 * a3 + a2 * a3 == inv.W1
            assert a1 * a2 * a3 == inv.W2
            assert sd.Dsq == 4 * inv.E0
            assert sd.F == c.f0
            assert sd.Dsq == -(a2 + a3) * (a1 - a2) * (a1 - a3)
            assert 4 * sd.F == a2 * a2 + a3 * a3 + a2 * a3 - a1 * a2 - a1 * a3


class TestCanonicalQuartic:
    def test_torus(self, pol):
        q = canonical_quartic_params(spectral(TORUS21, pol))
        assert (q.alpha_sq, q.gamma_sq, q.delta_sq, q.agd) == (4, 0, 1, 0)

    def test_zeros(self, pol):
        q = canonical_quartic_params(spectral(DarbouxCoefficients.make(a0=1), pol))
        assert (q.alpha_sq, q.gamma_sq, q.delta_sq, q.agd) == (0, 0, 0, 0)

    def test_double_sphere(self, pol):
        c = DarbouxCoefficients.make(a0=1, c=(-2, -2, -2), f0=1)
        q = canonical_quartic_params(spectral(c, pol))
        assert (q.alpha_sq, q.gamma_sq, q.delta_sq) == (0, 0, 1)

    def test_generator_round_trip(self, pol, rng):
        # a weighted rescale by lam scales the squared radii by lam^2, so the
        # recovered parameters match the seed after stripping that factor
        for _ in range(40):
            seed = random_quartic_seed(rng)
            c = generate_quartic_dupin(seed)
            q = canonical_quartic_params(spectral(c, pol))
            k = seed.lam ** 2
            assert sorted((q.alpha_sq, q.gamma_sq)) == sorted((k * seed.s, k * seed.t))
            assert q.delta_sq == k * seed.u
            assert q.agd * q.agd == k ** 3 * seed.s * seed.t * seed.u
            assert q.agd >= 0


class TestCanonicalCubic:
    def test_cubic22(self, pol):
        p = canonical_cubic_params(prepare(CUBIC22, pol), pol)
        assert (p.p, p.q) == (-2, 2) and p.shift == (0, 0, 0)

    def test_plane_point(self, pol):
        c = DarbouxCoefficients.make(a0=0, b=(1, 0, 0))
        p = canonical_cubic_params(prepare(c, pol), pol)
        assert (p.p, p.q) == (0, 0) and p.shift == (0, 0, 0)

    def test_translated(self, pol):
        moved = apply_motion(CUBIC22, EuclideanMotion.translation_by(
            (Fraction(1), Fraction(2), Fraction(3))))
        p = canonical_cubic_params(prepare(moved, pol), pol)
        assert p.shift == (-1, -2, -3)
        assert (p.p, p.q) == (-2, 2)

    def test_round_trip_with_reflections(self, pol, rng):
        for _ in range(30):
            pv = rand_fraction(rng, -4, 4, 3)
            qv = rand_fraction(rng, -4, 4, 3)
            c = generate_cubic_dupin(pv, qv, random_motion(rng))
            out = canonical_cubic_params(prepare(c, pol), pol)
            assert (out.p, out.q) == tuple(sorted((pv, qv)))

    def test_projective_scale_invariance(self, pol):
        scaled = CUBIC22.scale(Fraction(2))
        out = canonical_cubic_params(prepare(scaled, pol), pol)
        assert (out.p, out.q) == (-2, 2)


class TestMessagesAtCallerScale:
    """A message value of weight w, computed at the gauge, is printed at the
    caller's scale: a weighted rescale by lam multiplies it by lam^w."""

    make = DarbouxCoefficients.make
    # (stage, input, message prefix, value at lam = 1, weight)
    CASES = {
        "discriminant": (spectral_data,
                         make(a0=1, c=(0, 1, -1), d=(1, 0, 0), f0=Fraction(1, 2)),
                         "discriminant", 8, 4),
        "B0": (canonical_cubic_params,
               make(b=(1, 1, 0), c=(0, -2, 2), e=(-1, 0, 0)), "B0 =", 2, 2),
        "(p-q)^2": (canonical_cubic_params,
                    make(b=(1, 0, 0), c=(1, -2, -1), d=(-2, 0, 0), e=(3, 0, 0)),
                    "(p-q)^2 =", 17, 2),
    }

    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 3), Fraction(5, 2)],
                             ids=str)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_irrational_message_value(self, pol, case, lam):
        stage, c, prefix, value, w = self.CASES[case]
        with pytest.raises(IrrationalSpectrum) as err:
            stage(prepare(weighted_rescale(c, lam), pol), pol)
        assert str(err.value) == (f"{prefix} {value * lam ** w} is not a perfect "
                                  "square; use float mode")

    def test_message_value_too_long_to_print(self, pol):
        stage, c, *_ = self.CASES["discriminant"]
        with pytest.raises(TooManyDigits):
            stage(prepare(weighted_rescale(c, Fraction(10) ** 1100), pol), pol)
