"""Canonical-form recovery: eigenvalues, squared parameters, cubic pair."""
from fractions import Fraction

import pytest

from conftest import CUBIC22, TORUS21, rand_fraction
from cyclide import (CanonicalQuartic, DarbouxCoefficients, EuclideanMotion,
                     TorusSpec, apply_motion, canonical_cubic_params,
                     canonical_quartic_params, normalize_quartic, prepare,
                     spectral_data, weighted_rescale)
from cyclide.errors import Inconsistent, IrrationalSpectrum, TooManyDigits
from cyclide.genkit import (generate_cubic_dupin, generate_quartic_dupin,
                            random_motion, random_quartic_seed, random_rotation)
from cyclide.scalar import format_scalar
from tripoly import TriPoly, coefficients_from_polynomial


def spectral(c, pol):
    return spectral_data(prepare(c, pol))


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


def generator_formula(s, t, u, m) -> DarbouxCoefficients:
    """The canonical quartic as the generator kit wrote it, the parameters
    taken to Fractions first."""
    s, t, u, m = Fraction(s), Fraction(t), Fraction(u), Fraction(m)
    return DarbouxCoefficients.make(
        a0=1, c=(-2 * (s + t + u), 2 * (t - s - u), 2 * (s - t - u)),
        e=(4 * m, 0, 0), f0=(s - t - u) ** 2 - 4 * t * u)


def float_formula(q: CanonicalQuartic) -> DarbouxCoefficients:
    """The canonical quartic as the Moebius calibration wrote it, the
    parameters taken to floats first."""
    s, t, u, m = (float(v) for v in (q.alpha_sq, q.gamma_sq, q.delta_sq, q.agd))
    return DarbouxCoefficients.make(
        a0=1, c=(-2 * (s + t + u), 2 * (t - s - u), 2 * (s - t - u)),
        e=(4 * m, 0, 0), f0=(s - t - u) ** 2 - 4 * t * u, exact=False)


class TestCanonicalEquation:
    """`CanonicalQuartic.coefficients` is the one canonical equation, and
    `spectral_data` with `SpectralData.squares` is its inverse."""

    def test_exact_equals_the_generator_formula(self, rng):
        for _ in range(200):
            params = [rand_fraction(rng) for _ in range(4)]
            if rng.getrandbits(1):
                params = [rng.randint(-9, 9) for _ in range(4)]
            c = CanonicalQuartic(*params).coefficients()
            assert c == generator_formula(*params)
            assert all(type(v) is Fraction for v in c)

    def test_float_equals_the_calibration_formula(self, rng):
        for _ in range(200):
            q = CanonicalQuartic(*(rng.uniform(-10, 10) for _ in range(4)))
            c = q.coefficients()
            assert c == float_formula(q)
            assert all(type(v) is float for v in c)

    def test_torus_is_the_gamma_zero_case(self):
        # (rho^2 + R^2 - r^2)^2 - 4 R^2 (x^2 + y^2), expanded as a TriPoly
        for r2 in (-4, 0, 1, Fraction(9, 4), 16):
            for R2 in (-1, 0, Fraction(1, 3), 4, 9):
                r2, R2 = Fraction(r2), Fraction(R2)
                rho2 = TriPoly({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
                inner = rho2 + TriPoly.constant(R2 - r2)
                ring = TriPoly({(2, 0, 0): -4 * R2, (0, 2, 0): -4 * R2})
                want = coefficients_from_polynomial(inner * inner + ring)
                assert TorusSpec(r2, R2).coefficients() == want
                assert TorusSpec(r2, R2).coefficients().to_float() == want.to_float()

    def test_spectral_data_inverts_the_equation(self, pol, rng):
        # e1 = 4m != 0 pins A1 = c1, and gamma^2 <= alpha^2 orders c2 <= c3
        done = 0
        while done < 40:
            seed = random_quartic_seed(rng)
            s, t, u, m = seed.s, seed.t, seed.u, seed.m
            if m == 0 or t > s:
                continue
            c = CanonicalQuartic(s, t, u, m).coefficients()
            sd = spectral(c, pol)
            assert (sd.A1, sd.A2, sd.A3) == c.c
            assert sd.squares() == (s, t, u)
            assert canonical_quartic_params(sd) == CanonicalQuartic(s, t, u, abs(m))
            done += 1


class TestCanonicalCubic:
    def test_cubic22(self, pol):
        p = canonical_cubic_params(prepare(CUBIC22, pol))
        assert (p.p, p.q) == (-2, 2) and p.shift == (0, 0, 0)

    def test_plane_point(self, pol):
        c = DarbouxCoefficients.make(a0=0, b=(1, 0, 0))
        p = canonical_cubic_params(prepare(c, pol))
        assert (p.p, p.q) == (0, 0) and p.shift == (0, 0, 0)

    def test_translated(self, pol):
        moved = apply_motion(CUBIC22, EuclideanMotion.translation_by(
            (Fraction(1), Fraction(2), Fraction(3))))
        p = canonical_cubic_params(prepare(moved, pol))
        assert p.shift == (-1, -2, -3)
        assert (p.p, p.q) == (-2, 2)

    def test_round_trip_with_reflections(self, pol, rng):
        for _ in range(30):
            pv = rand_fraction(rng, -4, 4, 3)
            qv = rand_fraction(rng, -4, 4, 3)
            c = generate_cubic_dupin(pv, qv, random_motion(rng))
            out = canonical_cubic_params(prepare(c, pol))
            assert (out.p, out.q) == tuple(sorted((pv, qv)))

    def test_projective_scale_invariance(self, pol):
        scaled = CUBIC22.scale(Fraction(2))
        out = canonical_cubic_params(prepare(scaled, pol))
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
            stage(prepare(weighted_rescale(c, lam), pol))
        assert str(err.value) == (f"{prefix} {value * lam ** w} is not a perfect "
                                  "square; use float mode")

    def test_message_value_too_long_to_print(self, pol):
        stage, c, *_ = self.CASES["discriminant"]
        with pytest.raises(TooManyDigits):
            stage(prepare(weighted_rescale(c, Fraction(10) ** 1100), pol))

    # not Dupin: the A1 candidate of case (a) fails H1, H2 (weight 6) and
    # H3 (weight 4), which read -12, -12 and 21 at lam = 1
    NOT_DUPIN = make(a0=1, c=(-2, 1, 3), e=(-3, 0, 0))

    @pytest.mark.parametrize("lam,h1", [(Fraction(1), "-12"),
                                        (Fraction(1, 3), "'-4/243'"),
                                        (Fraction(5, 2), "'-46875/16'")], ids=str)
    def test_inconsistent_message_values(self, pol, lam, h1):
        with pytest.raises(Inconsistent) as err:
            spectral_data(prepare(weighted_rescale(self.NOT_DUPIN, lam), pol))
        shown = {"H1": format_scalar(-12 * lam ** 6), "H2": format_scalar(-12 * lam ** 6),
                 "H3": format_scalar(21 * lam ** 4)}
        assert str(err.value) == f"A1 system has no common solution: {shown}"
        assert f"'H1': {h1}, " in str(err.value)

    def test_inconsistent_message_value_too_long_to_print(self, pol):
        with pytest.raises(TooManyDigits):
            spectral_data(prepare(weighted_rescale(self.NOT_DUPIN, Fraction(10) ** 1100),
                                  pol))
