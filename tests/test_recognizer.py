"""Decision procedure: case logic, oracle agreement, invariances, the exact
integer gauge and the float tolerance policy."""
import math
import random
from fractions import Fraction

import pytest

from conftest import CUBIC22, TORUS21, rand_fraction, random_coefficients
from cyclide import (DarbouxCoefficients, EuclideanMotion, TolerancePolicy,
                     apply_motion, normalize_quartic, prepare, recognize,
                     recognize_cubic, recognize_quadric,
                     recognize_quartic_cases, recognize_quartic_oracle,
                     weighted_rescale)
from cyclide import recognizer
from cyclide.canonical import (_A1_NAMES, _CLOSURE_NAMES, CanonicalQuartic, _a1_system,
                               _closure)
from cyclide.core import SLOT_WEIGHTS
from cyclide.errors import InternalCheckError, PreconditionError, ZeroInput
from cyclide.genkit import (generate_cubic_dupin, generate_quartic_dupin,
                            perturb_off_variety, random_motion, random_quartic_seed)
from cyclide.invariants import (base_invariants, quartic_generators,
                                quartic_generators_vanish)
from cyclide.recognizer import (CUBIC, DUPIN_CUBIC, DUPIN_QUADRIC, DUPIN_QUARTIC,
                                NOT_DUPIN, QUADRIC, QUARTIC, RESIDUAL_WEIGHTS, Prepared,
                                _axis_case_residuals, _e0_case_residuals,
                                _quartic_case_verdict, residuals_back)
from cyclide.scalar import EXACT, FLOAT
from cyclide.serialize import parse_coefficients


class TestDispatch:
    def test_torus_case_e(self, pol):
        v = recognize(TORUS21, pol)
        assert v.kind == DUPIN_QUARTIC and v.case_label == "e"
        assert all(r == 0 for r in v.residuals.values())

    def test_cubic(self, pol):
        assert recognize(CUBIC22, pol).kind == DUPIN_CUBIC

    def test_plane_degenerate(self, pol):
        c = DarbouxCoefficients.make(a0=0, e=(0, 0, 1))
        assert recognize(c, pol).kind == "DegenerateInput"

    def test_zero_input(self, pol):
        with pytest.raises(ZeroInput):
            recognize(DarbouxCoefficients.make(), pol)

    def test_int_coefficients_stay_exact(self, pol):
        # built from Python ints, not Fractions: normalization must not turn
        # them into floats, which exact mode refuses
        c = DarbouxCoefficients(1, 0, 0, 0, -10, -10, 6, 0, 0, 0, 0, 0, 0, 9)
        v = recognize(c, pol)
        assert v.kind == DUPIN_QUARTIC and v.case_label == "e"
        scaled = DarbouxCoefficients(*[2 * x for x in c.astuple()])
        assert normalize_quartic(scaled).is_exact()
        assert recognize(scaled, pol).case_label == "e"


class TestQuarticCases:
    def test_zero_point_case_d(self, pol):
        v = recognize_quartic_cases(prepare(DarbouxCoefficients.make(a0=1), pol), pol)
        assert v.kind == DUPIN_QUARTIC and v.case_label == "d"

    def test_case_a_witness(self, pol):
        c = DarbouxCoefficients.make(a0=1, c=(1, 0, 0), e=(1, 0, 0))
        v = recognize_quartic_cases(prepare(c, pol), pol)
        assert v.kind == NOT_DUPIN and v.case_label == "a"
        assert v.witness == ("M1", -4)

    def test_axis_cases_b_c(self, pol):
        # rotate a generated e1-active Dupin so e sits on the y then z axis
        base = CanonicalQuartic(9, 1, 4, 6).coefficients()
        assert base.e1 != 0
        rot_xy = EuclideanMotion.rotation_by(
            ((Fraction(0), Fraction(-1), Fraction(0)),
             (Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1))))
        v = recognize_quartic_cases(prepare(apply_motion(base, rot_xy), pol), pol)
        assert v.kind == DUPIN_QUARTIC and v.case_label == "b"
        rot_xz = EuclideanMotion.rotation_by(
            ((Fraction(0), Fraction(0), Fraction(-1)),
             (Fraction(0), Fraction(1), Fraction(0)),
             (Fraction(1), Fraction(0), Fraction(0))))
        v = recognize_quartic_cases(prepare(apply_motion(base, rot_xz), pol), pol)
        assert v.kind == DUPIN_QUARTIC and v.case_label == "c"

    def test_borderline_float_axis_guard_falls_through(self):
        # the torus R = 2, r = 1 at c2 = -6 with e2 = 1e-6: the case (b)
        # guard fires, but within 10^3 tau of zero, so float mode also tries
        # the e = 0 strata and lands in case (d); exact mode decides (b)
        row = {"a0": 1, "c1": -10, "c2": -6, "c3": 6, "e2": 1e-6, "f0": 9}
        v = recognize(parse_coefficients(row, FLOAT), TolerancePolicy(FLOAT, 1e-9))
        assert (v.kind, v.case_label) == (DUPIN_QUARTIC, "d")
        exact = parse_coefficients({**row, "e2": "1/1000000"}, EXACT)
        v = recognize(exact, TolerancePolicy(EXACT))
        assert (v.kind, v.case_label) == (NOT_DUPIN, "b")
        assert v.witness == ("L2", Fraction(-1, 62500))

    def test_case_f(self, pol):
        # C0 = 0 stratum: c = (0, 1, -1) with d1 = 1 has W1 = -2, W2 = 0;
        # case (f) needs W1 + 3 f0 = 0 and (W2 - C0 W1)^2 = 4 f0^3
        c = DarbouxCoefficients.make(a0=1, c=(0, 1, -1), d=(1, 0, 0),
                                     f0=Fraction(2, 3))
        v = recognize_quartic_cases(prepare(c, pol), pol)
        assert v.case_label == "f" and v.kind == NOT_DUPIN
        ok = c.replace(f0=Fraction(1, 2))  # W1+4f0 = 0 lands in case (d)
        v = recognize_quartic_cases(prepare(ok, pol), pol)
        assert v.kind == DUPIN_QUARTIC and v.case_label == "d"


class TestOracle:
    def test_torus(self, pol):
        assert recognize_quartic_oracle(prepare(TORUS21, pol), pol).kind == DUPIN_QUARTIC

    def test_witnesses(self, pol):
        c = DarbouxCoefficients.make(a0=1, c=(1, 0, 0), e=(1, 0, 0))
        v = recognize_quartic_oracle(prepare(c, pol), pol)
        assert v.kind == NOT_DUPIN
        assert v.residuals["M1"] == -4 and v.residuals["N1"] == 8

    def test_zero(self, pol):
        assert recognize_quartic_oracle(
            prepare(DarbouxCoefficients.make(a0=1), pol), pol).kind == DUPIN_QUARTIC

    def test_agreement_with_cases(self, pol, rng):
        agree = 0
        for i in range(60):
            if i % 2 == 0:
                c = generate_quartic_dupin(random_quartic_seed(rng))
            else:
                c = random_coefficients(rng, with_b=True)
            prep = prepare(c, pol)
            a = recognize_quartic_cases(prep, pol).is_dupin
            b = recognize_quartic_oracle(prep, pol).is_dupin
            assert a == b
            agree += 1
        assert agree == 60


class TestIntegerGauge:
    """Exact decisions run on the integer lattice and report their residuals
    at the caller's scale."""

    def _fractional_quartics(self, rng, n=40):
        """Generated Dupin quartics and their perturbations off the variety
        whose normalized coefficients are not all integers (gauge scale > 1)."""
        out = []
        while len(out) < n:
            c = generate_quartic_dupin(random_quartic_seed(rng))
            for cand in (c, perturb_off_variety(c, rng)):
                cn = normalize_quartic(cand)
                if math.lcm(*(v.denominator for v in cn.astuple())) > 1:
                    out.append(cn)
        return out

    def _lattice_quartics(self, rng):
        """Quartics with a0 of either sign and of several sizes, centred or
        not; a0 = 2, b1 = 1 puts an odd b on the lattice."""
        shift = EuclideanMotion.translation_by((Fraction(1, 4), Fraction(-3, 4),
                                                 Fraction(1, 2)))
        out = [TORUS21.scale(-3), apply_motion(TORUS21, shift).scale(2)]
        for i in range(30):
            size = Fraction(10) ** rng.randint(-4, 4)
            a0 = rng.choice((-1, 1)) * size * rand_fraction(rng, 1, 9, 7)
            out.append(random_coefficients(rng, a0=a0, with_b=i % 3 != 0))
        return out

    @staticmethod
    def _as_ints(c):
        """The same surface with int coefficients."""
        lcm = math.lcm(*(v.denominator for v in c))
        return c._make(int(v * lcm) for v in c)

    def test_exact_quartics_go_straight_onto_the_lattice(self, pol, rng):
        odd_b = 0
        for c in self._lattice_quartics(rng):
            divided = c.scale(1 / c.a0)
            lam = math.lcm(*(v.denominator for v in divided))
            odd_b += any(v * lam % 2 for v in divided.b)
            for cc in (c, self._as_ints(c)):
                p = prepare(cc, pol)
                assert all(type(v) is int for v in p.work)
                assert p.work.a0 == 1 and p.work.b == (0, 0, 0)
                assert p.work == weighted_rescale(normalize_quartic(cc), 1 / p.scale)
                assert p.normalized == normalize_quartic(cc)
                assert all(type(v) is Fraction for v in p.normalized)
        assert odd_b > 0

    def test_exact_cubics_and_quadrics_go_onto_the_lattice(self, pol, rng):
        for i in range(30):
            c = random_coefficients(rng, a0=0, with_b=i % 2 == 0)
            for cc in (c, self._as_ints(c)):
                p = prepare(cc, pol)
                assert p.branch == (CUBIC if i % 2 == 0 else QUADRIC)
                assert all(type(v) is int for v in p.work)
                assert p.work == weighted_rescale(cc, 1 / p.scale)
                assert p.normalized is None

    def test_verdict_matches_fraction_arithmetic(self, pol, rng):
        kinds = set()
        for cn in self._fractional_quartics(rng):
            # cn taken as its own gauge, at scale 1
            own = Prepared(cn, QUARTIC, work=cn, inv=base_invariants(cn))
            for got, direct in ((recognize(cn, pol), _quartic_case_verdict(own, pol)),
                                (recognize_quartic_oracle(prepare(cn, pol), pol),
                                 recognize_quartic_oracle(own, pol))):
                assert (got.kind, got.case_label, got.witness, got.residuals) == \
                    (direct.kind, direct.case_label, direct.witness, direct.residuals)
                assert all(type(v) is Fraction for v in got.residuals.values())
                assert got.witness is None or type(got.witness[1]) is Fraction
            kinds.add(got.kind)
        assert kinds == {DUPIN_QUARTIC, NOT_DUPIN}

    def test_residual_weights(self, pol, rng):
        def named(c, cubic, quadric, spectrum):
            ce = c.replace(e1=Fraction(0), e2=Fraction(0), e3=Fraction(0))
            vals = quartic_generators(c)
            for label in "abc":
                vals.update(_axis_case_residuals(c, label, base_invariants(c)))
            # the A1 system and the spectral closure at (A1, A2, A3, Dsq, F)
            vals.update(zip(_A1_NAMES, _a1_system(c, base_invariants(c), spectrum[0])))
            vals.update(zip(_CLOSURE_NAMES, _closure(c, base_invariants(c), *spectrum)))
            for label in "def":
                vals.update(_e0_case_residuals(ce, label, base_invariants(ce)))
            # the cubic and quadric verdicts, on a copy taken as its own gauge
            for decide, branch, cc in ((recognize_cubic, CUBIC, cubic),
                                       (recognize_quadric, QUADRIC, quadric)):
                prep = Prepared(cc, branch, work=cc, inv=base_invariants(cc))
                vals.update(decide(prep, pol).residuals)
            return vals

        for _ in range(20):
            inputs = (random_coefficients(rng),
                      random_coefficients(rng, a0=0, with_b=True),
                      random_coefficients(rng, a0=0))
            spectrum = tuple(rand_fraction(rng) for _ in range(5))
            lam = rand_fraction(rng, 1, 5, 3)
            before = named(*inputs, spectrum)
            after = named(*(weighted_rescale(c, lam) for c in inputs),
                          tuple(v * lam ** w for v, w in zip(spectrum, (2, 2, 2, 6, 4))))
            assert set(before) == set(RESIDUAL_WEIGHTS)
            for name, w in RESIDUAL_WEIGHTS.items():
                assert after[name] == lam ** w * before[name], name

    def test_cross_check_runs_on_lattice(self, pol, monkeypatch):
        seen = []

        def spy(c, inv):
            seen.append(c)
            return quartic_generators_vanish(c, inv)

        monkeypatch.setattr(recognizer, "quartic_generators_vanish", spy)
        assert recognize(weighted_rescale(TORUS21, Fraction(1, 3)), pol).is_dupin
        assert len(seen) == 1
        assert all(type(v) is int for v in seen[0].astuple())

    def test_cross_check_disagreement_raises(self, pol, monkeypatch):
        monkeypatch.setattr(recognizer, "quartic_generators_vanish", lambda c, inv: False)
        with pytest.raises(InternalCheckError,
                           match="dispatch says DupinQuartic but .* oracle says NotDupin"):
            recognize(TORUS21, pol)

    def test_cross_check_reverse_disagreement_raises(self, pol, monkeypatch):
        monkeypatch.setattr(recognizer, "quartic_generators_vanish", lambda c, inv: True)
        with pytest.raises(InternalCheckError,
                           match="dispatch says NotDupin but .* oracle says DupinQuartic"):
            recognize(TORUS21.replace(f0=Fraction(8)), pol)

    @pytest.mark.parametrize("lam", [1, Fraction(1, 3), Fraction(5, 2), 10 ** 40],
                             ids=["1", "1/3", "5/2", "10^40"])
    def test_exact_residuals_back_is_the_product(self, pol, rng, lam):
        # residuals_back takes v to v / lam**w in one Fraction; the value is
        # v * scale_back(w) for every weight of the table
        p = prepare(weighted_rescale(random_coefficients(rng), lam), pol)
        assert p.scale != 1
        res = {name: rng.randint(-10 ** 6, 10 ** 6) * (i % 3 != 0)
               for i, name in enumerate(RESIDUAL_WEIGHTS)}
        back = residuals_back(res, p, pol)
        assert list(back) == list(res)
        for name, w in RESIDUAL_WEIGHTS.items():
            assert type(back[name]) is Fraction
            assert back[name] == res[name] * p.scale_back(w), name

    def test_float_coefficients_refused(self, pol):
        with pytest.raises(PreconditionError):
            recognize(TORUS21.to_float(), pol)


class TestLazyCrossCheck:
    """`quartic_generators_vanish`, the lazy exact cross-check, says what
    `recognize_quartic_oracle` says."""

    @staticmethod
    def _generated(rng):
        """Generated Dupin quartics of every case a-f, and their
        perturbations off the variety."""
        axis = (EuclideanMotion.identity(),
                EuclideanMotion.rotation_by(((0, -1, 0), (1, 0, 0), (0, 0, 1))),
                EuclideanMotion.rotation_by(((0, 0, -1), (0, 1, 0), (1, 0, 0))))
        dupin = [generate_quartic_dupin(random_quartic_seed(
                    rng, axis[i % 3] if i % 4 else random_motion(rng)))
                 for i in range(60)]
        # C0 = 0, W1 + 3 f0 = 0 and W2^2 = 4 f0^3 at e = 0: case (f)
        dupin.append(DarbouxCoefficients.make(a0=1, c=(1, 1, -2), f0=1))
        return dupin, [perturb_off_variety(c, rng) for c in dupin]

    def _agrees(self, c, pol):
        p = prepare(c, pol)
        oracle = recognize_quartic_oracle(p, pol).is_dupin
        assert quartic_generators_vanish(p.work, p.inv) is oracle
        return oracle

    def test_generated_and_perturbed(self, pol, rng):
        dupin, off = self._generated(rng)
        labels = {recognize(c, pol).case_label for c in dupin}
        assert labels == set("abcdef")
        assert all(self._agrees(c, pol) for c in dupin)
        assert not any(self._agrees(c, pol) for c in off)

    def test_e_zero_non_dupin(self, pol, rng):
        # K, L and M are linear in e: at e = 0 only N1, N2, N3 can witness
        for _ in range(30):
            c = random_coefficients(rng, a0=rand_fraction(rng, 1, 9, 7), with_e=False)
            assert not self._agrees(c, pol)
            g = quartic_generators(prepare(c, pol).work)
            assert {name for name, v in g.items() if v} <= {"N1", "N2", "N3"}

    def test_every_n_vanishes_but_k_does_not(self, pol):
        # the canonical Dupin quartic with e = (3, 0, 0) moved to
        # e = (1, 2, 2): |e|^2 and e^T C e are unchanged, so are the
        # symmetric N1, N2, N3, and only K, L, M see the move
        c = CanonicalQuartic(-1, 1, Fraction(-9, 16), Fraction(3, 4)).coefficients()
        assert c.e == (3, 0, 0) and self._agrees(c, pol)
        moved = c.replace(e1=Fraction(1), e2=Fraction(2), e3=Fraction(2))
        g = quartic_generators(moved)
        assert g["N1"] == g["N2"] == g["N3"] == 0 and g["K1"] != 0
        assert not self._agrees(moved, pol)


class TestCubicRecognition:
    def test_cubic22(self, pol):
        assert recognize_cubic(prepare(CUBIC22, pol), pol).kind == DUPIN_CUBIC

    def test_cubic22_wrong_f0(self, pol):
        v = recognize_cubic(prepare(CUBIC22.replace(f0=Fraction(1)), pol), pol)
        assert v.kind == NOT_DUPIN and v.witness[0] == "4f0*B0^4-Q"

    def test_plane_and_point(self, pol):
        c = DarbouxCoefficients.make(a0=0, b=(1, 0, 0))
        assert recognize_cubic(prepare(c, pol), pol).kind == DUPIN_CUBIC


class TestQuadricRecognition:
    def test_rotational_cone(self, pol):
        c = DarbouxCoefficients.make(a0=0, c=(1, 1, 2))
        v = recognize_quadric(prepare(c, pol), pol)
        assert v.kind == DUPIN_QUADRIC
        assert "rotational" in v.notes and "singular" in v.notes

    def test_triaxial_rejected(self, pol):
        c = DarbouxCoefficients.make(a0=0, c=(1, 2, 3))
        v = recognize_quadric(prepare(c, pol), pol)
        assert v.kind == NOT_DUPIN and v.witness == ("S0", -2)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_singular_not_rotational_notes(self, mode):
        c = DarbouxCoefficients.make(a0=0, c=(1, 2, 3))
        v = recognize(c if mode == EXACT else c.to_float(), TolerancePolicy(mode))
        assert v.kind == NOT_DUPIN and v.witness[0] == "S0"
        assert v.notes == ("singular", "not rotational")

    def test_smooth_sphere(self, pol):
        c = DarbouxCoefficients.make(a0=0, c=(1, 1, 1), f0=-1)
        v = recognize_quadric(prepare(c, pol), pol)
        assert v.kind == NOT_DUPIN
        assert v.witness == ("detPhat", -1)
        assert "smooth rotational quadric" in v.notes


class TestInvariances:
    def test_projective(self, pol, rng):
        for _ in range(20):
            c = generate_quartic_dupin(random_quartic_seed(rng))
            lam = rand_fraction(rng, 1, 7, 3)
            assert recognize(c.scale(lam), pol).is_dupin
            bad = perturb_off_variety(c, rng)
            assert not recognize(bad.scale(lam), pol).is_dupin

    def test_motion(self, pol, rng):
        for _ in range(10):
            c = generate_quartic_dupin(random_quartic_seed(rng))
            m = random_motion(rng)
            assert recognize(apply_motion(c, m), pol).is_dupin

    def test_weighted(self, pol, rng):
        for _ in range(10):
            c = generate_quartic_dupin(random_quartic_seed(rng))
            lam = rand_fraction(rng, 1, 5, 2)
            assert recognize(weighted_rescale(c, lam), pol).is_dupin


class TestPolicyContract:
    """`TolerancePolicy.is_zero(value, scale)`: literal in exact mode, and
    |value| <= tau_rel * scale in float mode, equality counting as zero."""

    def test_exact_ignores_scale(self, pol):
        for scale in (1, Fraction(1, 10 ** 30), 10 ** 30, 0):
            assert pol.is_zero(0, scale) and pol.is_zero(Fraction(0), scale)
            assert not pol.is_zero(Fraction(1, 10 ** 40), scale)
            assert pol.nonzero(Fraction(-1, 10 ** 40), scale)

    def test_float_threshold_is_tau_times_scale(self):
        fpol = TolerancePolicy(FLOAT, 0.5)  # tau * scale exact in binary
        for scale in (1, 4.0, 0.25):
            edge = 0.5 * scale
            assert fpol.is_zero(edge, scale) and fpol.is_zero(-edge, scale)
            above = math.nextafter(edge, math.inf)
            assert fpol.nonzero(above, scale) and fpol.nonzero(-above, scale)
        assert fpol.is_zero(0.0, 0) and fpol.nonzero(1e-300, 0)

    def test_nonzero_is_the_negation(self, fpol):
        for v in (0.0, 1e-10, 1e-9, 2e-9, -3e-7, 1.0):
            for scale in (1, 1e-3, 1e3):
                assert fpol.nonzero(v, scale) is (not fpol.is_zero(v, scale))

    def test_default_scale_is_the_plain_tolerance(self, fpol):
        for v in (0.0, 5e-10, -1e-9, 1e-9, math.nextafter(1e-9, 1.0), -2e-9):
            assert fpol.is_zero(v) is (abs(v) <= fpol.tau_rel)
            assert fpol.is_zero(v) is fpol.is_zero(v, 1)


class TestFloatPolicy:
    def _noisy(self, c, rng, rel):
        vals = [float(v) * (1.0 + rel * rng.uniform(-1, 1)) for v in c.astuple()]
        return DarbouxCoefficients(*vals)

    def test_tiny_noise_accepted(self, rng):
        fpol = TolerancePolicy(FLOAT, 1e-9)
        for _ in range(20):
            c = generate_quartic_dupin(random_quartic_seed(rng))
            noisy = self._noisy(c, rng, 1e-14)
            assert recognize(noisy, fpol).is_dupin

    def test_f0_bump_rejected(self, rng):
        # generic samples: at singular strata (double sphere) the equations
        # are critical and an f0 bump is quadratically suppressed
        fpol = TolerancePolicy(FLOAT, 1e-9)
        for _ in range(20):
            c = generate_quartic_dupin(random_quartic_seed(rng, smooth=True))
            f0 = float(c.f0)
            scale = max(abs(float(v)) for v in c.astuple())
            bumped = c.to_float().replace(f0=f0 + 1e-4 * max(abs(f0), scale))
            assert not recognize(bumped, fpol).is_dupin

    def test_noisy_zero_point_surface(self, rng):
        # a moved, rescaled rho^4 = 0 surface: normalization cancels all
        # fourteen entries to rounding noise; accepted as the point case
        from cyclide.genkit import QuarticSeed
        fpol = TolerancePolicy(FLOAT, 1e-9)
        seed = QuarticSeed(Fraction(0), Fraction(0), Fraction(0), Fraction(0),
                           random_motion(rng), Fraction(3))
        c = generate_quartic_dupin(seed)
        noisy = self._noisy(c, rng, 1e-14)
        v = recognize(noisy, fpol)
        assert v.is_dupin and v.case_label == "d"

    def test_float_cubic(self, rng):
        fpol = TolerancePolicy(FLOAT, 1e-9)
        c = generate_cubic_dupin(Fraction(3, 2), Fraction(-1, 3),
                                 random_motion(rng))
        noisy = self._noisy(c, rng, 1e-13)
        assert recognize(noisy, fpol).kind == DUPIN_CUBIC


class TestWeightedSupNorm:
    @staticmethod
    def _per_slot(c):
        """The definition: the largest root |slot|^(1/w) over the slots."""
        return max(abs(float(v)) ** (1.0 / w)
                   for v, w in zip(c, SLOT_WEIGHTS) if w)

    @staticmethod
    def _slot(rng, near):
        """A float in [1e-300, 1e300] with either sign, a signed zero, a
        subnormal, or a neighbour of `near` (ties inside a weight group)."""
        pick = rng.random()
        if pick < 0.1:
            return rng.choice((0.0, -0.0))
        if pick < 0.2:
            return rng.choice((-1, 1)) * rng.randint(1, 2 ** 52) * 5e-324
        if pick < 0.35:
            return rng.choice((-1.0, 1.0)) * math.nextafter(
                abs(near), rng.choice((0.0, math.inf)))
        return rng.choice((-1, 1)) * rng.uniform(1, 10) * 10.0 ** rng.randint(-300, 299)

    def test_grouped_roots_are_the_per_slot_definition_bit_for_bit(self):
        rng = random.Random(1616)
        for _ in range(20000):
            slots = [0.0] * 14
            for i in range(1, 14):
                slots[i] = self._slot(rng, slots[i - 1])
            c = DarbouxCoefficients._make(slots)
            assert recognizer.weighted_sup_norm(c).hex() == self._per_slot(c).hex(), c
