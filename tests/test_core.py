"""Coefficient model, polynomial carrier and motion machinery.

The motion oracle used throughout: evaluating the substituted polynomial at
random rational points must agree with evaluating the original at the moved
points.  That check is independent of every coefficient-update formula.
"""
import random
from fractions import Fraction

import pytest

from conftest import CUBIC22, TORUS21, rand_fraction, random_coefficients
from cyclide import (DarbouxCoefficients, EuclideanMotion, TolerancePolicy,
                     apply_motion, normalize_quartic, prepare, weighted_rescale)
from cyclide.canonical import (canonical_cubic_params, canonical_quartic_params,
                               spectral_data)
from cyclide.classify import j0_quartic
from cyclide.errors import NotQuartic, ShapeError, ZeroScale
from cyclide.genkit import quaternion_rotation, random_motion, random_rotation
from cyclide.invariants import base_invariants
from cyclide.moebius import MOBT2, build_map, torus_radii
from sigma_orbit import (SIGMA12, SIGMA13, SIGMA23, apply_permutation, apply_point,
                         sigma_orbit)
from tripoly import TriPoly, coefficients_from_polynomial, polynomial_from_coefficients


def frac(v):
    return Fraction(v)


class TestExpansion:
    def test_pure_quartic_term(self):
        c = DarbouxCoefficients.make(a0=1)
        p = polynomial_from_coefficients(c)
        assert p.terms == {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1,
                           (2, 2, 0): 2, (2, 0, 2): 2, (0, 2, 2): 2}

    def test_torus21_against_direct_expansion(self):
        # oracle: expand (x^2+y^2+z^2+R^2-r^2)^2 - 4R^2(x^2+y^2) from scratch
        R2, r2 = frac(4), frac(1)
        rho2 = TriPoly({(2, 0, 0): frac(1), (0, 2, 0): frac(1), (0, 0, 2): frac(1)})
        shifted = rho2 + TriPoly.constant(R2 - r2)
        direct = shifted * shifted + TriPoly(
            {(2, 0, 0): -4 * R2, (0, 2, 0): -4 * R2})
        assert polynomial_from_coefficients(TORUS21) == direct
        assert coefficients_from_polynomial(direct) == TORUS21

    def test_cubic_b_term(self):
        c = DarbouxCoefficients.make(a0=0, b=(1, 0, 0))
        p = polynomial_from_coefficients(c)
        assert p.terms == {(3, 0, 0): 2, (1, 2, 0): 2, (1, 0, 2): 2}

    def test_round_trip_random(self, rng):
        for _ in range(40):
            c = random_coefficients(rng, a0=rand_fraction(rng), with_b=True)
            assert coefficients_from_polynomial(polynomial_from_coefficients(c)) == c

    def test_shape_error_lone_x4(self):
        with pytest.raises(ShapeError):
            coefficients_from_polynomial(TriPoly({(4, 0, 0): frac(1)}))

    def test_read_off_cubic_with_quadratic(self):
        p = TriPoly({(3, 0, 0): frac(2), (1, 2, 0): frac(2), (1, 0, 2): frac(2),
                     (2, 0, 0): frac(-1)})
        c = coefficients_from_polynomial(p)
        assert c.b == (1, 0, 0) and c.c1 == -1 and c.a0 == 0

    def test_shape_error_on_disallowed_monomial(self):
        with pytest.raises(ShapeError):
            coefficients_from_polynomial(TriPoly({(1, 1, 1): frac(1)}))


class TestMotions:
    def test_identity(self):
        assert apply_motion(TORUS21, EuclideanMotion.identity()) == TORUS21

    def test_substitution_oracle(self, rng):
        for _ in range(15):
            c = random_coefficients(rng, with_b=True)
            m = random_motion(rng)
            moved = apply_motion(c, m)
            pm = polynomial_from_coefficients(moved)
            p = polynomial_from_coefficients(c)
            for _ in range(4):
                pt = tuple(rand_fraction(rng) for _ in range(3))
                assert pm.evaluate(pt) == p.evaluate(apply_point(m, pt))

    def test_axis_swap_on_torus(self):
        # rotation exchanging the x and z axes (orthogonal, det -1 allowed)
        swap = EuclideanMotion.rotation_by(
            ((frac(0), frac(0), frac(1)),
             (frac(0), frac(1), frac(0)),
             (frac(1), frac(0), frac(0))))
        moved = apply_motion(TORUS21, swap)
        assert moved.c == (6, -10, -10)
        assert moved.replace(c1=TORUS21.c1, c3=TORUS21.c3) == TORUS21

    def test_zero_translation_noop(self):
        m = EuclideanMotion.translation_by((frac(0),) * 3)
        assert apply_motion(TORUS21, m) == TORUS21

    def test_composition(self, rng):
        for _ in range(5):
            c = random_coefficients(rng, with_b=True)
            m1 = random_motion(rng)
            m2 = random_motion(rng)
            once = apply_motion(apply_motion(c, m1), m2)
            composed = apply_motion(c, m1.after(m2))
            assert once == composed

    def test_inverse(self, rng):
        m = random_motion(rng)
        assert apply_motion(apply_motion(TORUS21, m), m.inverse()) == TORUS21

    def test_orthogonality_exact(self, rng):
        for _ in range(100):
            m = random_rotation(rng)
            assert m.orthogonality_defect() == 0

    def test_quaternion_examples(self):
        assert quaternion_rotation(1, 0, 0, 0) == EuclideanMotion.identity()
        rot = quaternion_rotation(1, 1, 0, 0)  # quarter turn about x
        assert rot.rotation == ((1, 0, 0), (0, 0, -1), (0, 1, 0))


def _oracle(c, m):
    """apply_motion by expanding the polynomial and substituting."""
    p = polynomial_from_coefficients(c).substitute_affine(m.rotation, m.translation)
    return coefficients_from_polynomial(p)


@pytest.fixture(scope="module")
def motion_cases():
    """300 (coefficients, motion, oracle result): a0 not in {0, 1}, b != 0,
    proper and improper rotations, the identity, and t = 0 among them."""
    rng = random.Random(7)
    cases = []
    for i in range(300):
        a0 = rand_fraction(rng)
        while a0 in (0, 1):
            a0 = rand_fraction(rng)
        c = random_coefficients(rng, a0=a0, with_b=True)
        while c.b == (0, 0, 0):
            c = random_coefficients(rng, a0=a0, with_b=True)
        rot = EuclideanMotion.identity() if i % 10 == 0 else \
            random_rotation(rng, reflect=i % 2 == 1)
        t = (frac(0),) * 3 if i % 7 == 0 else tuple(rand_fraction(rng) for _ in range(3))
        m = EuclideanMotion(rot.rotation, t)
        cases.append((c, m, _oracle(c, m)))
    return cases


class TestClosedFormMotion:
    def test_exact_matches_substitution(self, motion_cases):
        for c, m, want in motion_cases:
            assert apply_motion(c, m) == want

    def test_float_matches_substitution(self, motion_cases):
        for c, m, want in motion_cases:
            moved = EuclideanMotion(m.rotation, tuple(float(v) for v in m.translation))
            got = apply_motion(c.to_float(), moved).astuple()
            scale = max(abs(float(v)) for v in want.astuple())
            assert all(isinstance(v, float) for v in got)
            assert all(abs(g - float(w)) <= 1e-12 * scale
                       for g, w in zip(got, want.astuple()))

    def test_float_normalize_leaves_b_exactly_zero(self):
        rng = random.Random(11)
        for _ in range(200):
            c = DarbouxCoefficients.make(
                a0=rng.uniform(0.1, 10) * rng.choice((-1, 1)),
                b=[rng.uniform(-50, 50) for _ in range(3)],
                c=[rng.uniform(-50, 50) for _ in range(3)],
                d=[rng.uniform(-50, 50) for _ in range(3)],
                e=[rng.uniform(-50, 50) for _ in range(3)],
                f0=rng.uniform(-50, 50), exact=False)
            n = normalize_quartic(c)
            assert n.a0 == 1.0 and n.b == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("rows", [
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        ((Fraction(3, 5), Fraction(4, 5), 0), (Fraction(4, 5), Fraction(3, 5), 0),
         (0, 0, 1)),
    ])
    def test_non_orthogonal_rotation_raises(self, rows):
        m = EuclideanMotion.rotation_by([[frac(v) for v in r] for r in rows])
        with pytest.raises(ShapeError):
            apply_motion(TORUS21, m)


class TestPermutations:
    def test_swap_12(self):
        c = DarbouxCoefficients.make(a0=0, c=(1, 2, 3), d=(4, 5, 6))
        out = apply_permutation(c, SIGMA12)
        assert out.c == (2, 1, 3) and out.d == (5, 4, 6)

    @pytest.mark.parametrize("which, i, j", [(SIGMA12, 1, 2), (SIGMA13, 1, 3),
                                             (SIGMA23, 2, 3)])
    def test_swaps_the_index_pair_in_every_group(self, which, i, j):
        c = DarbouxCoefficients(*range(1, 15))  # fourteen distinct slots
        swapped = {}
        for group in "bcde":
            swapped[f"{group}{i}"] = getattr(c, f"{group}{j}")
            swapped[f"{group}{j}"] = getattr(c, f"{group}{i}")
        assert apply_permutation(c, which) == c.replace(**swapped)

    def test_sigma_orbit(self, rng):
        c = random_coefficients(rng, with_b=True)
        assert sigma_orbit(c) == (c, apply_permutation(c, SIGMA12),
                                  apply_permutation(c, SIGMA13))

    def test_involution(self, rng):
        c = random_coefficients(rng, with_b=True)
        for which in (SIGMA12, SIGMA13, SIGMA23):
            assert apply_permutation(apply_permutation(c, which), which) == c

    def test_k_form_sigma_compatibility(self, rng):
        # printed sigma12 K1 formula == K1 evaluated on the permuted tuple, by
        # the K1 that reads the named slots (the kernel is checked against it)
        from test_sigma_kernels import reference_k_form as k_form
        for _ in range(20):
            c = random_coefficients(rng)
            c1, c2, c3 = c.c
            d1, d2, d3 = c.d
            e1, e2, e3 = c.e
            printed_s12 = (c3 - c1) * e1 * e3 + d2 * (e1 ** 2 - e3 ** 2) \
                + (d1 * e1 - d3 * e3) * e2
            printed_s13 = (c1 - c2) * e1 * e2 + d3 * (e2 ** 2 - e1 ** 2) \
                + (d2 * e2 - d1 * e1) * e3
            assert k_form(apply_permutation(c, SIGMA12)) == printed_s12
            assert k_form(apply_permutation(c, SIGMA13)) == printed_s13


class TestWeightedRescale:
    def test_identity(self):
        assert weighted_rescale(TORUS21, frac(1)) == TORUS21

    def test_torus_example(self, rng):
        out = weighted_rescale(TORUS21, frac(2))
        assert out.c == (-40, -40, 24) and out.f0 == 144
        # substitution oracle: lam^4 * p(x/lam) has the rescaled coefficients
        p = polynomial_from_coefficients(TORUS21)
        q = polynomial_from_coefficients(out)
        for _ in range(5):
            pt = tuple(rand_fraction(rng) for _ in range(3))
            half = tuple(v / 2 for v in pt)
            assert q.evaluate(pt) == 16 * p.evaluate(half)

    def test_odd_even_weights(self, rng):
        c = random_coefficients(rng, with_b=True)
        out = weighted_rescale(c, frac(-1))
        assert out.b == tuple(-v for v in c.b)
        assert out.e == tuple(-v for v in c.e)
        assert out.c == c.c and out.d == c.d and out.f0 == c.f0

    def test_zero_scale(self):
        with pytest.raises(ZeroScale):
            weighted_rescale(TORUS21, frac(0))


class TestNormalizeQuartic:
    def test_b_zero_passthrough(self):
        doubled = TORUS21.scale(frac(3))
        out = normalize_quartic(doubled)
        assert out == TORUS21

    def test_round_trip_via_motion(self, rng):
        m = EuclideanMotion.translation_by((frac(1), frac(0), frac(0)))
        shifted = apply_motion(TORUS21, m)
        assert shifted.b != (0, 0, 0)
        assert normalize_quartic(shifted) == TORUS21

    def test_int_input_stays_exact(self):
        # odd b halves as a Fraction; a0 = 1 with even b stays in ints
        c = DarbouxCoefficients(1, 1, 2, 0, 3, 3, 3, 0, 0, 0, 1, 1, 1, 5)
        n = normalize_quartic(c)
        assert all(type(v) in (int, Fraction) for v in n)
        assert n == normalize_quartic(c._make(map(Fraction, c)))
        assert (n.c1, n.f0) == (Fraction(-1, 2), Fraction(17, 16))
        even = c.replace(b1=4, b2=-2)
        n = normalize_quartic(even)
        assert all(type(v) is int for v in n)
        assert n == normalize_quartic(even._make(map(Fraction, even)))

    def test_not_quartic(self):
        with pytest.raises(NotQuartic):
            normalize_quartic(DarbouxCoefficients.make(a0=0, b=(1, 0, 0)))

    def test_closed_form_cross_check(self, rng):
        # per-coefficient update formulas of the translated general equation
        for _ in range(15):
            c = random_coefficients(rng, with_b=True)
            n = normalize_quartic(c)
            inv = base_invariants(c)
            b1, b2, b3 = c.b
            assert n.a0 == 1 and n.b == (0, 0, 0)
            assert n.c1 == c.c1 - b1 * b1 - inv.B0 / 2
            assert n.d1 == c.d1 - b2 * b3
            assert n.e1 == c.e1 + (b1 * (inv.B0 - c.c1) - b2 * c.d3 - b3 * c.d2) / 2
            assert n.f0 == (c.f0 - 3 * inv.B0 ** 2 / 16 + inv.W3 / 4
                            - b1 * c.e1 - b2 * c.e2 - b3 * c.e3)

    def test_normalized_invariants(self, rng):
        for _ in range(10):
            c = random_coefficients(rng, a0=rand_fraction(rng, 1, 5), with_b=True)
            n = normalize_quartic(c)
            assert n.a0 == 1 and n.b == (0, 0, 0)


class TestRecords:
    """The per-input value records are NamedTuples: immutable, with the
    field types their builders give them."""

    @staticmethod
    def _records():
        pol = TolerancePolicy()
        prep = prepare(TORUS21, pol)
        sd = spectral_data(prep)
        q = canonical_quartic_params(sd)
        return (EuclideanMotion.identity(), prep, sd, q,
                canonical_cubic_params(prepare(CUBIC22, pol)),
                j0_quartic(prep, sd), torus_radii(q), build_map(q, MOBT2))

    def test_fields_cannot_be_set(self):
        for record in self._records():
            name = record._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                record.unknown_field = None

    def test_identity_motion_holds_fractions(self):
        m = EuclideanMotion.identity()
        assert all(type(v) is Fraction for row in m.rotation for v in row)
        assert all(type(v) is Fraction for v in m.translation)
        assert m.rotation == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_translating_a_float_surface_gives_floats(self, rng):
        for _ in range(10):
            c = random_coefficients(rng, a0=rand_fraction(rng, 1, 5), with_b=True).to_float()
            shift = tuple(float(rand_fraction(rng)) for _ in range(3))
            moved = apply_motion(c, EuclideanMotion.translation_by(shift))
            assert all(type(v) is float for v in moved)
            assert all(type(v) is float for v in normalize_quartic(c))


class TestIsExact:
    """Exact means every slot is a Fraction or an int, subclasses (bool)
    included."""

    class Half(Fraction):
        pass

    @pytest.mark.parametrize("slots, exact", [
        ((1,) * 14, True),
        ((Fraction(1, 3),) * 14, True),
        ((True, False) * 7, True),
        ((Half(1, 2),) + (0,) * 13, True),
        ((1,) * 13 + (1.0,), False),
        ((0.5,) + (Fraction(1, 2),) * 13, False),
        ((1,) * 13 + (1j,), False),
    ])
    def test_every_slot_counts(self, slots, exact):
        assert DarbouxCoefficients(*slots).is_exact() is exact
