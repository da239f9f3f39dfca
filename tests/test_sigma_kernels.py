"""The exact-mode kernels against the formulations they replaced.

K, L and M, the cubic numerator P1, the quadric forms S1 and T1 and the
cubic shift are evaluated on the plain slot tuples of `sigma_images`, each
unpacked once, with the symmetric scalars they read passed in; the exact
lattice of `prepare` is written out slot by slot.  The versions below,
which read the named slots of the `DarbouxCoefficients` copies of the
test-side reference `sigma_orbit` (tests/sigma_orbit.py) and took the whole
invariant bundle, are kept here as references: on random Fractions and
lattice ints the kernels give the same values exactly, and on random and
boundary floats the same floats bit for bit, sign of zero included.
"""
import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from conftest import random_coefficients
from cyclide import DarbouxCoefficients, TolerancePolicy
from cyclide.canonical import cubic_shift
from cyclide.core import SLOT_WEIGHTS, normalize_quartic, sigma_images
from cyclide.genkit import generate_quartic_dupin, random_quartic_seed
from cyclide.invariants import (InvariantBundle, _e_numerator, _generators, _s1, _t1,
                                base_invariants, k_form, l_form, lm_scalars, m_form,
                                quartic_generators)
from cyclide.recognizer import (CUBIC, QUADRIC, QUARTIC, _axis_case_residuals,
                                prepare)
from cyclide.scalar import EXACT, FLOAT
from sigma_orbit import SIGMA12, SIGMA13, apply_permutation, sigma_orbit
from test_float_kernels import random_float

PERMS = (None, SIGMA12, SIGMA13)


def reference_base_invariants(c):
    b1, b2, b3 = c.b
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    e1, e2, e3 = c.e
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


def reference_k_form(c):
    """K1 = (c3-c2)e2e3 + d1(e2^2-e3^2) + (d2e2-d3e3)e1."""
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    e1, e2, e3 = c.e
    return (c3 - c2) * e2 * e3 + d1 * (e2 * e2 - e3 * e3) + (d2 * e2 - d3 * e3) * e1


def reference_l_form(c, inv):
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    e1, e2, e3 = c.e
    w14 = inv.W1 + 4 * c.f0
    return ((w14 - (c2 + c3) ** 2 - d2 * d2 - d3 * d3) * e1
            + (inv.C0 * d3 + c3 * d3 - d1 * d2) * e2
            + (inv.C0 * d2 + c2 * d2 - d1 * d3) * e3)


def reference_m_form(c, inv):
    c1 = c.c1
    d2, d3 = c.d2, c.d3
    e1, e2, e3 = c.e
    return (2 * (c1 * e1 + d3 * e2 + d2 * e3) * (inv.W1 + 4 * c.f0)
            + e1 * (inv.W2 - inv.C0 * inv.W1 - 4 * inv.E0))


def reference_e_numerator(c, B0, W3):
    b1, b2, b3 = c.b
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    return (-b1 * (W3 - B0 * (c2 + c3)) ** 2
            + 2 * b1 * b1 * B0 * (b3 * c3 * d2 + b2 * c2 * d3)
            - 4 * b1 * B0 * (b3 * d2 + b2 * d3) ** 2
            + 2 * B0 * (b3 * d2 + b2 * d3) * (b2 * b2 * c1 + b3 * b3 * c1 - 2 * b2 * b3 * d1)
            - 2 * b2 * b3 * B0 * (c2 - c3) * (b2 * d2 - b3 * d3)
            + b1 * B0 * B0 * ((c1 - c2) * (c1 - c3) - d1 * d1 + d2 * d2 + d3 * d3)
            + 2 * d1 * B0 * B0 * (b2 * d2 + b3 * d3))


def reference_s1(c):
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    return (d1 * (d2 * d2 + d3 * d3 - 2 * d1 * d1)
            + (c2 + c3 - 2 * c1) * d2 * d3 + 2 * (c2 - c1) * (c3 - c1) * d1)


def reference_t1(c):
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    return d1 * (d2 * d2 - d3 * d3) + (c2 - c3) * d2 * d3


def reference_cubic_shift(c, inv, pol):
    b0x2, b0sqx2, w3 = 2 * inv.B0, 2 * inv.B0 ** 2, inv.W3
    return tuple(-(pol.div(-cc.b1 * cc.c2 - cc.b1 * cc.c3 + cc.b2 * cc.d3 + cc.b3 * cc.d2, b0x2)
                   + pol.div(cc.b1 * w3, b0sqx2))
                 for cc in sigma_orbit(c))


def reference_lattice(c, branch):
    ratios = [v.as_integer_ratio() for v in c]
    den = math.lcm(*[d for _, d in ratios])
    ints = [n * (den // d) for n, d in ratios]
    quartic = branch == QUARTIC
    q = ints[0] if quartic else den
    g = math.gcd(q, *ints)
    lam = abs(q) // g
    unit = g if q > 0 else -g
    base = [n // unit for n in ints[1:]]
    k = 2 if quartic and any(v % 2 for v in base[:3]) else 1
    lam *= k
    l2 = lam * lam
    power = (k, k * lam, k * l2, k * l2 * lam)
    work = c._make((int(quartic), *(v * power[w - 1]
                                    for v, w in zip(base, SLOT_WEIGHTS[1:]))))
    return (normalize_quartic(work) if quartic else work), Fraction(1, lam)


def reference_quartic_generators(c):
    inv = reference_base_invariants(c)
    orbit = sigma_orbit(c)
    k1, k2, k3 = (reference_k_form(cc) for cc in orbit)
    l1, l2, l3 = (reference_l_form(cc, inv) for cc in orbit)
    m1, m2, m3 = (reference_m_form(cc, inv) for cc in orbit)
    n1, n2, n3 = islice(_generators(c, inv), 3)
    return {"K1": k1, "K2": k2, "K3": k3, "L1": l1, "L2": l2, "L3": l3,
            "M1": m1, "M2": m2, "M3": m3, "N1": n1, "N2": n2, "N3": n3}


def reference_axis_case_residuals(c, label, inv):
    i = "abc".index(label)
    orbit = sigma_orbit(c)
    res = {f"K{j + 1}": reference_k_form(cc) for j, cc in enumerate(orbit) if j != i}
    res[f"L{i + 1}"] = reference_l_form(orbit[i], inv)
    res[f"M{i + 1}"] = reference_m_form(orbit[i], inv)
    return res


BOUNDARY = (0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 5e-324, -5e-324, 2.2250738585072014e-308,
            math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0), 1e154, -1e154,
            1.7976931348623157e308, -1.7976931348623157e308)


def float_inputs(rng, count):
    """Random floats (signs, zeros, subnormals, magnitudes 1e-150 to 1e150)
    and, every other tuple, boundary floats: signed zeros, the smallest
    subnormal and normal, one-ulp neighbours of 1, squares at the edge of
    the float range and the largest float."""
    for i in range(count):
        if i % 2:
            yield DarbouxCoefficients._make(rng.choice(BOUNDARY) for _ in range(14))
        else:
            center = rng.uniform(-140, 140) / 4
            yield DarbouxCoefficients._make(random_float(rng, center) for _ in range(14))


def exact_inputs(rng, count):
    """Random Fractions and, every other tuple, lattice ints."""
    for i in range(count):
        if i % 2:
            yield DarbouxCoefficients._make(rng.randint(-60, 60) for _ in range(14))
        else:
            yield random_coefficients(rng, a0=Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                      with_b=True)


def key(v):
    """A value as compared: a float by its hex form (sign of zero, inf and
    nan included), an exact value with its type."""
    return v.hex() if type(v) is float else (type(v), v)


def outcome(fn, *args):
    """fn(*args) by `key`, or the error it raises: float ** overflows and
    a division by a zero B0 raise alike on both sides."""
    try:
        out = fn(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        return (type(exc), str(exc))
    if isinstance(out, dict):
        return [(name, key(v)) for name, v in out.items()]
    if isinstance(out, tuple):
        return tuple(map(key, out))
    return key(out)


def inputs(rng, count):
    return [*exact_inputs(rng, count), *float_inputs(rng, count)]


def test_sigma_images_are_the_slots_of_the_orbit():
    rng = random.Random(1801)
    for c in inputs(rng, 200):
        images = sigma_images(c)
        assert images[0] is c
        assert all(type(s) is tuple for s in images[1:])
        assert [outcome(tuple, s) for s in images] \
            == [outcome(tuple, cc) for cc in sigma_orbit(c)]


def test_base_invariants_match_the_reference():
    rng = random.Random(1802)
    for c in inputs(rng, 2000):
        assert outcome(base_invariants, c) == outcome(reference_base_invariants, c), c


def test_kernels_match_the_reference_on_every_image():
    rng = random.Random(1803)
    for c in inputs(rng, 2000):
        inv = base_invariants(c)
        try:
            C0, w14, h = lm_scalars(c, inv)
        except OverflowError:
            continue
        for which, s in zip(PERMS, sigma_images(c)):
            cc = c if which is None else apply_permutation(c, which)
            pairs = ((outcome(k_form, s), outcome(reference_k_form, cc)),
                     (outcome(l_form, s, C0, w14), outcome(reference_l_form, cc, inv)),
                     (outcome(m_form, s, w14, h), outcome(reference_m_form, cc, inv)),
                     (outcome(_e_numerator, s, inv.B0, inv.W3),
                      outcome(reference_e_numerator, cc, inv.B0, inv.W3)),
                     (outcome(_s1, s), outcome(reference_s1, cc)),
                     (outcome(_t1, s), outcome(reference_t1, cc)))
            for got, want in pairs:
                assert got == want, (c, which)


def test_cubic_shift_matches_the_reference():
    rng = random.Random(1804)
    refused = 0
    for c in inputs(rng, 2000):
        pol = TolerancePolicy(FLOAT if type(c.a0) is float else EXACT)
        inv = base_invariants(c)
        want = outcome(reference_cubic_shift, c, inv, pol)
        assert outcome(cubic_shift, c, inv, pol) == want, c
        refused += type(want[0]) is type
    assert 0 < refused < 1000


def normalized(c):
    """c with a0 = 1 and b = 0, in the type of its a0."""
    one, zero = type(c.a0)(1), type(c.a0)(0)
    return c._make((one, zero, zero, zero, *c[4:]))


def test_quartic_generators_match_the_reference():
    rng = random.Random(1805)
    dupin = [generate_quartic_dupin(random_quartic_seed(rng)) for _ in range(40)]
    for c in [*map(normalized, inputs(rng, 1000)),
              *(normalize_quartic(c) for c in dupin)]:
        want = outcome(reference_quartic_generators, c)
        assert outcome(quartic_generators, c) == want, c
        if type(want) is list:
            assert [name for name, _ in want] == ["K1", "K2", "K3", "L1", "L2", "L3",
                                                  "M1", "M2", "M3", "N1", "N2", "N3"]


def test_axis_case_residuals_match_the_reference():
    rng = random.Random(1806)
    for c in inputs(rng, 1000):
        inv = base_invariants(c)
        for label in "abc":
            want = outcome(reference_axis_case_residuals, c, label, inv)
            assert outcome(_axis_case_residuals, c, label, inv) == want, (c, label)


# branch -> the slots that decide it: those before are zero, one of those
# from lo to hi is not
LEADING = {QUARTIC: (0, 1), CUBIC: (1, 4), QUADRIC: (4, 10)}


@pytest.mark.parametrize("branch", sorted(LEADING))
def test_lattice_matches_the_reference(branch):
    rng = random.Random(1807)
    lo, hi = LEADING[branch]
    for c in exact_inputs(rng, 2000):
        c = c._make((*[0] * lo, *c[lo:]))
        if not any(c[lo:hi]):
            continue
        p = prepare(c, TolerancePolicy(EXACT))
        work, scale = p.work, p.scale
        want, want_scale = reference_lattice(c, branch)
        assert p.branch == branch
        assert [key(v) for v in work] == [key(v) for v in want], c
        assert type(work) is DarbouxCoefficients and key(scale) == key(want_scale)
