"""The exact-mode contract of `prepare` and of the quartic cross-check.

`prepare` refuses an all-zero record first (ZeroInput, whatever the slot
types), then any slot that is not an int or a Fraction (PreconditionError,
a float 0.0 included); it accepts ints and Fractions mixed, takes the
degree branch of the highest degree with a nonzero slot, and puts the
record on the integer lattice of `reference_lattice`.  Every exact quartic
the recognizer decides is cross-checked by the 12-generator oracle exactly
once.
"""
import random
from fractions import Fraction

import pytest

from conftest import CUBIC22, TORUS21, rand_fraction
from cyclide import DarbouxCoefficients, pipeline
from cyclide import recognizer
from cyclide.errors import PreconditionError, ZeroInput
from cyclide.recognizer import (CUBIC, LINEAR, NOT_DUPIN, QUADRIC, QUARTIC,
                                prepare, recognize)
from test_golden import witness_corpus
from test_sigma_kernels import key, reference_lattice


def lattice_of(c, pol):
    p = prepare(c, pol)
    return [key(v) for v in p.work], key(p.scale)


def reference_of(c, branch):
    work, scale = reference_lattice(c, branch)
    return [key(v) for v in work], key(scale)


@pytest.mark.parametrize("zero", [0, Fraction(0), 0.0, -0.0])
def test_an_all_zero_record_is_zero_input(zero, pol):
    with pytest.raises(ZeroInput):
        prepare(DarbouxCoefficients._make([zero] * 14), pol)
    mixed = [(0, Fraction(0), 0.0, -0.0)[i % 4] for i in range(14)]
    mixed[13] = zero
    with pytest.raises(ZeroInput):
        prepare(DarbouxCoefficients._make(mixed), pol)


@pytest.mark.parametrize("value", [0.0, -0.0, 0.5, -3.0])
@pytest.mark.parametrize("slot", [0, 1, 4, 10, 13])
def test_one_float_among_fractions_is_refused(slot, value, pol):
    for c in (TORUS21, CUBIC22):
        slots = list(c)
        slots[slot] = value
        with pytest.raises(PreconditionError, match="int or Fraction"):
            prepare(DarbouxCoefficients._make(slots), pol)


def test_ints_and_fractions_mix(pol):
    rng = random.Random(2401)
    for c in (TORUS21, CUBIC22, TORUS21.scale(Fraction(-3, 7))):
        kinds = set()
        for _ in range(20):
            mixed = c._make(int(v) if v.denominator == 1 and rng.random() < 0.5 else v
                            for v in c)
            kinds.add(tuple(map(type, mixed)))
            assert lattice_of(mixed, pol) == lattice_of(c, pol)
            assert recognize(mixed, pol) == recognize(c, pol)
        assert len(kinds) > 1


def sparse(rng, lead, zeros):
    """Random Fractions with the slots before lead zero, slot lead nonzero
    and `zeros` more of the later slots zero."""
    slots = [Fraction(0)] * lead + [rand_fraction(rng) or Fraction(1)
                                    for _ in range(14 - lead)]
    for i in rng.sample(range(lead + 1, 14), zeros):
        slots[i] = Fraction(0)
    return DarbouxCoefficients._make(slots)


@pytest.mark.parametrize("branch, lead", [(QUARTIC, 0), (CUBIC, 1), (CUBIC, 3),
                                          (QUADRIC, 4), (QUADRIC, 9)])
def test_zero_slots_keep_the_branch_and_the_lattice(branch, lead, pol):
    rng = random.Random(2402 + lead)
    for zeros in range(14 - lead):
        for _ in range(10):
            c = sparse(rng, lead, zeros)
            assert prepare(c, pol).branch == branch, c
            assert lattice_of(c, pol) == reference_of(c, branch), c


def test_linear_records_take_the_linear_branch(pol):
    rng = random.Random(2403)
    for lead in (10, 11, 12, 13):
        for zeros in range(14 - lead):
            c = sparse(rng, lead, zeros)
            p = prepare(c, pol)
            assert p.branch == LINEAR and p.work is None and p.inv is None


def centred(rng, a0):
    """A quartic with b = 0 and rational slots of mixed denominators."""
    return sparse(rng, 0, 0)._replace(a0=a0, b1=Fraction(0), b2=Fraction(0),
                                      b3=Fraction(0))


def test_lattice_of_centred_quartics(pol):
    rng = random.Random(2404)
    seen_lam, seen_negative = False, False
    for _ in range(300):
        a0 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
        c = centred(rng, a0)
        p = prepare(c, pol)
        assert lattice_of(c, pol) == reference_of(c, QUARTIC), c
        assert p.work.b == (0, 0, 0) and p.work.a0 == 1
        seen_lam |= p.scale.denominator > 1
        seen_negative |= a0 < 0
    assert seen_lam and seen_negative


def test_lattice_of_quartics_with_odd_b(pol):
    rng = random.Random(2405)
    for _ in range(300):
        c = sparse(rng, 0, rng.randint(0, 8))
        c = c._replace(a0=Fraction(rng.choice((-2, -1, 1, 2, 3))),
                       b1=Fraction(rng.randrange(-9, 10, 2)))
        assert lattice_of(c, pol) == reference_of(c, QUARTIC), c
        p = prepare(c, pol)
        assert p.work.b == (0, 0, 0) and all(type(v) is int for v in p.work)


@pytest.mark.parametrize("branch, lead", [(QUARTIC, 0), (CUBIC, 1), (QUADRIC, 4)])
def test_lattice_of_records_with_six_or_more_zero_slots(branch, lead, pol):
    rng = random.Random(2406 + lead)
    for _ in range(300):
        c = sparse(rng, lead, rng.randint(max(0, 6 - lead), 12 - lead))
        assert sum(v == 0 for v in c) >= 6
        assert lattice_of(c, pol) == reference_of(c, branch), c


@pytest.fixture
def oracle_calls(monkeypatch):
    """The arguments of every call to the recognizer's cross-check."""
    calls = []
    vanish = recognizer.quartic_generators_vanish

    def spy(c, inv):
        calls.append(c)
        return vanish(c, inv)

    monkeypatch.setattr(recognizer, "quartic_generators_vanish", spy)
    return calls


def test_every_exact_quartic_is_cross_checked_once(oracle_calls, pol):
    rows = witness_corpus()
    oracle_calls.clear()        # the corpus builder recognizes too
    reports = []
    for i, c in enumerate(rows):
        reports.append(pipeline.analyze(c, pol, "recognize"))
        assert len(oracle_calls) == i + 1, c
        assert oracle_calls[-1] == prepare(c, pol).work
    # Dupin inputs and their copies moved off the variety, every case a-f
    for dupin in (True, False):
        cases = {r["case"] for r in reports if (r["kind"] != NOT_DUPIN) == dupin}
        assert cases == set("abcdef") - (set() if dupin else {"d"})
    for c in (CUBIC22, DarbouxCoefficients.make(c=(1, 1, 2))):
        recognize(c, pol)
    assert len(oracle_calls) == len(rows)
