"""Acceptance criteria: the exit checklist of the build.

Each criterion is a function returning (passed, detail); run_all() times
them against their stated budgets and prints one pass/fail line each.  The
CLI `selftest` verb and tests/test_acceptance.py both drive this module.
"""
from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from fractions import Fraction

from .canonical import (canonical_cubic_params, canonical_quartic_params,
                        spectral_data)
from .classify import SurfaceClass, classify_quartic, j0_cubic, j0_quartic, willmore_energy
from .core import DarbouxCoefficients, weighted_rescale
from .genkit import (generate_cubic_dupin, generate_quartic_dupin,
                     perturb_off_variety, random_fraction, random_motion,
                     random_quartic_seed, sample_surface_points)
from .invariants import (RESIDUAL_WEIGHTS, base_invariants, quartic_generators,
                         reduced_generators_e0)
from .moebius import (MOBT, MOBT2, CanonicalQuartic, TorusSpec,
                      calibrate_convention, torus_radii, torus_radii_inversive)
from .recognizer import (TolerancePolicy, prepare, recognize,
                         recognize_quartic_cases, recognize_quartic_oracle)
from .scalar import EXACT, FLOAT

TORUS21 = DarbouxCoefficients.make(a0=1, c=(-10, -10, 6), f0=9)
CUBIC22 = DarbouxCoefficients.make(a0=0, b=(1, 0, 0), c=(0, -2, 2), e=(-1, 0, 0))
EXACT_POL = TolerancePolicy(EXACT)


class CriterionResult(namedtuple("CriterionResult",
                                 "index name passed detail elapsed budget")):
    """One criterion's outcome: passed with its detail, and the elapsed
    seconds against the budget."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.index}: {self.name} "
                f"({self.elapsed:.3f}s / budget {self.budget:.0f}s) - {self.detail}")


def criterion_1_torus_reproduction() -> tuple[bool, str]:
    """R=2, r=1 torus: case (e), residuals exactly zero, invariant anchors."""
    R2, r2 = Fraction(4), Fraction(1)
    inv = base_invariants(TORUS21)
    anchors_ok = (inv.W1 == 4 * (R2 + r2) * (3 * r2 - R2) == -20
                  and inv.W2 == 8 * (R2 + r2) ** 2 * (R2 - r2) == 600
                  and inv.C0 == -2 * R2 - 6 * r2 == -14)
    verdict = recognize(TORUS21, EXACT_POL)
    case_ok = (verdict.kind == "DupinQuartic" and verdict.case_label == "e"
               and all(v == 0 for v in verdict.residuals.values()))
    best = min(_time_one(lambda: recognize(TORUS21, EXACT_POL)) for _ in range(5))
    fast = best < 1e-3
    detail = (f"case={verdict.case_label}, residuals={dict(verdict.residuals)}, "
              f"anchors={'ok' if anchors_ok else 'BAD'}, best={best * 1e6:.0f}us")
    return anchors_ok and case_ok and fast, detail


def _time_one(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def criterion_2_dispatch_vs_oracle() -> tuple[bool, str]:
    """500 exact Dupin quartics + 500 perturbed negatives: the case logic and
    the 12-generator oracle agree on every input; positives all accepted and
    negatives all rejected."""
    rng = random.Random(1002)
    agree = pos_ok = neg_ok = 0
    n = 500
    for i in range(n):
        c = generate_quartic_dupin(random_quartic_seed(rng))
        prep = prepare(c, EXACT_POL)
        a = recognize_quartic_cases(prep, EXACT_POL)
        b = recognize_quartic_oracle(prep, EXACT_POL)
        agree += a.is_dupin == b.is_dupin
        pos_ok += a.is_dupin and b.is_dupin
        bad = prepare(perturb_off_variety(c, rng), EXACT_POL)
        a2 = recognize_quartic_cases(bad, EXACT_POL)
        b2 = recognize_quartic_oracle(bad, EXACT_POL)
        agree += a2.is_dupin == b2.is_dupin
        neg_ok += (not a2.is_dupin) and (not b2.is_dupin)
    ok = agree == 2 * n and pos_ok == n and neg_ok == n
    return ok, f"agreement {agree}/{2 * n}, positives {pos_ok}/{n}, negatives {neg_ok}/{n}"


def criterion_3_cubic_round_trip() -> tuple[bool, str]:
    """500 cubics from random rational (p,q) and motions: recognized Dupin
    and the unordered pair recovered exactly."""
    rng = random.Random(1003)
    good = 0
    n = 500
    for _ in range(n):
        p, q = random_fraction(rng), random_fraction(rng)
        c = generate_cubic_dupin(p, q, random_motion(rng))
        verdict = recognize(c, EXACT_POL)
        if not verdict.is_dupin:
            continue
        out = canonical_cubic_params(verdict.prepared, EXACT_POL)
        good += (out.p, out.q) == tuple(sorted((p, q)))
    return good == n, f"{good}/{n} exact pair recoveries"


def criterion_4_canonical_recovery() -> tuple[bool, str]:
    """200 generated quartics (rotations + translations): recovered squared
    parameters equal the seed multiset and agd^2 = s*t*u, exactly."""
    rng = random.Random(1004)
    good = 0
    n = 200
    for _ in range(n):
        seed = random_quartic_seed(rng, rescale=False)
        c = generate_quartic_dupin(seed)
        qp = canonical_quartic_params(spectral_data(prepare(c, EXACT_POL), EXACT_POL))
        ok = (sorted((qp.alpha_sq, qp.gamma_sq)) == sorted((seed.s, seed.t))
              and qp.delta_sq == seed.u
              and qp.agd * qp.agd == seed.s * seed.t * seed.u
              and qp.agd >= 0)
        good += ok
    return good == n, f"{good}/{n} exact parameter recoveries"


def criterion_5_j0_agreement_and_anchors() -> tuple[bool, str]:
    """Three J0 formulas agree on 200 smooth samples; anchor values."""
    rng = random.Random(1005)
    n = 200
    agree = 0
    for _ in range(n):
        prep = prepare(generate_quartic_dupin(
            random_quartic_seed(rng, smooth=True)), EXACT_POL)
        sd = spectral_data(prep, EXACT_POL)
        j = j0_quartic(prep, sd, EXACT_POL)  # raises FormulaDisagreement on split
        agree += j.kind == "finite"
    torus = prepare(TORUS21, EXACT_POL)
    sd = spectral_data(torus, EXACT_POL)
    torus_ok = j0_quartic(torus, sd, EXACT_POL).value == Fraction(3, 16)
    cubic_ok = j0_cubic(prepare(CUBIC22, EXACT_POL), EXACT_POL).value == Fraction(1, 4)
    dbl = prepare(DarbouxCoefficients.make(a0=1, c=(-2, -2, -2), f0=1), EXACT_POL)
    dbl_ok = j0_quartic(dbl, spectral_data(dbl, EXACT_POL), EXACT_POL).kind \
        == "minus_infinity"
    w = willmore_energy(j0_quartic(torus, sd, EXACT_POL), EXACT_POL)
    want = 4 * math.pi ** 2 / math.sqrt(3)
    willmore_ok = abs(w - want) <= 1e-12 * want
    ok = agree == n and torus_ok and cubic_ok and dbl_ok and willmore_ok
    return ok, (f"{agree}/{n} smooth agreements, torus 3/16 {torus_ok}, "
                f"cubic 1/4 {cubic_ok}, double-sphere -inf {dbl_ok}, "
                f"willmore {willmore_ok}")


GRID = (-2, -1, 0, 1, 2, 4)


def _figure_torus_label(r2: Fraction, R2: Fraction) -> SurfaceClass:
    """Expected label per the torus classification figure."""
    if 0 < r2 < R2:
        return SurfaceClass.SMOOTH_RING
    if r2 == R2 and r2 > 0:
        return SurfaceClass.HORN
    if r2 > R2 > 0:
        return SurfaceClass.SPINDLE
    if r2 == 0 and R2 > 0:
        return SurfaceClass.CIRCLE
    if r2 < 0 <= R2 or r2 < R2 < 0:
        return SurfaceClass.NO_REAL_POINTS
    if r2 > 0 and R2 == 0:
        return SurfaceClass.DOUBLE_SPHERE
    if r2 == R2 <= 0:
        return SurfaceClass.ONE_POINT
    # remaining: two points (r2 > 0 > R2, R2 < r2 <= 0)
    return SurfaceClass.TWO_POINTS


def criterion_6_classification_grid() -> tuple[bool, str]:
    """Tori over the (r^2, R^2) grid reproduce the figure labels through the
    induced spectral data."""
    bad = []
    for r2 in GRID:
        for R2 in GRID:
            want = _figure_torus_label(Fraction(r2), Fraction(R2))
            c = TorusSpec(Fraction(r2), Fraction(R2)).coefficients(exact=True)
            sd = spectral_data(prepare(c, EXACT_POL), EXACT_POL)
            got = classify_quartic(sd, EXACT_POL)
            if got != want:
                bad.append(((r2, R2), want.code, got.code))
    return not bad, ("all 36 cells match" if not bad else f"mismatches: {bad}")


def criterion_7_identity_suites() -> tuple[bool, str]:
    """Syzygies (with the ledgered K2/K3 sign convention) and weighted-degree
    homogeneity on 100 random rational tuples each."""
    rng = random.Random(1007)

    def rand_c(with_e=True):
        f = lambda: random_fraction(rng)
        return DarbouxCoefficients.make(
            a0=1, c=(f(), f(), f()), d=(f(), f(), f()),
            e=(f(), f(), f()) if with_e else (0, 0, 0), f0=f())

    checked = 0
    for _ in range(100):
        c = rand_c()
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
        checked += 1
    for _ in range(100):
        c = rand_c(with_e=False)
        inv = base_invariants(c)
        C0, W1, W2, f0 = inv.C0, inv.W1, inv.W2, c.f0
        y0, y1, y2, y3 = reduced_generators_e0(c, inv)
        assert -2 * C0 * y2 == 3 * y0 * (W1 + 4 * f0) \
            + (C0 ** 2 - 12 * W1 - 36 * f0) * y1
        assert -2 * C0 * y3 == (W2 - C0 * W1 + 8 * W2) * (y0 - 3 * y1) \
            - (C0 ** 2 - 3 * W1) * y2
        checked += 1
    for _ in range(100):
        c = rand_c()
        lam = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        g = quartic_generators(c)
        gs = quartic_generators(weighted_rescale(c, lam))
        for name, v in g.items():
            assert gs[name] == lam ** RESIDUAL_WEIGHTS[name] * v, name
        inv, invs = base_invariants(c), base_invariants(weighted_rescale(c, lam))
        for name, w in (("B0", 2), ("C0", 2), ("E0", 6), ("W1", 4),
                        ("W2", 6), ("W3", 4), ("W4", 8)):
            assert getattr(invs, name) == lam ** w * getattr(inv, name), name
        checked += 1
    return checked == 300, f"{checked}/300 identity batches"


def criterion_8_moebius_calibration() -> tuple[bool, str]:
    """Torus pair (1,2) <-> minor sqrt(3) and the alpha=2, gamma=1,
    delta=sqrt(2) cyclide calibrate to residual <= 1e-9; axis point and J0
    anchors hold."""
    rng = random.Random(1008)
    dual = TorusSpec(3, 4).coefficients(exact=True)
    pts = [tuple(map(float, p)) for p in sample_surface_points(dual, 50, rng)]
    q_torus = CanonicalQuartic(4.0, 0.0, 1.0, 0.0)
    m, report = calibrate_convention(q_torus, MOBT2, pts)
    img = m.apply((2.0 + math.sqrt(3.0), 0.0, 0.0))
    axis_ok = (abs(img[0] - 3.0) <= 1e-12 and img[1] == 0.0 and img[2] == 0.0)
    torus_ok = report.residual <= 1e-9 and axis_ok

    q_cyc = CanonicalQuartic(4.0, 1.0, 2.0, math.sqrt(8.0))
    r, R = torus_radii_inversive(q_cyc)
    src = TorusSpec(r * r, R * R).coefficients()
    pts2 = sample_surface_points(src.to_float(), 50, random.Random(10081))
    m2, report2 = calibrate_convention(q_cyc, MOBT, pts2)
    ratio_j0 = torus_radii(CanonicalQuartic(
        Fraction(4), Fraction(1), Fraction(2), Fraction(0))).j0()
    fpol = TolerancePolicy(FLOAT, 1e-9)
    cyc = prepare(q_cyc.coefficients(exact=False), fpol)
    j = j0_quartic(cyc, spectral_data(cyc, fpol), fpol)
    j0_ok = (ratio_j0 == Fraction(2, 9)
             and abs(float(j.value) - 2.0 / 9.0) <= 1e-9)
    cyc_ok = report2.residual <= 1e-9 and j0_ok
    detail = (f"torus pair residual {report.residual:.2e} axis {axis_ok}; "
              f"cyclide residual {report2.residual:.2e} J0 {j0_ok}")
    return torus_ok and cyc_ok, detail


def criterion_9_float_robustness() -> tuple[bool, str]:
    """100 exact generic Dupin samples: relative 1e-14 noise accepted in
    float mode, relative 1e-4 bump on f0 rejected.

    Samples are generic (smooth quartics and cubics): at deeply singular
    strata like the double sphere the defining equations are critical, so an
    f0 bump of size eps registers only as eps^2 and no polynomial test at
    tau = 1e-9 can see it (ledgered limitation)."""
    rng = random.Random(1009)
    fpol = TolerancePolicy(FLOAT, 1e-9)
    accepted = rejected = 0
    n = 100
    for i in range(n):
        if i % 3 == 2:
            p, q = random_fraction(rng, 5, 3), random_fraction(rng, 5, 3)
            c = generate_cubic_dupin(p, q, random_motion(rng))
        else:
            c = generate_quartic_dupin(random_quartic_seed(rng, smooth=True))
        noisy = c._make(float(v) * (1.0 + 1e-14 * rng.uniform(-1, 1)) for v in c)
        accepted += recognize(noisy, fpol).is_dupin
        f0 = float(c.f0)
        scale = max(abs(float(v)) for v in c)
        bumped = c.to_float().replace(f0=f0 + 1e-4 * max(abs(f0), scale))
        rejected += not recognize(bumped, fpol).is_dupin
    ok = accepted == n and rejected == n
    return ok, f"accepted {accepted}/{n}, rejected {rejected}/{n}"


CRITERIA = (
    (1, "torus R=2,r=1 reproduction", criterion_1_torus_reproduction, 5.0),
    (2, "case dispatch == 12-generator oracle (1000 inputs)",
     criterion_2_dispatch_vs_oracle, 30.0),
    (3, "cubic (p,q) round trip (500)", criterion_3_cubic_round_trip, 30.0),
    (4, "canonical quartic recovery (200)", criterion_4_canonical_recovery, 10.0),
    (5, "J0 triple agreement and anchors", criterion_5_j0_agreement_and_anchors, 10.0),
    (6, "torus classification grid", criterion_6_classification_grid, 1.0),
    (7, "syzygy and homogeneity identities", criterion_7_identity_suites, 5.0),
    (8, "Moebius calibration anchors", criterion_8_moebius_calibration, 5.0),
    (9, "float tolerance robustness", criterion_9_float_robustness, 5.0),
)


def run_all(verbose: bool = False) -> list[CriterionResult]:
    results = []
    for index, name, fn, budget in CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with its reason
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if elapsed > budget:
            passed = False
            detail += f" [over budget: {elapsed:.2f}s > {budget:.0f}s]"
        result = CriterionResult(index, name, passed, detail, elapsed, budget)
        results.append(result)
        if verbose:
            print(result.line(), flush=True)
    return results


if __name__ == "__main__":
    import sys
    out = run_all(verbose=True)
    sys.exit(0 if all(r.passed for r in out) else 1)
