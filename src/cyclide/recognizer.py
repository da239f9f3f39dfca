"""Top-level decision procedure.

Dispatch by degree, then the complete-intersection case logic for quartics,
the rational-target equalities for cubics, and the rotational-quadric test.
A 12-generator oracle cross-checks every exact quartic case decision.

Every decision reads a {name: value} dict of residuals: `_verdict` is the
one rule (Dupin iff `_first_witness` finds no nonzero residual, in the order
the dict is reported), and `residuals_back` the one way a dict of named
residuals is taken to the caller's scale, by the weights of
`invariants.RESIDUAL_WEIGHTS`.

`prepare` is the one place that decides an input's degree branch and gauges
it, and `Prepared.scale_back` the one way back: every stage after it, here
and in `canonical` and `classify`, runs on the one gauged copy and takes a
value of weighted degree w back to the caller's scale with scale_back(w).
Every zero test is a `TolerancePolicy.is_zero` call with the size its value
is measured against.  The branch is the highest degree with a nonzero slot,
measured in float mode against the largest coefficient, so it does not
depend on the scale of the equation.  Exact mode refuses float coefficients
and never converts one to float; `_lattice` puts every degree onto the
integer lattice in one pass of int arithmetic from the parsed numerators and
denominators: every quantity is weighted-homogeneous, so a weighted rescale
by lam multiplies it by a nonzero power of lam and leaves each zero test
unchanged.  A quartic is divided by a0 slot by slot, lam is the lcm of the
reduced denominators (doubled when a lattice b_i is odd) and the quartic
copy is centred by `normalize_quartic`.  `_float_gauge` takes float inputs
to unit weighted sup-norm, so one tolerance is scale-free; a quartic is
normalized first, a cubic or quadric divided by max |b| or max |c, d|.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (SLOT_WEIGHTS, DarbouxCoefficients, normalize_quartic,
                   sigma_orbit, weighted_rescale)
from .errors import InternalCheckError, PreconditionError, ZeroInput
from .invariants import (RESIDUAL_WEIGHTS, InvariantBundle, base_invariants,
                         cubic_forms, k_form, l_form, m_form, quadric_forms,
                         quartic_generators, reduced_generators_e0)
from .scalar import EXACT, Scalar

DUPIN_QUARTIC = "DupinQuartic"
DUPIN_CUBIC = "DupinCubic"
DUPIN_QUADRIC = "DupinQuadric"
NOT_DUPIN = "NotDupin"
DEGENERATE = "DegenerateInput"

# degree branches of a prepared input
QUARTIC, CUBIC, QUADRIC, LINEAR = "quartic", "cubic", "quadric", "linear"

@dataclass(frozen=True)
class TolerancePolicy:
    """Zero-test authority: the only place tau_rel is compared.

    Exact mode: zero means literal zero, whatever the scale.  Float mode:
    value is zero iff |value| <= tau_rel * scale, where scale is the size
    the value is measured against.  At unit gauge (`prepare` rescales every
    float input to unit weighted sup-norm) that size is 1, the default;
    callers testing a value off the gauge, or with a looser constant, pass
    its scale and constant together as `scale`.
    """

    mode: str = EXACT
    tau_rel: float = 1e-9

    @property
    def exact(self) -> bool:
        return self.mode == EXACT

    def is_zero(self, value: Scalar, scale: Scalar = 1) -> bool:
        if self.exact:
            return value == 0
        return abs(value) <= self.tau_rel * scale

    def nonzero(self, value: Scalar, scale: Scalar = 1) -> bool:
        return not self.is_zero(value, scale)

    def div(self, num: Scalar, den: Scalar) -> Scalar:
        """num / den, as rationals in exact mode (int operands stay exact)."""
        return Fraction(num, den) if self.exact else num / den


@dataclass(frozen=True)
class Prepared:
    """One input, prepared once by `prepare` for every stage: `raw` is the
    input, `work` the gauged copy every stage runs on and `inv` its
    invariant bundle.  A quantity of weighted degree w is its value on work
    times `scale_back(w)`, the one way back: on `normalized` for a quartic;
    on `raw` for an exact cubic or quadric, and on `raw` divided by max |b|
    or max |c, d| for a float one.  An exact work is on the integer lattice
    with scale = 1/lam."""

    raw: DarbouxCoefficients
    branch: str
    work: Optional[DarbouxCoefficients] = None
    scale: Scalar = 1
    inv: Optional[InvariantBundle] = None
    # normalize_quartic(raw) of a float quartic; exact mode derives it
    float_normalized: Optional[DarbouxCoefficients] = None

    def scale_back(self, w: int) -> Scalar:
        """scale**w, the factor taking a value of weight w at the gauge back
        to the caller's scale; an even power squares the scale first."""
        s = self.scale
        return (s * s) ** (w // 2) if w % 2 == 0 else s ** w

    @property
    def normalized(self) -> Optional[DarbouxCoefficients]:
        """normalize_quartic(raw) for a quartic, else None; in exact mode
        the lattice copy taken back to the caller's scale, as Fractions."""
        if self.branch != QUARTIC or self.float_normalized is not None:
            return self.float_normalized
        return self.work._make(v * self.scale_back(w)
                               for v, w in zip(self.work, SLOT_WEIGHTS))


@dataclass
class Verdict:
    kind: str
    case_label: Optional[str] = None
    witness: Optional[Tuple[str, Scalar]] = None
    residuals: Dict[str, Scalar] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    # the form recognize decided on, for the later stages
    prepared: Optional[Prepared] = field(default=None, repr=False, compare=False)

    @property
    def is_dupin(self) -> bool:
        return self.kind in (DUPIN_QUARTIC, DUPIN_CUBIC, DUPIN_QUADRIC)


def weighted_sup_norm(c: DarbouxCoefficients) -> float:
    """max |slot|^(1/w) over the slots of weight w > 0 (`SLOT_WEIGHTS`):
    |b_i|, |c_i|^1/2, |d_i|^1/2, |e_i|^1/3, |f0|^1/4."""
    return max(abs(float(v)) ** (1.0 / w) for v, w in zip(c, SLOT_WEIGHTS) if w)


def _float_gauge(c: DarbouxCoefficients, branch: str):
    """(work, scale, normalize_quartic(c)) of a float quartic, (work, scale,
    None) of a cubic or quadric; see the module docstring.  A cubic or
    quadric scale omits the first division."""
    zeroed, cn = {}, None
    if branch == QUARTIC:
        c = cn = normalize_quartic(c)
    else:
        cubic = branch == CUBIC
        top = max(abs(float(v)) for v in (c.b if cubic else (*c.c, *c.d)))
        c = c._make(float(v) / top for v in c)
        # the slots above the input's degree are zero within tolerance
        zeroed = dict.fromkeys(("a0",) if cubic else ("a0", "b1", "b2", "b3"), 0.0)
    s = weighted_sup_norm(c)
    if s == 0:
        return c, 1.0, cn
    work = weighted_rescale(c, 1.0 / s)
    return (work.replace(**zeroed) if zeroed else work), s, cn


def _lattice(c: DarbouxCoefficients, branch: str):
    """(work, 1/lam, None) of exact c, in ints; see the module docstring.
    Each slot is reduced to n/d by one gcd; a doubled lam makes the
    centring shift -b/2 of a quartic integral too."""
    quartic = branch == QUARTIC
    na, da = (c.a0.numerator, c.a0.denominator) if quartic else (1, 1)
    if na < 0:
        na, da = -na, -da
    nums, dens = [], []
    for v in c:
        n, d = v.numerator * da, v.denominator * na
        g = math.gcd(n, d)
        nums.append(n // g)
        dens.append(d // g)
    lam = math.lcm(*dens)
    if quartic and any(n * (lam // d) % 2 for n, d in zip(nums[1:4], dens[1:4])):
        lam *= 2
    l2 = lam * lam
    power = (1, lam, l2, l2 * lam, l2 * l2)
    work = c._make(n * (power[w] // d) for n, d, w in zip(nums, dens, SLOT_WEIGHTS))
    return (normalize_quartic(work) if quartic else work), Fraction(1, lam), None


def prepare(c: DarbouxCoefficients, pol: TolerancePolicy) -> Prepared:
    """Degree branch, normalization, gauge and invariant bundle of one input;
    see the module docstring."""
    if all(v == 0 for v in c):
        raise ZeroInput("all fourteen coefficients vanish")
    if pol.exact and not c.is_exact():
        raise PreconditionError("exact mode requires int or Fraction coefficients")
    sup = 1 if pol.exact else max(abs(float(v)) for v in c)
    zero = lambda v: pol.is_zero(v, sup)
    if not zero(c.a0):
        branch = QUARTIC
    elif not all(map(zero, c.b)):
        branch = CUBIC
    elif not all(map(zero, (*c.c, *c.d))):
        branch = QUADRIC
    else:
        return Prepared(c, LINEAR)
    work, scale, cn = (_lattice if pol.exact else _float_gauge)(c, branch)
    inv = None if branch == QUADRIC else base_invariants(work)
    return Prepared(c, branch, work, scale, inv, cn)


def recognize(c: DarbouxCoefficients, pol: TolerancePolicy) -> Verdict:
    """Dispatch: quartic / cubic / quadric / degenerate, then decide.  The
    verdict carries the prepared input for the later stages."""
    p = prepare(c, pol)
    if p.branch == QUARTIC and not pol.exact and _is_zero_point(p.normalized, p.raw, pol):
        # everything cancelled to rounding noise at the input's own
        # scale: the surface is the double point rho^4 = 0 within
        # tolerance, and the gauged leftovers would only amplify noise
        verdict = Verdict(kind=DUPIN_QUARTIC, case_label="d",
                          residuals={"W1+4f0": 0.0, "W2-C0W1": 0.0},
                          notes=["zero point within tolerance"])
    elif p.branch == QUARTIC:
        verdict = recognize_quartic_cases(p, pol)
    elif p.branch == CUBIC:
        verdict = recognize_cubic(p, pol)
    elif p.branch == QUADRIC:
        verdict = recognize_quadric(p, pol)
    else:
        verdict = Verdict(kind=DEGENERATE, case_label="none",
                          notes=["degree <= 1: plane, point or empty; out of scope"])
    verdict.prepared = p
    return verdict


def _is_zero_point(cn: DarbouxCoefficients, original: DarbouxCoefficients,
                   pol: TolerancePolicy) -> bool:
    """Every normalized coefficient below tolerance at the weighted scale of
    the a0-divided input (b included, weight 1)."""
    a0 = float(original.a0)
    divided = original._make(float(v) / a0 for v in original)
    s = max(weighted_sup_norm(divided), 1.0)
    return (all(pol.is_zero(float(v), s * s) for v in (*cn.c, *cn.d))
            and all(pol.is_zero(float(v), s ** 3) for v in cn.e)
            and pol.is_zero(float(cn.f0), s ** 4))


def _first_witness(res: Dict[str, Scalar], pol: TolerancePolicy,
                   scales: Optional[Dict[str, Scalar]] = None):
    """(name, value) of the first residual of res that is nonzero under pol,
    each measured against its size in scales (1 when scales is None), or
    None when every residual vanishes."""
    for name, value in res.items():
        if pol.nonzero(value, 1 if scales is None else scales[name]):
            return (name, value)
    return None


def _verdict(res: Dict[str, Scalar], pol: TolerancePolicy, dupin: str,
             label: str = "none",
             scales: Optional[Dict[str, Scalar]] = None) -> Verdict:
    """The one decision rule: kind `dupin` when no residual of res is a
    witness, else NotDupin with the first witness."""
    witness = _first_witness(res, pol, scales)
    return Verdict(kind=dupin if witness is None else NOT_DUPIN,
                   case_label=label, witness=witness, residuals=res)


def residuals_back(res: Dict[str, Scalar], p: Prepared,
                   pol: TolerancePolicy) -> Dict[str, Scalar]:
    """Named residuals at the caller's scale: an exact residual of weight w
    (`RESIDUAL_WEIGHTS`) times p.scale_back(w); float residuals as given,
    at the gauge."""
    if not pol.exact:
        return res
    # a zero residual is zero at every scale
    return {name: v * p.scale_back(RESIDUAL_WEIGHTS[name]) if v else Fraction(0)
            for name, v in res.items()}


def _ungauge(verdict: Verdict, p: Prepared, pol: TolerancePolicy) -> Verdict:
    """The verdict's residuals and witness by `residuals_back`."""
    verdict.residuals = residuals_back(verdict.residuals, p, pol)
    if verdict.witness is not None:
        name = verdict.witness[0]
        verdict.witness = (name, verdict.residuals[name])
    return verdict


def recognize_quartic_cases(p: Prepared, pol: TolerancePolicy) -> Verdict:
    """First applicable case of the complete-intersection stratification.

    (a) e1 != 0: K2, K3, L1, M1.   (b) e2 != 0: K1, K3, L2, M2.
    (c) e3 != 0: K1, K2, L3, M3.   (d)-(f): the e = 0 strata.
    Float-mode axis guards that barely fire fall through to (d)-(f) as well,
    so there is no cliff at the e = 0 boundary.  p is a prepared quartic.
    """
    verdict = _ungauge(_quartic_case_verdict(p.work, pol, p.inv), p, pol)
    # dispatch == oracle is a theorem of the exact ideal; float noise shifts
    # the two test families differently near the variety, so the automatic
    # self-check runs in exact mode only
    if pol.exact:
        oracle = _oracle_verdict(p.work, pol)
        if oracle.is_dupin != verdict.is_dupin:
            raise InternalCheckError(
                f"case dispatch says {verdict.kind} but 12-generator oracle says "
                f"{oracle.kind} (case {verdict.case_label}, witness {verdict.witness})")
    return verdict


def _axis_case_residuals(c: DarbouxCoefficients, label: str,
                         inv: InvariantBundle) -> Dict[str, Scalar]:
    """Residuals of the axis case i = 1, 2, 3 (label a, b, c): the K forms of
    the other two axes, then L_i and M_i, each on the sigma-orbit of c;
    inv = base_invariants(c), which serves the whole orbit."""
    i = "abc".index(label)
    orbit = sigma_orbit(c)
    res = {f"K{j + 1}": k_form(cc) for j, cc in enumerate(orbit) if j != i}
    res[f"L{i + 1}"] = l_form(orbit[i], inv)
    res[f"M{i + 1}"] = m_form(orbit[i], inv)
    return res


def _e0_case_residuals(c: DarbouxCoefficients, label: str,
                       inv: InvariantBundle) -> Dict[str, Scalar]:
    """Residuals of the e = 0 strata (d), (e), (f); precondition e = 0 and
    inv = base_invariants of c, or of c with any e (only C0, W1, W2 are read)."""
    if label == "d":
        return {"W1+4f0": inv.W1 + 4 * c.f0, "W2-C0W1": inv.W2 - inv.C0 * inv.W1}
    if label == "e":
        y0, y1, _, _ = reduced_generators_e0(c, inv)
        return {"Y0": y0, "Y1": y1}
    return {"W1+3f0": inv.W1 + 3 * c.f0,
            "(W2-C0W1)^2-4f0^3": (inv.W2 - inv.C0 * inv.W1) ** 2 - 4 * c.f0 ** 3}


def _quartic_case_verdict(c: DarbouxCoefficients, pol: TolerancePolicy,
                          inv: InvariantBundle) -> Verdict:
    """The case decision on c as given; inv = base_invariants(c)."""
    for label, guard in zip("abc", c.e):
        if not pol.nonzero(guard):
            continue
        verdict = _verdict(_axis_case_residuals(c, label, inv), pol, DUPIN_QUARTIC, label)
        if verdict.is_dupin or pol.exact or not _near_e_zero(c, pol):
            return verdict
        break  # borderline float guard: give the e = 0 strata a chance too

    ce = c if pol.exact else c.replace(e1=0.0, e2=0.0, e3=0.0)
    verdict = _verdict(_e0_case_residuals(ce, "d", inv), pol, DUPIN_QUARTIC, "d")
    if verdict.is_dupin:
        return verdict
    label = "e" if pol.nonzero(inv.C0) else "f"
    return _verdict(_e0_case_residuals(ce, label, inv), pol, DUPIN_QUARTIC, label)


def _near_e_zero(c: DarbouxCoefficients, pol: TolerancePolicy) -> bool:
    """True when every e_i is within 10^3*tau of zero: the axis guard is then
    borderline and the e = 0 strata are tried as a second route."""
    return all(pol.is_zero(float(v), 1e3) for v in c.e)


def recognize_quartic_oracle(p: Prepared, pol: TolerancePolicy) -> Verdict:
    """Dupin iff all 12 ideal generators vanish under the policy; p is a
    prepared quartic."""
    return _ungauge(_oracle_verdict(p.work, pol), p, pol)


def _oracle_verdict(c: DarbouxCoefficients, pol: TolerancePolicy) -> Verdict:
    return _verdict(quartic_generators(c), pol, DUPIN_QUARTIC)


def recognize_cubic(p: Prepared, pol: TolerancePolicy) -> Verdict:
    """Dupin iff 4e_i = E_i for i = 1..3 and f0 equals its rational target;
    compared after clearing the B0 powers.  p is a prepared cubic.  Float
    mode refuses a B0^4 that underflows at the gauge (b tiny next to f0)."""
    pairs = cubic_forms(p.work, p.inv)
    b0 = p.inv.B0
    if not pol.exact and b0 ** 4 < sys.float_info.min:
        raise PreconditionError(
            f"B0^4 = {b0 ** 4} at the gauge is below the normal float range; "
            "use exact mode")
    res = {name: lhs - rhs for name, (lhs, rhs) in pairs.items()}
    # cleared equalities, measured against their own clearing factor:
    # |lhs - rhs| <= tau * max(4 B0^k, |lhs|, |rhs|) is the relative test of
    # the uncleared equality, evaluated without a division
    floors = (4 * b0 ** 3,) * 3 + (4 * b0 ** 4,)
    scales = {name: max(abs(floor), abs(lhs), abs(rhs))
              for (name, (lhs, rhs)), floor in zip(pairs.items(), floors)}
    return _ungauge(_verdict(res, pol, DUPIN_CUBIC, scales=scales), p, pol)


def recognize_quadric(p: Prepared, pol: TolerancePolicy) -> Verdict:
    """Dupin-as-quadric iff the quadratic part is rotational (seven forms
    vanish) and the extended matrix is singular (det Phat = 0).

    The two bits are reported separately in the notes, read off the
    witness: the seven forms come before detPhat, so a detPhat witness is a
    smooth rotational quadric.  p is a prepared quadric.
    """
    verdict = _verdict(quadric_forms(p.work), pol, DUPIN_QUADRIC)
    if verdict.witness is None:
        verdict.notes = ["rotational", "singular"]
    elif verdict.witness[0] == "detPhat":
        verdict.notes = ["smooth rotational quadric"]
    else:
        singular = pol.is_zero(verdict.residuals["detPhat"])
        verdict.notes = ["singular" if singular else "nonsingular", "not rotational"]
    return _ungauge(verdict, p, pol)
