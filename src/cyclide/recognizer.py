"""Top-level decision procedure.

Dispatch by degree, then the complete-intersection case logic for quartics,
the rational-target equalities for cubics, and the rotational-quadric test.
The 12-generator ideal cross-checks every exact quartic case decision:
`quartic_generators_vanish` tests the symmetric N1, N2, N3 first, then K, L
and M on the sigma-images (`core.sigma_images`, plain slot tuples) only when
every N vanishes, and stops at the first nonzero generator;
`recognize_quartic_oracle` reports all twelve.  The axis cases (a)-(c) take
their K, L and M on the same plain tuples, so no stage copies the input.

Every decision reads a {name: value} dict of residuals: `_first_witness`
picks the witness at the gauge, the first nonzero residual in the order the
dict is reported, and `_verdict` is the one rule (Dupin iff there is none)
and the one place a decided `Verdict` is built, once, with its final
values; `residuals_back` is the one way a dict of named residuals is taken
to the caller's scale, by the weights of `invariants.RESIDUAL_WEIGHTS` (an
exact one as Fraction(v, lam**w)).

`prepare` is the one place that decides an input's degree branch and gauges
it, and `Prepared.scale_back` the one way back: every stage after it, here
and in `canonical` and `classify`, runs on the one gauged copy and takes a
value of weighted degree w back to the caller's scale with scale_back(w).
Past the exact read of `prepare`, every zero test is a
`TolerancePolicy.is_zero` call with the size its value is measured against.
The branch is the highest degree with a nonzero slot, measured in float
mode against the largest coefficient, so it does not depend on the scale of
the equation.  Exact mode reads each slot once, as its int numerator and
denominator: that pass refuses a slot that is not an int or a Fraction,
after `ZeroInput`, and the zero test, the branch and `_lattice` read its
ints.  `_lattice` gauges in int arithmetic: every quantity is
weighted-homogeneous, so a weighted rescale by lam multiplies it by a
nonzero power of lam and leaves each zero test unchanged.  A quartic is
divided by a0, lam is the lcm of the reduced denominators (doubled when a
lattice b_i is odd) and a quartic copy with b != 0 is centred by
`normalize_quartic`.  `_float_gauge` takes float inputs to unit weighted
sup-norm, so one tolerance is scale-free; a quartic is normalized first, a
cubic or quadric divided by max |b| or max |c, d|.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .core import (DarbouxCoefficients, normalize_quartic, sigma_images,
                   weighted_rescale)
from .errors import InternalCheckError, PreconditionError, ZeroInput
from .invariants import (RESIDUAL_WEIGHTS, InvariantBundle, base_invariants,
                         cubic_forms, k_form, l_form, lm_scalars, m_form,
                         quadric_forms, quartic_generators,
                         quartic_generators_vanish, reduced_generators_e0)
from .scalar import EXACT, EXACT_ZERO, Scalar

DUPIN_QUARTIC = "DupinQuartic"
DUPIN_CUBIC = "DupinCubic"
DUPIN_QUADRIC = "DupinQuadric"
NOT_DUPIN = "NotDupin"
DEGENERATE = "DegenerateInput"

# degree branches of a prepared input
QUARTIC, CUBIC, QUADRIC, LINEAR = "quartic", "cubic", "quadric", "linear"
# the slot types of an exact input
_RATIONAL = (Fraction, int)

class TolerancePolicy(namedtuple("TolerancePolicy", "mode tau_rel exact")):
    """Zero-test authority: the only place tau_rel is compared.

    Exact mode: zero means literal zero, whatever the scale.  Float mode:
    value is zero iff |value| <= tau_rel * scale, where scale is the size
    the value is measured against.  At unit gauge (`prepare` rescales every
    float input to unit weighted sup-norm) that size is 1, the default;
    callers testing a value off the gauge, or with a looser constant, pass
    its scale and constant together as `scale`.

    An immutable record, equal and hashable by value; the third field,
    exact = (mode == EXACT), is stored when the policy is built from mode
    and tau_rel, which is also how `_make`, `_replace` and copies build it.
    """

    __slots__ = ()

    def __new__(cls, mode: str = EXACT, tau_rel: float = 1e-9):
        return tuple.__new__(cls, (mode, tau_rel, mode == EXACT))

    def __getnewargs__(self):
        return self[:2]

    @classmethod
    def _make(cls, fields):
        mode, tau_rel, _ = fields
        return cls(mode, tau_rel)

    def is_zero(self, value: Scalar, scale: Scalar = 1) -> bool:
        if self.exact:
            return value == 0
        return abs(value) <= self.tau_rel * scale

    def nonzero(self, value: Scalar, scale: Scalar = 1) -> bool:
        if self.exact:
            return value != 0
        return not abs(value) <= self.tau_rel * scale

    def div(self, num: Scalar, den: Scalar) -> Scalar:
        """num / den, as rationals in exact mode (int operands stay exact)."""
        return Fraction(num, den) if self.exact else num / den


class Prepared(namedtuple("Prepared", "branch work scale inv zero_point",
                          defaults=(None, 1, None, False))):
    """One input c, prepared once by `prepare` for every stage: `work` is
    the gauged copy every stage runs on and `inv` its invariant bundle;
    `zero_point` marks a float quartic that cancels to rounding noise at
    its own scale (`_is_zero_point`).  A quantity of weighted degree w is
    its value on work times `scale_back(w)`, the one way back: on
    normalize_quartic(c) for a quartic; on c for an exact cubic or
    quadric, and on c divided by max |b| or max |c, d| for a float one.
    An exact work is on the integer lattice with scale = 1/lam."""

    __slots__ = ()

    def scale_back(self, w: int) -> Scalar:
        """scale**w, the factor taking a value of weight w at the gauge back
        to the caller's scale; an even power squares the scale first."""
        s = self.scale
        return (s * s) ** (w // 2) if w % 2 == 0 else s ** w


class Verdict(namedtuple("Verdict", "kind case_label witness residuals notes prepared",
                         defaults=(None, None, {}, (), None))):
    """The decision on one input, an immutable record built once with its
    final values: the kind, the case label, the witness (name, value) of
    the first nonzero residual or None, the {name: value} residuals at the
    caller's scale, a tuple of notes, and the `Prepared` form decided on,
    which the later stages read.  Equal by value, prepared included."""

    __slots__ = ()

    @property
    def is_dupin(self) -> bool:
        return self.kind in (DUPIN_QUARTIC, DUPIN_CUBIC, DUPIN_QUADRIC)


def weighted_sup_norm(c: DarbouxCoefficients) -> float:
    """max |slot|^(1/w) over the slots of weight w > 0 (`SLOT_WEIGHTS`):
    |b_i|, |c_i|^1/2, |d_i|^1/2, |e_i|^1/3, |f0|^1/4.  One root per weight,
    of its largest |slot|: pow is monotone in its base, so that is the
    same float as the largest of the roots."""
    size = list(map(abs, map(float, c)))
    return max(max(size[1:4]), max(size[4:10]) ** 0.5,
               max(size[10:13]) ** (1.0 / 3), size[13] ** 0.25)


def _float_gauge(c: DarbouxCoefficients, branch: str, pol: TolerancePolicy):
    """(work, scale, zero point?) of a float input, the zero point False
    for a cubic or quadric; see the module docstring.  A quartic is divided
    by a0 once, for its normalization and its zero-point test; a cubic or
    quadric scale omits that division."""
    # the leading slots above the input's degree, zeroed at the gauge
    zeroed, zero_point = 0, False
    if branch == QUARTIC:
        a0 = float(c.a0)
        divided = c._make([float(v) / a0 for v in c])
        c = normalize_quartic(divided)
        zero_point = _is_zero_point(c, divided, pol)
    else:
        zeroed = 1 if branch == CUBIC else 4
        top = max(map(abs, map(float, c[1:4] if zeroed == 1 else c[4:10])))
        c = c._make([float(v) / top for v in c])
    s = weighted_sup_norm(c)
    if s == 0:
        return c, 1.0, zero_point
    work = weighted_rescale(c, 1.0 / s)
    if zeroed:
        work = work._make((0.0,) * zeroed + work[zeroed:])
    return work, s, zero_point


def _lattice(c: DarbouxCoefficients, den: int, ints: list[int], branch: str):
    """(work, 1/lam) of exact c, in ints, from ints N = c times den, den
    the lcm of the slots' denominators; see the module docstring.  The
    slots of the surface N are N_i/Q with Q = N_0 for a quartic (divided by
    a0) and Q = den otherwise, so the lcm of their reduced denominators is
    lam = |Q|/G with G = gcd(Q, N), and a slot of weight w >= 1 is
    sign(Q) * N_i/G * lam^(w-1) on the lattice.  A doubled lam makes the
    centring shift -b/2 of a quartic integral too; a lattice quartic with
    b = 0 is centred already."""
    quartic = branch == QUARTIC
    q = ints[0] if quartic else den
    g = math.gcd(q, *ints)
    lam = abs(q) // g
    unit = g if q > 0 else -g
    # the slots b..f0 divided by lam^(w-1), w their weight
    _, b1, b2, b3, c1, c2, c3, d1, d2, d3, e1, e2, e3, f0 = [n // unit for n in ints]
    k = 2 if quartic and (b1 % 2 or b2 % 2 or b3 % 2) else 1
    lam *= k
    p2 = k * lam                 # k * lam^(w-1) for w = 2, 3, 4
    p3 = p2 * lam
    p4 = p3 * lam
    work = c._make((int(quartic), b1 * k, b2 * k, b3 * k, c1 * p2, c2 * p2, c3 * p2,
                    d1 * p2, d2 * p2, d3 * p2, e1 * p3, e2 * p3, e3 * p3, f0 * p4))
    if quartic and (b1 or b2 or b3):
        work = normalize_quartic(work)
    return work, Fraction(1, lam)


def prepare(c: DarbouxCoefficients, pol: TolerancePolicy) -> Prepared:
    """Degree branch, normalization, gauge and invariant bundle of one input;
    see the module docstring."""
    if pol.exact:
        # the one read of each slot, as its int (numerator, denominator); a
        # slot of another type drops out here and is refused after ZeroInput
        ratios = [v.as_integer_ratio() for v in c if isinstance(v, _RATIONAL)]
        # c times den = lcm(d): the same surface in ints; a zero slot, d = 1,
        # is left out of the lcm and the products
        den = math.lcm(*[d for n, d in ratios if n])
        ints = [n * (den // d) if n else 0 for n, d in ratios]
        refused = len(ints) < len(c)
        if not any(c if refused else ints):
            raise ZeroInput("all fourteen coefficients vanish")
        if refused:
            raise PreconditionError("exact mode requires int or Fraction coefficients")
        branch = (QUARTIC if ints[0] else CUBIC if any(ints[1:4])
                  else QUADRIC if any(ints[4:10]) else LINEAR)
    else:
        if not any(c):
            raise ZeroInput("all fourteen coefficients vanish")
        sup = max(map(abs, map(float, c)))
        zero = lambda v: pol.is_zero(v, sup)
        branch = (QUARTIC if not zero(c.a0) else CUBIC if not all(map(zero, c.b))
                  else QUADRIC if not all(map(zero, (*c.c, *c.d))) else LINEAR)
    if branch == LINEAR:
        return Prepared(LINEAR)
    work, scale, zero_point = ((*_lattice(c, den, ints, branch), False) if pol.exact
                               else _float_gauge(c, branch, pol))
    inv = None if branch == QUADRIC else base_invariants(work)
    return Prepared(branch, work, scale, inv, zero_point)


def recognize(c: DarbouxCoefficients, pol: TolerancePolicy) -> Verdict:
    """Dispatch: quartic / cubic / quadric / degenerate, then decide.  The
    verdict carries the prepared input for the later stages."""
    p = prepare(c, pol)
    if p.zero_point:
        # everything cancelled to rounding noise at the input's own
        # scale: the surface is the double point rho^4 = 0 within
        # tolerance, and the gauged leftovers would only amplify noise
        return Verdict(DUPIN_QUARTIC, "d", None, {"W1+4f0": 0.0, "W2-C0W1": 0.0},
                       ("zero point within tolerance",), p)
    if p.branch == QUARTIC:
        return recognize_quartic_cases(p, pol)
    if p.branch == CUBIC:
        return recognize_cubic(p, pol)
    if p.branch == QUADRIC:
        return recognize_quadric(p, pol)
    return Verdict(DEGENERATE, "none", None, {},
                   ("degree <= 1: plane, point or empty; out of scope",), p)


def _is_zero_point(cn: DarbouxCoefficients, divided: DarbouxCoefficients,
                   pol: TolerancePolicy) -> bool:
    """Every normalized coefficient cn below tolerance at the weighted scale
    of the a0-divided float input (b included, weight 1)."""
    s = max(weighted_sup_norm(divided), 1.0)
    return (all(pol.is_zero(v, s * s) for v in (*cn.c, *cn.d))
            and all(pol.is_zero(v, s ** 3) for v in cn.e)
            and pol.is_zero(cn.f0, s ** 4))


def _first_witness(res: dict[str, Scalar], pol: TolerancePolicy,
                   scales: dict[str, Scalar] | None = None):
    """(name, value) of the first residual of res that is nonzero under pol,
    each measured against its size in scales (1 when scales is None), or
    None when every residual vanishes."""
    for name, value in res.items():
        if pol.nonzero(value, 1 if scales is None else scales[name]):
            return (name, value)
    return None


def _verdict(p: Prepared, pol: TolerancePolicy, dupin: str, label: str,
             res: dict[str, Scalar], witness, notes=()) -> Verdict:
    """The one decision rule: kind `dupin` when witness, the first nonzero
    residual of res at p's gauge (`_first_witness`), is None, else NotDupin;
    the residuals and the witness are taken to the caller's scale by
    `residuals_back`."""
    res = residuals_back(res, p, pol)
    if witness is not None:
        witness = (witness[0], res[witness[0]])
    return Verdict(dupin if witness is None else NOT_DUPIN, label, witness, res, notes, p)


def residuals_back(res: dict[str, Scalar], p: Prepared,
                   pol: TolerancePolicy) -> dict[str, Scalar]:
    """Named residuals at the caller's scale: an exact residual of weight w
    (`RESIDUAL_WEIGHTS`) times p.scale_back(w); float residuals as given,
    at the gauge."""
    if not pol.exact:
        return res
    # an exact scale is 1/lam, so v * scale_back(w) is v / lam**w: one int
    # power and one Fraction; a zero residual is zero at every scale
    lam = p.scale.denominator
    return {name: Fraction(v, lam ** RESIDUAL_WEIGHTS[name]) if v else EXACT_ZERO
            for name, v in res.items()}


def recognize_quartic_cases(p: Prepared, pol: TolerancePolicy) -> Verdict:
    """First applicable case of the complete-intersection stratification.

    (a) e1 != 0: K2, K3, L1, M1.   (b) e2 != 0: K1, K3, L2, M2.
    (c) e3 != 0: K1, K2, L3, M3.   (d)-(f): the e = 0 strata.
    Float-mode axis guards that barely fire fall through to (d)-(f) as well,
    so there is no cliff at the e = 0 boundary.  p is a prepared quartic.
    """
    verdict = _quartic_case_verdict(p, pol)
    # dispatch == oracle is a theorem of the exact ideal; float noise shifts
    # the two test families differently near the variety, so the automatic
    # self-check runs in exact mode only, on the lattice copy, and stops at
    # the first generator that does not vanish
    if pol.exact and quartic_generators_vanish(p.work, p.inv) != verdict.is_dupin:
        oracle = NOT_DUPIN if verdict.is_dupin else DUPIN_QUARTIC
        raise InternalCheckError(
            f"case dispatch says {verdict.kind} but 12-generator oracle says "
            f"{oracle} (case {verdict.case_label}, witness {verdict.witness})")
    return verdict


# axis case label -> (axis i, the other two axes j < k, the names of the
# residuals K_j, K_k, L_i, M_i), axes counted from 0
_AXIS_CASES = {"a": (0, 1, 2, ("K2", "K3", "L1", "M1")),
               "b": (1, 0, 2, ("K1", "K3", "L2", "M2")),
               "c": (2, 0, 1, ("K1", "K2", "L3", "M3"))}


def _axis_case_residuals(c: DarbouxCoefficients, label: str,
                         inv: InvariantBundle) -> dict[str, Scalar]:
    """Residuals of the axis case i = 1, 2, 3 (label a, b, c): the K forms of
    the other two axes, then L_i and M_i, each on the sigma-image of c that
    `core.sigma_images` gives for its axis; inv = base_invariants(c), whose
    symmetric scalars serve every image."""
    i, j, k, names = _AXIS_CASES[label]
    images = sigma_images(c)
    C0, w14, h = lm_scalars(c, inv)
    return dict(zip(names, (k_form(images[j]), k_form(images[k]),
                            l_form(images[i], C0, w14), m_form(images[i], w14, h))))


def _e0_case_residuals(c: DarbouxCoefficients, label: str,
                       inv: InvariantBundle) -> dict[str, Scalar]:
    """Residuals of the e = 0 strata (d), (e), (f); precondition e = 0 and
    inv = base_invariants of c, or of c with any e (only C0, W1, W2 are read)."""
    if label == "d":
        return {"W1+4f0": inv.W1 + 4 * c.f0, "W2-C0W1": inv.W2 - inv.C0 * inv.W1}
    if label == "e":
        y0, y1, _, _ = reduced_generators_e0(c, inv)
        return {"Y0": y0, "Y1": y1}
    return {"W1+3f0": inv.W1 + 3 * c.f0,
            "(W2-C0W1)^2-4f0^3": (inv.W2 - inv.C0 * inv.W1) ** 2 - 4 * c.f0 ** 3}


def _quartic_case_verdict(p: Prepared, pol: TolerancePolicy) -> Verdict:
    """The case decision on p.work, built once: each stratum tried picks its
    witness at the gauge, and only the one decided on becomes the verdict."""
    c, inv = p.work, p.inv
    for label, guard in zip("abc", c.e):
        if not pol.nonzero(guard):
            continue
        res = _axis_case_residuals(c, label, inv)
        witness = _first_witness(res, pol)
        if witness is None or pol.exact or not _near_e_zero(c, pol):
            return _verdict(p, pol, DUPIN_QUARTIC, label, res, witness)
        break  # borderline float guard: give the e = 0 strata a chance too

    ce = c if pol.exact else c.replace(e1=0.0, e2=0.0, e3=0.0)
    label = "d"
    res = _e0_case_residuals(ce, label, inv)
    witness = _first_witness(res, pol)
    if witness is not None:
        label = "e" if pol.nonzero(inv.C0) else "f"
        res = _e0_case_residuals(ce, label, inv)
        witness = _first_witness(res, pol)
    return _verdict(p, pol, DUPIN_QUARTIC, label, res, witness)


def _near_e_zero(c: DarbouxCoefficients, pol: TolerancePolicy) -> bool:
    """True when every e_i is within 10^3*tau of zero: the axis guard is then
    borderline and the e = 0 strata are tried as a second route."""
    return all(pol.is_zero(float(v), 1e3) for v in c.e)


def recognize_quartic_oracle(p: Prepared, pol: TolerancePolicy) -> Verdict:
    """Dupin iff all 12 ideal generators vanish under the policy; p is a
    prepared quartic."""
    res = quartic_generators(p.work)
    return _verdict(p, pol, DUPIN_QUARTIC, "none", res, _first_witness(res, pol))


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
    return _verdict(p, pol, DUPIN_CUBIC, "none", res, _first_witness(res, pol, scales))


def recognize_quadric(p: Prepared, pol: TolerancePolicy) -> Verdict:
    """Dupin-as-quadric iff the quadratic part is rotational (seven forms
    vanish) and the extended matrix is singular (det Phat = 0).

    The two bits are reported separately in the notes, read off the
    witness: the seven forms come before detPhat, so a detPhat witness is a
    smooth rotational quadric.  p is a prepared quadric.
    """
    res = quadric_forms(p.work)
    witness = _first_witness(res, pol)
    if witness is None:
        notes = ("rotational", "singular")
    elif witness[0] == "detPhat":
        notes = ("smooth rotational quadric",)
    else:
        singular = pol.is_zero(res["detPhat"])
        notes = ("singular" if singular else "nonsingular", "not rotational")
    return _verdict(p, pol, DUPIN_QUADRIC, "none", res, witness, notes)
