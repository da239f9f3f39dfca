"""Canonical-form data recovery for recognized Dupin cyclides.

Quartics: the distinguished eigenvalue A1 (pinned by the eigenvector role of
e when e != 0), the remaining pair (A2, A3), and the squared canonical
parameters (alpha^2, gamma^2, delta^2, alpha*gamma*delta).  Cubics: the
recentering shift and the parameter pair (p, q).

Every stage takes the `Prepared` form of its input (`recognizer.prepare`),
works at its gauge and takes each value it reports, messages included, back
by `Prepared.scale_back` of its weight, so float tolerance checks are
scale-free and exact arithmetic starts on the integer lattice.  Exact mode stays
closed over the rationals and demands perfect-square discriminants
(generator-produced inputs always satisfy this).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple

from .core import DarbouxCoefficients, EuclideanMotion, apply_motion, sigma_images
from .errors import ComplexRoots, Inconsistent, IrrationalSpectrum
from .invariants import InvariantBundle, base_invariants
from .recognizer import Prepared, TolerancePolicy, residuals_back
from .scalar import Scalar, exact_sqrt, format_scalar


class SpectralData(NamedTuple):
    """Eigenvalue triple of the canonical diagonal form plus D^2 and F.

    A1 is the eigenvalue whose eigenvector carries the linear part; the pair
    A2 <= A3 is an artifact ordering convention.
    """

    A1: Scalar
    A2: Scalar
    A3: Scalar
    Dsq: Scalar
    F: Scalar

    def squares(self) -> Tuple[Scalar, Scalar, Scalar]:
        """(alpha^2, gamma^2, delta^2) = ((A3-A1)/4, (A2-A1)/4, -(A2+A3)/4)."""
        return ((self.A3 - self.A1) / 4, (self.A2 - self.A1) / 4,
                -(self.A2 + self.A3) / 4)


class CanonicalQuartic(NamedTuple):
    """Squared canonical parameters; agd = alpha*gamma*delta >= 0."""

    alpha_sq: Scalar
    gamma_sq: Scalar
    delta_sq: Scalar
    agd: Scalar

    def coefficients(self, exact: bool = True) -> DarbouxCoefficients:
        """The canonical equation, translation-normalized: with (s, t, u) =
        (alpha^2, gamma^2, delta^2), c = (-2(s+t+u), 2(t-s-u), 2(s-t-u)),
        e1 = 4 agd and f0 = (s-t-u)^2 - 4tu.  Worked in the types of the
        stored values, then made exact or float."""
        s, t, u = self.alpha_sq, self.gamma_sq, self.delta_sq
        return DarbouxCoefficients.make(
            a0=1, c=(-2 * (s + t + u), 2 * (t - s - u), 2 * (s - t - u)),
            e=(4 * self.agd, 0, 0), f0=(s - t - u) ** 2 - 4 * t * u, exact=exact)


class CanonicalCubic(NamedTuple):
    """Parameter pair p <= q and the recentering translation.

    Applying a pure translation by `shift` to the input coefficients yields
    the rotated-canonical form (no residual translation terms).
    """

    p: Scalar
    q: Scalar
    shift: Tuple[Scalar, Scalar, Scalar]


def _sqrt(v: Scalar, exact: bool, name: str, prep: Optional[Prepared] = None,
          w: int = 0) -> Scalar:
    """sqrt(v): a rational root in exact mode, or IrrationalSpectrum naming
    `name` and v when there is none, v taken back by prep.scale_back(w) when
    it is of weight w at prep's gauge; a float root in float mode, where a
    value below zero by rounding noise roots to 0."""
    if not exact:
        return math.sqrt(max(v, 0.0))
    root = exact_sqrt(Fraction(v))
    if root is None:
        shown = v if prep is None else v * prep.scale_back(w)
        raise IrrationalSpectrum(
            f"{name} {format_scalar(shown)} is not a perfect square; use float mode")
    return root


def _check(res: Dict[str, Scalar], prep: Prepared, pol: TolerancePolicy,
           what: str) -> None:
    """Inconsistent naming `what` and every residual of res that is nonzero
    at prep's gauge, printed at the caller's scale by `residuals_back`.  At
    unit gauge a loose constant absorbs the division noise of the A_i."""
    bad = {k: v for k, v in res.items() if pol.nonzero(v, 100)}
    if bad:
        shown = {k: format_scalar(v) for k, v in residuals_back(bad, prep, pol).items()}
        raise Inconsistent(f"{what}: {shown}")


def _a1_system(c: DarbouxCoefficients, inv: InvariantBundle,
               a1: Scalar) -> Dict[str, Scalar]:
    """The linear system {G1,G2,G3,H1,H2,H3} and the characteristic
    polynomial at the candidate a1; inv = base_invariants(c)."""
    c1, c2, c3 = c.c
    d1, d2, d3 = c.d
    e1, e2, e3 = c.e
    f0 = c.f0
    return {
        "G1": -e1 * a1 + c1 * e1 + d3 * e2 + d2 * e3,
        "G2": -e2 * a1 + d3 * e1 + c2 * e2 + d1 * e3,
        "G3": -e3 * a1 + d2 * e1 + d1 * e2 + c3 * e3,
        "H1": 2 * (inv.W1 + 4 * f0) * a1 + inv.W2 - inv.C0 * inv.W1 - 4 * inv.E0,
        "H2": ((inv.C0 ** 2 + 4 * inv.W1 + 12 * f0) * a1
               - inv.C0 ** 3 + 4 * inv.C0 * f0 - 4 * inv.E0),
        "H3": a1 * a1 - 2 * inv.C0 * a1 + inv.C0 ** 2 - inv.W1 - 4 * f0,
        "charpoly": a1 ** 3 - inv.C0 * a1 ** 2 + inv.W1 * a1 - inv.W2,
    }


def _closure(c: DarbouxCoefficients, inv: InvariantBundle, a1: Scalar, a2: Scalar,
             a3: Scalar, dsq: Scalar, f: Scalar) -> Dict[str, Scalar]:
    """The spectral closure checks: elementary symmetric functions of the
    A_i against C0, W1, W2; Dsq against 4 E0; F against f0."""
    return {"Dsq-4E0": dsq - 4 * inv.E0, "F-f0": f - c.f0,
            "sym1": a1 + a2 + a3 - inv.C0,
            "sym2": a1 * a2 + a1 * a3 + a2 * a3 - inv.W1,
            "sym3": a1 * a2 * a3 - inv.W2}


def _a1_at_scale(prep: Prepared, pol: TolerancePolicy) -> Scalar:
    """Distinguished eigenvalue from the linear system {G1,G2,G3,H1,H2,H3}.

    Branch order: eigenvector equations G_i when some e_i != 0; else H1 when
    W1 + 4 f0 != 0; else H2 when C0^2 + 4 W1 + 12 f0 != 0; else the double
    root A1 = C0 of H3.  The candidate must satisfy the whole system and the
    characteristic polynomial, else Inconsistent (non-Dupin input or too
    tight a tolerance).
    """
    work, inv = prep.work, prep.inv
    c1, c2, c3 = work.c
    d1, d2, d3 = work.d
    e1, e2, e3 = work.e
    f0 = work.f0
    w14 = inv.W1 + 4 * f0
    h2_lead = inv.C0 ** 2 + 4 * inv.W1 + 12 * f0

    if pol.nonzero(e1):
        a1 = pol.div(c1 * e1 + d3 * e2 + d2 * e3, e1)
    elif pol.nonzero(e2):
        a1 = pol.div(d3 * e1 + c2 * e2 + d1 * e3, e2)
    elif pol.nonzero(e3):
        a1 = pol.div(d2 * e1 + d1 * e2 + c3 * e3, e3)
    elif pol.nonzero(w14):
        a1 = pol.div(-(inv.W2 - inv.C0 * inv.W1 - 4 * inv.E0), 2 * w14)
    elif pol.nonzero(h2_lead):
        a1 = pol.div(inv.C0 ** 3 - 4 * inv.C0 * f0 + 4 * inv.E0, h2_lead)
    else:
        # on this stratum H3 = (A1 - C0)^2: double root
        a1 = inv.C0
    _check(_a1_system(work, inv, a1), prep, pol, "A1 system has no common solution")
    return a1


def _a23_at_scale(prep: Prepared, a1: Scalar,
                  pol: TolerancePolicy) -> Tuple[Scalar, Scalar]:
    """The other two eigenvalues: roots of X^2 + (A1-C0) X + W1 - C0 A1 + A1^2,
    ordered A2 <= A3; float roots use the stabilized quadratic formula and a
    slightly-negative discriminant snaps to zero (boundary double roots)."""
    inv = prep.inv
    p_lin = a1 - inv.C0
    q_const = inv.W1 - inv.C0 * a1 + a1 * a1
    disc = p_lin * p_lin - 4 * q_const
    if disc < 0:
        if pol.nonzero(disc, 100 * max(1.0, p_lin * p_lin, abs(q_const))):
            # messages give the discriminant (weight 4) at the caller's scale
            raise ComplexRoots(
                f"negative discriminant {disc * prep.scale_back(4)}: no real spectrum")
        disc = 0.0  # float noise about a double root
    root = _sqrt(disc, pol.exact, "discriminant", prep, 4)
    if pol.exact:
        return (-p_lin - root) / 2, (-p_lin + root) / 2
    if p_lin >= 0:
        r1 = (-p_lin - root) / 2
        r2 = q_const / r1 if r1 != 0 else -p_lin - r1
    else:
        r2 = (-p_lin + root) / 2
        r1 = q_const / r2 if r2 != 0 else -p_lin - r2
    return (r1, r2) if r1 <= r2 else (r2, r1)


def spectral_data(prep: Prepared, pol: TolerancePolicy) -> SpectralData:
    """Full spectral recovery plus the closure checks: elementary symmetric
    functions equal C0, W1, W2; Dsq = 4 E0; F = f0.  prep is a prepared
    quartic."""
    work, inv = prep.work, prep.inv
    a1 = _a1_at_scale(prep, pol)
    a2, a3 = _a23_at_scale(prep, a1, pol)
    dsq = -(a2 + a3) * (a1 - a2) * (a1 - a3)
    f = (a2 * a2 + a3 * a3 + a2 * a3 - a1 * a2 - a1 * a3) / 4
    _check(_closure(work, inv, a1, a2, a3, dsq, f), prep, pol, "spectral closure failed")
    k2 = prep.scale_back(2)
    return SpectralData(A1=a1 * k2, A2=a2 * k2, A3=a3 * k2,
                        Dsq=dsq * prep.scale_back(6), F=f * prep.scale_back(4))


def canonical_quartic_params(s: SpectralData) -> CanonicalQuartic:
    """(alpha^2, gamma^2, delta^2) = `SpectralData.squares`; agd =
    sqrt(alpha^2 gamma^2 delta^2) taken nonnegative (flipping the sign of
    any canonical parameter is a symmetry of the surface)."""
    alpha_sq, gamma_sq, delta_sq = s.squares()
    prod = alpha_sq * gamma_sq * delta_sq
    agd = _sqrt(prod, isinstance(prod, Fraction), "alpha^2*gamma^2*delta^2 =")
    return CanonicalQuartic(alpha_sq=alpha_sq, gamma_sq=gamma_sq,
                            delta_sq=delta_sq, agd=agd)


def cubic_shift(c: DarbouxCoefficients, inv: InvariantBundle,
                pol: TolerancePolicy) -> Tuple[Scalar, Scalar, Scalar]:
    """Recentering translation for a cubic: applying a pure translation by
    this vector removes the shift the surface carries (B0-homogenized closed
    form of the per-axis solution, taken on the sigma-images of c).
    inv = base_invariants(c); it serves every image."""
    b0x2, b0sqx2, w3 = 2 * inv.B0, 2 * inv.B0 ** 2, inv.W3
    return tuple(-(pol.div(-b1 * c2 - b1 * c3 + b2 * d3 + b3 * d2, b0x2)
                   + pol.div(b1 * w3, b0sqx2))
                 for _, b1, b2, b3, _, c2, c3, _, d2, d3, _, _, _, _ in sigma_images(c))


def canonical_cubic_params(prep: Prepared,
                           pol: TolerancePolicy) -> CanonicalCubic:
    """Recenter, then read the pair from p+q = -C0_hat/(2 sqrt(B0)) and
    p q = -V/(4 B0) with V = C0_hat^2 - 4 W1_hat; ordered p <= q.  prep is a
    prepared cubic; p, q and the shift (weight 1) are worked at its gauge
    and scaled back."""
    work = prep.work
    shift = cubic_shift(work, prep.inv, pol)
    inv = base_invariants(apply_motion(work, EuclideanMotion.translation_by(shift)))
    root_b0 = _sqrt(inv.B0, pol.exact, "B0 =", prep, 2)
    psum = pol.div(-inv.C0, 2 * root_b0)
    pprod = pol.div(4 * inv.W1 - inv.C0 ** 2, 4 * inv.B0)
    disc = psum * psum - 4 * pprod
    # p = q decided on the discriminant, whatever the sign of its noise;
    # messages give (p-q)^2 (weight 2) at the caller's scale
    if pol.is_zero(disc, 100 * max(1, psum * psum, abs(pprod))):
        disc = 0
    elif disc < 0:
        raise ComplexRoots(f"negative (p,q) discriminant {disc * prep.scale_back(2)}")
    root = _sqrt(disc, pol.exact, "(p-q)^2 =", prep, 2)
    k = prep.scale_back(1)
    return CanonicalCubic(p=(psum - root) / 2 * k, q=(psum + root) / 2 * k,
                          shift=tuple(v * k for v in shift))
