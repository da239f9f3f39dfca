"""Benchmark inputs, built in closed form from canonical Dupin parameters.

Nothing here calls the program.  Rotations come from integer quaternions, and
a Euclidean motion, a weighted rescale and a projective scaling act on the
fourteen coefficients through the update formulas in `move`, `rescale` and
`scale`.  Parent and change therefore receive the same bytes whatever the
program's own generator does, and building a corpus stays cheap and untimed.

Coefficient tuples follow the program's field order
(a0, b1, b2, b3, c1, c2, c3, d1, d2, d3, e1, e2, e3, f0) and name the surface

    a0 rho^4 + 2 (b.x) rho^2 + x^T C x + 2 e.x + f0 = 0,   rho^2 = |x|^2,

with C = [[c1, d3, d2], [d3, c2, d1], [d2, d1, c3]].
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

FIELDS = ("a0", "b1", "b2", "b3", "c1", "c2", "c3",
          "d1", "d2", "d3", "e1", "e2", "e3", "f0")

ONE, ZERO = Fraction(1), Fraction(0)

# default workload seed: the seed of the mixed corpus that ROADMAP and the
# float-mode fault report quote (`cyclide generate --seed 7 --kind mixed`)
DEFAULT_SEED = 7


@dataclass
class Input:
    """One benchmark input: its coefficients and the parameters they were
    built from, which the truth checks read."""

    kind: str                    # "quartic" or "cubic"
    coefficients: tuple          # Fractions, in FIELDS order
    exact: bool                  # JSON line of exact literals or of floats
    params: Dict[str, Fraction]  # s, t, u, m, lam  or  p, q
    motion: tuple                # (rotation rows, translation)
    case: Optional[str] = None   # expected recognizer case (recognize workload)
    dupin: bool = True
    block: str = "seed"          # "seed" or "fixed" (float workload)

    def line(self, k: Fraction = ONE) -> str:
        """The JSON line of the surface with every coefficient times k."""
        c = scale(self.coefficients, k)
        return exact_line(c) if self.exact else float_line(c)


# --------------------------------------------------------------------------
# closed-form coefficient actions


def quaternion_rows(a: int, b: int, c: int, d: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Rational rotation matrix of a nonzero integer quaternion."""
    n = a * a + b * b + c * c + d * d
    rows = (
        (a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)),
        (2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)),
        (2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d),
    )
    return tuple(tuple(Fraction(v, n) for v in row) for row in rows)


def reflect_z(rows):
    """rows composed with the reflection z -> -z on the right."""
    return tuple((r[0], r[1], -r[2]) for r in rows)


def _matvec(rows, v):
    return tuple(sum(rows[i][k] * v[k] for k in range(3)) for i in range(3))


def _tmatvec(rows, v):
    return tuple(sum(rows[k][i] * v[k] for k in range(3)) for i in range(3))


def move(c, rows, t):
    """Coefficients of F(R x + t) for F named by c and orthogonal R.

    With u = R^T t, tau = |t|^2, beta = R^T b and beta0 = b.t:
      a0' = a0,  b' = beta + 2 a0 u,
      C'  = R^T C R + 2 (a0 tau + beta0) I + 4 a0 u u^T + 2 (beta u^T + u beta^T),
      e'  = R^T (C t + e) + 2 (a0 tau + beta0) u + tau beta,
      f0' = a0 tau^2 + 2 beta0 tau + t^T C t + 2 e.t + f0.
    """
    a0, b1, b2, b3, c1, c2, c3, d1, d2, d3, e1, e2, e3, f0 = c
    b, e = (b1, b2, b3), (e1, e2, e3)
    C = ((c1, d3, d2), (d3, c2, d1), (d2, d1, c3))
    u = _tmatvec(rows, t)
    tau = sum(x * x for x in t)
    beta = _tmatvec(rows, b)
    beta0 = sum(x * y for x, y in zip(b, t))
    CR = tuple(tuple(sum(C[i][k] * rows[k][j] for k in range(3)) for j in range(3))
               for i in range(3))
    Cp = [[sum(rows[k][i] * CR[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    iso = 2 * (a0 * tau + beta0)
    for i in range(3):
        Cp[i][i] += iso
        for j in range(3):
            Cp[i][j] += 4 * a0 * u[i] * u[j] + 2 * (beta[i] * u[j] + u[i] * beta[j])
    Ct = _matvec(C, t)
    ep = _tmatvec(rows, tuple(x + y for x, y in zip(Ct, e)))
    ep = tuple(ep[i] + iso * u[i] + tau * beta[i] for i in range(3))
    bp = tuple(beta[i] + 2 * a0 * u[i] for i in range(3))
    fp = (a0 * tau * tau + 2 * beta0 * tau + sum(x * y for x, y in zip(t, Ct))
          + 2 * sum(x * y for x, y in zip(e, t)) + f0)
    return (a0, *bp, Cp[0][0], Cp[1][1], Cp[2][2], Cp[1][2], Cp[0][2], Cp[0][1],
            *ep, fp)


def rescale(c, lam):
    """Weighted rescale x -> lam x, divided by lam^4: b lam, c and d lam^2,
    e lam^3, f0 lam^4."""
    w = (0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 4)
    return tuple(v * lam ** k for v, k in zip(c, w))


def scale(c, k):
    """Projective scaling: the same surface with every coefficient times k."""
    return tuple(v * k for v in c)


def canonical_quartic(s, t, u, m):
    """Canonical quartic with squares (s, t, u) = (alpha^2, gamma^2, delta^2)
    and m = alpha gamma delta."""
    return (ONE, ZERO, ZERO, ZERO,
            -2 * (s + t + u), 2 * (t - s - u), 2 * (s - t - u),
            ZERO, ZERO, ZERO, 4 * m, ZERO, ZERO, (s - t - u) ** 2 - 4 * t * u)


def canonical_cubic(p, q):
    """Parabolic canonical cubic with parameter pair (p, q)."""
    return (ZERO, ONE, ZERO, ZERO, -(p + q), -p, -q,
            ZERO, ZERO, ZERO, p * q / 4, ZERO, ZERO, ZERO)


def integer_gauge(c) -> int:
    """lcm of the denominators of the a0-normalized coefficients: the scale
    of the exact recognizer's integer lattice for a centred quartic."""
    return math.lcm(*(Fraction(v / c[0]).denominator for v in c))


# --------------------------------------------------------------------------
# JSON lines


def _exact_json(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def exact_line(c) -> str:
    """Integers and "p/q" strings, zero keys left out (the generator's form)."""
    return json.dumps({k: _exact_json(v) for k, v in zip(FIELDS, c) if v != 0})


def float_line(c) -> str:
    """JSON floats, zero keys left out."""
    return json.dumps({k: float(v) for k, v in zip(FIELDS, c) if v != 0})


# --------------------------------------------------------------------------
# random draws; the order of draws is that of `cyclide generate --kind mixed`


def draw_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def draw_rotation(rng: random.Random):
    """Integer-quaternion rotation, composed with z -> -z at random."""
    while True:
        quat = tuple(rng.randint(-5, 5) for _ in range(4))
        if any(quat):
            break
    rows = quaternion_rows(*quat)
    return reflect_z(rows) if rng.getrandbits(1) else rows


def draw_motion(rng: random.Random):
    rows = draw_rotation(rng)
    return rows, tuple(draw_fraction(rng) for _ in range(3))


def draw_squares(rng: random.Random):
    """(s, t, u, m): squares of integers 0..4, with zero or two signs
    flipped, so that m^2 = s t u has the rational root m."""
    a, b, c = (Fraction(rng.randint(0, 4)) for _ in range(3))
    vals = [a * a, b * b, c * c]
    for i in rng.choice([(), (0, 1), (0, 2), (1, 2)]):
        vals[i] = -vals[i]
    return (*vals, a * b * c)


def draw_lambda(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2]))


def draw_pq(rng: random.Random):
    return (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def on_float_fault_strata(p) -> bool:
    """True on the strata where float mode is known to go wrong (README):
    the double roots s = t and p = q, gamma^2 = 0 (min(s, t) = 0) and
    delta^2 = gamma^2 (u = min(s, t))."""
    if "p" in p:
        return p["p"] == p["q"]
    gamma_sq = min(p["s"], p["t"])
    return p["s"] == p["t"] or gamma_sq == 0 or p["u"] == gamma_sq


def _mixed_item(rng: random.Random, exact: bool, kind: Optional[str] = None,
                float_faults: bool = True) -> Input:
    """One input drawn like `cyclide generate --kind mixed`; kind None draws
    the kind too, as the generator does.  With float_faults False, draws on
    the strata of on_float_fault_strata are drawn again."""
    while True:
        cubic = rng.getrandbits(1) if kind is None else kind == "cubic"
        if cubic:
            p, q = draw_pq(rng)
            rows, t = draw_motion(rng)
            if not float_faults and p == q:
                continue
            return Input("cubic", move(canonical_cubic(p, q), rows, t), exact,
                         {"p": p, "q": q}, motion=(rows, t))
        rows, t = draw_motion(rng)
        s, tt, u, m = draw_squares(rng)
        lam = draw_lambda(rng)
        params = {"s": s, "t": tt, "u": u, "m": m, "lam": lam}
        if not float_faults and on_float_fault_strata(params):
            continue
        c = rescale(move(canonical_quartic(s, tt, u, m), rows, t), lam)
        return Input("quartic", c, exact, params, motion=(rows, t))


def generate_corpus(seed: int, count: int, exact: bool = True) -> List[Input]:
    """The first `count` inputs of `cyclide generate --seed <seed> --kind
    mixed`, coefficient for coefficient."""
    rng = random.Random(seed)
    return [_mixed_item(rng, exact) for _ in range(count)]


def mixed_corpus(seed: int, count: int, exact: bool = True,
                 float_faults: bool = True) -> List[Input]:
    """Inputs drawn like the generator's, two quartics to one cubic in a
    fixed pattern.  Latencies form two clusters (a cubic costs about 2/3 of
    a quartic); with the generator's coin-flip kinds the median lies in the
    gap between them and moved by a fifth from seed to seed."""
    rng = random.Random(seed)
    return [_mixed_item(rng, exact, "cubic" if i % 3 == 2 else "quartic", float_faults)
            for i in range(count)]


# --------------------------------------------------------------------------
# centred quartics for the recognize workload

def _draw_e0_seed(rng: random.Random, case: str):
    """(s, t, u) with m = 0, so e = 0, on the stratum of the case the
    recognizer must take.  On the canonical form, W1 + 4 f0 = 0 and
    W2 - C0 W1 = 0 hold exactly when u = 0: case (d).  With u != 0 and one of
    s, t zero, C0 = -2 (s + t + 3u) separates (e), C0 != 0, from (f), C0 = 0."""
    square = lambda: rng.choice((-1, 1)) * rng.randint(1, 4) ** 2
    if case == "d":
        s, t, u = square(), square(), 0
    else:
        u = square()
        other = -3 * u if case == "f" else square()
        while case == "e" and other == -3 * u:
            other = square()
        s, t = (0, other) if rng.getrandbits(1) else (other, 0)
    return Fraction(s), Fraction(t), Fraction(u)


# cyclic permutation matrices: the first row of P picks which row of the
# axis rotation becomes the first row of the moved frame
_CYCLE = (((ZERO, ONE, ZERO), (ZERO, ZERO, ONE), (ONE, ZERO, ZERO)),
          ((ZERO, ZERO, ONE), (ONE, ZERO, ZERO), (ZERO, ONE, ZERO)))


def _matmul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def _case_rotation(rng: random.Random, case: str):
    """A rotation whose first row has the zero pattern of the case, so that
    e = R^T (4m, 0, 0) selects it: (a) e1 != 0, (b) e1 = 0 != e2,
    (c) e1 = e2 = 0 != e3."""
    while True:
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if case == "a":
            rows = draw_rotation(rng)
            if rows[0][0] != 0:
                return rows
            continue
        if case == "b":      # rotation about x, then rows cycled: (0, *, *)
            if a * b == 0 or a * a == b * b:
                continue
            rows = _matmul(_CYCLE[0], quaternion_rows(a, b, 0, 0))
        else:                # rotation about z, then rows cycled: (0, 0, 1)
            if a == 0 and b == 0:
                continue
            rows = _matmul(_CYCLE[1], quaternion_rows(a, 0, 0, b))
        return reflect_z(rows) if rng.getrandbits(1) else rows


def _draw_m_nonzero(rng: random.Random):
    while True:
        s, t, u, m = draw_squares(rng)
        if m != 0:
            return s, t, u, m


def _centred(rng: random.Random, c):
    """Weighted rescale by p/q that leaves the integer gauge above 1, then a
    projective factor k != 1, so that a0 = k.  A rotation with integer
    entries can leave every coefficient divisible by q^w for small q; a
    larger prime q then breaks the lattice, and q = 11 always does, since
    q^2 exceeds every integral c or d entry the seeds produce."""
    for q in (rng.choice((2, 3)), 5, 7, 11):
        lam = Fraction(rng.choice([p for p in range(1, 6) if math.gcd(p, q) == 1]), q)
        moved = rescale(c, lam)
        if integer_gauge(moved) > 1:
            break
    else:
        raise ValueError("no weighted rescale leaves the integer lattice")
    while True:
        k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
        if k != 1:
            return lam, k, scale(moved, k)


def quartic_recognize_corpus(seed: int, count: int) -> List[Input]:
    """Centred quartics (b = 0): half Dupin, cycling through cases a-f, half
    not Dupin, cycling through cases a-c.

    A negative is a Dupin quartic whose seed has m != 0 with f0 moved by a
    nonzero rational.  After normalization e != 0, and the L-form of the
    case that e selects is affine in f0 with slope 4 e_i, so exactly one
    value of f0 is Dupin and the moved surface is not."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        dupin = i % 2 == 0
        case = "abcdef"[(i // 2) % 6] if dupin else "abc"[(i // 2) % 3]
        if case in "abc":
            s, t, u, m = _draw_m_nonzero(rng)
            rows = _case_rotation(rng, case)
        else:
            s, t, u = _draw_e0_seed(rng, case)
            m = ZERO
            rows = draw_rotation(rng)
        c = move(canonical_quartic(s, t, u, m), rows, (ZERO, ZERO, ZERO))
        delta = ZERO
        while not dupin and delta == 0:
            delta = draw_fraction(rng)
        c = c[:13] + (c[13] + delta,)
        lam, k, c = _centred(rng, c)
        out.append(Input("quartic", c, True,
                         {"s": s, "t": t, "u": u, "m": m, "lam": lam, "k": k, "df0": delta},
                         motion=(rows, (ZERO, ZERO, ZERO)), case=case, dupin=dupin))
    return out


# --------------------------------------------------------------------------
# workloads

FLOAT_FIXED_COUNT = 400


def float_corpus(seed: int, count: int) -> List[Input]:
    """A fixed block, then a seed block.

    The fixed block is `cyclide generate --seed 7 --count 400 --kind mixed`
    as floats, whatever `seed` is: it holds the inputs on which float mode
    is known to fail (see README), so every run fails the same inputs.  The
    seed block draws `count - 400` further inputs from `seed` off the
    strata of on_float_fault_strata."""
    fixed = generate_corpus(DEFAULT_SEED, FLOAT_FIXED_COUNT, exact=False)
    for item in fixed:
        item.block = "fixed"
    return fixed + mixed_corpus(seed, count - FLOAT_FIXED_COUNT, exact=False,
                                float_faults=False)


# name -> (mode, CLI verb, inputs per round, corpus builder); a run repeats
# whole rounds of the same surfaces, each round with other bytes (round_lines)
WORKLOADS = {
    "exact-mixed-to-torus": ("exact", "to-torus", 1000, mixed_corpus),
    "exact-quartic-recognize": ("exact", "recognize", 1200, quartic_recognize_corpus),
    "float-mixed-to-torus": ("float", "to-torus", 1000, float_corpus),
}


def build(workload: str, seed: int) -> List[Input]:
    mode, _, count, builder = WORKLOADS[workload]
    if builder is mixed_corpus:
        return mixed_corpus(seed, count, exact=mode == "exact")
    return builder(seed, count)


def round_factors(exact: bool) -> List[Fraction]:
    """Projective factors k != 1, in a fixed shuffled order.

    Exact: p/q with p, q <= 20 coprime and max(p, q) >= 10, so k != 1 and
    k != 1/a0 for every recognize input, whose a0 has numerator at most 9
    and denominator at most 7.  Float: 2^j for 0 < |j| <= 32; multiplying a
    float by a power of two is exact, and float mode fails the same inputs
    at every such factor.  All factors are positive: -F names the same
    surface as F, but the program reports a cubic's (p, q) as (-q, -p)
    when the equation's sign is flipped."""
    if exact:
        ks = [Fraction(p, q) for p in range(1, 21) for q in range(1, 21)
              if math.gcd(p, q) == 1 and max(p, q) >= 10]
    else:
        ks = [Fraction(2) ** j for j in range(-32, 33) if j]
    random.Random(0).shuffle(ks)
    return ks


def round_lines(items: List[Input], factors: List[Fraction], r: int) -> List[str]:
    """The JSON lines of round r: input i times factors[(r + i) % len(factors)].
    The surfaces, and so the truth, are those of round 0, but no input sees
    the same bytes twice within len(factors) rounds, so a cache keyed on
    the input gains nothing from the repetition."""
    n = len(factors)
    return [item.line(factors[(r + i) % n]) for i, item in enumerate(items)]
