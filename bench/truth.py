"""Truth for benchmark reports, computed apart from the program.

Every expected value comes from the parameters an input was built from
(corpus.Input.params), never from the program's recognition, normalization
or spectral recovery.  Two labels reuse the program's classifiers on
canonical data built here: the quartic class is `classify.classify_quartic`
in exact mode on the spectral triple of the seed, and the cubic class is
`classify.classify_cubic` in exact mode on the seed's (p, q).

`check_analysis` and `check_recognition` return None when an exact-mode
report agrees with the truth, else a short description of the first
disagreement; they compare every value exactly, except the Moebius map,
which the program computes in floats in both modes.  `float_failure`
compares a float-mode report's kind, class, J0, canonical values, torus
radii and map with the truth and names the failure type.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from cyclide.canonical import SpectralData
from cyclide.classify import classify_cubic, classify_quartic
from cyclide.recognizer import TolerancePolicy

EXACT_POL = TolerancePolicy("exact")
J0_KINDS = ("minus_infinity", "undefined")

# the residuals each recognizer case reports (the paper's case table);
# "none" is the cubic test, 4 e_i B0^3 = P_i and 4 f0 B0^4 = Q
CASE_RESIDUALS = {
    "a": {"K2", "K3", "L1", "M1"},
    "b": {"K1", "K3", "L2", "M2"},
    "c": {"K1", "K2", "L3", "M3"},
    "d": {"W1+4f0", "W2-C0W1"},
    "e": {"Y0", "Y1"},
    "f": {"W1+3f0", "(W2-C0W1)^2-4f0^3"},
    "none": {"4e1*B0^3-P1", "4e2*B0^3-P2", "4e3*B0^3-P3", "4f0*B0^4-Q"},
}

# float-mode agreement: |got - want| <= FLOAT_TOL * max(|want|, the scale
# of the group's values, 1)
FLOAT_TOL = 1e-6
# the map is built in floats in exact mode too
MAP_TOL = 1e-9


def _frac(v) -> Fraction:
    return Fraction(v)


def j0_fraction(num: Fraction, den: Fraction):
    """J0 as the report writes it: a value, or the kind of a zero denominator."""
    if den == 0:
        return "undefined" if num == 0 else "minus_infinity"
    return num / den


def quartic_truth(p) -> dict:
    """Expected spectral data, canonical squares, J0, class and torus radii
    of a quartic built from squares (s, t, u), m and weighted rescale lam."""
    s, t, u, m, lam = p["s"], p["t"], p["u"], p["m"], p["lam"]
    l2 = lam * lam
    a1 = -2 * (s + t + u)
    a2, a3 = sorted((2 * (t - s - u), 2 * (s - t - u)))
    f0 = (s - t - u) ** 2 - 4 * t * u
    sd = SpectralData(A1=a1 * l2, A2=a2 * l2, A3=a3 * l2,
                      Dsq=64 * m * m * l2 ** 3, F=f0 * l2 * l2)
    alpha_sq, gamma_sq = max(s, t) * l2, min(s, t) * l2
    delta_sq = u * l2
    out = {
        "spectral": {"A1": sd.A1, "A2": sd.A2, "A3": sd.A3, "Dsq": sd.Dsq, "F": sd.F},
        "canonical": {"alpha_sq": alpha_sq, "gamma_sq": gamma_sq,
                      "delta_sq": delta_sq, "agd": abs(m) * l2 * lam},
        "J0": j0_fraction((a1 - 2 * a2 - a3) * (a2 + 2 * a3 - a1), (a2 - a3) ** 2),
        "class": classify_quartic(sd, EXACT_POL).code,
    }
    if alpha_sq != gamma_sq:
        out["torus"] = {"r_sq": delta_sq - gamma_sq, "R_sq": alpha_sq - gamma_sq}
    out["map"] = map_truth(alpha_sq, gamma_sq, delta_sq)
    return out


def _signed_root(x: Fraction, y: Fraction) -> Optional[float]:
    """sqrt(x) sqrt(y) with principal complex roots, when it is real: the
    product is real iff x y >= 0, and negative iff both are negative."""
    if x * y < 0:
        return None
    root = math.sqrt(x * y)
    return -root if x < 0 and y < 0 else root


def map_truth(a2: Fraction, g2: Fraction, d2: Fraction) -> Optional[dict]:
    """The Moebius map of the printed inversion formulas for the canonical
    squares (alpha^2, gamma^2, delta^2) with signs (1, 1), or None where
    they are not real.  gamma^2 > 0: centre (gamma, 0, 0), factor
    2 beta eps, translation (alpha delta + beta eps) / gamma, with
    beta^2 = alpha^2 - gamma^2 and eps^2 = delta^2 - gamma^2.  Otherwise
    the torus form, gamma = 0 and 0 < r^2 = delta^2 < R^2 = alpha^2:
    centre (r, 0, 0), translation sqrt(R^2 - r^2), factor
    2 r sqrt(R^2 - r^2), y and z swapped."""
    if g2 > 0:
        be, ad = _signed_root(a2 - g2, d2 - g2), _signed_root(a2, d2)
        if be is None or ad is None:
            return None
        gamma = math.sqrt(g2)
        return {"center": [gamma, 0.0, 0.0], "translation": [(ad + be) / gamma, 0.0, 0.0],
                "factor": 2 * be, "swap": False, "variant": "mobt"}
    if g2 != 0 or not 0 < d2 < a2:
        return None
    r, radical = math.sqrt(d2), math.sqrt(a2 - d2)
    return {"center": [r, 0.0, 0.0], "translation": [radical, 0.0, 0.0],
            "factor": 2 * r * radical, "swap": True, "variant": "mobt2"}


def cubic_truth(p) -> dict:
    """Expected (p, q), J0 and class of a moved canonical cubic.  J0 is a
    Moebius invariant; on the canonical cubic the program's weight-8 form
    reduces to -pq / (p - q)^2."""
    lo, hi = sorted((p["p"], p["q"]))
    return {"canonical": {"p": lo, "q": hi},
            "J0": j0_fraction(-lo * hi, (lo - hi) ** 2),
            "class": classify_cubic(lo, hi, EXACT_POL).code}


def quartic_case(p, rows) -> str:
    """The recognizer case of a quartic built from squares (s, t, u), m and
    rotation rows.  After normalization e = lam^3 R^T (4m, 0, 0), so
    e_j != 0 exactly when m != 0 and R[0][j] != 0: cases a, b, c.  With
    m = 0, e = 0, and on the canonical form W1 + 4 f0 = 0 = W2 - C0 W1 holds
    exactly when u = 0: case d; otherwise C0 = -2 (s + t + 3u) separates
    e (C0 != 0) from f (C0 = 0)."""
    if p["m"] != 0:
        return "abc"[next(j for j in range(3) if rows[0][j] != 0)]
    if p["u"] == 0:
        return "d"
    return "e" if p["s"] + p["t"] + 3 * p["u"] != 0 else "f"


def truth_of(item) -> dict:
    if item.kind == "cubic":
        return cubic_truth(item.params)
    out = quartic_truth(item.params)
    out["case"] = quartic_case(item.params, item.motion[0])
    return out


def _willmore(j0) -> Optional[float]:
    if isinstance(j0, str) or j0 <= 0:
        return None
    return math.pi ** 2 / math.sqrt(float(j0))


def _check_values(label: str, got: dict, want: dict) -> Optional[str]:
    for key, value in want.items():
        if key not in got or _frac(got[key]) != value:
            return f"{label}.{key} = {got.get(key)!r}, expected {value}"
    return None


def _residual_names(report: dict, case: str) -> Optional[str]:
    names = set(report.get("residuals", {}))
    if names != CASE_RESIDUALS[case]:
        return f"residuals {sorted(names)}, expected {sorted(CASE_RESIDUALS[case])}"
    return None


def _residuals_zero(report: dict, case: str) -> Optional[str]:
    problem = _residual_names(report, case)
    if problem:
        return problem
    bad = {k: v for k, v in report["residuals"].items() if _frac(v) != 0}
    return f"nonzero residuals {bad}" if bad else None


def _close(got, want: float, scale: float, tol: float) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= tol * max(abs(want), scale, 1.0))


def _check_map(got, want: Optional[dict], tol: float) -> Optional[str]:
    """A map where the formulas are real, with centre, translation and factor
    within tol; where they are not, any report (the program may build the
    other variant or report an error)."""
    if want is None:
        return None
    if not isinstance(got, dict) or "error" in got:
        return f"map {got!r}, expected {want}"
    scale = max(abs(v) for v in want["center"] + want["translation"] + [want["factor"]])
    ok = (got.get("swap") == want["swap"] and got.get("variant") == want["variant"]
          and got.get("direction") == "forward" and got.get("signs") == [1, 1]
          and _close(got.get("factor"), want["factor"], scale, tol)
          and all(isinstance(got.get(k), list) and len(got[k]) == 3
                  and all(_close(g, w, scale, tol) for g, w in zip(got[k], want[k]))
                  for k in ("center", "translation")))
    return None if ok else f"map {got!r}, expected {want}"


def check_analysis(item, report: dict, truth: dict) -> Optional[str]:
    """Exact-mode check of a `to-torus` report."""
    kind = "DupinQuartic" if item.kind == "quartic" else "DupinCubic"
    if report.get("kind") != kind:
        return f"kind {report.get('kind')!r}, expected {kind}"
    if report.get("case") != truth.get("case", "none"):
        return f"case {report.get('case')!r}, expected {truth.get('case', 'none')}"
    problem = _residuals_zero(report, truth.get("case", "none"))
    if problem:
        return problem
    if report.get("class") != truth["class"]:
        return f"class {report.get('class')!r}, expected {truth['class']}"
    j0, want_j0 = report.get("J0"), truth["J0"]
    if isinstance(want_j0, str):
        j0_ok = j0 == want_j0
    else:
        j0_ok = j0 is not None and j0 not in J0_KINDS and _frac(j0) == want_j0
    if not j0_ok:
        return f"J0 {j0!r}, expected {want_j0}"
    willmore, want_w = report.get("willmore"), _willmore(truth["J0"])
    if (willmore is None) != (want_w is None) or (
            want_w is not None and not math.isclose(willmore, want_w, rel_tol=1e-12)):
        return f"willmore {willmore!r}, expected {want_w}"
    problem = _check_values("canonical", report.get("canonical", {}), truth["canonical"])
    if problem or item.kind == "cubic":
        return problem
    problem = _check_values("spectral", report.get("spectral", {}), truth["spectral"])
    if problem:
        return problem
    torus = report.get("torus", {})
    if "torus" not in truth:
        if "error" not in torus:
            return f"torus {torus!r}, expected the error object"
    else:
        problem = _check_values("torus", torus, truth["torus"])
        if problem:
            return problem
    return _check_map(report.get("map"), truth["map"], MAP_TOL)


def check_recognition(item, report: dict) -> Optional[str]:
    """Exact-mode check of a `recognize` report on a centred quartic."""
    kind = "DupinQuartic" if item.dupin else "NotDupin"
    if report.get("kind") != kind or report.get("case") != item.case:
        return (f"verdict {report.get('kind')!r} case {report.get('case')!r}, "
                f"expected {kind} case {item.case}")
    if item.dupin:
        return _residuals_zero(report, item.case)
    problem = _residual_names(report, item.case)
    if problem:
        return problem
    witness = report.get("witness")
    if not witness or _frac(witness["value"]) == 0:
        return f"witness {witness!r}, expected a nonzero residual"
    if _frac(report["residuals"].get(witness["name"], 0)) != _frac(witness["value"]):
        return f"witness {witness!r} is not among the residuals"
    return None


def _float_values(item, report: dict, truth: dict) -> Optional[str]:
    """The first of J0, canonical values, torus radii and map that differs
    from the truth beyond FLOAT_TOL, described; else None."""
    j0, want_j0 = report.get("J0"), truth["J0"]
    if isinstance(want_j0, str) or isinstance(j0, str) or j0 is None:
        if j0 != want_j0:
            return f"J0 {j0!r}, expected {want_j0}"
    elif not _close(j0, float(want_j0), 1.0, FLOAT_TOL):
        return f"J0 {j0!r}, expected {float(want_j0)}"
    groups = [("canonical", truth["canonical"])]
    if item.kind == "quartic" and "torus" in truth:
        groups.append(("torus", truth["torus"]))
    for label, want in groups:
        got = report.get(label, {})
        scale = float(max(abs(v) for k, v in want.items() if k != "agd"))
        for key, value in want.items():
            # agd = alpha gamma delta has the weight of a square to the 3/2
            weight = scale ** 1.5 if key == "agd" else scale
            if not _close(got.get(key), float(value), weight, FLOAT_TOL):
                return f"{label}.{key} = {got.get(key)!r}, expected {float(value)}"
    if item.kind == "cubic":
        return None
    if "torus" not in truth and "error" not in report.get("torus", {}):
        return f"torus {report.get('torus')!r}, expected the error object"
    return _check_map(report.get("map"), truth["map"], FLOAT_TOL)


def float_failure(item, report: dict, truth: dict) -> Optional[str]:
    """Float-mode outcome: None when the report agrees with the truth, else
    the failure type counted in the run's breakdown: kind_change,
    class_change, class_change_flagged (the report carries
    class_ambiguous) or value_change (J0, canonical values, torus radii or
    map; float_detail says which)."""
    kind = "DupinQuartic" if item.kind == "quartic" else "DupinCubic"
    if report.get("kind") != kind:
        return "kind_change"
    if report.get("class") != truth["class"]:
        return "class_change_flagged" if report.get("class_ambiguous") else "class_change"
    return None if _float_values(item, report, truth) is None else "value_change"


def float_detail(item, report: dict, truth: dict) -> str:
    """What a float-mode failure got wrong, for the run's record."""
    if report.get("class") != truth.get("class"):
        return f"kind {report.get('kind')} class {report.get('class')} for {truth['class']}"
    return _float_values(item, report, truth) or ""
