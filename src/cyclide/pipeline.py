"""End-to-end analysis used by the CLI verbs and the batch front end; every
stage after `recognize` reads the prepared form its verdict carries."""
from __future__ import annotations

from . import moebius
from .canonical import (canonical_cubic_params, canonical_quartic_params,
                        spectral_data)
from .classify import (classify_cubic, classify_quartic_report, j0_cubic,
                       j0_quartic, willmore_energy)
from .core import DarbouxCoefficients, normalize_quartic  # noqa: F401  (traced by bench/)
from .errors import CyclideError
from .recognizer import (DUPIN_CUBIC, DUPIN_QUADRIC, DUPIN_QUARTIC,
                         TolerancePolicy, recognize)
from .scalar import format_scalar
from .serialize import error_text, verdict_to_json


def analyze(c: DarbouxCoefficients, pol: TolerancePolicy,
            want: str = "classify") -> dict:
    """One input -> one report dict.  `want` is the CLI verb: recognize,
    classify, canonicalize, j0 or to-torus; later stages subsume earlier
    ones and degrade gracefully (a NotDupin input only gets a verdict)."""
    verdict = recognize(c, pol)
    report = verdict_to_json(verdict)
    if want == "recognize" or not verdict.is_dupin:
        return report

    prep = verdict.prepared
    if verdict.kind == DUPIN_QUARTIC:
        sd = spectral_data(prep, pol)
        report["spectral"] = {"A1": format_scalar(sd.A1), "A2": format_scalar(sd.A2),
                              "A3": format_scalar(sd.A3), "Dsq": format_scalar(sd.Dsq),
                              "F": format_scalar(sd.F)}
        label, ambiguous = classify_quartic_report(sd, pol)
        report["class"] = label.code
        if ambiguous:
            report["class_ambiguous"] = True
        j0 = j0_quartic(prep, sd, pol)
        report["J0"] = format_scalar(j0.value) if j0.kind == "finite" else j0.kind
        report["willmore"] = willmore_energy(j0, pol)
        if want in ("canonicalize", "to-torus"):
            params = canonical_quartic_params(sd)
            report["canonical"] = {
                "alpha_sq": format_scalar(params.alpha_sq),
                "gamma_sq": format_scalar(params.gamma_sq),
                "delta_sq": format_scalar(params.delta_sq),
                "agd": format_scalar(params.agd)}
            if want == "to-torus":
                try:
                    spec = moebius.torus_radii(params)
                    report["torus"] = {"r_sq": format_scalar(spec.r_sq),
                                       "R_sq": format_scalar(spec.R_sq)}
                except CyclideError as exc:
                    report["torus"] = {"error": error_text(exc)}
                try:
                    variant = moebius.MOBT if float(params.gamma_sq) > 0 else moebius.MOBT2
                    report["map"] = moebius.build_map(params, variant).to_json()
                except CyclideError as exc:
                    report["map"] = {"error": error_text(exc)}
        return report

    if verdict.kind == DUPIN_CUBIC:
        params = canonical_cubic_params(prep, pol)
        label = classify_cubic(params.p, params.q, pol)
        report["class"] = label.code
        report["canonical"] = {"p": format_scalar(params.p), "q": format_scalar(params.q),
                               "shift": [format_scalar(v) for v in params.shift]}
        j0 = j0_cubic(prep, pol)
        report["J0"] = format_scalar(j0.value) if j0.kind == "finite" else j0.kind
        report["willmore"] = willmore_energy(j0, pol)
        return report

    if verdict.kind == DUPIN_QUADRIC:
        report["class"] = None
        report.setdefault("notes", []).append(
            "rotational singular quadric; outside the quartic/cubic taxonomy")
    return report
