"""End-to-end analysis used by the CLI verbs and the batch front end; every
stage after `recognize` reads the prepared form its verdict carries.

The later stages, `canonical`, `classify` and `moebius`, are imported and
bound here on the first Dupin quartic or cubic that goes past its verdict,
so a `recognize` run, a Dupin quadric and a NotDupin input never load
them.  Before that their names resolve through the module `__getattr__`
(PEP 562), so bench/tracing.py can wrap
`cyclide.pipeline.spectral_data` and the like at start-up; a name set on
the module before the stages are bound is kept, and is what `analyze`
calls."""
from __future__ import annotations

from .core import DarbouxCoefficients
from .core import normalize_quartic  # noqa: F401  (traced by bench/)
from .errors import CyclideError
from .recognizer import DUPIN_QUADRIC, DUPIN_QUARTIC, TolerancePolicy, recognize
from .scalar import format_scalar
from .serialize import error_text, verdict_to_json

# the names analyze calls from the later stages; the moebius functions are
# called through the module, where bench/tracing.py wraps them
_CANONICAL = ("canonical_cubic_params", "canonical_quartic_params", "spectral_data")
_CLASSIFY = ("classify_cubic", "classify_quartic_report", "j0_cubic", "j0_quartic",
             "willmore_energy")
_LATER_NAMES = frozenset((*_CANONICAL, *_CLASSIFY, "moebius"))
_stages_bound = False


def _bind_stages():
    """Import canonical, classify and moebius and bind _LATER_NAMES here,
    once.  A name already set on the module, such as a tracer's wrapper, is
    kept."""
    global _stages_bound
    from . import canonical, classify, moebius
    names = globals()
    names.setdefault("moebius", moebius)
    for module, attrs in ((canonical, _CANONICAL), (classify, _CLASSIFY)):
        for attr in attrs:
            names.setdefault(attr, getattr(module, attr))
    _stages_bound = True


def __getattr__(name):
    """A later stage's name, looked up before an input has bound it."""
    if name not in _LATER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_stages()
    return globals()[name]


def analyze(c: DarbouxCoefficients, pol: TolerancePolicy,
            want: str = "classify") -> dict:
    """One input -> one report dict.  `want` is recognize, classify,
    canonicalize or to-torus, later stages subsuming earlier ones; a NotDupin
    input only gets a verdict.  The CLI's `j0` verb asks for classify and
    keeps the J0, willmore, kind and error keys itself."""
    verdict = recognize(c, pol)
    report = verdict_to_json(verdict)
    if want == "recognize" or not verdict.is_dupin:
        return report
    if verdict.kind == DUPIN_QUADRIC:
        report["class"] = None
        report.setdefault("notes", []).append(
            "rotational singular quadric; outside the quartic/cubic taxonomy")
        return report
    if not _stages_bound:
        _bind_stages()

    prep = verdict.prepared
    if verdict.kind == DUPIN_QUARTIC:
        sd = spectral_data(prep)
        report["spectral"] = {"A1": format_scalar(sd.A1), "A2": format_scalar(sd.A2),
                              "A3": format_scalar(sd.A3), "Dsq": format_scalar(sd.Dsq),
                              "F": format_scalar(sd.F)}
        label, ambiguous = classify_quartic_report(sd, pol)
        report["class"] = label.code
        if ambiguous:
            report["class_ambiguous"] = True
        j0 = j0_quartic(prep, sd)
    else:  # a Dupin cubic
        params = canonical_cubic_params(prep)
        label = classify_cubic(params.p, params.q, pol)
        report["class"] = label.code
        report["canonical"] = {"p": format_scalar(params.p), "q": format_scalar(params.q),
                               "shift": [format_scalar(v) for v in params.shift]}
        j0 = j0_cubic(prep)
    report["J0"] = format_scalar(j0.value) if j0.kind == "finite" else j0.kind
    report["willmore"] = willmore_energy(j0, pol)
    if verdict.kind == DUPIN_QUARTIC and want in ("canonicalize", "to-torus"):
        params = canonical_quartic_params(sd)
        report["canonical"] = {
            "alpha_sq": format_scalar(params.alpha_sq),
            "gamma_sq": format_scalar(params.gamma_sq),
            "delta_sq": format_scalar(params.delta_sq),
            "agd": format_scalar(params.agd)}
        if want == "to-torus":
            for key, build in (("torus", _torus_json), ("map", _map_json)):
                try:
                    report[key] = build(params)
                except CyclideError as exc:
                    report[key] = {"error": error_text(exc)}
    return report


def _torus_json(params) -> dict:
    """The "torus" object of a to-torus report: the radii of params."""
    spec = moebius.torus_radii(params)
    return {"r_sq": format_scalar(spec.r_sq), "R_sq": format_scalar(spec.R_sq)}


def _map_json(params) -> dict:
    """The "map" object of a to-torus report: the Moebius map of params."""
    variant = moebius.MOBT if float(params.gamma_sq) > 0 else moebius.MOBT2
    return moebius.build_map(params, variant).to_json()
