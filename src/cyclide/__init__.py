"""Recognition, canonicalization and Moebius classification of Dupin
cyclides given by the fourteen coefficients of the implicit Darboux form.

`import cyclide` loads the recognizer and what it runs.  The later stages,
`canonical`, `classify` and `moebius`, which only a Dupin input reaches,
are imported on first use: the names re-exported from them resolve
through the module `__getattr__` (PEP 562), and `cyclide.pipeline` binds
them on its first input past a Dupin verdict."""

from .core import (DarbouxCoefficients, EuclideanMotion, apply_motion,
                   normalize_quartic, weighted_rescale)
from .invariants import (InvariantBundle, base_invariants, cubic_forms,
                         quadric_forms, quartic_generators, reduced_generators_e0)
from .recognizer import (Prepared, TolerancePolicy, Verdict, prepare, recognize,
                         recognize_cubic, recognize_quadric,
                         recognize_quartic_cases, recognize_quartic_oracle)
from . import errors

# the generator kit is left out of the analysis path: `from cyclide import
# genkit`, `import cyclide.genkit` and `from cyclide import *` import it

# re-exported name -> the later stage that defines it
_LATER_STAGES = {
    **dict.fromkeys(("CanonicalCubic", "CanonicalQuartic", "SpectralData",
                     "canonical_cubic_params", "canonical_quartic_params",
                     "spectral_data"), "canonical"),
    **dict.fromkeys(("J0Value", "SurfaceClass", "classify_cubic", "classify_quartic",
                     "j0_cubic", "j0_quartic", "willmore_energy"), "classify"),
    **dict.fromkeys(("MoebiusMap", "TorusSpec", "build_map", "calibrate_convention",
                     "torus_radii", "torus_radii_inversive"), "moebius"),
}


def __getattr__(name):
    """A name of a later stage, imported on first access; any other name
    raises AttributeError, so `from cyclide import genkit` falls back to
    importing the submodule."""
    stage = _LATER_STAGES.get(name)
    if stage is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{stage}", fromlist=(name,)), name)
    globals()[name] = value
    return value


__all__ = [
    "CanonicalCubic", "CanonicalQuartic", "SpectralData", "DarbouxCoefficients",
    "EuclideanMotion", "InvariantBundle",
    "J0Value", "SurfaceClass", "MoebiusMap", "TorusSpec", "Prepared",
    "TolerancePolicy", "Verdict", "apply_motion", "base_invariants",
    "build_map", "calibrate_convention", "canonical_cubic_params",
    "canonical_quartic_params", "classify_cubic", "classify_quartic",
    "cubic_forms", "errors", "genkit", "j0_cubic", "j0_quartic",
    "normalize_quartic", "prepare", "quadric_forms", "quartic_generators",
    "recognize", "recognize_cubic", "recognize_quadric", "recognize_quartic_cases",
    "recognize_quartic_oracle", "reduced_generators_e0", "spectral_data",
    "torus_radii", "torus_radii_inversive", "weighted_rescale", "willmore_energy",
]
