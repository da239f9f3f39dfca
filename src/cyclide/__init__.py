"""Recognition, canonicalization and Moebius classification of Dupin
cyclides given by the fourteen coefficients of the implicit Darboux form."""

from .canonical import (CanonicalCubic, CanonicalQuartic, SpectralData,
                        canonical_cubic_params, canonical_quartic_params,
                        spectral_data)
from .classify import (J0Value, SurfaceClass, classify_cubic, classify_quartic,
                       j0_cubic, j0_quartic, willmore_energy)
from .core import (SIGMA12, SIGMA13, SIGMA23, DarbouxCoefficients,
                   EuclideanMotion, TriPoly, apply_motion, apply_permutation,
                   coefficients_from_polynomial, normalize_quartic,
                   polynomial_from_coefficients, sigma_orbit, weighted_rescale)
from .invariants import (InvariantBundle, base_invariants, cubic_forms,
                         quadric_forms, quartic_generators, reduced_generators_e0)
from .moebius import (MoebiusMap, TorusSpec, build_map,
                      calibrate_convention, torus_radii, torus_radii_inversive)
from .recognizer import (Prepared, TolerancePolicy, Verdict, prepare, recognize,
                         recognize_cubic, recognize_quadric,
                         recognize_quartic_cases, recognize_quartic_oracle)
from . import errors, genkit

__all__ = [
    "CanonicalCubic", "CanonicalQuartic", "SpectralData", "DarbouxCoefficients",
    "EuclideanMotion", "TriPoly", "InvariantBundle",
    "J0Value", "SurfaceClass", "MoebiusMap", "TorusSpec", "Prepared",
    "TolerancePolicy", "Verdict", "SIGMA12", "SIGMA13", "SIGMA23",
    "apply_motion", "apply_permutation", "base_invariants",
    "build_map", "calibrate_convention", "canonical_cubic_params",
    "canonical_quartic_params", "classify_cubic", "classify_quartic",
    "coefficients_from_polynomial", "cubic_forms", "errors", "genkit",
    "j0_cubic", "j0_quartic", "normalize_quartic", "polynomial_from_coefficients",
    "prepare", "quadric_forms", "quartic_generators", "recognize", "recognize_cubic",
    "recognize_quadric", "recognize_quartic_cases", "recognize_quartic_oracle",
    "reduced_generators_e0", "sigma_orbit", "spectral_data",
    "torus_radii", "torus_radii_inversive", "weighted_rescale", "willmore_energy",
]
