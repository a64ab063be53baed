"""Curvature invariants of 4-dimensional hypersurfaces in 5-dimensional space forms.

The package computes, from a shape operator (or its spectrum) at a point:
the Gauss-equation curvature pack, the Weyl tensor and its self-dual /
anti-self-dual split on two-forms, closed-form curvature norms, the
Gauss-Bonnet and signature integrands, the Bach tensor, Bochner-type
residuals, sharp spectral inequalities with equality detection, and a
classification of the Weyl operator spectrum. Catalog isoparametric
immersions support numerical integration of these invariants, and an
exact rational-arithmetic certifier proves the underlying polynomial
identities rather than sampling them.

Names load lazily: ``import hypercurv`` imports no submodule, and each
public name or submodule is imported on first access, so the command
line pays only for the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed once under the submodule that defines it.
_EXPORTS = {
    "bounds": ("GlobalData", "SQuadraticResult", "VolumeBound", "euler_integrand_bounds",
               "f_lower_bound", "f_lower_bound_candidates", "s_quadratic",
               "volume_hypothesis_bounds", "weyl_threshold_report"),
    "classify": ("SharpReport", "SpectrumReport", "classify_batch", "principal_multiplicities",
                 "sharp_inequalities", "spectrum_report"),
    "extrinsic": ("CurvaturePack", "NormPack", "PointState", "bach_tensor", "bochner_residuals",
                  "cgb_integrand", "closed_form_norms", "div_weyl_sd", "gauss_equations",
                  "signature_integrand", "weyl_split_norms", "weyl_tensor"),
    "immersions": ("Immersion", "QuadratureGrid", "build_grid", "catalog_point", "get_immersion",
                   "integrate", "numeric_second_fundamental_form"),
    "lambda2": ("LAMBDA2_BASIS", "CurvTensor4", "hodge_star", "inner", "kulkarni_nomizu",
                "lambda2_spectrum", "levi_civita_tensor", "sd_asd_split", "star_weyl", "triple"),
    "polyverify": ("REGISTRY", "RationalPoly", "VerifyResult", "assemble_symbolic", "verify_all",
                   "verify_identity"),
    "tolerances": ("CLUSTER_TOL", "EQUALITY_TOL", "default_tol"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import a submodule, or the submodule that owns a public name, on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *_OWNER})
