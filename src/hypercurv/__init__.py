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
"""

from .bounds import (
    GlobalData,
    SQuadraticResult,
    VolumeBound,
    euler_integrand_bounds,
    f_lower_bound,
    f_lower_bound_candidates,
    s_quadratic,
    volume_hypothesis_bounds,
    weyl_threshold_report,
)
from .classify import (
    SharpReport,
    SpectrumReport,
    classify_batch,
    principal_multiplicities,
    sharp_inequalities,
    spectrum_report,
    structure_predicates,
    weyl_operator_spectrum,
)
from .extrinsic import (
    CurvaturePack,
    NormPack,
    PointState,
    bach_tensor,
    bochner_residuals,
    cgb_integrand,
    closed_form_norms,
    div_weyl_sd,
    div_weyl_sd_norms,
    gauss_equations,
    signature_integrand,
    weyl_tensor,
)
from .immersions import (
    Immersion,
    QuadratureGrid,
    build_grid,
    catalog_point,
    clifford_immersion,
    get_immersion,
    integrate,
    numeric_second_fundamental_form,
    totally_geodesic_sphere,
)
from .lambda2 import (
    LAMBDA2_BASIS,
    CurvTensor4,
    TwoForm,
    hodge_star,
    inner,
    kulkarni_nomizu,
    lambda2_spectrum,
    levi_civita,
    levi_civita_tensor,
    sd_asd_split,
    star_weyl,
    triple,
)
from .polyverify import (
    REGISTRY,
    RationalPoly,
    VerifyResult,
    assemble_symbolic,
    verify_all,
    verify_identity,
)
from .tolerances import CLUSTER_TOL, EQUALITY_TOL, default_cluster_tol, default_tol

__version__ = "0.1.0"

__all__ = [
    "CLUSTER_TOL",
    "CurvTensor4",
    "CurvaturePack",
    "EQUALITY_TOL",
    "GlobalData",
    "Immersion",
    "LAMBDA2_BASIS",
    "NormPack",
    "PointState",
    "QuadratureGrid",
    "REGISTRY",
    "RationalPoly",
    "SQuadraticResult",
    "SharpReport",
    "SpectrumReport",
    "TwoForm",
    "VerifyResult",
    "VolumeBound",
    "assemble_symbolic",
    "bach_tensor",
    "bochner_residuals",
    "build_grid",
    "catalog_point",
    "cgb_integrand",
    "classify_batch",
    "clifford_immersion",
    "closed_form_norms",
    "default_cluster_tol",
    "default_tol",
    "div_weyl_sd",
    "div_weyl_sd_norms",
    "euler_integrand_bounds",
    "f_lower_bound",
    "f_lower_bound_candidates",
    "gauss_equations",
    "get_immersion",
    "hodge_star",
    "inner",
    "integrate",
    "kulkarni_nomizu",
    "lambda2_spectrum",
    "levi_civita",
    "levi_civita_tensor",
    "numeric_second_fundamental_form",
    "principal_multiplicities",
    "s_quadratic",
    "sd_asd_split",
    "sharp_inequalities",
    "signature_integrand",
    "spectrum_report",
    "star_weyl",
    "structure_predicates",
    "totally_geodesic_sphere",
    "triple",
    "verify_all",
    "verify_identity",
    "volume_hypothesis_bounds",
    "weyl_operator_spectrum",
    "weyl_tensor",
    "weyl_threshold_report",
]
