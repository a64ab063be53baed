"""Tolerance defaults shared across the package.

Every numerical equality test is relative: a quantity x is treated as equal
to y when |x - y| <= tol * scale for a scale natural to the data. The two
defaults below bind at import and can be overridden per call. Without
--tol the command line takes `default_cluster_tol()`, which reads the
HYPERCURV_TOL environment variable; library calls do not, unless the
caller passes `default_tol()` or `default_cluster_tol()` as ``tol``.
"""

from __future__ import annotations

import math
import os

ENV_VAR = "HYPERCURV_TOL"

# Relative tolerance for algebraic equality tests (tensor identities,
# closed-form cross-checks).
EQUALITY_TOL = 1e-10

# Default gap tolerance for eigenvalue clustering.
CLUSTER_TOL = 1e-8


def default_tol(fallback: float = EQUALITY_TOL) -> float:
    """Resolve a tolerance from the environment at call time.

    The HYPERCURV_TOL environment variable, when set to a positive finite
    float, overrides ``fallback``; any other value is a ValueError. Pass
    the result as an explicit ``tol``.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be a float, got {raw!r}") from exc
    if not 0.0 < value < math.inf:
        raise ValueError(f"{ENV_VAR} must be positive and finite, got {value}")
    return value


def default_cluster_tol() -> float:
    """`default_tol` with the clustering default as fallback."""
    return default_tol(CLUSTER_TOL)
