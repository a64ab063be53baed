"""Tolerance defaults and the entry rule shared across the package.

Every numerical equality test is relative: a quantity x is treated as equal
to y when |x - y| <= tol * scale for a scale natural to the data. The two
defaults below bind at import and can be overridden per call. Without
--tol the command line takes `default_cluster_tol()`, which reads the
HYPERCURV_TOL environment variable; library calls do not, unless the
caller passes `default_tol()` or `default_cluster_tol()` as ``tol``.

It also owns the entry rule of every tensor the package takes in,
``_entry_failure``: 1 + max|entry| is finite and at most its cap, then
|x - mirror| <= tol * (1 + max|entry|) for the input's mirror, if any.
"""

from __future__ import annotations

import math
import os

import numpy as np

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


# Cap on the 1 + max|entry| scale of a state's inputs: with A or a spectrum,
# c, nablaA and hessS below it the degree-6 invariants (trA^6, S^3, their
# products with H) and the Bach, Bochner and CGB values stay inside float64.
_MAX_SCALE = 1e50

# Cap on curvature-level input (the tensors, two-forms and Kulkarni-Nomizu
# factors of lambda2): with a = max|A| and |c| at most 1e50, the Gauss and
# Weyl tensors of a state have entries below 24 a^2 + 9 |c| < 1e102.
_CURVATURE_SCALE = 1e102

# The end of the error of an entry over each cap.
_CAP_REASON = {_MAX_SCALE: "invariants of degree up to 6 in them would overflow",
               _CURVATURE_SCALE: f"the curvature of a state within {_MAX_SCALE:.0e} stays below it"}


def _entry_failure(name: str, rows: np.ndarray, mirror=None, tol: float = EQUALITY_TOL,
                   rule: str = "must be symmetric", cap: float = _MAX_SCALE):
    """(i, error) for the first row i of a stack of values of field ``name``
    that breaks the entry rule, else None: a row's scale 1 + max|entry| is
    finite and at most ``cap``, then max|row - mirror| is at most tol times
    it, given a mirror. The error of a broken mirror states ``rule``."""
    axes = tuple(range(1, rows.ndim))
    scale = 1.0 + np.abs(rows).max(axis=axes, initial=0.0)
    # the rows before the first one over the cap, whose skew cannot overflow
    end = len(rows) if scale.max(initial=0.0) <= cap else int(np.argmin(scale <= cap))
    if mirror is not None:
        skew = np.abs(rows[:end] - mirror[:end]).max(axis=axes, initial=0.0) > tol * scale[:end]
        if skew.any():
            return int(skew.argmax()), ValueError(f"{name}: {rule}")
    if end < len(rows):
        return end, ValueError(f"{name}: entries " + (
            f"must not exceed {cap:.0e} in magnitude; {_CAP_REASON[cap]}"
            if scale[end] < math.inf else "must be finite numbers"))
    return None


def _require_entries(name: str, rows: np.ndarray, mirror=None, tol: float = EQUALITY_TOL,
                     rule: str = "must be symmetric", cap: float = _MAX_SCALE) -> None:
    """Raise the error of the first row that breaks the entry rule."""
    failure = _entry_failure(name, rows, mirror, tol, rule, cap)
    if failure is not None:
        raise failure[1]
