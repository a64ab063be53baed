"""Tolerance constants and the entry rule shared across the package.

Every numerical equality test is relative: a quantity x is treated as equal
to y when |x - y| <= EQUALITY_TOL * scale for a scale natural to the data.
That tolerance is a constant; only the functions of `classify` that cluster
spectra and the threshold tests of `bounds` take a ``tol``, which defaults
to CLUSTER_TOL. Without --tol the command line takes `default_tol()`, which
reads the HYPERCURV_TOL environment variable; library calls do not, unless
the caller passes `default_tol()` as ``tol``.

It also owns the entry rule of every tensor the package takes in,
``_entry_failure``: 1 + max|entry| is finite and at most its cap, then
|x - mirror| <= EQUALITY_TOL * (1 + max|entry|) for each of the input's
mirrors; and the rule of JSON input, ``_json_numbers``: numbers only,
checked on the decoded lists themselves.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

ENV_VAR = "HYPERCURV_TOL"

# Relative tolerance for algebraic equality tests (tensor identities,
# closed-form cross-checks).
EQUALITY_TOL = 1e-10

# Default gap tolerance for eigenvalue clustering.
CLUSTER_TOL = 1e-8


def default_tol() -> float:
    """Resolve the clustering tolerance from the environment at call time.

    The HYPERCURV_TOL environment variable, when set to a positive finite
    float, overrides CLUSTER_TOL; any other value is a ValueError. Pass
    the result as an explicit ``tol``.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return CLUSTER_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be a float, got {raw!r}") from exc
    if not 0.0 < value < math.inf:
        raise ValueError(f"{ENV_VAR} must be positive and finite, got {value}")
    return value


# Cap on the 1 + max|entry| scale of a state's inputs: with A or a spectrum,
# c, nablaA and hessS below it the degree-6 invariants (trA^6, S^3, their
# products with H) and the Bach, Bochner and CGB values stay inside float64.
_MAX_SCALE = 1e50

# Cap on curvature-level input (every tensor lambda2 takes in: curvature
# tensors, hodge_star's two-form arrays, Kulkarni-Nomizu factors): with
# a = max|A| and |c| at most 1e50, the Gauss and Weyl tensors of a state
# have entries below 24 a^2 + 9 |c| < 1e102.
_CURVATURE_SCALE = 1e102

# The end of the error of an entry over each cap.
_CAP_REASON = {_MAX_SCALE: "invariants of degree up to 6 in them would overflow",
               _CURVATURE_SCALE: f"the curvature of a state within {_MAX_SCALE:.0e} stays below it"}


def _entry_failure(name: str, rows: np.ndarray, mirrors=(), cap: float = _MAX_SCALE):
    """(i, error) for the first row i of a stack of values of field ``name``
    that breaks the entry rule, else None: a row's scale 1 + max|entry| is
    finite and at most ``cap``, then max|row - mirror| is at most
    EQUALITY_TOL times it for each (mirror, rule) of ``mirrors`` in turn.
    The error of a broken mirror states its rule."""
    axes = tuple(range(1, rows.ndim))
    scale = 1.0 + np.abs(rows).max(axis=axes, initial=0.0)
    # the rows before the first one over the cap, whose skew cannot overflow
    end = len(rows) if scale.max(initial=0.0) <= cap else int(np.argmin(scale <= cap))
    if mirrors:
        skew = np.array([np.abs(rows[:end] - mirror[:end]).max(axis=axes, initial=0.0)
                         for mirror, _ in mirrors]) > EQUALITY_TOL * scale[:end]
        if skew.any():
            i = int(skew.any(axis=0).argmax())
            return i, ValueError(f"{name}: {mirrors[int(skew[:, i].argmax())][1]}")
    if end < len(rows):
        return end, ValueError(f"{name}: entries " + (
            f"must not exceed {cap:.0e} in magnitude; {_CAP_REASON[cap]}"
            if scale[end] < math.inf else "must be finite numbers"))
    return None


def _require_entries(name: str, rows: np.ndarray, mirrors=(), cap: float = _MAX_SCALE) -> None:
    """Raise the error of the first row that breaks the entry rule."""
    failure = _entry_failure(name, rows, mirrors, cap)
    if failure is not None:
        raise failure[1]


_FLOAT, _LIST = frozenset((float,)), frozenset((list,))


def _float_shape(value):
    """The shape of a float, or of lists of floats nested to equal lengths as
    JSON decodes them, walked one depth at a time; None for anything else."""
    if type(value) is float:
        return ()
    if type(value) is not list:
        return None
    shape, level = (len(value),), value
    while not _FLOAT.issuperset(map(type, level)):
        sizes = set(map(len, level)) if _LIST.issuperset(map(type, level)) else ()
        if len(sizes) != 1:
            return None
        shape += tuple(sizes)
        level = list(itertools.chain.from_iterable(level))
    return shape


def _json_numbers(name: str, value) -> tuple:
    """(numbers, shape) of a JSON number or nested arrays of them: a float or
    the decoded lists of floats as given, which the caller converts with
    the rest of its batch, else a float array; booleans, strings, null,
    objects, ragged arrays and ints beyond float range raise."""
    # floats in lists of equal lengths, the common case, are already checked
    shape = _float_shape(value)
    if shape is not None:
        return value, shape
    leaves = np.asarray(value, dtype=object)
    # A ragged array leaves lists among the object leaves.
    if not set(map(type, leaves.flat)) <= {int, float}:
        raise ValueError(f"{name}: expected JSON numbers")
    try:
        numbers = leaves.astype(float)
    except OverflowError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return (float(numbers) if numbers.ndim == 0 else numbers), numbers.shape
