"""Pointwise algebraic classification of 4-dim hypersurface curvature.

Two integer invariants organize the pointwise picture: the number m of
distinct principal curvatures and the number w of distinct eigenvalues of
the self-dual Weyl operator. They determine each other through the pairing
structure: the three Weyl operator eigenvalues are indexed by the three
ways of splitting the four principal directions into two pairs, and the
difference of two of them factors exactly as

    v_I - v_J = 1/2 (l_b - l_c)(l_a - l_d)

for suitable index labels. Consequently m = 4 gives w = 3, m = 3 gives
w = 2, m = 2 gives w = 1 or 2 depending on the partition shape (w = 2 for
two double curvatures, w = 1 for a triple one), m = 1 gives w = 1, and a
conformally flat point (some principal curvature of multiplicity at least
three) is exactly a point with w = 1.

All clusterings in this module are driven by a single gap tolerance.
Eigenvalue gaps are compared against tol * (1 + max|l|); Weyl-operator
gaps against tol * (1 + max|l|)^2, since those eigenvalues are quadratic
in the principal curvatures. Gaps within a factor of two of the threshold
mark the report as indeterminate rather than silently committing to a
cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extrinsic import PointState
from .tolerances import CLUSTER_TOL, EQUALITY_TOL

__all__ = [
    "SpectrumReport",
    "SharpReport",
    "principal_multiplicities",
    "weyl_operator_spectrum",
    "structure_predicates",
    "sharp_inequalities",
    "spectrum_report",
]


def _as_spectrum(lam, expected: int | None = None) -> np.ndarray:
    if isinstance(lam, PointState):
        lam = np.linalg.eigvalsh(lam.A)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValueError(f"spectrum must be a flat vector, got shape {lam.shape}")
    if expected is not None and lam.size != expected:
        raise ValueError(f"expected {expected} principal curvatures, got {lam.size}")
    return lam


def _cluster_sizes(sorted_desc: np.ndarray, threshold: float):
    """Cluster sizes of a descending sequence split at gaps > threshold.

    Also reports whether any gap falls inside the indeterminate band
    (threshold/2, 2*threshold].
    """
    gaps = sorted_desc[:-1] - sorted_desc[1:]
    sizes = []
    current = 1
    for g in gaps:
        if g > threshold:
            sizes.append(current)
            current = 1
        else:
            current += 1
    sizes.append(current)
    indet = bool(np.any((gaps > 0.5 * threshold) & (gaps <= 2.0 * threshold)))
    return tuple(sizes), indet


def principal_multiplicities(lam, tol: float = CLUSTER_TOL):
    """Number of distinct principal curvatures and their partition.

    The spectrum is sorted in descending order and split at gaps larger
    than tol * (1 + max|l|). The partition lists cluster sizes in that
    order, e.g. (sqrt3, -1/sqrt3, -1/sqrt3, -1/sqrt3) -> m = 2,
    partition (1, 3).
    """
    lam = _as_spectrum(lam)
    desc = np.sort(lam)[::-1]
    threshold = tol * (1.0 + np.abs(lam).max(initial=0.0))
    sizes, _ = _cluster_sizes(desc, threshold)
    return len(sizes), sizes


def _pairing_values(lam: np.ndarray) -> np.ndarray:
    """Eigenvalues of the SD (equivalently ASD) Weyl operator from the spectrum.

    For each of the three pairings {i,j}|{a,b} of the four principal
    directions the operator eigenvalue is

        v = 1/2 s (s - H) + (H^2 - S)/6,   s = l_i + l_j,

    which is invariant under replacing s by H - s, so the pairing (not the
    side) determines the value.
    """
    if lam.size != 4:
        raise ValueError(f"Weyl operator spectrum needs 4 principal curvatures, got {lam.size}")
    H = lam.sum()
    S = float(np.sum(lam * lam))
    s = np.array([lam[0] + lam[1], lam[0] + lam[2], lam[0] + lam[3]])
    return 0.5 * s * (s - H) + (H * H - S) / 6.0


def weyl_operator_spectrum(lam, H: float | None = None, S: float | None = None,
                           tol: float = CLUSTER_TOL):
    """Distinct-eigenvalue count w and eigenvalues of the SD Weyl operator.

    H and S are accepted for interface symmetry but recomputed from the
    spectrum; a materially inconsistent pair is an input error. Returns
    (w, eigenvalues sorted descending). The eigenvalues sum to zero.
    """
    lam = _as_spectrum(lam, expected=4)
    scale = 1.0 + np.abs(lam).max(initial=0.0)
    if H is not None and abs(H - lam.sum()) > 1e-8 * scale:
        raise ValueError(f"H = {H} inconsistent with the spectrum (sum {lam.sum()})")
    if S is not None and abs(S - float(np.sum(lam * lam))) > 1e-8 * scale * scale:
        raise ValueError(f"S = {S} inconsistent with the spectrum")
    v = np.sort(_pairing_values(lam))[::-1]
    threshold = tol * scale * scale
    sizes, _ = _cluster_sizes(v, threshold)
    return len(sizes), v


def structure_predicates(lam, tol: float = CLUSTER_TOL) -> dict:
    """Pointwise structure flags from the principal curvature spectrum.

    lcf: some principal curvature has multiplicity >= 3 (the conformal
    flatness criterion; equivalent to W = 0 at the point).
    einstein: the trace-free Ricci tensor vanishes; for a minimal state
    this happens exactly for the (l, l, -l, -l) spectra and A = 0.
    twoTwoSplit: the multiplicity partition is (2, 2).
    """
    lam = _as_spectrum(lam, expected=4)
    m, partition = principal_multiplicities(lam, tol=tol)
    H = lam.sum()
    S = float(np.sum(lam * lam))
    ric_tf = H * lam - lam * lam - (H * H - S) / 4.0
    scale = 1.0 + S
    return {
        "lcf": max(partition) >= 3,
        "einstein": bool(np.abs(ric_tf).max() <= tol * scale),
        "twoTwoSplit": partition == (2, 2),
    }


@dataclass(frozen=True)
class SharpReport:
    """Slack and equality flags for the sharp pointwise inequalities."""

    margins: dict
    equality: dict


def sharp_inequalities(state, tol: float = EQUALITY_TOL) -> SharpReport:
    """Slack in the sharp bounds on |A^2|^2 and trA^3 for trace-free A.

    For a minimal n-dimensional state,

        S^2/n <= |A^2|^2 <= (n^2 - 3n + 3) / (n(n-1)) S^2
        |trA^3| <= (n-2)/sqrt(n(n-1)) S^(3/2)

    (for n = 4 the constants are 1/4, 7/12 and 1/sqrt3). Margins are
    reported as nonnegative-when-satisfied slacks; equality flags identify
    the rigidity cases: the upper |A^2|^2 bound is attained exactly at
    conformally flat points, the lower one exactly at Einstein points,
    and the trace bound exactly when some eigenspace has multiplicity
    >= n - 1. A state with nonzero mean curvature is outside the scope of
    these bounds and is an input error.
    """
    if isinstance(state, PointState):
        if not state.minimal:
            raise ValueError(f"sharp_inequalities requires a trace-free shape operator "
                             f"(H = {state.H:.3e})")
        lam = np.linalg.eigvalsh(state.A)
    else:
        lam = _as_spectrum(state)
        if abs(lam.sum()) > EQUALITY_TOL * (1.0 + np.abs(lam).sum()):
            raise ValueError(f"sharp_inequalities requires a trace-free spectrum "
                             f"(sum = {lam.sum():.3e})")
    n = lam.size
    S = float(np.sum(lam * lam))
    A2sq = float(np.sum(lam ** 4))
    trA3 = float(np.sum(lam ** 3))
    upper = (n * n - 3 * n + 3) / (n * (n - 1))
    tr3_bound = float((n - 2) / np.sqrt(n * (n - 1)) * S ** 1.5)
    margins = {
        "a2_lower": A2sq - S * S / n,
        "a2_upper": upper * S * S - A2sq,
        "tr3_upper": tr3_bound - trA3,
        "tr3_lower": trA3 + tr3_bound,
    }
    s2 = S * S
    s32 = S ** 1.5
    equality = {
        "lcf": bool(margins["a2_upper"] <= tol * s2),
        "einstein": bool(margins["a2_lower"] <= tol * s2),
        "trace": bool(min(margins["tr3_upper"], margins["tr3_lower"]) <= tol * s32),
    }
    return SharpReport(margins=margins, equality=equality)


@dataclass(frozen=True)
class SpectrumReport:
    """Aggregated pointwise classification of a 4-dim state."""

    m: int
    partition: tuple
    w: int
    weyl_eigen: tuple
    flags: dict
    margins: dict = field(default_factory=dict)
    indeterminate: bool = False

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "partition": list(self.partition),
            "w": self.w,
            "weylEigen": list(self.weyl_eigen),
            "flags": dict(self.flags),
            "margins": dict(self.margins),
            "indeterminate": self.indeterminate,
        }


def spectrum_report(state, tol: float = CLUSTER_TOL) -> SpectrumReport:
    """Full classification report for a point state or raw spectrum.

    Margins from the sharp inequalities are included when the state is
    trace-free; for mean-curved states that block is empty since the
    bounds do not apply.
    """
    if isinstance(state, PointState):
        if state.n != 4:
            raise ValueError(f"spectrum_report supports n = 4 only, got n = {state.n}")
        lam = np.linalg.eigvalsh(state.A)
        minimal = state.minimal
    else:
        lam = _as_spectrum(state, expected=4)
        minimal = abs(lam.sum()) <= EQUALITY_TOL * (1.0 + np.abs(lam).sum())
    desc = np.sort(lam)[::-1]
    scale = 1.0 + np.abs(lam).max(initial=0.0)
    partition, indet_m = _cluster_sizes(desc, tol * scale)
    v = np.sort(_pairing_values(lam))[::-1]
    wsizes, indet_w = _cluster_sizes(v, tol * scale * scale)
    # exact dictionary from the partition: mult >= 3 forces w = 1, four
    # simple curvatures force w = 3, everything else w = 2. Lambda gaps
    # enter the Weyl gaps as pairwise products, so near-degenerate
    # spectra can measure a smaller w than the partition implies; that
    # mismatch is a resolution artifact and is flagged, not classified.
    w_pred = 1 if max(partition) >= 3 else (3 if len(partition) == 4 else 2)
    flags = structure_predicates(lam, tol=tol)
    margins = {}
    if minimal:
        margins = sharp_inequalities(lam).margins
    return SpectrumReport(
        m=len(partition),
        partition=partition,
        w=len(wsizes),
        weyl_eigen=tuple(float(x) for x in v),
        flags=flags,
        margins=margins,
        indeterminate=indet_m or indet_w or len(wsizes) != w_pred,
    )


def _batch_mw(lams: np.ndarray, tol: float = CLUSTER_TOL):
    """Vectorized (m, w, indeterminate) for an (N, 4) spectrum batch.

    Shares the thresholds of the scalar API; used by the bulk invariance
    suites where per-point Python dispatch would dominate the runtime.
    """
    lams = np.asarray(lams, dtype=float)
    desc = np.sort(lams, axis=1)[:, ::-1]
    scale = 1.0 + np.abs(lams).max(axis=1)
    t_l = tol * scale
    gaps_l = desc[:, :-1] - desc[:, 1:]
    m = 1 + np.sum(gaps_l > t_l[:, None], axis=1)
    H = lams.sum(axis=1)
    S = np.sum(lams * lams, axis=1)
    s = np.stack([lams[:, 0] + lams[:, 1], lams[:, 0] + lams[:, 2], lams[:, 0] + lams[:, 3]], axis=1)
    v = 0.5 * s * (s - H[:, None]) + ((H * H - S) / 6.0)[:, None]
    v = np.sort(v, axis=1)[:, ::-1]
    t_v = tol * scale * scale
    gaps_v = v[:, :-1] - v[:, 1:]
    w = 1 + np.sum(gaps_v > t_v[:, None], axis=1)
    indet = (
        np.any((gaps_l > 0.5 * t_l[:, None]) & (gaps_l <= 2.0 * t_l[:, None]), axis=1)
        | np.any((gaps_v > 0.5 * t_v[:, None]) & (gaps_v <= 2.0 * t_v[:, None]), axis=1)
    )
    # the multiplicity dictionary is exact, so a mismatch between the
    # measured w and the one the lambda partition implies can only be a
    # resolution artifact (lambda gaps enter the Weyl gaps as products,
    # so a (2,2) spectrum at gap g has Weyl gaps of order g^2); flag it
    boundary = gaps_l > t_l[:, None]
    max_ge3 = (m == 1) | ((m == 2) & ~boundary[:, 1])
    w_pred = np.where(max_ge3, 1, np.where(m == 4, 3, 2))
    indet |= w != w_pred
    return m, w, indet
