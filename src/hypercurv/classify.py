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
in the principal curvatures. Gaps within a factor of two of the threshold,
or a measured w that the dictionary contradicts, mark the report as
indeterminate rather than silently committing to a cluster count.

One kernel, ``_classify``, does this for an (N, 4) array of spectra in a
single pass. ``spectrum_report`` runs it on a batch of one, the CLI on a
whole batch of states, and ``classify_batch`` returns its (m, w,
indeterminate) columns for many spectra at once; all agree row for row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extrinsic import PointState, _is_minimal, _require_four, _require_scale
from .tolerances import CLUSTER_TOL, EQUALITY_TOL

__all__ = [
    "SpectrumReport",
    "SharpReport",
    "classify_batch",
    "principal_multiplicities",
    "weyl_operator_spectrum",
    "structure_predicates",
    "sharp_inequalities",
    "spectrum_report",
]


def _as_spectra(lam, ndim: int, width: int | None = None) -> np.ndarray:
    """Shape check (ndim 1 for one spectrum, 2 for rows) plus the entry check
    of PointState, which may stand for one spectrum as it was checked."""
    if ndim == 1 and isinstance(lam, PointState):
        lam = np.linalg.eigvalsh(lam.A)
    else:
        lam = np.asarray(lam, dtype=float)
        if lam.ndim != ndim:
            raise ValueError(f"expected a spectrum array with {ndim} axes, got shape {lam.shape}")
        _require_scale("spectrum", 1.0 + np.abs(lam).max(initial=0.0))
    if width is not None and lam.shape[-1] != width:
        raise ValueError(f"expected {width} principal curvatures, got {lam.shape[-1]}")
    return lam


def _split(desc: np.ndarray, t: np.ndarray):
    """Cut mask of descending rows at gaps above the (N, 1) threshold t, and per
    row whether any gap falls in the indeterminate band (t/2, 2t]."""
    gaps = desc[:, :-1] - desc[:, 1:]
    return gaps > t, ((gaps > 0.5 * t) & (gaps <= 2.0 * t)).any(axis=1)


def _lambda_cuts(lams: np.ndarray, tol: float):
    """(cuts, band, (N, 1) scale 1 + max|l|) of (N, n) spectra; cut j lies
    below the j-th largest l."""
    scale = 1.0 + np.abs(lams).max(axis=1, keepdims=True, initial=0.0)
    cuts, band = _split(np.sort(lams, axis=1)[:, ::-1], tol * scale)
    return cuts, band, scale


def _partition(cuts: np.ndarray) -> tuple:
    """Cluster sizes, in descending curvature order, of one row of cuts."""
    ends = [j + 1 for j, cut in enumerate(cuts.tolist()) if cut] + [cuts.size + 1]
    return tuple(b - a for a, b in zip([0] + ends, ends))


def _pairing_values(lams: np.ndarray) -> np.ndarray:
    """SD (equivalently ASD) Weyl operator eigenvalues of (N, 4) spectra.

    The pairing {0,j}|{a,b} of the principal directions has the eigenvalue
    v = 1/2 s (s - H) + (H^2 - S)/6 with s = l_0 + l_j; replacing s by
    H - s leaves v unchanged, so the pairing, not the side, determines it.
    """
    H = lams.sum(axis=1, keepdims=True)
    S = (lams * lams).sum(axis=1, keepdims=True)
    s = lams[:, :1] + lams[:, 1:]
    return 0.5 * s * (s - H) + (H * H - S) / 6.0


# The exact m -> w dictionary over the eight cut patterns of four sorted
# curvatures, indexed by 4 cut_0 + 2 cut_1 + cut_2: a multiplicity >= 3
# forces w = 1, four simple curvatures force w = 3, everything else w = 2.
_CUT_INDEX = np.array([4, 2, 1])
_DICTIONARY_W = np.array([1 if max(p) >= 3 else (3 if len(p) == 4 else 2) for p in
                          map(_partition, np.array([[k & 4, k & 2, k & 1] for k in range(8)], dtype=bool))])


def _dictionary_w(cuts: np.ndarray) -> np.ndarray:
    """The w that the dictionary assigns to (N, 3) principal-curvature cuts."""
    return _DICTIONARY_W[cuts @ _CUT_INDEX]


def _classify(lams: np.ndarray, tol: float):
    """Per row of validated (N, 4) spectra: lambda cuts, descending Weyl
    eigenvalues, w, and indeterminate (a gap in the band, or a w that the
    dictionary contradicts: lambda gaps enter the Weyl gaps as pairwise
    products, so a near-degenerate spectrum can measure too small a w)."""
    cuts, band, scale = _lambda_cuts(lams, tol)
    v = np.sort(_pairing_values(lams), axis=1)[:, ::-1]
    vcuts, vband = _split(v, tol * scale * scale)
    w = 1 + vcuts.sum(axis=1)
    return cuts, v, w, band | vband | (w != _dictionary_w(cuts))


def classify_batch(lams, tol: float = CLUSTER_TOL):
    """(m, w, indeterminate) arrays for an (N, 4) array of spectra.

    Entries must be finite and within the PointState scale cap. Row i
    equals ``spectrum_report(lams[i], tol)`` on all three.
    """
    cuts, _, w, indeterminate = _classify(_as_spectra(lams, 2, 4), tol)
    return 1 + cuts.sum(axis=1), w, indeterminate


def principal_multiplicities(lam, tol: float = CLUSTER_TOL):
    """Number of distinct principal curvatures and their partition.

    The spectrum (any length) is sorted in descending order and split at
    gaps larger than tol * (1 + max|l|). The partition lists cluster sizes
    in that order, e.g. (sqrt3, -1/sqrt3, -1/sqrt3, -1/sqrt3) -> m = 2,
    partition (1, 3).
    """
    cuts, _, _ = _lambda_cuts(_as_spectra(lam, 1)[None], tol)
    partition = _partition(cuts[0])
    return len(partition), partition


def weyl_operator_spectrum(lam, H: float | None = None, S: float | None = None,
                           tol: float = CLUSTER_TOL):
    """Distinct-eigenvalue count w and eigenvalues of the SD Weyl operator.

    H and S are accepted for interface symmetry but recomputed from the
    spectrum; a materially inconsistent pair is an input error. Returns
    (w, eigenvalues sorted descending). The eigenvalues sum to zero.
    """
    lam = _as_spectra(lam, 1, 4)
    scale = 1.0 + np.abs(lam).max()
    if H is not None and abs(H - lam.sum()) > 1e-8 * scale:
        raise ValueError(f"H = {H} inconsistent with the spectrum (sum {lam.sum()})")
    if S is not None and abs(S - (lam * lam).sum()) > 1e-8 * scale * scale:
        raise ValueError(f"S = {S} inconsistent with the spectrum")
    _, v, w, _ = _classify(lam[None], tol)
    return int(w[0]), v[0]


def _flags(lam: np.ndarray, cuts: np.ndarray, tol: float) -> dict:
    """Structure flags of one spectrum from its row of lambda cuts."""
    H = float(lam.sum())
    S = float((lam * lam).sum())
    ric_tf = H * lam - lam * lam - (H * H - S) / 4.0
    return {
        "lcf": bool(_dictionary_w(cuts) == 1),
        "einstein": bool(np.abs(ric_tf).max() <= tol * (1.0 + S)),
        "twoTwoSplit": _partition(cuts) == (2, 2),
    }


def structure_predicates(lam, tol: float = CLUSTER_TOL) -> dict:
    """Pointwise structure flags from the principal curvature spectrum.

    lcf: some principal curvature has multiplicity >= 3 (the conformal
    flatness criterion; equivalent to W = 0 at the point).
    einstein: the trace-free Ricci tensor vanishes; for a minimal state
    this happens exactly for the (l, l, -l, -l) spectra and A = 0.
    twoTwoSplit: the multiplicity partition is (2, 2).
    """
    lam = _as_spectra(lam, 1, 4)
    cuts, _, _ = _lambda_cuts(lam[None], tol)
    return _flags(lam, cuts[0], tol)


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
    lam = _as_spectra(state, 1)
    if not (state.minimal if isinstance(state, PointState) else _is_minimal(np.diag(lam))):
        raise ValueError(f"sharp_inequalities requires a trace-free shape operator "
                         f"(H = {lam.sum():.3e})")
    return _sharp(lam, tol)


def _sharp(lam: np.ndarray, tol: float) -> SharpReport:
    n = lam.size
    S = float((lam * lam).sum())
    A2sq = float((lam ** 4).sum())
    trA3 = float((lam ** 3).sum())
    upper = (n * n - 3 * n + 3) / (n * (n - 1))
    tr3_bound = (n - 2) / math.sqrt(n * (n - 1)) * S ** 1.5
    margins = {
        "a2_lower": A2sq - S * S / n,
        "a2_upper": upper * S * S - A2sq,
        "tr3_upper": tr3_bound - trA3,
        "tr3_lower": trA3 + tr3_bound,
    }
    return SharpReport(margins=margins, equality={
        "lcf": bool(margins["a2_upper"] <= tol * (S * S)),
        "einstein": bool(margins["a2_lower"] <= tol * (S * S)),
        "trace": bool(min(margins["tr3_upper"], margins["tr3_lower"]) <= tol * S ** 1.5),
    })


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
        return {"m": self.m, "partition": list(self.partition), "w": self.w,
                "weylEigen": list(self.weyl_eigen), "flags": dict(self.flags),
                "margins": dict(self.margins), "indeterminate": self.indeterminate}


def _check_state(state: PointState) -> None:
    """The dimension check of spectrum_report."""
    _require_four(state, "spectrum_report")


def _spectrum_reports(lams: np.ndarray, minimal, tol: float) -> list:
    """SpectrumReport of each row of validated (N, 4) spectra, from one
    _classify pass; row i gets margins when minimal[i] is true."""
    cuts, v, w, indeterminate = _classify(lams, tol)
    reports = []
    for lam, cut, v_row, w_row, unsure, trace_free in zip(
            lams, cuts, v.tolist(), w.tolist(), indeterminate.tolist(), minimal):
        partition = _partition(cut)
        reports.append(SpectrumReport(
            m=len(partition),
            partition=partition,
            w=w_row,
            weyl_eigen=tuple(v_row),
            flags=_flags(lam, cut, tol),
            margins=_sharp(lam, EQUALITY_TOL).margins if trace_free else {},
            indeterminate=unsure,
        ))
    return reports


def _state_reports(states, tol: float) -> list:
    """spectrum_report of each n = 4 PointState, from one eigvalsh and one
    classification pass over the whole list."""
    for state in states:
        _check_state(state)
    lams = np.linalg.eigvalsh(np.array([state.A for state in states]).reshape(-1, 4, 4))
    return _spectrum_reports(lams, [state.minimal for state in states], tol)


def spectrum_report(state, tol: float = CLUSTER_TOL) -> SpectrumReport:
    """Full classification report for a point state or raw spectrum.

    Margins from the sharp inequalities are included when the state is
    minimal (``PointState.minimal``, whose rule a raw spectrum follows
    too); for mean-curved states that block is empty since the bounds do
    not apply.
    """
    if isinstance(state, PointState):
        return _state_reports([state], tol)[0]
    lam = _as_spectra(state, 1, 4)
    return _spectrum_reports(lam[None], [_is_minimal(np.diag(lam))], tol)[0]
