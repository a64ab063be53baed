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

Every function reads shape operators A: a raw spectrum l is the state
diag(l), validated by the state validator of ``extrinsic`` as
PointState(lam=l) is (``_spectrum_rows``: the lambda shape rule, then
the entry cap row by row, on a whole (N, n) array at once in
``classify_batch``), but without the state's c and S warnings. A
diagonal A has its sorted diagonal as spectrum, any other A
eigvalsh(A); power sums come from ``extrinsic._quartic_powers``, the
kernel of the norms. One kernel, ``_classify``, does this for (N, 4, 4)
operators in a single pass: ``spectrum_report`` runs it on a batch of
one, the CLI on a batch of states, ``classify_batch`` on many spectra;
all agree row for row, and every n = 4 partition comes from one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extrinsic import (PointState, _diagonal, _is_minimal, _quartic_powers, _spectra,
                        _spectrum_rows)
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


def _require_width(n: int, width: int | None) -> None:
    if width is not None and n != width:
        raise ValueError(f"expected {width} principal curvatures, got {n}")


def _operators(state, width: int | None = None) -> np.ndarray:
    """The (1, n, n) shape operator of a PointState or of a raw spectrum l,
    which is the state diag(l) that PointState(lam=l) is."""
    A = state.A[None] if isinstance(state, PointState) else _diagonal(_spectrum_rows(state, 1))
    _require_width(A.shape[-1], width)
    return A


def _split(desc: np.ndarray, t: np.ndarray):
    """Cut mask of descending rows at gaps above the (N, 1) threshold t, and per
    row whether any gap falls in the indeterminate band (t/2, 2t]."""
    gaps = desc[:, :-1] - desc[:, 1:]
    return gaps > t, ((gaps > 0.5 * t) & (gaps <= 2.0 * t)).any(axis=1)


def _lambda_cuts(lams: np.ndarray, tol: float):
    """(cuts, band, (N, 1) scale 1 + max|l|) of (N, n) ascending spectra; cut j
    lies below the j-th largest l."""
    scale = 1.0 + np.abs(lams).max(axis=1, keepdims=True, initial=0.0)
    cuts, band = _split(lams[:, ::-1], tol * scale)
    return cuts, band, scale


def _partition(cuts: np.ndarray) -> tuple:
    """Cluster sizes, in descending curvature order, of one row of cuts."""
    ends = [j + 1 for j, cut in enumerate(cuts.tolist()) if cut] + [cuts.size + 1]
    return tuple(b - a for a, b in zip([0] + ends, ends))


# The code of a row of four sorted curvatures is 4 cut_0 + 2 cut_1 + cut_2.
# Each code has one partition, and the exact m -> w dictionary gives it one
# w: a multiplicity >= 3 forces w = 1, four simple curvatures force w = 3,
# everything else w = 2.
_CUT_INDEX = np.array([4, 2, 1])
_PARTITIONS = tuple(_partition(np.array([k & 4, k & 2, k & 1], dtype=bool)) for k in range(8))
_M = np.array([len(p) for p in _PARTITIONS])
_DICTIONARY_W = np.array([1 if max(p) >= 3 else (3 if len(p) == 4 else 2) for p in _PARTITIONS])


def _classify(lams: np.ndarray, powers: tuple, tol: float):
    """Per row of validated (N, 4) ascending spectra and their _quartic_powers:
    code, descending Weyl eigenvalues, w, and indeterminate (a gap in the
    band, or a w that the dictionary contradicts: lambda gaps enter the Weyl
    gaps as pairwise products, so a near-degenerate spectrum can measure too
    small a w).

    The Weyl eigenvalues are those of the SD (equivalently ASD) operator:
    the pairing {0,j}|{a,b} of the principal directions has the eigenvalue
    v = 1/2 s (s - H) + (H^2 - S)/6 with s = l_0 + l_j; replacing s by
    H - s leaves v unchanged, so the pairing, not the side, determines it.
    """
    cuts, band, scale = _lambda_cuts(lams, tol)
    codes = cuts @ _CUT_INDEX
    H, S = (p[:, None] for p in powers[:2])
    s = lams[:, :1] + lams[:, 1:]
    v = np.sort(0.5 * s * (s - H) + (H * H - S) / 6.0, axis=1)[:, ::-1]
    vcuts, vband = _split(v, tol * scale * scale)
    w = 1 + vcuts.sum(axis=1)
    return codes, v, w, band | vband | (w != _DICTIONARY_W[codes])


# Spectra per block of classify_batch: a block's (block, 4, 4) operators and
# their power-sum temporaries take 0.5 MiB each, whatever the batch.
_BATCH_BLOCK = 4096


def classify_batch(lams, tol: float = CLUSTER_TOL):
    """(m, w, indeterminate) arrays for an (N, 4) array of spectra.

    Entries must be finite and within the PointState scale cap. Row i
    equals ``spectrum_report(lams[i], tol)`` on all three.
    """
    lams = _spectrum_rows(lams, 2)
    _require_width(lams.shape[-1], 4)
    codes, w, unsure = (np.empty(len(lams), dtype=kind) for kind in (int, int, bool))
    for start in range(0, len(lams), _BATCH_BLOCK):
        rows = slice(start, start + _BATCH_BLOCK)
        A = _diagonal(lams[rows])
        codes[rows], _, w[rows], unsure[rows] = _classify(_spectra(A), _quartic_powers(A), tol)
    return _M[codes], w, unsure


def principal_multiplicities(lam, tol: float = CLUSTER_TOL):
    """Number of distinct principal curvatures and their partition.

    The spectrum (any length) is sorted in descending order and split at
    gaps larger than tol * (1 + max|l|). The partition lists cluster sizes
    in that order, e.g. (sqrt3, -1/sqrt3, -1/sqrt3, -1/sqrt3) -> m = 2,
    partition (1, 3).
    """
    cuts, _, _ = _lambda_cuts(_spectra(_operators(lam)), tol)
    partition = _partition(cuts[0])
    return len(partition), partition


def weyl_operator_spectrum(lam, H: float | None = None, S: float | None = None,
                           tol: float = CLUSTER_TOL):
    """Distinct-eigenvalue count w and eigenvalues of the SD Weyl operator.

    H and S are accepted for interface symmetry but recomputed from the
    spectrum; a materially inconsistent pair is an input error. Returns
    (w, eigenvalues sorted descending). The eigenvalues sum to zero.
    """
    A = _operators(lam, 4)
    lams, powers = _spectra(A), _quartic_powers(A)
    scale = 1.0 + np.abs(lams).max()
    lam_H, lam_S = float(powers[0][0]), float(powers[1][0])
    if H is not None and abs(H - lam_H) > 1e-8 * scale:
        raise ValueError(f"H = {H} inconsistent with the spectrum (sum {lam_H})")
    if S is not None and abs(S - lam_S) > 1e-8 * scale * scale:
        raise ValueError(f"S = {S} inconsistent with the spectrum")
    _, v, w, _ = _classify(lams, powers, tol)
    return int(w[0]), v[0]


def _flags(lams: np.ndarray, codes: np.ndarray, powers: tuple, tol: float) -> list:
    """Structure flags of each row of (N, 4) spectra from its code and
    _quartic_powers; the Einstein test reads the Ric_0 eigenvalues
    H l - l^2 - (H^2 - S)/4."""
    H, S = (p[:, None] for p in powers[:2])
    ric_tf = H * lams - lams * lams - (H * H - S) / 4.0
    einstein = np.abs(ric_tf).max(axis=1) <= tol * (1.0 + S[:, 0])
    return [{"lcf": lcf, "einstein": is_einstein, "twoTwoSplit": _PARTITIONS[code] == (2, 2)}
            for lcf, is_einstein, code in zip(
                (_DICTIONARY_W[codes] == 1).tolist(), einstein.tolist(), codes.tolist())]


def structure_predicates(lam, tol: float = CLUSTER_TOL) -> dict:
    """Pointwise structure flags from the principal curvature spectrum.

    lcf: some principal curvature has multiplicity >= 3 (the conformal
    flatness criterion; equivalent to W = 0 at the point).
    einstein: the trace-free Ricci tensor vanishes; for a minimal state
    this happens exactly for the (l, l, -l, -l) spectra and A = 0.
    twoTwoSplit: the multiplicity partition is (2, 2).
    """
    A = _operators(lam, 4)
    lams = _spectra(A)
    cuts, _, _ = _lambda_cuts(lams, tol)
    return _flags(lams, cuts @ _CUT_INDEX, _quartic_powers(A), tol)[0]


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
    A = _operators(state)
    powers = _quartic_powers(A)
    if not _is_minimal(A[0]):
        raise ValueError(f"sharp_inequalities requires a trace-free shape operator "
                         f"(H = {powers[0][0]:.3e})")
    return _sharp(powers, A.shape[-1], tol)[0]


def _sharp(powers: tuple, n: int, tol: float) -> list:
    """SharpReport of each trace-free n-dim row of _quartic_powers. The
    margins are taken on Python floats: numpy's array S ** 1.5 differs from
    Python's in the last bit on some rows."""
    upper = (n * n - 3 * n + 3) / (n * (n - 1))
    tr3_factor = (n - 2) / math.sqrt(n * (n - 1))
    reports = []
    for S, A2sq, trA3 in zip(*(p.tolist() for p in powers[1:])):
        tr3_bound = tr3_factor * S ** 1.5
        margins = {
            "a2_lower": A2sq - S * S / n,
            "a2_upper": upper * S * S - A2sq,
            "tr3_upper": tr3_bound - trA3,
            "tr3_lower": trA3 + tr3_bound,
        }
        reports.append(SharpReport(margins=margins, equality={
            "lcf": margins["a2_upper"] <= tol * (S * S),
            "einstein": margins["a2_lower"] <= tol * (S * S),
            "trace": min(margins["tr3_upper"], margins["tr3_lower"]) <= tol * S ** 1.5,
        }))
    return reports


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


def _spectrum_reports(A: np.ndarray, powers: tuple, minimal, tol: float) -> list:
    """SpectrumReport of each of the validated (N, 4, 4) operators A, given
    their _quartic_powers, from one _classify pass; row i gets margins when
    minimal[i] is true."""
    lams = _spectra(A)
    codes, v, w, indeterminate = _classify(lams, powers, tol)
    sharp = iter(_sharp([p[np.array(minimal, dtype=bool)] for p in powers], 4, EQUALITY_TOL))
    return [SpectrumReport(m=len(_PARTITIONS[code]), partition=_PARTITIONS[code], w=w_row,
                           weyl_eigen=tuple(v_row), flags=flags,
                           margins=next(sharp).margins if trace_free else {},
                           indeterminate=unsure)
            for code, v_row, w_row, flags, unsure, trace_free in zip(
                codes.tolist(), v.tolist(), w.tolist(), _flags(lams, codes, powers, tol),
                indeterminate.tolist(), minimal)]


def spectrum_report(state, tol: float = CLUSTER_TOL) -> SpectrumReport:
    """Full classification report for a point state or raw spectrum.

    Margins from the sharp inequalities are included when the state is
    minimal (``PointState.minimal``, whose rule a raw spectrum follows
    too); for mean-curved states that block is empty since the bounds do
    not apply.
    """
    A = _operators(state, 4)
    return _spectrum_reports(A, _quartic_powers(A), [_is_minimal(A[0])], tol)[0]
