"""Pointwise extrinsic curvature of hypersurfaces in space forms.

A point of a hypersurface immersed in a simply connected space form of
curvature c is described by its shape operator A (symmetric, expressed in
an orthonormal tangent frame), optionally together with first and second
derivative data. The Gauss equation then determines the full intrinsic
curvature tensor, and in dimension four the Weyl tensor, its self-dual and
anti-self-dual energies, the extrinsic Chern-Gauss-Bonnet integrand, the
Bach tensor, and the divergence of the (anti-)self-dual Weyl parts are all
closed-form expressions in A and its derivatives.

Index conventions match :mod:`hypercurv.lambda2`: orthonormal frames,
1-based indices in reported component labels. The third fundamental
derivative tensor nablaA has totally symmetric components
A_ijk = (nabla_k A)_ij.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lambda2 import CurvTensor4, _kn_raw, _star4, inner, star_weyl, triple
from .tolerances import EQUALITY_TOL

__all__ = [
    "PointState",
    "CurvaturePack",
    "NormPack",
    "NABLA_ORDER",
    "gauss_equations",
    "weyl_tensor",
    "closed_form_norms",
    "cgb_integrand",
    "signature_integrand",
    "bach_tensor",
    "div_weyl_sd",
    "div_weyl_sd_norms",
    "bochner_residuals",
]

# Canonical flat order for the 20 independent components of a totally
# symmetric rank-3 tensor in dimension 4: lexicographic over i <= j <= k,
# 1-based.
NABLA_ORDER = tuple(
    (i, j, k)
    for i in range(1, 5)
    for j in range(i, 5)
    for k in range(j, 5)
)

_MINIMAL_REL_TOL = 1e-10
_CONDITION_WARN_S = 1e8
# Cap on the 1 + max|entry| scale of A or a spectrum: below it the degree-6
# invariants (trA^6, S^3, their products with H) stay inside float64.
_MAX_SCALE = 1e50


def _symmetrize3(arr: np.ndarray) -> np.ndarray:
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return sum(arr.transpose(p) for p in perms) / 6.0


def _nabla_from_flat(flat) -> np.ndarray:
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (20,):
        raise ValueError(f"nablaA: expected 20 entries, got shape {flat.shape}")
    arr = np.zeros((4, 4, 4))
    for value, (i, j, k) in zip(flat, NABLA_ORDER):
        for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            arr[p[0] - 1, p[1] - 1, p[2] - 1] = value
    return arr


def _nabla_to_flat(arr: np.ndarray) -> list:
    return [float(arr[i - 1, j - 1, k - 1]) for (i, j, k) in NABLA_ORDER]


def _require_finite(name: str, value: float) -> None:
    # Callers pass the scalar itself or the 1 + max |entry| scale they
    # already compute, which is NaN or inf exactly when an entry is.
    if not math.isfinite(value):
        raise ValueError(f"{name}: entries must be finite numbers")


def _require_scale(name: str, scale: float) -> None:
    _require_finite(name, scale)
    if scale > _MAX_SCALE:
        raise ValueError(f"{name}: entries must not exceed {_MAX_SCALE:.0e} in magnitude; "
                         "degree-6 invariants such as trA^6 and S^3 would overflow")


class PointState:
    """Pointwise data of a hypersurface immersed in a space form.

    Parameters
    ----------
    A:
        Shape operator, symmetric (n, n) array. Alternatively pass
        ``lam`` (principal curvatures) to get a diagonal state.
    c:
        Ambient sectional curvature. Values outside {-1, 0, 1} are legal
        but unusual and draw a warning.
    nablaA:
        Optional totally symmetric (n, n, n) array, or for n = 4 a flat
        20-vector in NABLA_ORDER.
    hessS:
        Optional symmetric (n, n) Hessian of the squared norm S = |A|^2.
    parallel:
        Asserts nabla A = 0 and Hess S = 0; derivative-dependent
        quantities then use zeros without explicit arrays.
    """

    __slots__ = ("n", "c", "A", "nablaA", "hessS", "parallel", "_from_spectrum")

    def __init__(self, A=None, c: float = 1.0, lam=None, nablaA=None, hessS=None,
                 parallel: bool = False, tol: float = EQUALITY_TOL):
        if (A is None) == (lam is None):
            raise ValueError("provide exactly one of A or lam")
        from_spectrum = lam is not None
        if from_spectrum:
            lam = np.asarray(lam, dtype=float)
            if lam.ndim != 1 or lam.size < 3:
                raise ValueError(f"lambda: expected at least 3 principal curvatures, got shape {lam.shape}")
            A = np.diag(lam)
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A: expected a square matrix, got shape {A.shape}")
        n = A.shape[0]
        if n < 3:
            raise ValueError(f"A: dimension must be at least 3, got {n}")
        scale = 1.0 + np.abs(A).max()
        _require_scale("lambda" if from_spectrum else "A", scale)
        if np.abs(A - A.T).max() > tol * scale:
            raise ValueError("A: shape operator must be symmetric")
        A = 0.5 * (A + A.T)
        c = float(c)
        _require_finite("c", c)
        if c not in (-1.0, 0.0, 1.0):
            warnings.warn(f"ambient curvature c={c} lies outside the normalized set {{-1, 0, 1}}",
                          stacklevel=2)
        S = float(np.sum(A * A))
        if S > _CONDITION_WARN_S:
            warnings.warn(f"S = {S:.3e} is large; downstream quartic expressions lose "
                          "roughly half the available precision", stacklevel=2)
        if nablaA is not None:
            nabla = np.asarray(nablaA, dtype=float)
            if nabla.shape == (20,) and n == 4:
                nabla = _nabla_from_flat(nabla)
            if nabla.shape != (n, n, n):
                raise ValueError(f"nablaA: expected shape {(n, n, n)} or a flat 20-vector, got {nabla.shape}")
            sym = _symmetrize3(nabla)
            nscale = 1.0 + np.abs(nabla).max()
            _require_finite("nablaA", nscale)
            if np.abs(nabla - sym).max() > tol * nscale:
                raise ValueError("nablaA: components must be totally symmetric")
            nabla = sym
            nabla.setflags(write=False)
        else:
            nabla = None
        if hessS is not None:
            hess = np.array(hessS, dtype=float)
            if hess.shape != (n, n):
                raise ValueError(f"hessS: expected shape {(n, n)}, got {hess.shape}")
            hscale = 1.0 + np.abs(hess).max()
            _require_finite("hessS", hscale)
            if np.abs(hess - hess.T).max() > tol * hscale:
                raise ValueError("hessS: must be symmetric")
            hess = 0.5 * (hess + hess.T)
            hess.setflags(write=False)
        else:
            hess = None
        A.setflags(write=False)
        self.n = n
        self.c = c
        self.A = A
        self.nablaA = nabla
        self.hessS = hess
        self.parallel = bool(parallel)
        self._from_spectrum = from_spectrum
        if self.minimal and nabla is not None:
            div = np.einsum("iik->k", nabla)
            if np.abs(div).max() > tol * (1.0 + np.abs(nabla).max()):
                raise ValueError(
                    "nablaA: trace A_iik must equal the H gradient, which vanishes for a "
                    f"minimal state (max violation {np.abs(div).max():.3e})"
                )

    @property
    def H(self) -> float:
        return float(np.trace(self.A))

    @property
    def S(self) -> float:
        return float(np.sum(self.A * self.A))

    @property
    def lam(self) -> np.ndarray:
        """Principal curvatures in descending order."""
        return np.linalg.eigvalsh(self.A)[::-1].copy()

    @property
    def minimal(self) -> bool:
        return bool(abs(self.H) <= _MINIMAL_REL_TOL * (1.0 + np.linalg.norm(self.A)))

    def to_json(self) -> str:
        data: dict = {"n": self.n, "c": self.c}
        if self._from_spectrum:
            data["lambda"] = [float(v) for v in np.diag(self.A)]
        else:
            data["A"] = self.A.tolist()
        if self.nablaA is not None:
            if self.n == 4:
                data["nablaA"] = _nabla_to_flat(self.nablaA)
            else:
                data["nablaA"] = self.nablaA.tolist()
        if self.hessS is not None:
            data["hessS"] = self.hessS.tolist()
        if self.parallel:
            data["parallel"] = True
        return json.dumps(data)

    @classmethod
    def from_dict(cls, data: dict) -> "PointState":
        if not isinstance(data, dict):
            raise ValueError("point state: expected a JSON object")
        known = {"n", "c", "lambda", "A", "nablaA", "hessS", "parallel"}
        for key in data:
            if key not in known:
                raise ValueError(f"{key}: unknown field")
        if ("lambda" in data) == ("A" in data):
            raise ValueError("point state: provide exactly one of 'lambda' or 'A'")
        n = data.get("n")
        kwargs = {}
        if "lambda" in data:
            lam = data["lambda"]
            if n is not None and len(lam) != n:
                raise ValueError(f"lambda: expected {n} entries, got {len(lam)}")
            kwargs["lam"] = lam
        else:
            kwargs["A"] = data["A"]
        return cls(
            c=data.get("c", 1.0),
            nablaA=data.get("nablaA"),
            hessS=data.get("hessS"),
            parallel=bool(data.get("parallel", False)),
            **kwargs,
        )

    @classmethod
    def from_json(cls, text: str) -> "PointState":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (f"PointState(n={self.n}, c={self.c:g}, H={self.H:.6g}, S={self.S:.6g}, "
                f"minimal={self.minimal}, parallel={self.parallel})")


@dataclass(frozen=True)
class CurvaturePack:
    """Intrinsic curvature data from the Gauss equation."""

    riem: object
    ric: np.ndarray
    scal: float
    ricTF: np.ndarray


@dataclass(frozen=True)
class NormPack:
    """Scalar curvature invariants in closed form (dimension four)."""

    S: float
    A2sq: float
    trA3: float
    trA5: float
    trA6: float
    Wsq: float
    Wpmsq: float
    RicTFsq: float
    F: np.ndarray


def _eye_like(A: np.ndarray) -> np.ndarray:
    n = A.shape[-1]
    return np.broadcast_to(np.eye(n, dtype=A.dtype), A.shape)


def _kn_sym(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return (_kn_raw(U, V) + _kn_raw(V, U)) / 2


def _scal4(x: np.ndarray) -> np.ndarray:
    return np.asarray(x)[..., None, None, None, None]


def _weyl_raw(A: np.ndarray) -> np.ndarray:
    """Weyl tensor of the induced metric, from the shape operator alone.

    Broadcasts over leading axes: A of shape (..., 4, 4) gives a
    (..., 4, 4, 4, 4) result. The ambient curvature c drops out of the
    Weyl part entirely, which is why it does not appear here. Generic in
    the dtype: only integer constants enter, so the exact certifier runs
    this same kernel on object arrays of rational polynomials.
    """
    A = np.asarray(A)
    I = _eye_like(A)
    A2 = A @ A
    H = np.trace(A, axis1=-2, axis2=-1)
    S = np.einsum("...ij,...ij->...", A, A)
    W = _kn_raw(A, A) / 2
    W = W - _scal4(H / 2) * _kn_sym(A, I)
    W = W + _kn_sym(A2, I) / 2
    W = W + _scal4((H * H - S) / 12) * _kn_raw(I, I)
    return W


def _weyl_split_norms(A: np.ndarray):
    """Batched (|W+|^2, |W-|^2, |W|^2) via the tensor route."""
    W = _weyl_raw(A)
    SW = _star4(W)
    Wp = 0.5 * (W + SW)
    Wm = 0.5 * (W - SW)
    wp = np.einsum("...ijkl,...ijkl->...", Wp, Wp)
    wm = np.einsum("...ijkl,...ijkl->...", Wm, Wm)
    ww = np.einsum("...ijkl,...ijkl->...", W, W)
    return wp, wm, ww


def gauss_equations(p: PointState) -> CurvaturePack:
    """Intrinsic curvature of the induced metric via the Gauss equation.

    Works in any dimension n >= 3. Returns the full curvature tensor
    (as a CurvTensor4 when n = 4), the Ricci tensor
    Ric = (n-1) c g + H A - A^2, the scalar curvature
    R = n(n-1) c + H^2 - S, and the trace-free Ricci tensor.
    """
    A, c, n = p.A, p.c, p.n
    I = np.eye(n)
    A2 = A @ A
    H, S = p.H, p.S
    riem = 0.5 * c * _kn_raw(I, I) + 0.5 * _kn_raw(A, A)
    ric = (n - 1) * c * I + H * A - A2
    scal = n * (n - 1) * c + H * H - S
    ricTF = ric - (scal / n) * I
    riem_out = CurvTensor4(riem, check=False) if n == 4 else riem
    return CurvaturePack(riem=riem_out, ric=ric, scal=float(scal), ricTF=ricTF)


def weyl_tensor(p: PointState) -> CurvTensor4:
    """Weyl tensor of the induced metric at a 4-dimensional point.

    The result depends only on A; recomputing with any ambient c gives
    bit-identical components. Dimensions other than four are rejected.
    """
    if p.n != 4:
        raise ValueError(f"weyl_tensor supports n = 4 only, got n = {p.n}")
    return CurvTensor4(_weyl_raw(p.A), check=False)


def closed_form_norms(p: PointState) -> NormPack:
    """Curvature norms as closed-form polynomials in the shape operator.

    For n = 4 every field is populated, with
    |W+|^2 = |W-|^2 = 7/6 S^2 + 1/6 H^4 - 2|A^2|^2 + 2 H trA^3 - 4/3 H^2 S
    and Wsq = 2 Wpmsq. For other dimensions the trace invariants and
    RicTFsq are still available and the minimal-case |W|^2 uses the
    general-dimension formula; the Weyl norm of a non-minimal state has
    no closed form here and is an unsupported request. Fields without a
    general-dimension meaning (Wpmsq, F) are None when n != 4.
    """
    A, n = p.A, p.n
    A2 = A @ A
    A3 = A2 @ A
    H, S = p.H, p.S
    A2sq = float(np.sum(A2 * A2))
    trA3 = float(np.trace(A3))
    trA5 = float(np.trace(A3 @ A2))
    trA6 = float(np.trace(A3 @ A3))
    ricTFsq = H * H * S - 2.0 * H * trA3 + A2sq - (H * H - S) ** 2 / n
    if n == 4:
        wpm = 7.0 / 6.0 * S * S + H ** 4 / 6.0 - 2.0 * A2sq + 2.0 * H * trA3 - 4.0 / 3.0 * H * H * S
        wsq = 2.0 * wpm
        F = 0.5 * (A2 - (S / 6.0) * np.eye(4))
        return NormPack(S=S, A2sq=A2sq, trA3=trA3, trA5=trA5, trA6=trA6,
                        Wsq=float(wsq), Wpmsq=float(wpm), RicTFsq=float(ricTFsq), F=F)
    if not p.minimal:
        raise ValueError(
            f"closed-form |W|^2 for n = {n} requires a minimal state (H = {H:.3e})")
    wsq = 2.0 * (n * n - 3 * n + 3) / ((n - 1) * (n - 2)) * S * S - 2.0 * n / (n - 2) * A2sq
    return NormPack(S=S, A2sq=A2sq, trA3=trA3, trA5=trA5, trA6=trA6,
                    Wsq=float(wsq), Wpmsq=None, RicTFsq=float(ricTFsq), F=None)


def cgb_integrand(p: PointState) -> float:
    """Chern-Gauss-Bonnet integrand in extrinsic form (n = 4).

    Equals |W|^2 - 2|Ric0|^2 + R^2/6 written out in A and c:

        3 S^2 - 6 |A^2|^2 - 6 H^2 S + H^4 + 8 H trA^3 + 4c(6c - S + H^2).

    Integrating this over a closed hypersurface and dividing by 32 pi^2
    gives the Euler characteristic.
    """
    if p.n != 4:
        raise ValueError(f"cgb_integrand supports n = 4 only, got n = {p.n}")
    A = p.A
    A2 = A @ A
    H, S, c = p.H, p.S, p.c
    A2sq = float(np.sum(A2 * A2))
    trA3 = float(np.trace(A2 @ A))
    return (3.0 * S * S - 6.0 * A2sq - 6.0 * H * H * S + H ** 4
            + 8.0 * H * trA3 + 4.0 * c * (6.0 * c - S + H * H))


def signature_integrand(p: PointState) -> float:
    """Integrand of the Hirzebruch signature, <W, *W> = |W+|^2 - |W-|^2.

    Identically zero for hypersurface-induced metrics: the signature of a
    closed hypersurface of a space form vanishes.
    """
    W = weyl_tensor(p)
    return inner(W, star_weyl(W))


def _require_derivatives(p: PointState, need_nabla: bool, need_hess: bool, what: str):
    nabla = p.nablaA
    hess = p.hessS
    if p.parallel:
        if nabla is None:
            nabla = np.zeros((p.n, p.n, p.n))
        if hess is None:
            hess = np.zeros((p.n, p.n))
    missing = []
    if need_nabla and nabla is None:
        missing.append("nablaA")
    if need_hess and hess is None:
        missing.append("hessS")
    if missing:
        raise ValueError(f"{what} needs {' and '.join(missing)} (or the parallel flag)")
    return nabla, hess


def bach_tensor(p: PointState, tol: float = EQUALITY_TOL) -> np.ndarray:
    """Bach tensor of the induced metric of a minimal 4-dim hypersurface.

    2 B_ij = 2 A^4_ij - 2 trA^3 A_ij - 4c A^2_ij + 4/3 S A^2_ij
             + 1/3 HessS_ij - 2 A_ikt A_jkt
             + (1/3 |nabla A|^2 + 1/3 c S - 1/6 S^2 - 1/2 |A^2|^2) d_ij.

    Derivative data must be supplied or asserted zero via the parallel
    flag. The result is trace-free only when the supplied derivative data
    is consistent with the Simons identity; a materially nonzero trace
    draws a warning instead of an error so that measured data can still
    be inspected.
    """
    if p.n != 4:
        raise ValueError(f"bach_tensor supports n = 4 only, got n = {p.n}")
    if not p.minimal:
        raise ValueError(f"bach_tensor requires a minimal state (H = {p.H:.3e})")
    nabla, hess = _require_derivatives(p, True, True, "bach_tensor")
    A, c, S = p.A, p.c, p.S
    A2 = A @ A
    A4 = A2 @ A2
    trA3 = float(np.trace(A2 @ A))
    A2sq = float(np.sum(A2 * A2))
    T2 = np.einsum("ikt,jkt->ij", nabla, nabla)
    grad_sq = float(np.sum(nabla * nabla))
    twoB = (2.0 * A4 - 2.0 * trA3 * A - 4.0 * c * A2 + 4.0 / 3.0 * S * A2
            + hess / 3.0 - 2.0 * T2
            + (grad_sq / 3.0 + c * S / 3.0 - S * S / 6.0 - 0.5 * A2sq) * np.eye(4))
    B = 0.5 * twoB
    tr = float(np.trace(B))
    if abs(tr) > tol * (1.0 + S * S):
        warnings.warn(f"bach_tensor trace {tr:.3e} is not zero; the supplied derivative "
                      "data violates the Simons identity", stacklevel=2)
    return B


_DIV_PAIRS = (((1, 2), (3, 4)), ((1, 3), (4, 2)), ((1, 4), (2, 3)))


def div_weyl_sd(p: PointState) -> list:
    """Components of the divergence of W+ and W- in a principal frame.

    Requires a diagonal shape operator (state built from a spectrum, or a
    matrix that is diagonal to working precision) and nablaA. For each
    frame direction k and each basis pair (i, j) the two values

        (dW+-)_kij = 1/4 [ (l_i - l_j) A_kij +- (l_a - l_b) A_kab ]

    are returned, where (a, b) is the complementary pair in the order
    (1,2)|(3,4), (1,3)|(4,2), (1,4)|(2,3). Output entries are dicts with
    1-based "indices" (k, i, j) and float "plus"/"minus" values, 12 in
    total.
    """
    if p.n != 4:
        raise ValueError(f"div_weyl_sd supports n = 4 only, got n = {p.n}")
    A = p.A
    off = A - np.diag(np.diag(A))
    if np.abs(off).max() > EQUALITY_TOL * (1.0 + np.abs(A).max()):
        raise ValueError("div_weyl_sd needs the shape operator in a principal frame "
                         "(diagonal matrix)")
    nabla, _ = _require_derivatives(p, True, False, "div_weyl_sd")
    lam = np.diag(A)
    out = []
    for k in range(1, 5):
        for (i, j), (a, b) in _DIV_PAIRS:
            own = (lam[i - 1] - lam[j - 1]) * nabla[k - 1, i - 1, j - 1]
            partner = (lam[a - 1] - lam[b - 1]) * nabla[k - 1, a - 1, b - 1]
            out.append({
                "indices": (k, i, j),
                "plus": 0.25 * (own + partner),
                "minus": 0.25 * (own - partner),
            })
    return out


def div_weyl_sd_norms(p: PointState) -> tuple:
    """Sum of squares of the 12 listed (dW+)_kij and (dW-)_kij components."""
    comps = div_weyl_sd(p)
    plus = sum(e["plus"] ** 2 for e in comps)
    minus = sum(e["minus"] ** 2 for e in comps)
    return float(plus), float(minus)


_FIELD_KEYS = ("lap_A", "lap_A2", "lap_A2_sq", "grad_A2_sq")


def bochner_residuals(p: PointState, field_data: dict | None = None) -> dict:
    """Residuals (LHS - RHS) of the Bochner-Weitzenboeck identities.

    Each identity holds on a minimal hypersurface of a space form; a
    residual materially different from zero means the supplied point and
    field data are mutually inconsistent. Identities whose required data
    is absent are reported as the string "unavailable". With the parallel
    flag set, all derivative inputs default to zero.

    Recognized ``field_data`` keys: "lap_A" (n x n), "lap_A2" (n x n),
    "lap_A2_sq" (float, Laplacian of |A^2|^2), "grad_A2_sq" (float,
    squared norm of the gradient of A^2). The Laplacian of S is taken as
    the trace of hessS.

    Residual keys: "lap_A", "simons", "lap_A2", "lap_A2_norm",
    "first_bach", "second_bach" (the two Bach-derived scalar identities,
    valid for Bach-flat states), "scalar_bochner" (R |W+|^2 = 6 triple W+,
    valid when W is parallel; computed only under the parallel flag).
    Tensor-valued residuals are reported as max-abs entries.
    """
    field_data = dict(field_data or {})
    for key in field_data:
        if key not in _FIELD_KEYS:
            raise ValueError(f"field_data: unknown key {key!r}; known keys {_FIELD_KEYS}")
    n, c, A, S = p.n, p.c, p.A, p.S
    A2 = A @ A
    out: dict = {}
    if not p.minimal:
        return {k: "unavailable" for k in
                ("lap_A", "simons", "lap_A2", "lap_A2_norm", "first_bach",
                 "second_bach", "scalar_bochner")}

    nabla = p.nablaA
    hess = p.hessS
    if p.parallel:
        if nabla is None:
            nabla = np.zeros((n, n, n))
        if hess is None:
            hess = np.zeros((n, n))
        field_data.setdefault("lap_A", np.zeros((n, n)))
        field_data.setdefault("lap_A2", np.zeros((n, n)))
        field_data.setdefault("lap_A2_sq", 0.0)
        field_data.setdefault("grad_A2_sq", 0.0)

    grad_sq = float(np.sum(nabla * nabla)) if nabla is not None else None
    lapS = float(np.trace(hess)) if hess is not None else None

    lap_A = field_data.get("lap_A")
    if lap_A is not None:
        lap_A = np.asarray(lap_A, dtype=float)
        out["lap_A"] = float(np.abs(lap_A - (n * c - S) * A).max())
    else:
        out["lap_A"] = "unavailable"

    if lapS is not None and grad_sq is not None:
        out["simons"] = 0.5 * lapS - grad_sq - S * (n * c - S)
    else:
        out["simons"] = "unavailable"

    lap_A2 = field_data.get("lap_A2")
    if lap_A2 is not None and nabla is not None:
        lap_A2 = np.asarray(lap_A2, dtype=float)
        T2 = np.einsum("ikt,jkt->ij", nabla, nabla)
        out["lap_A2"] = float(np.abs(lap_A2 - 2.0 * (n * c - S) * A2 - 2.0 * T2).max())
    else:
        out["lap_A2"] = "unavailable"

    lap_A2_sq = field_data.get("lap_A2_sq")
    grad_A2_sq = field_data.get("grad_A2_sq")
    A2sq = float(np.sum(A2 * A2))
    if lap_A2_sq is not None and grad_A2_sq is not None and nabla is not None:
        T2 = np.einsum("ikt,jkt->ij", nabla, nabla)
        rhs = float(grad_A2_sq) + 2.0 * (n * c - S) * A2sq + 2.0 * float(np.sum(A2 * T2))
        out["lap_A2_norm"] = 0.5 * float(lap_A2_sq) - rhs
    else:
        out["lap_A2_norm"] = "unavailable"

    if n == 4 and nabla is not None and hess is not None:
        A3 = A2 @ A
        trA3 = float(np.trace(A3))
        trA5 = float(np.trace(A3 @ A2))
        lhs = float(np.einsum("ij,ikl,jkl->", A, nabla, nabla))
        rhs = trA5 - (2.0 * c + S / 3.0) * trA3 + float(np.sum(A * hess)) / 6.0
        out["first_bach"] = lhs - rhs
    else:
        out["first_bach"] = "unavailable"

    if n == 4 and lap_A2_sq is not None and grad_A2_sq is not None and hess is not None:
        A3 = A2 @ A
        trA3 = float(np.trace(A3))
        trA6 = float(np.trace(A3 @ A3))
        rhs = (float(grad_A2_sq) + 2.0 * trA6 - 2.0 * trA3 * trA3
               - 7.0 / 6.0 * S * A2sq + S ** 3 / 6.0
               + c * (4.0 * A2sq - S * S)
               + float(np.sum(hess * A2)) / 3.0 + S * lapS / 6.0)
        out["second_bach"] = 0.5 * float(lap_A2_sq) - rhs
    else:
        out["second_bach"] = "unavailable"

    if n == 4 and p.parallel:
        W = weyl_tensor(p)
        SW = star_weyl(W)
        Wp = 0.5 * (W.components + SW.components)
        R = float(n * (n - 1) * c + p.H ** 2 - S)
        wp_sq = float(np.sum(Wp * Wp))
        out["scalar_bochner"] = R * wp_sq - 6.0 * triple(Wp, Wp, Wp)
    else:
        out["scalar_bochner"] = "unavailable"

    return out
