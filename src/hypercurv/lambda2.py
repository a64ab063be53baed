"""Two-form algebra and algebraic curvature operators in dimension four.

On an oriented 4-dimensional inner product space the Hodge star is an
involution of the 6-dimensional space of two-forms and splits it into the
+1 (self-dual) and -1 (anti-self-dual) eigenspaces. An algebraic curvature
tensor acts on two-forms as a symmetric 6x6 operator; for trace-free
curvature tensors that operator block-diagonalizes over the splitting, and
the two 3x3 blocks carry the self-dual and anti-self-dual spectra.

Conventions. Components are w.r.t. an oriented orthonormal frame, indices
run 1..4 in the public API. Two-form components w_ij carry the full
antisymmetric sum convention, so the basis form theta^i ^ theta^j has
components +1/2 at (i,j) and -1/2 at (j,i). With that convention the star
acts by (*w)_ij = 1/2 mu_ijkl w_kl and on curvature tensors by
(*T)_ijkl = 1/2 mu_ijrs T_rskl, where mu is the Levi-Civita symbol.

The ordered Lambda^2 basis used for 6x6 operator matrices is

    e1^e2, e1^e3, e1^e4, e3^e4, e4^e2, e2^e3

so that the star swaps the first and last three basis elements.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .tolerances import _CURVATURE_SCALE, EQUALITY_TOL, _require_entries

__all__ = [
    "LAMBDA2_BASIS",
    "TwoForm",
    "CurvTensor4",
    "levi_civita",
    "levi_civita_tensor",
    "hodge_star",
    "star_weyl",
    "kulkarni_nomizu",
    "sd_asd_split",
    "lambda2_spectrum",
    "inner",
    "triple",
]

# Lambda^2 basis as ordered 1-based index pairs. The second triple is the
# image of the first under the star, in order.
LAMBDA2_BASIS = ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))

# The basis as 0-based index arrays: pair p is (_I[p], _J[p]).
_I, _J = np.array(LAMBDA2_BASIS).T - 1
# The 6x6 upper triangle, row-major: the order of the JSON entries.
_UPPER = np.triu_indices(6)


def _build_epsilon4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for a in range(4):
            for b in range(a + 1, 4):
                if p[a] > p[b]:
                    sign = -sign
        eps[perm] = sign
    return eps


_EPS4 = _build_epsilon4()
_EPS4.setflags(write=False)

# Rotation from the pair basis onto the SD/ASD eigenbasis: the first three
# rotated vectors span the +1 eigenspace, the last three the -1 eigenspace.
_P_SD = np.block([[np.eye(3), np.eye(3)], [np.eye(3), -np.eye(3)]]) / np.sqrt(2.0)
_P_SD.setflags(write=False)


def levi_civita(i: int, j: int, k: int, l: int) -> int:
    """Totally antisymmetric symbol mu_ijkl with mu_1234 = +1.

    Indices are 1-based and must lie in 1..4; anything else is an input
    error, not a zero.
    """
    for idx in (i, j, k, l):
        if not isinstance(idx, (int, np.integer)) or not 1 <= idx <= 4:
            raise ValueError(f"levi_civita indices must be integers in 1..4, got {(i, j, k, l)}")
    return int(_EPS4[i - 1, j - 1, k - 1, l - 1])


def levi_civita_tensor() -> np.ndarray:
    """Read-only (4,4,4,4) array of mu values, 0-based."""
    return _EPS4


def _as_components(obj, shape, name, mirror, rule="must be symmetric"):
    """obj's components as floats of ``shape`` that pass the entry rule
    against mirror(components)."""
    arr = np.asarray(getattr(obj, "components", obj), dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    _require_entries(name, arr[None], mirror(arr)[None], rule=rule, cap=_CURVATURE_SCALE)
    return arr


class TwoForm:
    """A two-form on R^4, stored as its antisymmetric component matrix. With
    ``check`` the components pass the entry rule against -w^T (finite, 1 +
    max|entry| <= 1e102, antisymmetric to tol), else a ValueError."""

    __slots__ = ("components",)

    def __init__(self, components, check: bool = True, tol: float = EQUALITY_TOL):
        arr = np.array(components, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"TwoForm components must be 4x4, got {arr.shape}")
        if check:
            _require_entries("two-form", arr[None], -arr.T[None], tol, "must be antisymmetric",
                             _CURVATURE_SCALE)
            arr = 0.5 * (arr - arr.T)
        arr.setflags(write=False)
        self.components = arr

    @classmethod
    def basis(cls, i: int, j: int) -> "TwoForm":
        """The basis form theta^i ^ theta^j (1-based indices)."""
        if not (1 <= i <= 4 and 1 <= j <= 4) or i == j:
            raise ValueError(f"basis two-form needs distinct indices in 1..4, got {(i, j)}")
        arr = np.zeros((4, 4))
        arr[i - 1, j - 1] = 0.5
        arr[j - 1, i - 1] = -0.5
        return cls(arr, check=False)

    def __getitem__(self, idx):
        i, j = idx
        return self.components[i - 1, j - 1]

    def norm_sq(self) -> float:
        return float(np.sum(self.components * self.components))

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.components + other.components, check=False)

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.components - other.components, check=False)

    def __mul__(self, scalar: float) -> "TwoForm":
        return TwoForm(self.components * float(scalar), check=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        terms = [f"{c:+g} e{i}^e{j}" for c, (i, j) in
                 zip(2.0 * self.components[_I, _J], LAMBDA2_BASIS) if c != 0.0]
        return "TwoForm(" + (" ".join(terms) if terms else "0") + ")"


def hodge_star(omega):
    """Hodge star of a two-form: (*w)_ij = 1/2 mu_ijkl w_kl.

    Accepts a TwoForm or a raw antisymmetric (4,4) array and returns the
    same kind; a raw array passes TwoForm's check. Applying the star twice
    returns the input exactly up to floating point (the map is an
    involution in dimension four).
    """
    if isinstance(omega, TwoForm):
        return TwoForm(0.5 * np.einsum("ijkl,kl->ij", _EPS4, omega.components), check=False)
    arr = _as_components(omega, (4, 4), "two-form", lambda w: -w.T, "must be antisymmetric")
    return 0.5 * np.einsum("ijkl,kl->ij", _EPS4, arr)


class CurvTensor4:
    """Rank-4 algebraic curvature tensor on R^4.

    Stores the (4,4,4,4) component array (0-based internally) and converts
    losslessly to and from the symmetric 6x6 operator matrix over the
    ordered Lambda^2 basis. With ``check`` the components pass the entry
    rule (finite, 1 + max|entry| <= 1e102) and, to tol, the required
    symmetries: antisymmetry in (i,j) and in (k,l), plus symmetry under
    swapping the pairs; the first failure raises a ValueError naming it.
    The first Bianchi identity is not required; the star of a
    non-trace-free tensor can legitimately break pair symmetry, so outputs
    of internal operations are constructed unchecked.
    """

    __slots__ = ("components",)

    def __init__(self, components, check: bool = True, tol: float = EQUALITY_TOL):
        arr = np.array(components, dtype=float)
        if arr.shape != (4, 4, 4, 4):
            raise ValueError(f"CurvTensor4 components must be 4x4x4x4, got {arr.shape}")
        if check:  # against each mirror -T_jikl, -T_ijlk, T_klij in turn
            for mirror, rule in (
                    (-arr.swapaxes(0, 1), "must be antisymmetric in its first index pair"),
                    (-arr.swapaxes(2, 3), "must be antisymmetric in its last index pair"),
                    (arr.transpose(2, 3, 0, 1), "must satisfy pair symmetry")):
                _require_entries("curvature tensor", arr[None], mirror[None], tol, rule,
                                 _CURVATURE_SCALE)
        arr.setflags(write=False)
        self.components = arr

    def __getitem__(self, idx):
        i, j, k, l = idx
        return self.components[i - 1, j - 1, k - 1, l - 1]

    def operator6(self) -> np.ndarray:
        """Symmetric 6x6 matrix of the tensor over the Lambda^2 pair basis."""
        return self.components[_I[:, None], _J[:, None], _I, _J]

    @classmethod
    def from_operator6(cls, op, check: bool = False) -> "CurvTensor4":
        """Rebuild the rank-4 tensor from its 6x6 pair-basis matrix."""
        op = np.asarray(op, dtype=float)
        if op.shape != (6, 6):
            raise ValueError(f"operator matrix must be 6x6, got {op.shape}")
        arr = np.zeros((4, 4, 4, 4))
        I, J = _I[:, None], _J[:, None]
        arr[I, J, _I, _J] = arr[J, I, _J, _I] = op
        arr[J, I, _I, _J] = arr[I, J, _J, _I] = -op
        return cls(arr, check=check)

    def to_json(self) -> str:
        """Serialize as the 21-entry upper triangle of the 6x6 operator.

        Entries are row-major over the upper triangle, under the key
        "lambda2_op". Only pair-symmetric tensors round-trip; that is the
        type invariant.
        """
        return json.dumps({"lambda2_op": self.operator6()[_UPPER].tolist()})

    @classmethod
    def from_json(cls, text: str) -> "CurvTensor4":
        """Inverse of to_json, checked as CurvTensor4 is: json.loads takes
        NaN and Infinity, which raise a ValueError here."""
        data = json.loads(text)
        entries = data.get("lambda2_op") if isinstance(data, dict) else None
        if not isinstance(entries, list) or len(entries) != 21:
            raise ValueError("expected key 'lambda2_op' with 21 entries")
        op = np.zeros((6, 6))
        op[_UPPER] = entries
        op[_UPPER[::-1]] = entries
        return cls.from_operator6(op, check=True)

    def __add__(self, other: "CurvTensor4") -> "CurvTensor4":
        return CurvTensor4(self.components + other.components, check=False)

    def __sub__(self, other: "CurvTensor4") -> "CurvTensor4":
        return CurvTensor4(self.components - other.components, check=False)

    def __mul__(self, scalar: float) -> "CurvTensor4":
        return CurvTensor4(self.components * float(scalar), check=False)

    __rmul__ = __mul__

    def norm_sq(self) -> float:
        return float(np.sum(self.components * self.components))

    def ricci_contraction(self) -> np.ndarray:
        """Contraction T_ijkj over the second and fourth slots."""
        return np.einsum("ijkj->ik", self.components)

    def __repr__(self) -> str:
        return f"CurvTensor4(|T|^2={self.norm_sq():.6g})"


def _star4(arr: np.ndarray) -> np.ndarray:
    # Left star on the first pair; broadcasts over leading axes. Generic in
    # the dtype (the exact certifier runs it on polynomial object arrays);
    # _EPS4 stays float because an integer symbol doubles the float cost.
    return np.einsum("ijrs,...rskl->...ijkl", _EPS4, arr) / 2


def star_weyl(T, tol: float = EQUALITY_TOL) -> CurvTensor4:
    """Star operator acting on an algebraic curvature tensor from the left.

    (*T)_ijkl = 1/2 mu_ijrs T_rskl. The input must carry the curvature
    symmetries (a raw array is checked as CurvTensor4 is). For trace-free
    T the output is again a curvature tensor; otherwise pair symmetry of
    the output may fail, which is expected and not validated.
    """
    arr = (T if isinstance(T, CurvTensor4) else CurvTensor4(T, tol=tol)).components
    return CurvTensor4(_star4(arr), check=False)


def _swap_pairs(T: np.ndarray) -> np.ndarray:
    """T_jilk: swaps i with j and k with l."""
    return T.swapaxes(-4, -3).swapaxes(-2, -1)


def _kn_raw(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    # (U o V)_ijkl = U_ik V_jl + U_jl V_ik - U_il V_jk - U_jk V_il,
    # broadcasting over leading axes of U and V; generic in the dtype.
    # With P = U_ik V_jl and Q = U_il V_jk the four terms are P, P_jilk, Q
    # and Q_jilk, summed in this order.
    U, V = np.asarray(U), np.asarray(V)
    P = U[..., :, None, :, None] * V[..., None, :, None, :]
    Q = U[..., :, None, None, :] * V[..., None, :, :, None]
    out = P + _swap_pairs(P)
    out -= Q
    out -= _swap_pairs(Q)
    if out.dtype.kind == "f":
        # A zero product with a negative factor is -0.0; adding +0.0 turns
        # every zero into +0.0, matching the einsum reference in the tests
        # bit for bit, and leaves every other float as it is.
        out += 0.0
    return out


def kulkarni_nomizu(U, V) -> CurvTensor4:
    """Symmetrized Kulkarni-Nomizu product of two symmetric matrices.

    Returns 1/2 (U o V + V o U) as a CurvTensor4, where
    (U o V)_ijkl = U_ik V_jl + U_jl V_ik - U_il V_jk - U_jk V_il. The
    product is symmetric in U and V, and for symmetric U, V it already
    carries the curvature symmetries; the average only changes float
    rounding and is kept so that results stay byte-identical. In
    particular (g o g)_ijkl = 2 (d_ik d_jl - d_il d_jk). U and V pass the
    entry rule (finite, 1 + max|entry| <= 1e102, symmetric), else a
    ValueError.
    """
    Ua = _as_components(U, (4, 4), "U", np.transpose)
    Va = _as_components(V, (4, 4), "V", np.transpose)
    return CurvTensor4(0.5 * (_kn_raw(Ua, Va) + _kn_raw(Va, Ua)), check=False)


def _sd_split(T):
    """Yields T+ = (T + *T)/2, then T- = (T - *T)/2, over leading axes, so
    next() forms T+ alone; dtype-generic, so it divides by 2 (0.5 * poly raises)."""
    star = _star4(T)
    yield (T + star) / 2
    yield (T - star) / 2


def sd_asd_split(T, tol: float = EQUALITY_TOL):
    """Split a trace-free curvature tensor into star eigenparts.

    Returns (T_plus, T_minus) with T = T_plus + T_minus,
    *T_plus = +T_plus and *T_minus = -T_minus, and <T_plus, T_minus> = 0.
    The Ricci contraction of the input must vanish; the split of a tensor
    with trace would not satisfy the eigenproperty, so a nonzero trace is
    an input error reporting the offending norm. A raw array is checked as
    CurvTensor4 is.
    """
    arr = (T if isinstance(T, CurvTensor4) else CurvTensor4(T, tol=tol)).components
    ric = np.einsum("ijkj->ik", arr)
    scale = 1.0 + np.abs(arr).max()
    tr_norm = float(np.abs(ric).max())
    if tr_norm > tol * scale:
        raise ValueError(
            f"sd_asd_split requires a trace-free tensor; Ricci contraction has max entry {tr_norm:.6e}"
        )
    plus, minus = _sd_split(arr)
    return CurvTensor4(plus, check=False), CurvTensor4(minus, check=False)


def lambda2_spectrum(T, part: str = "plus", tol: float = EQUALITY_TOL) -> np.ndarray:
    """Eigenvalues of the self-dual or anti-self-dual 3x3 operator block.

    ``part`` selects "plus" or "minus". The tensor's 6x6 operator is
    rotated onto the SD/ASD eigenbasis and the requested diagonal block is
    diagonalized. Passing a full trace-free tensor or its already-split
    part gives the same block. Returns the three eigenvalues sorted in
    descending order; for a trace-free operator they sum to zero.
    """
    if part not in ("plus", "minus"):
        raise ValueError(f"part must be 'plus' or 'minus', got {part!r}")
    T = T if isinstance(T, CurvTensor4) else CurvTensor4(T, tol=tol)
    rot = _P_SD @ T.operator6() @ _P_SD.T
    block = rot[:3, :3] if part == "plus" else rot[3:, 3:]
    block = 0.5 * (block + block.T)
    eig = np.linalg.eigvalsh(block)
    return eig[::-1].copy()


def inner(T1, T2) -> float:
    """Full component contraction <T1, T2> = T1_ijkl T2_ijkl."""
    a1, a2 = (np.asarray(getattr(T, "components", T), dtype=float) for T in (T1, T2))
    return float(np.einsum("ijkl,ijkl->", a1, a2))


def triple(T1, T2, T3) -> float:
    """Cubic contraction T1_ijkl T2_pqkl T3_ijpq."""
    a1, a2, a3 = (np.asarray(getattr(T, "components", T), dtype=float) for T in (T1, T2, T3))
    return float(np.einsum("ijkl,pqkl,ijpq->", a1, a2, a3))
