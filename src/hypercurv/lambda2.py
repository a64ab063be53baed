"""The Hodge star and algebraic curvature operators in dimension four.

On an oriented 4-dimensional inner product space the Hodge star is an
involution of the 6-dimensional space of two-forms and splits it into the
+1 (self-dual) and -1 (anti-self-dual) eigenspaces. An algebraic curvature
tensor acts on two-forms as a symmetric 6x6 operator; for trace-free
curvature tensors that operator block-diagonalizes over the splitting, and
the two 3x3 blocks carry the self-dual and anti-self-dual spectra.

Conventions. Components are w.r.t. an oriented orthonormal frame and are
stored as 0-based numpy arrays; only the basis pairs below are named
1-based. Two-form components w_ij carry the full antisymmetric sum
convention, so the basis form theta^i ^ theta^j has components +1/2 at
(i,j) and -1/2 at (j,i). With that convention the star acts by
(*w)_ij = 1/2 mu_ijkl w_kl and on curvature tensors by
(*T)_ijkl = 1/2 mu_ijrs T_rskl, where mu is the Levi-Civita symbol.

The ordered Lambda^2 basis used for 6x6 operator matrices is

    e1^e2, e1^e3, e1^e4, e3^e4, e4^e2, e2^e3

so that the star swaps the first and last three basis elements: a pair
(i, j) with image (a, b) has (*T)_ij.. = (T_ab.. - T_ba..)/2. The code reads
(a, b) off this order; mu is data derived from it.
"""

from __future__ import annotations

import numpy as np

from .tolerances import _CURVATURE_SCALE, EQUALITY_TOL, _require_entries

__all__ = [
    "LAMBDA2_BASIS",
    "CurvTensor4",
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

# The star over flat pairs 4i + j: pair p maps to pair p + 3, so at 4i + j
# the star reads + at _STAR_PLUS and - at _STAR_MINUS, and the reversed pair
# reads them swapped. A diagonal pair reads entry 0 in both, so its row is 0.
_IJ, _JI = 4 * _I + _J, 4 * _J + _I
_STAR_PLUS, _STAR_MINUS = np.zeros((2, 16), dtype=int)
_STAR_PLUS[_IJ] = _STAR_MINUS[_JI] = np.roll(_IJ, 3)
_STAR_MINUS[_IJ] = _STAR_PLUS[_JI] = np.roll(_JI, 3)

# mu_ijrs: +1 where 4r + s is _STAR_PLUS at 4i + j, -1 where it is _STAR_MINUS.
_FLAT = np.arange(16).reshape(4, 4)
_EPS4 = np.subtract(_STAR_PLUS.reshape(4, 4, 1, 1) == _FLAT,
                    _STAR_MINUS.reshape(4, 4, 1, 1) == _FLAT, dtype=float)
_EPS4.setflags(write=False)


def levi_civita_tensor() -> np.ndarray:
    """Read-only (4,4,4,4) array of the Levi-Civita symbol mu, 0-based, so
    mu_1234 = +1 is entry [0, 1, 2, 3]."""
    return _EPS4


def _as_components(obj, shape, name, mirror=None, rule="must be symmetric"):
    """obj as floats of ``shape`` that pass the entry rule, against
    mirror(obj) given a mirror."""
    arr = np.asarray(obj, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    _require_entries(name, arr[None], () if mirror is None else ((mirror(arr)[None], rule),),
                     cap=_CURVATURE_SCALE)
    return arr


def hodge_star(omega) -> np.ndarray:
    """Hodge star of a two-form: (*w)_ij = 1/2 mu_ijkl w_kl.

    Takes and returns the (4,4) antisymmetric component array. The input
    passes the entry rule (finite, 1 + max|entry| <= 1e102, antisymmetric
    to tol), else a ValueError. Applying the star twice returns the input
    exactly up to floating point (the map is an involution in dimension
    four).
    """
    arr = _as_components(omega, (4, 4), "two-form", lambda w: -w.T, "must be antisymmetric")
    return (arr.take(_STAR_PLUS) - arr.take(_STAR_MINUS)).reshape(4, 4) / 2


class CurvTensor4:
    """Rank-4 algebraic curvature tensor on R^4.

    Stores the read-only (4,4,4,4) component array, 0-based, on which any
    arithmetic runs, and converts losslessly to and from the symmetric 6x6
    operator matrix over the ordered Lambda^2 basis. With ``check`` the
    components pass the entry rule (finite, 1 + max|entry| <= 1e102) and,
    to tol, the required symmetries: antisymmetry in (i,j) and in (k,l),
    plus symmetry under swapping the pairs; the first failure raises a
    ValueError naming it.
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
            T = arr[None]
            _require_entries("curvature tensor", T, (
                (-T.swapaxes(1, 2), "must be antisymmetric in its first index pair"),
                (-T.swapaxes(3, 4), "must be antisymmetric in its last index pair"),
                (T.transpose(0, 3, 4, 1, 2), "must satisfy pair symmetry")), tol, _CURVATURE_SCALE)
        arr.setflags(write=False)
        self.components = arr

    def operator6(self) -> np.ndarray:
        """Symmetric 6x6 matrix of the tensor over the Lambda^2 pair basis."""
        return self.components[_I[:, None], _J[:, None], _I, _J]

    @classmethod
    def from_operator6(cls, op) -> "CurvTensor4":
        """Rebuild the rank-4 tensor from its 6x6 pair-basis matrix, checked
        as CurvTensor4 is: a non-symmetric op breaks pair symmetry."""
        op = np.asarray(op, dtype=float)
        if op.shape != (6, 6):
            raise ValueError(f"operator matrix must be 6x6, got {op.shape}")
        arr = np.zeros((4, 4, 4, 4))
        I, J = _I[:, None], _J[:, None]
        arr[I, J, _I, _J] = arr[J, I, _J, _I] = op
        arr[J, I, _I, _J] = arr[I, J, _J, _I] = -op
        return cls(arr)

    def norm_sq(self) -> float:
        return float(np.sum(self.components * self.components))

    def __repr__(self) -> str:
        return f"CurvTensor4(|T|^2={self.norm_sq():.6g})"


def _tensor(T, tol: float) -> CurvTensor4:
    """T as a CurvTensor4: one as it stands, a raw array checked as
    CurvTensor4 is."""
    return T if isinstance(T, CurvTensor4) else CurvTensor4(T, tol=tol)


def _star4(arr: np.ndarray) -> np.ndarray:
    # Left star on the first pair; broadcasts over leading axes and keeps
    # broadcast trailing ones. It only subtracts and halves, so it is exact
    # in any dtype (the certifier runs it on polynomial object arrays), and
    # returns a C-contiguous array, so later contractions sum in one order.
    flat = arr.reshape(arr.shape[:-4] + (16,) + arr.shape[-2:])
    return ((flat.take(_STAR_PLUS, -3) - flat.take(_STAR_MINUS, -3)) / 2).reshape(arr.shape)


def star_weyl(T, tol: float = EQUALITY_TOL) -> CurvTensor4:
    """Star operator acting on an algebraic curvature tensor from the left.

    (*T)_ijkl = 1/2 mu_ijrs T_rskl. The input must carry the curvature
    symmetries (a raw array is checked as CurvTensor4 is). For trace-free
    T the output is again a curvature tensor; otherwise pair symmetry of
    the output may fail, which is expected and not validated.
    """
    return CurvTensor4(_star4(_tensor(T, tol).components), check=False)


def _kn_raw(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    # (U o V)_ijkl = U_ik V_jl + U_jl V_ik - U_il V_jk - U_jk V_il,
    # broadcasting over leading axes of U and V; generic in the dtype.
    # With P = U_ik V_jl the four terms are P, P_jilk, P_ijlk and P_jikl,
    # summed in this order.
    U, V = np.asarray(U), np.asarray(V)
    P = U[..., :, None, :, None] * V[..., None, :, None, :]
    out = P + P.swapaxes(-4, -3).swapaxes(-2, -1)
    out -= P.swapaxes(-2, -1)
    out -= P.swapaxes(-4, -3)
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
    """(T+, T-) = ((T + *T)/2, (T - *T)/2) over leading axes; dtype-generic, so
    it divides by 2 (0.5 * poly raises)."""
    star = _star4(T)
    return (T + star) / 2, (T - star) / 2


def sd_asd_split(T, tol: float = EQUALITY_TOL):
    """Split a trace-free curvature tensor into star eigenparts.

    Returns (T_plus, T_minus) with T = T_plus + T_minus,
    *T_plus = +T_plus and *T_minus = -T_minus, and <T_plus, T_minus> = 0.
    The Ricci contraction of the input must vanish; the split of a tensor
    with trace would not satisfy the eigenproperty, so a nonzero trace is
    an input error reporting the offending norm. A raw array is checked as
    CurvTensor4 is.
    """
    arr = _tensor(T, tol).components
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

    ``part`` selects "plus" or "minus". The star swaps the two basis
    triples, so with B11, B12, B21, B22 the 3x3 blocks of the tensor's 6x6
    operator the block is (B11 + B22 +- (B12 + B21))/2, and eigvalsh reads
    one triangle of it. Passing a full trace-free tensor or its
    already-split part gives the same block. Returns the three eigenvalues
    sorted in descending order; for a trace-free operator they sum to zero.
    """
    if part not in ("plus", "minus"):
        raise ValueError(f"part must be 'plus' or 'minus', got {part!r}")
    op = _tensor(T, tol).operator6()
    cross = op[:3, 3:] + op[3:, :3]
    block = (op[:3, :3] + op[3:, 3:] + (cross if part == "plus" else -cross)) / 2
    return np.linalg.eigvalsh(block)[::-1].copy()


def _operands(*tensors) -> list:
    """Each operand's components: a CurvTensor4's as stored, a raw array's
    after the shape check for (4, 4, 4, 4) and the entry rule without a
    mirror (a star need not keep pair symmetry)."""
    return [T.components if isinstance(T, CurvTensor4) else
            _as_components(T, (4, 4, 4, 4), f"T{k}") for k, T in enumerate(tensors, 1)]


def inner(T1, T2) -> float:
    """Full component contraction <T1, T2> = T1_ijkl T2_ijkl."""
    return float(np.einsum("ijkl,ijkl->", *_operands(T1, T2)))


def triple(T1, T2, T3) -> float:
    """Cubic contraction T1_ijkl T2_pqkl T3_ijpq."""
    return float(np.einsum("ijkl,pqkl,ijpq->", *_operands(T1, T2, T3)))
