"""The Hodge star and algebraic curvature operators in dimension four.

On an oriented 4-dimensional inner product space the Hodge star is an
involution of the 6-dimensional space of two-forms and splits it into the
+1 (self-dual) and -1 (anti-self-dual) eigenspaces. An algebraic curvature
tensor is a symmetric 6x6 operator on two-forms; for trace-free curvature
tensors that operator block-diagonalizes over the splitting, and the two
3x3 blocks carry the self-dual and anti-self-dual spectra.

Conventions. Components are w.r.t. an oriented orthonormal frame and are
stored as 0-based numpy arrays; only the basis pairs below are named
1-based. Two-form components w_ij carry the full antisymmetric sum
convention, so the basis form theta^i ^ theta^j has components +1/2 at
(i,j) and -1/2 at (j,i). With that convention the star acts by
(*w)_ij = 1/2 mu_ijkl w_kl and on curvature tensors by
(*T)_ijkl = 1/2 mu_ijrs T_rskl, where mu is the Levi-Civita symbol.

The ordered Lambda^2 basis used for 6x6 operator matrices is

    e1^e2, e1^e3, e1^e4, e3^e4, e4^e2, e2^e3

so that the star is the permutation p <-> p + 3 of the basis. The kernels
run on (..., P, P) operators over the pairs of R^n (this basis for n = 4,
the pairs i < j otherwise), entry [p, q] = T_ijkl at p = (i, j), q = (k, l);
components exist only at the public boundary, written by one map, _expand.
"""

from __future__ import annotations

import numpy as np

from .tolerances import _CURVATURE_SCALE, EQUALITY_TOL, _require_entries

__all__ = ["LAMBDA2_BASIS", "CurvTensor4", "levi_civita_tensor", "hodge_star", "star_weyl",
           "kulkarni_nomizu", "sd_asd_split", "lambda2_spectrum", "inner", "triple"]

# Lambda^2 basis as ordered 1-based index pairs. The second triple is the
# image of the first under the star, in order.
LAMBDA2_BASIS = ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))

# The basis as 0-based index arrays: pair p is (_I[p], _J[p]).
_I, _J = np.array(LAMBDA2_BASIS).T - 1

_SWAP = np.roll(np.arange(6), 3)  # the star maps pair p to pair p +- 3


def _pairs(n: int) -> tuple:
    """(i, j, k, l): the pairs of R^n as row (P, 1) and column (P,) indices."""
    I, J = (_I, _J) if n == 4 else np.triu_indices(n, 1)
    return I[:, None], J[:, None], I, J


def _expand(op: np.ndarray, n: int = 4) -> np.ndarray:
    """The (..., n, n, n, n) components of (..., P, P) operators: op, negated
    where one pair is reversed, and the dtype's zero (int 0 in object
    arrays) where a pair repeats an index. Exact in any dtype."""
    i, j, k, l = _pairs(n)
    out = np.zeros(op.shape[:-2] + (n,) * 4, dtype=op.dtype)
    out[..., i, j, k, l] = out[..., j, i, l, k] = op
    out[..., j, i, k, l] = out[..., i, j, l, k] = -op
    return out


_MU = _expand(np.eye(6)[_SWAP]) + 0.0  # + 0.0 makes every zero +0.0
_MU.setflags(write=False)


def levi_civita_tensor() -> np.ndarray:
    """Read-only (4,4,4,4) array of the Levi-Civita symbol mu, 0-based, so
    mu_1234 = +1 is entry [0, 1, 2, 3]."""
    return _MU


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
    to tol), else a ValueError. It contracts mu at the basis pairs kl with
    the pair vector w_kl, so applying it twice returns an exactly
    antisymmetric input exactly (the map is an involution in dimension four).
    """
    arr = _as_components(omega, (4, 4), "two-form", lambda w: -w.T, "must be antisymmetric")
    return _MU[..., _I, _J] @ arr[_I, _J]


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
        return self.components[_pairs(4)]

    @classmethod
    def from_operator6(cls, op) -> "CurvTensor4":
        """Rebuild the rank-4 tensor from its 6x6 pair-basis matrix, checked
        as CurvTensor4 is: a non-symmetric op breaks pair symmetry."""
        op = np.asarray(op, dtype=float)
        if op.shape != (6, 6):
            raise ValueError(f"operator matrix must be 6x6, got {op.shape}")
        return cls(_expand(op))

    def norm_sq(self) -> float:
        return float(np.sum(self.components * self.components))

    def __repr__(self) -> str:
        return f"CurvTensor4(|T|^2={self.norm_sq():.6g})"


def _tensor(T, tol: float) -> CurvTensor4:
    """T as a CurvTensor4: one as it stands, a raw array checked as
    CurvTensor4 is."""
    return T if isinstance(T, CurvTensor4) else CurvTensor4(T, tol=tol)


def _star(op: np.ndarray) -> np.ndarray:
    # The star from the left on (..., 6, 6) operators: the row permutation
    # p <-> p + 3. A gather, so it is exact in any dtype (the certifier runs
    # it on polynomial object arrays).
    return op.take(_SWAP, axis=-2)


def star_weyl(T, tol: float = EQUALITY_TOL) -> CurvTensor4:
    """Star operator acting on an algebraic curvature tensor from the left.

    (*T)_ijkl = 1/2 mu_ijrs T_rskl. The input must carry the curvature
    symmetries (a raw array is checked as CurvTensor4 is). For trace-free
    T the output is again a curvature tensor; otherwise pair symmetry of
    the output may fail, which is expected and not validated.
    """
    return CurvTensor4(_expand(_star(_tensor(T, tol).operator6())), check=False)


def _kn_raw(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    # The (..., P, P) operator of (U o V)_ijkl = U_ik V_jl + U_jl V_ik - U_il V_jk
    # - U_jk V_il, summed in this order; broadcasts over leading axes of U
    # and V and is generic in the dtype.
    U, V = np.asarray(U), np.asarray(V)
    i, j, k, l = _pairs(U.shape[-1])
    out = U[..., i, k] * V[..., j, l] + U[..., j, l] * V[..., i, k]
    out -= U[..., i, l] * V[..., j, k]
    out -= U[..., j, k] * V[..., i, l]
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
    return CurvTensor4(_expand(0.5 * (_kn_raw(Ua, Va) + _kn_raw(Va, Ua))), check=False)


def _sd_split(op):
    """(O+, O-) = ((O + *O)/2, (O - *O)/2) of (..., 6, 6) operators;
    dtype-generic, so it divides by 2 (0.5 * poly raises)."""
    star = _star(op)
    return (op + star) / 2, (op - star) / 2


def sd_asd_split(T, tol: float = EQUALITY_TOL):
    """Split a trace-free curvature tensor into star eigenparts.

    Returns (T_plus, T_minus) with T = T_plus + T_minus,
    *T_plus = +T_plus and *T_minus = -T_minus, and <T_plus, T_minus> = 0.
    The Ricci contraction of the input must vanish; the split of a tensor
    with trace would not satisfy the eigenproperty, so a nonzero trace is
    an input error reporting the offending norm. A raw array is checked as
    CurvTensor4 is.
    """
    T = _tensor(T, tol)
    tr_norm = float(np.abs(np.einsum("ijkj->ik", T.components)).max())
    if tr_norm > tol * (1.0 + np.abs(T.components).max()):
        raise ValueError("sd_asd_split requires a trace-free tensor; Ricci contraction has "
                         f"max entry {tr_norm:.6e}")
    return tuple(CurvTensor4(_expand(O), check=False) for O in _sd_split(T.operator6()))


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


# inner and triple on the (..., P, P) operators, dtype-generic: a pair
# counts in both orders, so each pair index contributes a factor 2.
def _inner(O1, O2):
    return 4 * np.einsum("...pq,...pq->...", O1, O2)


def _triple(O1, O2, O3):  # 8 sum O1[a, c] O2[b, c] O3[a, b], one pair at a time
    return 8 * np.einsum("...ab,...ab->...", np.einsum("...ac,...bc->...ab", O1, O2), O3)
