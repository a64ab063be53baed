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
the pairs i < j otherwise), entry [p, q] = T_ijkl at p = (i, j), q = (k, l).
A CurvTensor4 stores only its 6x6 operator and every contraction runs on
operators; components exist only at the public boundary, written by _expand.
"""

from __future__ import annotations

import numpy as np

from .tolerances import _CURVATURE_SCALE, EQUALITY_TOL, _require_entries

__all__ = ["LAMBDA2_BASIS", "CurvTensor4", "levi_civita_tensor", "hodge_star", "star_weyl",
           "kulkarni_nomizu", "sd_asd_split", "lambda2_spectrum", "inner", "triple"]

# Lambda^2 basis as ordered 1-based index pairs. The second triple is the
# image of the first under the star, in order.
LAMBDA2_BASIS = ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))

# The basis as 0-based index arrays: pair p is (_I[p], _J[p]). _F[p, q] is
# where entry [p, q] of the operator sits in the 256 components, in C order.
_I, _J = np.array(LAMBDA2_BASIS).T - 1
_F = 16 * (4 * _I + _J)[:, None] + 4 * _I + _J

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

# E[i, j, p] = +1 where (i, j) is basis pair p, -1 where it is that pair reversed
_E = _expand(np.eye(6))[..., _I, _J]
_E.setflags(write=False)


def levi_civita_tensor() -> np.ndarray:
    """Read-only (4,4,4,4) array of the Levi-Civita symbol mu, 0-based, so
    mu_1234 = +1 is entry [0, 1, 2, 3]."""
    return _MU


def _as_components(obj, shape, name, mirrors, tol: float = EQUALITY_TOL):
    """obj as floats of ``shape`` that pass the entry rule against each (mirror(obj), rule)."""
    arr = np.asarray(obj, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    _require_entries(name, arr[None], [(m(arr)[None], rule) for m, rule in mirrors], tol,
                     _CURVATURE_SCALE)
    return arr


# -T_jikl and -T_ijlk, which T equals if antisymmetric in each pair; T_klij too if curvature
_ANTISYMMETRIC = ((lambda a: -a.swapaxes(0, 1), "must be antisymmetric in its first index pair"),
                  (lambda a: -a.swapaxes(2, 3), "must be antisymmetric in its last index pair"))
_CURVATURE = _ANTISYMMETRIC + ((lambda a: a.transpose(2, 3, 0, 1), "must satisfy pair symmetry"),)


def hodge_star(omega) -> np.ndarray:
    """Hodge star of a two-form: (*w)_ij = 1/2 mu_ijkl w_kl.

    Takes and returns the (4,4) antisymmetric component array. The input
    passes the entry rule (finite, 1 + max|entry| <= 1e102, antisymmetric
    to tol), else a ValueError. It contracts mu at the basis pairs kl with
    the pair vector w_kl, so applying it twice returns an exactly
    antisymmetric input exactly (the map is an involution in dimension four).
    """
    arr = _as_components(omega, (4, 4), "two-form", [(lambda w: -w.T, "must be antisymmetric")])
    return _MU[..., _I, _J] @ arr[_I, _J]


class CurvTensor4:
    """Rank-4 algebraic curvature tensor on R^4.

    Stores only its read-only 6x6 operator over the ordered Lambda^2 basis,
    on which any arithmetic runs; ``components`` is the read-only 0-based
    (4,4,4,4) array _expand writes from it. Component input passes the entry
    rule (finite, 1 + max|entry| <= 1e102) and, to tol, antisymmetry in
    (i,j) and in (k,l) and symmetry under swapping the pairs; the first
    failure raises a ValueError naming it. It is then read at the basis
    pairs, so its components come back exactly antisymmetric in each pair.
    The first Bianchi identity is not required; the star of a tensor with
    trace can break pair symmetry, so package outputs are built unchecked.
    """

    __slots__ = ("_op",)

    def __init__(self, components, tol: float = EQUALITY_TOL):
        arr = np.asarray(components, dtype=float)
        if arr.shape != (4, 4, 4, 4):
            raise ValueError(f"CurvTensor4 components must be 4x4x4x4, got {arr.shape}")
        self._op = _read(arr, "curvature tensor", _CURVATURE, tol)
        self._op.setflags(write=False)

    @classmethod
    def _of(cls, op: np.ndarray) -> "CurvTensor4":
        # a package output, from a float (6, 6) operator that nothing else holds
        T = object.__new__(cls)
        op.setflags(write=False)
        T._op = op
        return T

    @property
    def components(self) -> np.ndarray:
        out = _expand(self._op)
        out.setflags(write=False)
        return out

    def operator6(self) -> np.ndarray:
        """A writable copy of the 6x6 matrix over the Lambda^2 pair basis."""
        return self._op.copy()

    @classmethod
    def from_operator6(cls, op) -> "CurvTensor4":
        """The tensor of a 6x6 pair-basis matrix, checked as CurvTensor4 is:
        a non-symmetric op breaks pair symmetry."""
        op = np.array(op, dtype=float)
        if op.shape != (6, 6):
            raise ValueError(f"operator matrix must be 6x6, got {op.shape}")
        _require_entries("curvature tensor", op[None],
                         ((op.T[None], "must satisfy pair symmetry"),), cap=_CURVATURE_SCALE)
        return cls._of(op)

    def __repr__(self) -> str:
        return f"CurvTensor4(|T|^2={inner(self, self):.6g})"


def _operator(T, tol: float = EQUALITY_TOL) -> np.ndarray:
    """T's read-only (6, 6) operator; a raw array is checked as CurvTensor4 is."""
    return (T if isinstance(T, CurvTensor4) else CurvTensor4(T, tol))._op


def _read(T, name: str, mirrors, tol: float = EQUALITY_TOL) -> np.ndarray:
    """T's (6, 6) operator: a CurvTensor4's, else that of the (4,4,4,4) array T
    once it passes the entry rule against each of ``mirrors``."""
    if isinstance(T, CurvTensor4):
        return T._op
    return _as_components(T, (4, 4, 4, 4), name, mirrors, tol).take(_F)


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
    return CurvTensor4._of(_star(_operator(T, tol)))


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
    Ua = _as_components(U, (4, 4), "U", [(np.transpose, "must be symmetric")])
    Va = _as_components(V, (4, 4), "V", [(np.transpose, "must be symmetric")])
    return CurvTensor4._of(0.5 * (_kn_raw(Ua, Va) + _kn_raw(Va, Ua)))


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
    op = _operator(T, tol)
    # Ric_ik = T_ijkj of T_ijkl = E[i,j,p] E[k,l,q] op[p,q]
    tr_norm = float(np.abs(np.einsum("ijp,kjq,pq->ik", _E, _E, op)).max())
    if tr_norm > tol * (1.0 + np.abs(op).max()):
        raise ValueError("sd_asd_split requires a trace-free tensor; Ricci contraction has "
                         f"max entry {tr_norm:.6e}")
    return tuple(map(CurvTensor4._of, _sd_split(op)))


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
    op = _operator(T, tol)
    cross = op[:3, 3:] + op[3:, :3]
    block = (op[:3, :3] + op[3:, 3:] + (cross if part == "plus" else -cross)) / 2
    return np.linalg.eigvalsh(block)[::-1].copy()


def inner(T1, T2) -> float:
    """Full component contraction <T1, T2> = T1_ijkl T2_ijkl, on the operators;
    a raw operand must be antisymmetric in each pair, pair symmetry is not required."""
    return float(_inner(_read(T1, "T1", _ANTISYMMETRIC), _read(T2, "T2", _ANTISYMMETRIC)))


def triple(T1, T2, T3) -> float:
    """Cubic contraction T1_ijkl T2_pqkl T3_ijpq, on the operators; raw operands as inner's."""
    ops = (_read(T, f"T{k}", _ANTISYMMETRIC) for k, T in enumerate((T1, T2, T3), 1))
    return float(_triple(*ops))


# inner and triple on the (..., P, P) operators, dtype-generic: a pair
# counts in both orders, so each pair index contributes a factor 2.
def _inner(O1, O2):
    return 4 * np.einsum("...pq,...pq->...", O1, O2)


def _triple(O1, O2, O3):  # 8 sum O1[a, c] O2[b, c] O3[a, b], one pair at a time
    return 8 * np.einsum("...ab,...ab->...", np.einsum("...ac,...bc->...ab", O1, O2), O3)
