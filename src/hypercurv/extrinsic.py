"""Pointwise extrinsic curvature of hypersurfaces in space forms.

A point of a hypersurface immersed in a simply connected space form of
curvature c is described by its shape operator A (symmetric, expressed in
an orthonormal tangent frame), optionally together with first and second
derivative data. The Gauss equation then determines the full intrinsic
curvature tensor, and in dimension four the Weyl tensor, its self-dual and
anti-self-dual energies, the extrinsic Chern-Gauss-Bonnet integrand and
the Bach tensor are closed-form expressions in A and its derivatives, and
the divergence of the (anti-)self-dual Weyl parts is the derivative of
the Weyl kernel, nabla_m W = 2 W(A, nabla_m A), in any frame.

Index conventions match :mod:`hypercurv.lambda2`: orthonormal frames,
1-based indices in reported component labels. The third fundamental
derivative tensor nablaA has totally symmetric components
A_ijk = (nabla_k A)_ij.
"""

from __future__ import annotations

import itertools
import json
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lambda2 import LAMBDA2_BASIS, CurvTensor4, _E, _expand, _inner, _kn_raw, _sd_split
from .lambda2 import inner, star_weyl, triple  # noqa: F401  (looked up on this module)
from .tolerances import (EQUALITY_TOL, _entry_failure, _float_shape, _json_numbers,
                         _require_entries)

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
    "weyl_split_norms",
    "bach_tensor",
    "div_weyl_sd",
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

_CONDITION_WARN_S = 1e8


def _symmetrize3(arr: np.ndarray) -> np.ndarray:
    """Total symmetrization over the last three axes."""
    lead, total = tuple(range(arr.ndim - 3)), 0.0
    for p in itertools.permutations(range(len(lead), arr.ndim)):
        total += arr.transpose(lead + p)
    return total / 6.0


def _flat_positions() -> np.ndarray:
    """Position in the flat NABLA_ORDER vector of each (i, j, k) component."""
    index = np.empty((4, 4, 4), dtype=int)
    for position, ijk in enumerate(NABLA_ORDER):
        for i, j, k in itertools.permutations(ijk):
            index[i - 1, j - 1, k - 1] = position
    return index


_NABLA_INDEX = _flat_positions()


def _nabla_to_flat(arr: np.ndarray) -> list:
    return [float(arr[i - 1, j - 1, k - 1]) for (i, j, k) in NABLA_ORDER]


def _is_minimal(A: np.ndarray):
    """The minimality rule of every state and spectrum, for (..., n, n)
    operators: |tr A| <= EQUALITY_TOL (1 + |A|_F), with |A|_F summed as
    np.linalg.norm sums it."""
    flat = A.reshape(A.shape[:-2] + (1, A.shape[-1] ** 2))
    norm = np.sqrt((flat @ flat.swapaxes(-2, -1))[..., 0, 0])
    return np.abs(np.trace(A, axis1=-2, axis2=-1)) <= EQUALITY_TOL * (1.0 + norm)


def _spectra(A: np.ndarray) -> np.ndarray:
    """Ascending spectra of (N, n, n) symmetric operators; a diagonal one has
    its sorted diagonal, exactly (eigvalsh rescales below norm ~1e-146)."""
    lams = np.sort(np.diagonal(A, axis1=-2, axis2=-1), axis=-1)
    full = np.count_nonzero(A, axis=(-2, -1)) > np.count_nonzero(lams, axis=-1)
    lams[full] = np.linalg.eigvalsh(A[full])
    return lams


def _warn_unusual(c: float, S: float, stacklevel: int = 3) -> None:
    """Warn, by default at the caller's caller, of an ambient curvature
    outside {-1, 0, 1} and of a squared norm S above 1e8."""
    if c not in (-1.0, 0.0, 1.0):
        warnings.warn(f"ambient curvature c={c} lies outside the normalized set {{-1, 0, 1}}",
                      stacklevel=stacklevel)
    if S > _CONDITION_WARN_S:
        warnings.warn(f"S = {S:.3e} is large; downstream quartic expressions lose "
                      "roughly half the available precision", stacklevel=stacklevel)


_JSON_FIELDS = frozenset(("n", "c", "lambda", "A", "nablaA", "hessS", "parallel"))


def _json_args(data) -> dict:
    """PointState arguments of one decoded JSON object, checked on the decoded
    values: c, lambda, A, nablaA and hessS hold JSON numbers, n an integer
    equal to the size of lambda or A, parallel a boolean; anything else is
    a ValueError. Floats in lists stay the decoded lists (``_json_numbers``),
    and _validate converts lambda's and A's a dimension at a time; ``shape``
    is lambda's or A's, as the check of its numbers found it."""
    if not isinstance(data, dict):
        raise ValueError("point state: expected a JSON object")
    if not _JSON_FIELDS.issuperset(data):
        raise ValueError(f"{next(key for key in data if key not in _JSON_FIELDS)}: unknown field")
    if ("lambda" in data) == ("A" in data):
        raise ValueError("point state: provide exactly one of 'lambda' or 'A'")
    shape_key = "lambda" if "lambda" in data else "A"
    c, c_shape = _json_numbers("c", data["c"]) if "c" in data else (1.0, ())
    main, shape = _json_numbers(shape_key, data[shape_key])
    nablaA = _json_numbers("nablaA", data["nablaA"])[0] if "nablaA" in data else None
    hessS = _json_numbers("hessS", data["hessS"])[0] if "hessS" in data else None
    if c_shape:
        raise ValueError("c: expected a number")
    if "n" in data:
        n = data["n"]
        if type(n) is not int:
            raise ValueError("n: expected an integer")
        if shape and shape[0] != n:
            raise ValueError(f"{shape_key}: expected {n} entries, got {shape[0]}")
    return {"lam" if shape_key == "lambda" else "A": main, "c": c, "nablaA": nablaA,
            "hessS": hessS, "parallel": data.get("parallel", False), "shape": shape}


def _spectrum_shape(lams, ndim: int) -> np.ndarray:
    """lams as floats, one spectrum (ndim 1) or an (N, n) array of them (ndim
    2), each of at least 3 principal curvatures: the shape rule of lambda."""
    lams = np.asarray(lams, dtype=float)
    if ndim == 2 and lams.ndim != 2:
        raise ValueError(f"expected a spectrum array with 2 axes, got shape {lams.shape}")
    _require_spectrum_shape(lams.shape, ndim)
    return lams


def _require_spectrum_shape(shape: tuple, ndim: int) -> None:
    if len(shape) != ndim or shape[-1] < 3:
        raise ValueError(f"lambda: expected at least 3 principal curvatures, got shape {shape}")


def _spectrum_rows(lams, ndim: int) -> np.ndarray:
    """(N, n) rows of a raw spectrum (ndim 1) or an (N, n) array (ndim 2), as
    PointState(lam=l) validates them: the shape rule, then the entry rule."""
    lams = np.atleast_2d(_spectrum_shape(lams, ndim))
    _require_entries("lambda", lams)
    return lams


def _diagonal(lams: np.ndarray) -> np.ndarray:
    """The (N, n, n) operators diag(l) of (N, n) rows l, as PointState(lam=l)."""
    A = np.zeros(lams.shape + lams.shape[-1:])
    A[:, range(lams.shape[1]), range(lams.shape[1])] = lams
    return A


def _field_array(field: str, value, n: int) -> np.ndarray:
    """nablaA (n, n, n), for n = 4 also a flat 20-vector, or hessS (n, n)."""
    arr = np.asarray(value, dtype=float)
    if field == "nablaA" and arr.shape == (20,) and n == 4:
        arr = arr[_NABLA_INDEX]
    shape = (n, n, n) if field == "nablaA" else (n, n)
    if arr.shape != shape:
        flat = " or a flat 20-vector" if field == "nablaA" else ""
        raise ValueError(f"{field}: expected shape {shape}{flat}, got {arr.shape}")
    return arr


def _shaped(A=None, c=1.0, lam=None, nablaA=None, hessS=None, parallel=False,
            shape=None) -> tuple:
    """PointState arguments after the checks of parallel and of A or lam's
    shape, as the row (n, from_spectrum, main, c, nablaA, hessS, parallel):
    main is lam or A: floats nested in lists as given, for their group to
    convert together, anything else as a float array. ``shape`` is main's
    when the caller has walked it (_json_args); the others as given."""
    if not isinstance(parallel, (bool, np.bool_)):
        raise ValueError("parallel: expected true or false")
    if (A is None) == (lam is None):
        raise ValueError("provide exactly one of A or lam")
    main = A if lam is None else lam
    if shape is None:
        shape = _float_shape(main)
    if shape is None:
        main = np.asarray(main, dtype=float)
        shape = main.shape
    if lam is not None:
        _require_spectrum_shape(shape, 1)
    else:
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"A: expected a square matrix, got shape {shape}")
        if shape[0] < 3:
            raise ValueError(f"A: dimension must be at least 3, got {shape[0]}")
    return shape[0], lam is not None, main, c, nablaA, hessS, bool(parallel)


class _StateGroup(NamedTuple):
    """Validated states of one dimension n, in input order: their input
    positions ``index``; A (N, n, n), c and minimal (N,); nablaA (n, n, n)
    and hessS (n, n) by row, for the rows that have them; per state parallel
    and whether it came from a spectrum. The arrays are read-only."""

    index: list
    A: np.ndarray
    c: np.ndarray
    minimal: np.ndarray
    nablaA: dict
    hessS: dict
    parallel: list
    from_spectrum: list


# a row that breaks the entry rule may overflow or hold NaN in the
# symmetrization of A or nablaA
@np.errstate(all="ignore")
def _check_group(index: list, rows: list, check_n, queued: list):
    """The checks after A or lam's shape, for the _shaped rows of one
    dimension n at items ``index``, in PointState's order: per field, its
    conversion or shape per row, then its entry rule on the values of the
    rows as one array (lambda and A converted by one array call over the
    rows' lists). The first row that fails a check ends the
    group, so each later check runs only on the rows before it, which have
    passed every check so far; check_n(n) runs last. Returns the
    _StateGroup, or (k, error) of the group's earliest failing item k and
    its first failing check. Queues (item, c, S) of each state with an
    unusual c or S once c has passed."""
    n, end, stop = rows[0][0], len(rows), None
    _, from_spectrum, main, given_c, given_nabla, given_hess, parallel = zip(*rows)

    def fail(j: int, error: Exception) -> None:
        nonlocal end, stop
        end, stop = j, (index[j], error)

    def stacked(at, values: tuple, field: str) -> np.ndarray:
        """The values of field at rows ``at``, up to the first whose
        conversion or shape fails."""
        converted = []
        for j in at:
            try:
                converted.append(float(values[j]) if field == "c"
                                 else _field_array(field, values[j], n))
            except (OverflowError, TypeError, ValueError) as exc:
                fail(j, exc)
                break
        return np.array(converted)

    def check(name: str, at, raw: np.ndarray, *mirrors) -> None:
        failure = _entry_failure(name, raw, mirrors)
        if failure is not None:
            fail(at[failure[0]], failure[1])

    A = np.zeros((end, n, n))
    spectra = list(itertools.compress(range(end), from_spectrum))
    if spectra:
        lams = np.array(list(itertools.compress(main, from_spectrum)), dtype=float)
        check("lambda", spectra, lams)
        # diag(l) of each spectrum row, written in place
        A.reshape(len(A), n * n)[spectra, ::n + 1] = lams
    matrices = [j for j in range(end) if not from_spectrum[j]]
    if matrices:
        raw = np.array([main[j] for j in matrices], dtype=float)
        check("A", matrices, raw, (raw.swapaxes(1, 2), "shape operator must be symmetric"))
        A[matrices] = 0.5 * (raw + raw.swapaxes(1, 2))
    c = stacked(range(end), given_c, "c")
    check("c", range(end), c)
    A, c = A[:end], c[:end]
    minimal = _is_minimal(A)
    S = (A * A).sum(axis=(1, 2))
    queued += [(index[j], c_j, S_j) for j, (c_j, S_j) in enumerate(zip(c.tolist(), S.tolist()))
               if c_j not in (-1.0, 0.0, 1.0) or S_j > _CONDITION_WARN_S]
    with_nabla = [j for j in range(end) if given_nabla[j] is not None]
    nabla = raw = stacked(with_nabla, given_nabla, "nablaA")
    if len(raw):
        nabla = _symmetrize3(raw)
        check("nablaA", with_nabla, raw, (nabla, "components must be totally symmetric"))
    with_hess = [j for j in range(end) if given_hess[j] is not None]
    hess = stacked(with_hess, given_hess, "hessS")
    if len(hess):
        check("hessS", with_hess, hess, (hess.swapaxes(1, 2), "must be symmetric"))
        hess = 0.5 * (hess + hess.swapaxes(1, 2))
    with_nabla = [j for j in with_nabla if j < end]
    if with_nabla:
        nabla = nabla[:len(with_nabla)]
        div = np.abs(np.einsum("...iik->...k", nabla)).max(axis=-1)
        bad = minimal[with_nabla] & (div > EQUALITY_TOL * (1.0 + np.abs(nabla).max(axis=(1, 2, 3))))
        if bad.any():
            j = int(bad.argmax())
            fail(with_nabla[j], ValueError(
                "nablaA: trace A_iik must equal the H gradient, which vanishes for a "
                f"minimal state (max violation {div[j]:.3e})"))
    if check_n is not None and end:
        try:
            check_n(n)
        except ValueError as exc:
            fail(0, exc)
    if stop is not None:
        return stop
    for array in (A, nabla, hess):
        array.setflags(write=False)
    return _StateGroup(index, A, c, minimal, dict(zip(with_nabla, nabla)),
                       dict(zip(with_hess, hess)), list(parallel), list(from_spectrum))


def _validate(items, parse=dict, check_n=None) -> list:
    """The validated states of a batch of items (``parse`` gives an item's
    PointState arguments; ``_json_args`` for decoded JSON), as one
    _StateGroup per dimension in order of first appearance.

    Checks run in PointState's order: A or lam's shape and entry rule
    (``_entry_failure``), c's conversion and cap, nablaA's and hessS's shape
    and entry rule, nablaA's trace on a minimal state, ``check_n(n)``; types
    and shapes per item (``_shaped``), on the decoded lists as they are
    where those hold floats, then values once per dimension on stacked
    arrays, lambda's and A's converted by one array call over the rows. One
    pass finds the first failing item: the shape checks run item by item
    up to the first that fails them, and each dimension's checks stop at
    its first failing row (``_check_group``); the earliest of these items
    raises its first failing check. The c and S warnings of the items
    before it, and of that item if it passed c's cap, go out here in input
    order, at the caller of the function that asked for it.
    """
    rows, index_by_n, stops = [], {}, []
    for k, item in enumerate(items):
        try:
            row = _shaped(**parse(item))
        except (OverflowError, TypeError, ValueError) as exc:
            stops.append((k, exc))
            break
        rows.append(row)
        index_by_n.setdefault(row[0], []).append(k)
    queued = []
    groups = [_check_group(index, [rows[k] for k in index], check_n, queued)
              for index in index_by_n.values()]
    stops += [group for group in groups if not isinstance(group, _StateGroup)]
    stop = min(stops, key=lambda stop: stop[0], default=None)
    for k, c, S in sorted(queued):
        if stop is None or k <= stop[0]:
            _warn_unusual(c, S, stacklevel=4)
    if stop is not None:
        raise stop[1] from None
    return groups


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
        A boolean; True asserts nabla A = 0 and Hess S = 0, and
        derivative-dependent quantities then use zeros without explicit
        arrays.

    The arguments are validated as a batch of one by ``_validate``, the
    one-pass validator the CLI runs on whole batches: the first failing
    check, field by field in the order above (shape, then the 1e50 cap and
    symmetry; the trace of nablaA on a minimal state last), raises its
    ValueError, and the c and S warnings point at the caller.
    """

    __slots__ = ("n", "c", "A", "nablaA", "hessS", "parallel", "minimal", "_from_spectrum")

    def __init__(self, A=None, c: float = 1.0, lam=None, nablaA=None, hessS=None,
                 parallel: bool = False):
        (group,) = _validate([dict(A=A, c=c, lam=lam, nablaA=nablaA, hessS=hessS,
                                   parallel=parallel)])
        self._read(group, 0)

    def _read(self, group: _StateGroup, i: int) -> None:
        self.n = group.A.shape[-1]
        self.c = float(group.c[i])
        self.A = group.A[i]
        self.nablaA = group.nablaA.get(i)
        self.hessS = group.hessS.get(i)
        self.parallel = group.parallel[i]
        self.minimal = bool(group.minimal[i])
        self._from_spectrum = group.from_spectrum[i]

    @property
    def H(self) -> float:
        return float(np.trace(self.A))

    @property
    def S(self) -> float:
        return float(np.sum(self.A * self.A))

    @property
    def lam(self) -> np.ndarray:
        """Principal curvatures in descending order, as classify reads them."""
        return _spectra(self.A[None])[0, ::-1].copy()

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
        """State from a decoded JSON object, validated as a batch of one under
        the JSON rules: c, lambda, A, nablaA and hessS hold JSON numbers, n an
        integer equal to the size of lambda or A, parallel a boolean; anything
        else is a ValueError. The CLI validates whole batches the same way
        without building a state per item."""
        state = cls.__new__(cls)
        state._read(*_validate([data], _json_args), 0)
        return state

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


def _bcast(x, k: int) -> np.ndarray:
    """x, a scalar or a (...) batch of scalars, with k trailing unit axes, so
    that it broadcasts against a (..., n, n) batch of matrices or operators."""
    return np.asarray(x)[(...,) + (None,) * k]


def _weyl_raw(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Weyl tensor of the induced metric, from the shape operator alone;
    given B, its symmetric bilinear form W(A, B), so W(A, A) = W(A) and,
    W being quadratic in A, nabla_m W = 2 W(A, nabla_m A) exactly.

    Broadcasts over leading axes: A and B of shape (..., 4, 4) give a
    (..., 6, 6) operator on Lambda^2. The ambient curvature c drops out of
    the Weyl part entirely, which is why it does not appear here. Generic in
    the dtype: only integer constants enter, so the exact certifier runs
    this same kernel on object arrays of rational polynomials.
    """
    A = np.asarray(A)
    B = A if B is None else np.asarray(B)
    I = np.eye(A.shape[-1], dtype=A.dtype)
    H, HB = np.trace(A, axis1=-2, axis2=-1), np.trace(B, axis1=-2, axis2=-1)
    # U o g = g o U exactly, in floats too: each component has at most two
    # nonzero terms, so their order cannot change the rounding.
    # Each product of two A's in W(A) becomes its symmetrized product with B.
    # For B = A the terms are those of 1/2 A o A - H/2 A o g + 1/2 A^2 o g
    # + (H^2 - |A|^2)/12 g o g bit for bit, barring subnormals: a sum of two
    # equal terms and a division by a power of two are exact.
    W = _kn_raw(A, B) / 2
    W -= (_bcast(H, 2) * _kn_raw(B, I) + _bcast(HB, 2) * _kn_raw(A, I)) / 4
    W += _kn_raw((A @ B + B @ A) / 2, I) / 2
    W += _bcast((H * HB - np.einsum("...ij,...ij->...", A, B)) / 12, 2) * _kn_raw(I, I)
    return W


# The kernels below are, like _weyl_raw, generic in the dtype: the exact
# certifier runs these same functions on rational polynomials. Those that
# take A broadcast over its leading axes, with scalars of the same leading
# shape.


def _ratio(num: int, den: int, like):
    """num/den as a float for float ``like`` (the bits of the literal
    ``num.0 / den.0``), else as an exact Fraction."""
    return num / den if np.asarray(like).dtype.kind == "f" else Fraction(num, den)


def _quartic_powers(A: np.ndarray) -> tuple:
    """(H, S, A2sq, trA3) = (tr A, |A|^2, |A^2|^2, tr A^3) of a symmetric A: the
    power sums of degree up to four, all that |W|^2, |Ric0|^2 and the CGB
    integrand need."""
    A2 = A @ A
    return (A.trace(axis1=-2, axis2=-1), (A * A).sum(axis=(-2, -1)),
            (A2 * A2).sum(axis=(-2, -1)), (A2 @ A).trace(axis1=-2, axis2=-1))


def _trace_powers(A: np.ndarray) -> tuple:
    """(H, S, A2sq, trA3, trA5, trA6): the _quartic_powers, then tr A^5 and tr A^6;
    together the power sums of the principal curvatures."""
    A2 = A @ A
    A3 = A2 @ A
    return _quartic_powers(A) + ((A3 @ A2).trace(axis1=-2, axis2=-1),
                                 (A3 @ A3).trace(axis1=-2, axis2=-1))


def _power_rows(powers: tuple) -> list:
    """Power-sum columns as one row of Python floats per operator. Only the
    `point` reports still run the closed forms on these rows (`classify`
    reads its own the same way), which keeps their golden bytes: Python's
    ``**`` rounds H^4 apart from numpy's in about 3% of values.
    `immersions.integrate` runs the same kernels on the columns as arrays,
    so where H != 0 its integrands can differ from `point`'s in the last
    bits."""
    return np.stack(powers, axis=-1).tolist()


def _ricci(A: np.ndarray, c) -> tuple:
    """(ric, scal, ricTF) from (A, c) in any dimension; see gauss_equations.
    c is a scalar or has the leading shape of A."""
    n = A.shape[-1]
    I = np.eye(n, dtype=A.dtype)
    H = A.trace(axis1=-2, axis2=-1)
    S = (A * A).sum(axis=(-2, -1))
    ric = _bcast((n - 1) * c, 2) * I + _bcast(H, 2) * A - A @ A
    scal = n * (n - 1) * c + H * H - S
    return ric, scal, ric - _bcast(scal / n, 2) * I


def _gauss(A: np.ndarray, c) -> tuple:
    """(riem, ric, scal, ricTF): the curvature operator, then the _ricci data."""
    I = np.eye(A.shape[-1], dtype=A.dtype)
    return (_bcast(c / 2, 2) * _kn_raw(I, I) + _kn_raw(A, A) / 2,) + _ricci(A, c)


def _wpm_sq(H, S, A2sq, trA3):
    """|W+|^2 = |W-|^2 = 7/6 S^2 + 1/6 H^4 - 2|A^2|^2 + 2 H trA^3 - 4/3 H^2 S (n = 4)."""
    return (_ratio(7, 6, S) * S * S + H ** 4 / 6 - 2 * A2sq + 2 * H * trA3
            - _ratio(4, 3, S) * H * H * S)


def _harmweyl_form(S, A2sq, trA3, trA6):
    """3 triple(W+) + S/2 |W+|^2 of a minimal state (n = 4), certified by
    harmweyl_equality_form: 15 (trA^3)^2 - 42 trA^6 + 55/2 S |A^2|^2 - 13/4 S^3."""
    return (15 * trA3 * trA3 - 42 * trA6 + _ratio(55, 2, S) * S * A2sq
            - _ratio(13, 4, S) * S ** 3)


def _w_sq(H, S, A2sq, trA3):
    """|W|^2 = |W+|^2 + |W-|^2 = 2 |W+-|^2 (n = 4)."""
    return 2 * _wpm_sq(H, S, A2sq, trA3)


def _ric0_sq(H, S, A2sq, trA3, n: int):
    """|Ric0|^2 = H^2 S - 2 H trA^3 + |A^2|^2 - (H^2 - S)^2 / n, any n; for n = 4
    |A^2|^2 - 1/4 S^2 + 3/2 H^2 S - 2H trA^3 - 1/4 H^4."""
    return H * H * S - 2 * H * trA3 + A2sq - (H * H - S) ** 2 / n


def _cgb(H, S, A2sq, trA3, c):
    """Extrinsic Chern-Gauss-Bonnet integrand |W|^2 - 2|Ric0|^2 + R^2/6 (n = 4):

        3 S^2 - 6 |A^2|^2 - 6 H^2 S + H^4 + 8 H trA^3 + 4c(6c - S + H^2).
    """
    return (3 * S * S - 6 * A2sq - 6 * H * H * S + H ** 4
            + 8 * H * trA3 + 4 * c * (6 * c - S + H * H))


def _w_sq_minimal(S, A2sq, n: int):
    """|W|^2 of a minimal hypersurface of dimension n >= 3,
    2(n^2 - 3n + 3)/((n-1)(n-2)) S^2 - 2n/(n-2) |A^2|^2."""
    return (_ratio(2 * (n * n - 3 * n + 3), (n - 1) * (n - 2), S) * S * S
            - _ratio(2 * n, n - 2, S) * A2sq)


def _norm_fields(powers, n: int) -> dict:
    """The scalar fields of a NormPack from one row (H, S, A2sq, trA3, trA5,
    trA6) of Python floats. For n != 4 the Weyl norm is the minimal-case
    one, and Wpmsq is None."""
    H, S, A2sq, trA3, trA5, trA6 = powers
    Wpmsq = _wpm_sq(H, S, A2sq, trA3) if n == 4 else None
    return dict(S=S, A2sq=A2sq, trA3=trA3, trA5=trA5, trA6=trA6,
                Wsq=2 * Wpmsq if n == 4 else _w_sq_minimal(S, A2sq, n),
                Wpmsq=Wpmsq, RicTFsq=_ric0_sq(H, S, A2sq, trA3, n))


def _fialkow(A: np.ndarray, S):
    """F = 1/2 (A^2 - S/6 g), with W = 1/2 A o A + F o g when H = 0 (n = 4)."""
    A2 = A @ A
    return (A2 - _bcast(S / 6, 2) * np.eye(A.shape[-1], dtype=A.dtype)) / 2


# Shape operators per block of weyl_split_norms: a block's (block, 6, 6)
# float temporaries take 72 KiB each, whatever the batch. 1e5 states peak
# at 2.8 MiB traced, 2.3 MiB of it the result; unblocked they took 141 MiB,
# and with the entry check on the whole batch 25 MiB.
_WEYL_BLOCK = 256


def _signatures(A: np.ndarray) -> np.ndarray:
    """<W, *W> of each (N, 4, 4) shape operator: 0.0, as signature_vanishes certifies."""
    return np.zeros(len(A))


def weyl_split_norms(A) -> tuple:
    """(|W+|^2, |W-|^2, |W|^2) of each shape operator in a (..., 4, 4) batch.

    Tensor route: the Weyl operator of the induced metric, split by the star
    and contracted in full, a fixed-size block of operators at a time. The
    closed form says |W+|^2 = |W-|^2 = Wpmsq of closed_form_norms. The
    first matrix that breaks PointState's entry rule for A (the 1e50 cap,
    then symmetry) raises. The three arrays have the leading shape of A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2:] != (4, 4):
        raise ValueError(f"A: expected shape (..., 4, 4), got {A.shape}")
    flat = A.reshape(-1, 4, 4)
    out = np.empty((3, len(flat)))
    for start in range(0, len(flat), _WEYL_BLOCK):
        rows = slice(start, start + _WEYL_BLOCK)
        # checked per block: the blocks before the first bad matrix pass, so
        # it raises the error that a check of the whole batch would
        block = flat[rows]
        _require_entries("A", block, ((block.swapaxes(1, 2), "shape operator must be symmetric"),))
        W = _weyl_raw(block)
        out[:, rows] = [_inner(T, T) for T in (*_sd_split(W), W)]
    return tuple(out.reshape((3,) + A.shape[:-2]))


def _require_four(n: int, what: str) -> None:
    if n != 4:
        raise ValueError(f"{what} supports n = 4 only, got n = {n}")


def gauss_equations(p: PointState) -> CurvaturePack:
    """Intrinsic curvature of the induced metric via the Gauss equation.

    Works in any dimension n >= 3. Returns the full curvature tensor
    (as a CurvTensor4 when n = 4), the Ricci tensor
    Ric = (n-1) c g + H A - A^2, the scalar curvature
    R = n(n-1) c + H^2 - S, and the trace-free Ricci tensor.
    """
    riem, ric, scal, ricTF = _gauss(p.A, p.c)
    riem = CurvTensor4._of(riem) if p.n == 4 else _expand(riem, p.n)
    return CurvaturePack(riem=riem, ric=ric, scal=float(scal), ricTF=ricTF)


def weyl_tensor(p: PointState) -> CurvTensor4:
    """Weyl tensor of the induced metric at a 4-dimensional point.

    The result depends only on A; recomputing with any ambient c gives
    bit-identical components. Dimensions other than four are rejected.
    """
    _require_four(p.n, "weyl_tensor")
    return CurvTensor4._of(_weyl_raw(p.A))


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
    n = p.n
    powers = [float(x) for x in _trace_powers(p.A)]
    if n != 4 and not p.minimal:
        raise ValueError(
            f"closed-form |W|^2 for n = {n} requires a minimal state (H = {powers[0]:.3e})")
    return NormPack(**_norm_fields(powers, n), F=_fialkow(p.A, powers[1]) if n == 4 else None)


def cgb_integrand(p: PointState) -> float:
    """Chern-Gauss-Bonnet integrand in extrinsic form (n = 4).

    Equals |W|^2 - 2|Ric0|^2 + R^2/6 written out in A and c:

        3 S^2 - 6 |A^2|^2 - 6 H^2 S + H^4 + 8 H trA^3 + 4c(6c - S + H^2).

    Integrating this over a closed hypersurface and dividing by 32 pi^2
    gives the Euler characteristic.
    """
    _require_four(p.n, "cgb_integrand")
    H, S, A2sq, trA3 = map(float, _quartic_powers(p.A))
    return _cgb(H, S, A2sq, trA3, p.c)


def signature_integrand(p: PointState) -> float:
    """Integrand of the Hirzebruch signature, <W, *W> = |W+|^2 - |W-|^2.

    Identically 0.0 for hypersurface-induced metrics, as the registry identity
    signature_vanishes certifies: the signature of a closed hypersurface vanishes.
    """
    _require_four(p.n, "signature_integrand")
    return float(_signatures(p.A[None])[0])


def _require_derivatives(p: PointState, names: tuple, what: str) -> None:
    missing = [name for name in names if getattr(p, name) is None and not p.parallel]
    if missing:
        raise ValueError(f"{what} needs {' and '.join(missing)} (or the parallel flag)")


_INPUT_AXES = {"nablaA": 3, "hessS": 2, "lap_A": 2, "lap_A2": 2, "lap_A2_sq": 0, "grad_A2_sq": 0}
_FIELD_KEYS = tuple(_INPUT_AXES)[2:]
_RESIDUALS = ("lap_A", "simons", "lap_A2", "lap_A2_norm", "first_bach", "second_bach",
              "scalar_bochner")


def _lone(p: PointState) -> _StateGroup:
    """A state as the batch of one that _validate gives for it."""
    return _StateGroup([0], p.A[None], np.array([p.c]), np.array([p.minimal]),
                       {} if p.nablaA is None else {0: p.nablaA},
                       {} if p.hessS is None else {0: p.hessS}, [p.parallel], [p._from_spectrum])


def _derivative_kernel(group: _StateGroup, powers: tuple, fields=None) -> tuple:
    """(B, records) of a validated group, its _trace_powers and its field data
    by row per _FIELD_KEYS key: (N, 4, 4) Bach tensors (None unless n = 4)
    and each row's Bochner residuals, "unavailable" where NaN or not minimal.
    B needs what simons needs. scalar_bochner is, like first_bach, a minimal-only
    closed form: (R + S) _wpm_sq - 2 _harmweyl_form on parallel rows."""
    A, c, (H, S, A2sq, trA3, trA5, trA6) = group.A, group.c, powers
    N, n = A.shape[:2]
    parallel = np.array(group.parallel, dtype=bool)
    given = {"nablaA": group.nablaA, "hessS": group.hessS, **(fields or {})}
    missing = np.where(parallel, 0.0, np.nan)  # an input not given; NaN propagates
    nabla, hess, lap_A, lap_A2, lap_A2_sq, grad_A2_sq = inputs = [
        missing.repeat(n ** axes).reshape((N,) + (n,) * axes) for axes in _INPUT_AXES.values()]
    for stack, key in zip(inputs, _INPUT_AXES):
        for i, value in given.get(key, {}).items():
            stack[i] = value
    A2 = A @ A
    T2 = np.einsum("nikt,njkt->nij", nabla, nabla)  # A_ikt A_jkt
    grad_sq = (nabla * nabla).sum(axis=(1, 2, 3))
    lap_S = np.trace(hess, axis1=1, axis2=2)
    k = n * c - S  # the Simons factor nc - S
    table = np.array([
        np.abs(lap_A - _bcast(k, 2) * A).max(axis=(1, 2)),
        0.5 * lap_S - grad_sq - S * k,
        np.abs(lap_A2 - _bcast(2.0 * k, 2) * A2 - 2.0 * T2).max(axis=(1, 2)),
        0.5 * lap_A2_sq - (grad_A2_sq + 2.0 * k * A2sq + 2.0 * (A2 * T2).sum(axis=(1, 2))),
        np.einsum("nij,nikl,njkl->n", A, nabla, nabla) - (
            trA5 - (2.0 * c + S / 3.0) * trA3 + (A * hess).sum(axis=(1, 2)) / 6.0),
        # S^3 as a Python float power, whose rounding numpy's ** does not keep
        0.5 * lap_A2_sq - (grad_A2_sq + 2.0 * trA6 - 2.0 * trA3 * trA3 - 7.0 / 6.0 * S * A2sq
                           + np.array([s ** 3 for s in S.tolist()]) / 6.0 + c * (4.0 * A2sq - S * S)
                           + (hess * A2).sum(axis=(1, 2)) / 3.0 + S * lap_S / 6.0),
        np.where(parallel, (_ricci(A, c)[1] + S) * _wpm_sq(H, S, A2sq, trA3)
                 - 2.0 * _harmweyl_form(S, A2sq, trA3, trA6), np.nan),
    ]).T
    B = None
    if n == 4:
        B = 0.5 * (2.0 * (A2 @ A2) - _bcast(2.0 * trA3, 2) * A - _bcast(4.0 * c, 2) * A2
                   + _bcast(4.0 / 3.0 * S, 2) * A2 + hess / 3.0 - 2.0 * T2
                   + _bcast(grad_sq / 3.0 + c * S / 3.0 - S * S / 6.0 - 0.5 * A2sq, 2) * np.eye(4))
    else:  # the Bach identities are four-dimensional
        table[:, 4:] = np.nan
    table[~group.minimal] = np.nan
    return B, [{name: value if value == value else "unavailable"
                for name, value in zip(_RESIDUALS, row)} for row in table.tolist()]


def _warn_bach_trace(simons, S: float, stacklevel: int = 2):
    """Warn, by default at the caller, of a Bach trace tr B = simons/3 above
    EQUALITY_TOL (1 + S^2); simons "unavailable" has no Bach tensor."""
    if simons != "unavailable" and abs(simons / 3.0) > EQUALITY_TOL * (1.0 + S * S):
        warnings.warn(f"bach_tensor trace {simons / 3.0:.3e} is not zero; the supplied "
                      "derivative data violates the Simons identity", stacklevel=stacklevel)


def bach_tensor(p: PointState) -> np.ndarray:
    """Bach tensor of the induced metric of a minimal 4-dim hypersurface.

    2 B_ij = 2 A^4_ij - 2 trA^3 A_ij - 4c A^2_ij + 4/3 S A^2_ij
             + 1/3 HessS_ij - 2 A_ikt A_jkt
             + (1/3 |nabla A|^2 + 1/3 c S - 1/6 S^2 - 1/2 |A^2|^2) d_ij.

    Derivative data must be supplied or asserted zero via the parallel
    flag. tr B = simons/3 (bochner_residuals), so B is trace-free only when
    the derivative data satisfies the Simons identity; a trace above
    EQUALITY_TOL (1 + S^2) draws a warning instead of an error so that
    measured data can still be inspected.
    """
    _require_four(p.n, "bach_tensor")
    if not p.minimal:
        raise ValueError(f"bach_tensor requires a minimal state (H = {p.H:.3e})")
    _require_derivatives(p, ("nablaA", "hessS"), "bach_tensor")
    B, (record,) = _derivative_kernel(_lone(p), _trace_powers(p.A[None]))
    _warn_bach_trace(record["simons"], p.S, stacklevel=3)
    return B[0]


def div_weyl_sd(p: PointState) -> list:
    """Components of the divergence of W+ and W-, in any orthonormal frame.

    (dW+-)_kij = nabla_m (W+-)_mkij with nabla_m W = 2 W(A, nabla_m A), the
    derivative of the Weyl kernel. In dimension four dW is the Cotton
    tensor nabla_i P_jk - nabla_j P_ik, P the Schouten tensor, and dW+- its
    self-dual and anti-self-dual parts in (i, j). Requires nablaA (or the
    parallel flag) and A symmetric under the entry rule, else a ValueError.
    Output entries are 12 dicts with 1-based "indices" (k, i, j), for each
    direction k and pair (i, j) in (1,2), (1,3), (1,4), and float
    "plus"/"minus" values; dW+ repeats them on the star images (3,4),
    (4,2), (2,3), dW- negates them. Reversing the orientation swaps plus
    and minus.
    """
    _require_four(p.n, "div_weyl_sd")
    _require_entries("A", p.A[None], ((p.A.T[None], "shape operator must be symmetric"),))
    _require_derivatives(p, ("nablaA",), "div_weyl_sd")
    nabla = np.zeros((4, 4, 4)) if p.nablaA is None else p.nablaA
    # stack axis m holds nabla_m A = nablaA[..., m]; W_mk.. is row p of the
    # operator times E[m, k, p] = +-1 where (m, k) is pair p or its reverse
    plus, minus = (np.einsum("mkp,mpq->kq", _E, T)
                   for T in _sd_split(2 * _weyl_raw(p.A, np.moveaxis(nabla, 2, 0))))
    return [{"indices": (k + 1, *LAMBDA2_BASIS[q]), "plus": plus[k, q], "minus": minus[k, q]}
            for k in range(4) for q in range(3)]


def _field_values(field_data, n: int) -> dict:
    """The given entries of bochner_residuals' field_data, as _derivative_kernel
    takes them for a batch of one: lap_A and lap_A2 must be (n, n) arrays,
    lap_A2_sq and grad_A2_sq real numbers, each under the state entry rule;
    None is not given."""
    values = {}
    for key, value in (field_data or {}).items():
        if key not in _FIELD_KEYS:
            raise ValueError(f"field_data: unknown key {key!r}; known keys {_FIELD_KEYS}")
        if value is None:
            continue
        shape = (n,) * _INPUT_AXES[key]
        try:
            if not shape and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ValueError(f"expected a real number, got {value!r}")
            arr = np.asarray(value, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"expected shape {shape}, got {arr.shape}")
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"field_data: {key}: {exc}") from None
        failure = _entry_failure(key, arr[None])
        if failure is not None:
            raise ValueError(f"field_data: {failure[1]}")
        values[key] = {0: arr}
    return values


def bochner_residuals(p: PointState, field_data: dict | None = None) -> dict:
    """Residuals (LHS - RHS) of the Bochner-Weitzenboeck identities.

    Each identity holds on a minimal hypersurface of a space form; a
    residual materially different from zero means the supplied point and
    field data are mutually inconsistent. Every residual defaults to the
    string "unavailable", kept unless the state is minimal and has the
    data named below. The parallel flag sets all derivative inputs to zero.

    Recognized ``field_data`` keys: "lap_A" (n x n), "lap_A2" (n x n),
    "lap_A2_sq" (real number, Laplacian of |A^2|^2), "grad_A2_sq" (real
    number, squared norm of the gradient of A^2); None is not given. The
    Laplacian of S is taken as the trace of hessS. Field data of another
    shape or type, or that breaks the entry rule of a state (finite, 1 +
    max|entry| <= 1e50), raises a ValueError "field_data: <key>: ...".

    Residual keys, with their data: "lap_A" (lap_A), "simons" (nablaA,
    hessS), "lap_A2" (lap_A2, nablaA), "lap_A2_norm" (lap_A2_sq,
    grad_A2_sq, nablaA); for n = 4 only "first_bach" (nablaA, hessS),
    "second_bach" (lap_A2_sq, grad_A2_sq, hessS), the two Bach-derived
    scalar identities, valid for Bach-flat states, and "scalar_bochner"
    (R |W+|^2 = 6 triple W+, valid when W is parallel; parallel flag; read
    from the closed forms certified by harmweyl_equality_form).
    Tensor-valued residuals are reported as max-abs entries.
    """
    fields = _field_values(field_data, p.n)
    if not p.minimal or not (fields or p.parallel or p.nablaA is not None
                             or p.hessS is not None):
        return dict.fromkeys(_RESIDUALS, "unavailable")
    return _derivative_kernel(_lone(p), _trace_powers(p.A[None]), fields)[1][0]
