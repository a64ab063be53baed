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

import itertools
import json
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .lambda2 import LAMBDA2_BASIS, CurvTensor4, _kn_raw, _sd_split, _star4
from .lambda2 import inner, star_weyl, triple  # noqa: F401  (looked up on this module)
from .tolerances import EQUALITY_TOL, _entry_failure, _require_entries

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
    operators: |tr A| <= 1e-10 (1 + |A|_F), with |A|_F summed as
    np.linalg.norm sums it."""
    flat = A.reshape(A.shape[:-2] + (1, A.shape[-1] ** 2))
    norm = np.sqrt((flat @ flat.swapaxes(-2, -1))[..., 0, 0])
    return np.abs(np.trace(A, axis1=-2, axis2=-1)) <= _MINIMAL_REL_TOL * (1.0 + norm)


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


_JSON_FIELDS = ("n", "c", "lambda", "A", "nablaA", "hessS", "parallel")


def _json_numbers(name: str, value) -> np.ndarray:
    """A JSON number or nested arrays of them as a float array; booleans,
    strings, null, objects, ragged arrays and ints beyond float range raise."""
    # a float or a flat list of floats, the common case, needs no object array
    if type(value) is float or (type(value) is list and all(type(v) is float for v in value)):
        return np.array(value)
    leaves = np.asarray(value, dtype=object)
    # A ragged array leaves lists among the object leaves.
    if not set(map(type, leaves.flat)) <= {int, float}:
        raise ValueError(f"{name}: expected JSON numbers")
    try:
        return leaves.astype(float)
    except OverflowError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _json_args(data) -> dict:
    """PointState arguments of one decoded JSON object. c, lambda, A, nablaA
    and hessS hold JSON numbers, n an integer equal to the size of lambda or
    A, parallel a boolean; anything else is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError("point state: expected a JSON object")
    for key in data:
        if key not in _JSON_FIELDS:
            raise ValueError(f"{key}: unknown field")
    if ("lambda" in data) == ("A" in data):
        raise ValueError("point state: provide exactly one of 'lambda' or 'A'")
    shape_key = "lambda" if "lambda" in data else "A"
    fields = {key: _json_numbers(key, data[key])
              for key in ("c", shape_key, "nablaA", "hessS") if key in data}
    c, main = fields.get("c", 1.0), fields[shape_key]
    if "c" in fields and c.ndim:
        raise ValueError("c: expected a number")
    if "n" in data:
        n = data["n"]
        if type(n) is not int:
            raise ValueError("n: expected an integer")
        if main.ndim and len(main) != n:
            raise ValueError(f"{shape_key}: expected {n} entries, got {len(main)}")
    return {"lam" if shape_key == "lambda" else "A": main, "c": float(c),
            "nablaA": fields.get("nablaA"), "hessS": fields.get("hessS"),
            "parallel": data.get("parallel", False)}


def _spectrum_shape(lams, ndim: int) -> np.ndarray:
    """lams as floats, one spectrum (ndim 1) or an (N, n) array of them (ndim
    2), each of at least 3 principal curvatures: the shape rule of lambda."""
    lams = np.asarray(lams, dtype=float)
    if ndim == 2 and lams.ndim != 2:
        raise ValueError(f"expected a spectrum array with 2 axes, got shape {lams.shape}")
    if lams.ndim != ndim or lams.shape[-1] < 3:
        raise ValueError(f"lambda: expected at least 3 principal curvatures, "
                         f"got shape {lams.shape}")
    return lams


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


def _shaped(A=None, c=1.0, lam=None, nablaA=None, hessS=None, parallel=False):
    """PointState arguments after the checks of parallel and of A or lam's
    shape: n, from_spectrum, main (lam or A), parallel; the others as given."""
    if not isinstance(parallel, (bool, np.bool_)):
        raise ValueError("parallel: expected true or false")
    if (A is None) == (lam is None):
        raise ValueError("provide exactly one of A or lam")
    if lam is not None:
        main = _spectrum_shape(lam, 1)
    else:
        main = np.array(A, dtype=float)
        if main.ndim != 2 or main.shape[0] != main.shape[1]:
            raise ValueError(f"A: expected a square matrix, got shape {main.shape}")
        if len(main) < 3:
            raise ValueError(f"A: dimension must be at least 3, got {len(main)}")
    return SimpleNamespace(n=len(main), from_spectrum=lam is not None, main=main, c=c,
                           nablaA=nablaA, hessS=hessS, parallel=bool(parallel))


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
def _check_group(index: list, rows: list, tol: float, check_n, queued: list):
    """The checks after A or lam's shape, for the states ``rows`` of one
    dimension n at items ``index``, in PointState's order: per field, its
    conversion or shape per row, then its entry rule on the stacked values;
    check_n(n) last. The first row that fails a check ends the group, so
    each later check runs only on the rows before it, which have passed
    every check so far. Returns the _StateGroup, or (k, error) of the
    group's earliest failing item k and its first failing check. Queues
    (item, c, S) of each state with an unusual c or S once c has passed."""
    n, end, stop = rows[0].n, len(rows), None

    def fail(j: int, error: Exception) -> None:
        nonlocal end, stop
        end, stop = j, (index[j], error)

    def stacked(at, field: str) -> np.ndarray:
        """The values of field at rows ``at``, up to the first whose
        conversion or shape fails."""
        values = []
        for j in at:
            value = getattr(rows[j], field)
            try:
                values.append(float(value) if field == "c" else _field_array(field, value, n))
            except (OverflowError, TypeError, ValueError) as exc:
                fail(j, exc)
                break
        return np.array(values)

    def check(name: str, at, raw: np.ndarray, mirror=None, rule="must be symmetric") -> None:
        failure = _entry_failure(name, raw, mirror, tol, rule)
        if failure is not None:
            fail(at[failure[0]], failure[1])

    A = np.empty((end, n, n))
    spectra = [j for j in range(end) if rows[j].from_spectrum]
    if spectra:
        lams = np.array([rows[j].main for j in spectra])
        check("lambda", spectra, lams)
        A[spectra] = _diagonal(lams)
    matrices = [j for j in range(end) if not rows[j].from_spectrum]
    if matrices:
        raw = np.array([rows[j].main for j in matrices])
        check("A", matrices, raw, raw.swapaxes(1, 2), "shape operator must be symmetric")
        A[matrices] = 0.5 * (raw + raw.swapaxes(1, 2))
    c = stacked(range(end), "c")
    check("c", range(end), c)
    A, c = A[:end], c[:end]
    minimal = _is_minimal(A)
    S = (A * A).sum(axis=(1, 2))
    queued += [(index[j], c_j, S_j) for j, (c_j, S_j) in enumerate(zip(c.tolist(), S.tolist()))
               if c_j not in (-1.0, 0.0, 1.0) or S_j > _CONDITION_WARN_S]
    with_nabla = [j for j in range(end) if rows[j].nablaA is not None]
    nabla = raw = stacked(with_nabla, "nablaA")
    if len(raw):
        nabla = _symmetrize3(raw)
        check("nablaA", with_nabla, raw, nabla, "components must be totally symmetric")
    with_hess = [j for j in range(end) if rows[j].hessS is not None]
    hess = stacked(with_hess, "hessS")
    if len(hess):
        check("hessS", with_hess, hess, hess.swapaxes(1, 2))
        hess = 0.5 * (hess + hess.swapaxes(1, 2))
    with_nabla = [j for j in with_nabla if j < end]
    if with_nabla:
        nabla = nabla[:len(with_nabla)]
        div = np.abs(np.einsum("...iik->...k", nabla)).max(axis=-1)
        bad = minimal[with_nabla] & (div > tol * (1.0 + np.abs(nabla).max(axis=(1, 2, 3))))
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
                       dict(zip(with_hess, hess)), [row.parallel for row in rows],
                       [row.from_spectrum for row in rows])


def _validate(items, parse=dict, tol: float = EQUALITY_TOL, check_n=None) -> list:
    """The validated states of a batch of items (``parse`` gives an item's
    PointState arguments; ``_json_args`` for decoded JSON), as one
    _StateGroup per dimension in order of first appearance.

    Checks run in PointState's order: A or lam's shape and entry rule
    (``_entry_failure``), c's conversion and cap, nablaA's and hessS's shape
    and entry rule, nablaA's trace on a minimal state, ``check_n(n)``; types
    and shapes per item, values once per dimension on stacked arrays. One
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
            rows.append(_shaped(**parse(item)))
        except (OverflowError, TypeError, ValueError) as exc:
            stops.append((k, exc))
            break
        index_by_n.setdefault(rows[k].n, []).append(k)
    queued = []
    groups = [_check_group(index, [rows[k] for k in index], tol, check_n, queued)
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
                 parallel: bool = False, tol: float = EQUALITY_TOL):
        (group,) = _validate([dict(A=A, c=c, lam=lam, nablaA=nablaA, hessS=hessS,
                                   parallel=parallel)], tol=tol)
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


def _bcast(x, k: int) -> np.ndarray:
    """x, a scalar or a (...) batch of scalars, with k trailing unit axes, so
    that it broadcasts against a (..., n^k) batch of tensors."""
    return np.asarray(x)[(...,) + (None,) * k]


def _weyl_raw(A: np.ndarray) -> np.ndarray:
    """Weyl tensor of the induced metric, from the shape operator alone.

    Broadcasts over leading axes: A of shape (..., 4, 4) gives a
    (..., 4, 4, 4, 4) result. The ambient curvature c drops out of the
    Weyl part entirely, which is why it does not appear here. Generic in
    the dtype: only integer constants enter, so the exact certifier runs
    this same kernel on object arrays of rational polynomials.
    """
    A = np.asarray(A)
    I = np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    H = np.trace(A, axis1=-2, axis2=-1)
    S = np.einsum("...ij,...ij->...", A, A)
    # U o g = g o U exactly, in floats too: each component has at most two
    # nonzero terms, so their order cannot change the rounding.
    W = _kn_raw(A, A) / 2
    W -= _bcast(H / 2, 4) * _kn_raw(A, I)
    W += _kn_raw(A2, I) / 2
    W += _bcast((H * H - S) / 12, 4) * _kn_raw(I, I)
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
    """Power-sum columns as one row of Python floats per operator: the closed
    forms run on those, as their ``**`` rounds differently from numpy's."""
    return np.stack(powers, axis=-1).tolist()


def _gauss(A: np.ndarray, c) -> tuple:
    """(riem, ric, scal, ricTF) from (A, c) in any dimension; see gauss_equations.
    c is a scalar or has the leading shape of A."""
    n = A.shape[-1]
    I = np.eye(n, dtype=A.dtype)
    H = A.trace(axis1=-2, axis2=-1)
    S = (A * A).sum(axis=(-2, -1))
    riem = _bcast(c / 2, 4) * _kn_raw(I, I) + _kn_raw(A, A) / 2
    ric = _bcast((n - 1) * c, 2) * I + _bcast(H, 2) * A - A @ A
    scal = n * (n - 1) * c + H * H - S
    return riem, ric, scal, ric - _bcast(scal / n, 2) * I


def _wpm_sq(H, S, A2sq, trA3):
    """|W+|^2 = |W-|^2 = 7/6 S^2 + 1/6 H^4 - 2|A^2|^2 + 2 H trA^3 - 4/3 H^2 S (n = 4)."""
    return (_ratio(7, 6, S) * S * S + H ** 4 / 6 - 2 * A2sq + 2 * H * trA3
            - _ratio(4, 3, S) * H * H * S)


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
    four = n == 4
    return dict(S=S, A2sq=A2sq, trA3=trA3, trA5=trA5, trA6=trA6,
                Wsq=_w_sq(H, S, A2sq, trA3) if four else _w_sq_minimal(S, A2sq, n),
                Wpmsq=_wpm_sq(H, S, A2sq, trA3) if four else None,
                RicTFsq=_ric0_sq(H, S, A2sq, trA3, n))


def _fialkow(A: np.ndarray, S):
    """F = 1/2 (A^2 - S/6 g), with W = 1/2 A o A + F o g when H = 0 (n = 4)."""
    A2 = A @ A
    return (A2 - _bcast(S / 6, 2) * np.eye(A.shape[-1], dtype=A.dtype)) / 2


# Shape operators per block of the batched Weyl route: a block's
# (block, 4, 4, 4, 4) float temporaries take 0.5 MiB each, whatever the
# batch; blocks of 32 to 1,024 states ran equally fast per state.
_WEYL_BLOCK = 256


def _weyl_blocks(A: np.ndarray):
    """(slice, W) for consecutive blocks of an (N, 4, 4) batch."""
    for start in range(0, len(A), _WEYL_BLOCK):
        rows = slice(start, start + _WEYL_BLOCK)
        yield rows, _weyl_raw(A[rows])


def _contract(T1: np.ndarray, T2: np.ndarray) -> np.ndarray:
    return np.einsum("...ijkl,...ijkl->...", T1, T2)


def _signatures(A: np.ndarray) -> np.ndarray:
    """<W, *W> of each shape operator in an (N, 4, 4) float batch."""
    out = np.empty(len(A))
    for rows, W in _weyl_blocks(A):
        out[rows] = _contract(W, _star4(W))
    return out


def weyl_split_norms(A) -> tuple:
    """(|W+|^2, |W-|^2, |W|^2) of each shape operator in a (..., 4, 4) batch.

    Tensor route: the Weyl tensor of the induced metric, split by the star
    and contracted in full, a fixed-size block of operators at a time. The
    closed form says |W+|^2 = |W-|^2 = Wpmsq of closed_form_norms. The
    first matrix that breaks PointState's entry rule for A (the 1e50 cap,
    then symmetry) raises. The three arrays have the leading shape of A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2:] != (4, 4):
        raise ValueError(f"A: expected shape (..., 4, 4), got {A.shape}")
    flat = A.reshape(-1, 4, 4)
    _require_entries("A", flat, flat.swapaxes(1, 2), rule="shape operator must be symmetric")
    out = np.empty((3, len(flat)))
    for rows, W in _weyl_blocks(flat):
        Wp, Wm = _sd_split(W)
        out[:, rows] = _contract(Wp, Wp), _contract(Wm, Wm), _contract(W, W)
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
    riem_out = CurvTensor4(riem, check=False) if p.n == 4 else riem
    return CurvaturePack(riem=riem_out, ric=ric, scal=float(scal), ricTF=ricTF)


def weyl_tensor(p: PointState) -> CurvTensor4:
    """Weyl tensor of the induced metric at a 4-dimensional point.

    The result depends only on A; recomputing with any ambient c gives
    bit-identical components. Dimensions other than four are rejected.
    """
    _require_four(p.n, "weyl_tensor")
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

    Identically zero for hypersurface-induced metrics: the signature of a
    closed hypersurface of a space form vanishes.
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


def _derivative_kernel(group: _StateGroup, powers: tuple, fields=None, weyl=True) -> tuple:
    """(B, records) of a validated group, its _trace_powers and its field data
    by row per _FIELD_KEYS key: (N, 4, 4) Bach tensors (None unless n = 4)
    and each row's Bochner residuals, "unavailable" where NaN or not minimal.
    B needs what simons needs. Without ``weyl``, scalar_bochner is NaN."""
    A, c, (_, S, A2sq, trA3, trA5, trA6) = group.A, group.c, powers
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
        np.full(N, np.nan),
    ]).T
    B = None
    if n == 4:
        B = 0.5 * (2.0 * (A2 @ A2) - _bcast(2.0 * trA3, 2) * A - _bcast(4.0 * c, 2) * A2
                   + _bcast(4.0 / 3.0 * S, 2) * A2 + hess / 3.0 - 2.0 * T2
                   + _bcast(grad_sq / 3.0 + c * S / 3.0 - S * S / 6.0 - 0.5 * A2sq, 2) * np.eye(4))
        rows = np.flatnonzero(parallel & weyl)
        for block, W in _weyl_blocks(A[rows]):
            Wp, at = next(_sd_split(W)), rows[block]
            table[at, 6] = (_gauss(A[at], c[at])[2] * (Wp * Wp).sum(axis=(1, 2, 3, 4))
                            - 6.0 * np.einsum("nijkl,npqkl,nijpq->n", Wp, Wp, Wp))
    else:  # the Bach identities are four-dimensional
        table[:, 4:] = np.nan
    table[~group.minimal] = np.nan
    return B, [{name: value if value == value else "unavailable"
                for name, value in zip(_RESIDUALS, row)} for row in table.tolist()]


def _warn_bach_trace(simons, S: float, tol: float = EQUALITY_TOL, stacklevel: int = 2):
    """Warn, by default at the caller, of a Bach trace tr B = simons/3 above
    tol (1 + S^2); simons "unavailable" has no Bach tensor."""
    if simons != "unavailable" and abs(simons / 3.0) > tol * (1.0 + S * S):
        warnings.warn(f"bach_tensor trace {simons / 3.0:.3e} is not zero; the supplied "
                      "derivative data violates the Simons identity", stacklevel=stacklevel)


def bach_tensor(p: PointState, tol: float = EQUALITY_TOL) -> np.ndarray:
    """Bach tensor of the induced metric of a minimal 4-dim hypersurface.

    2 B_ij = 2 A^4_ij - 2 trA^3 A_ij - 4c A^2_ij + 4/3 S A^2_ij
             + 1/3 HessS_ij - 2 A_ikt A_jkt
             + (1/3 |nabla A|^2 + 1/3 c S - 1/6 S^2 - 1/2 |A^2|^2) d_ij.

    Derivative data must be supplied or asserted zero via the parallel
    flag. tr B = simons/3 (bochner_residuals), so B is trace-free only when
    the derivative data satisfies the Simons identity; a trace above tol (1
    + S^2) draws a warning instead of an error so that measured data can
    still be inspected.
    """
    _require_four(p.n, "bach_tensor")
    if not p.minimal:
        raise ValueError(f"bach_tensor requires a minimal state (H = {p.H:.3e})")
    _require_derivatives(p, ("nablaA", "hessS"), "bach_tensor")
    B, (record,) = _derivative_kernel(_lone(p), _trace_powers(p.A[None]), weyl=False)
    _warn_bach_trace(record["simons"], p.S, tol, stacklevel=3)
    return B[0]


_DIV_PAIRS = tuple(zip(LAMBDA2_BASIS[:3], LAMBDA2_BASIS[3:]))


def div_weyl_sd(p: PointState) -> list:
    """Components of the divergence of W+ and W- in a principal frame.

    Requires nablaA and a diagonal shape operator (a state built from a
    spectrum, or a matrix that is diagonal to working precision): A passes
    the entry rule against its mirror diag(diag A) at EQUALITY_TOL, else a
    ValueError. For each frame direction k and each basis pair (i, j) the
    two values

        (dW+-)_kij = 1/4 [ (l_i - l_j) A_kij +- (l_a - l_b) A_kab ]

    are returned, where (a, b) is the complementary pair in the order
    (1,2)|(3,4), (1,3)|(4,2), (1,4)|(2,3). Output entries are dicts with
    1-based "indices" (k, i, j) and float "plus"/"minus" values, 12 in
    total.
    """
    _require_four(p.n, "div_weyl_sd")
    A = p.A
    _require_entries("A", A[None], np.diag(np.diag(A))[None], rule="div_weyl_sd needs the "
                     "shape operator in a principal frame (diagonal matrix)")
    _require_derivatives(p, ("nablaA",), "div_weyl_sd")
    nabla = np.zeros((4, 4, 4)) if p.nablaA is None else p.nablaA
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
    (R |W+|^2 = 6 triple W+, valid when W is parallel; parallel flag).
    Tensor-valued residuals are reported as max-abs entries.
    """
    fields = _field_values(field_data, p.n)
    if not p.minimal or not (fields or p.parallel or p.nablaA is not None
                             or p.hessS is not None):
        return dict.fromkeys(_RESIDUALS, "unavailable")
    return _derivative_kernel(_lone(p), _trace_powers(p.A[None]), fields)[1][0]
