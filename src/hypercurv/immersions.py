"""Model hypersurfaces of the unit 5-sphere and quadrature over them.

The catalog covers the homogeneous examples whose curvature data is known
in closed form: Clifford products S^k(sqrt(k/n)) x S^(n-k)(sqrt((n-k)/n)),
the totally geodesic equatorial sphere, and the point data of the
inhomogeneous-looking isoparametric family member with four distinct
principal curvatures cot(pi/8 + k pi/4). Product charts come with exact
per-factor quadrature rules (trapezoid on periodic angles, Gauss-Legendre
with the sine-power Jacobian folded into the weights on polar angles), so
integral functionals of the curvature converge spectrally in the
resolution. Every chart is a product of two round spheres (the geodesic
sphere is S^4(1) x S^0(0)); charts and normals broadcast over leading
axes, (..., 4) -> (..., 6).

Charts without an analytic spectrum get their second fundamental form
from derivatives of the chart. `integrate` seeds each block of nodes as
a second-order jet (`_Jet`) and makes one chart call per block, which
yields the points, the Jacobian and the second derivatives exact to
rounding. A chart that uses an operation jets do not carry (say np.exp)
falls back to `numeric_second_fundamental_form`: central second
differences with one Richardson extrapolation level, one chart call per
block for all stencil rows. Both routes share one tail: the second
derivatives are projected onto the unit normal that the projector onto
the kernel of [x; J] (chart point and Jacobian) yields, behind a gate on
the metric condition number taken from eigvalsh. The finite-difference
extractor also serves as an oracle for the catalog spectra.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .extrinsic import (PointState, _cgb, _power_rows, _quartic_powers, _signatures, _w_sq,
                        _warn_unusual)
from .extrinsic import cgb_integrand  # noqa: F401  (re-exported: callers look it up on this module)
from .tolerances import _require_entries

__all__ = [
    "Factor",
    "Immersion",
    "QuadratureGrid",
    "catalog_point",
    "clifford_immersion",
    "totally_geodesic_sphere",
    "get_immersion",
    "build_grid",
    "numeric_second_fundamental_form",
    "integrate",
]

# Volume of the unit sphere S^d; S^0 enters charts as the single point +1.
_SPHERE_VOL = {0: 1.0, 1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi ** 2,
               4: 8.0 * math.pi ** 2 / 3.0}

# Chart angle names of S^d: polar angles first, the periodic angle last.
_SPHERE_ANGLES = {0: (), 1: ("t",), 2: ("phi", "theta"), 3: ("psi", "phi", "theta"),
                  4: ("psi1", "psi2", "psi3", "theta")}

# Nodes per block of `integrate`'s spectrum-free path: on the finite-
# difference route all 1,296 nodes of a res-6 grid at once cost ~8 MiB
# more peak memory, blocks of 128 ~2 MiB.
_BLOCK = 128

# Upper-triangle index pairs (i, j), i < j, of a 4 x 4 matrix.
_ROWS, _COLS = np.triu_indices(4, 1)


@dataclass(frozen=True)
class Factor:
    """One chart angle with its share of the volume measure.

    kind "periodic": uniform trapezoid nodes on [0, 2 pi), exact for
    trigonometric polynomials below the resolution. kind "polar":
    Gauss-Legendre nodes mapped to [0, pi] with weight sin(x)^power.
    ``scale`` multiplies the weights (radius powers of the factor sphere).
    """

    name: str
    kind: str
    power: int = 0
    scale: float = 1.0

    def nodes_weights(self, res: int):
        if res < 2:
            raise ValueError(f"resolution must be at least 2, got {res}")
        if self.kind == "periodic":
            nodes = np.linspace(0.0, 2.0 * math.pi, res, endpoint=False)
            weights = np.full(res, 2.0 * math.pi / res * self.scale)
            return nodes, weights
        if self.kind == "polar":
            x, w = leggauss(res)
            nodes = 0.5 * math.pi * (x + 1.0)
            weights = 0.5 * math.pi * w * np.sin(nodes) ** self.power * self.scale
            return nodes, weights
        raise ValueError(f"unknown factor kind {self.kind!r}")


@dataclass(frozen=True)
class QuadratureGrid:
    """Per-factor nodes and weights of a product rule."""

    names: tuple
    nodes: tuple
    weights: tuple

    @property
    def factor_sums(self) -> tuple:
        return tuple(float(w.sum()) for w in self.weights)

    @property
    def total_weight(self) -> float:
        total = 1.0
        for s in self.factor_sums:
            total *= s
        return float(total)


@dataclass(frozen=True)
class Immersion:
    """A hypersurface of the unit 5-sphere with an optional product chart.

    ``chart`` and ``normal`` map parameters of shape (..., n) to points
    and unit normals of shape (..., n + 2). A chart written with the
    operations that `_Jet` carries also runs on jets, which gives
    `integrate` its exact derivatives.
    """

    kind: str
    label: str
    n: int = 4
    k: int | None = None
    chart: object = None
    normal: object = None
    spectrum: np.ndarray | None = None
    factors: tuple = field(default_factory=tuple)
    closed: bool = True
    volume: float | None = None
    c: float = 1.0

    def point(self) -> PointState:
        if self.spectrum is None:
            raise ValueError(f"{self.label} carries no analytic spectrum")
        parallel = self.kind in ("cliffordProduct", "totallyGeodesicSphere")
        return PointState(lam=self.spectrum, c=self.c, parallel=parallel,
                          hessS=None if parallel else np.zeros((self.n, self.n)))


def _clifford_spectrum(n: int, k: int) -> np.ndarray:
    if not 1 <= k <= n - 1:
        raise ValueError(f"clifford factor dimension k must lie in 1..{n - 1}, got {k}")
    lam_k = math.sqrt((n - k) / k)
    lam_rest = -math.sqrt(k / (n - k))
    return np.array([lam_k] * k + [lam_rest] * (n - k))


_M4_SPECTRUM = np.array([1.0 / math.tan(math.pi / 8.0 + j * math.pi / 4.0) for j in range(4)])


def _parse_label(label: str) -> tuple:
    """(name, n, k) of "clifford:n:k", "geodesic[:n]" (n = 4 by default) or "m4";
    aliases "totallyGeodesicSphere", "s4" and "m4point", "isoparametric",
    "isoparametricM4Point"; names are case-insensitive."""
    parts = label.split(":")
    name = parts[0].strip().lower()
    if name == "clifford":
        if len(parts) != 3:
            raise ValueError(f"clifford geometry must be 'clifford:n:k', got {label!r}")
        return name, int(parts[1]), int(parts[2])
    if name in ("geodesic", "totallygeodesicsphere", "s4"):
        return "geodesic", int(parts[1]) if len(parts) > 1 else 4, None
    if name in ("m4", "m4point", "isoparametric", "isoparametricm4point"):
        return "m4", 4, None
    raise ValueError(f"unknown geometry {label!r}")


def catalog_point(kind: str) -> PointState:
    """Pointwise curvature state of a catalog geometry.

    ``kind`` is a label of `_parse_label`, with any n. Clifford and
    geodesic states are parallel; the m4 isoparametric point is not
    (its Simons identity forces |nabla A|^2 = S(S - 4) = 96 != 0), so it
    carries hessS = 0 (S is constant on the family) but no nablaA.
    """
    name, n, k = _parse_label(kind)
    if name == "clifford":
        return PointState(lam=_clifford_spectrum(n, k), c=1.0, parallel=True)
    if name == "geodesic":
        return PointState(lam=np.zeros(n), c=1.0, parallel=True)
    return PointState(lam=_M4_SPECTRUM, c=1.0, parallel=False, hessS=np.zeros((4, 4)))


class _JetUnsupported(TypeError):
    """A chart applied to a `_Jet` an operation that jets do not carry."""


class _Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """Second-order jet of an array in the 4 chart parameters.

    ``val`` (...), ``grad`` (..., 4) and ``hess`` (..., 4, 4) hold each
    entry's value, gradient and Hessian. The ufuncs cos, sin, add,
    subtract, multiply and negative (also as Python operators), np.stack,
    np.concatenate and basic indexing of the value axes carry all three
    by the chain and product rules, exact to rounding. So a chart built
    from them, like the product-of-spheres charts, returns its points,
    Jacobian and second derivatives from one call on `seed`. Any other
    NumPy operation, conversion to an array included, raises
    `_JetUnsupported`.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    @classmethod
    def seed(cls, params: np.ndarray) -> "_Jet":
        """The coordinate functions at an (N, 4) batch of parameter points."""
        n = len(params)
        return cls(params, np.broadcast_to(np.eye(4), (n, 4, 4)), np.zeros((n, 4, 4, 4)))

    @classmethod
    def lift(cls, a) -> "_Jet":
        """A jet as is; an array or number as a constant jet."""
        if isinstance(a, cls):
            return a
        a = np.asarray(a, dtype=float)
        return cls(a, np.zeros(a.shape + (4,)), np.zeros(a.shape + (4, 4)))

    @property
    def shape(self) -> tuple:
        return self.val.shape

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        # an Ellipsis anchors the key on the trailing value axes
        tail = any(k is Ellipsis for k in key)
        return _Jet(self.val[key], self.grad[key + (slice(None),) * tail],
                    self.hess[key + (slice(None),) * (2 * tail)])

    def __array__(self, dtype=None, copy=None):
        raise _JetUnsupported("a jet cannot be converted to an array")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _JET_UFUNCS.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            raise _JetUnsupported(f"jets do not carry {ufunc.__name__}.{method}")
        return rule(*inputs)

    def __array_function__(self, func, types, args, kwargs):
        if func not in (np.stack, np.concatenate) or set(kwargs) - {"axis"}:
            raise _JetUnsupported(f"jets do not carry {func.__name__}")
        return _jet_join(func, *args, **kwargs)


# Chain and product rules of the `_Jet` ufuncs: u = f(a) has gradient
# f'(a) grad a and Hessian f''(a) grad a grad a^T + f'(a) hess a.


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _jet_cos(a):
    cos, sin = np.cos(a.val), np.sin(a.val)
    return _Jet(cos, -sin[..., None] * a.grad,
                -cos[..., None, None] * _outer(a.grad, a.grad) - sin[..., None, None] * a.hess)


def _jet_sin(a):
    cos, sin = np.cos(a.val), np.sin(a.val)
    return _Jet(sin, cos[..., None] * a.grad,
                cos[..., None, None] * a.hess - sin[..., None, None] * _outer(a.grad, a.grad))


def _jet_multiply(a, b):
    if not isinstance(a, _Jet):
        a, b = b, a
    if not isinstance(b, _Jet):
        b = np.asarray(b, dtype=float)
        return _Jet(a.val * b, a.grad * b[..., None], a.hess * b[..., None, None])
    cross = _outer(a.grad, b.grad)
    return _Jet(a.val * b.val, a.val[..., None] * b.grad + b.val[..., None] * a.grad,
                a.val[..., None, None] * b.hess + b.val[..., None, None] * a.hess
                + cross + cross.swapaxes(-1, -2))


def _jet_add(a, b):
    a, b = _Jet.lift(a), _Jet.lift(b)
    return _Jet(a.val + b.val, a.grad + b.grad, a.hess + b.hess)


def _jet_negative(a):
    return _Jet(-a.val, -a.grad, -a.hess)


def _jet_join(join, jets, axis=0):
    """np.stack or np.concatenate of jets (constants are lifted) along a value axis."""
    jets = [_Jet.lift(j) for j in jets]
    ndim = jets[0].val.ndim + (join is np.stack)
    axis = axis if axis >= 0 else axis + ndim
    return _Jet(join([j.val for j in jets], axis=axis), join([j.grad for j in jets], axis=axis),
                join([j.hess for j in jets], axis=axis))


_JET_UFUNCS = {np.cos: _jet_cos, np.sin: _jet_sin, np.multiply: _jet_multiply,
               np.add: _jet_add, np.subtract: lambda a, b: _jet_add(a, np.negative(b)),
               np.negative: _jet_negative}


def _sphere_coords(angles: np.ndarray) -> np.ndarray:
    """Hyperspherical embedding (..., d) -> (..., d + 1) of the unit S^d.

    For d = 0 this is the point +1 of S^0.
    """
    d = angles.shape[-1]
    if d == 0:
        return np.ones(angles.shape[:-1] + (1,))
    cos, sin = np.cos(angles), np.sin(angles)
    out = []
    sin_prod = 1.0
    for i in range(d - 1):
        out.append(sin_prod * cos[..., i])
        sin_prod = sin_prod * sin[..., i]
    out.append(sin_prod * cos[..., d - 1])
    out.append(sin_prod * sin[..., d - 1])
    return np.stack(out, axis=-1)


def _sphere_factors(d: int, radius: float, suffix: str) -> tuple:
    """Quadrature factors of S^d(radius): polar angles with powers d-1..1,
    then the periodic angle; the first angle carries radius^d."""
    return tuple(
        Factor(name + suffix, "periodic" if i == d - 1 else "polar", power=d - 1 - i,
               scale=radius ** d if i == 0 else 1.0)
        for i, name in enumerate(_SPHERE_ANGLES[d]))


def _sphere_product(kind: str, label: str, k: int, spectrum: np.ndarray) -> Immersion:
    """Minimal product S^k(sqrt(k/4)) x S^(4-k)(sqrt((4-k)/4)) in S^5.

    The chart is (r1 u, r2 v) for unit-sphere points u, v of the factors,
    with the S^k angles first; the normal (-r2 u, r1 v) gives the S^k
    factor the principal curvature r2/r1 = sqrt((4-k)/k).
    """
    dims = (k, 4 - k)
    r1, r2 = math.sqrt(k / 4), math.sqrt((4 - k) / 4)
    suffixes = ("1", "2") if dims[0] == dims[1] else ("", "")

    def factor_points(p):
        p = p if isinstance(p, _Jet) else np.asarray(p, dtype=float)
        return _sphere_coords(p[..., :k]), _sphere_coords(p[..., k:])

    def chart(p):
        u, v = factor_points(p)
        return np.concatenate([r1 * u, r2 * v], axis=-1)

    def normal(p):
        u, v = factor_points(p)
        return np.concatenate([-r2 * u, r1 * v], axis=-1)

    factors = _sphere_factors(dims[0], r1, suffixes[0]) + _sphere_factors(dims[1], r2, suffixes[1])
    volume = _SPHERE_VOL[dims[0]] * r1 ** dims[0] * _SPHERE_VOL[dims[1]] * r2 ** dims[1]
    # ``Immersion.k`` is the Clifford factor dimension, which S^4 x S^0 lacks
    return Immersion(kind=kind, label=label, n=4, k=k if k < 4 else None, chart=chart,
                     normal=normal, spectrum=spectrum, factors=factors, closed=True,
                     volume=volume)


def clifford_immersion(n: int = 4, k: int = 1) -> Immersion:
    """Clifford product S^k(sqrt(k/n)) x S^(n-k)(sqrt((n-k)/n)) in S^(n+1).

    Charts and quadrature are provided for n = 4. The normal is oriented
    so the S^k factor carries the positive principal curvature
    sqrt((n-k)/k).
    """
    if n != 4:
        raise ValueError(f"clifford_immersion charts support n = 4 only, got n = {n}")
    return _sphere_product("cliffordProduct", f"clifford:4:{k}", k, _clifford_spectrum(n, k))


def totally_geodesic_sphere(n: int = 4) -> Immersion:
    """Equatorial totally geodesic S^4 in S^5, with normal e_6."""
    if n != 4:
        raise ValueError(f"totally_geodesic_sphere charts support n = 4 only, got n = {n}")
    return _sphere_product("totallyGeodesicSphere", "geodesic:4", 4, np.zeros(4))


def get_immersion(label: str) -> Immersion:
    """Resolve a geometry label of `_parse_label`, such as 'clifford:4:1'."""
    name, n, k = _parse_label(label)
    if name == "clifford":
        return clifford_immersion(n, k)
    if name == "geodesic":
        return totally_geodesic_sphere(n)
    raise ValueError("the isoparametric m4 family member is point-data only; "
                     "use catalog_point('m4')")


def build_grid(imm: Immersion, res: int) -> QuadratureGrid:
    """Product quadrature grid at per-factor resolution ``res``."""
    if not imm.factors:
        raise ValueError(f"{imm.label} has no quadrature factors")
    pairs = [f.nodes_weights(res) for f in imm.factors]
    return QuadratureGrid(
        names=tuple(f.name for f in imm.factors),
        nodes=tuple(p[0] for p in pairs),
        weights=tuple(p[1] for p in pairs),
    )


def _node_blocks(grid: QuadratureGrid, size: int = _BLOCK):
    """Yield (params, weights) of the grid nodes in row-major order, ``size``
    nodes at a time; each weight is the product of its factor weights."""
    shape = tuple(len(n) for n in grid.nodes)
    total = math.prod(shape)
    for start in range(0, total, size):
        idx = np.unravel_index(np.arange(start, min(start + size, total)), shape)
        params = np.stack([n[i] for n, i in zip(grid.nodes, idx)], axis=-1)
        weights = functools.reduce(np.multiply, [w[i] for w, i in zip(grid.weights, idx)])
        yield params, weights


def _stencil(h: float) -> np.ndarray:
    """Parameter offsets: 0, then +-h e_i, then +-h e_i +-h e_j for i < j."""
    e = h * np.eye(4)
    rows = [np.zeros(4)]
    for i in range(4):
        rows += [e[i], -e[i]]
    for i, j in zip(_ROWS, _COLS):
        rows += [e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]]
    return np.array(rows)


# step * _UNIT_STENCIL equals _stencil(step) bit for bit, signed zeros too
_UNIT_STENCIL = _stencil(1.0)


def _shape_operators(imm: Immersion, batch: np.ndarray, x0: np.ndarray, jacobian,
                     second) -> np.ndarray:
    """Shape operators (S, B, 4, 4) from chart derivatives at the (B, 4)
    parameter points ``batch``; axis S holds finite-difference steps.

    ``x0`` (S, B, 6) are the chart points, each checked to lie on the
    unit sphere. ``jacobian()`` gives J (S, B, 4, 6), whose rows are the
    partial derivatives; it is called after that check, so a chart image
    off the sphere (inf, say) is reported before any difference of it is
    taken. The metric g = J J^T must have eigenvalues (eigvalsh) with
    0 < lambda_min and lambda_max <= 1e8 lambda_min. The unit normal nu is
    the normalised largest-diagonal column of the projector onto the
    kernel of [x; J], oriented by the analytic ``normal`` if any, else by
    its largest component at the first step. ``second(nu)`` gives the
    projected second derivatives h_ij = <d_i d_j x, nu>, and the result
    is L^-1 h L^-T for g = L L^T, symmetrised.
    """
    radius = np.linalg.norm(x0[0], axis=-1)
    bad = np.flatnonzero(~(np.abs(radius - 1.0) <= 1e-10))
    if bad.size:
        b = bad[0]
        raise ValueError(f"chart image must lie on the unit sphere at params "
                         f"{batch[b].tolist()}, |x| = {float(radius[b])!r}")
    J = jacobian()
    g = J @ J.swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(g)
    bad = np.flatnonzero(~((lam[..., 0] > 0.0) & (lam[..., -1] <= 1e8 * lam[..., 0])))
    if bad.size:
        b, (lo, hi) = bad[0] % len(batch), lam.reshape(-1, 4)[bad[0], [0, -1]]
        raise ValueError(f"degenerate chart Jacobian at params {batch[b].tolist()} "
                         f"(metric condition number {hi / lo if lo > 0.0 else math.inf:.3e})")
    M = np.concatenate([x0[:, :, None], J], axis=2)
    P = np.eye(6) - M.swapaxes(-1, -2) @ np.linalg.solve(M @ M.swapaxes(-1, -2), M)
    k = np.argmax(np.diagonal(P, axis1=-2, axis2=-1), axis=-1)
    nu = np.take_along_axis(P, k[..., None, None], axis=-1)[..., 0]
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    # without an analytic normal, every step makes the component largest at
    # the first step positive: a per-step choice can flip one step where two tie
    ref = imm.normal(batch) if imm.normal is not None else np.eye(6)[np.argmax(abs(nu[0]), -1)]
    nu = np.where((np.einsum("sbd,bd->sb", nu, ref) < 0.0)[..., None], -nu, nu)
    Linv = np.linalg.inv(np.linalg.cholesky(g))
    A = Linv @ second(nu) @ Linv.swapaxes(-1, -2)
    return 0.5 * (A + A.swapaxes(-1, -2))


def _jet_second_fundamental_form(imm: Immersion, params: np.ndarray) -> np.ndarray:
    """Shape operators (N, 4, 4) at an (N, 4) batch of chart points from one
    chart call on `_Jet.seed`, whose exact derivatives go through
    `_shape_operators`. Raises `_JetUnsupported` for a chart that jets
    cannot run through.

    Each coordinate is first divided by the least power of two above the
    length of its partial derivative: a linear change of coordinates that
    leaves A as it is and rounds nothing. The metric gate then bounds the
    condition number of a metric with diagonal in [1/4, 1). That number,
    not the raw one, sets the error: near a pole of a product chart it
    stays below 4 and the spectra stay within 1.3e-15 of exact, while on
    rotated (non-orthogonal) charts the error grows with it, to 1.4e-8
    below the 1e8 bound, the size of the finite-difference floor. A
    vanishing derivative stays zero, so its metric stays rank-deficient
    and is rejected.
    """
    # without a chart, the finite-difference route raises the input error
    X = None if imm.chart is None else imm.chart(_Jet.seed(params))
    if not isinstance(X, _Jet):
        raise _JetUnsupported(f"{imm.label} has no chart that returns a jet")
    d = np.ldexp(1.0, np.frexp(np.linalg.norm(X.grad, axis=-2))[1])
    hess = X.hess / (d[:, None, :, None] * d[:, None, None, :])
    return _shape_operators(imm, params, X.val[None],
                            lambda: (X.grad / d[:, None, :]).swapaxes(-1, -2)[None],
                            lambda nu: np.einsum("bdij,bd->bij", hess, nu[0])[None])[0]


def numeric_second_fundamental_form(imm: Immersion, params, h: float = 1e-4,
                                    richardson: bool = True) -> np.ndarray:
    """Shape operator at chart points by central finite differences.

    ``params`` is one chart point of shape (4,), giving a (4, 4) result,
    or a batch of shape (N, 4), giving (N, 4, 4); a single point is a
    batch of one. Uses step ``h``, positive and finite, and, when
    ``richardson`` is set, one Richardson extrapolation level combining
    steps h and h/2; one chart call evaluates the stencils of both.

    Second differences of the chart are projected onto its unit normal:
    the largest-diagonal column, normalised, of the projector
    I - M^T (M M^T)^-1 M onto the kernel of M = [x; J], the chart point
    over the rows of the difference Jacobian. The analytic ``normal``,
    if any, only orients it; otherwise the component largest at step h
    is made positive at both steps. Each chart image must lie on the
    unit sphere (checked to 1e-10), and the metric g = J J^T must have
    eigenvalues (eigvalsh) with lambda_max <= 1e8 lambda_min: a rank-
    deficient chart Jacobian (e.g. a polar axis point) is an input error
    reporting the metric condition number lambda_max / lambda_min, inf
    when lambda_min <= 0. Both errors name the first failing point. The
    result is expressed in an orthonormal eigenframe-agnostic basis:
    compare spectra, not raw matrices. `integrate` uses it for charts
    that jets cannot run through.
    """
    if imm.chart is None:
        raise ValueError(f"{imm.label} is point-data only and has no chart")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != 4:
        raise ValueError(f"params must have shape (4,) or (N, 4), got {params.shape}")
    batch = params.reshape(-1, 4)
    steps = (h, 0.5 * h) if richardson else (h,)
    # axis 0 follows the steps, axis 2 the stencil rows
    x = imm.chart(np.stack([batch[:, None, :] + step * _UNIT_STENCIL for step in steps]))
    x0, plus, minus = x[:, :, 0], x[:, :, 1:9:2], x[:, :, 2:9:2]
    step = np.array(steps)[:, None, None, None]

    def second(nu):
        pp, pm, mp, mm = (x[:, :, 9 + s::4] for s in range(4))
        diag = (plus - 2.0 * x0[:, :, None] + minus) / (step * step)
        mixed = (pp - pm - mp + mm) / (4.0 * step * step)
        hij = np.empty(nu.shape[:-1] + (4, 4))
        hij[..., range(4), range(4)] = np.einsum("sbid,sbd->sbi", diag, nu)
        hij[..., _ROWS, _COLS] = hij[..., _COLS, _ROWS] = np.einsum("sbpd,sbd->sbp", mixed, nu)
        return hij

    A = _shape_operators(imm, batch, x0, lambda: (plus - minus) / (2.0 * step), second)
    A = (4.0 * A[1] - A[0]) / 3.0 if richardson else A[0]
    return A.reshape(params.shape[:-1] + (4, 4))


# Lower-case functional name or alias -> (name, integrand over an (N, 4, 4)
# float batch of shape operators at curvature c, normalization): `point`'s kernels.
_CGB = ("cgbEuler", lambda A, c: [_cgb(*row, c) for row in _power_rows(_quartic_powers(A))],
        32.0 * math.pi ** 2)
_WEYL = ("weylFunctional", lambda A, c: [_w_sq(*row) for row in _power_rows(_quartic_powers(A))],
         1.0)
_FUNCTIONALS = {
    "cgbeuler": _CGB, "cgb": _CGB, "euler": _CGB,
    "weylfunctional": _WEYL, "weyl": _WEYL,
    "signature": ("signature", lambda A, c: _signatures(A), 48.0 * math.pi ** 2),
    "volume": ("volume", lambda A, c: np.ones(len(A)), 1.0),
}


def _dump_rows(path: str, grid: QuadratureGrid, values):
    """Write one CSV row per node; ``values`` is one integrand value per
    node, or a single value shared by all nodes."""
    values = iter(values) if np.ndim(values) else itertools.repeat(values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(grid.names) + ["integrand", "weight"])
        for params, weights in _node_blocks(grid):
            for row, value, weight in zip(params, values, weights):
                writer.writerow([repr(float(v)) for v in row]
                                + [repr(float(value)), repr(float(weight))])


def integrate(imm: Immersion, functional: str, res: int = 64,
              grid: QuadratureGrid | None = None, dump: str | None = None) -> float:
    """Integrate a curvature functional over a product-chart geometry.

    Functionals: "cgbEuler" (normalized by 32 pi^2; equals the Euler
    characteristic on closed geometries), "weylFunctional" (the plain
    integral of |W|^2), "signature" (normalized by 48 pi^2; equals the
    Hirzebruch signature), "volume". Short aliases cgb/weyl are accepted.

    Catalog geometries have constant curvature data over the chart, so
    the integrand is evaluated once and the quadrature carries the volume
    factor. Charts without an analytic spectrum are evaluated at the
    nodes, in row-major order with the product of their factor weights,
    in blocks of 128 with a single chart call per block: on second-order
    jets, which give exact derivatives, or, for a chart that uses an
    operation jets do not carry, through the finite-difference
    extractor `numeric_second_fundamental_form`. The integrand then runs
    on the block's shape operators with the batched kernels of `point`,
    after PointState's entry cap (the extracted A are symmetric) and one c
    and S warning per block. A non-closed custom chart yields a local patch
    value only, with a warning: it is not a topological invariant there.
    """
    try:
        functional, integrand, norm = _FUNCTIONALS[functional.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown functional {functional!r}") from None
    if grid is None:
        grid = build_grid(imm, res)
    if not imm.closed and functional in ("cgbEuler", "signature"):
        warnings.warn(f"{imm.label} is not closed: {functional} over the chart is a "
                      "local patch value only, not a topological invariant", stacklevel=2)
    c = float(imm.c)
    if imm.spectrum is not None:
        value = float(np.divide(integrand(imm.point().A[None], c), norm)[0])
        if dump is not None:
            _dump_rows(dump, grid, value)
        return value * grid.total_weight
    _require_entries("c", np.array([c]))
    values, weights = [], []
    extract = _jet_second_fundamental_form
    for params, block_weights in _node_blocks(grid):
        try:
            A = extract(imm, params)
        except _JetUnsupported:
            extract = numeric_second_fundamental_form
            A = extract(imm, params)
        _require_entries("A", A)
        _warn_unusual(c, float((A * A).sum(axis=(1, 2)).max()))
        values.append(np.divide(integrand(A, c), norm))
        weights.append(block_weights)
    values = np.concatenate(values)
    if dump is not None:
        _dump_rows(dump, grid, values)
    return float(np.sum(values * np.concatenate(weights)))
