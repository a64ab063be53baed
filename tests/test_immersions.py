"""Tests for catalog immersions, quadrature and shape-operator extraction."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import extrinsic, immersions

PI = math.pi
SQRT3 = math.sqrt(3.0)


# ----------------------------------------------------------------- catalog


def test_catalog_point_spectra():
    st = immersions.catalog_point("clifford:4:2")
    np.testing.assert_allclose(np.sort(st.lam), [-1, -1, 1, 1], atol=1e-14)
    assert st.parallel
    st = immersions.catalog_point("clifford:4:1")
    np.testing.assert_allclose(np.sort(st.lam)[::-1],
                               [SQRT3, -1 / SQRT3, -1 / SQRT3, -1 / SQRT3], atol=1e-12)
    st = immersions.catalog_point("geodesic:4")
    np.testing.assert_allclose(st.lam, 0.0, atol=0)
    assert st.parallel


def test_catalog_point_m4():
    # the four principal curvatures cot(pi/8 + j pi/4): paired opposites,
    # S = 12 and H = 0, but the second fundamental form is not parallel
    st = immersions.catalog_point("m4")
    expect = sorted([1 + math.sqrt(2), math.sqrt(2) - 1,
                     1 - math.sqrt(2), -1 - math.sqrt(2)], reverse=True)
    np.testing.assert_allclose(st.lam, expect, rtol=1e-12)
    assert st.H == pytest.approx(0.0, abs=1e-12)
    assert st.S == pytest.approx(12.0, rel=1e-12)
    assert not st.parallel


def test_clifford_mirror_symmetry():
    # k and n-k give the same geometry with the normal flipped
    a = immersions.catalog_point("clifford:4:1").lam
    b = immersions.catalog_point("clifford:4:3").lam
    np.testing.assert_allclose(np.sort(a), np.sort(-b), atol=1e-12)


def test_get_immersion_errors():
    with pytest.raises(ValueError):
        immersions.get_immersion("torus:7")
    with pytest.raises(ValueError):
        immersions.get_immersion("clifford:4:0")
    with pytest.raises(ValueError, match="point-data only"):
        immersions.get_immersion("m4")   # point data only, no chart
    for parse in (immersions.get_immersion, immersions.catalog_point):
        with pytest.raises(ValueError, match=r"^unknown geometry 'nope'$"):
            parse("nope")
        with pytest.raises(ValueError, match=r"must be 'clifford:n:k'"):
            parse("clifford:4")
        # a geodesic label takes at most ':n', the m4 labels no field
        for label in ("geodesic:4:5", "s4:4:1", "m4:junk", "m4:4", "isoparametric:", "M4Point:1"):
            with pytest.raises(ValueError, match=f"^unknown geometry {label!r}$"):
                parse(label)


def test_catalog_point_and_get_immersion_share_aliases():
    # one label parser: every alias names the same geometry in both
    for label in ("geodesic", "s4", "S4:4", "totallyGeodesicSphere", "Clifford:4:2"):
        np.testing.assert_array_equal(immersions.catalog_point(label).lam,
                                      immersions.get_immersion(label).point().lam)
    for label in ("m4", "m4point", "isoparametric", "isoparametricM4Point"):
        np.testing.assert_array_equal(immersions.catalog_point(label).lam,
                                      immersions.catalog_point("m4").lam)
        with pytest.raises(ValueError, match="point-data only"):
            immersions.get_immersion(label)
    # catalog spectra exist in any dimension, charts only for n = 4
    assert immersions.catalog_point("clifford:5:2").n == 5
    assert immersions.catalog_point("geodesic:6").n == 6
    with pytest.raises(ValueError, match=r"^clifford charts support n = 4 only, got n = 5$"):
        immersions.get_immersion("clifford:5:2")
    with pytest.raises(ValueError, match=r"^geodesic charts support n = 4 only, got n = 6$"):
        immersions.get_immersion("geodesic:6")


def test_catalog_volumes():
    assert immersions.get_immersion("clifford:4:1").volume == pytest.approx(
        3 * SQRT3 / 4 * PI**3, rel=1e-14)
    assert immersions.get_immersion("clifford:4:2").volume == pytest.approx(
        4 * PI**2, rel=1e-14)
    assert immersions.get_immersion("geodesic:4").volume == pytest.approx(
        8 * PI**2 / 3, rel=1e-14)


def test_charts_land_on_unit_sphere():
    rng = np.random.default_rng(61)
    for label in ("clifford:4:1", "clifford:4:2", "clifford:4:3", "geodesic:4"):
        imm = immersions.get_immersion(label)
        for _ in range(5):
            params = np.array([rng.uniform(0.3, 2.8) for _ in imm.factors])
            x = imm.chart(params)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            nu = imm.normal(params)
            assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
            # the normal is tangent to the sphere and normal to the chart
            assert np.dot(x, nu) == pytest.approx(0.0, abs=1e-12)


def test_charts_and_normals_broadcast_over_leading_axes():
    rng = np.random.default_rng(64)
    for label in ("clifford:4:1", "clifford:4:2", "clifford:4:3", "geodesic:4"):
        imm = immersions.get_immersion(label)
        params = rng.uniform(0.3, 2.8, size=(6, 4))
        points, normals = imm.chart(params), imm.normal(params)
        assert points.shape == normals.shape == (6, 6)
        for p, x, nu in zip(params, points, normals):
            assert imm.chart(p).shape == imm.normal(p).shape == (6,)
            np.testing.assert_array_equal(imm.chart(p), x)
            np.testing.assert_array_equal(imm.normal(p), nu)


# -------------------------------------------------------------- quadrature


def test_quadrature_volumes_match_closed_forms():
    for label in ("clifford:4:1", "clifford:4:2", "geodesic:4"):
        imm = immersions.get_immersion(label)
        v = immersions.integrate(imm, "volume", res=24)
        assert v == pytest.approx(imm.volume, rel=1e-12), label


def test_quadrature_grid_structure():
    imm = immersions.get_immersion("clifford:4:2")
    grid = immersions.build_grid(imm, 8)
    assert len(grid.nodes) == 4 and len(grid.weights) == 4
    assert all(len(n) == 8 for n in grid.nodes)
    assert grid.total_weight == pytest.approx(imm.volume, rel=1e-12)
    total = 1.0
    for weights in grid.weights:  # the factor sums, multiplied left to right
        total *= float(weights.sum())
    assert grid.total_weight == total
    with pytest.raises(ValueError):
        immersions.build_grid(imm, 1)
    with pytest.raises(ValueError, match="^clifford:4:2 has no quadrature factors$"):
        immersions.build_grid(dataclasses.replace(imm, factors=()), 8)
    with pytest.raises(ValueError, match="^unknown factor kind 'radial'$"):
        immersions.Factor("r", "radial").nodes_weights(8)


def test_polar_factors_share_one_read_only_legendre_rule():
    rule = immersions._legendre(8)
    assert immersions._legendre(8) is rule
    x, w = rule
    assert not x.flags.writeable and not w.flags.writeable
    expect = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(x, expect[0]) and np.array_equal(w, expect[1])
    # the factor's own arrays are fresh and writable
    nodes, weights = immersions.Factor("theta", "polar", power=2).nodes_weights(8)
    assert nodes.flags.writeable and weights.flags.writeable


def test_euler_characteristics():
    assert immersions.integrate(immersions.get_immersion("clifford:4:1"),
                                "cgbEuler", res=16) == pytest.approx(0.0, abs=1e-10)
    assert immersions.integrate(immersions.get_immersion("clifford:4:2"),
                                "cgbEuler", res=16) == pytest.approx(4.0, rel=1e-10)
    assert immersions.integrate(immersions.get_immersion("geodesic:4"),
                                "cgbEuler", res=16) == pytest.approx(2.0, rel=1e-10)


def test_signatures_vanish():
    for label in ("clifford:4:1", "clifford:4:2", "geodesic:4"):
        imm = immersions.get_immersion(label)
        assert immersions.integrate(imm, "signature", res=16) == pytest.approx(
            0.0, abs=1e-10)


def test_weyl_functional_clifford_22():
    imm = immersions.get_immersion("clifford:4:2")
    v = immersions.integrate(imm, "weylFunctional", res=16)
    assert v == pytest.approx(64.0 / 3.0 * PI**2 * 4, rel=1e-12)


def test_functional_aliases_and_errors():
    imm = immersions.get_immersion("clifford:4:2")
    assert immersions.integrate(imm, "cgb", res=8) == pytest.approx(
        immersions.integrate(imm, "cgbEuler", res=8))
    assert immersions.integrate(imm, "weyl", res=8) == pytest.approx(
        immersions.integrate(imm, "weylFunctional", res=8))
    with pytest.raises(ValueError):
        immersions.integrate(imm, "entropy", res=8)


def test_dump_csv_columns(tmp_path):
    imm = immersions.get_immersion("clifford:4:1")
    path = tmp_path / "nodes.csv"
    immersions.integrate(imm, "cgb", res=3, dump=path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == [f.name for f in imm.factors] + ["integrand", "weight"]
    assert len(body) == 3 ** 4
    # row weights reproduce the grid total exactly (the grid itself only
    # approximates the volume at this resolution)
    grid = immersions.build_grid(imm, 3)
    total = sum(float(r[-1]) for r in body)
    assert total == pytest.approx(grid.total_weight, rel=1e-12)
    # constant integrand on a catalog geometry
    vals = {r[-2] for r in body}
    assert len(vals) == 1


# -------------------------------------------- finite-difference extraction


def test_numeric_second_fundamental_form_matches_spectra():
    rng = np.random.default_rng(62)
    for label in ("clifford:4:1", "clifford:4:2", "geodesic:4"):
        imm = immersions.get_immersion(label)
        exact = np.sort(np.asarray(imm.spectrum, dtype=float))[::-1]
        for _ in range(2):
            params = np.array([
                rng.uniform(0.5, 5.5) if f.kind == "periodic" else rng.uniform(0.6, PI - 0.6)
                for f in imm.factors])
            A = immersions.numeric_second_fundamental_form(imm, params)
            lam = np.sort(np.linalg.eigvalsh(A))[::-1]
            np.testing.assert_allclose(lam, exact, atol=5e-7)


def test_batched_extraction_matches_single_points():
    # integrate() extracts shape operators a block of nodes at a time
    rng = np.random.default_rng(65)
    for label in ("clifford:4:1", "clifford:4:2", "geodesic:4"):
        imm = immersions.get_immersion(label)
        params = np.column_stack([
            rng.uniform(0.5, 5.5, 20) if f.kind == "periodic" else rng.uniform(0.6, PI - 0.6, 20)
            for f in imm.factors])
        batch = immersions.numeric_second_fundamental_form(imm, params)
        assert batch.shape == (20, 4, 4)
        single = np.array([immersions.numeric_second_fundamental_form(imm, p) for p in params])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)


# Shape operators at fixed interior nodes, as computed when the extractor
# read the unit normal from an SVD of [x; J] and the condition number from
# np.linalg.cond. The geodesic sphere's chart has a vanishing sixth
# coordinate, so its second differences are tangent and A is exactly 0.
_PINNED_NODES = {
    "clifford:4:1": (
        [[0.7, 0.9, 1.3, 2.1], [2.5, 1.7, 0.8, 4.4], [5.1, 2.3, 2.0, 0.4]],
        [[[1.732050908220556, 0.0, 0.0, 0.0],
          [0.0, -0.5773503482347316, -3.836651268036217e-09, 2.6971841479330515e-09],
          [0.0, -3.836651268036217e-09, -0.5773503980786427, 4.485022700150146e-09],
          [0.0, 2.6971841479330515e-09, 4.485022700150146e-09, -0.577350387978328]],
         [[1.7320507962528338, 0.0, 0.0, 0.0],
          [0.0, -0.5773501878641157, 4.267065632522108e-09, 5.518325539460816e-09],
          [0.0, 4.267065632522108e-09, -0.5773501821521639, -4.273855259582705e-09],
          [0.0, 5.518325539460816e-09, -4.273855259582705e-09, -0.57735027747163]],
         [[1.7320508655845128, 0.0, 0.0, 0.0],
          [0.0, -0.5773502637189336, 2.3583567080342567e-10, 1.3933378952103767e-09],
          [0.0, 2.3583567080342567e-10, -0.5773502022096731, -5.520555914114843e-09],
          [0.0, 1.3933378952103767e-09, -5.520555914114843e-09, -0.5773502507788315]]],
    ),
    "clifford:4:2": (
        [[0.9, 1.3, 1.1, 2.0], [1.7, 4.2, 2.4, 0.6], [2.6, 5.5, 0.7, 3.3]],
        [[[1.000000003357941, 3.949362499282194e-09, 0.0, 0.0],
          [3.949362499282194e-09, 1.0000000234878843, 0.0, 0.0],
          [0.0, 0.0, -1.0000000273952214, 1.9665338530482715e-08],
          [0.0, 0.0, 1.9665338530482715e-08, -1.000000088341986]],
         [[0.9999998610016275, 3.962302596042229e-09, 0.0, 0.0],
          [3.962302596042229e-09, 1.0000000158213098, 0.0, 0.0],
          [0.0, 0.0, -0.9999999488910332, 9.855362123292444e-09],
          [0.0, 0.0, 9.855362123292444e-09, -1.0000000475642477]],
         [[1.0000000731670535, -9.912187592142653e-09, 0.0, 0.0],
          [-9.912187592142653e-09, 1.0000000026702278, 0.0, 0.0],
          [0.0, 0.0, -1.0000001241814382, 2.7391067126149058e-09],
          [0.0, 0.0, 2.7391067126149058e-09, -1.0000001503790898]]],
    ),
    "geodesic:4": (
        [[0.8, 1.4, 2.2, 1.1], [1.9, 0.7, 1.2, 3.9], [2.4, 2.6, 0.9, 5.8]],
        np.zeros((3, 4, 4)),
    ),
}
# sin(1e-3)^2 scales one metric entry: condition number ~1e6
_NEAR_POLE_A = [[0.9999999809495845, -8.014057364435025e-11, 0.0, 0.0],
                [-8.014057364435025e-11, 0.9999999005535711, 0.0, 0.0],
                [0.0, 0.0, -1.0000000273952219, 1.9665338623914086e-08],
                [0.0, 0.0, 1.9665338623914086e-08, -1.0000000883419862]]


@pytest.mark.parametrize("label", sorted(_PINNED_NODES))
def test_extraction_pinned_to_svd_normal_values(label):
    nodes, expect = _PINNED_NODES[label]
    A = immersions.numeric_second_fundamental_form(immersions.get_immersion(label), nodes)
    np.testing.assert_allclose(A, expect, rtol=0, atol=1e-12)


def test_extraction_pinned_near_a_pole():
    imm = immersions.get_immersion("clifford:4:2")
    A = immersions.numeric_second_fundamental_form(imm, [1e-3, 1.3, 1.1, 2.0])
    np.testing.assert_allclose(A, _NEAR_POLE_A, rtol=0, atol=1e-9)


def test_extraction_of_an_empty_batch():
    imm = immersions.get_immersion("clifford:4:2")
    assert immersions.numeric_second_fundamental_form(imm, np.zeros((0, 4))).shape == (0, 4, 4)


def test_extraction_makes_one_chart_call():
    # both Richardson steps share one stacked stencil
    imm = immersions.get_immersion("clifford:4:2")
    calls = []
    counted = dataclasses.replace(imm, chart=lambda p: calls.append(p.shape) or imm.chart(p))
    immersions.numeric_second_fundamental_form(counted, np.full((5, 4), 1.2))
    assert len(calls) == 1


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
def test_extraction_rejects_a_bad_step(h):
    imm = immersions.get_immersion("clifford:4:2")
    calls = []
    counted = dataclasses.replace(imm, chart=lambda p: calls.append(p) or imm.chart(p))
    with pytest.raises(ValueError, match=r"^h must be positive and finite, got "):
        immersions.numeric_second_fundamental_form(counted, [0.9, 1.3, 1.1, 2.0], h=h)
    assert not calls


def test_chart_without_analytic_normal_agrees_up_to_sign():
    imm = dataclasses.replace(immersions.get_immersion("clifford:4:2"), spectrum=None)
    bare = dataclasses.replace(imm, normal=None)
    rng = np.random.default_rng(67)
    params = np.column_stack([rng.uniform(0.6, PI - 0.6, 40), rng.uniform(0.5, 5.5, 40),
                              rng.uniform(0.6, PI - 0.6, 40), rng.uniform(0.5, 5.5, 40)])
    oriented = immersions.numeric_second_fundamental_form(imm, params)
    unoriented = immersions.numeric_second_fundamental_form(bare, params)
    sign = np.sign(np.einsum("bij,bij->b", oriented, unoriented))
    np.testing.assert_array_equal(np.abs(sign), 1.0)
    np.testing.assert_allclose(unoriented, sign[:, None, None] * oriented, rtol=0, atol=1e-12)
    # the res-3 grid has nodes where two normal components tie in size;
    # orienting the two Richardson steps separately gave chi = 4.43 there
    assert immersions.integrate(bare, "cgbEuler", res=3) == pytest.approx(
        immersions.integrate(imm, "cgbEuler", res=3), rel=0, abs=1e-12)


def test_chart_without_normal_in_tiny_parameter_units_keeps_its_orientation():
    # parameters in units of 1e-100 make the Jacobian rows about 1e100, where
    # det[x; J; nu] would overflow (an error under the RuntimeWarning filter);
    # the finite-difference route at h = 1e-104 orients nu by the sign of
    # slogdet, as at unit scale: a flip would turn <A, A_unit> ~ 4 into ~ -4
    imm = dataclasses.replace(immersions.get_immersion("clifford:4:2"), normal=None)
    tiny = dataclasses.replace(imm, chart=lambda p: imm.chart(np.asarray(p) * 1e100))
    rng = np.random.default_rng(68)
    params = np.column_stack([rng.uniform(0.6, PI - 0.6, 20), rng.uniform(0.5, 5.5, 20),
                              rng.uniform(0.6, PI - 0.6, 20), rng.uniform(0.5, 5.5, 20)])
    unit = immersions.numeric_second_fundamental_form(imm, params)
    scaled = immersions.numeric_second_fundamental_form(tiny, params * 1e-100, h=1e-104)
    assert (np.einsum("bij,bij->b", scaled, unit) > 2.0).all()


def test_extraction_checks_name_the_failing_node():
    imm = immersions.get_immersion("clifford:4:2")
    params = np.array([[0.9, 1.3, 1.1, 2.0], [0.8, 1.2, 1.0, 1.9]])
    off_sphere = dataclasses.replace(imm, chart=lambda p: 1.001 * imm.chart(p))
    with pytest.raises(ValueError, match=r"unit sphere at params \[0\.9, 1\.3, 1\.1, 2\.0\]"):
        immersions.numeric_second_fundamental_form(off_sphere, params)
    with pytest.raises(ValueError, match=r"params must have shape"):
        immersions.numeric_second_fundamental_form(imm, params[:, :3])


def test_grid_through_polar_axis_raises_degenerate_jacobian():
    # phi1 = 0 is the pole of the first S^2 factor: d/dtheta1 vanishes there,
    # and both extractors name the first grid node on it
    imm = dataclasses.replace(immersions.get_immersion("clifford:4:2"), spectrum=None)
    grid = immersions.build_grid(imm, 3)
    polar = dataclasses.replace(grid, nodes=(np.array([0.0, 1.0, 2.0]),) + grid.nodes[1:])
    (params, _), = immersions._node_blocks(polar)
    for extract in (immersions._jet_second_fundamental_form,
                    immersions.numeric_second_fundamental_form):
        with pytest.raises(ValueError, match=r"degenerate chart Jacobian at params \[0\.0, "
                                             r"0\.0, .*metric condition number"):
            extract(imm, params)


def _eigvalsh_gate(J, batch):
    """The metric gate as eigvalsh of every metric g = J J^T, a metric with a
    non-finite entry failing with condition number nan: the error of the
    first failing node in flat order, as "type: text", or None."""
    g = J @ J.swapaxes(-1, -2)
    finite = np.isfinite(g).all(axis=(-2, -1))
    lam = np.full(g.shape[:-1], math.nan)
    lam[finite] = np.linalg.eigvalsh(g[finite])
    bad = np.flatnonzero(~((lam[..., 0] > 0.0) & (lam[..., -1] <= 1e8 * lam[..., 0])))
    if not bad.size:
        return None
    b, (lo, hi) = bad[0] % len(batch), lam.reshape(-1, 4)[bad[0], [0, -1]].tolist()
    cond = math.nan if math.isnan(lo) else hi / lo if lo > 0.0 else math.inf
    return (f"ValueError: degenerate chart Jacobian at params {batch[b].tolist()} "
            f"(metric condition number {cond:.3e})")


def _shipped_gate(J, batch):
    """The error `_shape_operators` raises on Jacobians J (S, B, 4, 6) at
    x0 = e_6, as "type: text", or None when it returns."""
    imm = dataclasses.replace(immersions.get_immersion("clifford:4:2"), normal=None)
    x0 = np.broadcast_to(np.eye(6)[5], J.shape[:2] + (6,))
    try:
        immersions._shape_operators(imm, batch, x0, lambda: J,
                                    lambda nu: np.zeros(nu.shape[:-1] + (4, 4)))
    except (ValueError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _spy_metrics(monkeypatch):
    """The number of 4x4 matrices each later np.linalg.eigvalsh call gets
    (leggauss calls it on other shapes)."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        if np.shape(a)[-2:] == (4, 4):
            seen.append(np.size(a) // 16)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen


def _jacobians(rng, shape, lo, hi, rotated):
    """Jacobians (*shape, 4, 6) orthogonal to e_6 whose metrics have condition
    numbers log-uniform in [lo, hi] and scales log-uniform in [1e-180, 1e300]:
    down to where the squares of their entries underflow, and up past where
    det[x; J; nu] overflows (from about 1e154), which the slogdet sign that
    orients nu does not."""
    cond = np.exp(rng.uniform(math.log(lo), math.log(hi), shape))
    powers = np.concatenate([np.zeros(shape + (1,)), rng.uniform(0, 1, shape + (2,)),
                             np.ones(shape + (1,))], axis=-1)
    lam = cond[..., None] ** -powers
    J = np.zeros(shape + (4, 6))
    J[..., range(4), range(4)] = np.sqrt(lam) * 10.0 ** rng.uniform(-90, 150, shape)[..., None]
    if rotated:
        U = np.linalg.qr(rng.normal(size=shape + (4, 4)))[0]
        V = np.linalg.qr(rng.normal(size=shape + (5, 5)))[0]
        J[..., :5] = U @ J[..., :5] @ V
    return J


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("rotated", [False, True])
def test_metric_gate_decides_as_eigvalsh_of_every_metric(monkeypatch, steps, rotated):
    # the shipped gate sends eigvalsh only the metrics a Cholesky bound
    # cannot clear; each metric alone, then batches, must meet the same
    # verdict and error text as eigvalsh of every metric, in bands around
    # the bound's 1e7 and the gate's 1e8 too
    rng = np.random.default_rng(101 + 2 * steps + rotated)
    seen = _spy_metrics(monkeypatch)
    verdicts, sent = [], 0
    for lo, hi in [(1.0, 1e12), (5e6, 2e7), (5e7, 2e8)]:
        J = _jacobians(rng, (steps, 60), lo, hi, rotated)
        params = rng.uniform(0.0, PI, (60, 4))
        for b in range(60):
            expect = _eigvalsh_gate(J[:, b:b + 1], params[b:b + 1])
            before = sum(seen)
            assert _shipped_gate(J[:, b:b + 1], params[b:b + 1]) == expect
            sent += sum(seen) - before
            verdicts.append(expect is None)
        for start in range(0, 60, 6):
            assert (_shipped_gate(J[:, start:start + 6], params[start:start + 6])
                    == _eigvalsh_gate(J[:, start:start + 6], params[start:start + 6]))
    # both verdicts occur, and the bound clears some metrics but not all
    assert 0 < sum(verdicts) < len(verdicts)
    assert 0 < sent < len(verdicts) * steps


@pytest.mark.parametrize("steps", [1, 2])
def test_metric_gate_names_the_first_nan_or_singular_node(steps):
    # a singular metric makes Cholesky fail for its whole batch, and a NaN
    # metric gets a NaN factor: either way the gate judges the metric, a NaN
    # one as a degenerate node with condition number nan, and the error is
    # the one of the first failing node in flat order (steps first)
    rng = np.random.default_rng(107 + steps)
    params = rng.uniform(0.0, PI, (6, 4))
    J = _jacobians(rng, (steps, 6), 1.0, 1e3, True)
    nan = J.copy()
    nan[:, 2, 1, 3] = np.nan
    assert _shipped_gate(nan, params) == (
        f"ValueError: degenerate chart Jacobian at params {params[2].tolist()} "
        "(metric condition number nan)")
    failing = _jacobians(rng, (steps, 1), 1e10, 1e11, True)[:, 0]
    cases = [nan]
    for bad in (1, 4):
        # an ill-conditioned node before or after the NaN node
        case = nan.copy()
        case[:, bad] = failing
        cases.append(case)
    for singular, bad in [(1, 4), (4, 1)]:
        case = J.copy()
        case[:, singular, 2] = 0.0
        case[:, bad] = failing
        cases.append(case)
    if steps == 2:
        # the second step's failing node comes after the first step's singular one
        case = J.copy()
        case[0, 3, 2] = 0.0
        case[1, 0] = failing[1]
        cases.append(case)
    for case in cases:
        expect = _eigvalsh_gate(case, params)
        assert expect is not None
        assert _shipped_gate(case, params) == expect


@pytest.mark.parametrize("functional", ["cgbEuler", "weylFunctional", "signature", "volume"])
@pytest.mark.parametrize("label", ["clifford:4:1", "clifford:4:2", "clifford:4:3", "geodesic:4"])
def test_spectrum_free_res6_integrals(label, functional):
    # on the same grid, exact chart derivatives reproduce the analytic
    # spectrum's integral; finite differences missed it by up to 6.6e-8
    imm = immersions.get_immersion(label)
    analytic = immersions.integrate(imm, functional, res=6)
    free = immersions.integrate(dataclasses.replace(imm, spectrum=None), functional, res=6)
    assert abs(free - analytic) <= 1e-13 * (1.0 + abs(analytic))


def test_non_finite_block_is_rejected_like_a_point_state(monkeypatch):
    imm = dataclasses.replace(immersions.get_immersion("clifford:4:2"), spectrum=None)
    monkeypatch.setattr(immersions, "_jet_second_fundamental_form",
                        lambda imm, params: np.full((len(params), 4, 4), np.nan))
    with pytest.raises(ValueError, match=r"^A: entries must be finite"):
        immersions.integrate(imm, "cgbEuler", res=3)


def test_non_finite_block_is_rejected_on_the_fallback_route(monkeypatch):
    monkeypatch.setattr(immersions, "numeric_second_fundamental_form",
                        lambda imm, params: np.full((len(params), 4, 4), np.nan))
    with pytest.raises(ValueError, match=r"^A: entries must be finite"):
        immersions.integrate(_exp_chart(), "cgbEuler", res=3)


def test_per_node_fd_integration_agrees_with_constant_fold():
    # wiping the analytic spectrum forces the per-node extraction branch;
    # low resolution keeps the node count manageable
    imm = immersions.get_immersion("clifford:4:2")
    custom = dataclasses.replace(imm, spectrum=None)
    folded = immersions.integrate(imm, "cgbEuler", res=3)
    extracted = immersions.integrate(custom, "cgbEuler", res=3)
    assert extracted == pytest.approx(folded, abs=1e-6)


def test_non_closed_chart_warns_on_topological_functionals():
    imm = immersions.get_immersion("clifford:4:2")
    patch = dataclasses.replace(imm, closed=False)
    with pytest.warns(UserWarning, match="local patch"):
        immersions.integrate(patch, "cgbEuler", res=3)


def test_point_requires_spectrum():
    imm = immersions.get_immersion("clifford:4:2")
    broken = dataclasses.replace(imm, spectrum=None)
    with pytest.raises(ValueError):
        broken.point()
    # with neither a spectrum nor a chart there is nothing to integrate
    bare = dataclasses.replace(broken, chart=None)
    with pytest.raises(ValueError, match="^clifford:4:2 is point-data only and has no chart$"):
        immersions.integrate(bare, "volume", res=2)


def test_dump_on_the_finite_difference_path(tmp_path):
    imm = dataclasses.replace(immersions.get_immersion("clifford:4:2"), spectrum=None)
    path = tmp_path / "nodes.csv"
    value = immersions.integrate(imm, "cgbEuler", res=3, dump=str(path))
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    grid = immersions.build_grid(imm, 3)
    assert header == list(grid.names) + ["integrand", "weight"]
    assert len(rows) == math.prod(len(nodes) for nodes in grid.nodes)
    total = math.fsum(float(row[-2]) * float(row[-1]) for row in rows)
    assert total == pytest.approx(value, rel=1e-12)


# ------------------------------------------------------ exact jet derivatives


def _exp_chart():
    """clifford:4:2 without its spectrum, through np.exp, which jets do not
    carry; on floats the factor is exactly 1."""
    imm = immersions.get_immersion("clifford:4:2")
    return dataclasses.replace(imm, spectrum=None,
                               chart=lambda p: imm.chart(p) * np.exp(0.0 * p[..., :1]))


def _small_sphere(r):
    """The umbilic 4-sphere x = r u + sqrt(1 - r^2) e_6 of radius r, from the
    geodesic:4 chart, with neither spectrum nor normal: every principal
    curvature is sqrt(1 - r^2)/r, so H != 0, and the volume carries r^4."""
    imm = immersions.get_immersion("geodesic:4")
    lift = np.array([r, r, r, r, r, 0.0])
    pole = np.array([0.0, 0.0, 0.0, 0.0, 0.0, math.sqrt(1.0 - r * r)])
    first = dataclasses.replace(imm.factors[0], scale=imm.factors[0].scale * r ** 4)
    return dataclasses.replace(imm, chart=lambda p: imm.chart(p) * lift + pole, normal=None,
                               spectrum=None, factors=(first,) + imm.factors[1:])


def _rotated(imm, R):
    """The chart of ``imm`` in the rotated coordinates q = R p."""
    def chart(p):
        return imm.chart(np.stack([sum(R[i, j] * p[..., j] for j in range(4))
                                   for i in range(4)], axis=-1))
    return dataclasses.replace(imm, spectrum=None, chart=chart,
                               normal=lambda p: imm.normal(p @ R.T))


_coords = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(p=st.lists(_coords, min_size=4, max_size=4), a=st.lists(_coords, min_size=4, max_size=4),
       b=st.lists(_coords, min_size=4, max_size=4), alpha=_coords, beta=_coords)
def test_jet_rules_match_closed_form_derivatives(p, a, b, alpha, beta):
    p, a, b = np.array([p]), np.array(a), np.array(b)
    x = immersions._Jet.seed(p)
    u = sum(a[i] * x[..., i] for i in range(4)) + alpha
    v = sum(b[i] * x[..., i] for i in range(4)) - beta
    su, cu = np.sin(p @ a + alpha), np.cos(p @ a + alpha)
    sv, cv = np.sin(p @ b - beta), np.cos(p @ b - beta)
    aa, bb, ab = np.outer(a, a), np.outer(b, b), np.outer(a, b)
    # f = sin u cos v, g = cos u - v, h = -(u v)
    f = np.sin(u) * np.cos(v)
    g = np.cos(u) - v
    h = -(u * v)
    expect = {
        "f": (su * cv, (cu * cv)[:, None] * a - (su * sv)[:, None] * b,
              -(su * cv)[:, None, None] * (aa + bb) - (cu * sv)[:, None, None] * (ab + ab.T)),
        "g": (cu - (p @ b - beta), -su[:, None] * a - b, -cu[:, None, None] * aa),
        "h": (-(p @ a + alpha) * (p @ b - beta),
              -((p @ b - beta)[:, None] * a + (p @ a + alpha)[:, None] * b), -(ab + ab.T)[None]),
    }
    scale = 1.0 + (np.abs(a).sum() + np.abs(b).sum() + abs(alpha) + abs(beta) + 12.0) ** 2
    for name, jet in (("f", f), ("g", g), ("h", h)):
        for got, want in zip((jet.val, jet.grad, jet.hess), expect[name]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale, err_msg=name)
    # stack adds a value axis, concatenate extends one, both at the end
    stacked = np.stack([f, g], axis=-1)
    joined = np.concatenate([stacked, h[..., None]], axis=-1)
    assert joined.shape == (1, 3)
    for part in ("val", "grad", "hess"):
        for k, jet in enumerate((f, g, h)):
            np.testing.assert_array_equal(getattr(joined, part)[:, k], getattr(jet, part))


def _jet_parts_equal(a, b):
    return all(np.array_equal(getattr(a, part), getattr(b, part))
               for part in ("val", "grad", "hess"))


def test_cos_and_sin_of_one_jet_share_one_evaluation():
    x = immersions._Jet.seed(np.random.default_rng(79).uniform(-3.0, 3.0, (5, 4)))
    angles = x[..., 1:3]
    bent = np.sin(x) * x - 0.5

    def fresh(jet, flat=None):
        return immersions._Jet(jet.val.copy(), jet.grad.copy(), jet.hess.copy(),
                               jet.flat if flat is None else flat)

    for jet in (angles, bent):
        for first, second in ((np.cos, np.sin), (np.sin, np.cos)):
            shared = fresh(jet)
            got = first(shared), second(shared)
            assert shared.trig is not None
            for rule, result in zip((first, second), got):
                assert _jet_parts_equal(result, rule(fresh(jet)))
                # the seed's slices skip their zero Hessian to the same values
                assert _jet_parts_equal(result, rule(fresh(jet, flat=False)))
    assert angles.flat and not bent.flat
    # a slice, sum or product of a jet computes its own cos and sin
    np.cos(bent)
    for derived, val in ((bent[..., 0], bent.val[..., 0]), (bent + 1.0, bent.val + 1.0),
                         (bent * bent, bent.val * bent.val)):
        assert derived.trig is None
        np.testing.assert_array_equal(np.cos(derived).val, np.cos(val))
        np.testing.assert_array_equal(np.sin(derived).val, np.sin(val))


def test_jet_rejects_operations_it_does_not_carry():
    x = immersions._Jet.seed(np.ones((2, 4)))
    for op in (np.exp, np.sqrt, np.asarray, lambda j: j / 2.0, lambda j: np.sum(j)):
        with pytest.raises(immersions._JetUnsupported):
            op(x)
    assert issubclass(immersions._JetUnsupported, TypeError)


def test_catalog_jets_give_exact_spectra():
    rng = np.random.default_rng(71)
    for label in ("clifford:4:1", "clifford:4:2", "clifford:4:3", "geodesic:4"):
        imm = immersions.get_immersion(label)
        params = np.column_stack([
            rng.uniform(0.0, 2.0 * PI, 50) if f.kind == "periodic"
            else rng.uniform(0.01, PI - 0.01, 50) for f in imm.factors])
        A = immersions._jet_second_fundamental_form(imm, params)
        lam = np.sort(np.linalg.eigvalsh(A), axis=-1)
        np.testing.assert_allclose(lam, np.broadcast_to(np.sort(imm.spectrum), lam.shape),
                                   rtol=0, atol=1e-14)


def test_jet_path_makes_one_chart_call_per_block(monkeypatch):
    imm = immersions.get_immersion("clifford:4:2")
    calls = []
    counted = dataclasses.replace(imm, spectrum=None,
                                  chart=lambda p: calls.append(type(p)) or imm.chart(p))
    # 5^4 = 625 nodes: two blocks of 512, five of 128; the size is read per call
    for block in (immersions._BLOCK, 128):
        monkeypatch.setattr(immersions, "_BLOCK", block)
        calls.clear()
        immersions.integrate(counted, "cgbEuler", res=5)
        assert calls == [immersions._Jet] * -(-625 // block)


@pytest.mark.parametrize("label", ["clifford:4:1", "clifford:4:2", "clifford:4:3", "geodesic:4"])
def test_integrals_do_not_depend_on_the_block_size(monkeypatch, label):
    # each node's shape operator is computed on its own and the final sum
    # runs over the same arrays, so the bits cannot depend on the blocking;
    # at res 8 a sum taken block by block would already move the last bits
    imm = dataclasses.replace(immersions.get_immersion(label), spectrum=None)
    cases = [(imm, f, res) for f in ("cgbEuler", "weylFunctional", "signature", "volume")
             for res in (3, 5, 8)]
    if label == "clifford:4:2":
        # the finite-difference route; res 5 is 625 nodes, two blocks against five
        cases += [(_exp_chart(), "cgbEuler", res) for res in (3, 5)]

    def values():
        return [immersions.integrate(chart, f, res=res) for chart, f, res in cases]

    default = values()
    monkeypatch.setattr(immersions, "_BLOCK", 128)
    assert values() == default


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_small_sphere_integrals_do_not_depend_on_the_block_size(monkeypatch, r):
    # a chart with H != 0 and no analytic normal; res 8 is 4,096 nodes
    cases = [(f, res) for f in ("cgbEuler", "weylFunctional", "volume") for res in (3, 5, 8)]

    def values():
        return [immersions.integrate(_small_sphere(r), f, res=res) for f, res in cases]

    default = values()
    monkeypatch.setattr(immersions, "_BLOCK", 128)
    assert values() == default


def test_chart_without_jet_support_falls_back_to_finite_differences():
    # the value the finite-difference path gives for clifford:4:2 at res 6
    assert immersions.integrate(_exp_chart(), "cgbEuler", res=6) == 3.9999999899482654


def test_fallback_without_analytic_normal_orients_both_steps_alike():
    # the res-3 grid has nodes where two normal components tie in size;
    # orienting the two Richardson steps separately gave chi = 4.43 there
    chart = _exp_chart()
    bare = dataclasses.replace(chart, normal=None)
    assert immersions.integrate(bare, "cgbEuler", res=3) == pytest.approx(
        immersions.integrate(chart, "cgbEuler", res=3), rel=0, abs=1e-12)


@pytest.mark.parametrize("res", [12, 16])
@pytest.mark.parametrize("label, chi", [("clifford:4:1", 0), ("clifford:4:2", 4),
                                        ("clifford:4:3", 0), ("geodesic:4", 2)])
def test_spectrum_free_euler_characteristic_to_rounding(label, chi, res):
    imm = dataclasses.replace(immersions.get_immersion(label), spectrum=None)
    assert abs(immersions.integrate(imm, "cgbEuler", res=res) - chi) <= 1e-12



@pytest.mark.parametrize("chart, res", [(label, res) for label in ("clifford:4:1", "clifford:4:2",
                                                                   "clifford:4:3", "geodesic:4")
                                        for res in (6, 16)] + [("exp", 6)])
def test_spectrum_free_charts_send_no_metric_to_eigvalsh(monkeypatch, chart, res):
    # the Cholesky factor of the congruence clears every catalog metric, so
    # the metric gate runs no eigendecomposition
    imm = (_exp_chart() if chart == "exp"
           else dataclasses.replace(immersions.get_immersion(chart), spectrum=None))
    seen = _spy_metrics(monkeypatch)
    immersions.integrate(imm, "cgbEuler", res=res)
    assert sum(seen) == 0

@pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
def test_spectrum_free_small_sphere(r):
    # without an analytic normal, det[x; J; nu] > 0 orients the one normal
    # field of the connected chart: every node's four principal curvatures
    # are sqrt(1 - r^2)/r with one sign over the whole chart
    imm = _small_sphere(r)
    lam = math.sqrt(1.0 - r * r) / r
    spectra = np.concatenate([
        np.linalg.eigvalsh(immersions._jet_second_fundamental_form(imm, params))
        for params, _ in immersions._node_blocks(immersions.build_grid(imm, 12))])
    np.testing.assert_allclose(spectra, np.full(spectra.shape, np.sign(spectra[0, 0]) * lam),
                               rtol=0, atol=1e-13)
    for res in (12, 16):
        assert abs(immersions.integrate(imm, "cgbEuler", res=res) - 2.0) <= 1e-12
    assert abs(immersions.integrate(imm, "weylFunctional", res=12)) <= 1e-11


@pytest.mark.parametrize("res", [10, 14])
def test_spectrum_free_geodesic_sphere_near_its_poles(res):
    # corner nodes have raw metric condition 2e8..5e10 at res 10..16,
    # which the finite-difference gate of 1e8 rejects; res 12 and 16
    # are checked against chi above
    imm = immersions.get_immersion("geodesic:4")
    analytic = immersions.integrate(imm, "cgbEuler", res=res)
    free = immersions.integrate(dataclasses.replace(imm, spectrum=None), "cgbEuler", res=res)
    assert abs(free - analytic) <= 1e-13 * (1.0 + abs(analytic))


def test_jet_gate_bounds_the_rescaled_metric_condition():
    imm = immersions.get_immersion("clifford:4:2")
    node = np.array([1e-6, 1.3, 1.1, 2.0])
    # a product chart 1e-6 from a pole: raw condition ~1e12, rescaled 1
    A = immersions._jet_second_fundamental_form(imm, node[None])
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(A[0])), np.sort(imm.spectrum),
                               rtol=0, atol=1e-14)
    # rotated coordinates mix the short direction into the others, and
    # there eigenvalue errors grow with the condition number
    R = np.linalg.qr(np.random.default_rng(73).normal(size=(4, 4)))[0]
    with pytest.raises(ValueError, match=r"degenerate chart Jacobian .*metric condition number"):
        immersions._jet_second_fundamental_form(_rotated(imm, R), (R.T @ node)[None])


def test_jet_route_names_a_nan_node():
    imm = immersions.get_immersion("clifford:4:2")
    with pytest.raises(ValueError, match=r"unit sphere at params \[nan, 1\.3, 1\.1, 2\.0\]"):
        immersions._jet_second_fundamental_form(imm, np.array([[0.9, 1.3, 1.1, 2.0],
                                                               [np.nan, 1.3, 1.1, 2.0]]))
