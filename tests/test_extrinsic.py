"""Tests for Gauss-equation curvature, Weyl data, Bach and Bochner residuals."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from hypercurv import extrinsic, lambda2
from hypercurv.lambda2 import _kn_raw

RTOL = 1e-10
SQRT3 = math.sqrt(3.0)


def _rand_sym(rng, n=4, scale=1.0):
    M = rng.normal(size=(n, n)) * scale
    return 0.5 * (M + M.T)


def _state(lam, c=1.0, **kw):
    return extrinsic.PointState(lam=np.asarray(lam, dtype=float), c=c, **kw)


# ---------------------------------------------------------------- PointState


def test_point_state_validation():
    with pytest.raises(ValueError):
        extrinsic.PointState(A=None, lam=None)
    with pytest.raises(ValueError):
        extrinsic.PointState(A=np.eye(4), lam=[1, 1, 1, 1])
    with pytest.raises(ValueError):
        extrinsic.PointState(A=np.arange(16.0).reshape(4, 4))  # not symmetric
    with pytest.raises(ValueError):
        extrinsic.PointState(A=np.eye(2))  # n < 3
    st = _state([3, -1, -1, -1])
    assert st.H == pytest.approx(0.0)
    assert st.S == pytest.approx(12.0)
    assert st.minimal
    np.testing.assert_allclose(st.lam, [3, -1, -1, -1])


@pytest.mark.parametrize("parallel", ["false", "true", 0, 1, None, [True]])
def test_point_state_rejects_non_boolean_parallel(parallel):
    # bool("false") is True: a non-boolean must be an error, not a truth value
    with pytest.raises(ValueError, match="^parallel: expected true or false"):
        _state([1, 1, -1, -1], parallel=parallel)


def test_point_state_accepts_boolean_parallel():
    assert _state([1, 1, -1, -1], parallel=True).parallel is True
    assert _state([1, 1, -1, -1], parallel=False).parallel is False
    assert _state([1, 1, -1, -1], parallel=np.bool_(True)).parallel is True


@pytest.mark.parametrize("kwargs, field", [
    ({"lam": [math.nan, 1.0, 1.0, 1.0]}, "lambda"),
    ({"A": np.diag([1.0, 1.0, 1.0, math.inf])}, "A"),
    ({"lam": [1.0, 1.0, -1.0, -1.0], "c": math.nan}, "c"),
    ({"lam": [1.0, 2.0, 3.0, -6.0], "nablaA": [math.inf] + [0.0] * 19}, "nablaA"),
    ({"lam": [1.0, 2.0, 3.0, -6.0], "hessS": np.full((4, 4), -math.inf)}, "hessS"),
])
def test_point_state_rejects_non_finite(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field}: entries must be finite"):
        extrinsic.PointState(**kwargs)


def test_point_state_caps_the_entry_scale():
    # at the cap every degree-6 invariant is representable; above it the
    # state is rejected before anything overflows
    with pytest.warns(UserWarning, match="large"):
        st = extrinsic.PointState(lam=[1e50, 1e50, 1e50, -1e50])
    norms = extrinsic.closed_form_norms(st)
    assert np.isfinite([norms.S, norms.A2sq, norms.trA3, norms.trA5, norms.trA6, norms.Wsq,
                        norms.Wpmsq, norms.RicTFsq, extrinsic.cgb_integrand(st)]).all()
    with pytest.raises(ValueError, match="^lambda: entries must not exceed 1e\\+50"):
        extrinsic.PointState(lam=[1.0000001e50, 1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="^A: entries must not exceed"):
        extrinsic.PointState(A=np.full((4, 4), 1e60))


@pytest.mark.parametrize("field", ["A", "hessS"])
@pytest.mark.parametrize("factor, accepted", [(0.5, True), (1.5, False)])
def test_symmetry_threshold_is_the_skew_against_the_transpose(field, factor, accepted):
    # one off-diagonal pair factor * tol * (1 + max|X|) apart: the skew is
    # |X - X^T|, so 1.5 is rejected although |X - sym X| would be 0.75
    X = np.diag([2.0, 1.0, -1.0, -2.0])
    X[0, 1] = factor * extrinsic.EQUALITY_TOL * (1.0 + np.abs(X).max())
    kwargs = {"A": X} if field == "A" else {"lam": [1.0, 1.0, -1.0, -1.0], "hessS": X}
    if accepted:
        extrinsic.PointState(**kwargs)
    else:
        with pytest.raises(ValueError, match=f"^{field}: .*must be symmetric"):
            extrinsic.PointState(**kwargs)


def test_validation_passes_stay_few_across_many_dimensions(monkeypatch):
    # a clean item per dimension, then a failing one per dimension in
    # reverse order: a pass stops at the earliest failing item over all
    # dimensions, so the items before it pass at once and that item alone
    # raises; the number of passes does not grow with the dimensions
    passes = []
    real = extrinsic._pass
    monkeypatch.setattr(extrinsic, "_pass", lambda *args: passes.append(1) or real(*args))
    items = [{"lambda": [1.0] * n} for n in range(3, 43)]
    items += [{"lambda": [1e60] + [1.0] * (n - 1)} for n in reversed(range(3, 43))]
    with pytest.raises(ValueError, match="^lambda: entries must not exceed"):
        extrinsic._validate(items, extrinsic._json_args)
    assert len(passes) == 3


def test_point_state_warns_on_odd_c():
    with pytest.warns(UserWarning):
        _state([1, 0, 0, 0], c=2.5)


def test_point_state_warnings_point_at_the_caller():
    # a state is validated as a batch of one; its warnings still name the
    # line that built it, c's before S's
    with pytest.warns(UserWarning) as record:
        extrinsic.PointState(lam=[1e5, 0.0, 0.0, 0.0], c=2.5)
        extrinsic.PointState.from_dict({"lambda": [1e5, 0.0, 0.0, 0.0], "c": 2.5})
    assert [str(w.message)[:12] for w in record] == ["ambient curv", "S = 1.000e+1"] * 2
    assert {w.filename for w in record} == {__file__}


def test_nabla_validation_and_flat_round_trip():
    nabla = np.zeros((4, 4, 4))
    for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        nabla[p] = 1.0
    st = _state([1, 2, 3, -6], nablaA=nabla, hessS=np.zeros((4, 4)))
    flat = np.asarray(extrinsic._nabla_to_flat(st.nablaA))
    assert flat.shape == (20,)
    st2 = _state([1, 2, 3, -6], nablaA=flat, hessS=np.zeros((4, 4)))
    np.testing.assert_allclose(st2.nablaA, nabla)
    # not totally symmetric
    bad = np.zeros((4, 4, 4))
    bad[0, 1, 2] = 1.0
    with pytest.raises(ValueError):
        _state([1, 2, 3, -6], nablaA=bad)
    # violates the trace constraint sum_i (nabla A)_iik = 0
    diag = np.zeros((4, 4, 4))
    diag[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        _state([1, 2, 3, -6], nablaA=diag)


def test_from_dict_schema():
    st = extrinsic.PointState.from_dict(
        {"n": 4, "c": 1, "lambda": [1, 1, -1, -1], "parallel": True})
    assert st.parallel and st.n == 4
    with pytest.raises(ValueError, match="unknown field"):
        extrinsic.PointState.from_dict({"n": 4, "c": 1, "lambda": [0, 0, 0, 0], "x": 1})
    with pytest.raises(ValueError):
        extrinsic.PointState.from_dict({"n": 4, "c": 1})
    with pytest.raises(ValueError):
        extrinsic.PointState.from_dict({"n": 5, "c": 1, "lambda": [1, 1, -1, -1]})
    round_trip = extrinsic.PointState.from_dict(json.loads(st.to_json()))
    np.testing.assert_allclose(round_trip.lam, st.lam)
    assert round_trip.parallel


def test_lam_of_a_diagonal_state_is_its_sorted_diagonal_bitwise():
    # eigvalsh rescales tiny matrices and moves last bits; a diagonal state
    # reads its spectrum off the diagonal, as every classification does
    rng = np.random.default_rng(131)
    for scale in (1e-300, 1e-200, 1e-150, 1e-3, 1.0, 30.0):
        for n in (3, 4, 5, 6):
            for _ in range(25):
                lam = rng.normal(size=n) * scale
                expect = np.sort(lam)[::-1]
                for st in (extrinsic.PointState(lam=lam), extrinsic.PointState(A=np.diag(lam))):
                    assert st.lam.tobytes() == expect.tobytes(), (scale, lam)


# ---------------------------------------------------------- Gauss equations


def test_gauss_equations_round_sphere():
    # unit-speed sphere S^4(r) in flat R^5: A = (1/r) g, sectional 1/r^2
    r = 0.5
    st = _state([1 / r] * 4, c=0.0)
    pack = extrinsic.gauss_equations(st)
    g = np.eye(4)
    np.testing.assert_allclose(pack.ric, 3.0 / r**2 * g, rtol=RTOL)
    assert pack.scal == pytest.approx(12.0 / r**2, rel=RTOL)
    expect = (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)) / r**2
    np.testing.assert_allclose(pack.riem.components, expect, atol=1e-12)
    np.testing.assert_allclose(pack.ricTF, 0.0, atol=1e-12)


def test_gauss_equations_random_contraction_consistency():
    rng = np.random.default_rng(21)
    for n in (4, 5, 6):
        A = _rand_sym(rng, n)
        st = extrinsic.PointState(A=A, c=-1.0)
        pack = extrinsic.gauss_equations(st)
        riem = pack.riem.components if n == 4 else pack.riem
        ric = np.einsum("ikjk->ij", riem)
        np.testing.assert_allclose(ric, pack.ric, rtol=1e-12, atol=1e-12)
        assert np.trace(pack.ric) == pytest.approx(pack.scal, rel=1e-12)
        np.testing.assert_allclose(
            pack.ric, (n - 1) * (-1.0) * np.eye(n) + st.H * A - A @ A, atol=1e-11)
        assert pack.scal == pytest.approx(n * (n - 1) * (-1.0) + st.H**2 - st.S, rel=1e-12)


def test_ric_trace_free_is_c_independent():
    rng = np.random.default_rng(22)
    A = _rand_sym(rng)
    p0 = extrinsic.gauss_equations(extrinsic.PointState(A=A, c=0.0))
    p1 = extrinsic.gauss_equations(extrinsic.PointState(A=A, c=1.0))
    np.testing.assert_allclose(p0.ricTF, p1.ricTF, atol=0)


# ------------------------------------------------------------------- Weyl


def test_weyl_routes_agree():
    # closed form in (A, H, S) vs the Ricci decomposition of the Gauss
    # curvature tensor; both sides carry the ambient curvature dependence
    # only through terms that cancel
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = _rand_sym(rng, scale=2.0)
        st = extrinsic.PointState(A=A, c=1.0)
        pack = extrinsic.gauss_equations(st)
        g = np.eye(4)
        decomp = (pack.riem.components
                  - 0.5 * _kn_raw(pack.ricTF, g)
                  - pack.scal / 24.0 * _kn_raw(g, g))
        W = extrinsic.weyl_tensor(st).components
        np.testing.assert_allclose(W, decomp, atol=1e-11 * (1 + np.abs(W).max()))


def test_weyl_is_c_independent_bitwise():
    rng = np.random.default_rng(24)
    A = _rand_sym(rng)
    Wa = extrinsic.weyl_tensor(extrinsic.PointState(A=A, c=0.0)).components
    Wb = extrinsic.weyl_tensor(extrinsic.PointState(A=A, c=1.0)).components
    assert np.array_equal(Wa, Wb)


def test_weyl_fialkow_route_minimal():
    rng = np.random.default_rng(25)
    A = _rand_sym(rng)
    A -= np.trace(A) / 4.0 * np.eye(4)
    st = extrinsic.PointState(A=A, c=1.0)
    F = 0.5 * (A @ A - st.S / 6.0 * np.eye(4))
    route = 0.5 * _kn_raw(A, A) + 0.5 * (_kn_raw(F, np.eye(4)) + _kn_raw(np.eye(4), F))
    W = extrinsic.weyl_tensor(st).components
    np.testing.assert_allclose(route, W, atol=1e-12 * (1 + np.abs(W).max()))
    np.testing.assert_allclose(extrinsic.closed_form_norms(st).F, F, atol=1e-12)


def test_weyl_kernel_matches_symmetrized_reference_bitwise():
    # The kernel writes A o g where the definition has the symmetrized
    # 1/2 (A o g + g o A); in floats the two agree bit for bit.
    rng = np.random.default_rng(32)
    M = rng.normal(size=(200, 4, 4)) * 3.0
    A = M + M.transpose(0, 2, 1)
    A[::4, 2, :] = 0.0
    A[::4, :, 2] = 0.0
    g = np.eye(4)

    def sym(U, V):
        return (_kn_raw(U, V) + _kn_raw(V, U)) / 2

    H = np.trace(A, axis1=-2, axis2=-1)[:, None, None, None, None]
    S = np.einsum("...ij,...ij->...", A, A)[:, None, None, None, None]
    ref = _kn_raw(A, A) / 2
    ref = ref - H / 2 * sym(A, g)
    ref = ref + sym(A @ A, g) / 2
    ref = ref + (H * H - S) / 12 * _kn_raw(g, g)
    assert np.array_equal(extrinsic._weyl_raw(A).view(np.uint64), ref.view(np.uint64))


def test_batched_kernels_equal_per_state_calls(monkeypatch):
    # A small Weyl block makes the batch span several blocks.
    monkeypatch.setattr(extrinsic, "_WEYL_BLOCK", 7)
    rng = np.random.default_rng(33)
    states = [extrinsic.PointState(A=_rand_sym(rng, scale=2.0), c=float(k % 3 - 1))
              for k in range(30)]
    states += [_state([1, 1, -1, -1], parallel=True), _state([2, 2, 2, -1], c=0.0)]
    A = np.array([st.A for st in states])
    _, ric, scal, ric_tf = extrinsic._gauss(A, np.array([st.c for st in states]))
    rows = extrinsic._power_rows(extrinsic._trace_powers(A))
    signatures = extrinsic._signatures(A)
    for k, st in enumerate(states):
        pack = extrinsic.gauss_equations(st)
        assert np.array_equal(pack.ric, ric[k]) and np.array_equal(pack.ricTF, ric_tf[k])
        assert pack.scal == scal[k]
        norms = extrinsic.closed_form_norms(st)
        fields = extrinsic._norm_fields(rows[k], 4)
        assert fields == {key: getattr(norms, key) for key in fields}
        assert extrinsic.cgb_integrand(st) == extrinsic._cgb(*rows[k][:4], st.c)
        assert extrinsic.signature_integrand(st) == signatures[k]
    assert [row[:2] for row in rows] == [[st.H, st.S] for st in states]


def _trace_free_state(rng, **kw):
    A = _rand_sym(rng, scale=rng.uniform(0.1, 3.0))
    A -= np.trace(A) / 4.0 * np.eye(4)
    return extrinsic.PointState(A=A, c=float(rng.choice([-1.0, 0.0, 1.0])), **kw)


def test_derivative_kernel_rows_equal_lone_calls(monkeypatch):
    # The Bach and Bochner kernel on a stacked group gives each row the
    # bits of bach_tensor and bochner_residuals on that state alone: rows
    # with nablaA and hessS, with one of them, parallel rows (several Weyl
    # blocks of 3), non-minimal rows and rows without data.
    monkeypatch.setattr(extrinsic, "_WEYL_BLOCK", 3)
    rng = np.random.default_rng(35)
    states = [_trace_free_state(rng, nablaA=_trace_free_nabla(rng), hessS=_rand_sym(rng))
              for _ in range(8)]
    states += [_trace_free_state(rng, hessS=_rand_sym(rng)), _trace_free_state(rng),
               _trace_free_state(rng, nablaA=_trace_free_nabla(rng)),
               extrinsic.PointState(A=_rand_sym(rng), hessS=_rand_sym(rng)),
               _trace_free_state(rng, parallel=True, hessS=_rand_sym(rng))]
    states += [_state(lam, parallel=True) for lam in (
        [1, 1, -1, -1], [SQRT3, -1 / SQRT3, -1 / SQRT3, -1 / SQRT3], [0, 0, 0, 0],
        [-1, 1, 1, -1], [1, 0.5, -0.3, 0.9], [2, 2, 2, -1], [3, -1, -1, -1])]
    group = extrinsic._StateGroup(
        list(range(len(states))), np.array([st.A for st in states]),
        np.array([st.c for st in states]), np.array([st.minimal for st in states]),
        {k: st.nablaA for k, st in enumerate(states) if st.nablaA is not None},
        {k: st.hessS for k, st in enumerate(states) if st.hessS is not None},
        [st.parallel for st in states], [False] * len(states))
    B, records = extrinsic._derivative_kernel(group, extrinsic._trace_powers(group.A))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random data violates the Simons identity
        for k, st in enumerate(states):
            # repr tells -0.0 from 0.0 and prints every float exactly
            assert repr(records[k]) == repr(extrinsic.bochner_residuals(st)), k
            if records[k]["simons"] != "unavailable":
                assert np.array_equal(B[k].view(np.uint64),
                                      extrinsic.bach_tensor(st).view(np.uint64)), k
    available = [record["simons"] != "unavailable" for record in records]
    assert available == [True] * 8 + [False] * 4 + [True] * 5 + [False, False, True]


def test_weyl_split_norms_batch():
    rng = np.random.default_rng(34)
    M = rng.normal(size=(2, 3, 4, 4))
    A = M + np.swapaxes(M, -1, -2)
    wp, wm, ww = extrinsic.weyl_split_norms(A)
    assert wp.shape == wm.shape == ww.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        norms = extrinsic.closed_form_norms(extrinsic.PointState(A=A[idx]))
        assert wp[idx] == pytest.approx(norms.Wpmsq, rel=1e-9)
        assert wm[idx] == pytest.approx(norms.Wpmsq, rel=1e-9)
        assert ww[idx] == pytest.approx(norms.Wsq, rel=1e-9)
    assert extrinsic.weyl_split_norms(np.zeros((0, 4, 4)))[0].shape == (0,)


@pytest.mark.parametrize("A, match", [
    (np.zeros((3, 3)), "expected shape"),
    (np.zeros((2, 4, 5)), "expected shape"),
    (np.arange(16.0).reshape(1, 4, 4), "symmetric"),
    (np.full((2, 4, 4), math.nan), "finite"),
    (np.full((4, 4), 1e60), "must not exceed"),
    # the first failing operator raises its own error, not the batch's worst
    (np.stack([np.full((4, 4), 1e60), np.full((4, 4), math.nan)]), "must not exceed"),
    (np.stack([np.arange(16.0).reshape(4, 4), np.full((4, 4), 1e60)]),
     "^A: shape operator must be symmetric$"),
])
def test_weyl_split_norms_rejects_bad_input(A, match):
    with pytest.raises(ValueError, match=match):
        extrinsic.weyl_split_norms(A)


def test_weyl_tensor_trace_free():
    rng = np.random.default_rng(26)
    W = extrinsic.weyl_tensor(extrinsic.PointState(A=_rand_sym(rng), c=1.0))
    np.testing.assert_allclose(W.ricci_contraction(), 0.0, atol=1e-12)


def test_weyl_rejects_other_dimensions():
    with pytest.raises(ValueError):
        extrinsic.weyl_tensor(extrinsic.PointState(A=np.eye(5), c=1.0))


# ------------------------------------------------------------------- norms


def test_closed_form_norms_match_tensors():
    rng = np.random.default_rng(27)
    for _ in range(10):
        A = _rand_sym(rng, scale=3.0)
        st = extrinsic.PointState(A=A, c=0.0)
        norms = extrinsic.closed_form_norms(st)
        W = extrinsic.weyl_tensor(st)
        Wp, Wm = lambda2.sd_asd_split(W)
        scale = max(1.0, norms.Wsq)
        assert norms.Wsq == pytest.approx(lambda2.inner(W, W), abs=1e-10 * scale)
        assert norms.Wpmsq == pytest.approx(lambda2.inner(Wp, Wp), abs=1e-10 * scale)
        assert norms.Wpmsq == pytest.approx(lambda2.inner(Wm, Wm), abs=1e-10 * scale)
        assert norms.Wsq == pytest.approx(2.0 * norms.Wpmsq, rel=1e-12)
        pack = extrinsic.gauss_equations(st)
        assert norms.RicTFsq == pytest.approx(float(np.sum(pack.ricTF**2)), rel=1e-9)


def test_norms_golden_clifford_22():
    st = _state([1, 1, -1, -1])
    norms = extrinsic.closed_form_norms(st)
    assert norms.S == pytest.approx(4.0)
    assert norms.A2sq == pytest.approx(4.0)
    assert norms.trA3 == pytest.approx(0.0, abs=1e-14)
    assert norms.Wsq == pytest.approx(64.0 / 3.0, rel=1e-13)
    assert norms.Wpmsq == pytest.approx(32.0 / 3.0, rel=1e-13)
    assert norms.RicTFsq == pytest.approx(0.0, abs=1e-13)


def test_norms_golden_clifford_13():
    lam = [SQRT3, -1 / SQRT3, -1 / SQRT3, -1 / SQRT3]
    norms = extrinsic.closed_form_norms(_state(lam))
    assert norms.S == pytest.approx(4.0, rel=1e-12)
    assert norms.A2sq == pytest.approx(28.0 / 3.0, rel=1e-12)
    assert norms.trA3 == pytest.approx(8.0 * SQRT3 / 3.0, rel=1e-12)
    assert norms.trA5 == pytest.approx(80.0 * SQRT3 / 9.0, rel=1e-12)
    assert norms.Wsq == pytest.approx(0.0, abs=1e-12)


def test_general_dimension_minimal_weyl_norm():
    rng = np.random.default_rng(28)
    for n in (5, 6):
        A = _rand_sym(rng, n)
        A -= np.trace(A) / n * np.eye(n)
        st = extrinsic.PointState(A=A, c=0.0)
        norms = extrinsic.closed_form_norms(st)
        pack = extrinsic.gauss_equations(st)
        g = np.eye(n)
        W = (pack.riem
             - _kn_raw(pack.ricTF, g) / (n - 2)
             - pack.scal / (2 * n * (n - 1)) * _kn_raw(g, g))
        wsq = float(np.einsum("ijkl,ijkl->", W, W))
        assert norms.Wsq == pytest.approx(wsq, rel=1e-11)
        assert norms.Wpmsq is None and norms.F is None


def test_general_dimension_nonminimal_weyl_norm_unsupported():
    st = extrinsic.PointState(A=np.eye(5), c=0.0)
    with pytest.raises(ValueError):
        extrinsic.closed_form_norms(st)


# -------------------------------------------------- integrands (cgb, sign.)


def test_cgb_integrand_matches_intrinsic_combination():
    # |W|^2 - 2|Ric0|^2 + R^2/6 is the standard four-dimensional
    # Gauss-Bonnet integrand; the extrinsic polynomial must equal it for
    # every shape operator and ambient curvature
    rng = np.random.default_rng(29)
    for c in (-1.0, 0.0, 1.0):
        for _ in range(5):
            A = _rand_sym(rng, scale=2.0)
            st = extrinsic.PointState(A=A, c=c)
            pack = extrinsic.gauss_equations(st)
            W = extrinsic.weyl_tensor(st)
            rhs = (lambda2.inner(W, W) - 2.0 * float(np.sum(pack.ricTF**2))
                   + pack.scal**2 / 6.0)
            assert extrinsic.cgb_integrand(st) == pytest.approx(rhs, rel=1e-9, abs=1e-8)


def test_cgb_integrand_golden_values():
    assert extrinsic.cgb_integrand(_state([0, 0, 0, 0])) == pytest.approx(24.0)
    assert extrinsic.cgb_integrand(_state([1, 1, -1, -1])) == pytest.approx(32.0)
    lam = [SQRT3, -1 / SQRT3, -1 / SQRT3, -1 / SQRT3]
    assert extrinsic.cgb_integrand(_state(lam)) == pytest.approx(0.0, abs=1e-10)


def test_signature_integrand_vanishes():
    rng = np.random.default_rng(30)
    for _ in range(10):
        st = extrinsic.PointState(A=_rand_sym(rng, scale=3.0), c=1.0)
        wsq = extrinsic.closed_form_norms(st).Wsq
        assert extrinsic.signature_integrand(st) == pytest.approx(0.0, abs=1e-9 * (1 + wsq))


def test_signature_integrand_is_star_pairing():
    rng = np.random.default_rng(31)
    st = extrinsic.PointState(A=_rand_sym(rng), c=1.0)
    W = extrinsic.weyl_tensor(st)
    assert extrinsic.signature_integrand(st) == pytest.approx(
        lambda2.inner(W, lambda2.star_weyl(W)), abs=1e-10)


# -------------------------------------------------------------------- Bach


def test_bach_vanishes_at_clifford_points():
    for lam in ([1, 1, -1, -1], [SQRT3, -1 / SQRT3, -1 / SQRT3, -1 / SQRT3]):
        st = _state(lam, parallel=True)
        B = extrinsic.bach_tensor(st)
        assert np.abs(B).max() < 1e-12
        assert abs(np.trace(B)) < 1e-12


def test_bach_explicit_zero_derivatives_equal_parallel():
    lam = [1.0, 1.0, -1.0, -1.0]
    stz = _state(lam, nablaA=np.zeros((4, 4, 4)), hessS=np.zeros((4, 4)))
    stp = _state(lam, parallel=True)
    np.testing.assert_allclose(extrinsic.bach_tensor(stz), extrinsic.bach_tensor(stp), atol=0)


def test_bach_requires_derivative_data():
    st = _state([1, 1, -1, -1])
    with pytest.raises(ValueError):
        extrinsic.bach_tensor(st)


def test_bach_requires_minimal():
    st = _state([1, 1, 1, 1], parallel=True)
    with pytest.raises(ValueError):
        extrinsic.bach_tensor(st)


def test_bach_warns_on_inconsistent_derivatives():
    # data that cannot satisfy the Simons identity leaves a trace residue
    nabla = np.zeros((4, 4, 4))
    for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        nabla[p] = 1.0
    st = _state([1, 2, 3, -6], nablaA=nabla, hessS=np.zeros((4, 4)))
    with pytest.warns(UserWarning, match="trace"):
        extrinsic.bach_tensor(st)


# ----------------------------------------------------------- divergence dW


def test_div_weyl_sd_golden_components():
    # lam = (1, 2, 3, -6) with the symmetric gradient A_123 = 1: the only
    # surviving rows come from the pair table, and (1,1,4) picks up
    # -+ (lam_2 - lam_3)/4 = -+ 1/4 through its dual pair (2,3)
    nabla = np.zeros((4, 4, 4))
    for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        nabla[p] = 1.0
    st = _state([1, 2, 3, -6], nablaA=nabla, hessS=np.zeros((4, 4)))
    rows = {r["indices"]: r for r in extrinsic.div_weyl_sd(st)}
    assert rows[(1, 1, 4)]["plus"] == pytest.approx(-0.25)
    assert rows[(1, 1, 4)]["minus"] == pytest.approx(0.25)
    assert rows[(2, 1, 3)]["plus"] == pytest.approx(-0.5)
    assert rows[(2, 1, 3)]["minus"] == pytest.approx(-0.5)
    assert rows[(3, 1, 2)]["plus"] == pytest.approx(-0.25)
    assert rows[(3, 1, 2)]["minus"] == pytest.approx(-0.25)


def test_div_weyl_norms_equal_when_diagonal_gradient_vanishes():
    # with no diagonal gradient the principal curvatures are critical and
    # the SD and ASD divergence norms must agree
    nabla = np.zeros((4, 4, 4))
    for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        nabla[p] = 0.7
    for p in [(0, 1, 3), (0, 3, 1), (1, 0, 3), (1, 3, 0), (3, 0, 1), (3, 1, 0)]:
        nabla[p] = -0.3
    st = _state([1, 2, 3, -6], nablaA=nabla, hessS=np.zeros((4, 4)))
    np_, nm = extrinsic.div_weyl_sd_norms(st)
    assert np_ == pytest.approx(nm, rel=1e-12)


def test_div_weyl_requires_diagonal_A():
    rng = np.random.default_rng(32)
    A = _rand_sym(rng)
    A -= np.trace(A) / 4 * np.eye(4)
    st = extrinsic.PointState(A=A, c=1.0, parallel=True)
    with pytest.raises(ValueError):
        extrinsic.div_weyl_sd(st)


def test_div_weyl_parallel_gives_zero_rows():
    st = _state([1, 1, -1, -1], parallel=True)
    for r in extrinsic.div_weyl_sd(st):
        assert r["plus"] == 0.0 and r["minus"] == 0.0


# ----------------------------------------------------------------- Bochner


def test_bochner_residuals_catalog_zeros():
    for lam, s_expect in [([1, 1, -1, -1], 4.0),
                          ([SQRT3, -1 / SQRT3, -1 / SQRT3, -1 / SQRT3], 4.0),
                          ([0, 0, 0, 0], 0.0)]:
        st = _state(lam, parallel=True)
        assert st.S == pytest.approx(s_expect, rel=1e-12)
        res = extrinsic.bochner_residuals(st)
        for key, val in res.items():
            assert val == pytest.approx(0.0, abs=1e-12), (lam, key, val)


def test_bochner_unavailable_without_derivatives():
    st = _state([1, 1, -1, -1])
    res = extrinsic.bochner_residuals(st)
    assert all(v == "unavailable" for v in res.values())


def test_bochner_returns_before_the_power_sums_without_data(monkeypatch):
    # a minimal state with no nablaA, hessS, field data or parallel flag has
    # nothing to check: every residual is unavailable and no kernel runs
    def fail(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(extrinsic, "_trace_powers", fail)
    monkeypatch.setattr(extrinsic, "_require_derivatives", fail)
    res = extrinsic.bochner_residuals(_state([1, 1, -1, -1]))
    assert set(res.values()) == {"unavailable"} and len(res) == 7
    with pytest.raises(AssertionError, match="kernel called"):
        extrinsic.bochner_residuals(_state([1, 1, -1, -1], hessS=np.zeros((4, 4))))


def test_bochner_nonminimal_unavailable():
    st = _state([1, 1, 1, 1], parallel=True)
    res = extrinsic.bochner_residuals(st)
    assert all(v == "unavailable" for v in res.values())


def test_bochner_scalar_term_needs_parallel():
    st = _state([1, 1, -1, -1], nablaA=np.zeros((4, 4, 4)), hessS=np.zeros((4, 4)))
    res = extrinsic.bochner_residuals(
        st, field_data={"lap_A": np.zeros((4, 4)), "lap_A2": np.zeros((4, 4)),
                        "lap_A2_sq": 0.0, "grad_A2_sq": 0.0})
    assert res["scalar_bochner"] == "unavailable"
    assert res["simons"] == pytest.approx(0.0, abs=1e-12)


def _trace_free_nabla(rng):
    """A random totally symmetric trace-free (4, 4, 4) tensor."""
    T = extrinsic._symmetrize3(rng.normal(size=(4, 4, 4)))
    v = np.einsum("iik->k", T)
    g = np.eye(4)
    return T - (np.einsum("ij,k->ijk", g, v) + np.einsum("ik,j->ijk", g, v)
                + np.einsum("jk,i->ijk", g, v)) / 6.0


def test_second_bach_pinned_to_the_bach_tensor():
    # second_bach restates 7/6 S|A^2|^2 - S^3/6 outside the certified
    # kernels; on minimal states it must equal
    # lap_A2_norm - <2B, A^2> - (S/3) simons with B the shipped Bach tensor
    rng = np.random.default_rng(83)
    for _ in range(200):
        A = _rand_sym(rng, scale=rng.uniform(0.1, 3.0))
        A -= np.trace(A) / 4.0 * np.eye(4)
        st = extrinsic.PointState(A=A, c=float(rng.choice([-1.0, 0.0, 1.0])),
                                  nablaA=_trace_free_nabla(rng), hessS=_rand_sym(rng))
        res = extrinsic.bochner_residuals(
            st, field_data={"lap_A2_sq": rng.normal(), "grad_A2_sq": rng.normal()})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random data violates the Simons identity
            B = extrinsic.bach_tensor(st)
        S = st.S
        expect = (res["lap_A2_norm"] - float(np.sum(2.0 * B * (st.A @ st.A)))
                  - S / 3.0 * res["simons"])
        assert abs(res["second_bach"] - expect) <= 1e-12 * (1.0 + abs(res["second_bach"]) + S ** 3)


def test_first_bach_is_minus_the_bach_tensor_against_A():
    # first_bach restates trA^5 - (2c + S/3) trA^3 + <A, Hess S>/6 - <A, T2>,
    # which is -<B, A> with B the shipped Bach tensor (tr A = 0)
    rng = np.random.default_rng(89)
    for _ in range(200):
        A = _rand_sym(rng, scale=rng.uniform(0.1, 3.0))
        A -= np.trace(A) / 4.0 * np.eye(4)
        st = extrinsic.PointState(A=A, c=float(rng.choice([-1.0, 0.0, 1.0])),
                                  nablaA=_trace_free_nabla(rng), hessS=_rand_sym(rng))
        res = extrinsic.bochner_residuals(st)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random data violates the Simons identity
            B = extrinsic.bach_tensor(st)
        S = st.S
        scale = 1.0 + S ** 2.5 + (np.sum(st.nablaA ** 2) + np.abs(st.hessS).sum()) * math.sqrt(S)
        assert abs(res["first_bach"] + float(np.sum(B * st.A))) <= 1e-12 * scale


def test_bach_trace_is_a_third_of_simons():
    # tr B = simons/3 on a minimal state: the Bach-trace warning reads
    # simons instead of taking a second trace
    rng = np.random.default_rng(89)
    for _ in range(200):
        A = _rand_sym(rng, scale=rng.uniform(0.1, 3.0))
        A -= np.trace(A) / 4.0 * np.eye(4)
        st = extrinsic.PointState(A=A, c=float(rng.choice([-1.0, 0.0, 1.0])),
                                  nablaA=_trace_free_nabla(rng), hessS=_rand_sym(rng))
        simons = extrinsic.bochner_residuals(st)["simons"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random data violates the Simons identity
            trace = float(np.trace(extrinsic.bach_tensor(st)))
        assert trace == pytest.approx(simons / 3.0, rel=1e-12, abs=0.0)


# The data each residual needs besides a minimal state, as the
# bochner_residuals docstring states it, and whether it needs n = 4.
# The parallel flag supplies every derivative input.
_BOCHNER_NEEDS = {
    "lap_A": (False, {"lap_A"}),
    "simons": (False, {"nablaA", "hessS"}),
    "lap_A2": (False, {"lap_A2", "nablaA"}),
    "lap_A2_norm": (False, {"lap_A2_sq", "grad_A2_sq", "nablaA"}),
    "first_bach": (True, {"nablaA", "hessS"}),
    "second_bach": (True, {"lap_A2_sq", "grad_A2_sq", "hessS"}),
    "scalar_bochner": (True, {"parallel"}),
}


def test_bochner_availability_matrix():
    rng = np.random.default_rng(97)
    field_keys = ("lap_A", "lap_A2", "lap_A2_sq", "grad_A2_sq")
    seen = set()
    for n, minimal, parallel, has_nabla, has_hess in itertools.product(
            (4, 5), (True, False), (True, False), (True, False), (True, False)):
        A = _rand_sym(rng, n)
        A -= np.trace(A) / n * np.eye(n)
        if not minimal:
            A += np.eye(n)
        # a gradient with three distinct indices only is trace-free
        nabla = extrinsic._symmetrize3(np.einsum("i,j,k->ijk", *np.eye(n)[:3]))
        st = extrinsic.PointState(A=A, c=1.0, parallel=parallel,
                                  nablaA=nabla if has_nabla else None,
                                  hessS=_rand_sym(rng, n) if has_hess else None)
        assert st.minimal == minimal
        for k in range(len(field_keys) + 1):
            for keys in itertools.combinations(field_keys, k):
                data = {key: (_rand_sym(rng, n) if key in ("lap_A", "lap_A2") else rng.normal())
                        for key in keys}
                res = extrinsic.bochner_residuals(st, data)
                assert list(res) == list(_BOCHNER_NEEDS)
                have = set(keys) | {name for name, given in (("nablaA", has_nabla),
                                                             ("hessS", has_hess)) if given}
                if parallel:
                    have |= {"parallel", "nablaA", "hessS", *field_keys}
                for name, (four_only, needs) in _BOCHNER_NEEDS.items():
                    available = minimal and (n == 4 or not four_only) and needs <= have
                    value = res[name]
                    if available:
                        assert type(value) is float and math.isfinite(value), (name, value)
                    else:
                        assert value == "unavailable", (name, n, minimal, parallel, keys)
                    seen.add((name, available))
    assert len(seen) == 2 * len(_BOCHNER_NEEDS)


def test_bochner_scalar_identity_at_clifford_22():
    # R |W+|^2 = 6 tr(W+ o W+ o W+): 8 * 32/3 against 6 * 128/9
    st = _state([1, 1, -1, -1], parallel=True)
    W = extrinsic.weyl_tensor(st)
    Wp, _ = lambda2.sd_asd_split(W)
    scal = extrinsic.gauss_equations(st).scal
    wpsq = extrinsic.closed_form_norms(st).Wpmsq
    assert scal * wpsq == pytest.approx(256.0 / 3.0, rel=1e-12)
    assert 6.0 * lambda2.triple(Wp, Wp, Wp) == pytest.approx(256.0 / 3.0, rel=1e-12)
    assert extrinsic.bochner_residuals(st)["scalar_bochner"] == pytest.approx(0.0, abs=1e-10)


def _assert_same_state(a, b):
    assert (a.n, a.c, a.parallel, a.minimal) == (b.n, b.c, b.parallel, b.minimal)
    np.testing.assert_array_equal(a.A, b.A)
    for name in ("nablaA", "hessS"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:  # reading symmetrizes again, which may move a last bit
            np.testing.assert_allclose(x, y, rtol=1e-15, atol=0)


def test_to_json_round_trip():
    rng = np.random.default_rng(47)
    states = [
        extrinsic.PointState(A=_rand_sym(rng), c=0.0,
                             nablaA=extrinsic._symmetrize3(rng.normal(size=(4, 4, 4))),
                             hessS=_rand_sym(rng)),
        extrinsic.PointState(A=_rand_sym(rng, n=5), c=-1.0,
                             nablaA=extrinsic._symmetrize3(rng.normal(size=(5, 5, 5)))),
        _state([1.0, 1.0, -1.0, -1.0], parallel=True),
    ]
    for st in states:
        text = st.to_json()
        back = extrinsic.PointState.from_json(text)
        _assert_same_state(st, back)
        assert json.loads(back.to_json()).keys() == json.loads(text).keys()
    assert "lambda" in json.loads(states[2].to_json())
    assert len(json.loads(states[0].to_json())["nablaA"]) == 20


def test_point_state_rejects_asymmetric_hess():
    hess = np.zeros((4, 4))
    hess[0, 1] = 1.0
    with pytest.raises(ValueError, match="^hessS: must be symmetric"):
        _state([1.0, 2.0, 3.0, -6.0], hessS=hess)


def test_bochner_rejects_unknown_field_data_key():
    with pytest.raises(ValueError, match="^field_data: unknown key 'lap_S'"):
        extrinsic.bochner_residuals(_state([1, 1, -1, -1], parallel=True),
                                    field_data={"lap_S": 0.0})


@pytest.mark.parametrize("field_data, match", [
    ({"lap_A": 5.0}, r"^field_data: lap_A: expected shape \(4, 4\), got \(\)$"),
    ({"lap_A": np.zeros((3, 3))}, r"^field_data: lap_A: expected shape \(4, 4\), got \(3, 3\)$"),
    ({"lap_A2": [["x"] * 4] * 4}, "^field_data: lap_A2: could not convert"),
    ({"lap_A2": np.full((4, 4), math.inf)}, "^field_data: lap_A2: entries must be finite"),
    ({"lap_A": np.full((4, 4), 1e60)}, "^field_data: lap_A: entries must not exceed 1e[+]50"),
    ({"lap_A2_sq": [1.0, 2.0]},
     r"^field_data: lap_A2_sq: expected a real number, got \[1.0, 2.0\]$"),
    ({"lap_A2_sq": math.nan}, "^field_data: lap_A2_sq: entries must be finite"),
    ({"lap_A2_sq": 10 ** 400}, "^field_data: lap_A2_sq: int too large"),
    ({"grad_A2_sq": True}, "^field_data: grad_A2_sq: expected a real number"),
    ({"grad_A2_sq": "1.0"}, "^field_data: grad_A2_sq: expected a real number"),
    ({"grad_A2_sq": -1e51}, "^field_data: grad_A2_sq: entries must not exceed"),
])
def test_bochner_rejects_malformed_field_data(field_data, match):
    with pytest.raises(ValueError, match=match):
        extrinsic.bochner_residuals(_state([1, 1, -1, -1], parallel=True), field_data=field_data)


def test_bochner_field_data_none_is_not_given():
    st = _state([1, 1, -1, -1], nablaA=np.zeros((4, 4, 4)), hessS=np.zeros((4, 4)))
    res = extrinsic.bochner_residuals(st, {"lap_A": None, "lap_A2_sq": 0, "grad_A2_sq": None})
    assert res == extrinsic.bochner_residuals(st, {"lap_A2_sq": np.float64(0.0)})
    assert res["lap_A"] == res["lap_A2_norm"] == "unavailable"
    assert res["simons"] == 0.0
