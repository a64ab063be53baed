"""Tests for the four-dimensional two-form and curvature-operator algebra."""

import itertools
import json
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import extrinsic, lambda2

ATOL = 1e-12


def _rand_curv(rng, trace_free=False):
    # build a curvature tensor through the Kulkarni-Nomizu product so the
    # symmetries hold exactly; subtract the Ricci part if asked
    U = rng.normal(size=(4, 4))
    U = 0.5 * (U + U.T)
    T = lambda2.kulkarni_nomizu(U, U)
    if trace_free:
        ric = T.ricci_contraction()
        ricTF = ric - np.trace(ric) / 4.0 * np.eye(4)
        scal = np.trace(ric)
        g = np.eye(4)
        T = T - 0.5 * lambda2.kulkarni_nomizu(ricTF, g) \
            - scal / 24.0 * lambda2.kulkarni_nomizu(g, g)
    return T


def test_levi_civita_values():
    assert lambda2.levi_civita(1, 2, 3, 4) == 1
    assert lambda2.levi_civita(2, 1, 3, 4) == -1
    assert lambda2.levi_civita(1, 1, 3, 4) == 0
    assert lambda2.levi_civita(4, 3, 2, 1) == 1
    with pytest.raises(ValueError):
        lambda2.levi_civita(0, 1, 2, 3)
    with pytest.raises(ValueError):
        lambda2.levi_civita(1, 2, 3, 5)


def test_levi_civita_tensor_contractions():
    # the standard contraction ladder fixes the normalization of mu
    eps = lambda2.levi_civita_tensor()
    # full: mu_ijkl mu_ijkl = 24
    assert np.einsum("ijkl,ijkl->", eps, eps) == pytest.approx(24.0, abs=ATOL)
    # three summed: mu_ijkl mu_ijkm = 6 delta_lm
    c3 = np.einsum("ijkl,ijkm->lm", eps, eps)
    np.testing.assert_allclose(c3, 6.0 * np.eye(4), atol=ATOL)
    # two summed: mu_ijkl mu_ijmn = 2(delta_km delta_ln - delta_kn delta_lm)
    c2 = np.einsum("ijkl,ijmn->klmn", eps, eps)
    d = np.eye(4)
    expect = 2.0 * (np.einsum("km,ln->klmn", d, d) - np.einsum("kn,lm->klmn", d, d))
    np.testing.assert_allclose(c2, expect, atol=ATOL)
    # one summed: determinant expansion in deltas
    c1 = np.einsum("ijkl,imnp->jklmnp", eps, eps)
    expect1 = np.zeros((4,) * 6)
    for j, k, l, m, n, p in itertools.product(range(4), repeat=6):
        expect1[j, k, l, m, n, p] = (
            d[j, m] * (d[k, n] * d[l, p] - d[k, p] * d[l, n])
            - d[j, n] * (d[k, m] * d[l, p] - d[k, p] * d[l, m])
            + d[j, p] * (d[k, m] * d[l, n] - d[k, n] * d[l, m]))
    np.testing.assert_allclose(c1, expect1, atol=ATOL)


def test_hodge_star_basis_table():
    # *(e1^e2) = e3^e4 and cyclic partners; the sign pattern fixes the
    # orientation convention used everywhere downstream
    pairs = [((1, 2), (3, 4)), ((1, 3), (4, 2)), ((1, 4), (2, 3))]
    for (i, j), (k, l) in pairs:
        w = lambda2.TwoForm.basis(i, j)
        sw = lambda2.hodge_star(w.components)
        np.testing.assert_allclose(sw, lambda2.TwoForm.basis(k, l).components, atol=ATOL)
        # and back: the star is an involution on Lambda^2 in dim 4
        np.testing.assert_allclose(lambda2.hodge_star(sw), w.components, atol=ATOL)


def test_hodge_star_involution_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        M = rng.normal(size=(4, 4))
        w = lambda2.TwoForm(M - M.T)
        ww = lambda2.hodge_star(lambda2.hodge_star(w.components))
        np.testing.assert_allclose(ww, w.components, atol=1e-13)


@given(st.lists(st.floats(-50, 50), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_hodge_star_isometry(coeffs):
    # |<*w, *w>| == <w, w> for any two-form
    w = np.zeros((4, 4))
    for c, (i, j) in zip(coeffs, lambda2.LAMBDA2_BASIS):
        w += c * lambda2.TwoForm.basis(i, j).components
    sw = lambda2.hodge_star(w)
    assert np.sum(sw * sw) == pytest.approx(np.sum(w * w), rel=1e-12, abs=1e-12)


def test_twoform_validation():
    with pytest.raises(ValueError):
        lambda2.TwoForm(np.eye(4))
    with pytest.raises(ValueError):
        lambda2.TwoForm(np.zeros((3, 3)))
    b = lambda2.TwoForm.basis(1, 2)
    assert b.components[0, 1] == 0.5
    assert b.components[1, 0] == -0.5
    assert b.norm_sq() == pytest.approx(0.5)


def test_curv_tensor_symmetry_validation():
    T = np.zeros((4, 4, 4, 4))
    T[0, 1, 0, 1] = 1.0   # missing the antisymmetry partners
    with pytest.raises(ValueError):
        lambda2.CurvTensor4(T)
    rng = np.random.default_rng(5)
    good = _rand_curv(rng)
    lambda2.CurvTensor4(good.components)  # should not raise


def test_operator6_round_trip():
    rng = np.random.default_rng(6)
    T = _rand_curv(rng)
    op = T.operator6()
    assert op.shape == (6, 6)
    np.testing.assert_allclose(op, op.T, atol=1e-12)
    T2 = lambda2.CurvTensor4.from_operator6(op)
    np.testing.assert_allclose(T2.components, T.components, atol=1e-12)


def test_curv_tensor_json_round_trip():
    rng = np.random.default_rng(7)
    T = _rand_curv(rng)
    T2 = lambda2.CurvTensor4.from_json(T.to_json())
    np.testing.assert_allclose(T2.components, T.components, atol=0)


def test_operator6_action_matches_tensor_action():
    # op stores raw components T_ijkl over the pair basis; the two-form
    # action tensor-contracts both slots, so its coefficients come out
    # doubled relative to the stored entries
    rng = np.random.default_rng(8)
    T = _rand_curv(rng)
    op = T.operator6()
    for a, (i, j) in enumerate(lambda2.LAMBDA2_BASIS):
        w = lambda2.TwoForm.basis(i, j).components
        acted = np.einsum("ijkl,kl->ij", T.components, w)
        # expand the image in the basis: coefficient = <acted, e_b> / <e_b, e_b>
        for b, (k, l) in enumerate(lambda2.LAMBDA2_BASIS):
            coeff = 2.0 * np.sum(acted * lambda2.TwoForm.basis(k, l).components)
            assert coeff == pytest.approx(2.0 * op[b, a], abs=1e-10)


def test_sd_asd_split_properties():
    rng = np.random.default_rng(9)
    T = _rand_curv(rng, trace_free=True)
    Tp, Tm = lambda2.sd_asd_split(T)
    np.testing.assert_allclose((Tp + Tm).components, T.components, atol=1e-11)
    np.testing.assert_allclose(lambda2.star_weyl(Tp).components, Tp.components, atol=1e-10)
    np.testing.assert_allclose(lambda2.star_weyl(Tm).components, -Tm.components, atol=1e-10)
    assert lambda2.inner(Tp, Tm) == pytest.approx(0.0, abs=1e-10)
    # norm additivity
    assert lambda2.inner(T, T) == pytest.approx(
        lambda2.inner(Tp, Tp) + lambda2.inner(Tm, Tm), rel=1e-12)


def test_sd_asd_split_rejects_trace():
    T = lambda2.kulkarni_nomizu(np.eye(4), np.eye(4))
    with pytest.raises(ValueError):
        lambda2.sd_asd_split(T)


def test_star_weyl_is_involution_on_trace_free():
    rng = np.random.default_rng(10)
    T = _rand_curv(rng, trace_free=True)
    TT = lambda2.star_weyl(lambda2.star_weyl(T))
    np.testing.assert_allclose(TT.components, T.components, atol=1e-11)


def test_kulkarni_nomizu_normalizations():
    g = np.eye(4)
    gg = lambda2.kulkarni_nomizu(g, g).components
    d = np.eye(4)
    expect = 2.0 * (np.einsum("ik,jl->ijkl", d, d) - np.einsum("il,jk->ijkl", d, d))
    np.testing.assert_allclose(gg, expect, atol=0)
    # trace identity: contraction of (U o g) is (n-2) U + tr(U) g
    rng = np.random.default_rng(12)
    U = rng.normal(size=(4, 4))
    U = 0.5 * (U + U.T)
    T = lambda2.kulkarni_nomizu(U, g)
    ric = T.ricci_contraction()
    np.testing.assert_allclose(ric, 2.0 * U + np.trace(U) * g, atol=1e-12)


def test_kulkarni_nomizu_symmetrization():
    rng = np.random.default_rng(13)
    U = rng.normal(size=(4, 4)); U = 0.5 * (U + U.T)
    V = rng.normal(size=(4, 4)); V = 0.5 * (V + V.T)
    T1 = lambda2.kulkarni_nomizu(U, V)
    T2 = lambda2.kulkarni_nomizu(V, U)
    np.testing.assert_allclose(T1.components, T2.components, atol=0)
    lambda2.CurvTensor4(T1.components)  # carries all curvature symmetries


def _kn_einsum(U, V):
    # reference: the four terms of (U o V)_ijkl = U_ik V_jl + U_jl V_ik
    # - U_il V_jk - U_jk V_il, each an einsum, summed in this order
    return (np.einsum("...ik,...jl->...ijkl", U, V) + np.einsum("...jl,...ik->...ijkl", U, V)
            - np.einsum("...il,...jk->...ijkl", U, V) - np.einsum("...jk,...il->...ijkl", U, V))


def test_kn_raw_matches_einsum_reference_bitwise():
    rng = np.random.default_rng(15)
    M = rng.normal(size=(300, 4, 4))
    A = M + M.transpose(0, 2, 1)
    A[::3, 1, :] = 0.0
    A[::3, :, 1] = 0.0
    g = np.eye(4)
    # zero entries times negative ones: the plain products hold -0.0
    P = A[:, :, None, :, None] * A[:, None, :, None, :]
    assert (np.signbit(P) & (P == 0)).any()
    for U, V in [(A, A), (A, g), (g, A), (g, g), (-g, A), (A[0], A[1]),
                 (A[:, None], A[None, :5])]:
        got, ref = lambda2._kn_raw(U, V), _kn_einsum(U, V)
        assert got.shape == ref.shape
        # compared as bit patterns, so the sign of every zero counts
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_kn_raw_matches_einsum_reference_on_polynomials():
    from hypercurv.polyverify import RationalPoly, _diag

    x = [RationalPoly.variable(i, 4) for i in range(4)]
    D = _diag(x)
    F = np.array([[x[(i + j) % 4] * (i - j + 1) for j in range(4)] for i in range(4)],
                 dtype=object)
    g = np.eye(4, dtype=object)
    for U, V in [(D, D), (D, g), (g, F), (F, D)]:
        got, ref = lambda2._kn_raw(U, V), _kn_einsum(U, V)
        assert all((a - b).is_zero for a, b in zip(got.flat, ref.flat))


def test_lambda2_spectrum_block_structure():
    # a KN square has equal SD and ASD spectra; eigenvalues descend
    rng = np.random.default_rng(14)
    T = _rand_curv(rng, trace_free=True)
    sp = lambda2.lambda2_spectrum(T, "plus")
    sm = lambda2.lambda2_spectrum(T, "minus")
    assert sp.shape == (3,) and sm.shape == (3,)
    assert np.all(np.diff(sp) <= 1e-12)
    with pytest.raises(ValueError):
        lambda2.lambda2_spectrum(T, "sideways")


def test_inner_and_triple_agree_with_einsum():
    rng = np.random.default_rng(15)
    T1 = _rand_curv(rng)
    T2 = _rand_curv(rng)
    a1, a2 = T1.components, T2.components
    assert lambda2.inner(T1, T2) == pytest.approx(
        float(np.einsum("ijkl,ijkl->", a1, a2)), rel=1e-13)
    assert lambda2.triple(T1, T2, T1) == pytest.approx(
        float(np.einsum("ijkl,pqkl,ijpq->", a1, a2, a1)), rel=1e-13)


# ------------------------------------------------------------ entry rule

def _antisym(rng):
    M = rng.normal(size=(4, 4))
    return M - M.T


def _sym(rng):
    M = rng.normal(size=(4, 4))
    return M + M.T


def _state(A):
    # PointState rejects such an A itself, so div_weyl_sd's own entry rule
    # is reached only by a state that bypassed that validation
    return SimpleNamespace(n=4, A=A, nablaA=np.zeros((4, 4, 4)), parallel=False)


def _json_call(T):
    # to_json writes NaN and Infinity tokens, which json.loads takes back
    return lambda2.CurvTensor4.from_json(lambda2.CurvTensor4(T, check=False).to_json())


# (call, a valid input, the entry that a corruption changes, the error of a
# broken mirror); a corruption of the entry alone breaks the input's mirror
_ENTRY_POINTS = {
    "TwoForm": (lambda2.TwoForm, _antisym, (0, 1), "two-form: must be antisymmetric"),
    "hodge_star": (lambda2.hodge_star, _antisym, (0, 1), "two-form: must be antisymmetric"),
    "CurvTensor4": (lambda2.CurvTensor4, None, (0, 1, 0, 1),
                    "curvature tensor: must be antisymmetric in its first index pair"),
    "star_weyl": (lambda2.star_weyl, None, (0, 1, 0, 1),
                  "curvature tensor: must be antisymmetric in its first index pair"),
    "sd_asd_split": (lambda2.sd_asd_split, None, (0, 1, 0, 1),
                     "curvature tensor: must be antisymmetric in its first index pair"),
    "lambda2_spectrum": (lambda2.lambda2_spectrum, None, (0, 1, 0, 1),
                         "curvature tensor: must be antisymmetric in its first index pair"),
    "kulkarni_nomizu U": (lambda U: lambda2.kulkarni_nomizu(U, np.eye(4)), _sym, (0, 1),
                          "U: must be symmetric"),
    "kulkarni_nomizu V": (lambda V: lambda2.kulkarni_nomizu(np.eye(4), V), _sym, (0, 1),
                          "V: must be symmetric"),
    # the JSON form stores one triangle of the operator, so no symmetry breaks
    "from_json": (_json_call, None, (0, 1, 0, 1), None),
    "div_weyl_sd": (lambda A: extrinsic.div_weyl_sd(_state(A)),
                    lambda rng: np.diag(rng.normal(size=4)), (0, 1),
                    "A: div_weyl_sd needs the shape operator in a principal frame"),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, spec in _ENTRY_POINTS.items()
    for bad in ("nan", "inf", "-inf", "cap", "mirror") if bad != "mirror" or spec[3]])
def test_entry_points_reject_bad_input_with_a_value_error(entry, bad):
    call, valid, at, asymmetric = _ENTRY_POINTS[entry]
    rng = np.random.default_rng(40)
    arr = _rand_curv(rng, trace_free=True).components.copy() if valid is None else valid(rng)
    if bad == "cap":
        # scaled, so every symmetry still holds; div_weyl_sd takes a state's
        # A, the others curvature-level input
        cap = 1e50 if entry == "div_weyl_sd" else 1e102
        arr *= 10.0 * cap / np.abs(arr).max()
        message = re.escape(f"entries must not exceed {cap:.0e} in magnitude")
    elif bad == "mirror":
        arr[at] += 1.0
        message = asymmetric
    else:
        arr[at] = float(bad)
        message = "entries must be finite numbers"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as info:
            call(arr)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_curvature_of_a_state_at_the_cap_passes_the_curvature_entry_rule():
    # the package's own tensors stay inputs of lambda2: Gauss and Weyl
    # tensors of a state at the 1e50 cap reach 1e100 and still round-trip
    rng = np.random.default_rng(44)
    M = rng.choice([-1.0, 1.0], size=(4, 4))
    with pytest.warns(UserWarning, match="is large"):
        p = extrinsic.PointState(A=0.99e50 * np.sign(M + M.T + 0.5), c=1.0)
    W = extrinsic.weyl_tensor(p)
    assert np.abs(W.components).max() > 1e100
    lambda2.CurvTensor4(extrinsic.gauss_equations(p).riem.components)
    back = lambda2.CurvTensor4.from_json(W.to_json())
    assert np.array_equal(back.components, W.components)
    for part in ("plus", "minus"):
        assert np.array_equal(lambda2.lambda2_spectrum(W.components, part),
                              lambda2.lambda2_spectrum(W, part))
    lambda2.sd_asd_split(W.components)  # the entry rule, then the trace check
    assert np.array_equal(lambda2.star_weyl(W.components).components,
                          lambda2.star_weyl(W).components)


@pytest.mark.parametrize("entries, rule", [
    ({(0, 1, 2, 3): 1.0, (0, 1, 3, 2): -1.0, (1, 0, 2, 3): -1.0, (1, 0, 3, 2): 1.0},
     "must satisfy pair symmetry"),
    ({(0, 1, 0, 1): 1.0, (1, 0, 0, 1): -1.0}, "must be antisymmetric in its last index pair"),
])
def test_curvature_check_names_the_broken_symmetry(entries, rule):
    T = np.zeros((4, 4, 4, 4))
    for index, value in entries.items():
        T[index] = value
    with pytest.raises(ValueError, match=f"^curvature tensor: {rule}$"):
        lambda2.CurvTensor4(T)


@pytest.mark.parametrize("factor, passes", [(0.9, True), (1.1, False)])
def test_div_weyl_sd_principal_frame_boundary(factor, passes):
    # off-diagonal entries up to tol (1 + max|A|) count as a principal frame
    A = np.diag([1.0, 2.0, -1.0, -2.0])
    A[0, 1] = A[1, 0] = factor * lambda2.EQUALITY_TOL * (1.0 + 2.0)
    st = extrinsic.PointState(A=A, c=1.0, parallel=True)
    if passes:
        assert len(extrinsic.div_weyl_sd(st)) == 12
    else:
        with pytest.raises(ValueError, match="principal frame"):
            extrinsic.div_weyl_sd(st)


# --------------------------------------------- one Lambda^2 index table

# The per-entry loops the index arrays replaced, kept as the reference.
_PAIRS0 = tuple((i - 1, j - 1) for i, j in lambda2.LAMBDA2_BASIS)


def _operator6_loop(components):
    op = np.empty((6, 6))
    for p, (i, j) in enumerate(_PAIRS0):
        for q, (k, l) in enumerate(_PAIRS0):
            op[p, q] = components[i, j, k, l]
    return op


def _from_operator6_loop(op):
    arr = np.zeros((4, 4, 4, 4))
    for p, (i, j) in enumerate(_PAIRS0):
        for q, (k, l) in enumerate(_PAIRS0):
            v = op[p, q]
            arr[i, j, k, l] = v
            arr[j, i, k, l] = -v
            arr[i, j, l, k] = -v
            arr[j, i, l, k] = v
    return arr


def _to_json_loop(components):
    op = _operator6_loop(components)
    return json.dumps({"lambda2_op": [op[i, j] for i in range(6) for j in range(i, 6)]})


def _from_json_loop(text):
    entries = json.loads(text)["lambda2_op"]
    op = np.zeros((6, 6))
    pos = 0
    for i in range(6):
        for j in range(i, 6):
            op[i, j] = entries[pos]
            op[j, i] = entries[pos]
            pos += 1
    return _from_operator6_loop(op)


def _twoform_repr_loop(components):
    terms = []
    for i, j in lambda2.LAMBDA2_BASIS:
        c = 2.0 * components[i - 1, j - 1]
        if c != 0.0:
            terms.append(f"{c:+g} e{i}^e{j}")
    return "TwoForm(" + (" ".join(terms) if terms else "0") + ")"


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.uint64)


def test_lambda2_index_arrays_match_the_loops_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(200):
        M = rng.normal(size=(6, 6)) * rng.choice([1e-3, 1.0, 1e3])
        op = M + M.T
        # signed zeros, and ints as JSON may hold them
        op[rng.random((6, 6)) < 0.2] = 0.0
        op[rng.random((6, 6)) < 0.2] *= -0.0
        op = np.triu(op) + np.triu(op, 1).T
        raw = rng.normal(size=(4, 4, 4, 4))
        raw[rng.random(raw.shape) < 0.3] = -0.0
        T = lambda2.CurvTensor4.from_operator6(op)
        assert np.array_equal(_bits(T.components), _bits(_from_operator6_loop(op)))
        for comps in (T.components, raw):
            got = lambda2.CurvTensor4(comps, check=False)
            assert np.array_equal(_bits(got.operator6()), _bits(_operator6_loop(comps)))
            assert got.to_json() == _to_json_loop(comps)
        w = op[:4, :4] - op[:4, :4].T
        assert repr(lambda2.TwoForm(w)) == _twoform_repr_loop(w)
        text = _to_json_loop(T.components)
        assert np.array_equal(_bits(lambda2.CurvTensor4.from_json(text).components),
                              _bits(_from_json_loop(text)))
    ints = json.dumps({"lambda2_op": list(range(21))})
    assert np.array_equal(_bits(lambda2.CurvTensor4.from_json(ints).components),
                          _bits(_from_json_loop(ints)))


# ------------------------------------------------------- one W+- split

def test_sd_split_is_the_float_half_sum_bit_for_bit():
    rng = np.random.default_rng(42)
    M = rng.normal(size=(50, 4, 4))
    W = extrinsic._weyl_raw(M + M.transpose(0, 2, 1))
    star = lambda2._star4(W)
    plus, minus = lambda2._sd_split(W)
    assert np.array_equal(_bits(plus), _bits(0.5 * (W + star)))
    assert np.array_equal(_bits(minus), _bits(0.5 * (W - star)))


def test_sd_split_is_the_half_sum_on_polynomials():
    from hypercurv import polyverify

    W = polyverify._weyl4(polyverify._lam_vars(4, 4))
    star = lambda2._star4(W)
    plus, minus = lambda2._sd_split(W)
    assert all(p == Fraction(1, 2) * (w + s) for p, w, s in zip(plus.flat, W.flat, star.flat))
    assert all(m == Fraction(1, 2) * (w - s) for m, w, s in zip(minus.flat, W.flat, star.flat))
    # a float half would leave the rationals
    with pytest.raises(TypeError, match="rational coefficient expected"):
        0.5 * W[0, 1, 0, 1]
