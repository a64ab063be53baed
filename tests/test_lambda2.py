"""Tests for the four-dimensional Hodge star and curvature-operator algebra."""

import hashlib
import itertools
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import extrinsic, lambda2, tolerances

ATOL = 1e-12


def _rand_curv(rng, trace_free=False):
    # build a curvature tensor through the Kulkarni-Nomizu product so the
    # symmetries hold exactly; subtract the Ricci part if asked
    U = rng.normal(size=(4, 4))
    U = 0.5 * (U + U.T)
    T = lambda2.kulkarni_nomizu(U, U)
    if trace_free:
        ric = np.einsum("ijkj->ik", T.components)
        ricTF = ric - np.trace(ric) / 4.0 * np.eye(4)
        scal = np.trace(ric)
        g = np.eye(4)
        T = lambda2.CurvTensor4(T.components - 0.5 * lambda2.kulkarni_nomizu(ricTF, g).components
                                - scal / 24.0 * lambda2.kulkarni_nomizu(g, g).components)
    return T


# a raw contraction operand: antisymmetric in each index pair, but not
# pair-symmetric, as the star of a tensor with trace is not
_ANTI = lambda2._expand(np.triu(np.ones((6, 6))))


def _basis(i, j):
    # the basis form theta^i ^ theta^j (1-based indices) as components
    w = np.zeros((4, 4))
    w[i - 1, j - 1], w[j - 1, i - 1] = 0.5, -0.5
    return w


def _parity_mu():
    # the Levi-Civita symbol by permutation parity: the reference mu
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        sign = 1
        for a in range(4):
            for b in range(a + 1, 4):
                if perm[a] > perm[b]:
                    sign = -sign
        eps[perm] = sign
    return eps


def test_levi_civita_values():
    eps = lambda2.levi_civita_tensor()
    assert eps[0, 1, 2, 3] == 1
    assert eps[1, 0, 2, 3] == -1
    assert eps[0, 0, 2, 3] == 0
    assert eps[3, 2, 1, 0] == 1
    assert eps.dtype == float and np.array_equal(eps, _parity_mu())
    # read-only down to its base array
    assert not eps.flags.writeable
    assert eps.base is None or not eps.base.flags.writeable


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
        w = _basis(i, j)
        sw = lambda2.hodge_star(w)
        np.testing.assert_allclose(sw, _basis(k, l), atol=ATOL)
        # and back: the star is an involution on Lambda^2 in dim 4
        np.testing.assert_allclose(lambda2.hodge_star(sw), w, atol=ATOL)


def test_hodge_star_involution_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        M = rng.normal(size=(4, 4))
        w = M - M.T
        ww = lambda2.hodge_star(lambda2.hodge_star(w))
        np.testing.assert_allclose(ww, w, atol=1e-13)


@given(st.lists(st.floats(-50, 50), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_hodge_star_isometry(coeffs):
    # |<*w, *w>| == <w, w> for any two-form
    w = np.zeros((4, 4))
    for c, (i, j) in zip(coeffs, lambda2.LAMBDA2_BASIS):
        w += c * _basis(i, j)
    sw = lambda2.hodge_star(w)
    assert np.sum(sw * sw) == pytest.approx(np.sum(w * w), rel=1e-12, abs=1e-12)


def test_hodge_star_validation():
    with pytest.raises(ValueError, match="^two-form: must be antisymmetric$"):
        lambda2.hodge_star(np.eye(4))
    with pytest.raises(ValueError, match=re.escape("two-form must have shape (4, 4), got (3, 3)")):
        lambda2.hodge_star(np.zeros((3, 3)))


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


def test_operator6_action_matches_tensor_action():
    # op stores raw components T_ijkl over the pair basis; the two-form
    # action tensor-contracts both slots, so its coefficients come out
    # doubled relative to the stored entries
    rng = np.random.default_rng(8)
    T = _rand_curv(rng)
    op = T.operator6()
    for a, (i, j) in enumerate(lambda2.LAMBDA2_BASIS):
        w = _basis(i, j)
        acted = np.einsum("ijkl,kl->ij", T.components, w)
        # expand the image in the basis: coefficient = <acted, e_b> / <e_b, e_b>
        for b, (k, l) in enumerate(lambda2.LAMBDA2_BASIS):
            coeff = 2.0 * np.sum(acted * _basis(k, l))
            assert coeff == pytest.approx(2.0 * op[b, a], abs=1e-10)


def test_sd_asd_split_properties():
    rng = np.random.default_rng(9)
    T = _rand_curv(rng, trace_free=True)
    Tp, Tm = lambda2.sd_asd_split(T)
    np.testing.assert_allclose(Tp.components + Tm.components, T.components, atol=1e-11)
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
    ric = np.einsum("ijkj->ik", T.components)
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


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_kn_raw_matches_einsum_reference_bitwise(n):
    rng = np.random.default_rng(15)
    M = rng.normal(size=(300, n, n))
    A = M + M.transpose(0, 2, 1)
    A[::3, 1, :] = 0.0
    A[::3, :, 1] = 0.0
    g = np.eye(n)
    # zero entries times negative ones: the plain products hold -0.0
    P = A[:, :, None, :, None] * A[:, None, :, None, :]
    assert (np.signbit(P) & (P == 0)).any()
    pairs, moved_zeros = lambda2._pairs(n), 0
    for U, V in [(A, A), (A, g), (g, A), (g, g), (-g, A), (A[0], A[1]),
                 (A[:60, None], A[None, :5])]:
        got, ref = lambda2._kn_raw(U, V), _kn_einsum(U, V)
        # the operator is the reference at the pairs, compared as bit
        # patterns, so the sign of every zero counts
        assert np.array_equal(_bits(got), _bits(ref[(...,) + pairs]))
        # its expansion negates the operator where a pair is reversed, where
        # the reference sums the four terms in another order: a rounding,
        # and -0.0 where the operator holds +0.0
        full = lambda2._expand(got, n)
        assert full.shape == ref.shape
        assert np.abs(full - ref).max() <= 1e-15 * np.abs(ref).max()
        zeros = (_bits(full) != _bits(ref)) & (full == ref)
        assert np.signbit(full[zeros]).all()
        moved_zeros += np.count_nonzero(zeros)
    assert moved_zeros


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kn_raw_matches_einsum_reference_on_polynomials(n):
    from hypercurv.polyverify import RationalPoly, _diag

    x = [RationalPoly.variable(i, n) for i in range(n)]
    D = _diag(x)
    F = np.array([[x[(i + j) % n] * (i - j + 1) for j in range(n)] for i in range(n)],
                 dtype=object)
    g = np.eye(n, dtype=object)
    for U, V in [(D, D), (D, g), (g, F), (F, D)]:
        got, ref = lambda2._expand(lambda2._kn_raw(U, V), n), _kn_einsum(U, V)
        assert got.shape == ref.shape
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


# The component contractions that inner, triple and sd_asd_split's trace
# check ran before they ran on the operators, kept as the reference.
def _inner_einsum(a1, a2):
    return float(np.einsum("ijkl,ijkl->", a1, a2))


def _triple_einsum(a1, a2, a3):
    return float(np.einsum("ijkl,pqkl,ijpq->", a1, a2, a3))


def _contraction_operands(rng):
    # tensors with and without a trace, their stars (not pair-symmetric when
    # the tensor has a trace) and SD/ASD halves
    T, W = _rand_curv(rng), _rand_curv(rng, trace_free=True)
    M = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-2, 2)
    riem = extrinsic.gauss_equations(extrinsic.PointState(A=M + M.T, c=1.0)).riem
    return [T, W, riem, lambda2.star_weyl(T), lambda2.star_weyl(riem), lambda2.star_weyl(W),
            *lambda2.sd_asd_split(W)]


def test_inner_and_triple_agree_with_einsum():
    rng = np.random.default_rng(15)
    T1 = _rand_curv(rng)
    T2 = _rand_curv(rng)
    a1, a2 = T1.components, T2.components
    assert lambda2.inner(T1, T2) == pytest.approx(
        float(np.einsum("ijkl,ijkl->", a1, a2)), rel=1e-13)
    assert lambda2.triple(T1, T2, T1) == pytest.approx(
        float(np.einsum("ijkl,pqkl,ijpq->", a1, a2, a1)), rel=1e-13)


def test_operator_contractions_agree_with_einsum_on_stars_and_halves():
    # every triple, pair and <T, T> to 1e-13 relative; only where the reference
    # cancels to below a tenth of the contraction of the absolute values (as
    # <W+, W-> does) is the error measured against 1e-14 of that contraction
    rng = np.random.default_rng(16)
    stars = held_relative = total = 0
    for _ in range(6):
        tensors = _contraction_operands(rng)
        stars += sum(not np.allclose(T.operator6(), T.operator6().T) for T in tensors)
        operands = [(T, T.components) for T in tensors]
        checks = []
        for (T1, a1), (T2, a2), (T3, a3) in itertools.product(operands, repeat=3):
            checks.append((lambda2.triple(T1, T2, T3), _triple_einsum(a1, a2, a3),
                           _triple_einsum(*map(np.abs, (a1, a2, a3)))))
            for U, u, V, v in ((T1, a1, T2, a2), (T1, a1, T1, a1)):
                checks.append((lambda2.inner(U, V), _inner_einsum(u, v),
                               _inner_einsum(np.abs(u), np.abs(v))))
        for got, ref, absolute in checks:
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-14 * absolute)
            held_relative += abs(ref) >= 0.1 * absolute
        total += len(checks)
    assert stars >= 12
    assert 2 * held_relative >= total


def test_trace_check_is_the_component_ricci_contraction():
    # sd_asd_split raises when its Ricci norm exceeds tol (1 + max|T|): moving
    # tol across the component einsum's norm by 1e-13 max|T| must flip it
    rng = np.random.default_rng(17)
    traced = 0
    for _ in range(20):
        for T in _contraction_operands(rng):
            a = T.components
            ref, top = np.abs(np.einsum("ijkj->ik", a)).max(), np.abs(a).max()
            lambda2.sd_asd_split(T, tol=(ref + 1e-13 * top) / (1.0 + top))
            if ref > 1e-13 * top:
                traced += ref > 1e-6 * top
                with pytest.raises(ValueError, match="Ricci contraction has max entry") as info:
                    lambda2.sd_asd_split(T, tol=(ref - 1e-13 * top) / (1.0 + top))
                reported = float(str(info.value).rsplit(" ", 1)[1])
                assert reported == pytest.approx(ref, rel=1e-6)
    assert traced >= 40


def test_curv_tensor4_keeps_its_operator_to_itself():
    T = _rand_curv(np.random.default_rng(18))
    op, comps = T.operator6(), T.components
    mutated = T.operator6()
    mutated[...] = 7.0
    assert np.array_equal(_bits(T.operator6()), _bits(op))
    assert np.array_equal(_bits(T.components), _bits(comps))
    with pytest.raises(ValueError, match="read-only"):
        T.components[0, 1, 0, 1] = 1.0


@pytest.mark.parametrize("call", [
    lambda T: lambda2.inner(T, _ANTI),
    lambda T: lambda2.triple(_ANTI, T, _ANTI),
], ids=["inner", "triple"])
@pytest.mark.parametrize("shape", [(4, 4, 4), (4, 4), (2, 4, 4, 4, 4)])
def test_inner_and_triple_check_the_shape_of_raw_operands(call, shape):
    with pytest.raises(ValueError, match=re.escape(f"must have shape (4, 4, 4, 4), got {shape}")):
        call(np.ones(shape))


@pytest.mark.parametrize("call, shape, message", [
    (lambda2.CurvTensor4, (4, 4, 4), "CurvTensor4 components must be 4x4x4x4, got (4, 4, 4)"),
    (lambda2.CurvTensor4, (6, 6), "CurvTensor4 components must be 4x4x4x4, got (6, 6)"),
    (lambda2.CurvTensor4.from_operator6, (21,), "operator matrix must be 6x6, got (21,)"),
    (lambda2.CurvTensor4.from_operator6, (4, 4, 4, 4),
     "operator matrix must be 6x6, got (4, 4, 4, 4)"),
], ids=["CurvTensor4 rank 3", "CurvTensor4 6x6", "from_operator6 triangle",
        "from_operator6 rank 4"])
def test_curvature_tensors_check_their_shape(call, shape, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(np.zeros(shape))


def test_inner_and_triple_take_raw_operands_without_pair_symmetry():
    # the star of a tensor with trace breaks pair symmetry; as a raw array it
    # is still an operand, and contracts as its CurvTensor4 does
    T = _rand_curv(np.random.default_rng(16))
    star = lambda2.star_weyl(T)
    with pytest.raises(ValueError, match="pair symmetry"):
        lambda2.CurvTensor4(star.components)
    assert lambda2.inner(star.components, T.components) == lambda2.inner(star, T)
    assert lambda2.triple(star.components, T.components, star.components) == lambda2.triple(
        star, T, star)


@pytest.mark.parametrize("k, call", [
    (1, lambda X, T: lambda2.inner(X, T)), (2, lambda X, T: lambda2.inner(T, X)),
    (1, lambda X, T: lambda2.triple(X, T, T)), (2, lambda X, T: lambda2.triple(T, X, T)),
    (3, lambda X, T: lambda2.triple(T, T, X)),
], ids=["inner T1", "inner T2", "triple T1", "triple T2", "triple T3"])
def test_raw_operands_must_be_antisymmetric_in_the_last_pair_too(k, call):
    # its operator would hold only the pair-antisymmetric part of the array
    rng = np.random.default_rng(19)
    R = rng.normal(size=(4, 4, 4, 4))
    first_only = R - R.swapaxes(0, 1)
    with pytest.raises(ValueError, match=f"^T{k}: must be antisymmetric in its last index pair$"):
        call(first_only, _rand_curv(rng))


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


# (call, a valid input, the entry that a corruption changes, the error of a
# broken mirror); a corruption of the entry alone breaks the input's mirror
_ENTRY_POINTS = {
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
    # a non-symmetric operator breaks the pair symmetry of its tensor
    "from_operator6": (lambda2.CurvTensor4.from_operator6,
                       lambda rng: _rand_curv(rng, trace_free=True).operator6(), (0, 1),
                       "curvature tensor: must satisfy pair symmetry"),
    "div_weyl_sd": (lambda A: extrinsic.div_weyl_sd(_state(A)),
                    lambda rng: np.diag(rng.normal(size=4)), (0, 1),
                    "A: shape operator must be symmetric"),
    # contraction operands must be antisymmetric in each pair but need not
    # be pair-symmetric: a star need not keep pair symmetry
    "inner T1": (lambda T: lambda2.inner(T, _ANTI), None, (0, 1, 0, 1),
                 "T1: must be antisymmetric in its first index pair"),
    "inner T2": (lambda T: lambda2.inner(_ANTI, T), None, (0, 1, 0, 1),
                 "T2: must be antisymmetric in its first index pair"),
    "triple T1": (lambda T: lambda2.triple(T, _ANTI, _ANTI), None, (0, 1, 0, 1),
                  "T1: must be antisymmetric in its first index pair"),
    "triple T3": (lambda T: lambda2.triple(_ANTI, _ANTI, T), None, (0, 1, 0, 1),
                  "T3: must be antisymmetric in its first index pair"),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in _ENTRY_POINTS
    for bad in ("nan", "inf", "-inf", "cap", "mirror")])
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
    back = lambda2.CurvTensor4.from_operator6(W.operator6())
    assert np.array_equal(back.components, W.components)
    for part in ("plus", "minus"):
        assert np.array_equal(lambda2.lambda2_spectrum(W.components, part),
                              lambda2.lambda2_spectrum(W, part))
    lambda2.sd_asd_split(W.components)  # the entry rule, then the trace check
    assert np.array_equal(lambda2.star_weyl(W.components).components,
                          lambda2.star_weyl(W).components)


@pytest.mark.parametrize("call", [
    lambda T, **kw: lambda2.star_weyl(T, **kw).components,
    lambda T, **kw: np.array([P.components for P in lambda2.sd_asd_split(T, **kw)]),
    lambda2.lambda2_spectrum,
], ids=["star_weyl", "sd_asd_split", "lambda2_spectrum"])
def test_raw_operand_is_checked_as_curv_tensor4_at_the_callers_tol(call):
    # a raw array meets the CurvTensor4 check under the tol the caller
    # passes, and then gives what the checked tensor gives
    arr = _rand_curv(np.random.default_rng(41), trace_free=True).components.copy()
    arr[0, 1, 0, 1] += 1e-6 * (1.0 + np.abs(arr).max())
    with pytest.raises(ValueError, match="must be antisymmetric in its first index pair"):
        call(arr)
    assert np.array_equal(call(arr, tol=1e-4),
                          call(lambda2.CurvTensor4(arr, tol=1e-4), tol=1e-4))




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


def test_entry_rule_reports_the_first_row_then_its_first_broken_mirror():
    # one scale and cap test, then the mirrors in the order given: a
    # tensor over the cap or non-finite reports that before any symmetry
    T = np.zeros((4, 4, 4, 4))
    T[0, 1, 2, 3] = 1.0  # breaks all three mirrors of CurvTensor4
    with pytest.raises(ValueError, match="must be antisymmetric in its first index pair$"):
        lambda2.CurvTensor4(T)
    T[1, 0, 2, 3] = -1.0  # now the last pair first
    with pytest.raises(ValueError, match="must be antisymmetric in its last index pair$"):
        lambda2.CurvTensor4(T)
    T[3, 3, 3, 3] = np.nan
    with pytest.raises(ValueError, match="entries must be finite numbers$"):
        lambda2.CurvTensor4(T)
    # in a stack the earliest failing row wins, then its first broken mirror
    rows = np.zeros((4, 2, 2))
    rows[1, 0, 0] = 1.0  # breaks the second mirror only
    rows[2, 0, 1] = 1.0  # breaks both
    rows[3, 0, 0] = np.inf
    mirrors = ((rows.swapaxes(1, 2), "first"), (np.zeros_like(rows), "second"))
    for at, order, expect in [(slice(None), mirrors, (1, "x: second")),
                              ([0, 2], mirrors, (1, "x: first")),
                              ([0, 2], mirrors[::-1], (1, "x: second")),
                              ([0, 3], mirrors, (1, "x: entries must be finite numbers"))]:
        index, error = tolerances._entry_failure(
            "x", rows[at], tuple((m[at], rule) for m, rule in order))
        assert (index, str(error)) == expect


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


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.uint64)


def test_lambda2_index_arrays_match_the_loops_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(200):
        M = rng.normal(size=(6, 6)) * rng.choice([1e-3, 1.0, 1e3])
        op = M + M.T
        # signed zeros
        op[rng.random((6, 6)) < 0.2] = 0.0
        op[rng.random((6, 6)) < 0.2] *= -0.0
        op = np.triu(op) + np.triu(op, 1).T
        # a raw operand, not pair-symmetric, with signed zeros of its own
        raw = rng.normal(size=(6, 6))
        raw[rng.random(raw.shape) < 0.3] = -0.0
        raw = _from_operator6_loop(raw)
        T = lambda2.CurvTensor4.from_operator6(op)
        assert np.array_equal(_bits(T.components), _bits(_from_operator6_loop(op)))
        assert np.array_equal(_bits(lambda2.CurvTensor4(T.components).operator6()),
                              _bits(_operator6_loop(T.components)))
        got = lambda2._read(raw, "T1", lambda2._ANTISYMMETRIC)
        assert np.array_equal(_bits(got), _bits(_operator6_loop(raw)))


# ------------------------------------------------------- one W+- split

def test_sd_split_is_the_float_half_sum_bit_for_bit():
    rng = np.random.default_rng(42)
    M = rng.normal(size=(50, 4, 4))
    W = extrinsic._weyl_raw(M + M.transpose(0, 2, 1))
    star = lambda2._star(W)
    plus, minus = lambda2._sd_split(W)
    assert np.array_equal(_bits(plus), _bits(0.5 * (W + star)))
    assert np.array_equal(_bits(minus), _bits(0.5 * (W - star)))


def test_sd_split_is_the_half_sum_on_polynomials():
    from hypercurv import polyverify

    W = polyverify._symbol("W")
    star = lambda2._star(W)
    plus, minus = lambda2._sd_split(W)
    assert all(p == Fraction(1, 2) * (w + s) for p, w, s in zip(plus.flat, W.flat, star.flat))
    assert all(m == Fraction(1, 2) * (w - s) for m, w, s in zip(minus.flat, W.flat, star.flat))
    # a float half would leave the rationals
    with pytest.raises(TypeError, match="rational coefficient expected"):
        0.5 * W[0, 0]


# ---------------------------------------------- one star index table

def _star_einsum(T):
    return np.einsum("ijrs,...rskl->...ijkl", _parity_mu(), T) / 2


# the rotation of the pair basis onto the SD/ASD eigenbasis: the reference
# for the blocks of lambda2_spectrum
_P_SD = np.block([[np.eye(3), np.eye(3)], [np.eye(3), -np.eye(3)]]) / np.sqrt(2.0)


def _weyl_operands(rng):
    M = rng.normal(size=(750, 4, 4))
    A = M + M.transpose(0, 2, 1)
    diagonal = np.zeros_like(A)
    diagonal[:, range(4), range(4)] = rng.normal(size=(750, 4))
    negative = A - (np.abs(np.trace(A, axis1=1, axis2=2)) + 1.0)[:, None, None] * np.eye(4)
    zero_row = A.copy()
    zero_row[:, 2, :] = zero_row[:, :, 2] = 0.0
    return {"random": A, "diagonal": diagonal, "negative trace": negative, "zero row": zero_row}


def test_star_is_the_parity_einsum_on_weyl_operators():
    for name, A in _weyl_operands(np.random.default_rng(50)).items():
        W = extrinsic._weyl_raw(A)
        got = lambda2._star(W)
        assert got.flags.c_contiguous, name
        assert got.shape == W.shape
        # bit for bit at the basis pairs; elsewhere the bits differ only at
        # zeros: the expansion writes -0.0 where a reversed pair mirrors a
        # +0.0, the einsum +0.0
        full, ref = lambda2._expand(got), _star_einsum(lambda2._expand(W))
        pairs = (...,) + lambda2._pairs(4)
        assert np.array_equal(_bits(full[pairs]), _bits(ref[pairs])), name
        differ = _bits(full) != _bits(ref)
        assert np.array_equal(full, ref) and (full[differ] == 0).all(), name


def test_star_is_the_parity_einsum_on_any_operator():
    # a row gather, exact on any operator, symmetric or not (the star of a
    # tensor with trace breaks pair symmetry); the einsum sums sixteen
    # products, so where the gather keeps a -0 it may give +0
    rng = np.random.default_rng(51)
    O = rng.normal(size=(50, 6, 6))
    O[rng.random(O.shape) < 0.3] = 0.0
    O[rng.random(O.shape) < 0.3] = -0.0
    got = lambda2._star(O)
    assert got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(O[:, [3, 4, 5, 0, 1, 2]]))
    full, ref = lambda2._expand(got), _star_einsum(lambda2._expand(O))
    differ = _bits(full) != _bits(ref)
    assert np.array_equal(full, ref) and differ.any() and (full[differ] == 0).all()


def test_hodge_star_is_the_parity_einsum_bit_for_bit():
    rng = np.random.default_rng(52)
    zeros = 0
    for _ in range(200):
        M = rng.normal(size=(4, 4)) * rng.choice([1e-3, 1.0, 1e3])
        M[rng.random((4, 4)) < 0.4] = 0.0
        omega = M - M.T
        zeros += np.count_nonzero(omega == 0) - 4
        assert np.array_equal(_bits(lambda2.hodge_star(omega)),
                              _bits(0.5 * np.einsum("ijkl,kl->ij", _parity_mu(), omega)))
    assert zeros > 0


def test_star_stays_in_the_fractions():
    # the float symbol made an exact Weyl tensor float
    A = np.array([[Fraction(i + j + 1, 1 + i * j) for j in range(4)] for i in range(4)],
                 dtype=object)
    W = extrinsic._weyl_raw(A + A.T)
    star = lambda2._star(W)
    assert all(type(x) is Fraction for x in star.flat)
    for half in lambda2._sd_split(W):
        assert all(type(x) is Fraction for x in half.flat)
    assert np.array_equal(lambda2._expand(star).astype(float),
                          _star_einsum(lambda2._expand(W).astype(float)))


def test_star_is_the_parity_einsum_on_polynomials():
    from hypercurv import polyverify

    W = polyverify._symbol("W")
    star, ref = lambda2._expand(lambda2._star(W)), _star_einsum(lambda2._expand(W))
    assert star.shape == ref.shape
    # a repeated index holds the int 0 of _expand, which the float mu makes 0.0
    diffs = [s - r for s, r in zip(star.flat, ref.flat)]
    assert all(d.is_zero if isinstance(d, polyverify.RationalPoly) else d == 0 for d in diffs)


def test_public_tensors_are_exactly_antisymmetric_in_each_pair():
    # one index map writes every tensor the package returns: each entry of a
    # reversed pair is the exact negative of its partner
    rng = np.random.default_rng(54)
    for k in range(40):
        M = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3, 3)
        A = M + M.T
        if k % 2:
            A -= np.trace(A) / 4 * np.eye(4)
        p = extrinsic.PointState(A=A, c=float(k % 3 - 1))
        W = extrinsic.weyl_tensor(p)
        for T in (W.components, extrinsic.gauss_equations(p).riem.components,
                  lambda2.star_weyl(W).components,
                  lambda2.star_weyl(extrinsic.gauss_equations(p).riem).components):
            assert np.array_equal(T, -T.swapaxes(0, 1))
            assert np.array_equal(T, -T.swapaxes(2, 3))


# sha256 of the stacked float64 outputs on the states of _pin_states, taken
# when CurvTensor4 stored its (4,4,4,4) components: storing the operator
# instead keeps every bit of the package's tensors
_PINNED = {
    "weyl_tensor": "efce22156eb80d67c41cfb659730fc9d382cb8e0d3fd137246a6a658d8ad9c44",
    "riem": "c639d6ba234f02e1550087f3b15d2393268ff660887e2c7491430eb4d3595418",
    "star_weyl W": "096434279997fd7bccc01d5e926213c923fe26658c0ee6fffceaeebe128d784b",
    "star_weyl riem": "b7965053a7521b7b56a923fe5ac1348c9558c500c2ebbad9f38594aa697db7de",
    "sd plus": "df4230273307ced67d361dcf0122dff5423671d82faf157b0895b8de15096887",
    "sd minus": "1f23d47427c41a64eaba3848287721c33d804419c9681b447870f62e69a56abd",
    "kulkarni_nomizu": "694f6589387c903a431fd68841a9ff04d7c00581be708d75e04a1a0697bb8c42",
    "lambda2_spectrum": "ecf017c35182957f16ea7a6f01bd8f31c1330ed70112c717d4f1e33c4afea8c1",
}


def _pin_states():
    # scales 1e-3 to 1e3, c in {-1, 0, 1}, diagonal, zero-row and trace-free A
    rng = np.random.default_rng(31)
    for k in range(60):
        M = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3, 3)
        A = M + M.T
        if k % 3 == 1:
            A = np.diag(np.diag(A))
        if k % 4 == 2:
            A[1, :] = A[:, 1] = 0.0
        if k % 5 == 3:
            A -= np.trace(A) / 4 * np.eye(4)
        yield extrinsic.PointState(A=A, c=float(k % 3 - 1))


def test_public_tensors_keep_their_pinned_bits():
    out = {name: [] for name in _PINNED}
    for p in _pin_states():
        W, riem = extrinsic.weyl_tensor(p), extrinsic.gauss_equations(p).riem
        Wp, Wm = lambda2.sd_asd_split(W)
        out["weyl_tensor"].append(W.components)
        out["riem"].append(riem.components)
        out["star_weyl W"].append(lambda2.star_weyl(W).components)
        out["star_weyl riem"].append(lambda2.star_weyl(riem).components)
        out["sd plus"].append(Wp.components)
        out["sd minus"].append(Wm.components)
        out["kulkarni_nomizu"] += [lambda2.kulkarni_nomizu(p.A, p.A).components,
                                   lambda2.kulkarni_nomizu(p.A, np.eye(4)).components]
        out["lambda2_spectrum"] += [lambda2.lambda2_spectrum(T, part) for T in (W, riem)
                                    for part in ("plus", "minus")]
    got = {name: hashlib.sha256(np.ascontiguousarray(arrays).tobytes()).hexdigest()
           for name, arrays in out.items()}
    assert got == _PINNED


def _weyl_family(rng, n):
    # n hypersurface Weyl tensors, whose SD and ASD spectra agree, then n
    # with SD and ASD blocks drawn apart: trace-free symmetric 3x3 each
    M = rng.normal(size=(n, 4, 4)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
    yield from lambda2._expand(extrinsic._weyl_raw(M + M.transpose(0, 2, 1)))
    blocks = rng.normal(size=(n, 2, 3, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1, 1))
    blocks = blocks + blocks.swapaxes(-2, -1)
    blocks -= np.trace(blocks, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) / 3
    D = np.zeros((n, 6, 6))
    D[:, :3, :3], D[:, 3:, 3:] = blocks[:, 0], blocks[:, 1]
    op = _P_SD.T @ D @ _P_SD
    for o in (op + op.swapaxes(-2, -1)) / 2:
        yield lambda2.CurvTensor4.from_operator6(o).components


def test_lambda2_spectrum_is_the_rotated_block():
    # the half sums of the 3x3 blocks against the irrational rotation
    worst, apart = 0.0, 0
    for W in _weyl_family(np.random.default_rng(53), 1000):
        T = lambda2.CurvTensor4(W)
        rot = _P_SD @ T.operator6() @ _P_SD.T
        spectra = []
        for part, block in (("plus", rot[:3, :3]), ("minus", rot[3:, 3:])):
            ref = np.linalg.eigvalsh(0.5 * (block + block.T))[::-1]
            got = lambda2.lambda2_spectrum(T, part)
            worst = max(worst, np.abs(got - ref).max() / (1.0 + np.abs(ref).max()))
            spectra.append(got)
        apart += not np.allclose(*spectra)
    assert worst <= 4e-15
    assert apart >= 900
