"""Tests for spectrum clustering, Weyl-operator eigenvalues and sharp bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import classify, extrinsic, lambda2

SQRT3 = math.sqrt(3.0)

lam4 = st.lists(st.floats(-10, 10), min_size=4, max_size=4)


def test_principal_multiplicities_basic():
    m, part = classify.principal_multiplicities([1.0, 1.0, -1.0, -1.0])
    assert m == 2 and part == (2, 2)
    m, part = classify.principal_multiplicities([2.0, 2.0, 2.0, -6.0])
    assert m == 2 and part == (1, 3) or part == (3, 1)
    m, part = classify.principal_multiplicities([0.0, 0.0, 0.0, 0.0])
    assert m == 1 and part == (4,)
    m, part = classify.principal_multiplicities([4.0, 3.0, 2.0, 1.0])
    assert m == 4 and part == (1, 1, 1, 1)


def test_multiplicities_respect_tolerance():
    m, _ = classify.principal_multiplicities([1.0, 1.0 + 1e-12, -1.0, -1.0])
    assert m == 2
    m, _ = classify.principal_multiplicities([1.0, 1.0 + 1e-3, -1.0, -1.0])
    assert m == 3


def test_weyl_operator_spectrum_golden():
    w, vals = classify.weyl_operator_spectrum([1.0, 1.0, -1.0, -1.0])
    assert w == 2
    np.testing.assert_allclose(sorted(vals, reverse=True),
                               [4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0], rtol=1e-12)
    w, vals = classify.weyl_operator_spectrum([SQRT3] + [-1 / SQRT3] * 3)
    assert w == 1
    np.testing.assert_allclose(vals, 0.0, atol=1e-12)
    w, vals = classify.weyl_operator_spectrum([0.0, 0.0, 0.0, 0.0])
    assert w == 1


def test_weyl_operator_spectrum_matches_lambda2_block():
    # the closed-form pairing values must be the eigenvalues of the SD
    # block of the actual Weyl operator for diagonal shape operators
    rng = np.random.default_rng(41)
    for _ in range(20):
        lam = rng.normal(size=4) * 3.0
        _, vals = classify.weyl_operator_spectrum(lam)
        W = extrinsic.weyl_tensor(extrinsic.PointState(lam=lam, c=0.0))
        block = lambda2.lambda2_spectrum(W, "plus")
        np.testing.assert_allclose(np.sort(vals), np.sort(block),
                                   atol=1e-9 * (1.0 + np.abs(vals).max()))


def test_weyl_operator_spectrum_rejects_inconsistent_hs():
    with pytest.raises(ValueError):
        classify.weyl_operator_spectrum([1.0, 1.0, -1.0, -1.0], H=3.0)
    with pytest.raises(ValueError):
        classify.weyl_operator_spectrum([1.0, 1.0, -1.0, -1.0], S=17.0)
    # consistent values pass
    classify.weyl_operator_spectrum([1.0, 1.0, -1.0, -1.0], H=0.0, S=4.0)


def test_pairing_difference_products():
    # v_i - v_j factor into products of principal curvature differences;
    # this is the mechanism behind the multiplicity dictionary
    rng = np.random.default_rng(42)
    for _ in range(20):
        lam = np.sort(rng.normal(size=4) * 2.0)[::-1]
        _, v = classify.weyl_operator_spectrum(lam)
        l1, l2, l3, l4 = lam
        diff12 = 0.5 * (l2 - l3) * (l1 - l4)
        diff13 = 0.5 * (l2 - l4) * (l1 - l3)
        diff23 = 0.5 * (l3 - l4) * (l1 - l2)
        assert v[0] - v[1] == pytest.approx(diff12, abs=1e-10)
        assert v[0] - v[2] == pytest.approx(diff13, abs=1e-10)
        assert v[1] - v[2] == pytest.approx(diff23, abs=1e-10)


@given(lam4)
@settings(max_examples=200, deadline=None)
def test_m_w_dictionary(lam):
    # the multiplicity correspondence: m=1 -> w=1, m=2 with (1,3) -> w=1,
    # m=2 with (2,2) -> w=2, m=3 -> w=2, m=4 -> w=3, derived from the
    # difference products; skip spectra inside the indeterminate band
    rep = classify.spectrum_report(np.asarray(lam))
    if rep.indeterminate:
        return
    m, part, w = rep.m, tuple(sorted(rep.partition)), rep.w
    if m == 1:
        assert w == 1
    elif m == 2 and part == (1, 3):
        assert w == 1
    elif m == 2 and part == (2, 2):
        assert w == 2
    elif m == 3:
        assert w == 2
    elif m == 4:
        assert w == 3


@given(lam4)
@settings(max_examples=120, deadline=None)
def test_report_invariant_under_permutation_and_sign(lam):
    rep = classify.spectrum_report(np.asarray(lam))
    if rep.indeterminate:
        return
    perm = np.asarray(lam)[[2, 0, 3, 1]]
    rep_p = classify.spectrum_report(perm)
    assert (rep_p.m, rep_p.w) == (rep.m, rep.w)
    # flipping the orientation of the normal flips the sign of A but not
    # the multiplicity structure
    rep_n = classify.spectrum_report(-np.asarray(lam))
    assert (rep_n.m, rep_n.w) == (rep.m, rep.w)


def test_structure_predicates_catalog():
    flags = classify.structure_predicates([1.0, 1.0, -1.0, -1.0])
    assert flags == {"lcf": False, "einstein": True, "twoTwoSplit": True}
    flags = classify.structure_predicates([SQRT3] + [-1 / SQRT3] * 3)
    assert flags == {"lcf": True, "einstein": False, "twoTwoSplit": False}
    flags = classify.structure_predicates([0.0, 0.0, 0.0, 0.0])
    assert flags == {"lcf": True, "einstein": True, "twoTwoSplit": False}
    flags = classify.structure_predicates([3.0, 2.0, 1.0, -6.0])
    assert flags == {"lcf": False, "einstein": False, "twoTwoSplit": False}


def test_lcf_flag_iff_weyl_vanishes():
    rng = np.random.default_rng(43)
    for _ in range(40):
        lam = rng.normal(size=4) * 2.0
        if rng.random() < 0.5:
            # force a genuine multiplicity-3 spectrum
            lam[1] = lam[2] = lam[3]
        flags = classify.structure_predicates(lam)
        st = extrinsic.PointState(lam=lam, c=0.0)
        wsq = extrinsic.closed_form_norms(st).Wsq
        ssq = st.S * st.S
        assert flags["lcf"] == (wsq <= 1e-10 * max(ssq, 1e-12) + 1e-13)


def test_sharp_inequalities_margins_and_flags():
    rep = classify.sharp_inequalities([1.0, 1.0, -1.0, -1.0])
    # S=4, |A^2|^2=4: lower bound tight (einstein), upper slack 7/12*16-4
    assert rep.margins["a2_lower"] == pytest.approx(0.0, abs=1e-12)
    assert rep.margins["a2_upper"] == pytest.approx(16.0 / 3.0, rel=1e-12)
    assert rep.equality == {"lcf": False, "einstein": True, "trace": False}

    rep = classify.sharp_inequalities([3.0, -1.0, -1.0, -1.0])
    # S=12, |A^2|^2=84=7/12*144: upper tight (lcf), trace tight (mult 3)
    assert rep.margins["a2_upper"] == pytest.approx(0.0, abs=1e-10)
    assert rep.equality["lcf"] and rep.equality["trace"]
    assert not rep.equality["einstein"]

    with pytest.raises(ValueError):
        classify.sharp_inequalities([1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("lam", [
    [math.nan, 1.0, 1.0, 1.0],
    [math.inf, 1.0, 1.0, -1.0],
    [-math.inf, 0.0, 0.0, 0.0],
])
def test_raw_spectra_must_be_finite(lam):
    for fn in (classify.spectrum_report, classify.principal_multiplicities,
               classify.sharp_inequalities):
        with pytest.raises(ValueError, match="finite"):
            fn(lam)


def test_sharp_inequalities_general_dimension():
    # n=3: upper constant (n^2-3n+3)/(n(n-1)) = 1/2, so the mult-2
    # spectrum (2,-1,-1) with S=6, |A^2|^2=18=36/2 is tight on both the
    # upper and the trace bound (mult >= n-1)
    rep = classify.sharp_inequalities(np.array([2.0, -1.0, -1.0]))
    assert rep.margins["a2_upper"] == pytest.approx(0.0, abs=1e-12)
    assert rep.equality["lcf"] and rep.equality["trace"]


@given(lam4)
@settings(max_examples=200, deadline=None)
def test_sharp_bounds_hold_on_trace_free_spectra(lam):
    lam = np.asarray(lam) - np.mean(lam)
    S = float(np.sum(lam * lam))
    if S < 1e-8:
        return
    rep = classify.sharp_inequalities(lam)
    assert rep.margins["a2_lower"] >= -1e-10 * S * S
    assert rep.margins["a2_upper"] >= -1e-10 * S * S
    assert rep.margins["tr3_upper"] >= -1e-10 * S**1.5
    assert rep.margins["tr3_lower"] >= -1e-10 * S**1.5


def test_spectrum_report_serialization():
    rep = classify.spectrum_report(np.array([1.0, 1.0, -1.0, -1.0]))
    d = rep.to_dict()
    assert set(d) == {"m", "partition", "w", "weylEigen", "flags", "margins",
                      "indeterminate"}
    import json
    json.dumps(d)  # everything must be plain python types
    assert d["m"] == 2 and d["w"] == 2


def test_spectrum_report_skips_margins_for_mean_curved():
    rep = classify.spectrum_report(np.array([1.0, 1.0, 1.0, 1.0]))
    assert rep.margins == {}


def test_batch_mw_agrees_with_scalar():
    rng = np.random.default_rng(44)
    lams = rng.uniform(-10, 10, size=(500, 4))
    m, w, indet = classify._batch_mw(lams)
    for i in range(500):
        rep = classify.spectrum_report(lams[i])
        assert m[i] == rep.m
        if not (indet[i] or rep.indeterminate):
            assert w[i] == rep.w


def test_batch_mw_near_degenerate_band():
    # rows whose smallest pairing-value gap lands inside the band must be
    # flagged rather than silently classified
    base = np.array([0.0, 1e-6, 2.0, 3.0])
    lams = np.tile(base, (50, 1)) + np.linspace(-5, 5, 50)[:, None]
    m, w, indet = classify._batch_mw(lams)
    assert np.all(m == 4)          # gap 1e-6 is far above the m threshold
    assert np.all((w == 3) | indet)  # w=3 is exact; the band may absorb rows


def test_indeterminate_flag_in_scalar_report():
    # a gap sitting exactly at the threshold scale trips the band
    lam = np.array([1.0, 1.0 + 1.5e-8, -1.0, -1.0])
    rep = classify.spectrum_report(lam)
    assert rep.indeterminate
