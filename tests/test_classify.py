"""Tests for spectrum clustering, Weyl-operator eigenvalues and sharp bounds."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv import classify, cli, extrinsic, lambda2

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
    rep = classify.spectrum_report([1.0, 1.0, -1.0, -1.0])
    assert rep.w == 2
    np.testing.assert_allclose(rep.weyl_eigen, [4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0], rtol=1e-12)
    rep = classify.spectrum_report([SQRT3] + [-1 / SQRT3] * 3)
    assert rep.w == 1
    np.testing.assert_allclose(rep.weyl_eigen, 0.0, atol=1e-12)
    assert classify.spectrum_report([0.0, 0.0, 0.0, 0.0]).w == 1


def test_weyl_operator_spectrum_matches_lambda2_block():
    # the closed-form pairing values must be the eigenvalues of the SD
    # block of the actual Weyl operator for diagonal shape operators
    rng = np.random.default_rng(41)
    for _ in range(20):
        lam = rng.normal(size=4) * 3.0
        vals = np.array(classify.spectrum_report(lam).weyl_eigen)
        W = extrinsic.weyl_tensor(extrinsic.PointState(lam=lam, c=0.0))
        block = lambda2.lambda2_spectrum(W, "plus")
        np.testing.assert_allclose(np.sort(vals), np.sort(block),
                                   atol=1e-9 * (1.0 + np.abs(vals).max()))


def test_pairing_difference_products():
    # v_i - v_j factor into products of principal curvature differences;
    # this is the mechanism behind the multiplicity dictionary
    rng = np.random.default_rng(42)
    for _ in range(20):
        lam = np.sort(rng.normal(size=4) * 2.0)[::-1]
        v = classify.spectrum_report(lam).weyl_eigen
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


def test_structure_flags_catalog():
    flags = classify.spectrum_report([1.0, 1.0, -1.0, -1.0]).flags
    assert flags == {"lcf": False, "einstein": True, "twoTwoSplit": True}
    flags = classify.spectrum_report([SQRT3] + [-1 / SQRT3] * 3).flags
    assert flags == {"lcf": True, "einstein": False, "twoTwoSplit": False}
    flags = classify.spectrum_report([0.0, 0.0, 0.0, 0.0]).flags
    assert flags == {"lcf": True, "einstein": True, "twoTwoSplit": False}
    flags = classify.spectrum_report([3.0, 2.0, 1.0, -6.0]).flags
    assert flags == {"lcf": False, "einstein": False, "twoTwoSplit": False}


def test_lcf_flag_iff_weyl_vanishes():
    rng = np.random.default_rng(43)
    for _ in range(40):
        lam = rng.normal(size=4) * 2.0
        if rng.random() < 0.5:
            # force a genuine multiplicity-3 spectrum
            lam[1] = lam[2] = lam[3]
        flags = classify.spectrum_report(lam).flags
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
    # the batch entry gets the bad spectrum as the second row of a batch
    for fn, arg in ((classify.spectrum_report, lam), (classify.principal_multiplicities, lam),
                    (classify.sharp_inequalities, lam),
                    (classify.classify_batch, [[1.0, 1.0, -1.0, -1.0], lam])):
        with pytest.raises(ValueError, match="finite"):
            fn(arg)


def test_raw_spectra_share_the_state_scale_cap():
    classify.spectrum_report([1e50, 1e50, -1e50, -1e50])
    for fn, arg in ((classify.spectrum_report, [1e160, 1.0, 1.0, -1.0]),
                    (classify.principal_multiplicities, [1e60, 1.0, 1.0, -1.0]),
                    (classify.classify_batch, [[1.0, 1.0, -1.0, -1.0], [1e60, 1.0, 1.0, -1.0]])):
        with pytest.raises(ValueError, match="must not exceed 1e\\+50"):
            fn(arg)


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


def test_raw_spectra_follow_the_state_minimal_rule():
    # |sum| = 3e-10 lies above 1e-10 (1 + |A|_F) = 2.6e-10 but below the
    # 4e-10 a 1 + sum|l| scale would allow: a raw spectrum and its state
    # must agree that it is not minimal
    lam = [1.0, -1.0, 0.5, -0.5 + 3e-10]
    state = extrinsic.PointState(lam=lam)
    assert not state.minimal
    assert classify.spectrum_report(lam).margins == classify.spectrum_report(state).margins == {}
    for arg in (lam, state):
        with pytest.raises(ValueError, match="trace-free"):
            classify.sharp_inequalities(arg)


def _reference_classification(lam, tol=1e-8):
    """Loop-based (partition, w, Weyl eigenvalues, indeterminate) of one spectrum,
    with the arithmetic of the kernel written out entry by entry: H and S are
    the trace power sums of diag(lam), and each pairing joins the smallest l
    with one other."""
    l0, l1, l2, l3 = sorted(float(x) for x in lam)
    scale = 1.0 + max(abs(l0), abs(l1), abs(l2), abs(l3))
    H, S = (float(p) for p in extrinsic._quartic_powers(np.diag(lam))[:2])
    v = sorted((0.5 * s * (s - H) + (H * H - S) / 6.0 for s in (l0 + l1, l0 + l2, l0 + l3)),
               reverse=True)

    def clusters(desc, t):
        sizes, band = [1], False
        for a, b in zip(desc, desc[1:]):
            gap = a - b
            band |= 0.5 * t < gap <= 2.0 * t
            if gap > t:
                sizes.append(1)
            else:
                sizes[-1] += 1
        return tuple(sizes), band

    partition, band_l = clusters(sorted(lam, reverse=True), tol * scale)
    wsizes, band_v = clusters(v, tol * scale * scale)
    w_pred = 1 if max(partition) >= 3 else (3 if len(partition) == 4 else 2)
    return partition, len(wsizes), tuple(v), band_l or band_v or len(wsizes) != w_pred


def test_quartic_powers_of_a_diagonal_are_the_exact_power_sums():
    # the references above take their power sums from the kernel under
    # test; this anchors that kernel to exact rational sums: each power sum
    # of degree d of diag(l) is within (n + d) ulp(1) sum |l|^d of the exact
    # one, the error bound of rounded products summed in turn, plus n d
    # ulp(0) for the products that underflow
    rng = np.random.default_rng(53)
    spectra = [lam for n in (3, 4, 5, 6) for lam in _spectra_of_every_kind(rng, n, 60)]
    for lam in spectra + list(_degenerate_spectra()):
        exact = [Fraction(0)] * 4
        absolute = [Fraction(0)] * 4
        for x in map(Fraction, lam.tolist()):
            for d in range(4):
                exact[d] += x ** (d + 1)
                absolute[d] += abs(x) ** (d + 1)
        # (H, S, A2sq, trA3) has degrees 1, 2, 4, 3
        for p, d in zip(extrinsic._quartic_powers(np.diag(lam)), (1, 2, 4, 3)):
            bound = ((lam.size + d) * Fraction(math.ulp(1.0)) * absolute[d - 1]
                     + lam.size * d * Fraction(math.ulp(0.0)))
            assert abs(Fraction(float(p)) - exact[d - 1]) <= bound


def test_classify_batch_agrees_with_scalar():
    # every row, band rows included: random spectra, then spectra with a
    # gap placed at the clustering threshold of either side; both entry
    # points must also reproduce the loop-based reference exactly
    rng = np.random.default_rng(44)
    lams = rng.uniform(-10, 10, size=(500, 4))
    band = np.repeat(rng.uniform(-2, 2, size=(300, 2)), 2, axis=1)
    scale = 1.0 + np.abs(band).max(axis=1)
    band[:100, 1] += 1e-8 * scale[:100]
    band[100:200, 1] += 1e-8 * scale[100:200] * rng.uniform(0.25, 4.0, 100)
    band[200:, 1] += np.sqrt(1e-8) * scale[200:] * rng.uniform(0.5, 2.0, 100)
    band[200:, 3] += np.sqrt(1e-8) * scale[200:] * rng.uniform(0.5, 2.0, 100)
    lams = np.concatenate([lams, band])
    m, w, indet = classify.classify_batch(lams)
    assert indet[500:].any() and not indet[500:].all()
    for i in range(len(lams)):
        rep = classify.spectrum_report(lams[i])
        assert (m[i], w[i], indet[i]) == (rep.m, rep.w, rep.indeterminate)
        assert (rep.partition, rep.w, rep.weyl_eigen, rep.indeterminate) == \
            _reference_classification(lams[i])


def test_classify_batch_input_shape():
    with pytest.raises(ValueError, match="2 axes"):
        classify.classify_batch([1.0, 1.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="4 principal curvatures"):
        classify.classify_batch([[1.0, 1.0, -1.0]])


def test_classify_batch_near_degenerate_band():
    # rows whose smallest pairing-value gap lands inside the band must be
    # flagged rather than silently classified
    base = np.array([0.0, 1e-6, 2.0, 3.0])
    lams = np.tile(base, (50, 1)) + np.linspace(-5, 5, 50)[:, None]
    m, w, indet = classify.classify_batch(lams)
    assert np.all(m == 4)          # gap 1e-6 is far above the m threshold
    assert np.all((w == 3) | indet)  # w=3 is exact; the band may absorb rows


def test_classify_batch_works_in_bounded_memory():
    # rows go through the kernel a fixed-size block at a time: the answers
    # equal one pass over the whole batch, and the peak allocation stays
    # near the size of the outputs instead of growing with (N, 4, 4) operators
    rng = np.random.default_rng(53)
    lams = rng.normal(size=(100_000, 4))
    lams[::10, 1] = lams[::10, 0] + 1e-9
    lams[5::10, 1] = lams[5::10, 0] + 1.5e-8 * (1.0 + np.abs(lams[5::10]).max(axis=1))
    tracemalloc.start()
    try:
        m, w, indeterminate = classify.classify_batch(lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    A = classify._diagonal(lams)
    codes, _, w_all, indeterminate_all = classify._classify(
        extrinsic._spectra(A), extrinsic._quartic_powers(A), classify.CLUSTER_TOL)
    for got, expect in ((m, classify._M[codes]), (w, w_all), (indeterminate, indeterminate_all)):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
    assert indeterminate.any() and not indeterminate.all()


@pytest.mark.parametrize("lam", [[1.0, math.nan, 0.0, -1.0], [1e60, 1.0, -1.0, 0.0]])
def test_raw_spectra_fail_with_the_text_of_their_state(lam):
    with pytest.raises(ValueError) as state_error:
        extrinsic.PointState(lam=lam)
    for fn, arg in ((classify.spectrum_report, lam), (classify.sharp_inequalities, lam),
                    (classify.classify_batch, [lam])):
        with pytest.raises(ValueError) as error:
            fn(arg)
        assert str(error.value) == str(state_error.value)


def test_indeterminate_flag_in_scalar_report():
    # a gap sitting exactly at the threshold scale trips the band
    lam = np.array([1.0, 1.0 + 1.5e-8, -1.0, -1.0])
    rep = classify.spectrum_report(lam)
    assert rep.indeterminate


def _degenerate_spectra():
    """Catalog, repeated and near-threshold spectra, half of them trace-free."""
    rows = [[1.0, 1.0, -1.0, -1.0], [SQRT3] + [-1 / SQRT3] * 3, [0.0] * 4, [2.0, 2.0, 2.0, -6.0],
            [1.0] * 4, [3.0, 1.0, -2.0, -2.0], [1.0, 1.0 + 1.5e-8, -1.0, -1.0],
            [1.0, 1.0 + 1e-3, -1.0, -1.0], [5.0, 5.0, 5.0, 5.0 - 4e-8], [-1.0, -1.0, -1.0, 3.0]]
    return np.array(rows + [np.array(r) - np.mean(r) for r in rows])


def _reference_margins(lam):
    """Sharp margins of one spectrum from the trace power sums of diag(lam),
    with per-row arithmetic: the S ** 1.5 of numpy arrays differs from
    Python's in some rows, so the bound is taken on a Python float."""
    n = lam.size
    _, S, A2sq, trA3 = (float(p) for p in extrinsic._quartic_powers(np.diag(lam)))
    bound = (n - 2) / math.sqrt(n * (n - 1)) * S ** 1.5
    return [A2sq - S * S / n, (n * n - 3 * n + 3) / (n * (n - 1)) * S * S - A2sq,
            bound - trA3, trA3 + bound]


def test_per_item_functions_equal_the_batched_report_rows_bitwise():
    # the CLI's batched report pass and the per-item public functions are
    # one computation: flags and margins agree bit for bit on every row
    rng = np.random.default_rng(46)
    lams = rng.normal(size=(300, 4)) * rng.choice([1e-3, 1.0, 30.0], size=(300, 1))
    lams[::2] -= lams[::2].mean(axis=1, keepdims=True)
    lams = np.concatenate([lams, _degenerate_spectra()])
    minimal = [extrinsic._is_minimal(np.diag(lam)) for lam in lams]
    assert 100 < sum(minimal) < len(lams)
    A = np.array([np.diag(lam) for lam in lams])
    for lam, row in zip(lams, classify._spectrum_reports(
            A, extrinsic._quartic_powers(A), minimal, 1e-8)):
        assert classify.spectrum_report(lam).to_dict() == row
        assert all(type(v) is bool for v in row["flags"].values())
        if row["margins"]:
            sharp = classify.sharp_inequalities(lam)
            assert list(map(float.hex, sharp.margins.values())) == \
                list(map(float.hex, row["margins"].values())) == \
                list(map(float.hex, _reference_margins(lam)))
            assert all(type(v) is bool for v in sharp.equality.values())


def _hexed(value):
    """value with every float (numpy arrays and scalars too) as its float.hex."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _sharp_or_error(arg):
    try:
        rep = classify.sharp_inequalities(arg)
    except ValueError as exc:
        return str(exc)
    return _hexed(rep.margins), rep.equality


def _spectra_of_every_kind(rng, n, count):
    """count random spectra of length n over five scales, half trace-free,
    then repeated, zero and signed-zero ones, each also trace-free. Below
    about 1e-146 eigvalsh rescales and moves last bits, which at scale
    1e-150 still show in the Weyl eigenvalues; at 1e-300 they underflow."""
    scales = [1e-300, 1e-150, 1e-3, 1.0, 30.0]
    lams = rng.normal(size=(count, n)) * rng.choice(scales, size=(count, 1))
    lams[::2] -= lams[::2].mean(axis=1, keepdims=True)
    rows = [[1.0] * n, [0.0] * n, [-0.0] + [0.0] * (n - 1), [2.0] * (n - 1) + [-1.0],
            [1.0, 1.0] + [-1.0] * (n - 2), [3.0, -0.0, 0.0] + [-1.0] * (n - 3),
            [1.0, 1.0 + 1.5e-8] + [-1.0] * (n - 2), [5.0] * (n - 1) + [5.0 - 4e-8]]
    rows += [np.array(r) - np.mean(r) for r in rows]
    return np.concatenate([lams, rows])


def test_a_spectrum_its_state_and_its_cli_row_get_one_answer(capsys, tmp_path):
    # a raw spectrum l is the state diag(l): every public function gives it
    # the answer it gives PointState(lam=l), bit for bit, and a classify
    # batch of the states gives the same report rows; so does the state
    # with A = diag(l), and a spectrum too short for a state is refused
    # with the state's error
    rng = np.random.default_rng(47)
    lams = np.concatenate([_spectra_of_every_kind(rng, 4, 300), _degenerate_spectra()])
    states = [extrinsic.PointState(lam=lam) for lam in lams]
    assert 100 < sum(state.minimal for state in states) < len(states)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"n": 4, "c": 1.0, "lambda": lam.tolist()} for lam in lams]))
    assert cli.main(["classify", str(batch)]) == 0
    rows = json.loads(capsys.readouterr().out)
    m, w, indeterminate = classify.classify_batch(lams)
    for k, (lam, state, row) in enumerate(zip(lams, states, rows)):
        report = classify.spectrum_report(lam)
        assert _hexed(report.to_dict()) == _hexed(classify.spectrum_report(state).to_dict()) \
            == _hexed(row) == _hexed(classify.spectrum_report(
                extrinsic.PointState(A=np.diag(lam))).to_dict())
        assert (m[k], w[k], indeterminate[k]) == (report.m, report.w, report.indeterminate)
        assert classify.principal_multiplicities(lam) == classify.principal_multiplicities(state)
        assert _sharp_or_error(lam) == _sharp_or_error(state)
    for n in (3, 5, 6):
        for lam in _spectra_of_every_kind(rng, n, 60):
            state = extrinsic.PointState(lam=lam)
            assert classify.principal_multiplicities(lam) == \
                classify.principal_multiplicities(state)
            assert _sharp_or_error(lam) == _sharp_or_error(state)
    for lam in ([], [0.0], [1.0, -1.0]):
        with pytest.raises(ValueError) as refused:
            extrinsic.PointState(lam=lam)
        for function in (classify.spectrum_report, classify.principal_multiplicities,
                         classify.sharp_inequalities):
            with pytest.raises(ValueError) as exc:
                function(lam)
            assert str(exc.value) == str(refused.value)


# (lambda, [a2_lower, a2_upper, tr3_upper, tr3_lower], equality flags), the
# margins taken on the trace power sums of diag(lambda): two random and two
# degenerate trace-free spectra for each of n = 3, 5 and 6
_SHARP_PINS = [
    ([0.1251507129289564, -0.6373558824984105, 0.512205169569454],
     [0.07803058308960256, -2.7755575615628914e-17, 0.3536351862879659, 0.10849724516069603],
     (True, False, False)),
    ([4.5647063092808295, -2.904898140457271, -1.6598081688235586],
     [170.98617664074925, 0.0, 7.977370938364828, 140.03177726291236], (True, False, False)),
    ([0.6666666666666667, 0.6666666666666667, -1.3333333333333333],
     [1.1851851851851847, 8.881784197001252e-16, 3.555555555555556, 8.881784197001252e-16],
     (True, False, True)),
    ([1.3333333333333333, -0.6666666666666667, -0.6666666666666667],
     [1.1851851851851847, 8.881784197001252e-16, 6.661338147750939e-16, 3.5555555555555562],
     (True, False, True)),
    ([0.5648785242625947, -0.12885259556847387, 0.5311337004805753, -0.7991863266297592,
      -0.167973302544937],
     [0.2603122785456825, 0.4824008046788719, 1.1640536192305577, 0.7895779877591358],
     (False, False, False)),
    ([-0.6890887229108973, 0.9978648712993641, 3.8681911826610347, 2.026845059973739,
      -6.20381239102324],
     [1026.3717835195291, 541.6115712890273, 476.12630721115687, 132.33498195638134],
     (False, False, False)),
    ([0.3999999999999999] * 4 + [-1.6],
     [4.608000000000002, -2.6645352591003757e-15, 7.6800000000000015, -4.440892098500626e-16],
     (True, False, True)),
    ([1.2, 1.2, -0.8, -0.8, -0.8],
     [0.7679999999999989, 9.600000000000005, 5.134530459215554, 8.974530459215554],
     (False, False, False)),
    ([0.8114512124762753, -0.9311287242638555, -0.33609552453143815, 0.5213954359160708,
      -0.26630876656179253, 0.20068636696473996],
     [0.5975147984588877, 1.5818509847635722, 2.278942983407828, 1.9189166211419304],
     (False, False, False)),
    ([-4.2229550364166, -1.2728186988381205, 6.078926107010289, 0.23897881150445177,
      2.1680232255917113, -2.9901544088517302],
     [969.1171026402957, 1652.0784320618945, 297.93759249537555, 559.4059444085908],
     (False, False, False)),
    ([0.33333333333333326] * 5 + [-1.6666666666666667],
     [5.925925925925928, -1.7763568394002505e-15, 8.88888888888889, -8.881784197001252e-16],
     (True, False, True)),
    ([1.0, 1.0, 1.0, -1.0, -1.0, -1.0],
     [0.0, 19.199999999999996, 10.73312629199899, 10.73312629199899], (False, True, False)),
]


@pytest.mark.parametrize("lam, margins, equality", _SHARP_PINS)
def test_sharp_inequalities_pinned_in_other_dimensions(lam, margins, equality):
    rep = classify.sharp_inequalities(lam)
    assert list(map(float.hex, rep.margins.values())) == list(map(float.hex, margins))
    assert tuple(rep.equality[k] for k in ("lcf", "einstein", "trace")) == equality
