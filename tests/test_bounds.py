"""Tests for global quantitative bounds and the pinching function."""

import math

import numpy as np
import pytest

from hypercurv import bounds, extrinsic

PI = math.pi
X1 = 9.0 / (25.0 * PI * PI)   # first breakpoint of f in r = chi/vol
X2 = 1.0 / (PI * PI)          # second breakpoint


# ------------------------------------------------------------- GlobalData


def test_global_data_validation():
    g = bounds.GlobalData(chi=4, vol=1.0)
    assert g.c == 1.0 and g.scalSign == "unknown"
    with pytest.raises(ValueError):
        bounds.GlobalData(chi=4, vol=0.0)
    with pytest.raises(ValueError):
        bounds.GlobalData(chi=4, vol=-2.0)
    with pytest.raises(ValueError):
        bounds.GlobalData(chi=4, vol=1.0, S=-1.0)
    with pytest.raises(ValueError):
        bounds.GlobalData(chi=4, vol=1.0, weylL2=-0.1)
    with pytest.raises(ValueError):
        bounds.GlobalData(chi=4, vol=1.0, scalSign="sideways")


@pytest.mark.parametrize("chi", [None, 2.5, True, "4", 4.0])
def test_global_data_requires_an_integer_chi(chi):
    # a bool is an int to Python but not an Euler characteristic
    with pytest.raises(ValueError, match="^chi must be an integer"):
        bounds.GlobalData(chi=chi, vol=1.0)


# ------------------------------------------------------------ s_quadratic


def test_s_quadratic_clifford_22_data():
    r = bounds.s_quadratic(1.0, 4, 4 * PI**2, 4.0)
    assert r.s == pytest.approx(4.0, abs=1e-12)
    assert r.warnings == ()


def test_s_quadratic_clifford_13_data():
    # chi = 0 removes the volume term entirely; A2avg = 28/3
    r = bounds.s_quadratic(1.0, 0, 123.456, 28.0 / 3.0)
    assert r.s == pytest.approx(4.0, abs=1e-12)
    # the answer cannot depend on the volume when chi = 0
    r2 = bounds.s_quadratic(1.0, 0, 1.0, 28.0 / 3.0)
    assert r2.s == r.s


def test_s_quadratic_volume_scaling_consistency():
    # chi and vol enter only through chi/vol, so scaling both leaves S fixed
    r1 = bounds.s_quadratic(1.0, 4, 4 * PI**2, 4.0)
    r2 = bounds.s_quadratic(1.0, 8, 8 * PI**2, 4.0)
    assert r1.s == pytest.approx(r2.s, rel=1e-14)


def test_s_quadratic_negative_discriminant():
    with pytest.raises(ValueError, match="68"):
        bounds.s_quadratic(1.0, -100, 1.0, 0.0)


def test_s_quadratic_rejects_a_nonpositive_volume():
    with pytest.raises(ValueError, match="^vol must be positive, got 0.0$"):
        bounds.s_quadratic(1.0, 2, 0.0, 1.0)


def test_s_quadratic_inconsistency_warning():
    # round-sphere data: the + root violates A2avg >= S^2/4 and says so
    r = bounds.s_quadratic(1.0, 2, 8 * PI**2 / 3, 0.0)
    assert r.s == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert r.s_minus == pytest.approx(0.0, abs=1e-12)
    assert len(r.warnings) == 1 and "A2avg" in r.warnings[0]


def test_s_quadratic_roots_solve_the_quadratic():
    # both roots satisfy 3S^2 - 4cS + 24c^2 - 6*A2avg = 32 pi^2 chi / vol
    for (c, chi, vol, a2) in [(1.0, 4, 4 * PI**2, 4.0), (1.0, 0, 9.0, 28.0 / 3.0),
                              (1.0, 2, 8 * PI**2 / 3, 0.0)]:
        r = bounds.s_quadratic(c, chi, vol, a2)
        rhs = 32 * PI**2 * chi / vol
        for root in (r.s, r.s_minus):
            lhs = 3 * root**2 - 4 * c * root + 24 * c**2 - 6 * a2
            assert lhs == pytest.approx(rhs, abs=1e-9)


# ------------------------------------------------------- pinching function


def test_f_breakpoint_values():
    assert bounds.f_lower_bound(0.0) == pytest.approx(4.0, abs=1e-15)
    assert bounds.f_lower_bound(X1) == pytest.approx(12.0 / 5.0, abs=1e-12)
    assert bounds.f_lower_bound(X2) == pytest.approx(4.0, abs=1e-12)


def test_f_continuity_at_breakpoints():
    for x0, val in ((X1, 12.0 / 5.0), (X2, 4.0)):
        for eps in (1e-9, 1e-11):
            left = bounds.f_lower_bound(x0 - eps)
            right = bounds.f_lower_bound(x0 + eps)
            # the slopes are order ten, so the window shrinks linearly
            assert abs(left - val) < 50.0 * eps + 1e-12
            assert abs(right - val) < 50.0 * eps + 1e-12


def test_f_piecewise_monotone():
    # decreasing on the first branch, increasing afterwards (the bound is
    # a V shape, not globally monotone)
    grid = np.linspace(0.0, X1, 500)
    vals = [bounds.f_lower_bound(t) for t in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    grid = np.linspace(X1, 1.0, 500)
    vals = [bounds.f_lower_bound(t) for t in grid]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_f_equals_max_of_defined_candidates():
    rng = np.random.default_rng(51)
    for r in rng.uniform(-0.3, 0.4, size=80):
        cands = bounds.f_lower_bound_candidates(r)
        finite = [v for v in cands.values() if v is not None]
        assert bounds.f_lower_bound(r) == pytest.approx(max(finite), rel=1e-12)


def test_f_negative_ratio_uses_first_branch():
    # negative Euler characteristic per volume stays on the low branch,
    # where the bound keeps growing as the ratio drops
    r = -0.2
    expect = -4.0 + 8.0 * math.sqrt(1.0 + 0.2 * PI**2)
    assert bounds.f_lower_bound(r) == pytest.approx(expect, rel=1e-14)
    assert bounds.f_lower_bound(-1.0) > bounds.f_lower_bound(-0.2) > 4.0


# ------------------------------------------------------- threshold report


def _entries(**kw):
    g = bounds.GlobalData(**kw)
    return bounds.weyl_threshold_report(g)


def test_threshold_corpinch_equality_on_exact_data():
    rep = _entries(chi=4, vol=4 * PI**2, S=4.0, weylL2=64.0 / 3.0 * PI**2 * 4)
    corp = rep["corpinch"]
    assert corp["applicable"] and corp["holds"] and corp["equality"]
    assert corp["threshold"] == pytest.approx(4.0, rel=1e-12)
    cliff = rep["weyl_c1_clifford"]
    assert cliff["applicable"] and cliff["holds"] and cliff["equality"]
    assert cliff["threshold"] == pytest.approx(64.0 / 3.0 * PI**2 * 4, rel=1e-12)


def test_threshold_not_applicable_reporting():
    rep = _entries(chi=4, vol=1.0, weylL2=10.0)   # c defaults to 1
    a = rep["weyl_c0_strict"]
    assert not a["applicable"] and a["violated"] is not None
    b = rep["weyl_nonpos_scal"]
    assert not b["applicable"]
    # nonpositive scalar sign switches that entry on
    rep = _entries(chi=0, vol=1.0, weylL2=10.0, scalSign="negative")
    assert rep["weyl_nonpos_scal"]["applicable"]
    assert rep["weyl_nonpos_scal"]["holds"]   # threshold 0 at chi = 0


def test_threshold_missing_data_noted():
    rep = _entries(chi=4, vol=1.0, c=0.0)
    entry = rep["weyl_c0_strict"]
    assert entry["applicable"]
    assert entry["holds"] is None
    assert "missing" in entry["note"]


def test_threshold_record_without_value_or_threshold():
    # weylL2 missing leaves weyl_c0_strict without a value, chi < 0 leaves
    # corpinch without a threshold: both records keep their fields and order
    rep = _entries(chi=-2, vol=1.0, c=0.0, S=4.0)
    missing = {"slack": None, "holds": None, "equality": None,
               "note": "unavailable: missing data"}
    assert rep["weyl_c0_strict"] == {"applicable": True, "violated": None,
                                     "threshold": 256.0 / 9.0 * PI**2 * -2, **missing}
    assert rep["corpinch"] == {"applicable": False, "violated": "requires chi >= 0, got -2",
                               "threshold": None, **missing}
    for entry in rep.values():
        assert list(entry) == ["applicable", "violated", "threshold", "slack", "holds",
                               "equality", "note"]


def test_threshold_c0_strict_violation():
    thr = 256.0 / 9.0 * PI**2 * 2
    rep = _entries(chi=2, vol=1.0, c=0.0, weylL2=thr * 0.5)
    entry = rep["weyl_c0_strict"]
    assert entry["applicable"] and entry["holds"] is False
    assert entry["slack"] == pytest.approx(-thr * 0.5, rel=1e-12)
    rep = _entries(chi=2, vol=1.0, c=0.0, weylL2=thr * 2.0)
    assert rep["weyl_c0_strict"]["holds"]


def test_threshold_corpinch_negative_chi_inapplicable():
    rep = _entries(chi=-2, vol=1.0, S=4.0)
    assert not rep["corpinch"]["applicable"]


# --------------------------------------------------------- misc bound ops


def test_euler_integrand_bounds():
    lo, hi = bounds.euler_integrand_bounds(0.0)
    assert lo == pytest.approx(3.0) and hi == pytest.approx(0.0)
    lo, hi = bounds.euler_integrand_bounds(4.0)
    assert lo == pytest.approx(0.0) and hi == pytest.approx(16.0 / 3.0)
    with pytest.raises(ValueError):
        bounds.euler_integrand_bounds(-1.0)


def _cgb_and_weyl(lam, c=1.0):
    """(cgb/8, |W|^2, S) of the minimal state with spectrum lam in the space
    form of curvature c."""
    st = extrinsic.PointState(lam=lam, c=c)
    return extrinsic.cgb_integrand(st) / 8.0, extrinsic.closed_form_norms(st).Wsq, st.S


@pytest.mark.filterwarnings("ignore:ambient curvature c=2.0 lies outside")
@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0, 2.0])
def test_euler_integrand_bounds_bound_cgb_below_and_weyl_above(c):
    # low is the minimum of cgb/8 (cgb/8 = low + 3/16 |W|^2), high the
    # maximum of |W|^2/4, at level S in the space form of curvature c
    rng = np.random.default_rng(17)
    for _ in range(500):
        lam = rng.normal(size=4) * rng.choice([0.1, 1.0, 3.0])
        cgb8, wsq, S = _cgb_and_weyl(lam - lam.mean(), c)
        low, high = bounds.euler_integrand_bounds(S, c)
        scale = max(1.0, c * c) + S * S
        assert cgb8 == pytest.approx(low + 3.0 * wsq / 16.0, rel=0, abs=1e-12 * scale)
        assert cgb8 >= low - 1e-12 * scale
        assert wsq / 4.0 <= high + 1e-12 * scale
    for t in (0.3, 1.0, 2.5):
        # conformally flat: cgb/8 = low; Einstein: |W|^2/4 = high
        cgb8, wsq, S = _cgb_and_weyl([-3 * t, t, t, t], c)
        assert cgb8 == pytest.approx(bounds.euler_integrand_bounds(S, c)[0], rel=1e-12)
        cgb8, wsq, S = _cgb_and_weyl([t, t, -t, -t], c)
        assert wsq / 4.0 == pytest.approx(bounds.euler_integrand_bounds(S, c)[1], rel=1e-12)
    cgb8, _, S = _cgb_and_weyl([0.0, 0.0, 0.0, 0.0], c)
    low, high = bounds.euler_integrand_bounds(S, c)
    assert low == cgb8 == 3.0 * c * c
    if c == 1.0:
        assert high < cgb8 == 3.0


def test_euler_integrand_bounds_keep_their_bits_at_c_one():
    for S in (0.0, 0.3, 4.0, 17.25):
        assert bounds.euler_integrand_bounds(S) == ((4.0 - S) * (12.0 + S) / 16.0, S * S / 3.0)
    # the c = 0 minimal state (-3t, t, t, t) with S = 4 has cgb/8 = -1
    assert bounds.euler_integrand_bounds(4.0, 0.0)[0] == -1.0


def test_volume_hypothesis_bounds_values():
    vb = bounds.volume_hypothesis_bounds(0)
    assert vb.bound == pytest.approx(4.0, rel=1e-12) and not vb.exceeds_16_3
    vb = bounds.volume_hypothesis_bounds(-2)
    assert vb.bound == pytest.approx(-4 + 8 * math.sqrt(1 + 8 / (5 * PI)), rel=1e-12)
    assert vb.exceeds_16_3
    vb = bounds.volume_hypothesis_bounds(2)
    assert vb.bound is None and "chi = 2" in vb.note
    vb = bounds.volume_hypothesis_bounds(4)
    assert vb.bound is not None and vb.exceeds_16_3 is False and vb.note
    vb = bounds.volume_hypothesis_bounds(6)
    assert vb.bound > 16.0 / 3.0 and vb.exceeds_16_3


def test_volume_hypothesis_bounds_matches_f():
    # the reported bounds are f evaluated at the normalized ratio
    # 4 chi / (5 pi^3) coming from the unit five-sphere volume
    for chi in (-4, -2, 0, 6, 8):
        vb = bounds.volume_hypothesis_bounds(chi)
        r = 4.0 * chi / (5.0 * PI**3)
        if chi <= 0:
            assert vb.bound == pytest.approx(
                bounds.f_lower_bound_candidates(r)["low"], rel=1e-12)
        else:
            assert vb.bound == pytest.approx(
                bounds.f_lower_bound_candidates(r)["high"], rel=1e-12)


@pytest.mark.parametrize("function, args, name", [
    (bounds.f_lower_bound, (1e308,), "r must not exceed"),
    (bounds.f_lower_bound, (math.nan,), "r must be finite"),
    (bounds.f_lower_bound_candidates, (1e308,), "r must not exceed"),
    (bounds.f_lower_bound_candidates, (math.nan,), "r must be finite"),
    (bounds.euler_integrand_bounds, (1e200,), "S must not exceed"),
    (bounds.euler_integrand_bounds, (math.nan,), "S must be finite"),
    (bounds.euler_integrand_bounds, (4.0, 1e60), "c must not exceed"),
    (bounds.s_quadratic, (1.0, 2, 1.0, 1e308), "A2avg must not exceed"),
    (bounds.s_quadratic, (math.inf, 2, 1.0, 1.0), "c must be finite"),
    (bounds.s_quadratic, (1.0, 2, 1e-300, 1.0), "chi/vol must not exceed"),
    (bounds.volume_hypothesis_bounds, (10 ** 400,), "chi must not exceed"),
])
def test_direct_calls_apply_the_entry_cap(function, args, name):
    # without a GlobalData the functions cap their own arguments, so no
    # bound comes out infinite or NaN and no OverflowError escapes
    with pytest.raises(ValueError, match=f"^{name}"):
        function(*args)


def test_volume_hypothesis_rejects_bad_chi():
    with pytest.raises(ValueError):
        bounds.volume_hypothesis_bounds(3)
    with pytest.raises(ValueError):
        bounds.volume_hypothesis_bounds(True)
    with pytest.raises(ValueError):
        bounds.volume_hypothesis_bounds(2.5)


def test_volume_hypothesis_bounds_are_the_regimes_at_the_volume_cap():
    # one statement of the regimes: the volume-cap bound is the "low" or
    # "high" regime of f at x = 4 chi / (5 pi), bit for bit
    for chi in range(-40, 41, 2):
        vb = bounds.volume_hypothesis_bounds(chi)
        if chi == 2:
            assert vb.bound is None
            continue
        regime = "low" if chi <= 0 else "high"
        assert vb.bound == bounds._regimes(4.0 * chi / (5.0 * PI))[regime]
