"""Acceptance gate.

Each test covers one numbered criterion and prints a single
"[criterion N] ... PASS/FAIL" line (visible in the -rP summary).
Tolerances and sample sizes are part of the contract; do not relax
them to make a failing build green.
"""

import math
import time
from fractions import Fraction

import numpy as np

from hypercurv import bounds, classify, extrinsic, immersions, polyverify, weyl_split_norms

_RNG_SEED = 20260815


def _finish(num: int, desc: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num}] {desc} {status}")
    assert not failures, failures


def test_criterion_01_half_norm_balance():
    failures = []
    rng = np.random.default_rng(_RNG_SEED)
    total = 100_000
    chunk = 20_000
    t0 = time.perf_counter()
    worst = 0.0
    for start in range(0, total, chunk):
        M = rng.uniform(-10.0, 10.0, (chunk, 4, 4))
        A = 0.5 * (M + np.transpose(M, (0, 2, 1)))
        wp, wm, ww = weyl_split_norms(A)
        bad = np.abs(wp - wm) > 1e-10 * ww
        if bad.any():
            failures.append(f"{bad.sum()} states violate the half-norm balance")
        worst = max(worst, float(np.max(np.abs(wp - wm) / ww)))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(1, f"half-norm balance |W+|^2 = |W-|^2 on 1e5 random shape "
               f"operators (worst rel {worst:.2e}, {elapsed:.1f}s)", failures)


def test_criterion_02_sharp_inequalities():
    failures = []
    rng = np.random.default_rng(_RNG_SEED + 1)
    total = 100_000
    t0 = time.perf_counter()
    M = rng.uniform(-10.0, 10.0, (total, 4, 4))
    A = 0.5 * (M + np.transpose(M, (0, 2, 1)))
    A -= (np.trace(A, axis1=1, axis2=2) / 4.0)[:, None, None] * np.eye(4)
    lam = np.linalg.eigvalsh(A)
    S = (lam ** 2).sum(axis=1)
    A2sq = (lam ** 4).sum(axis=1)
    tr3 = (lam ** 3).sum(axis=1)
    if not np.all(A2sq >= 0.25 * S ** 2 - 1e-10 * S ** 2):
        failures.append("lower quartic bound violated")
    if not np.all(A2sq <= (7.0 / 12.0) * S ** 2 + 1e-10 * S ** 2):
        failures.append("upper quartic bound violated")
    if not np.all(np.abs(tr3) <= np.sqrt(S ** 3 / 3.0) * (1.0 + 1e-10)):
        failures.append("cubic trace bound violated")
    elapsed = time.perf_counter() - t0

    # equality witnesses: multiplicity 3 saturates the upper quartic and the
    # cubic bound, the (l, l, -l, -l) spectrum saturates the lower quartic
    mult3 = classify.sharp_inequalities(
        extrinsic.PointState(lam=[1.5, 1.5, 1.5, -4.5]))
    if not (mult3.equality["trace"] and mult3.equality["lcf"]):
        failures.append(f"multiplicity-3 equality flags {mult3.equality}")
    if abs(mult3.margins["a2_upper"]) > 1e-8:
        failures.append(f"multiplicity-3 a2_upper margin {mult3.margins}")
    balanced = classify.sharp_inequalities(
        extrinsic.PointState(lam=[2.0, 2.0, -2.0, -2.0]))
    if not balanced.equality["einstein"]:
        failures.append(f"balanced equality flags {balanced.equality}")
    if abs(balanced.margins["a2_lower"]) > 1e-8:
        failures.append(f"balanced a2_lower margin {balanced.margins}")
    generic = classify.sharp_inequalities(
        extrinsic.PointState(lam=[2.0, 1.0, -1.2, -1.8]))
    if any(generic.equality.values()):
        failures.append(f"generic state raised equality flags {generic.equality}")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(2, f"sharp quartic/cubic inequalities on 1e5 trace-free states "
               f"with exact equality flags ({elapsed:.1f}s)", failures)


def test_criterion_03_multiplicity_weyl_dictionary():
    failures = []
    rng = np.random.default_rng(_RNG_SEED + 2)
    patterns = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    total = 100_000
    pat_idx = rng.integers(0, len(patterns), total)
    lams = np.empty((total, 4))
    m_true = np.empty(total, dtype=int)
    w_true = np.empty(total, dtype=int)
    for pi, pat in enumerate(patterns):
        sel = np.where(pat_idx == pi)[0]
        k = len(pat)
        base = rng.uniform(-5.0, 5.0, (sel.size, 1))
        gaps = rng.uniform(0.05, 2.0, (sel.size, k - 1))
        vals = np.concatenate([base, base - np.cumsum(gaps, axis=1)], axis=1)
        lams[sel] = np.repeat(vals, pat, axis=1)
        m_true[sel] = k
        w_true[sel] = 1 if max(pat) >= 3 else (3 if k == 4 else 2)
    m, w, indet = classify.classify_batch(lams, tol=1e-8)
    confident = ~indet
    mis = confident & ((m != m_true) | (w != w_true))
    if mis.any():
        failures.append(f"{mis.sum()} confident misclassifications on random spectra")

    near = 1_000
    pos = rng.integers(0, 3, near)
    gaps = rng.uniform(0.5, 1.5, (near, 3))
    gaps[np.arange(near), pos] = 1e-6
    start = rng.uniform(1.0, 3.0, near)[:, None]
    vals = start - np.concatenate(
        [np.zeros((near, 1)), np.cumsum(gaps, axis=1)], axis=1)
    ndm, ndw, ndindet = classify.classify_batch(vals, tol=1e-8)
    ndmis = (~ndindet) & ((ndm != 4) | (ndw != 3))
    if ndmis.any():
        failures.append(f"{ndmis.sum()} confident misclassifications at gap 1e-6")
    _finish(3, "multiplicity/Weyl-spectrum dictionary on 1e5 random + 1e3 "
               "near-degenerate spectra, zero confident misclassifications",
            failures)


def test_criterion_04_quadrature_topology():
    failures = []
    targets = {
        "clifford:4:1": (0.0, 1e-8),
        "clifford:4:2": (4.0, 1e-8),
        "geodesic:4": (2.0, 1e-6),
    }
    for label, (chi_target, tol) in targets.items():
        imm = immersions.get_immersion(label)
        t0 = time.perf_counter()
        chi = immersions.integrate(imm, "cgbEuler", res=64)
        t_chi = time.perf_counter() - t0
        t0 = time.perf_counter()
        tau = immersions.integrate(imm, "signature", res=64)
        t_tau = time.perf_counter() - t0
        if abs(chi - chi_target) > tol:
            failures.append(f"{label}: chi {chi!r} != {chi_target}")
        if abs(tau) > 1e-8:
            failures.append(f"{label}: signature {tau!r} != 0")
        if t_chi >= 10.0 or t_tau >= 10.0:
            failures.append(f"{label}: integral too slow ({t_chi:.1f}s/{t_tau:.1f}s)")
    _finish(4, "quadrature Euler characteristics 0/4/2 and vanishing "
               "signatures at resolution 64", failures)


def test_criterion_05_weyl_functional_equality_case():
    failures = []
    imm = immersions.get_immersion("clifford:4:2")
    mass = immersions.integrate(imm, "weylFunctional", res=64)
    target = (64.0 / 3.0) * math.pi ** 2 * 4.0
    if abs(mass - target) > 1e-8 * target:
        failures.append(f"Weyl mass {mass!r} != (64/3)pi^2 chi = {target!r}")
    vol = 4.0 * math.pi ** 2
    s_pinch = 4.0 * math.pi * math.sqrt(4.0 / vol)
    if abs(s_pinch - 4.0) > 1e-12:
        failures.append(f"pinching value 4*pi*sqrt(chi/vol) = {s_pinch!r} != 4")
    data = bounds.GlobalData(chi=4, vol=vol, S=4.0, weylL2=mass, c=1.0)
    rep = bounds.weyl_threshold_report(data)
    entry = rep["corpinch"]
    if not (entry["applicable"] and entry["holds"] and entry["equality"]):
        failures.append(f"corpinch entry {entry}")
    _finish(5, "Weyl functional equality (64/3)pi^2*chi and pinching "
               "equality S = 4 on product-of-spheres data", failures)


def test_criterion_06_pinching_function():
    failures = []
    r1 = 9.0 / (25.0 * math.pi ** 2)
    r2 = 1.0 / math.pi ** 2
    if abs(bounds.f_lower_bound(r1) - 12.0 / 5.0) > 1e-12:
        failures.append(f"f({r1}) = {bounds.f_lower_bound(r1)!r} != 12/5")
    if abs(bounds.f_lower_bound(r2) - 4.0) > 1e-12:
        failures.append(f"f({r2}) = {bounds.f_lower_bound(r2)!r} != 4")
    if abs(bounds.f_lower_bound(0.0) - 4.0) > 1e-12:
        failures.append(f"f(0) = {bounds.f_lower_bound(0.0)!r} != 4")
    c1 = bounds.f_lower_bound_candidates(r1)
    if abs(c1["low"] - c1["mid"]) > 1e-12:
        failures.append(f"branches disagree at first breakpoint: {c1}")
    c2 = bounds.f_lower_bound_candidates(r2)
    if abs(c2["mid"] - c2["high"]) > 1e-12:
        failures.append(f"branches disagree at second breakpoint: {c2}")
    down = np.array([bounds.f_lower_bound(r) for r in np.linspace(0.0, r1, 200)])
    if not np.all(np.diff(down) <= 1e-12):
        failures.append("f not monotone decreasing before the kink")
    up = np.array([bounds.f_lower_bound(r)
                   for r in np.linspace(r1, 3.0 / math.pi ** 2, 300)])
    if not np.all(np.diff(up) >= -1e-12):
        failures.append("f not monotone increasing after the kink")
    _finish(6, "pinching function: breakpoint values 12/5 and 4, f(0) = 4, "
               "piecewise monotone", failures)


def test_criterion_07_quadratic_formula():
    failures = []
    quad1 = bounds.s_quadratic(1.0, 4, 4.0 * math.pi ** 2, 4.0)
    if abs(quad1.s - 4.0) > 1e-12:
        failures.append(f"S from (c=1, chi=4, vol=4pi^2, A=4): {quad1.s!r}")
    quad2 = bounds.s_quadratic(1.0, 0, 2.0 * math.pi ** 3, 28.0 / 3.0)
    if abs(quad2.s - 4.0) > 1e-12:
        failures.append(f"S from (c=1, chi=0, A=28/3): {quad2.s!r}")
    _finish(7, "scalar quadratic reproduces S = 4 from both global data sets",
            failures)


def test_criterion_08_symbolic_certification():
    failures = []
    t0 = time.perf_counter()
    results = polyverify.verify_all()
    if len(results) != 13:
        failures.append(f"registry has {len(results)} identities, expected 13")
    for r in results:
        if not r.passed or r.witness is not None:
            failures.append(f"identity {r.name} failed: {r.detail}")
    bad = polyverify.verify_record(polyverify.corrupted_normWpm_record())
    if bad.passed or bad.witness is None:
        failures.append("corrupted control was not caught with a witness")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _finish(8, f"all 13 identities certify exactly, corrupted control caught "
               f"({elapsed:.1f}s)", failures)


def test_criterion_09_bach_bochner_goldens():
    failures = []
    states = {}
    for label in ("clifford:4:1", "clifford:4:2"):
        imm = immersions.get_immersion(label)
        states[label] = extrinsic.PointState(lam=list(imm.spectrum), parallel=True)
        bach = extrinsic.bach_tensor(states[label])
        if np.abs(bach).max() > 1e-12:
            failures.append(f"{label}: Bach tensor max {np.abs(bach).max():.2e}")
    res1 = extrinsic.bochner_residuals(states["clifford:4:1"])
    if abs(res1["first_bach"]) > 1e-12:
        failures.append(f"first Bochner residual {res1['first_bach']!r}")
    res2 = extrinsic.bochner_residuals(states["clifford:4:2"])
    if abs(res2["second_bach"]) > 1e-12:
        failures.append(f"second Bochner residual {res2['second_bach']!r}")
    if abs(res2["scalar_bochner"]) > 1e-12:
        failures.append(f"scalar Bochner residual {res2['scalar_bochner']!r}")
    # exact-fraction versions of the two golden relations: the sqrt(3)
    # coefficient of trA^5 vs (10/3) trA^3, and 8|W+|^2 = 6 |delW|^2 scale
    if Fraction(80, 9) != Fraction(10, 3) * Fraction(8, 3):
        failures.append("exact trA^5 relation broken")
    if Fraction(8, 1) * Fraction(32, 3) != Fraction(6, 1) * Fraction(128, 9):
        failures.append("exact scalar Bochner relation broken")
    # float layer agrees with the exact coefficients at 1e-12
    pack = extrinsic.closed_form_norms(states["clifford:4:1"])
    if abs(pack.trA5 - (10.0 / 3.0) * pack.trA3) > 1e-12:
        failures.append(f"trA5 {pack.trA5!r} != (10/3) trA3 {pack.trA3!r}")
    _finish(9, "Bach tensor vanishes at both parallel points; Bochner "
               "residuals and exact-fraction goldens hold", failures)


def test_criterion_10_global_rigidity_substitution():
    # the closed classification (minimal CSC hypersurfaces below the Weyl
    # mass threshold are totally geodesic or a product of spheres) is a
    # theorem, not a desk computation; the accepted stand-in is the property
    # suites above plus both equality-case witnesses, checked here
    failures = []
    geo = immersions.get_immersion("geodesic:4")
    mass_geo = immersions.integrate(geo, "weylFunctional", res=32)
    if abs(mass_geo) > 1e-10:
        failures.append(f"totally geodesic witness has Weyl mass {mass_geo!r}")
    chi_geo = immersions.integrate(geo, "cgbEuler", res=32)
    threshold_geo = (64.0 / 3.0) * math.pi ** 2 * chi_geo
    if not mass_geo <= threshold_geo:
        failures.append("geodesic witness exceeds its Weyl mass threshold")
    cl = immersions.get_immersion("clifford:4:2")
    mass_cl = immersions.integrate(cl, "weylFunctional", res=32)
    chi_cl = immersions.integrate(cl, "cgbEuler", res=32)
    threshold_cl = (64.0 / 3.0) * math.pi ** 2 * chi_cl
    if abs(mass_cl - threshold_cl) > 1e-8 * threshold_cl:
        failures.append(f"product witness not on the equality wall: "
                        f"{mass_cl!r} vs {threshold_cl!r}")
    _finish(10, "global rigidity accepted via property suites plus both "
                "equality-case witnesses (declared standard)", failures)
