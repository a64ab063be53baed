"""Output checks of the benchmark workloads.

The checks test the paper's identities and the generator's ground truth,
not byte goldens, so a last-digit change in a float is not a failure. Each
check returns ``(items, confident)``: the number of answers in the output
and how many of them were given with confidence (not ``indeterminate``).
A failed check raises :class:`CheckFailed`, which fails the pass.
"""

from __future__ import annotations

import json
import math

# Identity residuals may not exceed this share of the natural scale
# (1 + S + |c|)^2 of the state; float rounding leaves about 1e-15.
IDENTITY_RTOL = 1e-9

# Largest accepted |chi - chi_exact| of the quadrature workload. The seed
# code reaches 7.4e-5 on the geodesic chart at res 6.
QUAD_ERR_BOUND = 1e-3

CONTROL_WITNESS = ("1", "0", "0", "0")


class CheckFailed(Exception):
    """An output violates an identity or the ground truth."""


def _reject_constant(token):
    raise CheckFailed(f"output holds the non-JSON token {token}")


def loads(text: str):
    """Parse CLI output as strict JSON: NaN and Infinity tokens fail."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not valid JSON: {exc}") from exc


def check_point(text: str, batch: list) -> tuple:
    """``hypercurv point`` on a batch: one report per state, identities hold.

    For n = 4: Wsq = 2 Wpmsq; cgb_integrand = Wsq - 2 RicTFsq + scal^2/6
    (the c terms enter through scal); signature_integrand = 0; a Bach
    tensor wherever derivative data was given; and a vanishing scalar
    Bochner residual on parallel catalog states.
    """
    out = loads(text)
    if not isinstance(out, list) or len(out) != len(batch):
        raise CheckFailed(f"expected {len(batch)} reports")
    confident = classified = 0
    for k, (item, rep) in enumerate(zip(batch, out)):
        if rep["n"] != item["n"]:
            raise CheckFailed(f"item {k}: n = {rep['n']}, expected {item['n']}")
        if item["n"] != 4:
            continue
        norms = rep["norms"]
        scale = (1.0 + rep["S"] + abs(rep["c"])) ** 2
        tol = IDENTITY_RTOL * scale
        if not abs(norms["Wsq"] - 2.0 * norms["Wpmsq"]) <= tol:
            raise CheckFailed(f"item {k}: Wsq != 2 Wpmsq")
        gauss_bonnet = norms["Wsq"] - 2.0 * norms["RicTFsq"] + rep["scal"] ** 2 / 6.0
        if not abs(rep["cgb_integrand"] - gauss_bonnet) <= tol:
            raise CheckFailed(f"item {k}: cgb_integrand != Wsq - 2 RicTFsq + scal^2/6")
        if not abs(rep["signature_integrand"]) <= tol:
            raise CheckFailed(f"item {k}: signature_integrand is not zero")
        if "nablaA" in item and rep["bach"] is None:
            raise CheckFailed(f"item {k}: derivative data given but no Bach tensor")
        if item.get("parallel"):
            residual = rep["bochner"]["scalar_bochner"]
            if not abs(residual) <= tol * (1.0 + rep["S"]):
                raise CheckFailed(f"item {k}: scalar Bochner residual {residual}")
        classified += 1
        confident += not rep["spectrum"]["indeterminate"]
    return classified, confident


def check_classify(text: str, truth: list) -> tuple:
    """``hypercurv classify``: zero confident (m, w) misclassifications.

    A confident report must match the generator's (m, partition, w); an
    item whose ground truth is None sits in the indeterminate band and
    must be reported indeterminate.
    """
    out = loads(text)
    if not isinstance(out, list) or len(out) != len(truth):
        raise CheckFailed(f"expected {len(truth)} reports")
    confident = 0
    for k, (rep, expected) in enumerate(zip(out, truth)):
        if rep["indeterminate"]:
            continue
        if expected is None:
            raise CheckFailed(f"item {k}: confident answer inside the indeterminate band")
        m, partition, w = expected
        got = (rep["m"], tuple(rep["partition"]), rep["w"])
        if got != (m, partition, w):
            raise CheckFailed(f"item {k}: (m, partition, w) = {got}, expected {expected}")
        confident += 1
    return len(out), confident


def check_certify(text: str, identities: int, control) -> tuple:
    """``verify --all`` certifies every identity; the corrupted control fails.

    The control must fail with the witness lambda = (1, 0, 0, 0). Every
    identity gets a definite verdict, so all answers count as confident.
    """
    out = loads(text)
    reported = out["identities"]
    if len(reported) != identities or not all(r["passed"] for r in reported):
        raise CheckFailed("not every registry identity was certified")
    if out["all_passed"] is not True:
        raise CheckFailed("all_passed is not true")
    if control.passed:
        raise CheckFailed("the corrupted control passed")
    point = (control.witness or {}).get("point")
    if point is None or tuple(point) != CONTROL_WITNESS:
        raise CheckFailed(f"control witness {point}, expected {CONTROL_WITNESS}")
    return identities + 1, identities + 1


def quad_abs_err(values: list, geometries) -> float:
    """max |chi - chi_exact| over the integrated geometries."""
    return max(abs(v - chi) for v, (_, chi) in zip(values, geometries))


def check_quadrature(values: list, geometries) -> tuple:
    """Every integral is finite and within QUAD_ERR_BOUND of the exact chi."""
    if len(values) != len(geometries) or not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"expected {len(geometries)} finite integrals, got {values}")
    err = quad_abs_err(values, geometries)
    if err > QUAD_ERR_BOUND:
        raise CheckFailed(f"quad_abs_err {err:.3e} exceeds {QUAD_ERR_BOUND:.0e}")
    return len(values), len(values)
