"""Command line entry point.

Subcommands
-----------
point      full pointwise report (curvature pack, norms, classification,
           integrands, Bach tensor and Bochner residuals when derivative
           data or the parallel flag make them available)
classify   spectrum classification report only
bounds     global threshold report from --chi/--vol/--S/--weyl-l2/...
integrate  quadrature of a functional over a catalog geometry; --dump
           writes a CSV with one row per product node, columns are the
           chart angles in order, then "integrand", then "weight"
verify     exact polynomial certification of the identity registry

Exit codes: 0 success, 1 assertion or bound violation (failed identity,
violated applicable bound), 2 input error (bad schema, unknown names, an
input file that cannot be read or a --dump path that cannot be written).

Point input is a JSON object (inline, a file path, or '-' for stdin)
with fields n, c, and exactly one of "lambda" or "A", plus optional
"nablaA" (for n = 4 a flat 20-vector over the lexicographic i<=j<=k
component order), "hessS", "parallel". A JSON array of such objects is
processed as a batch with output order preserved. point and classify
validate the whole batch before building any report, with
extrinsic._validate, the validator PointState runs on a batch of one:
types and shapes item by item on the decoded lists, then values once
per dimension on the stacked states, lambda and A converted by one array
call over the items' lists, field by field, in one pass. A batch with bad
items exits 2 with no output and the error line its first bad item gets
alone. The states of one dimension then go through each batched kernel
together, and an item's report equals the one it gets alone; the
classification blocks are the dicts classify._spectrum_reports builds
from the batched columns, emitted as they are, with no report object
per row. Warnings keep their count and text but come grouped on stderr:
validation's c and S warnings first, in input order, then the
Bach-trace warnings (tr B = simons/3).
bounds applies a state's 1e50 entry cap to its numbers and to chi/vol.
Output is deterministic: identical input yields byte-identical JSON.

Importing this module loads tolerances, lambda2, extrinsic and classify,
what point and classify run; bounds, integrate and verify import their
module (bounds, immersions, polyverify) when they run. The argument parser
is built once per process; --tol and its environment default are read on
each call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import classify as classify_mod
from . import extrinsic
from .tolerances import CLUSTER_TOL, ENV_VAR, default_tol

_EXIT_OK = 0
_EXIT_VIOLATION = 1
_EXIT_INPUT = 2


class _InputError(Exception):
    pass


def _emit(obj) -> None:
    # reports are freshly built trees, so there is no cycle to look for
    print(json.dumps(obj, indent=2, sort_keys=True, check_circular=False))


def _load_point_payload(raw: str):
    try:
        if raw == "-":
            text = sys.stdin.read()
        elif os.path.exists(raw):
            with open(raw) as fh:
                text = fh.read()
        else:
            text = raw
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read input {raw}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise _InputError(f"input is neither an existing file nor valid JSON: {exc}") from exc


def _reject_constant(token: str):
    raise _InputError(f"non-finite number {token} in input; values must be finite")


def _states(payload, check_n=None) -> list:
    """The validated states of a batch, or of one object, as one group per
    dimension (see extrinsic._validate); ``check_n(n)`` is the last check of
    each item."""
    items = payload if isinstance(payload, list) else [payload]
    try:
        return extrinsic._validate(items, extrinsic._json_args, check_n=check_n)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _point_reports(groups: list, cluster_tol: float) -> list:
    """The point report of each item of the validated groups. The states of
    one dimension go through each batched kernel together, Bach and Bochner
    included; a row's Bach-trace warning reads its simons residual."""
    reports: list = [None] * sum(len(group.index) for group in groups)
    for group in groups:
        A = group.A
        n = A.shape[-1]
        minimal = group.minimal.tolist()
        ric, scal, ric_tf = extrinsic._ricci(A, group.c)
        powers = extrinsic._trace_powers(A)
        spectra = signatures = bach = bochner = [None] * len(A)
        if n == 4:
            spectra = classify_mod._spectrum_reports(A, powers[:4], minimal, cluster_tol)
            signatures = extrinsic._signatures(A).tolist()
            bach, bochner = extrinsic._derivative_kernel(group, powers)
        for k, c, is_minimal, row, scal_k, ric_k, ric_tf_k, spectrum, signature, B, record in zip(
                group.index, group.c.tolist(), minimal, extrinsic._power_rows(powers),
                scal.tolist(), ric.tolist(), ric_tf.tolist(), spectra, signatures, bach, bochner):
            report = {"n": n, "c": c, "H": row[0], "S": row[1],
                      "minimal": is_minimal, "scal": scal_k, "ric": ric_k, "ricTF": ric_tf_k}
            if n == 4:
                extrinsic._warn_bach_trace(record["simons"], row[1])
                report.update({
                    "norms": extrinsic._norm_fields(row, 4),
                    "spectrum": spectrum,
                    "cgb_integrand": extrinsic._cgb(*row[:4], c),
                    "signature_integrand": signature,
                    "bach": B.tolist() if record["simons"] != "unavailable" else None,
                    "bochner": record,
                })
            reports[k] = report
    return reports


def _cmd_point(args) -> int:
    payload = _load_point_payload(args.input)
    reports = _point_reports(_states(payload), args.tol)
    _emit(reports if isinstance(payload, list) else reports[0])
    return _EXIT_OK


def _cmd_classify(args) -> int:
    payload = _load_point_payload(args.input)
    groups = _states(payload, check_n=lambda n: extrinsic._require_four(n, "spectrum_report"))
    # every item has n = 4, so one group holds them all, in input order
    A = groups[0].A if groups else np.empty((0, 4, 4))
    minimal = groups[0].minimal.tolist() if groups else []
    reports = classify_mod._spectrum_reports(A, extrinsic._quartic_powers(A), minimal, args.tol)
    _emit(reports if isinstance(payload, list) else reports[0])
    return _EXIT_OK


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod
    try:
        data = bounds_mod.GlobalData(
            chi=args.chi, vol=args.vol, S=args.S, weylL2=args.weyl_l2,
            c=args.c, A2avg=args.a2avg, scalSign=args.scal_sign)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    report: dict = {"thresholds": bounds_mod.weyl_threshold_report(data, tol=args.tol)}
    report["f_lower_bound"] = bounds_mod.f_lower_bound(data.chi / data.vol)
    if data.S is not None:
        low, high = bounds_mod.euler_integrand_bounds(data.S, data.c)
        report["euler_integrand_bounds"] = {"low": low, "high": high}
    if args.chi % 2 == 0:
        vb = bounds_mod.volume_hypothesis_bounds(args.chi)
        report["volume_hypothesis"] = {
            "bound": vb.bound, "exceeds_16_3": vb.exceeds_16_3, "note": vb.note}
    if data.A2avg is not None:
        try:
            quad = bounds_mod.s_quadratic(data.c, data.chi, data.vol, data.A2avg)
            report["s_quadratic"] = {
                "s": quad.s, "s_minus": quad.s_minus,
                "discriminant": quad.discriminant,
                "warnings": list(quad.warnings),
            }
        except ValueError as exc:
            report["s_quadratic"] = {"error": str(exc)}
    _emit(report)
    violated = any(
        entry["applicable"] and entry["holds"] is False
        for entry in report["thresholds"].values())
    return _EXIT_VIOLATION if violated else _EXIT_OK


def _cmd_integrate(args) -> int:
    from . import immersions
    try:
        imm = immersions.get_immersion(args.geometry)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    try:
        value = immersions.integrate(imm, args.functional, res=args.res, dump=args.dump)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    except OSError as exc:
        raise _InputError(f"cannot write --dump: {exc}") from exc
    _emit({
        "geometry": imm.label,
        "functional": args.functional,
        "res": args.res,
        "value": value,
        "dump": args.dump,
    })
    return _EXIT_OK


def _cmd_verify(args) -> int:
    from . import polyverify
    if not args.all and args.identity is None:
        raise _InputError("verify needs --identity NAME or --all")
    try:
        if args.all:
            results = polyverify.verify_all()
        else:
            results = [polyverify.verify_identity(args.identity)]
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    _emit({"identities": [dataclasses.asdict(r) for r in results],
           "all_passed": all(r.passed for r in results)})
    return _EXIT_OK if all(r.passed for r in results) else _EXIT_VIOLATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercurv",
        description="Curvature invariants of 4-dimensional hypersurfaces in space forms")
    parser.add_argument("--tol", type=float, default=None,
                        help="clustering tolerance of point/classify and threshold tolerance "
                             f"of bounds (default: env {ENV_VAR}, else {CLUSTER_TOL:g})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="full pointwise curvature report")
    p.add_argument("input", help="JSON object/array, a file path, or '-' for stdin")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("classify", help="spectrum classification report")
    p.add_argument("input", help="JSON object/array, a file path, or '-' for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bounds", help="global threshold report")
    p.add_argument("--chi", type=int, required=True, help="Euler characteristic")
    p.add_argument("--vol", type=float, required=True, help="volume (positive)")
    p.add_argument("--S", type=float, default=None, help="constant |A|^2 if known")
    p.add_argument("--weyl-l2", type=float, default=None, help="integral of |W|^2")
    p.add_argument("--c", type=float, default=1.0, help="ambient curvature")
    p.add_argument("--a2avg", type=float, default=None,
                   help="volume-averaged |A^2|^2; enables the S quadratic")
    p.add_argument("--scal-sign", default="unknown",
                   choices=("positive", "zero", "negative", "unknown"),
                   help="sign of the (constant) scalar curvature if known")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("integrate", help="quadrature of a functional over a geometry")
    p.add_argument("--geometry", required=True,
                   help="clifford:4:K (K = 1, 2, 3) or geodesic:4")
    p.add_argument("--functional", default="cgbEuler",
                   help="cgbEuler | weylFunctional | signature | volume "
                        "(aliases: cgb, weyl)")
    p.add_argument("--res", type=int, default=64, help="nodes per chart angle")
    p.add_argument("--dump", default=None, metavar="CSV",
                   help="write per-node rows: chart angles..., integrand, weight")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("verify", help="certify registered identities exactly")
    p.add_argument("--identity", default=None, help="single identity name")
    p.add_argument("--all", action="store_true", help="verify the whole registry")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.tol is None:
        try:
            args.tol = default_tol(CLUSTER_TOL)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_INPUT
    if not 0.0 < args.tol < math.inf:
        print(f"error: --tol must be positive and finite, got {args.tol}", file=sys.stderr)
        return _EXIT_INPUT
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return _EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
