"""Benchmark of hypercurv: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload point-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client in this process, with no extra
threads, starting a pass only after the previous one returns. The library
is driven only through its public API (``cli.main`` in process with stdout
captured, and public module functions) and sees only the generated inputs.
Every pass is checked (see ``checks.py``); a nonzero exit, an exception or
a failed check fails the pass.

With ``--trace 0`` the last line of stdout is the JSON result with every
end-to-end metric. With ``--trace 1`` untraced and traced passes alternate
and the result holds every per-layer metric, from spans recorded around
the public functions (see ``tracing.py``), plus the tracing overhead. The
line before the result holds the run's provenance and pass-time details;
a traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import clock
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("point-mixed", "classify-bulk", "certify", "quadrature")
MIN_PASSES = 3
SETUP_REPEATS = 7

# Functions wrapped in a traced run, named <module>.<function> after the
# module that defines them.
EXTRINSIC_TRACED = ("gauss_equations", "closed_form_norms", "cgb_integrand",
                    "signature_integrand", "weyl_tensor", "bach_tensor", "bochner_residuals")
LAMBDA2_TRACED = ("star_weyl", "inner", "triple")
TRACED = (("cli.main", "extrinsic.PointState", "extrinsic.PointState.from_dict")
          + tuple(f"extrinsic.{f}" for f in EXTRINSIC_TRACED)
          + tuple(f"lambda2.{f}" for f in LAMBDA2_TRACED)
          + ("classify.spectrum_report", "immersions.integrate",
             "immersions.numeric_second_fundamental_form", "polyverify.verify_record"))
# The CLI's self time is its parse, dispatch and emit.
BUSY_NAME = {"cli.main": "cli.self_s"}
IDENTITIES = ("normWpm_generalH", "normW_generalH", "ricTFsq", "cgb_consistency",
              "fialkow_form", "cubic_contraction_minimal", "cubic_half_relation",
              "weyl_quadratic_split", "harmweyl_equality_form", "generalN_weylnorm",
              "strict_harmweyl_rhs", "lcf_trace6", "normWpm_corrupted")
COUNTERS = (("cli.output_bytes", "B"), ("extrinsic.warnings", "count"),
            ("classify.indeterminate", "count"), ("immersions.nodes", "count"),
            ("immersions.quad_abs_err", "1"))


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for fn in TRACED:
        spec.append((f"{fn}.calls", "count", "lower"))
        if fn != "polyverify.verify_record":
            spec.append((BUSY_NAME.get(fn, f"{fn}.busy_s"), "s", "lower"))
        spec.append((f"{fn}.errors", "count", "lower"))
    for ident in IDENTITIES:
        spec.append((f"polyverify.verify_record.{ident}.busy_s", "s", "lower"))
        for stat in ("components", "terms", "max_degree"):
            spec.append((f"polyverify.verify_record.{ident}.{stat}", "count", "lower"))
    spec += [(name, unit, "lower") for name, unit in COUNTERS]
    spec += [(f"trace.{name}", "s", "lower")
             for name in ("overhead_s", "pass_s_traced", "pass_s_untraced")]
    return spec


END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("pass_s_p50", "s"),
              ("pass_s_tail", "s"), ("peak_rss_mb", "MiB"), ("ok_ratio", "1"),
              ("confident_ratio", "1"))


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclasses.dataclass
class Outcome:
    """What one pass returned: exit code, captured stdout, warnings, extra data."""

    rc: int
    text: str = ""
    warnings: int = 0
    extra: object = None


@dataclasses.dataclass
class Workload:
    """Items per pass, the pass itself, its output check and its per-pass counters."""

    items: int
    run: object
    check: object
    counters: object


def load_library():
    init = SRC / "hypercurv" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no hypercurv source at {init}")
    sys.path.insert(0, str(SRC))
    import hypercurv
    from hypercurv import classify, cli, extrinsic, immersions, polyverify
    if Path(hypercurv.__file__).resolve() != init.resolve():
        raise BenchError(f"hypercurv was imported from {hypercurv.__file__}, not {init}")
    return types.SimpleNamespace(hypercurv=hypercurv, cli=cli, extrinsic=extrinsic,
                                 classify=classify, immersions=immersions,
                                 polyverify=polyverify)


def _write_input(name: str, data) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(data))
    return str(path)


def _cli_call(cli, argv) -> Outcome:
    buf = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    return Outcome(rc, buf.getvalue(), len(caught))


def _sliced(cli, command: str, items: list, pass_size: int, check) -> Workload:
    """A CLI batch workload whose passes cycle through slices of ``items``.

    ``check(text, start, stop)`` checks the output of ``items[start:stop]``.
    """
    starts = range(0, len(items), pass_size)
    paths = [_write_input(f"{command}-{k}.json", items[i:i + pass_size])
             for k, i in enumerate(starts)]
    order = itertools.cycle(range(len(paths)))

    def run():
        k = next(order)
        out = _cli_call(cli, [command, paths[k]])
        out.extra = starts[k]
        return out

    return Workload(
        items=pass_size, run=run,
        check=lambda o: check(o.text, o.extra, o.extra + pass_size),
        counters=lambda o, answers, confident: {
            "cli.output_bytes": len(o.text), "extrinsic.warnings": o.warnings,
            "classify.indeterminate": answers - confident})


def prepare(name: str, seed: int, lib) -> Workload:
    """Generate the workload's inputs from the seed and bind its pass and check."""
    cli, immersions, polyverify = lib.cli, lib.immersions, lib.polyverify
    if name == "point-mixed":
        batch = inputs.point_mixed(seed)
        return _sliced(cli, "point", batch, inputs.POINT_MIXED_PASS,
                       lambda text, i, j: checks.check_point(text, batch[i:j]))
    if name == "classify-bulk":
        items, truth = inputs.classify_bulk(seed)
        return _sliced(cli, "classify", items, inputs.CLASSIFY_BULK_PASS,
                       lambda text, i, j: checks.check_classify(text, truth[i:j]))
    if name == "certify":
        identities = len(polyverify.REGISTRY)

        def run():
            out = _cli_call(cli, ["verify", "--all"])
            out.extra = polyverify.verify_record(polyverify.corrupted_normWpm_record())
            return out

        return Workload(
            items=identities + 1, run=run,
            check=lambda o: checks.check_certify(o.text, identities, o.extra),
            counters=lambda o, answers, confident: {"cli.output_bytes": len(o.text)})
    if name == "quadrature":
        geometries = inputs.QUADRATURE
        res = inputs.QUADRATURE_RES
        nodes = sum(int(np.prod([len(n) for n in immersions.build_grid(
            immersions.get_immersion(label), res).nodes])) for label, _ in geometries)

        def run():
            values = [immersions.integrate(
                dataclasses.replace(immersions.get_immersion(label), spectrum=None),
                "cgbEuler", res=res) for label, _ in geometries]
            return Outcome(0, extra=values)

        return Workload(
            items=nodes, run=run,
            check=lambda o: checks.check_quadrature(o.extra, geometries),
            counters=lambda o, answers, confident: {
                "immersions.nodes": nodes,
                "immersions.quad_abs_err": checks.quad_abs_err(o.extra, geometries)})
    raise BenchError(f"unknown workload {name!r}; choose from {WORKLOADS} or 'all'")


def trace_targets(lib) -> list:
    """(owner, attribute, span name) at the attribute each caller looks up."""
    cli, extrinsic, immersions = lib.cli, lib.extrinsic, lib.immersions
    return ([(cli, "main", "cli.main"),
             (extrinsic.PointState, "from_dict", "extrinsic.PointState.from_dict")]
            + [(extrinsic, f, f"extrinsic.{f}") for f in EXTRINSIC_TRACED]
            + [(extrinsic, f, f"lambda2.{f}") for f in LAMBDA2_TRACED]
            + [(lib.classify, "spectrum_report", "classify.spectrum_report"),
               (immersions, "integrate", "immersions.integrate"),
               (immersions, "numeric_second_fundamental_form",
                "immersions.numeric_second_fundamental_form"),
               (immersions, "PointState", "extrinsic.PointState"),
               (immersions, "cgb_integrand", "extrinsic.cgb_integrand"),
               (lib.polyverify, "verify_record",
                lambda record: f"polyverify.verify_record.{record.name}")])


@dataclasses.dataclass
class Passes:
    """Pass counts, and pass times in reference seconds and in wall seconds."""

    attempted: int = 0
    failed: int = 0
    answers: int = 0
    confident: int = 0
    times: dict = dataclasses.field(default_factory=lambda: {False: [], True: []})
    walls: dict = dataclasses.field(default_factory=lambda: {False: [], True: []})
    counters: list = dataclasses.field(default_factory=list)


def measure(wl: Workload, seconds: float, tracer=None, targets=()) -> Passes:
    """One warm-up pass, then passes until ``seconds`` have elapsed.

    With a tracer, passes alternate untraced and traced, and the traced
    ones record spans and counters.
    """
    res = Passes()
    clk = clock.Clock()
    timed = []

    def one(index: int, traced: bool) -> float:
        res.attempted += 1
        patch = tracer.patched(targets) if traced else contextlib.nullcontext()
        # each pass starts from the same collector state; the benchmark's own
        # inputs and ground truth were frozen out of collection in run_workload
        gc.collect()
        t0 = perf_counter()
        try:
            with patch:
                if traced:
                    tracer.pass_id = index
                outcome, pass_id, wall = clk.time(wl.run)
            if outcome.rc != 0:
                raise checks.CheckFailed(f"exit code {outcome.rc}")
            answers, confident = wl.check(outcome)
        except Exception:
            res.failed += 1
            print(f"pass {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return perf_counter() - t0
        if index >= 0:
            timed.append((traced, pass_id))
            res.walls[traced].append(wall)
            res.answers += answers
            res.confident += confident
            if traced:
                res.counters.append(wl.counters(outcome, answers, confident))
        return perf_counter() - t0

    one(-1, False)
    start = perf_counter()
    index = 0
    while True:
        last = one(index, tracer is not None and index % 2 == 1)
        index += 1
        if index >= MIN_PASSES and perf_counter() - start + last > seconds:
            break
    ref = clk.reference()
    for traced, pass_id in timed:
        res.times[traced].append(ref[pass_id])
    return res


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    Up to 20 samples no percentile above the median has ten beyond it, and
    the median is reported as the 50th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup() -> dict:
    """Fresh interpreters importing hypercurv.cli, in reference and wall seconds.

    Each import runs between two fresh interpreters importing only numpy
    and is scaled by their reference time over the mean of those two.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    numpy_only = [spawn("import numpy")]
    walls = []
    for _ in range(SETUP_REPEATS):
        walls.append(spawn("import hypercurv.cli"))
        numpy_only.append(spawn("import numpy"))
    ref = [wall * clock.NUMPY_START_REF_S / (0.5 * (numpy_only[k] + numpy_only[k + 1]))
           for k, wall in enumerate(walls)]
    return {"ref": ref, "wall": walls, "numpy_only": numpy_only}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def provenance(lib) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hypercurv": lib.hypercurv.__version__,
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def end_to_end(wl: Workload, passes: Passes, setup: dict) -> dict:
    times = passes.times[False]
    p50 = statistics.median(times)
    tail_value, _ = tail(times)
    values = {
        "setup_s": statistics.median(setup["ref"]),
        "items_per_s": wl.items / p50,
        "pass_s_p50": p50,
        "pass_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (passes.attempted - passes.failed) / passes.attempted,
        "confident_ratio": passes.confident / max(passes.answers, 1),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def certificate_sizes(polyverify) -> dict:
    """Components, terms and top degree of each record's (lhs, rhs) pairs."""
    sizes = {}
    for record in list(polyverify.REGISTRY.values()) + [polyverify.corrupted_normWpm_record()]:
        pairs = record.build()
        sizes[record.name] = {
            "components": len(pairs),
            "terms": sum(len(lhs.terms) + len(rhs.terms) for lhs, rhs in pairs),
            "max_degree": max(max(lhs.degree(), rhs.degree()) for lhs, rhs in pairs),
        }
    return sizes


def per_layer(name: str, passes: Passes, tracer: tracing.Tracer, lib) -> dict:
    traced_ids = sorted({span[tracing.PASS] for span in tracer.spans})
    layers = tracing.layer_medians(tracer.spans, traced_ids)
    values = {}
    for fn in TRACED:
        if fn == "polyverify.verify_record":
            rows = [row for span, row in layers.items() if span.startswith(fn + ".")]
            values[f"{fn}.calls"] = sum(r["calls"] for r in rows)
            values[f"{fn}.errors"] = sum(r["errors"] for r in rows)
            continue
        row = layers.get(fn, {"calls": 0, "busy_s": 0.0, "errors": 0})
        values[f"{fn}.calls"] = row["calls"]
        values[BUSY_NAME.get(fn, f"{fn}.busy_s")] = row["busy_s"]
        values[f"{fn}.errors"] = row["errors"]
    sizes = certificate_sizes(lib.polyverify) if name == "certify" else {}
    for ident in IDENTITIES:
        key = f"polyverify.verify_record.{ident}"
        values[f"{key}.busy_s"] = layers.get(key, {"busy_s": 0.0})["busy_s"]
        for stat in ("components", "terms", "max_degree"):
            values[f"{key}.{stat}"] = sizes.get(ident, {}).get(stat, 0)
    for counter, _ in COUNTERS:
        values[counter] = statistics.median(c.get(counter, 0) for c in passes.counters)
    traced = statistics.median(passes.times[True])
    untraced = statistics.median(passes.times[False])
    values["trace.overhead_s"] = traced - untraced
    values["trace.pass_s_traced"] = traced
    values["trace.pass_s_untraced"] = untraced
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit, _ in per_layer_spec()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, lib) -> dict:
    wl = prepare(name, seed, lib)
    gc.collect()
    gc.freeze()
    details = {"workload": name, "seed": seed, "trace": int(trace), "provenance": provenance(lib)}
    if trace:
        tracer = tracing.Tracer()
        passes = measure(wl, seconds, tracer, trace_targets(lib))
        ok = passes.counters and passes.times[False]
        metrics = per_layer(name, passes, tracer, lib) if ok else {}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                                     "pass", "error"],
                                          "spans": tracer.spans}))
        details["spans"] = str(spans_path.relative_to(ROOT))
    else:
        setup = measure_setup()
        passes = measure(wl, seconds)
        metrics = end_to_end(wl, passes, setup) if passes.times[False] else {}
        details["setup_s"] = setup
    times = passes.times[False]
    details["pass_s"] = {"untraced": times, "traced": passes.times[True],
                         "untraced_wall": passes.walls[False], "traced_wall": passes.walls[True]}
    if times:
        details["tail"] = {"percentile": tail(times)[1], "samples": len(times)}
    print(json.dumps(details))
    return {"correct": passes.failed == 0 and bool(metrics), "attempted": passes.attempted,
            "failed": passes.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = load_library()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), lib)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
