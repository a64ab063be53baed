"""Tests of the benchmark itself: generators, output checks and tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import types
import warnings
from pathlib import Path

import pytest

import checks
import clock
import inputs
import run
import tracing

sys.path.insert(0, str(run.SRC))

from hypercurv import cli, polyverify  # noqa: E402


def _run_cli(tmp_path, command, items) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(items))
    buf = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(buf):
        warnings.simplefilter("ignore")
        assert cli.main([command, str(path)]) == 0
    return buf.getvalue()


# -- generators ---------------------------------------------------------------

def test_point_mixed_is_deterministic_per_seed():
    a = json.dumps(inputs.point_mixed(7, size=400))
    assert a == json.dumps(inputs.point_mixed(7, size=400))
    assert a != json.dumps(inputs.point_mixed(8, size=400))


def test_classify_bulk_is_deterministic_per_seed():
    a = json.dumps(inputs.classify_bulk(7, size=400))
    assert a == json.dumps(inputs.classify_bulk(7, size=400))
    assert a != json.dumps(inputs.classify_bulk(8, size=400))


def test_point_mixed_covers_the_mix():
    batch = inputs.point_mixed(3, size=800)
    assert {item["n"] for item in batch} == {3, 4, 5, 6}
    assert {item["c"] for item in batch} == {-1.0, 0.0, 1.0}
    assert any("A" in item for item in batch) and any("lambda" in item for item in batch)
    assert any(item.get("parallel") for item in batch)
    assert any("nablaA" in item for item in batch)
    for item in batch:
        if item.get("parallel"):
            assert item["c"] == 1.0 and "lambda" in item


def test_classify_bulk_truth_covers_patterns_and_band():
    items, truth = inputs.classify_bulk(3, size=2000)
    assert len(items) == len(truth)
    partitions = {tuple(sorted(t[1])) for t in truth if t}
    assert {(1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)} <= partitions
    assert 0.02 < sum(t is None for t in truth) / len(truth) < 0.08


# -- output checks ------------------------------------------------------------

@pytest.fixture(scope="module")
def point_case(tmp_path_factory):
    batch = inputs.point_mixed(11, size=200)
    text = _run_cli(tmp_path_factory.mktemp("point"), "point", batch)
    return batch, text


def _corrupt(text, edit):
    out = json.loads(text)
    edit(out)
    return json.dumps(out)


def _first_n4(out):
    return next(rep for rep in out if rep["n"] == 4)


def test_point_check_accepts_library_output(point_case):
    batch, text = point_case
    classified, confident = checks.check_point(text, batch)
    assert classified == sum(item["n"] == 4 for item in batch)
    assert 0 < confident <= classified


@pytest.mark.parametrize("edit", [
    lambda out: _first_n4(out)["norms"].__setitem__("Wsq", _first_n4(out)["norms"]["Wsq"] * 1.001 + 1e-3),
    lambda out: _first_n4(out).__setitem__("cgb_integrand", _first_n4(out)["cgb_integrand"] + 1e-3),
    lambda out: _first_n4(out).__setitem__("signature_integrand", 1e-3),
    lambda out: out.pop(),
], ids=["Wsq", "cgb", "signature", "missing-item"])
def test_point_check_catches_corruption(point_case, edit):
    batch, text = point_case
    with pytest.raises(checks.CheckFailed):
        checks.check_point(_corrupt(text, edit), batch)


def test_point_check_rejects_nan_tokens(point_case):
    batch, text = point_case
    bad = _corrupt(text, lambda out: _first_n4(out).__setitem__("scal", math.nan))
    assert "NaN" in bad
    with pytest.raises(checks.CheckFailed):
        checks.check_point(bad, batch)


@pytest.fixture(scope="module")
def classify_case(tmp_path_factory):
    items, truth = inputs.classify_bulk(11, size=600)
    text = _run_cli(tmp_path_factory.mktemp("classify"), "classify", items)
    return truth, text


def test_classify_check_accepts_library_output(classify_case):
    truth, text = classify_case
    answers, confident = checks.check_classify(text, truth)
    assert answers == len(truth)
    assert sum(t is not None for t in truth) >= confident > 0.8 * answers


def test_classify_check_catches_flipped_w(classify_case):
    truth, text = classify_case
    k = next(i for i, rep in enumerate(json.loads(text)) if not rep["indeterminate"])
    bad = _corrupt(text, lambda out: out[k].__setitem__("w", 4 - out[k]["w"]))
    with pytest.raises(checks.CheckFailed):
        checks.check_classify(bad, truth)


def test_classify_check_catches_confident_band_item(classify_case):
    truth, text = classify_case
    k = truth.index(None)
    bad = _corrupt(text, lambda out: out[k].__setitem__("indeterminate", False))
    with pytest.raises(checks.CheckFailed):
        checks.check_classify(bad, truth)


def _certify_text(passed=(True,) * 12):
    return json.dumps({"identities": [{"passed": p} for p in passed],
                       "all_passed": all(passed)})


def test_certify_check():
    control = polyverify.verify_record(polyverify.corrupted_normWpm_record())
    assert checks.check_certify(_certify_text(), 12, control) == (13, 13)
    with pytest.raises(checks.CheckFailed):
        checks.check_certify(_certify_text((True,) * 11 + (False,)), 12, control)
    with pytest.raises(checks.CheckFailed):
        checks.check_certify(_certify_text(), 12, types.SimpleNamespace(passed=True, witness=None))
    wrong = types.SimpleNamespace(passed=False, witness={"point": ("0", "1", "0", "0")})
    with pytest.raises(checks.CheckFailed):
        checks.check_certify(_certify_text(), 12, wrong)


def test_quadrature_check():
    geometries = inputs.QUADRATURE
    assert checks.check_quadrature([1e-7, 4.0, 2.0 - 7e-5], geometries) == (3, 3)
    for bad in ([0.0, 4.0, 2.01], [0.0, math.nan, 2.0], [0.0, 4.0]):
        with pytest.raises(checks.CheckFailed):
            checks.check_quadrature(bad, geometries)


# -- tracer -------------------------------------------------------------------

def _span(name, start, end, parent, pass_id=0, error=False):
    return [name, start, end, parent, pass_id, error]


def test_self_time_subtracts_direct_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0, error=True),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = tracing.per_pass_totals(spans)
    assert totals[0]["root"] == [1, 3.0, 0]
    assert totals[0]["b"] == [1, 4.0, 1]


def test_layer_medians_count_missing_names_as_zero():
    spans = [_span("f", 0.0, 2.0, -1, 0), _span("f", 3.0, 4.0, -1, 0),
             _span("f", 0.0, 5.0, -1, 1), _span("g", 0.0, 1.0, -1, 1)]
    medians = tracing.layer_medians(spans, [0, 1, 2])
    assert medians["f"] == {"calls": 1, "busy_s": 3.0, "errors": 0}
    assert medians["g"]["calls"] == 0


def test_patched_wraps_and_restores():
    class Owner:
        @classmethod
        def make(cls, x):
            return ("made", x)

    mod = types.SimpleNamespace(f=lambda x: Owner.make(x), boom=lambda: 1 / 0)
    originals = (mod.f, Owner.__dict__["make"])
    tracer = tracing.Tracer()
    targets = [(mod, "f", "mod.f"), (Owner, "make", lambda x: f"Owner.make.{x}"),
               (mod, "boom", "mod.boom")]
    with tracer.patched(targets):
        tracer.pass_id = 5
        assert mod.f(2) == ("made", 2)
        with pytest.raises(ZeroDivisionError):
            mod.boom()
    assert (mod.f, Owner.__dict__["make"]) == originals
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["mod.f", "Owner.make.2", "mod.boom"]
    assert tracer.spans[1][tracing.PARENT] == 0
    assert [s[tracing.PASS] for s in tracer.spans] == [5, 5, 5]
    assert [s[tracing.ERROR] for s in tracer.spans] == [False, False, True]


# -- clock and result format -------------------------------------------------

def test_clock_scales_each_pass_by_the_kernel_runs_around_it():
    clk = clock.Clock.__new__(clock.Clock)
    clk.cals = [0.2, 0.4, 0.3]
    clk.passes = [(0, 1.0), (0, 2.0), (1, 3.0)]
    r = clock.CAL_REF_S
    assert clk.reference() == pytest.approx([r / 0.3, 2 * r / 0.3, 3 * r / 0.35])


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert run.tail([float(i) for i in range(1, 21)]) == (10.5, 50.0)
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(200 / 3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    names = [m["name"] for m in spec["per_layer"] + spec["end_to_end"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
