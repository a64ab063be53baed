"""End-to-end tests of the command line interface (in-process, except one run
that needs a real pipe)."""

import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypercurv import cli, extrinsic, immersions
from hypercurv.extrinsic import NABLA_ORDER


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def _trace_free_nabla(value):
    # flat NABLA_ORDER vector with only the (1, 2, 3) component set; it has
    # no repeated index, so every trace A_iik vanishes
    flat = [0.0] * 20
    flat[NABLA_ORDER.index((1, 2, 3))] = value
    return flat


CLIFFORD22 = json.dumps({"n": 4, "c": 1.0, "lambda": [1.0, 1.0, -1.0, -1.0]})

# Golden outputs pin stdout byte for byte. The verify file was generated by
# the code before the certifier ran on the shipped tensor kernels; the point
# and classify files were regenerated when classification moved onto the
# trace power sums of the shape operator, and the point file again when its
# signature_integrand and scalar_bochner values came to read the certified
# closed forms in place of the tensor route's rounding; the verify file's
# fialkow_form count went from 256 to 36 when the certifier came to compare
# the entries of 6x6 operators.
# classify_golden_in.json covers the five multiplicity patterns, near and
# band gaps, A and lambda input, minimal and mean-curved states.
DATA = pathlib.Path(__file__).parent / "data"
CLASSIFY_ONE = json.dumps({"n": 4, "c": 1.0, "A": [
    [-1.6212914500116016, -0.5461485462310042, 0.11754435342211597, -0.6759282071610884],
    [-0.5461485462310042, 0.7599119549079634, 0.3290378022726832, -0.42951724499752675],
    [0.11754435342211597, 0.3290378022726832, 0.5673071337077791, -0.10531461781210746],
    [-0.6759282071610884, -0.42951724499752675, -0.10531461781210746, 0.2940723613958591]]})


# The warnings each golden run emits, in order: the golden point input has
# two states whose derivative data break the Simons identity.
GOLDEN_WARNINGS = {"point_golden_out.json": [
    f"bach_tensor trace {trace} is not zero; the supplied derivative data violates the "
    "Simons identity" for trace in ("-1.459e+01", "3.732e+02")]}


@pytest.mark.parametrize("argv, golden", [
    (["point", str(DATA / "point_golden_in.json")], "point_golden_out.json"),
    (["verify", "--all"], "verify_all_golden.json"),
    (["classify", str(DATA / "classify_golden_in.json")], "classify_golden_out.json"),
    (["classify", CLASSIFY_ONE], "classify_golden_one_out.json"),
])
def test_output_matches_golden_bytes(capsys, argv, golden):
    # the warnings are part of the output: their count, text and order
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == (DATA / golden).read_text()
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, message) for message in GOLDEN_WARNINGS.get(golden, ())]


def test_point_and_integrate_build_no_weyl_tensor(capsys, monkeypatch):
    # both fields of point that the Weyl tensor used to serve, and the
    # signature functional, read the certified closed forms
    def fail(*args):
        raise AssertionError("the Weyl tensor was built")

    monkeypatch.setattr(extrinsic, "_weyl_raw", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the golden input's two Bach-trace warnings
        code, out, _ = _run(capsys, ["point", str(DATA / "point_golden_in.json")])
    assert (code, out) == (0, (DATA / "point_golden_out.json").read_text())
    chart = dataclasses.replace(immersions.get_immersion("clifford:4:1"), spectrum=None)
    assert immersions.integrate(chart, "signature", res=4) == 0.0


def test_integrate_retired_euler_alias_exits_two(capsys):
    code, out, err = _run(capsys, ["integrate", "--geometry", "clifford:4:2",
                                   "--functional", "euler", "--res", "2"])
    assert (code, out) == (2, "")
    assert err == "error: unknown functional 'euler'\n"


def test_point_clifford_report(capsys):
    code, rep = _run_json(capsys, ["point", CLIFFORD22])
    assert code == 0
    assert rep["n"] == 4
    assert rep["minimal"] is True
    assert rep["S"] == pytest.approx(4.0)
    assert rep["scal"] == pytest.approx(8.0)
    assert rep["norms"]["Wsq"] == pytest.approx(64.0 / 3.0)
    assert rep["norms"]["Wpmsq"] == pytest.approx(32.0 / 3.0)
    assert rep["spectrum"]["m"] == 2
    assert rep["spectrum"]["w"] == 2
    assert rep["spectrum"]["flags"]["einstein"] is True
    assert rep["cgb_integrand"] == pytest.approx(32.0)
    assert rep["signature_integrand"] == pytest.approx(0.0, abs=1e-12)
    assert rep["bochner"] is not None


def test_point_output_is_byte_identical(capsys):
    _, out1, _ = _run(capsys, ["point", CLIFFORD22])
    _, out2, _ = _run(capsys, ["point", CLIFFORD22])
    assert out1 == out2


def test_point_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CLIFFORD22))
    code, rep = _run_json(capsys, ["point", "-"])
    assert code == 0
    assert rep["S"] == pytest.approx(4.0)


def test_point_reads_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(CLIFFORD22)
    code, rep = _run_json(capsys, ["point", str(path)])
    assert code == 0
    assert rep["S"] == pytest.approx(4.0)


def test_point_batch_preserves_order(capsys):
    batch = json.dumps([
        {"n": 4, "c": 1.0, "lambda": [3.0, 0.0, 0.0, 0.0]},
        {"n": 4, "c": 1.0, "lambda": [1.0, 1.0, -1.0, -1.0]},
        {"n": 5, "c": 0.0, "lambda": [1.0, 1.0, 1.0, 1.0, 1.0]},
    ])
    code, reps = _run_json(capsys, ["point", batch])
    assert code == 0
    assert [r["S"] for r in reps] == [pytest.approx(9.0), pytest.approx(4.0),
                                      pytest.approx(5.0)]


def test_point_general_n_omits_dimension_four_blocks(capsys):
    payload = json.dumps({"n": 5, "c": 1.0, "lambda": [1, 1, 1, 1, 1]})
    code, rep = _run_json(capsys, ["point", payload])
    assert code == 0
    assert rep["n"] == 5
    assert "norms" not in rep
    assert "spectrum" not in rep
    assert "bach" not in rep
    assert len(rep["ric"]) == 5


def test_point_bach_matrix_present_with_parallel_flag(capsys):
    payload = json.dumps({"n": 4, "c": 1.0,
                          "lambda": [1.0, 1.0, -1.0, -1.0], "parallel": True})
    code, rep = _run_json(capsys, ["point", payload])
    assert code == 0
    bach = np.asarray(rep["bach"], dtype=float)
    assert bach.shape == (4, 4)
    assert np.abs(bach).max() < 1e-12


def test_point_bach_none_without_derivative_data(capsys):
    code, rep = _run_json(capsys, ["point", CLIFFORD22])
    assert code == 0
    assert rep["bach"] is None


def test_classify_matches_point_spectrum_block(capsys):
    code, cls = _run_json(capsys, ["classify", CLIFFORD22])
    assert code == 0
    _, rep = _run_json(capsys, ["point", CLIFFORD22])
    assert cls == rep["spectrum"]


def test_classify_batch(capsys):
    batch = json.dumps([
        {"n": 4, "c": 1.0, "lambda": [1.0, 1.0, -1.0, -1.0]},
        {"n": 4, "c": 1.0, "lambda": [3.0, 1.0, 1.0, 1.0]},
    ])
    code, reps = _run_json(capsys, ["classify", batch])
    assert code == 0
    assert [r["m"] for r in reps] == [2, 2]
    assert reps[0]["partition"] == [2, 2]
    assert reps[1]["partition"] == [1, 3]


def _mixed_batch():
    rng = np.random.default_rng(5)

    def sym(n, minimal=False):
        M = rng.normal(size=(n, n))
        M = M + M.T
        return (M - np.trace(M) / n * np.eye(n) if minimal else M).tolist()

    root3 = 3.0 ** 0.5
    return [
        {"n": 3, "c": 1.0, "lambda": [0.5, -1.0, 2.0]},
        {"n": 4, "c": 0.0, "A": sym(4)},
        {"n": 5, "c": -1.0, "A": sym(5, minimal=True)},
        {"n": 4, "c": 1.0, "lambda": [1.0, 1.0, -1.0, -1.0], "parallel": True},
        {"n": 6, "c": 0.0, "lambda": [1.0, 2.0, -3.0, 0.5, 0.25, -0.75]},
        {"n": 4, "c": -1.0, "A": sym(4, minimal=True),
         "nablaA": _trace_free_nabla(0.5), "hessS": np.eye(4).tolist()},
        {"n": 4, "c": 1.0, "lambda": [root3, -1 / root3, -1 / root3, -1 / root3],
         "parallel": True},
        {"n": 4, "c": 0.0, "lambda": [2.0, 2.0, 2.0, -1.0]},
        {"n": 3, "c": -1.0, "A": sym(3)},
        {"n": 4, "c": 1.0, "lambda": [0.0, 0.0, 0.0, 0.0], "parallel": True},
        {"n": 4, "c": 1.0, "lambda": [0.75, -0.25, -0.5, 0.0],
         "nablaA": _trace_free_nabla(-1.5), "hessS": np.zeros((4, 4)).tolist()},
    ]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("command", ["point", "classify"])
def test_batch_item_reports_equal_lone_reports(capsys, command):
    # Every batched kernel treats the rows of a batch independently: an
    # item's report, down to the last bit, does not depend on its neighbours.
    batch = [item for item in _mixed_batch() if command == "point" or item["n"] == 4]
    code, out, _ = _run(capsys, [command, json.dumps(batch)])
    assert code == 0
    together = json.loads(out)
    assert len(together) == len(batch)
    for item, report in zip(batch, together):
        code, out, _ = _run(capsys, [command, json.dumps(item)])
        assert code == 0
        assert json.loads(out) == report


def test_point_margins_rest_on_the_norms(capsys):
    # the spectrum block and the norms read one power-sum kernel: on a
    # minimal state each sharp margin is its closed form in the norms' S,
    # A2sq and trA3, bit for bit
    rng = np.random.default_rng(52)
    batch = [{"n": 4, "c": 1.0, "lambda": [1.0, 0.5, -0.25, -1.25]}]
    for _ in range(30):
        M = rng.normal(size=(4, 4)) * rng.choice([1e-2, 1.0, 20.0])
        A = M + M.T
        batch.append({"n": 4, "c": 1.0, "A": (A - np.trace(A) / 4 * np.eye(4)).tolist()})
    code, reports = _run_json(capsys, ["point", json.dumps(batch)])
    assert code == 0
    for report in reports:
        assert report["minimal"]
        norms, margins = report["norms"], report["spectrum"]["margins"]
        S, A2sq, trA3 = norms["S"], norms["A2sq"], norms["trA3"]
        bound = 2 / math.sqrt(12) * S ** 1.5
        assert [margins[key].hex() for key in ("a2_lower", "a2_upper", "tr3_upper", "tr3_lower")] \
            == [v.hex() for v in (A2sq - S * S / 4, 7 / 12 * S * S - A2sq, bound - trA3,
                                  trA3 + bound)]


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("command, bad, line", [
    ("point", {"n": 4, "c": 1.0, "lambda": [1, 2, 3]}, "error: lambda: expected 4 entries, got 3"),
    ("point", {"lambda": [1, -1, 1, -1], "parallel": "false"},
     "error: parallel: expected true or false"),
    ("point", {"A": [[1, 2], [3, 4]]}, "error: A: dimension must be at least 3, got 2"),
    ("classify", {"n": 5, "lambda": [1, 1, 1, 1, 1]},
     "error: spectrum_report supports n = 4 only, got n = 5"),
    ("classify", {"lambda": [1, -1, 1, -1], "c": None}, "error: c: expected JSON numbers"),
    # the numeric checks, which run once per dimension on the stacked states
    ("point", {"lambda": [float(np.nextafter(1e50, np.inf)), 1.0, 1.0, -1.0]},
     "error: lambda: entries must not exceed 1e+50 in magnitude; "
     "invariants of degree up to 6 in them would overflow"),
    ("point", {"A": [[1.0, 1e-3, 0, 0], [0, -1.0, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, -0.5]]},
     "error: A: shape operator must be symmetric"),
    ("classify", {"lambda": [1, 1, -1, -1], "nablaA": _trace_free_nabla(0.5),
                  "hessS": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
     "error: hessS: must be symmetric"),
    ("point", {"lambda": [1, 1, -1, -1], "nablaA": [0.5] + [0.0] * 19},
     "error: nablaA: trace A_iik must equal the H gradient, which vanishes for a minimal "
     "state (max violation 5.000e-01)"),
    ("classify", {"n": 5, "lambda": [1, 1, -1, -1]}, "error: lambda: expected 5 entries, got 4"),
])
def test_one_bad_item_fails_the_batch(capsys, command, bad, line, position):
    good = [item for item in _mixed_batch() if item["n"] == 4 and "nablaA" not in item]
    at = {"first": 0, "middle": len(good) // 2, "last": len(good)}[position]
    batch = good[:at] + [bad] + good[at:]
    code, out, err = _run(capsys, [command, json.dumps(batch)])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == line


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("command, batch, line", [
    # an item failing two checks raises the one PointState runs first: the
    # entry cap of lambda before the shape of nablaA, the shape of hessS
    # before the trace of nablaA, the cap of c before the shape of nablaA
    ("point", [{"lambda": [1e60, 1, 1, -1], "nablaA": [0.0] * 19}],
     "error: lambda: entries must not exceed 1e+50 in magnitude; "
     "invariants of degree up to 6 in them would overflow"),
    ("point", [{"lambda": [1, 1, -1, -1], "nablaA": [0.5] + [0.0] * 19, "hessS": [[1.0]]}],
     "error: hessS: expected shape (4, 4), got (1, 1)"),
    ("point", [{"lambda": [1, 1, -1, -1], "c": 1e60, "nablaA": [0.0] * 19}],
     "error: c: entries must not exceed 1e+50 in magnitude; "
     "invariants of degree up to 6 in them would overflow"),
    # the first failing item wins, whatever the rank of a later item's check
    ("point", [{"lambda": [1, 1, -1, -1], "nablaA": [0.0] * 19}, {"lambda": "x"}],
     "error: nablaA: expected shape (4, 4, 4) or a flat 20-vector, got (19,)"),
    ("point", [{"A": [[1.0, 1e-3, 0, 0], [0, -1.0, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, -0.5]]},
               {"lambda": [1, 2]}],
     "error: A: shape operator must be symmetric"),
    ("classify", [{"n": 5, "lambda": [1] * 5}, {"lambda": "x"}],
     "error: spectrum_report supports n = 4 only, got n = 5"),
    ("classify", [{"lambda": "x"}, {"n": 5, "lambda": [1] * 5}],
     "error: lambda: expected JSON numbers"),
    ("point", [{"A": (np.eye(4) * 1e60).tolist()}, {"lambda": [1e60, 1, 1, -1]}],
     "error: A: entries must not exceed 1e+50 in magnitude; "
     "invariants of degree up to 6 in them would overflow"),
    ("classify", [{"lambda": [1, 1, -1, -1]}, {"n": 5, "lambda": [1] * 5, "hessS": [[1.0]]}],
     "error: hessS: expected shape (5, 5), got (1, 1)"),
    ("classify", [{"lambda": [1, 1, -1, -1]}, {"lambda": [1e60, 1, 1, 1]}, {"lambda": [1, 1, -2]}],
     "error: lambda: entries must not exceed 1e+50 in magnitude; "
     "invariants of degree up to 6 in them would overflow"),
    ("classify", [{"lambda": [1, 1, -1, -1]}, {"lambda": [1, 1, -2]},
                  {"lambda": [1e60, 1, 1, 1]}],
     "error: spectrum_report supports n = 4 only, got n = 3"),
    # the first dimension group fails an early check at a late item, an
    # earlier item of the second group a later check: the earlier item wins
    ("point", [{"lambda": [1, 1, -1, -1]},
               {"n": 5, "lambda": [1] * 5, "hessS": np.eye(5, k=1).tolist()},
               {"lambda": [1e60, 1, 1, -1]}],
     "error: hessS: must be symmetric"),
    ("point", [{"A": np.eye(3).tolist()}, {"lambda": [1, 1, -1, -1], "nablaA": [0.5] + [0.0] * 19},
               {"A": (np.eye(3) * 1e60).tolist()}],
     "error: nablaA: trace A_iik must equal the H gradient, which vanishes for a minimal "
     "state (max violation 5.000e-01)"),
    ("classify", [{"lambda": [1, 1, -1, -1]}, {"lambda": [1, 1, -1, -1], "c": 1e60},
                  {"lambda": [1, 1, -1, -1], "hessS": [[1.0]]}, {"n": 5, "lambda": [1] * 5}],
     "error: c: entries must not exceed 1e+50 in magnitude; "
     "invariants of degree up to 6 in them would overflow"),
])
def test_batch_raises_the_first_items_first_check(capsys, command, batch, line):
    code, out, err = _run(capsys, [command, json.dumps(batch)])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == line


def test_failing_batch_warns_only_up_to_its_failing_check(capsys):
    # the c and S warnings of validation go out in input order for the items
    # before the first failure, and for the failing item itself when its
    # failing check comes after them, as they did item by item
    lam = [1.0, 1.0, -1.0, -1.0]
    asymmetric = np.zeros((4, 4))
    asymmetric[0, 1] = 1.0
    batch = [{"lambda": lam, "c": 2.5}, {"lambda": lam, "c": 3.5, "hessS": asymmetric.tolist()},
             {"lambda": lam, "c": 4.5}]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["point", json.dumps(batch)])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: hessS: must be symmetric"
    assert [str(w.message)[:25] for w in caught] == ["ambient curvature c=2.5 l",
                                                     "ambient curvature c=3.5 l"]


_ABOVE_CAP = float(np.nextafter(1e50, np.inf))
_BELOW_CAP = float(np.nextafter(1e50, 0.0))


def _valid_items(command):
    return [item for item in _mixed_batch() if command == "point" or item["n"] == 4]


@st.composite
def _bad_items(draw):
    """An n = 4 item with one defect, or with an entry at either side of the
    cap; a JSON string "INF" stands for the token 1e999, which decodes to inf."""
    item = {"n": 4, "c": 1.0, "lambda": [1.0, 0.5, -0.25, -1.25],
            "nablaA": _trace_free_nabla(0.5), "hessS": np.eye(4).tolist()}
    if draw(st.booleans()):
        item["A"] = np.diag(item.pop("lambda")).tolist()
    main = "lambda" if "lambda" in item else "A"
    defect = draw(st.sampled_from(["inf", "above", "below", "shape", "n", "asymmetric",
                                   "trace"]))
    field = draw(st.sampled_from([main, "c", "nablaA", "hessS"]))
    if defect in ("inf", "above", "below"):
        value = {"inf": "INF", "above": _ABOVE_CAP, "below": _BELOW_CAP}[defect]
        if field == "c":
            item["c"] = value
        elif field == "nablaA":
            item["nablaA"][draw(st.integers(0, 19))] = value
        elif field == "lambda":
            item["lambda"][draw(st.integers(0, 3))] = value
        else:
            i = draw(st.integers(0, 3))
            item[field][i][i] = value
    elif defect == "shape":
        item[field] = draw(st.sampled_from([[1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]],
                                            [0.0] * 19, np.eye(3).tolist(), np.eye(5).tolist()]))
    elif defect == "n":
        item["n"] = draw(st.sampled_from([3, 5]))
    elif defect == "asymmetric":
        field = draw(st.sampled_from(["A", "hessS"]))
        item.pop("lambda", None)
        item.setdefault("A", np.diag([1.0, 0.5, -0.25, -1.25]).tolist())
        item[field][0][1] += draw(st.sampled_from([1e-6, 1.0]))
    else:
        # nablaA with a nonzero trace A_iik on a minimal state
        item["nablaA"][0] = draw(st.sampled_from([1e-6, 0.5, 3.0]))
    return item


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["point", "classify"]), bad=_bad_items(),
       position=st.floats(0.0, 1.0))
def test_bad_item_fails_its_batch_with_its_own_error_line(capsys, command, bad, position):
    # Validation runs on the whole batch at once; the batch still exits as
    # the item alone does, with the same error line, and a boundary item
    # that passes gets the report it gets alone.
    good = _valid_items(command)
    at = round(position * len(good))

    def run(payload):
        return _run(capsys, [command, json.dumps(payload).replace('"INF"', "1e999")])

    code, out, err = run(bad)
    batch_code, batch_out, batch_err = run(good[:at] + [bad] + good[at:])
    assert batch_code == code
    if code == 2:
        assert out == batch_out == ""
        assert batch_err.splitlines()[-1] == err.splitlines()[-1]
        assert err.splitlines()[-1].startswith("error: ")
    else:
        assert code == 0, err
        assert json.loads(batch_out)[at] == json.loads(out)


@st.composite
def _unusual_items(draw):
    """A valid item of dimension 3 to 6, often with an unusual c (2.5) or
    with entries near 1e5, so that S > 1e8."""
    n = draw(st.integers(3, 6))
    scale = draw(st.sampled_from([1.0, 1e5]))
    lam = [scale * x for x in draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))]
    item = {"c": draw(st.sampled_from([-1.0, 0.0, 1.0, 2.5]))}
    if draw(st.booleans()):
        item["lambda"] = lam
    else:
        item["A"] = np.diag(lam).tolist()
    if draw(st.booleans()):
        item["n"] = n
    return item


def _one_by_one(items):
    """(error text or None, warning texts) of the items through
    PointState.from_dict alone, in order, up to the first that raises."""
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for item in items:
            try:
                extrinsic.PointState.from_dict(item)
            except ValueError as exc:
                error = str(exc)
                break
    return error, [str(w.message) for w in caught]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad=st.lists(_bad_items(), min_size=2, max_size=4),
       good=st.lists(_unusual_items(), min_size=1, max_size=8), data=st.data())
def test_batch_with_several_failures_fails_as_its_items_one_by_one(capsys, bad, good, data):
    # Several bad items among valid ones of n = 3 to 6: the batch, validated
    # in one pass, raises the error the items meet one by one, after the
    # same c and S warnings in the same order; point exits with that line.
    text = json.dumps(data.draw(st.permutations(bad + good))).replace('"INF"', "1e999")
    batch = json.loads(text)
    error, messages = _one_by_one(batch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            extrinsic._validate(batch, extrinsic._json_args)
        except ValueError as exc:
            assert str(exc) == error
        else:
            assert error is None
    assert [str(w.message) for w in caught] == messages
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["point", text])
    assert code == (0 if error is None else 2), err
    if error is not None:
        assert out == ""
        assert err.splitlines()[-1] == f"error: {error}"
    assert [str(w.message) for w in caught
            if not str(w.message).startswith("bach_tensor trace")] == messages


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_batches_build_no_state_per_item(capsys, monkeypatch):
    # point and classify validate a batch as arrays: no PointState is
    # constructed or read from a dict per item
    calls = []
    init, from_dict = extrinsic.PointState.__init__, extrinsic.PointState.from_dict.__func__

    def counted_init(self, *args, **kwargs):
        calls.append("__init__")
        init(self, *args, **kwargs)

    def counted_from_dict(cls, data):
        calls.append("from_dict")
        return from_dict(cls, data)

    monkeypatch.setattr(extrinsic.PointState, "__init__", counted_init)
    monkeypatch.setattr(extrinsic.PointState, "from_dict", classmethod(counted_from_dict))
    for command in ("point", "classify"):
        items = _valid_items(command)
        batch = (items * 50)[:50]
        code, out, _ = _run(capsys, [command, json.dumps(batch)])
        assert code == 0
        assert len(json.loads(out)) == 50
    assert calls == []
    extrinsic.PointState(lam=[1.0, 1.0, -1.0, -1.0])
    extrinsic.PointState.from_dict({"lambda": [1.0, 1.0, -1.0, -1.0]})
    assert calls == ["__init__", "from_dict"]


def test_bounds_euler_integrand_low_reads_the_data_c(capsys):
    # the c = 0 minimal state (-3t, t, t, t) with S = 4 has cgb/8 = -1
    _, rep = _run_json(capsys, ["bounds", "--chi", "2", "--vol", "10", "--S", "4", "--c", "0"])
    assert rep["euler_integrand_bounds"] == {"low": -1.0, "high": 16.0 / 3.0}


def test_bounds_exact_clifford_data_holds(capsys):
    vol = 4.0 * np.pi ** 2
    weyl = (64.0 / 3.0) * np.pi ** 2 * 4.0
    code, rep = _run_json(capsys, [
        "bounds", "--chi", "4", "--vol", f"{vol!r}", "--S", "4.0",
        "--weyl-l2", f"{weyl!r}", "--a2avg", "4.0"])
    assert code == 0
    thresholds = rep["thresholds"]
    assert any(entry["applicable"] and entry.get("equality")
               for entry in thresholds.values())
    assert rep["s_quadratic"]["s"] == pytest.approx(4.0)
    assert rep["euler_integrand_bounds"]["low"] == pytest.approx(0.0)
    assert rep["volume_hypothesis"]["bound"] is not None


def test_bounds_violating_weyl_mass_exits_one(capsys):
    # constant S makes the Clifford-threshold applicable; a Weyl mass far
    # below it must flip the exit code
    vol = 4.0 * np.pi ** 2
    code, rep = _run_json(capsys, [
        "bounds", "--chi", "4", "--vol", f"{vol!r}", "--S", "4.0",
        "--weyl-l2", "100.0"])
    assert code == 1
    assert any(entry["applicable"] and entry["holds"] is False
               for entry in rep["thresholds"].values())


def test_bounds_inapplicable_thresholds_do_not_trip_exit(capsys):
    vol = 4.0 * np.pi ** 2
    code, rep = _run_json(capsys, [
        "bounds", "--chi", "4", "--vol", f"{vol!r}", "--weyl-l2", "100.0"])
    assert code == 0
    assert not any(entry["applicable"] and entry["holds"] is False
                   for entry in rep["thresholds"].values())
    assert rep["thresholds"]["corpinch"]["holds"] is None


def test_bounds_negative_discriminant_reported_inline(capsys):
    code, rep = _run_json(capsys, [
        "bounds", "--chi", "-8", "--vol", "1.0", "--a2avg", "0.0"])
    assert code == 0
    assert "error" in rep["s_quadratic"]


@pytest.mark.parametrize("flag, value", [
    ("--vol", "nan"), ("--S", "inf"), ("--weyl-l2", "nan"), ("--c", "-inf"), ("--a2avg", "nan"),
])
def test_bounds_non_finite_input_exits_two(capsys, flag, value):
    # before the check, --vol nan printed NaN tokens (invalid JSON) and exited 0
    args = {"--chi": "2", "--vol": "1.0", flag: value}
    code, out, err = _run(capsys, ["bounds"] + [f"{k}={v}" for k, v in args.items()])
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("flags, field", [
    (["--S", "1e200"], "S"), (["--vol", "1e-320"], "vol"), (["--a2avg", "1e308"], "A2avg"),
    (["--chi", str(10 ** 400)], "chi"),
])
def test_bounds_beyond_the_entry_cap_exits_two(capsys, flags, field):
    # before the cap these printed Infinity tokens, or died on an int too
    # large for a float
    args = dict(zip(["--chi", "--vol"] + flags[::2], ["2", "1.0"] + flags[1::2]))
    code, out, err = _run(capsys, ["bounds"] + [f"{k}={v}" for k, v in args.items()])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field} must ")


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=reject)


_EDGE_NUMBERS = ["nan", "inf", "-inf", str(10 ** 400), repr(1e50), repr(-1e50),
                 repr(_ABOVE_CAP), repr(_BELOW_CAP), "1e200", "1e308", "1e-320", "5e-324"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chi=st.one_of(st.integers(-12, 12), st.sampled_from(
           [10 ** 50, -10 ** 50, 10 ** 50 + 10 ** 36, 10 ** 400, -10 ** 400])),
       values=st.fixed_dictionaries({}, optional={
           flag: st.one_of(st.sampled_from(_EDGE_NUMBERS), st.floats().map(repr))
           for flag in ("--S", "--weyl-l2", "--c", "--a2avg")}),
       vol=st.one_of(st.sampled_from(_EDGE_NUMBERS), st.floats().map(repr)))
def test_bounds_exits_two_or_emits_strict_json(capsys, chi, values, vol):
    # non-finite values, values at either side of the entry cap and ints
    # too large for a float give an input error or a report of finite numbers
    argv = ["bounds", f"--chi={chi}", f"--vol={vol}"] + [f"{k}={v}" for k, v in values.items()]
    code, out, err = _run(capsys, argv)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")
    else:
        assert code in (0, 1), err
        _strict_json(out)


def test_integrate_euler_characteristic(capsys):
    code, rep = _run_json(capsys, [
        "integrate", "--geometry", "clifford:4:2",
        "--functional", "cgbEuler", "--res", "24"])
    assert code == 0
    assert rep["value"] == pytest.approx(4.0, abs=1e-9)
    assert rep["geometry"] == "clifford:4:2"


def test_integrate_alias_and_dump(capsys, tmp_path):
    dump = tmp_path / "rows.csv"
    code, rep = _run_json(capsys, [
        "integrate", "--geometry", "geodesic:4", "--functional", "cgb",
        "--res", "4", "--dump", str(dump)])
    assert code == 0
    assert rep["dump"] == str(dump)
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 ** 4
    header = lines[0].split(",")
    assert header[-2:] == ["integrand", "weight"]


def test_integrate_dump_to_an_unwritable_path_exits_two(capsys, tmp_path):
    dump = tmp_path / "missing" / "rows.csv"
    code, out, err = _run(capsys, ["integrate", "--geometry", "geodesic:4", "--res", "2",
                                   "--dump", str(dump)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --dump: [Errno 2] No such file or directory: {str(dump)!r}\n"


@pytest.mark.parametrize("command", ["point", "classify"])
@pytest.mark.parametrize("kind", ["directory", "non-UTF-8 file"])
def test_unreadable_input_exits_two(capsys, tmp_path, command, kind):
    path = tmp_path
    if kind != "directory":
        path = tmp_path / "state.json"
        path.write_bytes(b"\xff\xfe" + CLIFFORD22.encode("utf-16-le"))
    code, out, err = _run(capsys, [command, str(path)])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read input {path}: ")


def test_linear_algebra_failure_exits_one(capsys, monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("hypercurv.classify._spectra", fail)
    code, out, err = _run(capsys, ["classify", CLIFFORD22])
    assert (code, out) == (1, "")
    assert err == "error: linear algebra failure: Eigenvalues did not converge\n"


def test_reader_closing_stdout_early_exits_one_without_traceback(tmp_path):
    # about 130 KB of output, more than a pipe buffer holds: the CLI is still
    # writing when the pipe closes
    path = tmp_path / "big.json"
    path.write_text(json.dumps([{"n": 4, "c": 1.0, "lambda": [1.0, 0.5, -0.5, -1.0]}] * 400))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "hypercurv.cli", "classify", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"["
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert err == b""

def test_verify_all_passes(capsys):
    code, rep = _run_json(capsys, ["verify", "--all"])
    assert code == 0
    assert rep["all_passed"] is True
    assert len(rep["identities"]) == 13
    assert all(r["passed"] for r in rep["identities"])


def test_verify_single_identity(capsys):
    code, rep = _run_json(capsys, ["verify", "--identity", "ricTFsq"])
    assert code == 0
    assert rep["identities"][0]["name"] == "ricTFsq"


@pytest.mark.parametrize("argv", [
    ["point", "{not json"],
    ["point", json.dumps({"n": 4, "c": 1.0})],
    ["point", json.dumps({"n": 4, "c": 1.0, "lambda": [1, 2, 3, 4],
                          "A": [[1, 0, 0, 0], [0, 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, 1]]})],
    ["classify", json.dumps({"n": 4, "lambda": [1, 2, 3]})],
    ["point", '{"n": 4, "c": 1.0, "lambda": [NaN, 1, 1, 1]}'],
    ["point", '{"n": 4, "c": 1.0, "lambda": [Infinity, 1, 1, -1]}'],
    ["point", '{"n": 4, "c": -Infinity, "lambda": [1, 1, -1, -1]}'],
    ["point", '{"n": 4, "c": 1.0, "lambda": [1e999, 1, 1, -1]}'],
    ["classify", '{"n": 4, "lambda": [NaN, 1, 1, 1]}'],
    ["classify", '{"n": 4, "lambda": [Infinity, 1, 1, -1]}'],
    ["classify", '[{"n": 4, "lambda": [1, 1, -1, -1]}, {"n": 4, "lambda": [-Infinity, 1, 1, 1]}]'],
    ["integrate", "--geometry", "torus:7"],
    # a geodesic label takes at most ':n', an m4 label no field
    ["integrate", "--geometry", "geodesic:4:5"],
    ["integrate", "--geometry", "s4:4:1"],
    ["integrate", "--geometry", "m4:junk"],
    ["integrate", "--geometry", "clifford:4:2", "--functional", "nope"],
    ["verify"],
    ["verify", "--identity", "not_registered"],
    ["--tol", "-1.0", "verify", "--all"],
    # finite magnitudes whose degree-6 invariants overflow float64
    ["point", '{"n": 4, "c": 1.0, "lambda": [1e160, 1, 1, -1]}'],
    ["point", '{"n": 4, "c": 1.0, "lambda": [1e100, 1, 1, -1]}'],
    ["point", '{"n": 4, "c": 1.0, "lambda": [1e60, 1, 1, -1]}'],
    ["classify", '{"n": 4, "lambda": [1e160, 1, 1, -1]}'],
    ["point", json.dumps({"n": 4, "c": 1.0, "A": (np.eye(4) * 1e60).tolist()})],
    # c, nablaA and hessS share the 1e50 cap of A and lambda
    ["point", '{"n": 4, "c": 1e200, "lambda": [1, 1, -1, -1]}'],
    ["point", json.dumps({"n": 4, "c": 1.0, "lambda": [1, 1, -1, -1],
                          "nablaA": _trace_free_nabla(1e200), "hessS": np.zeros((4, 4)).tolist()})],
    ["point", json.dumps({"n": 4, "c": 1.0, "lambda": [1, 1, -1, -1],
                          "nablaA": _trace_free_nabla(0.0), "hessS": (np.eye(4) * 1e200).tolist()})],
    ["--tol", "nan", "classify", json.dumps({"n": 4, "lambda": [1, 2, 3, 4]})],
    ["--tol", "inf", "classify", json.dumps({"n": 4, "lambda": [1, 2, 3, 4]})],
    # wrongly typed JSON fields: a string is not the boolean false, bools
    # and strings are not numbers, and n must match the size of A
    ["point", '{"lambda": [1, -1, 1, -1], "parallel": "false"}'],
    ["point", '{"lambda": [1, -1, 1, -1], "c": null}'],
    ["classify", '{"lambda": [1, -1, 1, -1], "c": null}'],
    ["point", '{"lambda": [1, -1, 1, -1], "c": [1]}'],
    ["classify", '{"lambda": [1, -1, 1, -1], "c": [1]}'],
    ["point", '{"lambda": {"a": 1, "b": -1, "c": 1, "d": -1}}'],
    ["classify", '{"lambda": {"a": 1, "b": -1, "c": 1, "d": -1}}'],
    ["point", '{"lambda": [1, -1, 1, -1], "nablaA": {"x": 1}}'],
    ["classify", '{"lambda": [1, -1, 1, -1], "nablaA": {"x": 1}}'],
    ["point", '{"lambda": ["4", -1, 1, -1]}'],
    ["point", '{"lambda": [1, -1, 1, -1], "c": true}'],
    ["classify", '{"lambda": [true, -1, 1, -1]}'],
    ["point", json.dumps({"A": np.eye(4).tolist(), "n": 5})],
    ["point", '{"lambda": [1%s, 1, -1, -1]}' % ("0" * 400)],
])
def test_input_errors_exit_two(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize("payload", ["[1]", '[{"lambda": [1, 1, -1, -1]}, 3]'],
                         ids=["lone", "in-batch"])
def test_non_object_item_exits_two(capsys, payload):
    code, out, err = _run(capsys, ["point", payload])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: point state: expected a JSON object"


_VALID_STATES = (
    {"n": 4, "c": 1.0, "lambda": [1.0, 1.0, -1.0, -1.0], "parallel": False,
     "nablaA": _trace_free_nabla(0.5), "hessS": np.eye(4).tolist()},
    {"n": 4, "c": -1.0, "A": [[1.0, 0.5, 0.0, 0.0], [0.5, -1.0, 0.0, 0.0],
                               [0.0, 0.0, 0.25, 0.0], [0.0, 0.0, 0.0, -0.25]],
     "parallel": True, "nablaA": _trace_free_nabla(-1.0), "hessS": np.zeros((4, 4)).tolist()},
)
_FIELDS = ("c", "n", "parallel", "lambda", "A", "nablaA", "hessS")
_OTHER_JSON = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.none(), st.text(max_size=2)),
             max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=3),
    st.floats(min_value=float(np.nextafter(1e50, np.inf)), max_value=1e52),
)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["point", "classify"]), base=st.sampled_from(_VALID_STATES),
       field=st.sampled_from(_FIELDS), value=_OTHER_JSON, in_batch=st.booleans())
def test_malformed_field_exits_two_or_emits_strict_json(capsys, command, base, field,
                                                        value, in_batch):
    # One field of a valid state replaced by a JSON value of another type,
    # alone or as one bad item in a batch: either an input error or a
    # report in strict JSON, never a traceback.
    bad = dict(base, **{field: value})
    payload = [base, bad, base] if in_batch else bad
    code, out, err = _run(capsys, [command, json.dumps(payload)])

    def reject(token):
        raise AssertionError(f"non-finite JSON token {token}")

    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert code == 0, err
        json.loads(out, parse_constant=reject)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_point_at_the_scale_cap_emits_finite_json(capsys):
    state = {"n": 4, "c": 1e50, "lambda": [1e50, 1e50, -1e50, -1e50],
             "nablaA": _trace_free_nabla(1e50), "hessS": (np.eye(4) * 1e50).tolist()}
    code, out, err = _run(capsys, ["point", json.dumps(state)])
    assert code == 0

    def reject(token):
        raise AssertionError(f"non-finite JSON token {token}")

    rep = json.loads(out, parse_constant=reject)
    assert isinstance(rep["cgb_integrand"], float)
    assert isinstance(rep["bochner"]["simons"], float)
    assert np.isfinite(rep["bach"]).all()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_point_derivative_kernel_rows_at_the_scale_cap_emit_finite_json(capsys):
    # The Bach and Bochner kernel runs on every n = 4 row, also those the
    # reports leave unavailable: a non-minimal parallel row, a non-minimal
    # row with hessS only, and a minimal row with nablaA and hessS, all at
    # the entry cap. pytest turns any overflow RuntimeWarning into an error.
    a = 9.99e49
    full = np.random.default_rng(7).uniform(-a, a, size=(4, 4))
    batch = [
        {"n": 4, "c": 1.0, "lambda": [a, a / 2, -0.3 * a, 0.9 * a], "parallel": True},
        {"n": 4, "c": 1.0, "A": (0.5 * (full + full.T)).tolist(), "hessS": np.eye(4).tolist()},
        {"n": 4, "c": 1.0, "lambda": [a, a, -a, -a], "nablaA": _trace_free_nabla(a),
         "hessS": (np.eye(4) * a).tolist()},
    ]
    code, out, err = _run(capsys, ["point", json.dumps(batch)])
    assert code == 0, err

    def reject(token):
        raise AssertionError(f"non-finite JSON token {token}")

    reports = json.loads(out, parse_constant=reject)
    assert [rep["bach"] is None for rep in reports] == [True, True, False]
    assert [set(rep["bochner"].values()) == {"unavailable"} for rep in reports] == [
        True, True, False]


@pytest.mark.parametrize("value", ["not-a-float", "0", "-1e-3", "nan", "inf"])
def test_env_tolerance_must_parse(capsys, monkeypatch, value):
    monkeypatch.setenv("HYPERCURV_TOL", value)
    code, out, err = _run(capsys, ["verify", "--all"])
    assert code == 2
    assert "HYPERCURV_TOL" in err


def test_env_tolerance_applies_to_clustering(capsys, monkeypatch):
    near = json.dumps({"n": 4, "c": 1.0,
                       "lambda": [1.0, 1.0 + 1e-6, -1.0, -1.0 - 1e-6]})
    code, rep = _run_json(capsys, ["classify", near])
    assert rep["m"] == 4
    monkeypatch.setenv("HYPERCURV_TOL", "1e-4")
    code, rep = _run_json(capsys, ["classify", near])
    assert code == 0
    assert rep["m"] == 2


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["point"], 2), (["nosuch"], 2),
                                        (["--tol", "x", "classify", "{}"], 2)])
def test_parser_is_built_once_and_answers_alike_each_call(capsys, argv, code):
    assert cli._build_parser() is cli._build_parser()
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        seen.append((info.value.code, capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][0] == code and seen[0][1].out + seen[0][1].err
