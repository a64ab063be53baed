"""End-to-end tests of the command line interface (in-process)."""

import io
import json

import numpy as np
import pytest

from hypercurv import cli


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


CLIFFORD22 = json.dumps({"n": 4, "c": 1.0, "lambda": [1.0, 1.0, -1.0, -1.0]})


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


def test_verify_all_passes(capsys):
    code, rep = _run_json(capsys, ["verify", "--all"])
    assert code == 0
    assert rep["all_passed"] is True
    assert len(rep["identities"]) == 12
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
    ["integrate", "--geometry", "torus:7"],
    ["integrate", "--geometry", "clifford:4:2", "--functional", "nope"],
    ["verify"],
    ["verify", "--identity", "not_registered"],
    ["--tol", "-1.0", "verify", "--all"],
])
def test_input_errors_exit_two(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert "error" in err.lower()


def test_env_tolerance_must_parse(capsys, monkeypatch):
    monkeypatch.setenv("HYPERCURV_TOL", "not-a-float")
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
