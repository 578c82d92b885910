import json

import pytest

from cartanflow import dynamics, linalg
from cartanflow.cli import main, survey


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--n", "6", "--m", "10", "--seed", "7", "--out", str(a)]) == 0
    assert main(["gen", "--n", "6", "--m", "10", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_whitney_c4(tmp_path, capsys):
    code, out, _ = run(["whitney", "--edges", "1-2", "2-3", "3-4", "4-1"], capsys)
    assert code == 0
    assert len(json.loads(out)["simplices"]) == 8


def test_bad_flag_exits_2(capsys):
    assert main(["--badflag"]) == 2


def test_unknown_field_kind_exits_2(capsys):
    code = main(["spectrum", "--n", "4", "--m", "4", "--field", "nope"])
    assert code == 2


@pytest.mark.parametrize("argv, complex_text", [
    (["evolve", "--n", "4", "--m", "4", "--steps", "0"], None),
    (["deform", "--n", "4", "--m", "4", "--steps", "0"], None),
    (["deform", "--n", "4", "--m", "4", "--steps", "1"], None),
    (["survey", "--trials", "0", "--n", "4", "--m", "4"], None),
    (["verify", "--n", "4", "--m", "4", "--tol", "nan"], None),
    (["spectrum"], '{"facets": 5}'),
    (["spectrum"], '{"facets": [[1, "a"]]}'),
    (["spectrum"], '{"facets": [[1, 2'),
    (["spectrum"], '{"facets": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]]}'),
    (["evolve", "--n", "4", "--m", "4", "--time", "nan"], None),
    (["gen", "--n", "4", "--m", "4", "--seed", "-1"], None),
    (["verify", "--n", "4", "--m", "4", "--seed", "-1"], None),
    (["survey", "--trials", "1", "--n", "4", "--m", "4", "--seed", "-1"], None),
])
def test_bad_input_exits_2_with_error(argv, complex_text, tmp_path, capsys):
    if complex_text is not None:
        path = tmp_path / "c.json"
        path.write_text(complex_text)
        argv = argv + ["--complex", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_deform_one_step_csv_names_steps(capsys):
    code, _, err = run(["deform", "--n", "4", "--m", "4", "--steps", "1"], capsys)
    assert code == 2
    assert "--steps" in err
    code, out, _ = run(["deform", "--n", "4", "--m", "4", "--steps", "1",
                        "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["steps"] == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_deform_blowup_on_first_step_exits_1_in_both_formats(capsys):
    argv = ["deform", "--n", "4", "--m", "3", "--time", "1e300", "--steps", "1000"]
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert out == "step,u,v\n0,2,\n"
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 1
    assert '"aborted": true' in out


def test_missing_complex_file_exits_2(capsys):
    code, _, err = run(["spectrum", "--complex", "/nonexistent.json"], capsys)
    assert code == 2
    assert "error" in err


def test_spectrum_c4_deterministic(tmp_path, capsys):
    c4 = tmp_path / "c4.json"
    assert main(["whitney", "--edges", "1-2", "2-3", "3-4", "4-1",
                 "--out", str(c4)]) == 0
    code, out, _ = run(
        ["spectrum", "--complex", str(c4), "--field", "deterministic"], capsys
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "re,im"
    assert len(rows) == 9
    values = sorted(float(r.split(",")[0]) for r in rows[1:])
    assert values == pytest.approx([0, 0, 1, 1, 1, 1, 2, 2], abs=1e-7)


def test_verify_random_odd_field_passes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["verify", "--n", "6", "--m", "10", "--seed", "1",
                 "--field", "edge-random", "--support", "odd",
                 "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["version"] == 1
    assert all(chk["pass"] for chk in report["checks"] if not chk.get("informational"))
    names = {chk["name"] for chk in report["checks"]}
    assert {"d_squared_zero", "mckean_singer", "euler_poincare"} <= names


@pytest.mark.parametrize("seed", range(20))
def test_verify_default_field_passes_lie_algebra_relation(seed, capsys):
    # adjoint i_X is integer, the random i_Y is not: the relation holds to roundoff
    code, out, _ = run(["verify", "--n", "7", "--m", "10", "--seed", str(seed)], capsys)
    checks = {chk["name"]: chk for chk in json.loads(out)["checks"]}
    assert checks["lie_algebra_relation"]["pass"], checks["lie_algebra_relation"]
    assert code == 0


def test_verify_byte_identical_reports(tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert main(["verify", "--n", "5", "--m", "8", "--seed", "3",
                     "--field", "edge-random", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_evolve_writes_trajectory(tmp_path):
    c4 = tmp_path / "c4.json"
    main(["whitney", "--edges", "1-2", "2-3", "3-4", "4-1", "--out", str(c4)])
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--complex", str(c4), "--field", "adjoint",
                 "--time", "1.0", "--steps", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("t,re0,im0")


def test_evolve_computes_one_propagator(monkeypatch, capsys):
    calls = []

    def counting(a):
        calls.append(a)
        return linalg.matrix_exponential(a)

    monkeypatch.setattr(dynamics, "matrix_exponential", counting)
    code, out, _ = run(["evolve", "--n", "6", "--m", "8", "--seed", "1",
                        "--steps", "20"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 22
    assert len(calls) == 1


def test_deform_csv_and_json(tmp_path):
    c4 = tmp_path / "c4.json"
    main(["whitney", "--edges", "1-2", "2-3", "3-4", "4-1", "--out", str(c4)])
    csv_out = tmp_path / "d.csv"
    code = main(["deform", "--complex", str(c4), "--field", "adjoint",
                 "--steps", "50", "--time", "0.5", "--out", str(csv_out)])
    assert code == 0
    assert csv_out.read_text().startswith("step,u,v")
    json_out = tmp_path / "d.json"
    code = main(["deform", "--complex", str(c4), "--field", "adjoint",
                 "--steps", "50", "--time", "0.5", "--format", "json",
                 "--out", str(json_out)])
    assert code == 0
    summary = json.loads(json_out.read_text())
    assert summary["diagnostics"]["d_squared_norm"] <= 1e-6


def test_survey_zero_field_all_integer():
    result = survey(4, 5, 8, "zero", 11)
    assert result["integer_spectrum_fraction"] == 1.0
    assert result["real_spectrum_fraction"] == 1.0


def test_survey_integer_coeffs_deterministic():
    a = survey(5, 5, 8, "edge-random", 42, integer_coeffs=True)
    b = survey(5, 5, 8, "edge-random", 42, integer_coeffs=True)
    assert a == b
    assert sum(a["value_range_histogram"].values()) > 0


def test_survey_adjoint_on_fixture_is_integer(tmp_path, capsys):
    code, out, _ = run(["survey", "--trials", "3", "--n", "4", "--m", "6",
                        "--seed", "2", "--field", "adjoint"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["data"]["trials"] == 3
