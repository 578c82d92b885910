import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest
from test_artifacts import PINNED

from cartanflow import dynamics, generate_closure, linalg, random_edge_field
from cartanflow.cli import SUPPORT_ALIASES, build_parser, main, survey
from cartanflow.complexes import MAX_FACET_VERTICES
from cartanflow.fields import FIELD_KINDS


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
    (["verify", "--n", "5", "--m", "8", "--seed", "3", "--field", "edge-random",
      "--support", "-1"], None),
    (["spectrum"], '{"facets": 5}'),
    (["spectrum"], '{"facets": [[1, "a"]]}'),
    (["spectrum"], '{"facets": [[1, 2'),
    (["spectrum"], '{"facets": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]]}'),
    (["evolve", "--n", "4", "--m", "4", "--time", "nan"], None),
    (["gen", "--n", "4", "--m", "4", "--seed", "-1"], None),
    (["verify", "--n", "4", "--m", "4", "--seed", "-1"], None),
    (["survey", "--trials", "1", "--n", "4", "--m", "4", "--seed", "-1"], None),
    (["deform", "--n", "4", "--m", "4", "--time", "inf", "--steps", "10"], None),
    # vertex labels are JSON integers only, never coerced from floats, bools or strings
    (["spectrum"], '{"facets": [[1, 2], [2, 3.5]]}'),
    (["spectrum"], '{"facets": [[true, 2]]}'),
    (["spectrum"], '{"facets": ["12"]}'),
    # neither a complex file nor generator parameters
    (["spectrum", "--n", "0", "--m", "4"], None),
    (["spectrum"], None),
    (["verify", "--n", "5", "--m", "8", "--support", "1,x"], None),
    (["verify", "--n", "5", "--m", "8", "--support", ""], None),
    (["whitney", "--edges", "1-x"], None),
    (["survey", "--trials", "1", "--n", "4", "--m", "4", "--tol", "-1"], None),
    (["verify", "--n", "4", "--m", "4", "--field", "sparsified", "--p", "1.5"], None),
    (["spectrum"], '{"edges": [[1, 2]]}'),
    (["spectrum"], '{"simplices": []}'),
    (["spectrum"], '[1, 2]'),
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


def test_deform_blowup_on_first_step_exits_1_in_both_formats(capsys):
    argv = ["deform", "--n", "4", "--m", "3", "--time", "1e300", "--steps", "1000"]
    # record every warning: the overflow of a blow-up must not leak to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(argv, capsys)
        assert code == 1
        assert out == "step,u,v\n0,2,\n"
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 1
    assert [str(w.message) for w in caught] == []

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    summary = json.loads(out, parse_constant=reject)
    assert summary["aborted"] is True
    assert summary["diagnostics"]["d_squared_norm"] is None


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
    assert report["version"] == 2
    assert all(chk["pass"] for chk in report["checks"] if not chk.get("informational"))
    names = [chk["name"] for chk in report["checks"]]
    assert len(names) == len(set(names))
    assert {"d_squared_zero", "mckean_singer", "euler_poincare"} <= set(names)
    # each check appears once, in the top-level list
    assert "checks" not in report["data"]
    assert set(report["data"]) == {"betti", "algebraic_kernel", "chi_f", "chi_betti",
                                   "per_degree_spectra"}


def test_verify_support_degree_the_complex_lacks_contributes_nothing(capsys):
    def report(support):
        code, out, _ = run(["verify", "--n", "5", "--m", "8", "--seed", "3",
                            "--field", "edge-random", "--support", support], capsys)
        assert code == 0
        data = json.loads(out)
        del data["config"]["support"]
        return data

    assert report("99") == report("0")
    assert report("1,99") == report("1")
    assert report("99") != report("1")


def test_support_aliases_cover_every_degree_within_the_size_cap():
    degrees = tuple(range(MAX_FACET_VERTICES))
    assert SUPPORT_ALIASES["all"] == degrees
    assert SUPPORT_ALIASES["odd"] == degrees[1::2]
    assert SUPPORT_ALIASES["even"] == degrees[0::2]
    # a 11-vertex facet: 2047 simplices of dimension 10
    c = generate_closure([range(1, 12)])
    assert c.dimension == 10
    deg = c.degrees()
    for alias, acted_on in [("all", range(1, 11)), ("even", range(2, 11, 2)),
                            ("odd", range(1, 11, 2))]:
        _, cols = np.nonzero(random_edge_field(c, 0, SUPPORT_ALIASES[alias]).matrix)
        assert set(deg[cols].tolist()) == set(acted_on), alias


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


def test_verify_exit_code_agrees_with_report_over_ladder_shapes(capsys):
    """In one process: exit 0 or 1, JSON stdout, and 1 exactly when a judged check fails."""
    shapes = [(5, 8), (6, 6), (6, 7), (7, 5)]
    for (n, m), kind, integer, seed in itertools.product(
            shapes, FIELD_KINDS, (False, True), range(10)):
        argv = ["verify", "--n", str(n), "--m", str(m), "--seed", str(seed), "--field", kind]
        argv += ["--integer-coeffs"] if integer else []
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        failing = [chk["name"] for chk in report["checks"]
                   if not chk["pass"] and not chk.get("informational")]
        assert code == (1 if failing else 0), (argv, code, failing)
        data = report["data"]
        chi = sum((-1) ** p * a for p, a in enumerate(data["algebraic_kernel"]))
        (ep,) = [chk for chk in report["checks"] if chk["name"] == "euler_poincare"]
        assert data["chi_betti"] == chi, argv
        assert ep["residual"] == abs(data["chi_f"] - chi), argv


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    pinned = dict(PINNED)
    verify = "verify --n 5 --m 8 --seed 3 --field adjoint"
    fresh_help = build_parser.__wrapped__().format_help()

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    for _ in range(2):
        assert run(["--help"], capsys)[:2] == (0, fresh_help)
        code, out, err = run(["verify", "--badflag"], capsys)
        assert (code, out) == (2, "") and "--badflag" in err
        for argv in (verify + " --integer-coeffs", verify):
            code, out, _ = run(argv.split(), capsys)
            assert code == 0 and digest(out) == pinned[argv], argv
        report = tmp_path / "report.json"
        assert run(verify.split() + ["--out", str(report)], capsys)[:2] == (0, "")
        assert digest(report.read_text()) == pinned[verify]
        code, out, _ = run(verify.split(), capsys)
        assert code == 0 and digest(out) == pinned[verify]


@pytest.mark.parametrize("n, m", [(6, 10), (7, 12)])
def test_verify_at_zero_tol_passes_true_identities(n, m, capsys):
    # float i_Y leaves residuals near 1e-15; every verdict is a certificate, so tol 0 passes
    for seed, kind in itertools.product(range(5), FIELD_KINDS):
        code, out, _ = run(["verify", "--n", str(n), "--m", str(m), "--seed", str(seed),
                            "--field", kind, "--tol", "0"], capsys)
        assert code == 0, [chk for chk in json.loads(out)["checks"] if not chk["pass"]]


@pytest.mark.parametrize("field, noted", [("sparsified", True), ("adjoint", False)])
def test_evolve_notes_the_equation_when_i_x_squared_is_nonzero(field, noted, capsys):
    code, out, err = run(["evolve", "--n", "5", "--m", "8", "--seed", "3",
                          "--field", field, "--support", "all"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 102
    note = "note: i_X^2 != 0, so this solves f'' = -D_X^2 f, not f'' = -L_X f\n"
    assert (note in err) == noted
