import json
import os
import pathlib
import subprocess
import sys
import xml.dom.minidom

import jsonschema
import pytest

import jacmate
from jacmate.certificate import CERTIFICATE_SCHEMA
from jacmate.cli import run_command

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_reports_edges(capsys):
    code, out, _ = run(capsys, "analyze", "x + x^2 + x^3*y + y^2 + x^3*y^2 + x*y^3")
    assert code == 0
    data = json.loads(out)
    assert len(data["outer_edges"]) == 4
    assert [e["slope"] for e in data["right_outer_edges"]] == ["-1", "0", "2"]


def test_certify_positive_exit_code(capsys):
    code, out, _ = run(capsys, "certify", "y + x*y^2 + y^4")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, CERTIFICATE_SCHEMA)
    assert data["conclusion"] == "NO_REAL_JACOBIAN_MATE"


def test_certify_not_covered_exit_code(capsys):
    code, out, _ = run(capsys, "certify", "x^2 + y^2")
    assert code == 1
    data = json.loads(out)
    assert data["conclusion"] == "NOT_COVERED"


def test_certify_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "certify", "x +")
    assert code == 2
    assert "offset 3" in err


def test_certify_rejects_swap_when_disabled(capsys):
    code, out, _ = run(capsys, "certify", "x + x^2*y", "--no-swap")
    assert code == 1
    assert json.loads(out)["conclusion"] == "NOT_COVERED"
    code, out, _ = run(capsys, "certify", "x + x^2*y")
    assert code == 0


def test_certify_no_swap_trials_warn(capsys):
    # the trials summary follows the document's criterion, decided once
    code, out, _ = run(capsys, "certify", "x + x^2*y", "--no-swap", "--falsify", "2")
    assert code == 1
    data = json.loads(out)
    assert data["conclusion"] == "NOT_COVERED"
    assert data["falsifier_summary"]["certified_input"] is False
    assert data["falsifier_summary"]["warning"] is not None


@pytest.mark.parametrize(
    "poly, golden",
    [
        ("x + x^2*y", "swap_tongue_falsify3_seed7.json"),
        ("y - (x^2 - 4*x + 6)*y^2", "planted_tongue_falsify3_seed7.json"),
        ("y + x*y^2 + y^4", "family_y_xy2_y4_tongue_falsify3_seed7.json"),
        ("y + x*y^3", "family_y_xy3_tongue_falsify3_seed7.json"),
        ("y + y^2 + x*y^3", "family_y_y2_xy3_tongue_falsify3_seed7.json"),
        ("y + x^2*y^2", "family_y_x2y2_tongue_falsify3_seed7.json"),
        ("y + y^3 + x^2*y^2", "family_y_y3_x2y2_tongue_falsify3_seed7.json"),
        ("y + y^2 + y^3 + x^2*y^2", "family_y_y2_y3_x2y2_tongue_falsify3_seed7.json"),
    ],
    ids=[
        "swap", "planted",
        "y_xy2_y4", "y_xy3", "y_y2_xy3", "y_x2y2", "y_y3_x2y2", "y_y2_y3_x2y2",
    ],
)
def test_certify_matches_golden(capsys, poly, golden):
    # a fixed seed gives byte-identical certificates across refactors
    code, out, _ = run(
        capsys, "certify", poly, "--tongue", "--falsify", "3", "--seed", "7"
    )
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_falsify_miss_matches_golden(capsys):
    # a miss over all 11 boxes: its min_record floats pin the float evaluator
    code, out, _ = run(capsys, "falsify", "x", "--q", "y + y^3 + x^2*y")
    assert code == 1
    assert out == (GOLDEN / "falsify_miss_x_q_y_y3_x2y.json").read_text(encoding="utf-8")


def test_certify_degenerate_sampler_is_an_input_error(capsys):
    # every candidate mate of a constant has an identically zero Jacobian
    code, out, err = run(capsys, "certify", "1", "--falsify", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_certify_does_not_import_sympy():
    # sympy is a test-only oracle: a fresh interpreter certifies without it
    script = (
        "import sys; from jacmate.cli import run_command; "
        "code = run_command(['certify', 'y + x^2*y^2', '--tongue', '--falsify', '2']); "
        "assert 'sympy' not in sys.modules, 'sympy imported'; sys.exit(code)"
    )
    src = str(pathlib.Path(jacmate.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tongue"]["status"] == "Verified"


def test_certify_with_tongue_and_falsifier(tmp_path, capsys):
    out_json = tmp_path / "cert.json"
    out_svg = tmp_path / "poly.svg"
    code, out, _ = run(
        capsys,
        "certify", "y + x^2*y^2",
        "--tongue", "--falsify", "3",
        "--json", str(out_json), "--svg", str(out_svg),
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    jsonschema.validate(data, CERTIFICATE_SCHEMA)
    assert data["tongue"]["status"] == "Verified"
    assert len(data["falsifier_trials"]) == 3
    xml.dom.minidom.parse(str(out_svg))
    assert json.loads(out) == data


def test_certify_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "certify", "y + x^2*y^2", "--falsify", "2")
    code2, out2, _ = run(capsys, "certify", "y + x^2*y^2", "--falsify", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_file_input(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("y + x*y^2 + y^4\n")
    code, out, _ = run(capsys, "certify", "@" + str(path))
    assert code == 0
    assert json.loads(out)["conclusion"] == "NO_REAL_JACOBIAN_MATE"


def test_missing_file_input(capsys):
    code, _, err = run(capsys, "certify", "@/nonexistent/poly.txt")
    assert code == 2
    assert err


def test_branch_csv(capsys):
    code, out, _ = run(capsys, "branch", "y + x^2*y^2", "--x-end", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,residual"
    first = lines[1].split(",")
    assert float(first[0]) == 10.0
    assert float(first[1]) == pytest.approx(-0.01, rel=1e-6)


def test_branch_edge_selection(capsys):
    poly = "(x*y - 1)*(x^2*y - 1)"
    code0, out0, _ = run(capsys, "branch", poly, "--edge", "0", "--x-end", "50")
    code1, out1, _ = run(capsys, "branch", poly, "--edge", "1", "--x-end", "50")
    assert code0 == code1 == 0
    y0 = float(out0.strip().splitlines()[1].split(",")[1])
    y1 = float(out1.strip().splitlines()[1].split(",")[1])
    assert y0 == pytest.approx(0.01, rel=1e-6)
    assert y1 == pytest.approx(0.1, rel=1e-6)


def test_branch_edge_out_of_range(capsys):
    code, _, err = run(capsys, "branch", "y + x^2*y^2", "--edge", "5")
    assert code == 2
    assert err


def test_branch_without_right_edges(capsys):
    code, _, err = run(capsys, "branch", "x + 1")
    assert code == 1
    assert err


def test_tongue_verified(tmp_path, capsys):
    out_json = tmp_path / "tongue.json"
    out_svg = tmp_path / "tongue.svg"
    code, out, _ = run(
        capsys,
        "tongue", "y + x^2*y^2", "--x-max", "50",
        "--json", str(out_json), "--svg", str(out_svg),
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["status"] == "Verified"
    assert data["region"]["t0"] == "1/8"
    assert len(data["levels"]["records"]) == 30
    xml.dom.minidom.parse(str(out_svg))


def test_tongue_uncovered_input_fails(capsys):
    code, out, _ = run(capsys, "tongue", "x^2 + y^2")
    assert code == 1
    assert json.loads(out)["status"] == "Failed"


def test_falsify_witness_exit_zero(capsys):
    code, out, _ = run(capsys, "falsify", "y + x*y^2 + y^4", "--q", "x")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "witness"
    assert abs(data["jac_exact"]) <= 1e-5


def test_falsify_miss_exit_one(capsys):
    code, out, _ = run(capsys, "falsify", "x", "--q", "y")
    assert code == 1
    data = json.loads(out)
    assert data["outcome"] == "min_record"
    assert data["best_abs_jac"] == 1.0
    assert data["boxes_searched"] == 11


def test_render_polygon_stdout(capsys):
    code, out, _ = run(capsys, "render", "y + x*y^2 + y^4")
    assert code == 0
    assert out.startswith("<svg")
    xml.dom.minidom.parseString(out)


def test_render_tongue_to_file(tmp_path, capsys):
    out_svg = tmp_path / "r.svg"
    code, _, _ = run(
        capsys, "render", "y + x^2*y^2", "--what", "tongue", "--x-max", "50",
        "--out", str(out_svg),
    )
    assert code == 0
    xml.dom.minidom.parse(str(out_svg))


def test_unknown_subcommand(capsys):
    assert run_command(["frobnicate", "x"]) == 2


def test_no_arguments(capsys):
    assert run_command([]) == 2
