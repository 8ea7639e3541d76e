import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import xml.dom.minidom
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jacmate
from jacmate import cli
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


@pytest.mark.parametrize("text", ["x^\u00b2", "\u0663*y + x"])
def test_a_non_ascii_digit_is_an_input_error(capsys, text):
    # only 0-9 are digits: the superscript two and the Arabic-Indic three
    # are characters no token may hold
    code, out, err = run(capsys, "analyze", text)
    assert (code, out) == (2, "")
    assert err.startswith("input error: unexpected character") and "Traceback" not in err


def test_a_long_literal_is_reported_before_a_syntax_error(capsys):
    # every token is converted before the descent: the literal past the
    # int-to-string limit is the first error, though "x y" comes before it
    code, _, err = run(capsys, "analyze", "x y " + "9" * 5000)
    assert code == 2
    assert err.startswith("error: Exceeds the limit")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{deep}"],
        ["certify", "--tongue", "--falsify", "1", "{deep}"],
        ["falsify", "{deep}", "--q", "y"],
        ["falsify", "x", "--q", "{deep}"],
        ["tongue", "{deep}"],
        ["branch", "{deep}"],
        ["render", "{deep}", "--what", "tongue"],
    ],
)
def test_nesting_past_the_cap_is_an_input_error_on_every_path(capsys, argv):
    # 500 levels once ended in a RecursionError traceback with exit 1
    deep = "(" * 500 + "y" + ")" * 500
    code, out, err = run(capsys, *(a.replace("{deep}", deep) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: parentheses nested 201 deep") and "Traceback" not in err


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
        (
            "y + x^7*y^9 + y^10 + x^3*y^5 + x^2*y^7 + x*y^6",
            "high_degree_tongue_falsify3_seed7.json",
        ),
    ],
    ids=[
        "swap", "planted",
        "y_xy2_y4", "y_xy3", "y_y2_xy3", "y_x2y2", "y_y3_x2y2", "y_y2_y3_x2y2",
        "high_degree",
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
    # Jac = 1 + 3y^2 + x^2: a proved miss pins the sign, the exact bound and
    # the polynomials shown root-free, and searches no box
    code, out, _ = run(capsys, "falsify", "x", "--q", "y + y^3 + x^2*y")
    assert code == 1
    assert out == (GOLDEN / "falsify_miss_x_q_y_y3_x2y.json").read_text(encoding="utf-8")


def test_falsify_slice_hit_matches_golden(capsys):
    # Jac = -(1 + 2xy + 4y^3): on x = 0 a sign change between the probes -1
    # and 0, bisected to a bracket; |Jac| is read off that line's row
    code, out, _ = run(capsys, "falsify", "y + x*y^2 + y^4", "--q", "x")
    assert code == 0
    assert out.encode() == (GOLDEN / "falsify_hit_y_xy2_y4_q_x.json").read_bytes()


def test_falsify_pinchuk_miss_matches_golden(capsys, pinchuk):
    # Jac(P, Q) > 0 on R^2 and the proof is refused on its budget: a miss
    # over all 11 boxes, each with a descent that cannot succeed; the texts
    # are Pinchuk's pair, and Q starts with a minus sign
    p_text, q_text = (
        (GOLDEN / f"pinchuk_{v}.txt").read_text(encoding="utf-8").strip() for v in "pq"
    )
    assert (p_text, q_text) == tuple(map(str, pinchuk[:2]))
    code, out, _ = run(capsys, "falsify", f"--q={q_text}", "--", p_text)
    assert code == 1
    assert out.encode() == (GOLDEN / "falsify_miss_pinchuk.json").read_bytes()


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        # right and non-right outer edges, a non-right slope written as None
        (
            ("analyze", "x + x^2 + x^3*y + y^2 + x^3*y^2 + x*y^3"),
            0,
            "analyze_four_edge.json",
        ),
        (("branch", "y + x^2*y^2", "--x-end", "100"), 0, "branch_y_x2y2_xend100.csv"),
        # a degree-30 slice at every sample: each y is its root's nearest double
        (("branch", "y + x^40*y^30 + x^11*y^17 - 5*y^21"), 0, "branch_y_x40y30_default.csv"),
        # no witness edge: every criterion field read off it is null
        (("certify", "y + x^2*y^2 + 5"), 1, "certify_not_covered_y_x2y2_5.json"),
        # Jac = x^200 + 1, over the proof's degree cap: a miss over all 11
        # boxes, which pins the grid's argmin and the exact |Jac| there
        (("falsify", "1/201*x^201 + x", "--q", "y"), 1, "falsify_grid_miss_x201_q_y.json"),
        # Jac = y^255 - 3 * 2^62 * y^254 - 1: one sign change, in (2^63, 2^64),
        # halved past the degree where the pair is tested for one root; the
        # bracket's float point is no witness, so the grids search too
        (
            ("falsify", "x", "--q", "1/256*y^256 - 13835058055282163712/255*y^255 - y"),
            1,
            "falsify_miss_deg255_root_past_2e63.json",
        ),
    ],
    ids=[
        "analyze", "branch", "branch_x40y30", "not_covered", "falsify_grid_miss",
        "deg255_pair_past_2e63",
    ],
)
def test_output_matches_golden(capsys, argv, code, golden):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (
            ("certify", "x + x^2*y", "--tongue", "--falsify", "3", "--seed", "7"),
            0,
            "swap_tongue_falsify3_seed7.json",
        ),
        # no exact line decides trial 1, q = -x^3 + 3xy^2 - 2xy + 2y + 1:
        # the grid's matrix product runs
        (
            ("certify", "x + x^2*y", "--tongue", "--falsify", "3", "--seed", "42"),
            0,
            "swap_tongue_falsify3_seed42.json",
        ),
        (("falsify", "1/201*x^201 + x", "--q", "y"), 1, "falsify_grid_miss_x201_q_y.json"),
    ],
    ids=["swap", "swap_grid_trial", "falsify_miss"],
)
def test_output_does_not_depend_on_the_blas_thread_count(threads, argv, code, golden):
    # the float grid is one BLAS matrix product, which OpenBLAS may split
    # over threads; a fresh interpreter reads OPENBLAS_NUM_THREADS at import
    src = str(pathlib.Path(jacmate.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "jacmate.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def test_negative_trial_count_is_a_usage_error(capsys):
    # -2 trials is no trial count: argparse refuses it before any work
    code, out, err = run(capsys, "certify", "y + x^2*y^2", "--falsify", "-2")
    assert code == 2
    assert out == ""
    assert "argument --falsify: must be at least 0, got -2" in err
    # 0 trials is no falsifier section, as if the option were left out
    assert run(capsys, "certify", "y + x^2*y^2", "--falsify", "0") == run(
        capsys, "certify", "y + x^2*y^2"
    )


def test_trial_count_over_the_cap_is_a_usage_error(capsys):
    # one trial past the cap: argparse refuses the count, naming the cap,
    # before any work
    code, out, err = run(capsys, "certify", "y + x^2*y^2", "--falsify", "1001")
    assert code == 2
    assert out == ""
    assert "argument --falsify: exceeds the cap of 1000 trials, got 1001" in err
    # 10^8 trials would run for about a day; refused at once
    src = str(pathlib.Path(jacmate.__file__).parents[1])
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "jacmate.cli", "certify", "y + x^2*y^2", "--falsify", "100000000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert time.perf_counter() - started < 2.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds the cap of 1000 trials, got 100000000" in proc.stderr


def test_certify_degenerate_sampler_is_an_input_error(capsys):
    # every candidate mate of a constant has an identically zero Jacobian
    code, out, err = run(capsys, "certify", "1", "--falsify", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_input_over_the_degree_cap_exits_2_fast():
    # exact evaluation of x^1000000 in the falsifier's revalidation ran
    # unbounded; the parser now refuses the power before building it
    src = str(pathlib.Path(jacmate.__file__).parents[1])
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "jacmate.cli", "certify", "x^1000000*y", "--falsify", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert time.perf_counter() - started < 2.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def _fresh_interpreter(script, *argv):
    src = str(pathlib.Path(jacmate.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )


# runs one command, then reports on stderr whether numpy was loaded and
# which jacmate modules were executed: a layer that is only registered is
# still a lazy module, not a plain one
COLD_START = (
    "import sys, types; from jacmate.cli import run_command; "
    "code = run_command(sys.argv[1:]); "
    "print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr); "
    "print('executed:', *sorted(n[8:] for n, m in sys.modules.items() "
    "if n.startswith('jacmate.') and type(m) is types.ModuleType), file=sys.stderr); "
    "sys.exit(code)"
)

# every verb, and every -h, executes these; the rows add what each one uses
BASE = "cli poly polygon"


@pytest.mark.parametrize(
    "argv, code, numpy_loaded, executed",
    [
        (("analyze", "y + x^2*y^2"), 0, False, ""),
        # input errors: the message, exit 2, and no layer past the polygon
        (("analyze", "0"), 2, False, ""),
        (("analyze", "x^1000000*y"), 2, False, ""),
        (("branch", "y + x^2*y^2"), 0, False, "branches univariate"),
        (("tongue", "y + x^2*y^2"), 0, False, "certificate tongue univariate"),
        (("certify", "y + x^2*y^2"), 0, False, "certificate"),
        (("certify", "y + x^2*y^2", "-h"), 0, False, ""),
        (("certify", "y + x^2*y^2", "--svg", os.devnull), 0, False, "certificate render"),
        (("certify", "y + x^2*y^2", "--tongue"), 0, False, "certificate tongue univariate"),
        (("falsify", "x", "--q", "y"), 1, False, "certificate falsifier univariate"),
        (("falsify", "1/201*x^201 + x", "--q", "y"), 1, True, "certificate falsifier univariate"),
        (("falsify", "y + x*y^2 + y^4", "--q", "x"), 0, False, "certificate falsifier univariate"),
        (("certify", "y + x^2*y^2", "--falsify", "2"), 0, False,
         "certificate falsifier univariate"),
        (("certify", "y + x^2*y^2", "--tongue", "--falsify", "2"), 0, False,
         "certificate falsifier tongue univariate"),
        (("render", "y + x^2*y^2", "--what", "tongue"), 0, False, "render tongue univariate"),
        (("render", "y + x^2*y^2", "--what", "polygon"), 0, False, "render"),
    ],
    ids=[
        "analyze", "analyze_zero", "analyze_over_degree_cap", "branch", "tongue", "certify",
        "certify_help", "certify_svg", "certify_tongue", "falsify", "falsify_grid_miss",
        "falsify_slice_hit", "certify_falsify", "certify_tongue_falsify", "render_tongue",
        "render_polygon",
    ],
)
def test_only_float_work_imports_numpy(capsys, argv, code, numpy_loaded, executed):
    # numpy serves only the falsifier's grids: a fresh interpreter answers
    # the exact commands and draws without paying for its import, and loads
    # it on demand for the float search, with the usual output; searches
    # that an exact slice or the miss proof decides never reach the grids.
    # Each command executes only the layers it uses (the cli docstring)
    proc = _fresh_interpreter(COLD_START, *argv)
    assert proc.returncode == code, proc.stderr
    layers = " ".join(sorted(f"{BASE} {executed}".split()))
    _, out, err = run(capsys, *argv)
    assert proc.stderr == f"{err}numpy loaded: {numpy_loaded}\nexecuted: {layers}\n"
    assert proc.stdout == out


def test_certify_path_never_imports_the_drawing():
    # the levels are decided exactly: a fresh interpreter certifies the
    # tongue, and runs the falsifier, without loading jacmate.render
    proc = _fresh_interpreter(
        "import sys; from jacmate.cli import run_command; "
        "code = run_command(['certify', 'y + x^2*y^2', '--tongue', '--falsify', '2']); "
        "assert 'jacmate.render' not in sys.modules, 'render imported'; sys.exit(code)"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tongue"]["status"] == "Verified"


def test_cli_import_loads_every_traced_layer():
    # the benchmark's layer trace reads sys.modules["jacmate.<layer>"] for
    # each layer it names, so importing the CLI must register all of them;
    # reading a registered layer's namespace executes it
    perfbench = pathlib.Path(__file__).parents[1] / "perfbench"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from layers import LAYERS; "
        "import jacmate.cli; "
        "missing = [n for n in LAYERS if f'jacmate.{n}' not in sys.modules]; "
        "assert len(LAYERS) == 8 and not missing, missing; "
        "assert 'numpy' not in sys.modules, 'numpy imported'; "
        "assert 'tongue_certificate' in vars(sys.modules['jacmate.tongue'])"
    )
    proc = _fresh_interpreter(script, str(perfbench))
    assert proc.returncode == 0, proc.stderr


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


def test_falsify_reads_both_polynomials_from_files(tmp_path, capsys):
    # --q takes a text or @path, as the polynomial does
    p_path, q_path = tmp_path / "p.txt", tmp_path / "q.txt"
    p_path.write_text("x\n")
    q_path.write_text("y + y^3 + x^2*y\n")
    code, out, err = run(capsys, "falsify", "@" + str(p_path), "--q", "@" + str(q_path))
    assert (code, err) == (1, "")
    assert out.encode() == (GOLDEN / "falsify_miss_x_q_y_y3_x2y.json").read_bytes()
    code, _, err = run(capsys, "falsify", "x", "--q", "@/nonexistent/q.txt")
    assert code == 2 and err.startswith("file error:")


def test_branch_csv(capsys):
    code, out, _ = run(capsys, "branch", "y + x^2*y^2", "--x-end", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,residual"
    first = lines[1].split(",")
    assert float(first[0]) == 10.0
    assert float(first[1]) == pytest.approx(-0.01, rel=1e-6)


def test_branch_residual_is_exact_at_the_float_point(capsys):
    # the 10^30-scale terms cancel in floats, which read |p| ~ 3.6e16 on the
    # first row; the column is the exact |p| there, rounded once
    text = "x*(y^2 - 2)^3*(10^30*y^2 - 2*10^30 - 1)"
    code, out, _ = run(capsys, "branch", text)
    assert code == 0
    p = jacmate.poly.parse_polynomial(text)
    rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert rows[0] == (10.0, -1.4142135623730951, 5.589842309498123e-32)
    for x, y, residual in rows:
        assert residual == float(abs(p.evaluate(x, y)))


def test_branch_residual_past_the_double_range_is_inf(capsys):
    # at x = 1e150, |p| at the float y is about 10^370 exactly: inf, where
    # the float terms read inf - inf = nan
    argv = ("branch", "10^70*y - 10^70*x^2", "--x-start", "1e149", "--x-end", "1e150")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip().splitlines()[-1] == "1e+150,9.999999999999999e+299,inf"


def test_branch_on_an_exactly_isolated_even_root(capsys):
    # the face (2c - 3)^2 isolates 3/2 exactly; the probes beside it confirm
    # the branch y = 3/2, and the trace follows it
    code, out, err = run(capsys, "branch", "(2*y - 3)*(x^2*(2*y - 3) + y^4 + 1)")
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,residual"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.5, abs=0.05)


def test_branch_edge_selection(capsys):
    poly = "(x*y - 1)*(x^2*y - 1)"
    code0, out0, _ = run(capsys, "branch", poly, "--edge", "0", "--x-end", "50")
    code1, out1, _ = run(capsys, "branch", poly, "--edge", "1", "--x-end", "50")
    assert code0 == code1 == 0
    y0 = float(out0.strip().splitlines()[1].split(",")[1])
    y1 = float(out1.strip().splitlines()[1].split(",")[1])
    assert y0 == pytest.approx(0.01, rel=1e-6)
    assert y1 == pytest.approx(0.1, rel=1e-6)


def test_branch_lost_where_no_window_holds_a_root(capsys):
    # the branch y ~ -1/sqrt(x) of x - 1 + y - x^2*y^2 meets y = 0 at x = 1,
    # where the window y_pred * (0.1, 1.9) holds no root: the trace ends
    # there; at x = inf there is no slice to isolate
    code, out, err = run(capsys, "branch", "x - 1 + y - x^2*y^2", "--x-start", "1")
    assert (code, out) == (1, "")
    assert "trace failed: no root of p(x, .) near the predictor at x=1.0" in err
    code, out, err = run(capsys, "branch", "y + x^2*y^2", "--x-end", "inf")
    assert (code, out) == (1, "")
    assert "trace failed: no root of p(x, .) near the predictor at x=inf" in err


@pytest.mark.parametrize("poly", ["y + x^2*y^2", "y^2 - x^3"])
def test_branch_past_the_float_range_fails_without_a_traceback(capsys, poly):
    # at x = 1e300 the slice coefficients of y + x^2*y^2 and the predictor
    # c* x_end^(3/2) of y^2 - x^3 are past the largest float
    code, out, err = run(capsys, "branch", poly, "--x-end", "1e300")
    assert (code, out) == (1, "")
    assert err == "trace failed: the trace left the float range\n"


@pytest.mark.parametrize("flag", ["--x-start", "--x-end"])
def test_branch_with_a_nan_end_is_an_input_error(capsys, flag):
    code, out, err = run(capsys, "branch", "y + x^2*y^2", flag, "nan")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_branch_edge_out_of_range(capsys):
    code, _, err = run(capsys, "branch", "y + x^2*y^2", "--edge", "5")
    assert code == 2
    assert err


def test_branch_root_that_is_not_confirmed_exits_1(capsys):
    # root 1 of (x*y - 1)^2*(x*y + 1) is the real branch xy = 1, but p >= 0
    # on both sides of it, so no sign probe confirms it: the tool ran and
    # could not trace, as without --root, and the input was valid
    code, out, err = run(capsys, "branch", "(x*y - 1)^2*(x*y + 1)", "--root", "1")
    assert (code, out) == (1, "")
    assert err == "root 1 is no confirmed real branch: Inconclusive\n"


def test_branch_without_right_edges(capsys):
    code, _, err = run(capsys, "branch", "x + 1")
    assert code == 1
    assert err


@pytest.mark.parametrize("poly", ["y", "5", "x*y"])
def test_branch_on_one_term_has_no_right_edges(capsys, poly):
    # a one-term polygon is a single point, with no edge at all: the same
    # answer as any other input without a right outer edge
    code, out, err = run(capsys, "branch", poly)
    assert (code, out, err) == (1, "", "error: no right outer edges\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "y + x^2*y^2", "--tongue"],
        ["tongue", "y + x^2*y^2"],
        ["render", "y + x^2*y^2", "--what", "tongue"],
    ],
)
def test_criterion_is_decided_once_per_tongue_document(monkeypatch, capsys, argv):
    # the command decides the criterion and hands it to the region and its
    # branch, which do not decide it again
    decide = jacmate.polygon.corollary_certificate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return decide(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("jacmate") and getattr(module, "corollary_certificate", None) is decide:
            monkeypatch.setattr(module, "corollary_certificate", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "y + x^2*y^2", "--tongue"],
        ["tongue", "y + x^2*y^2"],
        ["render", "y + x^2*y^2", "--what", "tongue"],
    ],
)
def test_tongue_documents_take_no_branch_candidates(monkeypatch, capsys, argv):
    # the region's orientation comes from the witness edge's two
    # coefficients, not from the face's isolated roots
    def unwanted(*args):
        raise AssertionError("branch_candidates called")

    monkeypatch.setattr("jacmate.branches.branch_candidates", unwanted)
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_tongue_verified(tmp_path, capsys):
    out_json = tmp_path / "tongue.json"
    code, out, _ = run(capsys, "tongue", "y + x^2*y^2", "--json", str(out_json))
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["status"] == "Verified"
    assert data["region"]["t0"] == "1/8"
    assert len(data["levels"]["records"]) == 30
    assert json.loads(out) == data


def test_a_fact_past_the_int_string_limit_is_inconclusive(capsys):
    # at x0 = 2 the fact "p > 0 on V" states h(2^-256) for h of degree 256:
    # its denominator has more digits than Python converts to a string,
    # so the levels are Inconclusive, naming that limit, and the process's
    # limit is left as it was
    poly = "y - x^255*y^2 + 2^250*y^2 + 2^250*x^254*y^256"
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "tongue", poly)
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["status"] == "Inconclusive" and doc["region"]["x0"] == "2"
    (reason,) = doc["reasons"]
    assert reason.endswith(f"has over {limit} digits, the str() limit")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("poly", ["y^2 - 2*y", "2*x + 3*x^2"])
def test_shared_factor_tongue_is_inconclusive_not_an_error(capsys, poly):
    # p_x = 0 or p_y = 0 identically: the edge criterion holds on a witness
    # edge (0, 1)-(0, 2), p is free of x there, and the tongue names a = 0
    # at once
    started = time.perf_counter()
    code, out, err = run(capsys, "certify", poly, "--tongue")
    assert (code, err) == (0, "")
    tongue = json.loads(out)["tongue"]
    assert tongue["status"] == "Inconclusive"
    assert tongue["reasons"] == [
        "the witness edge (0, 1)-(0, 2) has a = 0: p is free of x, so no bound decays along V"
    ]
    code, out, err = run(capsys, "tongue", poly)
    assert (code, err) == (1, "")
    assert json.loads(out)["status"] == "Inconclusive"
    assert time.perf_counter() - started < 1.0


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
    assert data["outcome"] == "no_real_zero"
    assert (data["sign"], data["root_free"]) == (1, ["F"])
    # C, the float above the acceptance bound 10 * 1e-6, written exactly
    assert Fraction(data["bound"]) == Fraction(math.nextafter(10 * 1e-6, math.inf))
    assert data["boxes_searched"] == 0


def test_certify_trial_with_a_proved_miss_matches_the_schema(capsys):
    # p = x is not certified; trial 2's mate has q_y = 2x^2 - 2xy + x + 9y^2 + 1
    # > 0, so the miss proof holds and the trial carries it, not a record
    code, out, _ = run(capsys, "certify", "x", "--falsify", "3", "--seed", "7")
    assert code == 1
    data = json.loads(out)
    jsonschema.validate(data, CERTIFICATE_SCHEMA)
    trials = data["falsifier_trials"]
    assert [t["outcome"] for t in trials] == ["witness", "witness", "no_real_zero"]
    assert "min_record" not in trials[2]
    assert trials[2]["no_real_zero"]["boxes_searched"] == 0
    assert data["falsifier_summary"]["witness_rate"] == 2 / 3


@pytest.mark.parametrize(
    "poly, q, want",
    [("y + x*y^2 + y^4", "x", 0), ("x", "y + y^3 + x^2*y", 1)],
    ids=["hit", "miss"],
)
def test_falsify_seed_does_not_change_the_search(capsys, poly, q, want):
    outs = []
    for seed in ("0", "123"):
        code, out, _ = run(capsys, "falsify", poly, "--q", q, "--seed", seed)
        assert code == want
        outs.append(out)
    assert outs[0] == outs[1]


def test_render_polygon_stdout(capsys):
    code, out, _ = run(capsys, "render", "y + x*y^2 + y^4")
    assert code == 0
    assert out.startswith("<svg")
    xml.dom.minidom.parseString(out)


def test_render_tongue_to_file(tmp_path, capsys):
    # the one command that draws the region: byte for byte the golden
    # figure at the automatic right edge, and well-formed at a chosen one
    out_svg = tmp_path / "r.svg"
    code, _, _ = run(capsys, "render", "y + x^2*y^2", "--what", "tongue", "--out", str(out_svg))
    assert code == 0
    assert out_svg.read_bytes() == (GOLDEN / "tongue_family_y_x2y2.svg").read_bytes()
    code, _, _ = run(
        capsys, "render", "y + x^2*y^2", "--what", "tongue", "--x-max", "50",
        "--out", str(out_svg),
    )
    assert code == 0
    xml.dom.minidom.parse(str(out_svg))


@pytest.mark.parametrize("x_max", ["1", "0.5", "inf", "nan"])
def test_render_tongue_needs_a_finite_right_edge_past_x0(capsys, x_max):
    code, out, err = run(capsys, "render", "y + x^2*y^2", "--what", "tongue", "--x-max", x_max)
    assert (code, out) == (2, "")
    assert err == "error: x_max must be finite and exceed x0 = 1\n"


def test_unknown_subcommand(capsys):
    assert run_command(["frobnicate", "x"]) == 2


def test_no_arguments(capsys):
    assert run_command([]) == 2


def test_an_unrecognized_argument_is_reported_by_its_verb(capsys):
    # the verb's own parser reads what follows the verb, so it names itself
    code, out, err = run(capsys, "falsify", "x", "--q", "y", "--bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: jacmate falsify [-h] --q Q")
    assert err.endswith("jacmate falsify: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [["-h"], ["falsify", "-h"], ["falsify", "x", "-h"]])
def test_help_exits_0(capsys, argv):
    # the top-level parser and a verb's each print their help to stdout
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: jacmate")


def test_one_parser_per_process(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "analyze", "y + x^2*y^2")[0] == 0
    assert run(capsys, "falsify", "x", "--q", "y")[0] == 1
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_parser_is_not_built_at_import():
    script = "import jacmate.cli as c; assert c._build_parser.cache_info().currsize == 0"
    src = str(pathlib.Path(jacmate.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_commands_in_a_row_share_no_options(tmp_path, capsys):
    # the reused parser fills a fresh namespace on every call
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "y + x^2*y^2", "--tongue", "--json", str(path))
    assert code == 0
    assert "tongue" in json.loads(out)
    assert json.loads(path.read_text()) == json.loads(out)
    path.unlink()
    code, out, _ = run(capsys, "certify", "y + x^2*y^2")
    assert code == 0
    assert "tongue" not in json.loads(out)
    assert "falsifier_trials" not in json.loads(out)
    assert not path.exists()
    code, out, _ = run(capsys, "certify", "x + x^2*y", "--no-swap")
    assert code == 1
    code, out, _ = run(capsys, "certify", "x + x^2*y")
    assert code == 0


# -- fuzzing the command line with grammar-valid text ----------------------------
#
# Each generated text comes with a bound on its degree; texts of degree at
# most FUZZ_DEGREE keep one falsifier miss, 11 boxes with descents, short.
# The tongue eliminates nothing, so ``--tongue`` runs on every text too.
# Few grammar texts pass the edge criterion, so the tongue also gets sums
# y + c*x^i*y^j of up to four terms, of the same degree bound, about one in
# six of which reaches the region check.

FUZZ_DEGREE = 6


def _joined(parts):
    (a, da), op, (b, db) = parts
    return f"{a} {op} {b}", da + db if op == "*" else max(da, db)


def _powered(parts):
    (a, da), k = parts
    return f"({a})^{k}", da * k


_atoms = st.one_of(
    st.sampled_from([("x", 1), ("y", 1), ("x", 1), ("y", 1), ("1", 0)]),
    st.integers(0, 40).map(lambda n: (str(n), 0)),
    st.tuples(st.integers(0, 40), st.integers(1, 9)).map(lambda t: (f"{t[0]}/{t[1]}", 0)),
)
_exprs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(_joined),
        st.tuples(inner, st.integers(0, 3)).map(_powered),
    ),
    max_leaves=8,
)
poly_texts = st.tuples(
    st.sampled_from(["", "-", "+"]), _exprs.filter(lambda e: e[1] <= FUZZ_DEGREE)
).map(lambda t: t[0] + t[1][0])
_monomials = st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 4), st.integers(0, 4))
tongue_texts = st.lists(
    _monomials.filter(lambda t: t[1] + t[2] <= FUZZ_DEGREE), min_size=1, max_size=4
).map(lambda ts: "y" + "".join(f" {'+-'[c < 0]} {abs(c)}*x^{i}*y^{j}" for c, i, j in ts))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(poly_texts, poly_texts, tongue_texts)
# a simple face root within 10^-12 of a triple one: each is rounded from its own factor
@example("x*(y^2 - 2)^3*(10^30*y^2 - 2*10^30 - 1)", "y", "y + x^2*y^2")
# a non-ASCII digit: str.isdigit() holds, int() refuses it
@example("x^\u00b2", "y", "y + x^2*y^2")
# parentheses nested past the cap, in the polynomial and in the mate
@example("(" * 500 + "x" + ")" * 500, "y", "y + x^2*y^2")
@example("x", "(" * 500 + "y" + ")" * 500, "y + x^2*y^2")
def test_fuzzed_commands_exit_0_1_or_2(p, q, t):
    argvs = [
        ["analyze", "--", p],
        ["certify", "--falsify", "1", "--", p],
        ["falsify", f"--q={q}", "--", p],
        ["certify", "--tongue", "--", t],
        ["render", "--what", "tongue", "--", t],
        ["branch", "--", p],
        ["certify", "--tongue", "--", p],
    ]
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_command(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
