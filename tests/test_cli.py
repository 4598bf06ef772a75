"""End-to-end command checks driven through cli.main with captured output."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rhiconst import cli, generic, oracle, power
from rhiconst.core import DataError, ExponentPair
from rhiconst.means import SampledTable

SQRT2 = math.sqrt(2.0)
P_12 = 2.0 / math.sqrt(3.0)
R_12 = math.sqrt(1.5)
EPS_STAR_12 = 2.0 - math.sqrt(3.0)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_table(path, rows):
    path.write_text("x,f\n" + "\n".join(f"{x},{f}" for x, f in rows) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


def test_power_json_values(capsys):
    code, out, err = run_cli(
        capsys, "power", "--alpha", "1", "--beta", "2", "--gamma", "1"
    )
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["command"] == "power"
    results = record["results"]
    assert math.isclose(results["halfline_constant"], P_12, rel_tol=1e-12)
    assert math.isclose(results["curve_max"], 3.0 / (2.0 * SQRT2), rel_tol=1e-12)
    assert math.isclose(results["extension_constant"], R_12, rel_tol=1e-12)
    assert math.isclose(results["eps_star"], EPS_STAR_12, rel_tol=1e-9)
    assert abs(results["residual"]) < 1e-12
    assert record["diagnostics"]["residual_applicable"] is True


@pytest.mark.parametrize(
    "gamma, scale",
    [("-0.4999", (1e4, 1e5)), ("1", (0.1, 10.0)), ("0", (0.0, 0.0)), ("1e306", (0.0, 0.0))],
)
def test_power_reports_the_scale_of_its_residual(capsys, gamma, scale):
    # Near the end of the gamma domain the residual is -7.28e-12, but its
    # terms are about 2e4: the residual is 3.7e-16 of their scale.  Without
    # an interior root (flat at gamma = 0, beyond resolution at 1e306) the
    # scale is 0, like the residual.
    code, out, _ = run_cli(capsys, "power", "--alpha", "1", "--beta", "2", "--gamma", gamma)
    assert code == 0
    record = json.loads(out)
    got = record["diagnostics"]["residual_scale"]
    assert scale[0] <= got <= scale[1]
    assert abs(record["results"]["residual"]) <= 1e-14 * got
    if record["diagnostics"]["residual_applicable"]:
        pair, eps = ExponentPair(1.0, 2.0), record["results"]["eps_star"]
        assert got == max(abs(t) for t in power.stationarity_terms(pair, float(gamma), eps))


def test_power_json_is_byte_deterministic(capsys):
    argv = ("power", "--alpha", "-0.4", "--beta", "-0.2", "--gamma", "3")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_power_csv_layout(capsys):
    code, out, _ = run_cli(
        capsys,
        "power", "--alpha", "1", "--beta", "2", "--gamma", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "gamma,eps_star,curve_max,halfline_constant,extension_constant"
    assert len(lines) == 3
    cells = [float(c) for c in lines[2].split(",")]
    assert math.isclose(cells[3], P_12, rel_tol=1e-12)


def test_power_rejects_boundary_gamma(capsys):
    code, _, err = run_cli(
        capsys, "power", "--alpha", "1", "--beta", "2", "--gamma", "-0.5"
    )
    assert code == 2
    assert "domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("power", "--alpha", "1", "--beta", "2", "--gamma", "1e308"),
        ("estimate", "--alpha", "-1", "--beta", "2", "--function", "pow:gamma=-0.49"),
        ("estimate", "--alpha", "5e-324", "--beta", "1", "--function", "expdecay:lambda=1"),
    ],
    ids=["power-gamma-overflow", "estimate-nodes-underflow", "estimate-tiny-order"],
)
def test_numeric_failures_print_no_numpy_warning(argv):
    # A fresh process, so that numpy's warnings would reach stderr.
    proc = subprocess.run(
        [sys.executable, "-m", "rhiconst.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("numeric error:")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_power_rejects_a_grid_too_large_to_allocate(capsys):
    code, out, err = run_cli(
        capsys, "power", "--alpha", "1", "--beta", "2", "--gamma", "1", "--grid", "1048577"
    )
    assert code == 2
    assert out == ""
    assert "eps_grid" in err


# ---------------------------------------------------------------------------
# class
# ---------------------------------------------------------------------------


def test_class_json_exact_values(capsys):
    code, out, _ = run_cli(capsys, "class", "--alpha", "1", "--beta", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["class_constant"] == SQRT2
    assert results["upper_bound"] == 2.0
    assert results["sharpness_ratio"] == SQRT2 / 2.0

    code, out, _ = run_cli(capsys, "class", "--alpha", "-1", "--beta", "1")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["class_constant"] == 2.0
    assert results["upper_bound"] == 4.0


def test_class_rejects_disordered_pair(capsys):
    code, _, err = run_cli(capsys, "class", "--alpha", "2", "--beta", "1")
    assert code == 2
    assert "domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("class", "--alpha", "0.0001", "--beta", "2"),
        ("power", "--alpha", "-97.196", "--beta", "0.0023785", "--gamma", "-420.42"),
        # The shape-curve maximizer lies near eps = 1e-384.
        (
            "power", "--alpha", "-1.1533436194361446", "--beta", "-1.1526183695149625",
            "--gamma", "0.8660434232677972",
        ),
    ],
)
def test_closed_form_overflow_is_numeric_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("numeric error:")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_gamma_csv_monotone(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--alpha", "1", "--beta", "2", "--gamma", "1:1000:4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema_version=1"
    assert len(lines) == 6
    curve = [float(line.split(",")[2]) for line in lines[2:]]
    assert all(a < b for a, b in zip(curve, curve[1:]))


def test_sweep_beta_seq_ratio_increases(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--alpha", "1", "--beta-seq", "2:1024:10"
    )
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == 10
    ratios = [row["ratio"] for row in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.999


def test_sweep_approach_spacing_never_reaches_stop(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--alpha", "1", "--beta", "2",
        "--gamma=-0.4:-0.5:6", "--spacing", "approach",
    )
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    gammas = [row["gamma"] for row in rows]
    assert all(g > -0.5 for g in gammas)
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    gaps = [g + 0.5 for g in gammas]
    for wide, narrow in zip(gaps, gaps[1:]):
        assert math.isclose(narrow, wide / 2.0, rel_tol=1e-12)


def test_sweep_selector_must_be_exactly_one(capsys):
    code, _, err = run_cli(capsys, "sweep", "--alpha", "1", "--beta", "2")
    assert code == 2 and "domain error" in err
    code, _, err = run_cli(
        capsys,
        "sweep", "--alpha", "1", "--beta", "2",
        "--gamma", "1:2:3", "--beta-seq", "2:4:3",
    )
    assert code == 2 and "domain error" in err


def test_sweep_bad_sequence_spec(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--alpha", "1", "--beta", "2", "--gamma", "1:2"
    )
    assert code == 2 and "start:stop:count" in err


@pytest.mark.parametrize(
    "selector",
    [
        ["--beta", "2", "--gamma", "1:2:10001"],
        ["--beta-seq", "2:1024:1000000000"],
    ],
    ids=["gamma", "beta-seq"],
)
def test_sweep_count_above_the_cap_is_refused(capsys, selector):
    code, out, err = run_cli(capsys, "sweep", "--alpha", "1", *selector)
    assert code == 2 and out == ""
    assert "exceeds the cap of 10000" in err


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_function_halfline_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate", "--alpha", "1", "--beta", "2", "--function", "pow:gamma=1",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["halfline_converged"] is True
    assert results["halfline_witness_lo"] == 0.0
    assert math.isclose(results["halfline_value"], P_12, rel_tol=1e-6)


def test_estimate_extension_reports_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate", "--alpha", "1", "--beta", "2",
        "--function", "pow:gamma=1", "--extension",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert math.isclose(results["ratio"], R_12 / P_12, rel_tol=1e-4)
    assert results["upper_bound"] == 2.0
    assert results["bound_satisfied"] is True
    assert results["extension_witness_lo"] < 0.0 < results["extension_witness_hi"]


_HALFLINE_KEYS = [
    "halfline_value",
    "halfline_witness_lo",
    "halfline_witness_hi",
    "halfline_converged",
    "halfline_search_points",
]
_EXTENSION_KEYS = [
    "extension_value",
    "extension_witness_lo",
    "extension_witness_hi",
    "extension_converged",
    "extension_search_points",
    "ratio",
    "upper_bound",
    "bound_satisfied",
]


@pytest.mark.parametrize(
    "source, flags, results_keys, monotonicity",
    [
        ("function", (), _HALFLINE_KEYS, "increasing"),
        ("function", ("--extension",), _HALFLINE_KEYS + _EXTENSION_KEYS, "increasing"),
        ("table", (), _HALFLINE_KEYS, "unknown"),
    ],
    ids=["function", "function-extension", "table"],
)
def test_estimate_record_keys(capsys, tmp_path, source, flags, results_keys, monotonicity):
    if source == "function":
        selector = ("--function", "pow:gamma=1")
    else:
        # Increasing data, yet a table reports its monotonicity as unknown.
        path = write_table(
            tmp_path / "inc.csv",
            [(0.5 + 0.125 * k, (0.5 + 0.125 * k) ** 2 + 1.0) for k in range(61)],
        )
        selector = ("--csv", path)
    code, out, err = run_cli(
        capsys, "estimate", "--alpha", "1", "--beta", "2", *selector, *flags
    )
    assert code == 0 and err == ""
    record = json.loads(out)
    assert list(record["results"]) == results_keys
    assert list(record["diagnostics"]) == ["quad_tol", "monotonicity"]
    assert record["diagnostics"]["monotonicity"] == monotonicity
    assert record["results"]["halfline_converged"] is True


def test_estimate_monotone_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["estimate", "--alpha", "1", "--beta", "2",
             "--function", "pow:gamma=1", "--monotone", "inc"]
        )
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --monotone inc" in captured.err


def test_estimate_zero_table_negative_order(capsys, tmp_path):
    path = write_table(tmp_path / "zero.csv", [(0.5, 0.5), (1.0, 0.0), (2.0, 2.0)])
    code, _, err = run_cli(
        capsys, "estimate", "--alpha", "-1", "--beta", "1", "--csv", path
    )
    assert code == 4
    assert "zero values" in err


def test_estimate_all_zero_table_is_numeric_error(capsys, tmp_path):
    path = write_table(tmp_path / "zero.csv", [(0.5, 0.0), (1.0, 0.0), (2.0, 0.0)])
    code, _, err = run_cli(capsys, "estimate", "--alpha", "1", "--beta", "2", "--csv", path)
    assert code == 3
    assert "no window of the table has finite means" in err


def test_table_beyond_double_range_is_ranked(tmp_path):
    # Each stretch's values span beyond double range, and at alpha = -1
    # the table's scale is 1e-310, yet every stretch integral is taken as a
    # log and the means are finite: the window (1, 2) has the ratio
    # 810.93285519600037.  A fresh process, so that numpy's overflow
    # warnings would reach stderr.
    path = write_table(tmp_path / "wide.csv", [(1, "1e-310"), (2, "1e300"), (3, "1e-300")])
    proc = subprocess.run(
        [sys.executable, "-m", "rhiconst.cli", "estimate", "--alpha", "-1", "--beta", "2",
         "--csv", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["results"]["halfline_value"]
    assert math.isclose(value, 810.93285519600037, rel_tol=1e-12), value
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "body, message",
    [
        (b"\xff\xfe", "can't decode byte 0xff"),
        (b"x,f\n1," + b"1" * 200_000 + b"\n", "field larger than field limit"),
    ],
    ids=["not-utf8", "field-too-long"],
)
def test_unreadable_table_is_data_error(capsys, tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_bytes(body)
    code, out, err = run_cli(capsys, "estimate", "--alpha", "1", "--beta", "2", "--csv", str(path))
    assert code == 4 and out == ""
    assert err.startswith("data error:") and message in err


def test_estimate_table_extension_refused(capsys, tmp_path):
    path = write_table(tmp_path / "inc.csv", [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0)])
    code, _, err = run_cli(
        capsys,
        "estimate", "--alpha", "1", "--beta", "2", "--csv", path, "--extension",
    )
    assert code == 4
    assert "data error" in err


def test_table_extension_is_refused_before_any_search(capsys, tmp_path, monkeypatch):
    def no_search(*args):
        raise AssertionError("the table search ran before the refusal")

    monkeypatch.setattr(generic, "_search_table", no_search)
    xs = np.linspace(0.5, 8.0, 60)
    with pytest.raises(DataError, match="even extension of a table"):
        generic.extension_ratio(SampledTable(xs, xs + 1.0), ExponentPair(1.0, 2.0))
    path = write_table(tmp_path / "t.csv", list(zip(xs.tolist(), (xs + 1.0).tolist())))
    code, out, err = run_cli(
        capsys,
        "estimate", "--alpha", "1", "--beta", "2", "--csv", path, "--extension",
    )
    assert code == 4 and out == ""
    assert "even extension of a table" in err


def test_estimate_unknown_function_kind(capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--alpha", "1", "--beta", "2", "--function", "log:a=1"
    )
    assert code == 2
    assert "unknown function kind" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("pow:gamma=1,gama=3", "unknown field 'gama'"),
        ("pow:gamma=1,gamma=2", "repeats field 'gamma'"),
        ("expdecay:lambda=1,a=5", "unknown field 'a'"),
        ("affpow:a=1,gamma=2", "missing field 'c'"),
    ],
    ids=["misspelt", "repeated", "foreign", "missing"],
)
def test_estimate_rejects_unknown_and_repeated_fields(capsys, spec, message):
    code, out, err = run_cli(
        capsys, "estimate", "--alpha", "1", "--beta", "2", "--function", spec
    )
    assert code == 2
    assert out == ""
    assert "domain error" in err and message in err


# ---------------------------------------------------------------------------
# verify, output plumbing
# ---------------------------------------------------------------------------


def test_verify_power_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "power")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_verify_negative_seed_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "means", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "domain error: seed must be nonnegative, got -1\n"


def test_verify_unknown_suite_is_usage_error(capsys):
    for argv in (
        ["verify", "--suite", "spectral"],
        ["power", "--alpha", "1", "--beta", "2", "--gamma", "1", "--tol", "0.1"],
        ["sweep", "--alpha", "1", "--beta-seq", "2:4:3", "--ratio"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ("class", "--alpha", "1", "--beta", "2")
    _, stdout_text, _ = run_cli(capsys, *argv)
    path = tmp_path / "class.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == stdout_text


def test_out_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "class", "--alpha", "1", "--beta", "2",
        "--out", str(tmp_path / "missing" / "class.json"),
    )
    assert code == 4
    assert "data error" in err


def test_power_and_extension_runs_do_not_import_numpy_ma():
    # np.unique imports numpy.ma, about 1.3 MB of RSS in every process;
    # the seed grids and the oracle's abscissae are deduplicated without
    # it, to the same arrays.
    script = (
        "import contextlib, io, sys\n"
        "from rhiconst import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['power', '--alpha', '1', '--beta', '2', '--gamma', '1']),\n"
        "             cli.main(['estimate', '--alpha', '1', '--beta', '2',\n"
        "                       '--function', 'expdecay:lambda=1', '--extension']),\n"
        "             cli.main(['verify', '--suite', 'all', '--seed', '0'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] False\n"
    for n in (64, 333, 4096):
        uniform = np.linspace(0.0, 1.0, n)
        tail = np.concatenate((np.logspace(-300.0, -16.0, 40), np.logspace(-16.0, -1.0, 46)))
        eps_tail = np.geomspace(generic._EPS_TAIL_FLOOR, 0.1, 16)
        assert np.array_equal(power._seed_grid(n), np.unique(np.concatenate((uniform, tail))))
        assert np.array_equal(
            generic._eps_seeds(n), np.unique(np.concatenate((uniform, eps_tail)))
        )
        depths = np.concatenate(([0.0], oracle._endpoint_grid(n)))
        rights = oracle._endpoint_grid(n * 13 // 8)
        assert np.array_equal(
            oracle._sorted_unique(np.concatenate((depths, rights))),
            np.unique(np.concatenate((depths, rights))),
        )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rhiconst.cli", "class", "--alpha", "1", "--beta", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["class_constant"] == SQRT2
