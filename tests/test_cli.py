import json
import os
import shlex
import subprocess
import sys

import pytest

import twodist.bound_polys
import twodist.cli
from test_golden_cli import GOLDEN
from twodist.cli import console_entry, main

A7 = "0.3333333333333333"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_row(capsys):
    code, out, _ = run(capsys, ["table", "--n-min", "23", "--n-max", "23", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert "twodist" in lines[0] and "command=table" in lines[0]
    assert lines[1] == "n,omega_hat,rho,k_star,g_upper,conclusive"
    assert lines[2] == "23,277,276,3,277,true"


def test_table_row_22_ignores_grid(capsys):
    # --grid no longer changes results; these grids all missed a = 1/6
    # when the sweep sampled it, and printed 274.
    for grid in (5001, 19999, 20002, 100003):
        argv = ["table", "--n-min", "22", "--n-max", "22", "--grid", str(grid), "--format", "csv"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert f"grid={grid}" in lines[0]
        assert lines[2].startswith("22,275,")


def test_non_finite_tolerance_is_usage_error(capsys):
    for tol in ("nan", "inf", "oops"):
        code, out, err = run(capsys, ["table", "--n-min", "7", "--n-max", "7", "--tol", tol])
        assert code == 1 and out == ""
        assert "--tol" in err


def test_table_range_validation(capsys):
    code, _, err = run(capsys, ["table", "--n-min", "6", "--n-max", "9", "--format", "csv"])
    assert code == 1
    assert "error:" in err
    code, _, _ = run(capsys, ["table", "--n-min", "9", "--n-max", "8"])
    assert code == 1
    code, _, _ = run(capsys, ["table", "--n-min", "7", "--n-max", "999"])
    assert code == 1


def test_table_strict_flags_inconclusive_rows(capsys):
    code, out, _ = run(
        capsys, ["table", "--n-min", "44", "--n-max", "44", "--format", "csv", "--strict"]
    )
    assert code == 3
    assert out.strip().splitlines()[2] == "44,inf,990,2,inf,false"
    code, _, _ = run(capsys, ["table", "--n-min", "7", "--n-max", "7", "--strict"])
    assert code == 0


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, ["table", "--n-min", "7", "--n-max", "8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "table"
    assert payload["meta"]["options"]["n_min"] == 7
    rows = payload["rows"]
    assert rows[0] == {
        "n": 7, "omega_hat": 28, "rho": 28, "k_star": 2, "g_upper": 28, "conclusive": True,
    }
    assert rows[1]["omega_hat"] == 31


def test_table_csv_is_deterministic(capsys):
    argv = ["table", "--n-min", "18", "--n-max", "20", "--format", "csv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_table_out_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        ["table", "--n-min", "7", "--n-max", "7", "--format", "csv", "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert "7,28,28,2,28,true" in target.read_text()


def test_out_to_unopenable_path_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    argv = ["table", "--n-min", "7", "--n-max", "7", "--format", "csv", "--out", str(target)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "rows.csv" in err
    assert not target.exists()


def test_library_input_errors_are_usage_errors(capsys):
    # The library validates these inputs itself; its ValueError must reach
    # the user as a one-line usage error, with nothing on stdout.
    for argv in [
        ["profile", "--n", "3", "--k", "2"],
        ["profile", "--n", "25", "--k", "3", "--samples", "1"],
        ["verify-lambda", "--n", "1"],
        ["delsarte-check", "--n", "1", "--coeffs", "1", "--t-values", "0"],
        ["bound", "--n", "1", "--a", "0.2", "--b", "-0.2"],
    ]:
        for fmt in ("csv", "json", "pretty"):
            code, out, err = run(capsys, argv + ["--format", fmt])
            assert code == 1 and out == "", argv
            assert err.startswith("error:") and "Traceback" not in err, argv
            assert len(err.strip().splitlines()) == 1, argv


def test_console_entry_exits_with_the_command_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["twodist", "table", "--n-min", "7", "--n-max", "7", "--format", "csv"])
    with pytest.raises(SystemExit) as exc:
        console_entry()
    assert exc.value.code == 0
    assert "7,28,28,2,28,true" in capsys.readouterr().out


def test_module_entry_matches_the_golden_bound():
    # `python -m twodist` runs twodist/__main__.py in a new process.
    argv = ["bound", "--n", "23", "--a", "0.2", "--b", "-0.2", "--format", "csv"]
    proc = subprocess.run([sys.executable, "-m", "twodist", *argv], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(GOLDEN, "bound.csv.txt"), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--a", "0.2", "--b", "-0.2"],
        ["profile", "--k", "2"],
        ["delsarte-check", "--coeffs", "1,0,1", "--t-values", "0.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_dimension_too_large_for_a_float_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv + ["--n", "1" + "0" * 400])
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_profile_csv(capsys):
    code, out, _ = run(
        capsys, ["profile", "--n", "25", "--k", "3", "--samples", "5", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "a,q,winning_i"
    assert len(lines) == 7
    first = lines[2].split(",")
    assert abs(float(first[0]) + 1.0 / 3) < 1e-9


def test_profile_rejects_k_outside_sweep(capsys):
    code, _, err = run(capsys, ["profile", "--n", "7", "--k", "3", "--samples", "5"])
    assert code == 1
    assert "K~(7) = 2" in err


def test_profile_inf_rendering(capsys):
    argv = ["profile", "--n", "45", "--k", "2", "--samples", "3", "--format", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert last[1] == "inf" and last[2] == ""
    code, out, _ = run(capsys, argv[:-2] + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    qs = [s["q"] for s in payload["samples"]]
    assert "inf" in qs
    assert payload["samples"][-1]["winning_i"] is None


def test_profile_strict_inconclusive(capsys):
    code, _, _ = run(
        capsys, ["profile", "--n", "45", "--k", "2", "--samples", "3", "--strict"]
    )
    assert code == 3


def test_bound_pretty(capsys):
    code, out, _ = run(capsys, ["bound", "--n", "7", "--a", A7, "--b", "-" + A7])
    assert code == 0
    assert "best bound: 28" in out
    assert "i=1" in out and "i=5" in out


def test_bound_csv_header_and_best(capsys):
    code, out, _ = run(
        capsys,
        ["bound", "--n", "23", "--a", "0.2", "--b", "-0.2", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "i,in_domain,c,d,value,f0,f1,f2,f3,f4"
    assert len(lines) == 8
    assert lines[-1].startswith("# best=276")


def test_bound_rejects_bad_pair(capsys):
    code, _, err = run(capsys, ["bound", "--n", "7", "--a", "0.2", "--b", "0.3"])
    assert code == 1
    assert "error:" in err


def test_verify_lambda(capsys):
    code, out, _ = run(capsys, ["verify-lambda", "--n", "23", "--format", "csv"])
    assert code == 0
    row = out.strip().splitlines()[2]
    assert row.startswith("23,276,")
    assert row.endswith(",true,true,23,true")
    code, out, _ = run(capsys, ["verify-lambda", "--n", "2"])
    assert code == 0
    assert "one-distance" in out


def test_independence_csv(capsys):
    code, out, _ = run(capsys, ["independence", "--n", "7", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,m,rank,expected,pass"
    assert lines[2] == "7,28,35,35,true"
    code, _, err = run(capsys, ["independence", "--n", "6"])
    assert code == 1
    assert "n >= 7" in err


def test_verify_lambda_n60_json(capsys):
    code, out, _ = run(capsys, ["verify-lambda", "--n", "60", "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["points"] == 1830
    assert result["gram_psd"] is True and result["gram_rank"] == 60
    assert result["pass"] is True


def test_independence_n60_json(capsys):
    code, out, _ = run(capsys, ["independence", "--n", "60", "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["m"] == 1830
    assert result["rank"] == result["expected"] == 1890
    assert result["pass"] is True


def test_delsarte_check_accept_and_reject(capsys):
    f0 = 2.0 / 63
    f2 = 6.0 / 7
    code, out, _ = run(
        capsys,
        [
            "delsarte-check", "--n", "7",
            "--coeffs", f"{f0!r},0,{f2!r}",
            "--t-values", f"{A7},-{A7}",
            "--format", "csv",
        ],
    )
    assert code == 0
    assert out.strip().splitlines()[2] == "28,true,"
    code, out, _ = run(
        capsys,
        ["delsarte-check", "--n", "7", "--coeffs", "1,-1", "--t-values", "0"],
    )
    assert code == 2
    assert "rejected" in out


def test_delsarte_check_accepts_negative_leading_values(capsys):
    f0 = 2.0 / 63
    f2 = 6.0 / 7
    code, out, _ = run(
        capsys,
        [
            "delsarte-check", "--n", "7",
            "--coeffs", f"{f0!r},0,{f2!r}",
            "--t-values", f"-{A7},{A7}",
            "--format", "csv",
        ],
    )
    assert code == 0
    assert out.strip().splitlines()[2] == "28,true,"
    code, out, _ = run(
        capsys, ["delsarte-check", "--n", "7", "--coeffs", "-1,1", "--t-values", "-0.25,0.1"]
    )
    assert code == 2
    assert "negative Gegenbauer coefficient f_0" in out


def test_delsarte_check_parses_inputs(capsys):
    code, _, err = run(
        capsys,
        ["delsarte-check", "--n", "7", "--coeffs", "1,oops", "--t-values", "0"],
    )
    assert code == 1
    assert "comma-separated" in err
    # An empty field with a value after it is an error in either list: 1,,2
    # once read as 1,2 and printed an accepted certificate for f = (1, 2).
    for coeffs, t_values in [("1,,2", "-0.5,-0.75"), (",1", "0"), ("1", "-0.5,,-0.75"), ("1", ",0")]:
        argv = ["delsarte-check", "--n", "7", f"--coeffs={coeffs}", f"--t-values={t_values}"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", (coeffs, t_values)
        assert "comma-separated reals" in err
    code, out, err = run(capsys, ["delsarte-check", "--n", "7", "--coeffs", ",", "--t-values", "0"])
    assert code == 1 and out == ""
    assert "at least one coefficient" in err


def test_delsarte_check_rejects_non_finite_inputs(capsys):
    # A NaN t-value used to pass the sign check and print an accepted
    # certificate; a NaN coefficient ended in a traceback.
    f0 = 2.0 / 63
    f2 = 6.0 / 7
    for coeffs, t_values in [
        (f"{f0!r},0,{f2!r}", "nan"),
        (f"{f0!r},0,{f2!r}", f"{A7},inf"),
        ("1,nan", "0"),
        ("inf,0,1", "0"),
    ]:
        argv = ["delsarte-check", "--n", "7", "--coeffs", coeffs, "--t-values", t_values]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", (coeffs, t_values)
        assert "finite" in err


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NAN"])
def test_bound_reports_a_negative_non_number_b_by_its_own_check(capsys, value):
    # Spaced, such a value used to stop at "argument --b: expected one
    # argument"; it now reaches the inner-product check as --b=-inf does.
    code, out, err = run(capsys, ["bound", "--n", "7", "--a", "0.5", "--b", value])
    assert code == 1 and out == ""
    assert "inner products must satisfy -1 <= b < a < 1" in err
    assert "expected one argument" not in err


@pytest.mark.parametrize("value", ["-inf,0", "-infinity,0", "-NaN,0"])
def test_delsarte_check_reports_negative_non_number_t_values_by_their_own_check(capsys, value):
    argv = ["delsarte-check", "--n", "7", "--coeffs", "1", "--t-values", value]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: --t-values must be finite reals, got {value!r}\n"


def test_negative_precision_is_usage_error(capsys):
    argv = ["bound", "--n", "7", "--a", "0.2", "--b", "-0.2", "--format", "csv"]
    code, out, err = run(capsys, argv + ["--precision", "-1"])
    assert code == 1 and out == ""
    assert "--precision" in err
    code, out, _ = run(capsys, argv + ["--precision", "0"])
    assert code == 0 and "precision=0" in out


@pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
def test_precision_past_the_formatters_limit_is_usage_error(capsys, fmt):
    # 2**31 ended in "ValueError: precision too big" from the renderer, with
    # a traceback and no error line.
    bound = ["bound", "--n", "23", "--a", "0.2", "--b", "-0.2", "--format", fmt, "--precision"]
    for argv in (bound, ["profile", "--n", "25", "--k", "3", "--format", fmt, "--precision"]):
        for precision in ("2147483648", "99999999999999999999"):
            code, out, err = run(capsys, argv + [precision])
            assert code == 1 and out == "", (argv, precision)
            assert err.startswith("error: argument --precision:") and len(err.strip().splitlines()) == 1
    # 2**31 - 1 still renders: past the 767 significant digits a double can
    # need, every precision prints the same digits.
    code, out, _ = run(capsys, bound + ["2147483647"])
    assert code == 0 and out.replace("2147483647", "1000") == run(capsys, bound + ["1000"])[1]


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["table"])[0] == 1  # required flags absent


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "twodist", "table", "--n-min", "7", "--n-max", "7",
         "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "7,28,28,2,28,true" in proc.stdout


# The options each subcommand accepts, besides --format and --out, in the
# order its provenance echoes them; and the shortest argv that runs it.
ACCEPTED = {
    "table": (["table", "--n-min", "7", "--n-max", "7"],
              ["n_min", "n_max", "grid", "tol", "seed", "precision", "strict"]),
    "profile": (["profile", "--n", "25", "--k", "3", "--samples", "3"],
                ["n", "k", "samples", "tol", "precision", "strict"]),
    "bound": (["bound", "--n", "23", "--a", "0.2", "--b", "-0.2"], ["n", "a", "b", "tol", "precision", "strict"]),
    "verify-lambda": (["verify-lambda", "--n", "7"], ["n", "precision"]),
    "independence": (["independence", "--n", "7"], ["n", "seed", "precision"]),
    "delsarte-check": (["delsarte-check", "--n", "7", "--coeffs", "1,0,1", "--t-values", "0.5"],
                       ["n", "coeffs", "t_values", "tol", "precision"]),
}
# The options some subcommands take and others do not, with a value to pass.
SHARED_VALUES = {"grid": "5001", "tol": "1e-6", "seed": "3", "strict": None}


@pytest.mark.parametrize("command", ACCEPTED)
def test_provenance_echoes_exactly_the_accepted_options(capsys, command):
    argv, accepted = ACCEPTED[command]
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code in (0, 2)
    header = out.splitlines()[0].split()
    assert header[3] == f"command={command}"
    assert [item.split("=", 1)[0] for item in header[4:]] == accepted
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert list(json.loads(out)["meta"]["options"]) == accepted


def test_provenance_keeps_a_spaced_value_in_one_field(capsys):
    argv = ["delsarte-check", "--n", "7", "--coeffs", "1, 0, 1", "--t-values", "0.5", "--format", "csv"]
    code, out, _ = run(capsys, argv)
    assert code in (0, 2)
    fields = dict(item.split("=", 1) for item in shlex.split(out.splitlines()[0])[3:])
    assert fields["coeffs"] == "1, 0, 1" and fields["t_values"] == "0.5"


@pytest.mark.parametrize("command", ACCEPTED)
def test_options_a_command_does_not_read_are_usage_errors(capsys, command):
    argv, accepted = ACCEPTED[command]
    for name, value in SHARED_VALUES.items():
        if name in accepted:
            continue
        extra = [f"--{name}"] + ([value] if value is not None else [])
        code, out, err = run(capsys, argv + extra)
        assert code == 1 and out == "", (command, name)
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, (command, name)


# Argvs that each command's subparser parses alone in main (valid, missing a
# required option, an option of another command, a bad int or tolerance,
# negative values in both spellings), and argvs that still go through the
# top-level parser: no command, an unknown one, an option before the command.
DISPATCH_ARGV = [
    *(argv for argv, _ in ACCEPTED.values()),
    *(argv[:-1] for argv, _ in ACCEPTED.values()),
    *(argv[:-2] for argv, _ in ACCEPTED.values()),
    *(argv + ["--grid", "5001"] for argv, _ in ACCEPTED.values()),
    *(argv + ["--samples", "9"] for argv, _ in ACCEPTED.values()),
    *(argv[:1] + ["--n", "x", *argv[3:]] for argv, _ in ACCEPTED.values() if argv[1] == "--n"),
    ["table", "--n-min", "7", "--n-max", "7.5"],
    ["table", "--n-min", "7", "--n-max", "7", "--tol", "oops", "--format", "json"],
    ["bound", "--n", "23", "--a", "0.2", "--b", "-0.2", "--tol", "oops"],
    ["bound", "--n", "23", "--a", "0.2", "--b", "-0.2", "--tol", "-1e-12"],
    ["bound", "--n", "23", "--a=0.2", "--b=-0.2", "--strict", "--precision", "3"],
    ["bound", "--n", "23", "--a", "0.2", "--b", "-1e-3"],
    ["profile", "--n", "-25", "--k", "3", "--samples=-3", "--format", "csv"],
    ["delsarte-check", "--n", "7", "--coeffs", "-0.25,0.1", "--t-values", "0.5"],
    ["delsarte-check", "--n", "7", "--coeffs=-0.25,0.1", "--t-values=-0.5,-inf", "--tol", "0"],
    ["verify-lambda", "--n", "7", "--format", "xml"],
    ["independence", "--n", "7", "--seed", "-3", "extra"],
    [],
    ["nope", "--n", "7"],
    ["--n", "7", "bound"],
]


def _parsed(parse, argv):
    """The namespace's items in order, or the UsageError's text."""
    try:
        return list(vars(parse(argv)).items())
    except twodist.cli.UsageError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_one_pass_parse_equals_the_top_level_parse(argv):
    parser = twodist.cli.build_parser()
    assert _parsed(lambda a: twodist.cli._parse(parser, a), argv) == _parsed(parser.parse_args, argv)


@pytest.mark.parametrize("argv", [["-h"], ["bound", "-h"], ["delsarte-check", "--n", "7", "--help"]])
def test_help_is_printed_as_the_top_level_parser_prints_it(capsys, argv):
    with pytest.raises(SystemExit) as want:
        twodist.cli.build_parser().parse_args(argv)
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert got.value.code == want.value.code == 0
    assert capsys.readouterr().out == expected and expected.startswith("usage: twodist")


def test_table_grid_and_seed_change_no_bytes(capsys):
    argv = ["table", "--n-min", "20", "--n-max", "23", "--format", "csv"]
    _, plain, _ = run(capsys, argv)
    code, flagged, _ = run(capsys, argv + ["--grid", "5001", "--seed", "3"])
    assert code == 0
    assert flagged.splitlines()[1:] == plain.splitlines()[1:]
    assert flagged.splitlines()[0] == plain.splitlines()[0].replace("grid=20001", "grid=5001").replace(
        "seed=42", "seed=3"
    )


def test_bound_evaluates_the_closed_forms_once(capsys, monkeypatch):
    calls = []
    forms = twodist.bound_polys._forms

    def counting(*args):
        calls.append(args)
        return forms(*args)

    monkeypatch.setattr(twodist.bound_polys, "_forms", counting)
    code, out, _ = run(capsys, ["bound", "--n", "23", "--a", "0.2", "--b", "-0.2", "--format", "csv"])
    assert code == 0 and out.splitlines()[-1].startswith("# best=276")
    assert len(calls) == 1


def test_import_builds_no_parser():
    # The option table is applied by build_parser on the first main() call.
    probe = (
        "import argparse; built = []; init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
        "import twodist.cli; print(len(built))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_import_leaves_out_numpy_polynomial():
    probe = (
        "import sys, numpy; eager = 'numpy.polynomial' in sys.modules; import twodist.cli; "
        "print(eager, 'numpy.polynomial' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    eager, loaded = proc.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.polynomial itself")
    assert loaded == "False"


@pytest.mark.parametrize("tol", ["1", "-1", "1e-5", "-1e-12"])
def test_tolerance_outside_its_range_is_usage_error(capsys, tol):
    # With --tol 1 this printed "certificate accepted: cardinality bound 0", exit 0.
    argv = ["delsarte-check", "--n", "7", "--coeffs=1.01,-0.9", "--t-values", "0.5", "--tol", tol]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: argument --tol:") and len(err.strip().splitlines()) == 1
    for command in (["table", "--n-min", "7", "--n-max", "7"], ["bound", "--n", "7", "--a", A7, "--b", "-" + A7]):
        code, out, err = run(capsys, command + ["--tol", tol])
        assert code == 1 and out == "" and err.startswith("error: argument --tol:")


def test_tolerance_range_ends_are_accepted(capsys):
    argv = ["delsarte-check", "--n", "7", "--coeffs=1.01,-0.9", "--t-values", "0.5"]
    code, default, _ = run(capsys, argv)
    assert code == 2 and default == "certificate rejected: negative Gegenbauer coefficient f_1 = -0.9\n"
    for tol in ("0", "1e-6"):
        assert run(capsys, argv + ["--tol", tol])[:2] == (2, default)
    # table's --tol changes no result, only the echo in its # line: a + b = 0
    # at every window's right end once cut a sliver piece at tol 0 (n = 15 gave 398).
    argv = ["table", "--n-min", "7", "--n-max", "60", "--format", "csv"]
    code, default, _ = run(capsys, argv)
    assert code == 0 and "tol=1e-09" in default.splitlines()[0]
    for tol in ("0", "1e-6"):
        code, out, _ = run(capsys, argv + ["--tol", tol])
        assert code == 0 and out == default.replace("tol=1e-09", f"tol={float(tol)}", 1)


def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch):
    built = []
    build = twodist.cli.build_parser
    monkeypatch.setattr(twodist.cli, "build_parser", lambda: built.append(build()) or built[-1])
    twodist.cli._parser.cache_clear()
    try:
        argv = ["table", "--n-min", "44", "--n-max", "44"]
        assert run(capsys, argv + ["--strict"])[0] == 3
        assert run(capsys, argv)[0] == 0
        assert run(capsys, ["bound", "--n", "7", "--a", A7, "--b", "-" + A7, "--tol", "oops"])[0] == 1
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0 and "strict=false" in out.splitlines()[0] and "tol=1e-09" in out.splitlines()[0]
        assert len(built) == 1 and twodist.cli._parser() is built[0]
    finally:
        twodist.cli._parser.cache_clear()


def test_importing_the_cli_leaves_the_window_sweep_unloaded():
    # table and profile import lrs when they run, so the commands that do not
    # sweep a window never pay for its import; constructions is loaded,
    # since the parser reads its DEFAULT_SEED.
    probe = "\n".join([
        "import contextlib, io, sys, twodist.cli",
        "print(sorted(m for m in sys.modules if m.startswith('twodist.')))",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = twodist.cli.main(['profile', '--n', '7', '--k', '2', '--samples', '2'])",
        "print(code, 'twodist.lrs' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['twodist.bound_polys', 'twodist.cli', 'twodist.constructions', 'twodist.gegenbauer']",
        "0 True",
    ]
