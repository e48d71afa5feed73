"""Command-line dispatch, output formats, and exit codes."""

import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import zetalab
from zetalab import cli, verify
from zetalab.cli import dispatch


def test_eval_pi(capsys):
    assert dispatch(["eval", "pi", "100"]) == 0
    assert capsys.readouterr().out.strip() == "25"


def test_eval_functions(capsys):
    assert dispatch(["eval", "zeta", "2"]) == 0
    v = float(capsys.readouterr().out)
    assert v == pytest.approx(math.pi**2 / 6, rel=1e-12)
    assert dispatch(["eval", "psi", "100"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(94.045311229357392, abs=1e-9)
    assert dispatch(["eval", "li", "100"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(30.126141584079633, abs=1e-9)
    assert dispatch(["eval", "j", "20"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(9.5833333333333339, abs=1e-12)
    assert dispatch(["eval", "r", "0.5"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(math.exp(0.5) - 1, abs=1e-12)
    assert dispatch(["eval", "rint", "0.6931471805599453"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1 - math.log(2), abs=1e-12)
    assert dispatch(["eval", "lie", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.8951178163559368, abs=1e-9)


def test_eval_output_round_trips(capsys):
    dispatch(["eval", "zeta", "2"])
    text = capsys.readouterr().out.strip()
    assert float(format(float(text), ".17g")) == float(text)


def test_check_single_claim(capsys):
    assert dispatch(["check", "C9", "--max", "1000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("C9 pass")


def test_check_requires_target(capsys):
    assert dispatch(["check"]) == 2
    assert dispatch(["check", "C99"]) == 2


def test_values_that_look_negative_are_values_not_options(capsys):
    # argparse's own negative-number pattern knows -5 and -.5 only
    for argv, glued in (
        (["check", "C1", "--max", "-inf"], ["check", "C1", "--max=-inf"]),
        (["scan", "B3", "--from", "-1e5", "--to", "100"], ["scan", "B3", "--from=-1e5", "--to", "100"]),
    ):
        want = dispatch(glued), capsys.readouterr()
        assert (dispatch(argv), capsys.readouterr()) == want
    assert want[0] == 0 and want[1].out.startswith("B3 pass rows=135 ")
    assert dispatch(["check", "C1", "--max", "-inf"]) == 2
    assert capsys.readouterr().err == "--max must be finite, got -inf\n"
    assert dispatch(["eval", "li", "-inf"]) == 2
    assert capsys.readouterr() == ("", "li_pv requires x > 1\n")


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["check", "C6", "--max", "5"], "--max"),
        (["check", "C9", "--s", "2"], "--s"),
        (["check", "C1", "--points", "0"], "--points"),
        (["check", "M2", "--max", "5", "--points", "3"], "--max or --points"),
    ],
)
def test_a_single_claim_refuses_the_options_it_does_not_take(argv, refused, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("run_claim was called")

    monkeypatch.setattr(verify, "run_claim", no_run)
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", f"claim {argv[1]} takes no {refused}\n")


def test_check_all_gives_each_option_to_the_claims_that_take_it():
    args = cli._parser().parse_args(["check", "--all", "--s", "2", "--points", "3"])
    assert cli._claim_params(args, "C6") == {"s_grid": [2.0]}
    assert cli._claim_params(args, "C12") == {"points": 3}
    assert cli._claim_params(args, "C9") is None


def test_unknown_command():
    assert dispatch(["frobnicate"]) == 2
    assert dispatch([]) == 2


def test_scan_exit_codes(tmp_path, capsys):
    assert dispatch(["scan", "B3", "--from", "1", "--to", "2000"]) == 0
    # the stricter-than-true offset-free bound variant fails near 100
    assert dispatch(["scan", "B4", "--from", "90", "--to", "110", "--convention", "li"]) == 1
    # --convention applies to B4 only: elsewhere it is a usage error, not ignored
    assert dispatch(["scan", "B2", "--from", "2", "--to", "100", "--convention", "offset"]) == 2
    assert dispatch(["scan", "B9", "--from", "1", "--to", "10"]) == 2
    # --points applies to log grids only: elsewhere it is a usage error, not ignored
    capsys.readouterr()
    assert dispatch(["scan", "B2", "--from", "10", "--to", "100", "--points", "0"]) == 2
    assert capsys.readouterr() == ("", "--points applies to --mode log-grid only\n")
    assert dispatch(["scan", "B1", "--from", "2", "--to", "99", "--mode", "every-jump", "--points", "5"]) == 2
    assert dispatch(["scan", "B2", "--from", "10", "--to", "100", "--mode", "log-grid", "--points", "5"]) == 0


def test_scan_csv_stdout_matches_file(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    assert dispatch([
        "scan", "B3", "--from", "1", "--to", "400", "--format", "csv",
        "--out", str(out_file),
    ]) == 0
    capsys.readouterr()
    assert dispatch([
        "scan", "B3", "--from", "1", "--to", "400", "--format", "csv", "--out", "-",
    ]) == 0
    streamed = capsys.readouterr().out
    assert streamed == out_file.read_text()
    assert streamed.startswith("x,lhs,rhs,margin,pass\n")


def test_check_json_report(tmp_path, capsys):
    out_file = tmp_path / "claims.json"
    code = dispatch(["check", "C15", "--format", "json", "--out", str(out_file)])
    assert code == 0
    import json

    objs = json.loads(out_file.read_text())
    assert objs[0]["id"] == "C15" and objs[0]["verdict"] == "pass"


def test_a_claim_csv_without_rows_is_a_usage_error_that_names_json(capsys):
    # C9 and C10 summarise one residual per integer and keep no rows; claims
    # have no row-retention option, so json is the one remedy to name
    assert dispatch(["check", "C9", "--max", "1000", "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "claim C9 keeps no rows, so it has no CSV; emit it as json\n"


@pytest.mark.parametrize("argv", [["check", "--all"], ["check", "C10"]])
def test_a_csv_without_rows_is_refused_before_any_claim_runs(argv, tmp_path, monkeypatch, capsys):
    def no_claim(*args, **kwargs):
        raise AssertionError("run_claim was called")

    monkeypatch.setattr(verify, "run_claim", no_claim)
    out_file = tmp_path / "x.csv"
    assert dispatch(argv + ["--format", "csv", "--out", str(out_file)]) == 2
    out, err = capsys.readouterr()
    cid = "C9" if "--all" in argv else "C10"
    assert out == "" and err == f"claim {cid} keeps no rows, so it has no CSV; emit it as json\n"
    assert not out_file.exists()


def test_laplace_command(capsys):
    assert dispatch(["laplace", "zeta1", "--s", "2,3", "--limit", "100000"]) == 0
    out = capsys.readouterr().out
    assert out.count("contained") == 2
    assert dispatch(["laplace", "unknown-pair", "--s", "2"]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["lie", "700"], "lie requires 0 < x <= 695.2588015446954, got x=700.0"),
        (["lie", "inf"], "lie requires 0 < x <= 695.2588015446954, got x=inf"),
        (["li", "inf"], "li_pv requires log x <= 695.2588015446954"),
    ],
)
def test_eval_outside_the_series_domain_exits_2(args, message):
    # a fresh process with a timeout, so a series that never stops fails the test
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zetalab", "eval", *args],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "fn, name", [("pi", "pi_count"), ("j", "j_value"), ("psi", "psi_value"), ("r", "r_value")]
)
def test_eval_of_a_step_at_nan_or_inf_names_the_function(fn, name, value, capsys):
    assert dispatch(["eval", fn, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"{name} requires a finite x, got x={value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "pi", "inf"],
        ["eval", "j", "inf"],
        ["eval", "psi", "inf"],
        ["eval", "r", "inf"],
        ["eval", "r", "800"],
        ["eval", "rint", "800"],
        ["eval", "rint", "40"],  # N*x*2**-52 rounding above 1e-6: x ~ 19.2 is the end
        ["eval", "zeta", "inf"],
        ["scan", "B2", "--to", "inf"],
        ["scan", "B2", "--to", "inf", "--mode", "log-grid", "--points", "3"],
        ["check", "C9", "--max", "inf"],
        ["check", "C13", "--max", "25"],
        ["laplace", "zeta1", "--limit", "inf"],
        ["laplace", "lie", "--s", "inf"],
        ["laplace", "r", "--s", "inf"],
        ["check", "C7", "--s", "inf"],
    ],
)
def test_infinite_and_overflowing_arguments_are_usage_errors(argv, capsys):
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.strip() and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["laplace", "r", "--s", "1.5,2,3,5,10,50,120,150,1000"],
         "3246d1a5a24103f2ae104db7fbbd8ad7af948c72779f1a1a85124e03aef4760d"),
        (["check", "C7", "--format", "csv"],
         "1d0dae6c123496fb2e1eaf5a81829d332d42fa28a666c5ab5cd651f02638518f"),
        (["laplace", "lie", "--s", "1.5,2,3,5,10"],
         "411d96c5acf6790c5e0974fda6f8e26bcb6d66a65c6031e0fd3b2e075a466f55"),
        (["check", "C6", "--format", "csv"],
         "d5d6e3ff7b793bc6240db405c9e690c086ab26fb799b5c6f0017fa85f83cab12"),
        # every other claim that keeps rows, and the whole catalog's summary: a
        # verdict rule or a row that moves shows here
        (["check", "C1", "--format", "csv", "--out", "-"],
         "db23a1c3537503ae842d7fd3c9bec2429c75f5c46aa2742323b4b0f24c29afbb"),
        (["check", "C2", "--format", "csv", "--out", "-"],
         "b25278c580fb13a0d4d36fd6c0a7ae826cfcea888d946de79eb60c9284de3435"),
        (["check", "C3", "--format", "csv", "--out", "-"],
         "105d2ac431de5496f65d66497c57adddd724db3dc6c25aed1d18666abba83c08"),
        (["check", "C4", "--format", "csv", "--out", "-"],
         "c2065a659c8771aaa470af65e2c70a1a72e1b8f5c701b5372529f60af3cef5d4"),
        (["check", "C5", "--format", "csv", "--out", "-"],
         "2b18dbc421e8d3bf6e35c1cd556c658986ec086b2c4713add9a16026cea03895"),
        (["check", "C8", "--format", "csv", "--out", "-"],
         "c127b70e87c24af76b5bf9a9d091fec415d7d0ddd1f4495e24f1ffa59b6d1fdc"),
        (["check", "C11", "--format", "csv", "--out", "-"],
         "d74dc8482ea7ef9542b247fe3956c759561c6fc5c66c9321765278f9bb94927e"),
        (["check", "C12", "--format", "csv", "--out", "-"],
         "548e0fcb70f34434639b8ff33ad3ee6c9175396b8e484c65039853d6c5bf6061"),
        (["check", "C13", "--format", "csv", "--out", "-"],
         "fee0c0f1d0ac13f6e7f931ad7d12044af1693f69bf469885d097b53ecf950558"),
        (["check", "C14", "--format", "csv", "--out", "-"],
         "68250ffbb2a4678f54e976413887ddaecafcdca10c5b2585e17779149db86e9d"),
        (["check", "C15", "--format", "csv", "--out", "-"],
         "b048ff76f5dba04cc3695fe504c83d2aaf3d7404b3caf4798c4109f9a12d5cf9"),
        (["check", "M1", "--format", "csv", "--out", "-"],
         "20a9e986ac662d6c6e43789af498d5b8a1a1e154746cc7e5d109eebd1bd18c28"),
        (["check", "M2", "--format", "csv", "--out", "-"],
         "781ac7cb730845cf9be942a889d919ec3015151d0a2319cad370e1956f4ba547"),
        (["check", "M3", "--format", "csv", "--out", "-"],
         "527b558e132a37fc6c626bd130c4b4cd87ddd6cd2afef95b9c432316f9126231"),
        (["check", "--all", "--format", "json", "--out", "-"],
         "08ae910ddfc82bea6a7d330d4fa22a6226284e24876fed12005a69702495383c"),
        # C10 past its default limit, where the row adds do most of their work
        (["check", "C10", "--max", "40000", "--format", "json", "--out", "-"],
         "7b8cce5b64997beb0caf00b684af7c3e96cd78cc16fedf3edbd85e7b8ba8d0b6"),
        # M1 across three sieve segments, whose n Lambda(n) sums carry over
        (["check", "M1", "--max", "3000000", "--format", "csv", "--out", "-"],
         "e68fed8877c15f0b1b232e46863b6e64cf66c338a874ec15e12e8a99e280fd54"),
    ],
)
def test_quadrature_transform_outputs_keep_their_pinned_bytes(argv, sha256, capsys):
    # the printed r and lie brackets, on C6's and C7's s grid and past it, and
    # the claims' summary lines and rows (C12, C14 and M1 rest on numpy's exp
    # and log, as the r pins do)
    assert dispatch(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


# scan CSVs, each field as Python's format(v, ".17g") writes it: B4 has negative
# margins and failing rows, B1 every-jump rows, B2 a log grid of x that are not
# whole, and B4 under the li convention
@pytest.mark.parametrize(
    "argv, code, sha256",
    [
        (["scan", "B3", "--from", "1", "--to", "100000"], 0,
         "f3317ac6ad256689097be1fbeec3f20a1a81720ed760ea0c3673749bc4e7aeb4"),
        (["scan", "B4", "--from", "2", "--to", "100000"], 1,
         "702a983a21de5669f26683660520a087b121fccc8a1ffe42da4485ca657c75d5"),
        (["scan", "B1", "--to", "3000000", "--mode", "every-jump"], 0,
         "5a8294c19f0b35cab7e7299246c7e1c50bbd0c487350c1ca0cb46b166d35c8dd"),
        (["scan", "B2", "--from", "1e5", "--to", "1e7", "--mode", "log-grid", "--points", "5000"], 0,
         "4934c763929bc87f94c81b43bb649f0ce63c56f5d845eee88bc1af43bbe1e6e2"),
        (["scan", "B4", "--from", "2", "--to", "50000", "--convention", "li"], 1,
         "3a5fceed5b5ec364c40a4f5c8d19298942b5faf4e675c503a429b4da6e13a42b"),
    ],
)
def test_scan_csv_outputs_keep_their_pinned_bytes(argv, code, sha256, capsys):
    assert dispatch(argv + ["--format", "csv", "--out", "-"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_claims_past_where_zeta_used_to_overflow(capsys):
    assert dispatch(["eval", "zeta", "1e62"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert dispatch(["check", "C5", "--s", "1e62"]) == 0
    assert capsys.readouterr().out == "C5 pass max_abs_residual=0 tolerance=0 at=1e+62\n"


def test_a_claim_that_fails_on_a_nan_margin_names_its_row():
    # the first NaN residual is the largest: its row is the one a failing claim names
    residual, tolerance, verdict, at, _ = verify._verdict([1.0, 1.2e10, 1.5e10], [3.0, math.nan, math.nan], 0.0, False)
    assert math.isnan(residual) and (tolerance, verdict, at) == (0.0, "fail", 1.2e10)


def test_c12_stops_where_its_bound_overflows(capsys):
    # past x ~ 1417.4 the bound 3 e^(x/2)/x is inf, and every row would pass against it
    x_max = verify._c12_x_max()
    assert 1417 < x_max < 1418 and np.isfinite(verify._c12_bound(x_max))
    with np.errstate(over="ignore"):
        assert verify._c12_bound(math.nextafter(x_max, math.inf)) == math.inf
    assert dispatch(["check", "C12", "--max", repr(x_max)]) == 0
    assert capsys.readouterr().out.startswith("C12 pass ")
    for past in (math.nextafter(x_max, math.inf), 1e9):
        assert dispatch(["check", "C12", "--max", repr(past)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("C12's x_hi ") and repr(x_max) in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["check", "C1", "--max", "1"], "--max"),
        (["check", "C14", "--points", "0"], "--points"),
        (["check", "M1", "--points", "0"], "--points"),
        # below the first abscissa: no argmax of an empty array, no reversed range that passes
        (["check", "C9", "--max", "1"], "--max"),
        (["check", "C10", "--max", "1"], "--max"),
        (["check", "C14", "--max", "50"], "--max"),
        (["check", "C13", "--max", "0.0001"], "--max"),
        (["check", "M1", "--max", "5"], "--max"),
    ],
)
def test_check_overrides_that_leave_nothing_to_check_are_usage_errors(argv, option, capsys):
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(option)


@pytest.mark.parametrize(
    "argv",
    # a NaN --max gave C1-C4 a pass with no row checked and C12 a fail on NaN
    # rows; an infinite one sent C13 an array dump and C14 a numpy warning
    [["check", c, "--max", v] for c in ("C1", "C2", "C3", "C4", "C12", "C13", "C14") for v in ("nan", "inf")]
    + [["check", "--all", "--max", "nan"]],
)
def test_a_max_that_is_not_finite_is_a_usage_error(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"--max must be finite, got {argv[-1]}\n"


@pytest.mark.parametrize("claim", ["C9", "C5", "C10"])
def test_claim_limits_whose_arrays_cannot_be_held_are_usage_errors(claim, capsys):
    # C9 used to ask numpy for 7.28 TiB and exit 1 with a traceback
    assert dispatch(["check", claim, "--max", "1e12"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("--max 1e+12 is above") and "Traceback" not in err


def test_laplace_limits_whose_arrays_cannot_be_held_are_usage_errors(monkeypatch, capsys):
    # used to ask numpy for 7.28 TiB and exit 1 with a traceback
    def no_bracket(*args, **kwargs):
        raise AssertionError("laplace_pair was called")

    monkeypatch.setattr(zetalab.laplace, "laplace_pair", no_bracket)
    assert dispatch(["laplace", "zeta1", "--limit", "1e12", "--s", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("--limit 1e+12 is above") and "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_laplace_zeta1_at_1e8_streams_its_comb():
    # the comb's 1e8 ordinates are formed 2**14 at a time; held whole, they
    # and their terms would take 1.6 GB.  The child reports its own VmHWM (kB):
    # its ru_maxrss would count the pages of this process that the fork copied
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = ("import re, sys\n"
           "from zetalab.cli import dispatch\n"
           "code = dispatch(sys.argv[1:])\n"
           "sys.stderr.write(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n"
           "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", run, "laplace", "zeta1", "--limit", "1e8", "--s", "2"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == (
        "zeta1 s=2 bracket=[0.82246703342398075, 0.82246703342424587] closed_form=0.82246703342413408 "
        "width=2.6512125828048738e-13 contained\n"
    )
    assert int(proc.stderr) < 100 * 1024


def test_laplace_lie_past_the_series_domain_exits_2(capsys):
    assert dispatch(["laplace", "lie", "--x-max", "700"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("x_max must be at most 695.2588015446954")


def test_laplace_r_with_a_nan_window_is_a_usage_error(capsys):
    # used to exit 2 with "cannot convert float NaN to integer"
    assert dispatch(["laplace", "r", "--s", "2", "--x-max", "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("x_max must be positive, got nan")
