"""Command-line dispatch, output formats, and exit codes."""

import math

import pytest

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


def test_unknown_command():
    assert dispatch(["frobnicate"]) == 2
    assert dispatch([]) == 2


def test_scan_exit_codes(tmp_path):
    assert dispatch(["scan", "B3", "--from", "1", "--to", "2000"]) == 0
    # the stricter-than-true offset-free bound variant fails near 100
    assert dispatch(["scan", "B4", "--from", "90", "--to", "110", "--convention", "li"]) == 1
    # --convention applies to B4 only: elsewhere it is a usage error, not ignored
    assert dispatch(["scan", "B2", "--from", "2", "--to", "100", "--convention", "offset"]) == 2
    assert dispatch(["scan", "B9", "--from", "1", "--to", "10"]) == 2


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


def test_laplace_command(capsys):
    assert dispatch(["laplace", "zeta1", "--s", "2,3", "--limit", "100000"]) == 0
    out = capsys.readouterr().out
    assert out.count("contained") == 2
    assert dispatch(["laplace", "unknown-pair", "--s", "2"]) == 2
