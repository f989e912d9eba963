"""Command-line behavior: output contracts, exit codes, configuration
precedence, and report determinism."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf

import cotmoments.cli as cli
from cotmoments import moments, series
from cotmoments.moments import run_suite
from cotmoments.report import VerificationReport

from sweep_log import _log_sweeps


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_pi_twenty_digits(capsys):
    code, out, _ = run_cli(["constants", "pi", "--digits", "20"], capsys)
    assert code == 0
    assert out.strip() == "pi 3.1415926535897932385"


def test_constants_eta3_thirty_digits(capsys):
    code, out, _ = run_cli(["constants", "eta3", "--digits", "30"], capsys)
    assert code == 0
    assert out.strip() == "eta3 0.901542677369695714049803621134"


def test_constants_eta_at_a_huge_s_is_one_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(["constants", "eta1000000000", "--digits", "30"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.strip() == "eta1000000000 1." + "0" * 29


def test_constants_several_names(capsys):
    code, out, _ = run_cli(
        ["constants", "pi", "log2", "zeta3", "--digits", "15"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("log2 0.693147180559945")
    assert lines[2].startswith("zeta3 1.20205690315959")


def test_constants_eta1_equals_log2(capsys):
    _, out_eta, _ = run_cli(["constants", "eta1", "--digits", "25"], capsys)
    _, out_log, _ = run_cli(["constants", "log2", "--digits", "25"], capsys)
    assert out_eta.split()[1] == out_log.split()[1]


def test_constants_unknown_name_is_usage_error(capsys):
    code, _, err = run_cli(["constants", "theta7"], capsys)
    assert code == 2
    assert "unknown constant" in err


def test_constants_zeta_one_rejected(capsys):
    code, _, _ = run_cli(["constants", "zeta1"], capsys)
    assert code == 2


def test_constants_eta_zero_rejected(capsys):
    code, _, err = run_cli(["constants", "eta0"], capsys)
    assert code == 2
    assert "need s >= 1" in err


def test_constants_ignore_the_tol(capsys):
    plain = run_cli(["constants", "pi"], capsys)
    assert plain[0] == 0
    assert run_cli(["constants", "pi", "--tol", "-1"], capsys) == plain


def test_constants_ignore_the_n(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": "x"}))
    plain = run_cli(["constants", "pi"], capsys)
    assert plain[0] == 0
    assert run_cli(["constants", "pi", "--config", str(bad)], capsys) == plain
    # moments reads the n, so the same file still fails there
    assert run_cli(["moments", "--m", "1", "--config", str(bad)], capsys)[0] == 2


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_single_eta(capsys):
    code, out, _ = run_cli(["moments", "--m", "1", "--route", "eta"], capsys)
    assert code == 0
    assert "2.17758609030360213050" in out
    assert "eta-closed-form" in out


def test_moments_range_and_multiple_routes(capsys):
    code, out, _ = run_cli(
        ["moments", "--m", "1..3", "--route", "eta,quad", "--digits", "25"], capsys)
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 6  # three m values x two routes
    assert sum("quadrature" in l for l in lines) == 3


def test_moments_comma_list(capsys):
    code, out, _ = run_cli(
        ["moments", "--m", "2,4", "--route", "eta", "--digits", "20"], capsys)
    assert code == 0
    assert "C(2)" in out and "C(4)" in out and "C(3)" not in out


def test_moments_json_format(capsys):
    code, out, _ = run_cli(
        ["moments", "--m", "1", "--route", "eta,nested", "--n", "2000",
         "--format", "json", "--digits", "20"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "moments"
    assert len(payload["rows"]) == 2
    routes = {r["route"] for r in payload["rows"]}
    assert routes == {"eta-closed-form", "nested-series"}
    nested = next(r for r in payload["rows"] if r["route"] == "nested-series")
    assert nested["truncation"] == 2000
    assert nested["error_bound"] is not None
    assert payload["disagreements"] == []


def test_moments_csv_format(capsys):
    code, out, _ = run_cli(
        ["moments", "--m", "1", "--route", "eta", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,route,value,truncation,error_bound"
    assert lines[1].startswith("1,eta-closed-form,2.177586")


def test_moments_series_routes_agree_with_closed_form(capsys):
    code, _, err = run_cli(
        ["moments", "--m", "1..6", "--route", "eta,cfn,nested", "--n", "20000",
         "--digits", "30"], capsys)
    assert code == 0
    assert "DISAGREEMENT" not in err


def test_moments_sweeps_once_per_parity(monkeypatch, capsys, tmp_path):
    # the deepest m is computed first, so each route's cached sweep of a
    # parity serves every shallower m of it; those misses are deeper than
    # the suites' range, so no sibling is swept in a child
    cfn_calls = _log_sweeps(monkeypatch, moments, "_cfn_sweep", tmp_path / "cfn")
    s_calls = _log_sweeps(monkeypatch, series, "_sums_sweep", tmp_path / "sums")
    code, out, _ = run_cli(["moments", "--m", "1..12", "--route", "cfn,nested",
                            "--digits", "30", "--n", "2000"], capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[::2]] == [
        f"C({m})" for m in range(1, 13)]
    here = os.getpid()
    assert cfn_calls() == [[here, 0, 6], [here, 1, 5]]
    assert s_calls() == [[here, "even", 5], [here, "odd", 5]]


def _significant_digits(text):
    return len(text.split("e")[0].replace(".", "").replace("-", "").lstrip("0"))


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_moments_print_only_the_digits_their_bound_certifies(fmt, capsys):
    # the 30-digit quadrature C(40) is right to about 3 digits and claims an
    # absolute bound of 1e-20 against a value of 1.35e-31: it shows one digit
    code, out, _ = run_cli(["moments", "--m", "40", "--route", "eta,quad",
                            "--digits", "30", "--format", fmt], capsys)
    assert code == 0
    if fmt == "json":
        values = {r["route"]: r["value"] for r in json.loads(out)["rows"]}
    elif fmt == "csv":
        values = {row[1]: row[2] for row in
                  (line.split(",") for line in out.strip().splitlines()[1:])}
    else:
        values = {line.split()[1]: line.split()[2] for line in out.strip().splitlines()}
    assert values["quadrature"] == "1.e-31"
    assert values["eta-closed-form"].startswith("1.35424954648091908317167055731")
    assert _significant_digits(values["eta-closed-form"]) == 30


def test_moments_certified_digits_stay_within_a_unit_of_the_last(capsys):
    code, out, _ = run_cli(["moments", "--m", "1..6", "--route", "eta,cfn,nested",
                            "--digits", "30", "--n", "2000", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    exact = {r["m"]: mpf(r["value"]) for r in rows if r["route"] == "eta-closed-form"}
    with mp.workdps(40):
        for r in rows:
            if r["error_bound"] is None:
                continue
            value, bound = mpf(r["value"]), mpf(r["error_bound"])
            digits = _significant_digits(r["value"])
            assert digits == min(30, max(1, int(mp.floor(mp.log10(value / bound))))), r
            unit = mpf(10) ** (int(mp.floor(mp.log10(value))) - digits + 1)
            assert bound < unit
            assert abs(value - exact[r["m"]]) <= unit / 2 + bound, r


def test_moments_usage_errors(capsys):
    assert run_cli(["moments", "--m", "0", "--route", "eta"], capsys)[0] == 2
    assert run_cli(["moments", "--m", "41", "--route", "eta"], capsys)[0] == 2
    assert run_cli(["moments", "--m", "abc", "--route", "eta"], capsys)[0] == 2
    assert run_cli(["moments", "--m", "5..2", "--route", "eta"], capsys)[0] == 2
    assert run_cli(["moments", "--m", "1", "--route", "psychic"], capsys)[0] == 2
    # series routes are capped at m = 12
    assert run_cli(["moments", "--m", "13", "--route", "cfn"], capsys)[0] == 2
    # but the closed form is fine well beyond
    assert run_cli(["moments", "--m", "13", "--route", "eta"], capsys)[0] == 0


def test_moments_range_bound_checked_before_expansion(capsys):
    code, _, err = run_cli(["moments", "--m", "1..1000000", "--route", "eta"], capsys)
    assert code == 2
    assert "m <= 40" in err


def test_moments_unreachable_tolerance_fails(capsys):
    code, _, err = run_cli(
        ["moments", "--m", "1", "--route", "quad", "--tol", "1e-130"], capsys)
    assert code == 1
    assert "did not converge" in err


def test_moments_tolerance_below_the_working_resolution_fails(capsys):
    # the last delta rounded to 0 at 45 working digits, and the run printed
    # bound=1.0e-60 for a value 3.77e-46 from pi log 2
    code, out, err = run_cli(["moments", "--m", "1", "--route", "quad", "--digits", "30",
                              "--tol", "1e-60"], capsys)
    assert code == 1
    assert "bound=" not in out
    assert "that 45 working digits resolve" in err


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_t0_csv(capsys):
    code, out, _ = run_cli(
        ["tables", "--which", "t0", "--kmax", "5", "--nmax", "5"], capsys)
    assert code == 0
    assert out.strip().splitlines()[2] == "0,0,1,5,49,820"


def test_tables_single_cell(capsys):
    code, out, _ = run_cli(
        ["tables", "--which", "t1", "--kmax", "0", "--nmax", "0"], capsys)
    assert code == 0
    assert out.strip() == "1"


def test_tables_h1_json(capsys):
    code, out, _ = run_cli(
        ["tables", "--which", "h1", "--kmax", "1", "--nmax", "5",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][1][5] == "117469/99225"


def test_tables_text_format(capsys):
    code, out, _ = run_cli(
        ["tables", "--which", "t0", "--kmax", "2", "--nmax", "3",
         "--format", "text"], capsys)
    assert code == 0
    assert "k=2:" in out


def test_tables_usage_errors(capsys):
    assert run_cli(["tables", "--which", "t0", "--kmax", "7", "--nmax", "5"],
                   capsys)[0] == 2
    assert run_cli(["tables", "--which", "t0", "--kmax", "2", "--nmax", "201"],
                   capsys)[0] == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_tables_suite(capsys):
    code, out, err = run_cli(["verify", "--suite", "tables"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"suite", "config", "checks", "summary", "meta"}
    assert payload["summary"]["fail"] == 0
    assert "generated_at" in payload["meta"]
    assert "[verify]" in err  # progress goes to stderr, not stdout


def test_the_package_and_a_verify_run_leave_datetime_out():
    # an import of datetime leaves about 190 KB of its pure-Python classes
    # (replaced by _datetime's) as cyclic garbage in the importing process;
    # verify stamps its report with time.strftime instead
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import os, sys, cotmoments, cotmoments.cli;"
         " cotmoments.cli.main(['verify', '--suite', 'tables', '--out', os.devnull]);"
         " print('datetime' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_the_package_leaves_dataclasses_and_inspect_out():
    # dataclasses imports inspect, ast, dis and tokenize, about 1 MB of peak
    # RSS in every process; the package's records are NamedTuples and
    # SimpleNamespaces instead
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cotmoments, cotmoments.cli;"
         " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_report_is_deterministic_modulo_meta(capsys):
    _, out1, _ = run_cli(["verify", "--suite", "gf", "--digits", "25"], capsys)
    _, out2, _ = run_cli(["verify", "--suite", "gf", "--digits", "25"], capsys)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("meta")
    d2.pop("meta")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_verify_checks_sorted_by_id(capsys):
    _, out, _ = run_cli(["verify", "--suite", "tables"], capsys)
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == sorted(ids)


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--suite", "tables", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["summary"]["fail"] == 0


@pytest.mark.parametrize("command", [["constants", "pi"], ["verify", "--suite", "tables"]])
def test_out_path_that_cannot_be_written_is_usage_error(tmp_path, capsys, command):
    # exit code 1 means a disagreement; a path that cannot be written is not one
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(command + ["--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: cannot write {target}: " in err
    assert "Traceback" not in err
    assert not target.exists()


def test_verify_out_that_cannot_be_written_fails_before_any_suite(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("a suite ran although --out cannot be written")

    monkeypatch.setattr(cli, "run_suite", never)
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(["verify", "--suite", "all", "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "[verify]" not in err


@pytest.mark.parametrize("suite", ["all", "h-reduction"])
def test_verify_n_too_small_for_h_reduction_fails_before_any_suite(suite, monkeypatch, capsys):
    # the h-reduction suite reads tails up to j = 10, so it needs N > 10
    def never(*args, **kwargs):
        pytest.fail("a suite ran although --n is too small for h-reduction")

    monkeypatch.setattr(cli, "run_suite", never)
    code, out, err = run_cli(["verify", "--suite", suite, "--n", "10"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --n ")
    assert "N > 10" in err
    assert "[verify]" not in err


def test_verify_failure_exit_code(monkeypatch, capsys):
    rep = VerificationReport("stub", config={})
    rep.add_exact("broken/one", "x = y", 1, 2)
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: rep)
    code, out, err = run_cli(["verify", "--suite", "tables"], capsys)
    assert code == 1
    assert "FAIL broken/one" in err
    assert json.loads(out)["summary"]["fail"] == 1


def test_verify_all_matches_library_report(capsys):
    code, out, err = run_cli(
        ["verify", "--suite", "all", "--digits", "20", "--n", "4000"], capsys)
    assert code == 0
    body = json.loads(out)
    body.pop("meta")
    want = run_suite("all", P=20, N=4000).to_json()
    assert json.dumps(body, indent=2, sort_keys=True) == want
    assert err.count("[verify] running ") == 6


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "vibes"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# configuration precedence
# ---------------------------------------------------------------------------

def test_config_file_sets_digits(tmp_path, capsys):
    cfgfile = tmp_path / "cot.json"
    cfgfile.write_text(json.dumps({"digits": 12}))
    code, out, _ = run_cli(
        ["constants", "pi", "--config", str(cfgfile)], capsys)
    assert code == 0
    assert out.strip() == "pi 3.14159265359"


def test_env_overrides_config_file(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "cot.json"
    cfgfile.write_text(json.dumps({"digits": 12}))
    monkeypatch.setenv("COTMOMENTS_DIGITS", "14")
    code, out, _ = run_cli(
        ["constants", "pi", "--config", str(cfgfile)], capsys)
    assert code == 0
    assert out.strip() == "pi 3.1415926535898"


def test_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("COTMOMENTS_DIGITS", "14")
    code, out, _ = run_cli(["constants", "pi", "--digits", "16"], capsys)
    assert code == 0
    assert out.strip() == "pi 3.141592653589793"


def test_invalid_env_digits(monkeypatch, capsys):
    monkeypatch.setenv("COTMOMENTS_DIGITS", "plenty")
    code, _, err = run_cli(["constants", "pi"], capsys)
    assert code == 2
    assert "COTMOMENTS_DIGITS" in err


def test_config_validation(capsys):
    assert run_cli(["constants", "pi", "--digits", "5"], capsys)[0] == 2
    assert run_cli(["moments", "--m", "1", "--n", "3"], capsys)[0] == 2
    # moments reads the tol; constants does not (test_constants_ignore_the_tol)
    assert run_cli(["moments", "--m", "1", "--tol=-1e-5"], capsys)[0] == 2
    assert run_cli(["moments", "--m", "1", "--tol", "soon"], capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "consequences", "--digits", "20", "--tol", "inf"],
    ["moments", "--m", "3", "--route", "quad", "--tol", "inf"],
])
def test_tol_must_be_finite(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "--tol must be a positive finite number, got 'inf'" in err


def test_bad_config_file(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(["constants", "pi", "--config", str(broken)], capsys)[0] == 2
    assert run_cli(["constants", "pi", "--config",
                    str(tmp_path / "missing.json")], capsys)[0] == 2


@pytest.mark.parametrize("value", [None, [30], True, 30.7])
def test_config_file_non_integer_digits(tmp_path, capsys, value):
    # true is not read as 1, nor 30.7 cut to 30
    cfgfile = tmp_path / "cot.json"
    cfgfile.write_text(json.dumps({"digits": value}))
    code, _, err = run_cli(["constants", "pi", "--config", str(cfgfile)], capsys)
    assert code == 2
    assert "'digits'" in err


def test_config_file_format_is_validated_like_the_flag(tmp_path, capsys):
    cfgfile = tmp_path / "cot.json"
    cfgfile.write_text(json.dumps({"format": "xml"}))
    argv = ["tables", "--which", "t0", "--kmax", "1", "--nmax", "2"]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--format", "xml"], capsys)
    assert exc.value.code == 2
    code, out, err = run_cli(argv + ["--config", str(cfgfile)], capsys)
    assert code == 2
    assert out == ""
    assert "--format must be one of json, csv, text, got 'xml'" in err
    # the flag still overrides the file
    assert run_cli(argv + ["--config", str(cfgfile), "--format", "csv"], capsys)[0] == 0


_T0 = ["tables", "--which", "t0", "--kmax", "1", "--nmax", "2"]


def test_tables_ignore_the_digits(monkeypatch, tmp_path, capsys):
    plain = run_cli(_T0, capsys)
    assert plain[0] == 0 and plain[1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"digits": "abc"}))
    assert run_cli(_T0 + ["--config", str(bad)], capsys) == plain
    # moments reads the digits, so the same file and variable still fail there
    assert run_cli(["moments", "--m", "1", "--config", str(bad)], capsys)[0] == 2
    for digits in ("5", "abc"):
        monkeypatch.setenv("COTMOMENTS_DIGITS", digits)
        assert run_cli(_T0, capsys) == plain
        assert run_cli(["moments", "--m", "1"], capsys)[0] == 2


def test_tables_ignore_the_n(capsys):
    plain = run_cli(_T0, capsys)
    assert plain[0] == 0 and plain[1]
    assert run_cli(_T0 + ["--n", "3"], capsys) == plain


@pytest.mark.parametrize("value", [20.0, "20"])
def test_config_file_integral_float_and_decimal_string_digits(tmp_path, capsys, value):
    cfgfile = tmp_path / "cot.json"
    cfgfile.write_text(json.dumps({"digits": value, "n": 1e5}))
    code, out, _ = run_cli(["constants", "pi", "--config", str(cfgfile)], capsys)
    assert code == 0
    assert out.strip() == "pi 3.1415926535897932385"


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_console_script_roundtrip():
    # the child imports the package under test, installed or not
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cotmoments.cli", "constants", "pi",
         "--digits", "20"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "pi 3.1415926535897932385"
