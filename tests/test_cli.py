import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covnoise as cn
from covnoise import cli, verify
from covnoise.cli import _operator_text, _render_csv, _render_json, _report_text, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_noise_table_csv_shape(capsys):
    code, out, err = run_cli(capsys, "noise-table", "--n", "0:3", "--l", "1,2",
                             "--tol", "1e-6")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "n,l,value,lower,upper,cutoff"
    assert len(lines) == 1 + 4 * 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    lower, upper = float(first[3]), float(first[4])
    assert lower <= float(first[2]) <= upper


def test_noise_table_empty_range_header_only(capsys):
    code, out, _ = run_cli(capsys, "noise-table", "--n", "5:4")
    assert code == 0
    assert out == "n,l,value,lower,upper,cutoff\n"


def test_noise_table_brackets_known_value(capsys):
    code, out, _ = run_cli(capsys, "noise-table", "--n", "0:0", "--l", "2",
                           "--tol", "1e-8")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[3]) <= math.pi**2 / 6.0 <= float(row[4])


def test_noise_table_torus_all_rows_bracket_zero(capsys):
    spec = json.dumps({"kind": "chessboard", "domain": "Z", "xi": 1})
    code, out, _ = run_cli(capsys, "noise-table", "--matrix", spec,
                           "--n=-3:3", "--l", "1,2,3", "--tol", "1e-8")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        assert float(cells[3]) <= 0.0 <= float(cells[4])


def test_noise_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "noise-table", "--n", "2:2", "--l", "2",
                           "--format", "json", "--tol", "1e-6")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    direct = cn.noise_value(cn.constant_one(cn.IndexDomain.NATURALS),
                            cn.NoiseQuery(2, 2, 1e-6))
    assert records[0]["value"] == direct.value  # 17 digits survive the trip
    assert records[0]["cutoff"] == direct.cutoff


def test_output_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code = main(["noise-table", "--n", "0:6", "--l", "1,3",
                     "--out", str(target)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


CHESS_N = {"kind": "chessboard", "domain": "N", "xi": 0.3}
TORUS_Z = {"kind": "torus", "domain": "Z", "phases": {"formula": "linear", "slope": 0.4}}
# Per subcommand: its own arguments, then two distinct values (A, B) of each
# shared option it reads, given as (config key, config value, flag value).
PRECEDENCE_CASES = {
    "noise-table": (["--n", "1:2", "--l", "2"], {
        "--matrix": [("matrix", CHESS_N, json.dumps(CHESS_N)),
                     ("matrix", {"kind": "constant_one"}, '{"kind": "constant_one"}')],
        "--tol": [("tolerance", 1e-5, "1e-5"), ("tolerance", "1e-4", "1e-4")],
        "--format": [("format", "json", "json"), ("format", "csv", "csv")]}),
    "asymptotic": (["--l", "1", "--horizon", "256"], {
        "--matrix": [("matrix", CHESS_N, json.dumps(CHESS_N)),
                     ("matrix", {"kind": "constant_one"}, '{"kind": "constant_one"}')],
        "--tol": [("tolerance", 1e-2, "1e-2"), ("tolerance", 1e-3, "1e-3")],
        "--format": [("format", "json", "json"), ("format", "csv", "csv")]}),
    "verify": (["--suite", "torus"], {
        "--seed": [("seed", 1, "1"), ("seed", "2", "2")]}),
    "observable": ([], {
        "--matrix": [("matrix", TORUS_Z, json.dumps(TORUS_Z)),
                     ("matrix", {"kind": "constant_one", "domain": "Z"},
                      '{"kind": "constant_one", "domain": "Z"}')],
        "--window": [("window", [0, 3], "0:3"), ("window", "1:5", "1:5")],
        "--format": [("format", "csv", "csv"), ("format", "json", "json")]}),
    "covariance-check": (["--shift", "pi/3"], {
        "--matrix": [("matrix", TORUS_Z, json.dumps(TORUS_Z)),
                     ("matrix", CHESS_N, json.dumps(CHESS_N))],
        "--window": [("window", "0:7", "0:7"), ("window", [2, 5], "2:5")],
        "--format": [("format", "csv", "csv"), ("format", "json", "json")]}),
    "noise-diagonal": (["--n", "0"], {
        "--matrix": [("matrix", CHESS_N, json.dumps(CHESS_N)),
                     ("matrix", {"kind": "constant_one"}, '{"kind": "constant_one"}')],
        "--tol": [("tolerance", 1e-5, "1e-5"), ("tolerance", 1e-4, "1e-4")],
        "--window": [("window", [0, 63], "0:63"), ("window", "0:127", "0:127")],
        "--format": [("format", "json", "json"), ("format", "csv", "csv")]}),
    "schur-growth": (["--r", "5"], {
        "--format": [("format", "json", "json"), ("format", "csv", "csv")]}),
    "hadamard": (["--p-max", "2"], {
        "--format": [("format", "json", "json"), ("format", "csv", "csv")]}),
}


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "matrix": {"kind": "chessboard", "domain": "N", "xi": 0.3},
        "tolerance": 1e-4, "format": "json", "seed": 7}))
    code, out, _ = run_cli(capsys, "noise-table", "--config", str(cfg),
                           "--n", "1:1", "--l", "2")
    assert code == 0
    rec = json.loads(out)[0]
    direct = cn.noise_value(cn.chessboard(cn.IndexDomain.NATURALS,
                                          cn.ChessboardParams(0.3)),
                            cn.NoiseQuery(1, 2, 1e-4))
    assert rec["value"] == direct.value
    # flags beat the config file
    code, out, _ = run_cli(capsys, "noise-table", "--config", str(cfg),
                           "--n", "1:1", "--l", "2", "--format", "csv")
    assert code == 0
    assert out.startswith("n,l,")

    # Every subcommand, every shared option it reads: a value gives the same
    # bytes from a flag as from the file, and a flag beats the file.
    assert set(PRECEDENCE_CASES) == set(COMMAND_OPTIONS)
    for command, (own, options) in PRECEDENCE_CASES.items():
        assert set(options) == COMMAND_OPTIONS[command] & set(SHARED_OPTIONS[1:-1])
        for option, ((key_a, file_a, flag_a), (key_b, file_b, _)) in options.items():
            path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
            path_a.write_text(json.dumps({key_a: file_a}))
            path_b.write_text(json.dumps({key_b: file_b}))
            by_flag = run_cli(capsys, command, *own, option, flag_a)
            assert by_flag[0] in (0, 1) and by_flag[2] == "", (command, option, by_flag)
            assert run_cli(capsys, command, *own, "--config", str(path_a)) == by_flag
            assert run_cli(capsys, command, *own, "--config", str(path_b),
                           option, flag_a) == by_flag
            assert run_cli(capsys, command, *own, "--config", str(path_b)) != by_flag


@pytest.mark.parametrize("data, field", [
    ({"seed": "x"}, "seed"),
    ({"tolerance": "abc"}, "tolerance"),
    ({"window": ["a", 3]}, "window"),
    ({"seed": True}, "seed"),
])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, data, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "--suite", "torus", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config {field} must be")


def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys):
    """A misspelt key is refused, not run on defaults; the five keys stay
    valid in a config given to any subcommand."""
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"tolerence": 1e-3,
                                "matirx": {"kind": "chessboard", "domain": "N", "xi": 0.3}}))
    code, out, err = run_cli(capsys, "noise-table", "--config", str(typo), "--n", "0:0")
    assert code == 2 and out == ""
    assert "'tolerence'" in err and "matrix, tolerance, window, format, seed" in err
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"matrix": {"kind": "constant_one"}, "tolerance": 1e-3,
                                "window": "0:3", "format": "json", "seed": 2}))
    code, out, err = run_cli(capsys, "schur-growth", "--r", "5", "--config", str(full))
    assert code == 0 and err == "" and json.loads(out)[0]["r"] == 5


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "hadamard", "--p-max", "2", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write the report to") and str(target) in err


@pytest.mark.parametrize("where", ["missing folder", "folder", "file as folder", "empty"])
def test_unwritable_out_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch, where):
    """A target in a missing folder, one that is a folder, or an empty path,
    exits 2 naming the path before any block is computed, and creates
    nothing."""
    def no_blocks(p):
        raise AssertionError(f"computed block p={p}")

    monkeypatch.setattr("covnoise.cli.sylvester_hadamard_example", no_blocks)
    (tmp_path / "plain").write_text("")
    target = {"missing folder": tmp_path / "missing" / "x.csv", "folder": tmp_path,
              "file as folder": tmp_path / "plain" / "x.csv", "empty": ""}[where]
    code, out, err = run_cli(capsys, "hadamard", "--p-max", "10", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write the report to {str(target)!r}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]


_GRAM_Z = '{"kind":"gram","domain":"Z","seed":3,"dim":8}'
_GRAM_N = '{"kind":"gram","domain":"N","seed":3,"dim":8}'


@pytest.mark.parametrize("argv, message", [
    (["noise-table", "--matrix", _GRAM_Z, "--n", "0", "--l", "2,0", "--tol", "1e-6"],
     "error: moment order must be an integer >= 1, got 0"),
    (["noise-table", "--matrix", _GRAM_N, "--n", "0,1,-1", "--tol", "1e-6"],
     "error: index -1 is not in"),
    (["noise-diagonal", "--matrix", _GRAM_N, "--n", "0,5,300", "--window", "0:255"],
     "error: index 300 is outside the window 0:255"),
    (["asymptotic", "--l", "2,0"], "error: moment order must be an integer >= 1, got 0"),
], ids=["table-order", "table-index", "diagonal-window", "asymptotic-order"])
def test_every_index_and_order_is_checked_before_the_first_bracket(capsys, monkeypatch,
                                                                   argv, message):
    """A bad index, order or window position late in a list exits 2 with
    the message its own query gives, before any bracket is summed."""
    calls = []
    monkeypatch.setattr(cli, "noise_value", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "asymptotic_noise_estimate", lambda *args, **kw: calls.append(args))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith(message)
    assert calls == []


def test_out_write_failure_after_the_check_is_a_usage_error(tmp_path, capsys):
    """A failure the early check cannot see still exits 2 at write time."""
    target = tmp_path / ("x" * 300)  # an existing folder, a name too long to create
    code, out, err = run_cli(capsys, "hadamard", "--p-max", "1", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write the report to") and "too long" in err


def _run_capped(argv, limit):
    """Run main(argv) in a child pinned to two CPUs whose address space is
    capped at limit bytes (each thread of the child reserves address space
    of its own, so the CPU count is fixed along with the cap)."""
    child = ("import os, resource, sys; "
             "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2]); "
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
             "from covnoise.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          text=True, timeout=300, env=_child_env())


@pytest.mark.parametrize("argv", [
    ["noise-table", "--n", "0:300000000"], ["noise-table", "--l", "1:300000000"],
    ["asymptotic", "--l=-5:999999999999999999999"], ["noise-diagonal", "--n", "0:1000000"],
    ["schur-growth", "--r", "5:100000000"]])
def test_over_long_list_exits_3_before_it_is_built(argv):
    """A --n, --l or --r list longer than the cap exits 3 naming the cap,
    in a child whose address space is capped at 2 GB: the list is never
    built, so the limit is not what stops it."""
    proc = _run_capped(argv, 2 << 30)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("resource limit: ") and "cap of 1000000" in proc.stderr


def test_gram_row_memory_does_not_grow_with_the_tolerance():
    """A seeded gram row on Z at tol 3e-7 sums 7.4 million terms.  Blocks
    past the 64 MiB cache budget are drawn for each fetch and dropped, so
    it runs in a child whose address space is capped at 1 GiB (its own
    peak is about 0.4 GB); a cache that kept every block reached about
    2.0 GB and stopped there with a MemoryError."""
    argv = ["noise-table", "--matrix", '{"kind": "gram", "domain": "Z", "seed": 1, "dim": 8}',
            "--n", "0", "--l", "1", "--tol", "3e-7"]
    proc = _run_capped(argv, 1 << 30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("n,l,value,lower,upper,cutoff\n0,1,1.3547077560182581,"
                           "1.3547076060182623,1.3547079060182536,3676822\n")


def test_covariance_at_the_window_cap_fits_in_1_gib():
    """The covariance defect of a 4096-wide window holds the block and
    O(64 N) of row tiles, not two operators and their grids: it runs under
    a 1 GiB address-space cap (its own peak is about 0.4 GB; with dense
    kernel, phase and index grids it needed about 1.4 GB)."""
    argv = ["covariance-check", "--matrix", '{"kind": "chessboard", "domain": "Z", "xi": 0.5}',
            "--window=-2048:2047"]
    proc = _run_capped(argv, 1 << 30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ('{"window": [-2048, 2047], "shift": 1.5707963267948966, '
                           '"defect": 1.2428498354583635e-16, "pass": true}\n')


def test_out_of_memory_exits_3_without_a_traceback():
    """A report that does not fit in the address space exits 3 with
    numpy's message, like any other resource limit."""
    proc = _run_capped(["observable", "--window=0:4095"], 1 << 30)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("resource limit: out of memory: ")
    assert "Traceback" not in proc.stderr


def test_list_cap_boundary():
    assert len(cli._parse_int_list("1:%d" % cli.MAX_LIST_LENGTH)) == cli.MAX_LIST_LENGTH
    assert cli._parse_int_list("5:4") == []
    with pytest.raises(cn.ResourceLimitError, match="cap of 1000000"):
        cli._parse_int_list("0:%d" % cli.MAX_LIST_LENGTH)
    with pytest.raises(cn.ResourceLimitError, match="1000001 entries"):
        cli._parse_int_list(",".join(["7"] * (cli.MAX_LIST_LENGTH + 1)))


@pytest.mark.parametrize("command", [["verify", "--suite", "torus"], ["schur-growth", "--r", "5"],
                                     ["noise-table", "--n", "0:0"], ["observable"]])
def test_non_object_config_matrix_is_refused_by_every_subcommand(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": [1, 2]}))
    code, out, err = run_cli(capsys, *command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: matrix spec must be an object, got list\n"


def test_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "noise-table", "--matrix", '{"kind":"x"}')
    assert code == 2 and "kind" in err
    code, _, err = run_cli(capsys, "noise-table", "--matrix", "{broken")
    assert code == 2 and "JSON" in err
    code, _, err = run_cli(capsys, "observable", "--x", "0;pi")
    assert code == 2
    code, _, err = run_cli(capsys, "noise-table", "--tol", "1e-12", "--matrix",
                           '{"kind":"gram","domain":"N","seed":1,"dim":4}',
                           "--n", "0:0")
    assert code == 3 and "achievable" in err
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "noise-table", "--matrix", str(missing))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["noise-table", "--n", "1000000000000000000000000000000"],
    ["observable", "--matrix", _GRAM_Z, "--window", "4611686018427387904:4611686018427387905"],
    ["observable", "--matrix", _GRAM_Z, "--window", "9223372036854775800:9223372036854775807"],
    ["noise-table", "--matrix", '{"kind": "constant_one", "domain": "Z"}',
     "--n=9223372036854775807"],
    ["noise-table", "--matrix", _GRAM_Z, "--n", str(-2**61), "--tol", "1e-2"],
], ids=["table-1e30", "window-2^62", "window-int64-top", "table-int64-max", "table-minus-2^61"])
def test_indices_past_the_addressable_bound_are_usage_errors(capsys, argv):
    """Indices must satisfy |n| < 2^61, where n plus or minus the term cap and
    its zigzag index fit in int64; past it the CLI exits 2 naming the bound."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "2^61" in err and "Traceback" not in err


@pytest.mark.parametrize("domain", ["N", "Z"])
def test_gram_row_at_the_top_addressable_index(capsys, domain):
    spec = json.dumps({"kind": "gram", "domain": domain, "seed": 1, "dim": 8})
    code, out, err = run_cli(capsys, "noise-table", "--matrix", spec,
                             "--n", str(2**61 - 1), "--tol", "1e-2")
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split(",")
    assert row[0] == str(2**61 - 1) and float(row[4]) - float(row[3]) <= 1e-2


def test_spec_number_that_is_not_a_float_exits_2(capsys):
    code, out, err = run_cli(capsys, "observable", "--matrix",
                             '{"kind":"chessboard","xi":"x"}')
    assert code == 2 and out == ""
    assert err.startswith("error: spec field xi must be a float")


_SLOPE = '{"kind":"torus","domain":"Z","phases":{"formula":"linear","slope":%s}}'
_NAN_PHASE = '{"kind":"torus","phases":[0,"nan",1]}'
_NAN_VECTOR = '{"kind":"gram","vectors":[[[1,0]],[["nan",0]]]}'


@pytest.mark.parametrize("argv, field", [
    (["noise-table", "--matrix", _SLOPE % '"nan"'], "phases.slope"),
    (["noise-table", "--matrix", _SLOPE % '"inf"'], "phases.slope"),
    (["noise-table", "--matrix", _SLOPE % "NaN"], "phases.slope"),
    (["observable", "--matrix", _NAN_PHASE, "--window", "0:2"], "phases[1]"),
    (["covariance-check", "--matrix", _NAN_PHASE, "--window", "0:2"], "phases[1]"),
    (["observable", "--matrix", _NAN_VECTOR, "--window", "0:1"], "vectors[1][0][0]"),
    (["covariance-check", "--matrix", _NAN_VECTOR, "--window", "0:1"], "vectors[1][0][0]"),
], ids=["slope-nan", "slope-inf", "slope-json-nan", "observable-phase", "covariance-phase",
        "observable-vector", "covariance-vector"])
def test_non_finite_spec_values_exit_2(capsys, argv, field):
    """A non-finite number in a matrix spec is bad usage, not a failed check."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: spec field {field} must be a finite float")


def test_huge_finite_slope_is_accepted(capsys):
    code, out, err = run_cli(capsys, "noise-table", "--matrix", _SLOPE % "1e300",
                             "--n", "0", "--l", "1")
    assert (code, err) == (0, "")
    assert out.startswith("n,l,value,lower,upper,cutoff\n0,1,")


@pytest.mark.parametrize("command", [["noise-table", "--n", "0"], ["asymptotic"]])
@pytest.mark.parametrize("l, code", [(622, 0), (623, 2), (2000, 2)])
def test_moment_order_is_bounded_where_a_double_holds_it(capsys, command, l, code):
    """pi^(l-2) overflows a double from l = 623 on: larger orders exit 2
    naming the bound, not with an OverflowError."""
    got, out, err = run_cli(capsys, *command, "--l", str(l), "--tol", "1e200")
    assert got == code
    if code:
        assert out == "" and err.startswith("error: moment order must be at most 622")
    else:
        assert err == "" and str(l) in out.splitlines()[1].split(",")


def test_below_floor_tolerance_exits_3_and_names_the_floor(capsys):
    spec = '{"kind":"chessboard","domain":"Z","xi":0.5}'
    code, out, err = run_cli(capsys, "noise-table", "--tol", "1e-16", "--matrix", spec,
                             "--n", "0:0", "--l", "4")
    assert code == 3 and out == ""
    assert "rounding floor" in err
    floor = re.search(r"smallest achievable tolerance is (\S+)", err).group(1)
    code, out, err = run_cli(capsys, "noise-table", "--tol", floor, "--matrix", spec,
                             "--n", "0:0", "--l", "4")
    assert code == 0 and err == ""
    row = out.strip().split("\n")[1].split(",")
    assert float(row[4]) - float(row[3]) <= float(floor)


@pytest.mark.parametrize("spec", [
    {"kind": "torus", "domain": "N", "phases": [0.0, 0.5, 1.5]},
    {"kind": "gram", "domain": "N", "vectors": [[[1.0, 0.0]], [[0.0, 1.0]]]},
])
@pytest.mark.parametrize("command", [["noise-table"], ["asymptotic"],
                                     ["noise-diagonal", "--window", "0:1"]])
def test_finite_tables_refused_for_row_sums(capsys, spec, command):
    """Tables cannot feed a sum over a whole row: usage error before any
    summation, while the windowed commands still take them."""
    code, out, err = run_cli(capsys, *command, "--matrix", json.dumps(spec))
    assert code == 2 and out == ""
    assert "tables serve only the windowed commands" in err
    code, _, _ = run_cli(capsys, "observable", "--matrix", json.dumps(spec),
                         "--window", "0:1")
    assert code == 0


def test_negative_seed_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "torus", "--seed", "-1")
    assert code == 2 and out == "" and "seed" in err


@pytest.mark.parametrize("suite", list(cli._SUITES))
@pytest.mark.parametrize("seed", ["-1", str(2**63)])
def test_out_of_range_seed_is_refused_before_any_suite_runs(capsys, monkeypatch, suite, seed):
    """Every suite refuses a seed outside [0, 2^63), including those that
    never read it (chessboard, schur), before any check runs."""
    monkeypatch.setattr(verify, "run", lambda *args: pytest.fail("a suite ran"))
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", seed)
    assert code == 2 and out == ""
    assert err == f"error: seed must be an integer in [0, 2^63), got {seed}\n"


@pytest.mark.parametrize("data, argv, message", [
    ({"tolerance": -1}, ["noise-table", "--n", "0:0", "--tol", "1e-3"],
     "tolerance must be positive, got -1.0"),
    ({"tolerance": float("nan")}, ["noise-table", "--n", "0:0", "--tol", "1e-3"],
     "tolerance must be positive, got nan"),
    ({"format": "xml"}, ["noise-table", "--n", "0:0", "--format", "csv"],
     "unknown output format 'xml'"),
    ({"seed": -1}, ["verify", "--suite", "chessboard", "--seed", "0"],
     "seed must be an integer in [0, 2^63), got -1"),
    ({"matrix": {"kind": "x"}}, ["noise-table", "--n", "0:0", "--matrix", '{"kind": "constant_one"}'],
     "unknown matrix kind 'x'"),
    ({"matrix": {"kind": "chessboard", "xi": 2}}, ["schur-growth", "--r", "5"],
     "chessboard xi must lie in [0, 1], got 2.0"),
])
def test_config_values_are_checked_in_full_whatever_the_flags(tmp_path, capsys, data, argv,
                                                             message):
    """A bad value in a config file exits 2 at load, even when a flag
    overrides it or the subcommand never reads it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_observable_identity_dump(capsys):
    code, out, _ = run_cli(capsys, "observable", "--x", "0:2*pi",
                           "--window", "0:4")
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] == [0, 4]
    entries = np.asarray(payload["entries"], dtype=float)
    block = entries[:, 0].reshape(5, 5) + 1j * entries[:, 1].reshape(5, 5)
    assert np.max(np.abs(block - np.eye(5))) <= 1e-12


def test_observable_half_circle_entries(capsys):
    code, out, _ = run_cli(capsys, "observable", "--x", "0:pi",
                           "--window", "0:7")
    payload = json.loads(out)
    block = np.asarray(payload["entries"], dtype=float)
    block = block[:, 0].reshape(8, 8) + 1j * block[:, 1].reshape(8, 8)
    assert np.max(np.abs(np.diag(block) - 0.5)) <= 1e-15
    assert block[1, 0] == pytest.approx(1j / math.pi, abs=1e-15)
    assert abs(block[2, 0]) <= 1e-15


def test_observable_moment_diagonal(capsys):
    code, out, _ = run_cli(capsys, "observable", "--moment", "2",
                           "--window", "0:3")
    payload = json.loads(out)
    entries = np.asarray(payload["entries"], dtype=float)
    diag = entries[:, 0].reshape(4, 4).diagonal()
    assert np.max(np.abs(diag - 4.0 * math.pi**2 / 3.0)) <= 1e-13


def test_observable_csv_projection(capsys):
    code, out, _ = run_cli(capsys, "observable", "--x", "0:pi",
                           "--window", "0:2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,re,im"
    assert len(lines) == 1 + 9


def _reference_dumps(window, entries):
    """The operator dump as the per-entry recursive serializer writes it."""
    payload = {"window": [window.lo, window.hi],
               "entries": [[float(z.real), float(z.imag)] for z in entries.reshape(-1)]}
    idx = window.indices()
    rows = [(int(n), int(m), z.real, z.imag)
            for i, n in enumerate(idx) for m, z in zip(idx, entries[i])]
    return _render_json(payload), _render_csv(("n", "m", "re", "im"), rows)


def _assert_dumps_match(window, entries):
    ref_json, ref_csv = _reference_dumps(window, entries)
    assert _operator_text(window, entries, "json") == ref_json
    assert _operator_text(window, entries, "csv") == ref_csv


def test_operator_dump_matches_reference_serializer():
    tiny = 5e-324
    values = [0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 1e22, -1e22,
              1.0 / 3.0, 1.0 / 3.0, -2.5, 1e22]
    parts = np.resize(np.asarray(values), 2 * 16).reshape(4, 4, 2)
    parts[0, :3] = [[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]]
    entries = parts.view(np.complex128)[..., 0]
    for window in (cn.IndexWindow(0, 3), cn.IndexWindow(-2, 1), cn.IndexWindow(-7, -4)):
        _assert_dumps_match(window, entries)
    for z in (complex(-0.0, 0.0), complex(tiny, -1e22), 0.5 + 0.5j):
        for window in (cn.IndexWindow(0, 0), cn.IndexWindow(-3, -3)):
            _assert_dumps_match(window, np.full((1, 1), z))
    json_text = _operator_text(cn.IndexWindow(-2, 1), entries, "json")
    assert json_text.startswith('{"window": [-2, 1], "entries": [[-0, -0], [0, -0], [-0, 0], ')
    # table reports: header rows as CSV, records dict(zip(header, row)) as JSON
    header = ("n", "value", "pass")
    rows = [(0, -0.0, True), (-7, 1.0 / 3.0, False), (10**8, tiny, True)]
    assert _report_text(header, rows, "csv") == (
        "n,value,pass\n0,-0,true\n-7,0.33333333333333331,false\n"
        "100000000,4.9406564584124654e-324,true\n")
    assert _report_text(header, rows, "json") == (
        '[{"n": 0, "value": -0, "pass": true}, '
        '{"n": -7, "value": 0.33333333333333331, "pass": false}, '
        '{"n": 100000000, "value": 4.9406564584124654e-324, "pass": true}]\n')
    assert _report_text(header, [], "csv") == "n,value,pass\n"
    assert _report_text(header, [], "json") == "[]\n"
    # commands with their own JSON shape: nested samples, one object
    nested = [{"l": 1, "classification": "positive_limit", "samples": [{"n": 0, "value": 1e22}]}]
    assert _report_text(("l", "classification"), [(1, "positive_limit")], "json", nested) == (
        '[{"l": 1, "classification": "positive_limit", "samples": [{"n": 0, "value": 1e+22}]}]\n')
    single = {"window": [-2, 1], "shift": -2.5, "pass": False}
    assert _report_text(("window_lo", "window_hi", "shift", "pass"), [(-2, 1, -2.5, False)],
                        "json", single) == '{"window": [-2, 1], "shift": -2.5, "pass": false}\n'
    assert _report_text(("window_lo", "window_hi", "shift", "pass"), [(-2, 1, -2.5, False)],
                        "csv", single) == "window_lo,window_hi,shift,pass\n-2,1,-2.5,false\n"


@given(size=st.integers(1, 6), lo=st.integers(-8, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_operator_dump_matches_reference_serializer_random(size, lo, data):
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    parts = data.draw(st.lists(floats, min_size=2 * size * size, max_size=2 * size * size))
    entries = np.asarray(parts, dtype=float).reshape(size, size, 2).view(np.complex128)
    _assert_dumps_match(cn.IndexWindow(lo, lo + size - 1), entries[..., 0])
    rows = [(lo + i, re, im) for i, (re, im) in enumerate(np.reshape(parts, (-1, 2)).tolist())]
    assert _report_text(("n", "re", "im"), rows, "csv") == \
        "n,re,im\n" + "".join("%d,%.17g,%.17g\n" % row for row in rows)
    assert _report_text(("n", "re", "im"), rows, "json") == "[" + ", ".join(
        '{"n": %d, "re": %.17g, "im": %.17g}' % row for row in rows) + "]\n"


def test_covariance_check(capsys):
    spec = json.dumps({"kind": "torus", "domain": "Z",
                       "phases": {"formula": "linear", "slope": 0.4}})
    code, out, _ = run_cli(capsys, "covariance-check", "--matrix", spec,
                           "--x", "0:pi/2,pi:3*pi/2", "--shift", "pi/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["defect"] <= 1e-12
    assert payload["shift"] == pytest.approx(math.pi / 3, rel=1e-15)


def test_noise_diagonal_report(capsys):
    code, out, _ = run_cli(capsys, "noise-diagonal", "--n", "0,5",
                           "--window", "0:255")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,value,tail_bound,lower,upper,defect,intersects"
    for line in lines[1:]:
        assert line.split(",")[-1] == "true"


def test_schur_growth_csv_contract(capsys):
    code, out, _ = run_cli(capsys, "schur-growth", "--r", "5,55")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,s_r,u_r,norm"
    r5 = lines[1].split(",")
    assert float(r5[2]) == pytest.approx(23.0 / (15.0 * math.pi), rel=1e-14)
    assert float(r5[3]) >= float(r5[1]) > float(r5[2])


def test_observable_accepts_seeded_gram_spec(capsys):
    spec = '{"kind":"gram","domain":"N","seed":3,"dim":4}'
    code, out, err = run_cli(capsys, "observable", "--matrix", spec, "--window", "0:3")
    assert code == 0 and err == ""
    assert out.startswith("{")


def test_schur_growth_rejects_even_r(capsys):
    code, _, err = run_cli(capsys, "schur-growth", "--r", "6")
    assert code == 2 and "odd" in err


def test_hadamard_table(capsys):
    code, out, _ = run_cli(capsys, "hadamard", "--p-max", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,norm,modulus_norm,expected_modulus_norm,pass"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == "true"
        assert float(cells[1]) == pytest.approx(1.0, abs=1e-9)


# The shared options each subcommand reads, besides its own; the other
# shared options are refused by argparse.
SHARED_OPTIONS = ("--config", "--matrix", "--tol", "--window", "--format", "--seed", "--out")
COMMAND_OPTIONS = {
    "noise-table": {"--config", "--matrix", "--tol", "--format", "--out", "--n", "--l"},
    "asymptotic": {"--config", "--matrix", "--tol", "--format", "--out", "--l", "--horizon"},
    "verify": {"--config", "--seed", "--out", "--suite"},
    "observable": {"--config", "--matrix", "--window", "--format", "--out", "--x", "--moment"},
    "covariance-check": {"--config", "--matrix", "--window", "--format", "--out", "--x",
                         "--shift"},
    "noise-diagonal": {"--config", "--matrix", "--tol", "--window", "--format", "--out",
                       "--n"},
    "schur-growth": {"--config", "--format", "--out", "--r"},
    "hadamard": {"--config", "--format", "--out", "--p-max"},
}
UNREAD = [(command, option) for command, options in COMMAND_OPTIONS.items()
          for option in SHARED_OPTIONS if option not in options]


def test_subcommand_options_match_the_declared_table():
    _, commands = cli._build_parser()
    seen = {name: {flag for action in sp._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")}
            for name, sp in commands.items()}
    assert seen == COMMAND_OPTIONS
    assert sum(len(options) for options in seen.values()) == 47
    assert len(UNREAD) == 21


@pytest.mark.parametrize("command, option", UNREAD)
def test_unread_options_are_refused_before_any_work(capsys, monkeypatch, command, option):
    def no_work(*args):
        raise AssertionError(f"{command} ran")

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), no_work)
    base = {"verify": ["--suite", "torus"], "schur-growth": ["--r", "5"],
            "hadamard": ["--p-max", "1"]}.get(command, [])
    value = {"--matrix": '{"kind":"nonsense"}', "--tol": "1e-30", "--window": "3:4",
             "--format": "json", "--seed": "9"}[option]
    with pytest.raises(SystemExit) as exc:
        main([command, *base, option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and option in captured.err


@pytest.mark.parametrize("argv", [["--p-max", "0"], ["--p-max=-2"], ["--p-max", "13"]])
def test_hadamard_p_max_out_of_range_is_a_usage_error(capsys, monkeypatch, argv):
    """Out-of-range orders exit 2 before any block is computed."""
    def no_blocks(p):
        raise AssertionError(f"computed block p={p}")

    monkeypatch.setattr("covnoise.cli.sylvester_hadamard_example", no_blocks)
    code, out, err = run_cli(capsys, "hadamard", *argv)
    assert code == 2 and out == ""
    assert "[1, 12]" in err


def test_noise_diagonal_huge_window_exits_3(capsys):
    code, out, err = run_cli(capsys, "noise-diagonal", "--window", "0:1000000000000",
                             "--n", "500000000000")
    assert code == 3 and out == ""
    assert "COVNOISE_MAX_WINDOW" in err and "16777216" in err


def test_asymptotic_json(capsys):
    spec = json.dumps({"kind": "chessboard", "domain": "N", "xi": 0.5})
    code, out, _ = run_cli(capsys, "asymptotic", "--matrix", spec,
                           "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["classification"] == "positive_limit"
    assert len(rec["samples"]) == 3
    assert rec["estimate"] == pytest.approx(0.75 * math.pi**2 / 4.0, abs=2e-3)


@pytest.mark.parametrize("suite", ["chessboard", "torus", "covariance", "schur"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 2


def test_verify_noise_diagonal_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "noise_diagonal")
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_all_aggregates_every_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out
    singles = 0
    for suite in ("chessboard", "torus", "covariance", "noise_diagonal", "schur"):
        singles += run_cli(capsys, "verify", "--suite", suite)[1].count("\n")
    assert out.count("\n") == singles
    assert cli._SUITES == (*verify.SUITES, "all")


def _child_env():
    """Environment for a child interpreter that imports this covnoise,
    installed or not."""
    src = str(Path(cn.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _readme_command_lines() -> list[str]:
    """The covnoise lines of the sh block under the README's "## Command line"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("covnoise ")]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line_examples_run(capsys, line):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "covnoise.cli", "noise-table", "--n", "0:1"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,l,value")


@pytest.mark.parametrize("argv", [
    None,
    ["schur-growth", "--r", "5,55,5555"],
    ["verify", "--suite", "schur"],
], ids=["import", "schur-growth", "verify-schur"])
def test_cli_import_does_not_load_scipy(argv):
    """numpy is the only runtime dependency: neither the import nor the
    commands that certify Toeplitz norms load scipy."""
    call = "0" if argv is None else f"main({argv!r})"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import io, sys, contextlib\nfrom covnoise.cli import main\n"
         f"with contextlib.redirect_stdout(io.StringIO()):\n    code = {call}\n"
         "print('scipy' in sys.modules, code)"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False 0"
