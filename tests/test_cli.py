import errno
import hashlib
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covnoise as cn
from covnoise import cli, noise, observables, verify
from covnoise.cli import _operator_pieces, _render_csv, _render_json, _report_text, main


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


def test_one_parser_serves_every_call_and_keeps_no_config(tmp_path, capsys, monkeypatch,
                                                          request):
    """main builds its parser once, on first use, and never changes it: a
    run with --config leaves the built-in defaults of a later plain run of
    the same subcommand alone, and a cmd_* patched after the parser was
    built is the handler that runs."""
    builds, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    request.addfinalizer(cli._parser.cache_clear)
    config = tmp_path / "run.json"
    for command, (own, options) in PRECEDENCE_CASES.items():
        plain = run_cli(capsys, command, *own)
        assert plain[0] in (0, 1) and plain[2] == "", (command, plain)
        for option, ((key, value, _), _) in options.items():
            config.write_text(json.dumps({key: value}))
            assert run_cli(capsys, command, *own, "--config", str(config)) != plain
            assert run_cli(capsys, command, *own) == plain, (command, option)
    assert builds == [1]

    monkeypatch.setattr(cli, "cmd_hadamard", lambda args: (["patched %d\n" % args.p_max], 0))
    assert run_cli(capsys, "hadamard", "--p-max", "3") == (0, "patched 3\n", "")
    assert builds == [1]


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


def _bracket_sums(monkeypatch):
    """Record the rows of every batch of bracket heads summed.  The window
    diagonals of noise-diagonal, which observables sums one row at a time,
    are not brackets and are not recorded."""
    summed = []
    real = noise._head_sums
    monkeypatch.setattr(noise, "_head_sums", lambda A, rows: summed.append(rows) or real(A, rows))
    monkeypatch.setattr(observables, "_head_sum",
                        lambda A, n, l, up, down: real(A, [(n, l, up, down)])[0])
    return summed


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
    summed = _bracket_sums(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith(message)
    assert summed == []


def test_out_write_failure_after_the_check_is_a_usage_error(tmp_path, capsys):
    """A failure the early check cannot see still exits 2 at write time."""
    target = tmp_path / ("x" * 300)  # an existing folder, a name too long to create
    code, out, err = run_cli(capsys, "hadamard", "--p-max", "1", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write the report to") and "too long" in err


def _capped_child(argv, limit, rss=False, **env):
    """The command and environment of a child that runs main(argv) pinned
    to two CPUs, its address space capped at limit bytes (each thread of
    the child reserves address space of its own, so the CPU count is fixed
    along with the cap), with env added to its environment.  With rss, the
    child then prints the peak RSS of its own address space in KiB (VmHWM;
    ru_maxrss would keep the high-water mark of the image exec replaced)."""
    report = ("import pathlib; print(next(int(line.split()[1]) for line in "
              "pathlib.Path('/proc/self/status').read_text().splitlines() "
              "if line.startswith('VmHWM:'))); ") if rss else ""
    child = ("import os, resource, sys; "
             "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2]); "
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
             f"from covnoise.cli import main; code = main(sys.argv[1:]); {report}sys.exit(code)")
    return [sys.executable, "-c", child, *argv], {**_child_env(), **env}


def _run_capped(argv, limit, stdout=subprocess.PIPE, **env):
    command, environ = _capped_child(argv, limit, **env)
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=300, env=environ)


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


def test_hadamard_forms_no_matrix(tmp_path):
    """hadamard --p-max 12 computes both norms of every order from closed
    forms, so its child peaks near the RSS of importing numpy; forming the
    4096 x 4096 Sylvester matrix took it to about 231 MB."""
    proc = _run_capped(["hadamard", "--p-max", "12", "--out", str(tmp_path / "h.csv")],
                       1 << 30, rss=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) < 60 * 1024


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
    assert proc.stdout == ("n,l,value,lower,upper,cutoff\n0,1,1.3547077560003489,"
                           "1.3547076060003524,1.3547079060003451,3675607\n")


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


def test_chessboard_covariance_past_the_default_cap_fits_in_1_gib():
    """The chessboard is read by difference, so a 65536-wide covariance
    check (a 64 GiB block if truncated) holds O(N) memory: it exits 0 under
    a 1 GiB address-space cap."""
    argv = ["covariance-check", "--matrix", '{"kind": "chessboard", "domain": "N", "xi": 0.5}',
            "--window=0:65535"]
    proc = _run_capped(argv, 1 << 30, COVNOISE_MAX_WINDOW="65536")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ('{"window": [0, 65535], "shift": 1.5707963267948966, '
                           '"defect": 1.2489264668080304e-16, "pass": true}\n')


def test_out_of_memory_exits_3_without_a_traceback(tmp_path):
    """A report that does not fit in the address space exits 3 with
    numpy's message, like any other resource limit: under a raised window
    cap, the 8192-wide block of a gram matrix alone is 1 GiB of complex
    entries.  (Constant one, the chessboard and the linear torus are read
    by difference, so their 8192-wide dumps stream in O(N) memory.)  The
    child writes to a file, so a dump that did stream is never held here."""
    out = tmp_path / "stdout"
    with open(out, "w") as fh:
        proc = _run_capped(["observable", "--matrix", '{"kind": "gram", "domain": "N", '
                            '"seed": 1, "dim": 8}', "--window=0:8191"],
                           1 << 30, stdout=fh, COVNOISE_MAX_WINDOW="8192")
    assert proc.returncode == 3 and out.read_text() == ""
    assert proc.stderr.startswith("resource limit: out of memory: ")
    assert "Traceback" not in proc.stderr


def test_observable_at_the_window_cap_fits_in_1_gib():
    """The 4096-wide dump of constant one (about 680 MB of JSON) streams
    tile by tile, so it runs under a 1 GiB address-space cap (its own peak
    is about 0.55 GB; the whole-document serializer ran out of memory in
    np.unique there).  Its stdout hashes to the whole-document bytes."""
    command, environ = _capped_child(["observable", "--window=0:4095"], 1 << 30)
    digest = hashlib.sha256()
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=environ) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (code, err) == (0, b"")
    assert digest.hexdigest() == (
        "2d73e84262f081bb2897812b6a91855aa82720817dd73eada6310528fb4b7203")


def test_closed_stdout_exits_2_without_a_traceback():
    """A reader that leaves early (`covnoise observable --window=0:511 |
    head -c 5`) ends the dump with exit 2 and one line on stderr."""
    with subprocess.Popen([sys.executable, "-m", "covnoise.cli", "observable", "--window=0:511"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_child_env()) as proc:
        assert proc.stdout.read(5) == b'{"win'
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (2, b"error: cannot write the report to stdout: Broken pipe\n")


def test_failed_dump_leaves_the_old_out_file(tmp_path, capsys, monkeypatch):
    """--out is replaced only by a whole report: a dump that fails after its
    first piece leaves the old file as it was and no temporary file.  Like
    a plain open, a report goes through a symlink, an existing file keeps
    its mode and a new one gets 0o666 less the umask."""
    target, link = tmp_path / "report.json", tmp_path / "link.json"
    target.write_text("old report\n")
    target.chmod(0o600)
    link.symlink_to(target)

    def failing(window, entries, fmt):
        yield '{"window": '
        raise MemoryError("no room for the second piece")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_operator_pieces", failing)
        code, out, err = run_cli(capsys, "observable", "--window=0:3", "--out", str(link))
    assert (code, out, err) == (3, "", "resource limit: out of memory: no room for the second "
                                       "piece\n")
    assert target.read_text() == "old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "report.json"]
    for name in ("link.json", "new.json"):
        code, out, err = run_cli(capsys, "observable", "--window=0:3", "--out",
                                 str(tmp_path / name))
        assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and json.loads(target.read_text())["window"] == [0, 3]
    assert (tmp_path / "new.json").read_text() == target.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "new.json", "report.json"]
    umask = os.umask(0o022)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o600
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o666 & ~umask


def test_out_that_a_rename_would_change_is_written_in_place(tmp_path, capsys, monkeypatch):
    """Only a new file or a regular file of ours with one link goes through
    the temporary file.  Any other --out is written in place: /dev/null
    stays the device, a FIFO's reader gets the report, a hard-linked file
    keeps its links, another user's file its inode, and a file in a folder
    that takes no new file still gets the report."""
    code, report, err = run_cli(capsys, "observable", "--window=0:3")
    assert (code, err) == (0, "")
    argv = ("observable", "--window=0:3", "--out")

    assert run_cli(capsys, *argv, os.devnull) == (0, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run_cli(capsys, *argv, str(fifo)) == (0, "", "")
    reader.join(timeout=60)
    assert got == [report]

    linked, other = tmp_path / "linked.json", tmp_path / "other.json"
    linked.write_text("old report\n")
    os.link(linked, other)
    theirs, uid = tmp_path / "theirs.json", os.geteuid()
    theirs.write_text("old report\n")
    inodes = [linked.stat().st_ino, theirs.stat().st_ino]
    assert run_cli(capsys, *argv, str(linked)) == (0, "", "")
    with monkeypatch.context() as patch:
        patch.setattr(cli.os, "geteuid", lambda: uid + 1)
        assert run_cli(capsys, *argv, str(theirs)) == (0, "", "")
    assert other.read_text() == theirs.read_text() == report
    assert [linked.stat().st_ino, theirs.stat().st_ino] == inodes

    def refused(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied")

    with monkeypatch.context() as patch:
        patch.setattr(cli.tempfile, "mkstemp", refused)
        assert run_cli(capsys, *argv, str(tmp_path / "new.json")) == (0, "", "")
    assert (tmp_path / "new.json").read_text() == report
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fifo", "linked.json", "new.json", "other.json", "theirs.json"]


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


@pytest.mark.parametrize("spec", [{"kind": "constant_one", "domain": "N"},
                                  {"kind": "chessboard", "domain": "N", "xi": 0.5},
                                  {"kind": "chessboard", "domain": "Z", "xi": 0.5}, TORUS_Z],
                         ids=lambda spec: f"{spec['kind']}-{spec['domain']}")
@pytest.mark.parametrize("command", [["observable"], ["observable", "--moment", "2"],
                                     ["covariance-check"]], ids=" ".join)
def test_matrices_read_by_difference_keep_the_window_checks(capsys, monkeypatch, spec, command):
    """A matrix read by difference is never truncated, yet a negative
    window on N and one past the addressable bound exit 2, and one past
    window_cap() exits 3, each with nothing on stdout; the cap itself is
    accepted."""
    monkeypatch.setenv("COVNOISE_MAX_WINDOW", "16")
    argv = [*command, "--matrix", json.dumps(spec)]
    bound = "2305843009213693952"  # 2^61, the first index past the addressable bound
    outside = ["-1:5"] if spec["domain"] == "N" else [f"-{bound}:-2305843009213693950"]
    for window in outside + [f"2305843009213693951:{bound}"]:
        code, out, err = run_cli(capsys, *argv, "--window=" + window)
        assert (code, out) == (2, "") and err.startswith("error: window ")
    code, out, err = run_cli(capsys, *argv, "--window=0:16")
    assert (code, out) == (3, "") and "exceeding the cap 16" in err
    code, out, err = run_cli(capsys, *argv, "--window=0:15")
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("spec, dense", [(TORUS_Z, 0), (json.loads(_GRAM_Z), 1)],
                         ids=["linear-torus", "gram"])
@pytest.mark.parametrize("command", [["observable"], ["observable", "--moment", "1"],
                                     ["observable", "--moment", "2"], ["covariance-check"]],
                         ids=" ".join)
def test_linear_torus_is_read_by_difference(capsys, monkeypatch, spec, dense, command):
    """The linear torus declares difference, so its observables, moment
    operators and covariance checks build no dense block; a gram matrix,
    which declares none, builds one."""
    truncations = []
    monkeypatch.setattr(cn.observables, "truncate",
                        lambda *args: truncations.append(args) or cn.truncate(*args))
    code, out, err = run_cli(capsys, *command, "--matrix", json.dumps(spec), "--window=-64:63")
    assert (code, err, len(truncations)) == (0, "", dense) and out


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


def test_asymptotic_below_floor_names_a_tolerance_that_works(capsys):
    """asymptotic brackets its samples at tol/10, so the tolerance its
    refusal names, passed back as --tol, runs."""
    code, out, err = run_cli(capsys, "asymptotic", "--tol", "1e-14")
    assert code == 3 and out == ""
    floor = re.search(r"smallest achievable tolerance is (\S+)\n$", err).group(1)
    code, out, err = run_cli(capsys, "asymptotic", "--tol", floor)
    assert code == 0 and err == "" and out.startswith("l,classification,estimate\n2,")


def test_asymptotic_refuses_a_horizon_past_the_indices_before_summing(capsys, monkeypatch):
    """A horizon of 2^61 or more exits 2 naming --horizon before any sample
    is summed, whatever order comes first."""
    monkeypatch.setattr(noise, "_head_sums", lambda *args: pytest.fail("a sample was summed"))
    for horizon in ("8", str(2**61), str(2**62)):
        code, out, err = run_cli(capsys, "asymptotic", "--l", "1,2", "--horizon", horizon)
        assert (code, out) == (2, "")
        assert err == f"error: --horizon must be in [16, 2^61), got {horizon}\n"


@pytest.mark.parametrize("argv", [
    ["noise-table", "--n", "0", "--l", "1,4", "--tol", "1e-14"],
    ["asymptotic", "--l", "4,8", "--tol", "1e-13"],
], ids=["table", "asymptotic"])
def test_a_refusal_names_a_tolerance_every_query_reaches(capsys, argv):
    """Of several queries out of reach, the one with the largest floor is
    refused, so the tolerance named, passed back as --tol, runs them all."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    floor = re.search(r"smallest achievable tolerance is ([^\s)]+)", err).group(1)
    code, out, err = run_cli(capsys, *argv[:-1], floor)
    assert (code, err) == (0, "") and len(out.splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ["noise-table", "--n", "0", "--l", "1,8", "--tol", "1e-12"],
    ["asymptotic", "--l", "1,8", "--tol", "1e-11"],
    ["noise-diagonal", "--n", "0,100", "--tol", "1.8e-13"],
], ids=["table", "asymptotic", "diagonal"])
def test_a_tolerance_out_of_reach_is_refused_before_any_bracket_is_summed(capsys, monkeypatch,
                                                                         argv):
    """Every query of the command is planned before the first is summed:
    a late query out of reach (l = 8, or n = 100 whose floor 1.85e-13
    lies above that of n = 0, 1.75e-13) exits 3 with no row summed."""
    summed = _bracket_sums(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith("resource limit: tolerance ")
    assert summed == []


@pytest.mark.parametrize("spec, rows, digest", [
    ('{"kind":"torus","domain":"Z","phases":{"formula":"linear","slope":0.4}}', 3,
     "8c454e459e935487c7944d1454e11bedf3c9a5c95f5571f346bb02ea1d0bbc69"),
    ('{"kind":"chessboard","domain":"Z","xi":0.5}', 6,
     "bb2e23789b23dfff5014be8cd988e18613f6f268482cd70e0bc34652f3066ba8"),
], ids=["linear-torus", "chessboard"])
def test_rows_read_by_difference_on_the_integers_are_summed_once_per_key(capsys, monkeypatch,
                                                                        spec, rows, digest):
    """On the integers a matrix read by difference has the same row at every
    n of one residue of its profile's period, so noise-table --n -3:3 sums
    one head per order (and residue, for the chessboard's period 2) in one
    batch and prints the bytes it printed when each of the 21 queries was
    summed on its own."""
    summed = _bracket_sums(monkeypatch)
    code, out, err = run_cli(capsys, "noise-table", "--matrix", spec, "--n", "-3:3",
                             "--l", "1,2,4")
    assert (code, err) == (0, "") and len(out.splitlines()) == 22
    assert [len(batch) for batch in summed] == [rows]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_noise_table_plans_each_query_once(capsys, monkeypatch):
    planned = []
    real = noise._select_plan
    monkeypatch.setattr(noise, "_select_plan",
                        lambda *args: planned.append(args[1]) or real(*args))
    code, out, err = run_cli(capsys, "noise-table", "--n", "0:4", "--l", "1,2")
    assert (code, err) == (0, "") and len(out.splitlines()) == 11
    assert [(q.n, q.l) for q in planned] == [(n, l) for n in range(5) for l in (1, 2)]


@pytest.mark.parametrize("argv, plans", [
    (["noise-table", "--n", "0:99", "--l", "1,2,4"], 648),
    (["asymptotic", "--l", "1,2"], 12),
    (["noise-diagonal"], 4),
], ids=["table", "asymptotic", "diagonal"])
def test_row_plans_per_command(capsys, monkeypatch, argv, plans):
    """Count gate on the cutoff search, which starts from the last cutoff
    found in the command for the same order and tolerance: a next row with
    the same cutoff costs two row plans, and no query is planned twice.
    Searches that start from 1 each time make 1939, 12 and 4."""
    planned = []
    real = noise._row_plan
    monkeypatch.setattr(noise, "_row_plan", lambda *args: planned.append(args) or real(*args))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(planned) == plans


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


@pytest.mark.parametrize("spec, window, fmt, digest", [
    ({"kind": "constant_one", "domain": "N"}, "0:299", "json",
     "22a5210c5cfa71e0ee72b7a71dbb823875339a063924aa8c8f3ca236e5d1190c"),
    ({"kind": "constant_one", "domain": "N"}, "0:299", "csv",
     "fe4973ed55750b0db43e8d6c8d7b55954fe3d7f3d7efa35bca39c83baadefd40"),
    ({"kind": "chessboard", "domain": "Z", "xi": 0.5}, "-150:149", "json",
     "ce3c7205b6880c7d319d1823062eae715b96126243a67148dcbb049f5b32f04e"),
    (TORUS_Z, "-150:149", "json",
     "9ca1b372c9aee7ac01342eed7cec55ddab4faee23cc2c1c496b031d74d3e392f"),
    ({"kind": "gram", "domain": "N", "seed": 3, "dim": 8}, "0:299", "json",
     "9dac74b371ed2d987ea09092183fc416d06fe2a59f725d5fb058c3785ad35a11"),
    ({"kind": "gram", "domain": "N", "seed": 3, "dim": 8}, "0:299", "csv",
     "4b3815cbca69a0953d116852b323847ae7205a55eebe4102904f97529c3b94ee"),
    ({"kind": "gram", "domain": "Z", "seed": 3, "dim": 8}, "-150:149", "csv",
     "05b2ae8efe7f12a7ddc80477d6277262e4f687d220fdcd8414938eedbf34ed63"),
], ids=["constant-json", "constant-csv", "chessboard-json", "torus-json", "gram-json",
        "gram-csv", "gram-Z-csv"])
def test_observable_dump_bytes_are_pinned(capsys, spec, window, fmt, digest):
    """300-wide dumps whose rows all repeat the previous one shifted
    (constant one, chessboard, linear torus) or none do (gram) hash to the
    bytes that formatting entry by entry gives.  A seeded gram matrix keys
    its vectors by the index itself on N and by the zigzag index on Z, so
    one gram dump pins each layout."""
    code, out, err = run_cli(capsys, "observable", "--matrix", json.dumps(spec),
                             "--window=" + window, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reference_dumps(window, entries):
    """The operator dump as the per-entry recursive serializer writes it."""
    payload = {"window": [window.lo, window.hi],
               "entries": [[float(z.real), float(z.imag)] for z in entries.reshape(-1)]}
    idx = window.indices()
    rows = [(int(n), int(m), z.real, z.imag)
            for i, n in enumerate(idx) for m, z in zip(idx, entries[i])]
    return _render_json(payload), _render_csv(("n", "m", "re", "im"), rows)


def _assert_dumps_match(window, entries, *diagonals):
    """The dumps of the block entries, and of any 2N - 1 values by
    difference given whose Toeplitz block it is, are the reference bytes."""
    ref_json, ref_csv = _reference_dumps(window, entries)
    for given in (entries, *diagonals):
        assert "".join(_operator_pieces(window, given, "json")) == ref_json
        assert "".join(_operator_pieces(window, given, "csv")) == ref_csv


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
    json_text = "".join(_operator_pieces(cn.IndexWindow(-2, 1), entries, "json"))
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


def _toeplitz(values, size):
    """The size x size block whose entry (i, j) is values[i - j + size - 1]."""
    idx = np.arange(size)
    return np.asarray(values)[idx[:, None] - idx[None, :] + size - 1]


def test_operator_dump_matches_reference_serializer_across_tiles(monkeypatch):
    """Dumps in three-row tiles give the reference bytes: a Toeplitz block
    over seven tiles, from the block and from its 2N - 1 values by
    difference (one of them -0), a block whose odd rows repeat the row
    above shifted, and a row equal to the previous one shifted by value but
    not by bits, whose -0 prints as -0."""
    monkeypatch.setattr(cli, "_TILE_ENTRIES", 3 * 20)
    rng = np.random.default_rng(7)
    diagonals = rng.normal(size=39) + 1j * rng.normal(size=39)
    diagonals[[12, 25, 30]] = [0.0, 1.0 / 3.0, complex(-0.0, -0.0)]
    toeplitz = _toeplitz(diagonals, 20)
    alternating = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    alternating[1::2, 1:] = alternating[0::2, :-1]
    signed = toeplitz.copy()
    signed[8, 15] = complex(-0.0, 0.0)  # toeplitz[7, 14] is 0.0
    assert (signed[8, 1:] == signed[7, :-1]).all()
    for window in (cn.IndexWindow(0, 19), cn.IndexWindow(-7, 12), cn.IndexWindow(-25, -6)):
        _assert_dumps_match(window, toeplitz, diagonals)
        for entries in (alternating, signed):
            _assert_dumps_match(window, entries)
    for z in (complex(-0.0, 0.0), 0.5 - 0.5j):
        for window in (cn.IndexWindow(0, 0), cn.IndexWindow(-3, -3)):
            _assert_dumps_match(window, np.full((1, 1), z), np.full(1, z))
    csv_lines = "".join(_operator_pieces(cn.IndexWindow(0, 19), signed, "csv")).split("\n")
    assert "7,14,0,0" in csv_lines and "8,15,-0,0" in csv_lines


@given(size=st.integers(1, 6), lo=st.integers(-8, 8), tile=st.integers(1, 40), data=st.data())
@settings(max_examples=60, deadline=None)
def test_operator_dump_matches_reference_serializer_random(size, lo, tile, data):
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    parts = data.draw(st.lists(floats, min_size=2 * size * size, max_size=2 * size * size))
    entries = np.asarray(parts, dtype=float).reshape(size, size, 2).view(np.complex128)
    diagonals = np.asarray(parts[:4 * size - 2], dtype=float).view(np.complex128)
    with mock.patch.object(cli, "_TILE_ENTRIES", tile):  # tiles of tile // size rows, at least one
        _assert_dumps_match(cn.IndexWindow(lo, lo + size - 1), entries[..., 0])
        _assert_dumps_match(cn.IndexWindow(lo, lo + size - 1), _toeplitz(diagonals, size),
                            diagonals)
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


CHESS_Z = json.dumps({"kind": "chessboard", "domain": "Z", "xi": 0.5})


@pytest.mark.parametrize("argv, option, value", [
    (["noise-table", "--matrix", CHESS_Z, "--l", "1,2", "--tol", "1e-6"], "--n", "-3:2"),
    (["noise-diagonal", "--matrix", CHESS_Z, "--window=-128:127"], "--n", "-40,0,17"),
    (["covariance-check", "--matrix", CHESS_Z], "--window", "-16:15"),
    (["observable", "--matrix", CHESS_Z, "--format", "csv"], "--window", "-16:15"),
])
def test_negative_values_parse_in_the_spaced_form(capsys, argv, option, value):
    """A token of a minus sign and a digit is a value, not an option: the
    spaced form prints the bytes and exits with the code of the = form."""
    spaced = run_cli(capsys, *argv, option, value)
    joined = run_cli(capsys, *argv, f"{option}={value}")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1] and spaced[2] == ""


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


def test_schur_growth_output_does_not_depend_on_blas_threads():
    """The printed norm comes from FFT matvecs, einsum reductions and fsum,
    so one BLAS thread and two print the same bytes."""
    command = [sys.executable, "-m", "covnoise.cli", "schur-growth", "--r", "5555,19999"]
    runs = [subprocess.run(command, capture_output=True, text=True, timeout=120,
                           env={**_child_env(), "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


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
