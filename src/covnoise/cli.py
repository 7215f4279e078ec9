"""Command line reports for noise tables, observables and multiplier growth.

One binary, subcommand style.  A flag beats a --config value, which beats
the subcommand's built-in default; every input is checked before any work.
Reports are deterministic: identical inputs produce byte-identical output,
with every float printed at 17 significant digits.  Exit codes: 0 success,
1 a mathematical check failed, 2 bad usage, 3 a resource limit was hit.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from .errors import ContractViolationError, ResourceLimitError, UsageError
from .matrices import (IndexDomain, IndexWindow, StructureMatrix, _default_window, constant_one,
                       matrix_from_spec)
from .noise import (NoiseQuery, _validate_order, asymptotic_noise_estimate, check_query,
                    noise_value)
from .observables import (IntervalSet, angle_from_string, covariance_defect, moment_operator,
                          noise_operator_diagonal, observable_operator)
from .schur_analysis import modulus_growth_table, sylvester_hadamard_example

_SUITES = ("chessboard", "torus", "covariance", "noise_diagonal", "schur", "all")
# A config file may serve several subcommands, so each takes all five keys.
_CONFIG_KEYS = ("matrix", "tolerance", "window", "format", "seed")
# The longest --n, --l or --r list; a longer one exits 3 before it is built.
MAX_LIST_LENGTH = 1_000_000


def _parse_range(text: str, what: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"{what} {text!r} must look like lo:hi")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"{what} {text!r} must have integer endpoints") from exc


def _parse_window(text: str) -> IndexWindow:
    return IndexWindow(*_parse_range(text, "window"))


def _parse_int_list(text: str) -> list[int]:
    """Either an inclusive range "lo:hi" (possibly empty) or "a,b,c", of at
    most MAX_LIST_LENGTH entries."""
    text = text.strip()
    if ":" in text:
        lo, hi = _parse_range(text, "range")
        values, count = range(lo, hi + 1), hi - lo + 1
    else:
        try:
            values = [int(p) for p in text.split(",") if p.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"cannot parse integer list {text!r}") from exc
        count = len(values)
    if count > MAX_LIST_LENGTH:
        raise ResourceLimitError(f"the list {text!r} has {count} entries, more than the cap "
                                 f"of {MAX_LIST_LENGTH}")
    return list(values)


def _load_json(text_or_path: str) -> dict:
    raw = text_or_path.strip()
    if not raw.startswith("{"):
        try:
            with open(text_or_path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {text_or_path!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("top-level JSON must be an object")
    return data


def _config_number(field: str, value, kind: type):
    """A config-file value converted with kind (int or float); a value that
    does not convert, or a bool, is a usage error naming the field."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    noun = "an integer" if kind is int else "a number"
    raise UsageError(f"config {field} must be {noun}, got {value!r}")


def _config_defaults(source: str) -> dict:
    """The --config file's values as parser defaults, in the form the
    matching flags take.  Every value is checked in full here, whichever
    subcommand runs and whatever flags override it."""
    data = _load_json(source)
    unknown = [key for key in data if key not in _CONFIG_KEYS]
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r}; "
                         f"accepted keys are {', '.join(_CONFIG_KEYS)}")
    defaults = {}
    if "seed" in data:
        defaults["seed"] = _config_number("seed", data["seed"], int)
    if data.get("tolerance") is not None:
        defaults["tol"] = _config_number("tolerance", data["tolerance"], float)
    window = data.get("window")
    if isinstance(window, list):
        if len(window) != 2:
            raise UsageError(f"config window {window!r} must be [lo, hi]")
        window = "%d:%d" % tuple(_config_number("window", end, int) for end in window)
    elif window is not None and not isinstance(window, str):
        raise UsageError(f"config window {window!r} must be a string or pair")
    if window is not None:
        defaults["window"] = str(_parse_window(window))
    spec = data.get("matrix")
    if spec is not None:
        matrix_from_spec(spec)  # checks every field; the command builds its own
        defaults["matrix"] = json.dumps(spec)
    if data.get("format") is not None:
        defaults["format"] = data["format"]
    _check_values(defaults.get("tol"), defaults.get("format"), defaults.get("seed"))
    return defaults


def _check_inputs(args: argparse.Namespace) -> None:
    """Turn the text inputs of args into values, refusing a bad one (exit
    2) or an over-long list (exit 3) before any work starts."""
    if args.matrix is not None:
        args.matrix = _load_json(args.matrix)
    if args.window is not None:
        args.window = _parse_window(args.window)
    _check_values(args.tol, args.format, args.seed)
    for dest in ("n", "l", "r"):
        if dest in vars(args):
            setattr(args, dest, _parse_int_list(getattr(args, dest)))
    if args.out is not None:
        _check_out(args.out)


def _check_values(tol: float | None, fmt, seed: int | None) -> None:
    """Refuse a tolerance that is not positive, an output format other than
    csv or json, or a seed outside [0, 2^63); None is not given."""
    if tol is not None and not tol > 0.0:
        raise UsageError(f"tolerance must be positive, got {tol}")
    if fmt not in (None, "csv", "json"):
        raise UsageError(f"unknown output format {fmt!r}")
    if seed is not None and not 0 <= seed < 2**63:
        raise UsageError(f"seed must be an integer in [0, 2^63), got {seed!r}")


def _check_out(out: str) -> None:
    """Refuse an empty --out path, one in a missing folder, or one naming a
    folder, with the message the write itself would give."""
    folder = os.path.dirname(out) or out and "."  # "" names no file: ENOENT
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write the report to {out!r}: {os.strerror(code)}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write the report to {out!r}: {exc.strerror or exc}") from exc


def _matrix(args: argparse.Namespace) -> StructureMatrix:
    if args.matrix is None:
        return constant_one(IndexDomain.NATURALS)
    return matrix_from_spec(args.matrix)


def _summable_matrix(args: argparse.Namespace) -> StructureMatrix:
    """The matrix of a command that sums whole rows, which a finite table
    (a torus "phases" list or a gram "vectors" list) cannot supply."""
    A = _matrix(args)
    spec = args.matrix or {}
    table = {"torus": "phases", "gram": "vectors"}.get(spec.get("kind"))
    if table is not None and isinstance(spec.get(table), list):
        raise UsageError(
            f"a {spec['kind']} spec with an explicit '{table}' list covers only indices "
            f"0:{len(spec[table]) - 1}; tables serve only the windowed commands "
            f"observable and covariance-check, not noise sums over whole rows")
    return A


# Deterministic serialization: floats always go through %.17g so repeated
# runs diff clean; complex values appear as [re, im] pairs.

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _json_token(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, float, int)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, complex):
        return "[%s, %s]" % (_fmt(value.real), _fmt(value.imag))
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_token(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(
            "%s: %s" % (json.dumps(str(k)), _json_token(v)) for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_json(obj) -> str:
    return _json_token(obj) + "\n"


def _render_csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _report_text(header: tuple[str, ...], rows, fmt: str, records=None) -> str:
    """A table report: CSV rows under header, or JSON records, one
    dict(zip(header, row)) per row unless the command passes its own."""
    if fmt == "csv":
        return _render_csv(header, rows)
    return _render_json([dict(zip(header, row)) for row in rows]
                        if records is None else records)


def _operator_text(window: IndexWindow, entries: np.ndarray, fmt: str) -> str:
    """An operator block as JSON ({"window": [lo, hi], "entries": [[re, im],
    ...]}) or as CSV (n,m,re,im rows): the bytes _render_json and _render_csv
    give, but each distinct float goes through %.17g once and each document
    is assembled by one template %.  A covariant block has about 4 N
    distinct values.  Values are deduplicated by bit pattern, not by value,
    so -0.0 still prints -0.
    """

    size = window.size
    parts = np.ascontiguousarray(entries, dtype=np.complex128).view(np.float64)
    distinct, inverse = np.unique(parts.view(np.uint64), return_inverse=True)
    text = ("%.17g\0" * distinct.size) % tuple(distinct.view(np.float64).tolist())
    tokens = np.array(text.split("\0")[:-1], dtype=object)[inverse.reshape(size, size, 2)]
    count = size * size
    if fmt == "csv":
        labels = np.array([str(n) for n in window.indices().tolist()], dtype=object)
        cells = np.empty((size, size, 4), dtype=object)
        cells[:, :, 0] = labels[:, None]
        cells[:, :, 1] = labels[None, :]
        cells[:, :, 2:] = tokens
        return "n,m,re,im\n" + ("%s,%s,%s,%s\n" * count) % tuple(cells.ravel().tolist())
    pairs = ", ".join(["[%s, %s]"] * count) % tuple(tokens.ravel().tolist())
    return '{"window": [%d, %d], "entries": [%s]}\n' % (window.lo, window.hi, pairs)


def cmd_noise_table(args: argparse.Namespace) -> tuple[str, int]:
    A = _summable_matrix(args)
    # every query is checked, in table order, before the first is summed
    queries = [check_query(A, NoiseQuery(n, l, args.tol)) for n in args.n for l in args.l]
    values = [noise_value(A, q) for q in queries]
    rows = [(q.n, q.l, v.value, v.lower, v.upper, v.cutoff) for q, v in zip(queries, values)]
    header = ("n", "l", "value", "lower", "upper", "cutoff")
    return _report_text(header, rows, args.format), 0


def cmd_asymptotic(args: argparse.Namespace) -> tuple[str, int]:
    A = _summable_matrix(args)
    for l in args.l:  # every order is checked before the first sample is summed
        _validate_order(l)
    records = []
    rows = []
    for l in args.l:
        est = asymptotic_noise_estimate(A, l, tol=args.tol, horizon=args.horizon)
        records.append({
            "l": l,
            "classification": est.classification.value,
            "estimate": est.estimate,
            "samples": [{"n": n, "value": s.value, "lower": s.lower,
                         "upper": s.upper, "cutoff": s.cutoff}
                        for n, s in zip(est.sample_points, est.samples)],
        })
        rows.append((l, est.classification.value, est.estimate))
    header = ("l", "classification", "estimate")
    return _report_text(header, rows, args.format, records), 0


def cmd_observable(args: argparse.Namespace) -> tuple[str, int]:
    A = _matrix(args)
    w = args.window or _default_window(A.domain)
    if args.moment is None:
        op = observable_operator(A, IntervalSet.from_string(args.x), w)
    else:
        op = moment_operator(A, args.moment, w)
    return _operator_text(op.window, op.entries, args.format), 0


def cmd_covariance_check(args: argparse.Namespace) -> tuple[str, int]:
    A = _matrix(args)
    w = args.window or _default_window(A.domain, 128)
    X = IntervalSet.from_string(args.x)
    x = angle_from_string(args.shift)
    defect = covariance_defect(A, X, x, w)
    passed = defect <= 1e-12
    payload = {"window": [w.lo, w.hi], "shift": x, "defect": defect, "pass": passed}
    header = ("window_lo", "window_hi", "shift", "defect", "pass")
    return (_report_text(header, [(w.lo, w.hi, x, defect, passed)], args.format, payload),
            0 if passed else 1)


def cmd_noise_diagonal(args: argparse.Namespace) -> tuple[str, int]:
    A = _summable_matrix(args)
    w = args.window or _default_window(A.domain, 256)
    # every diagonal, with its window checks, comes before the first bracket
    diagonals = [noise_operator_diagonal(A, n, w) for n in args.n]
    rows = []
    for n, (value, tail) in zip(args.n, diagonals):
        s = noise_value(A, NoiseQuery(n, 2, args.tol))
        ok = (value - tail <= s.upper) and (s.lower <= value + tail)
        rows.append((n, value, tail, s.lower, s.upper, abs(value - s.value), ok))
    header = ("n", "value", "tail_bound", "lower", "upper", "defect", "intersects")
    return _report_text(header, rows, args.format), 0 if all(row[-1] for row in rows) else 1


def cmd_schur_growth(args: argparse.Namespace) -> tuple[str, int]:
    rows = [(rec.r, rec.min_row_sum, rec.harmonic_bound, rec.norm)
            for rec in modulus_growth_table(args.r)]
    return _report_text(("r", "s_r", "u_r", "norm"), rows, args.format), 0


def cmd_hadamard(args: argparse.Namespace) -> tuple[str, int]:
    if not 1 <= args.p_max <= 12:
        raise UsageError(f"--p-max must be in [1, 12], got {args.p_max}")
    rows = []
    for p in range(1, args.p_max + 1):
        _, norm, mod_norm = sylvester_hadamard_example(p)
        expected = 2.0 ** (p / 2.0)
        ok = abs(norm.value - 1.0) <= 1e-9 and abs(mod_norm.value - expected) <= 1e-9
        rows.append((p, norm.value, mod_norm.value, expected, ok))
    header = ("p", "norm", "modulus_norm", "expected_modulus_norm", "pass")
    return _report_text(header, rows, args.format), 0 if all(row[-1] for row in rows) else 1


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from . import verify  # only this subcommand pays for importing the suites

    suite = verify.run(args.suite, args.seed)
    return "\n".join(suite.lines) + "\n", 0 if suite.ok else 1


# The shared options, in help order.  Every subcommand takes --config and
# --out and declares which of the others it reads, with its built-in
# default; argparse refuses the rest (exit 2) before any work starts.
_SHARED_OPTIONS = {
    "--config": dict(metavar="FILE",
                     help="JSON file with matrix/tolerance/window/format/seed"),
    "--matrix": dict(metavar="SPEC",
                     help="matrix spec, inline JSON or a path to a JSON file"),
    "--tol": dict(type=float, metavar="T", help="bracket tolerance"),
    "--window": dict(metavar="LO:HI", help="index window, e.g. --window=-16:15"),
    "--format": dict(choices=("csv", "json")),
    "--seed": dict(type=int, metavar="S", help="seed for the randomized verify suites"),
    "--out": dict(metavar="FILE", help="write the report here instead of stdout"),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="covnoise",
        description="Noise sequences, covariant observables and Schur "
                    "multiplier growth for structure matrices.")
    # Every namespace carries the five config values, read or not.
    parser.set_defaults(matrix=None, tol=None, window=None, format=None, seed=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func, **reads) -> argparse.ArgumentParser:
        # reads maps each shared option read, --tol as tol, to its default
        sp = sub.add_parser(name, help=summary)
        for flag, kwargs in _SHARED_OPTIONS.items():
            dest = flag[2:]
            if dest in ("config", "out") or dest in reads:
                sp.add_argument(flag, default=reads.get(dest), **kwargs)
        sp.set_defaults(func=func)
        return sp

    sp = command("noise-table", "tabulate noise brackets over n and l", cmd_noise_table,
                 matrix=None, tol=1e-8, format="csv")
    sp.add_argument("--n", default="0:9", metavar="LO:HI|A,B,..")
    sp.add_argument("--l", default="2", metavar="A,B,..")

    sp = command("asymptotic", "heuristic large-n classification", cmd_asymptotic,
                 matrix=None, tol=1e-3, format="csv")
    sp.add_argument("--l", default="2", metavar="A,B,..")
    sp.add_argument("--horizon", type=int, default=4096)

    sp = command("verify", "run a named cross-module check suite", cmd_verify, seed=0)
    sp.add_argument("--suite", required=True, choices=_SUITES)

    sp = command("observable", "dump an observable or moment operator", cmd_observable,
                 matrix=None, window=None, format="json")
    sp.add_argument("--x", default="0:pi", metavar="A:B,..",
                    help="interval set, endpoints may use pi")
    sp.add_argument("--moment", type=int, choices=(1, 2),
                    help="dump the moment operator of this order instead")

    sp = command("covariance-check", "measure one covariance defect", cmd_covariance_check,
                 matrix=None, window=None, format="json")
    sp.add_argument("--x", default="0:pi", metavar="A:B,..")
    sp.add_argument("--shift", default="pi/2", metavar="EXPR",
                    help="rotation angle, e.g. pi/3")

    sp = command("noise-diagonal", "window diagonal of the noise operator vs brackets",
                 cmd_noise_diagonal, matrix=None, tol=1e-6, window=None, format="csv")
    sp.add_argument("--n", default="0", metavar="LO:HI|A,B,..")

    sp = command("schur-growth", "growth table for the modulus kernel", cmd_schur_growth,
                 format="csv")
    sp.add_argument("--r", default="5,55,555,5555", metavar="A,B,..")

    sp = command("hadamard", "norm separation of Hadamard blocks", cmd_hadamard,
                 format="csv")
    sp.add_argument("--p-max", type=int, default=10)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            commands[args.command].set_defaults(**_config_defaults(args.config))
            args = parser.parse_args(argv)
        _check_inputs(args)
        text, code = args.func(args)
        _write(text, args.out)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"resource limit: out of memory: {exc}", file=sys.stderr)
        return 3
    except ContractViolationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
