"""Command line reports for noise tables, observables and multiplier growth.

One binary, subcommand style.  Configuration precedence is flags over
config file over defaults.  Reports are deterministic: identical inputs
produce byte-identical output, with every float printed at 17 significant
digits.  Exit codes: 0 success, 1 a mathematical check failed, 2 bad
usage or unparsable input, 3 a resource limit was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ResourceLimitError, UsageError
from .matrices import IndexDomain, IndexWindow, StructureMatrix, constant_one, matrix_from_spec
from .noise import NoiseQuery, asymptotic_noise_estimate, noise_value
from .observables import (IntervalSet, angle_from_string, covariance_defect, moment_operator,
                          noise_operator_diagonal, observable_operator)
from .schur_analysis import modulus_growth_table, sylvester_hadamard_example

_SUITES = ("chessboard", "torus", "covariance", "noise_diagonal", "schur", "all")
# A config file may serve several subcommands, so each takes all five keys.
_CONFIG_KEYS = ("matrix", "tolerance", "window", "format", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by every subcommand."""

    matrix_spec: dict | None = None
    tolerance: float | None = None
    window: IndexWindow | None = None
    output_format: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tolerance is not None and not self.tolerance > 0.0:
            raise UsageError(f"tolerance must be positive, got {self.tolerance}")
        if self.output_format not in (None, "csv", "json"):
            raise UsageError(f"unknown output format {self.output_format!r}")

    def tol(self, default: float) -> float:
        return self.tolerance if self.tolerance is not None else default

    def fmt(self, default: str) -> str:
        return self.output_format if self.output_format is not None else default


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
    """Either an inclusive range "lo:hi" (possibly empty) or "a,b,c"."""
    text = text.strip()
    if ":" in text:
        lo, hi = _parse_range(text, "range")
        return list(range(lo, hi + 1))
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}") from exc


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


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        data = _load_json(args.config)
    unknown = [key for key in data if key not in _CONFIG_KEYS]
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r}; "
                         f"accepted keys are {', '.join(_CONFIG_KEYS)}")
    spec = data.get("matrix")
    tolerance = data.get("tolerance")
    window = data.get("window")
    output_format = data.get("format")
    seed = _config_number("seed", data.get("seed", 0), int)
    if tolerance is not None:
        tolerance = _config_number("tolerance", tolerance, float)
    if isinstance(window, str):
        window = _parse_window(window)
    elif isinstance(window, list):
        if len(window) != 2:
            raise UsageError(f"config window {window!r} must be [lo, hi]")
        window = IndexWindow(*(_config_number("window", end, int) for end in window))
    elif window is not None:
        raise UsageError(f"config window {window!r} must be a string or pair")

    if getattr(args, "matrix", None) is not None:
        spec = _load_json(args.matrix)
    if getattr(args, "tol", None) is not None:
        tolerance = args.tol
    if getattr(args, "window", None) is not None:
        window = _parse_window(args.window)
    if getattr(args, "format", None) is not None:
        output_format = args.format
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    return RunConfig(spec, tolerance, window, output_format, seed)


def _matrix(cfg: RunConfig) -> StructureMatrix:
    if cfg.matrix_spec is None:
        return constant_one(IndexDomain.NATURALS)
    return matrix_from_spec(cfg.matrix_spec)


def _summable_matrix(cfg: RunConfig) -> StructureMatrix:
    """The matrix of a command that sums whole rows, which a finite table
    (a torus "phases" list or a gram "vectors" list) cannot supply."""
    A = _matrix(cfg)
    spec = cfg.matrix_spec or {}
    table = {"torus": "phases", "gram": "vectors"}.get(spec.get("kind"))
    if table is not None and isinstance(spec.get(table), list):
        raise UsageError(
            f"a {spec['kind']} spec with an explicit '{table}' list covers only indices "
            f"0:{len(spec[table]) - 1}; tables serve only the windowed commands "
            f"observable and covariance-check, not noise sums over whole rows")
    return A


def _default_window(domain: IndexDomain, size: int = 32) -> IndexWindow:
    if domain is IndexDomain.NATURALS:
        return IndexWindow(0, size - 1)
    return IndexWindow(-size // 2, size // 2 - 1)


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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write the report to {out!r}: {exc.strerror or exc}") from exc


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


def cmd_noise_table(cfg: RunConfig, l_list: list[int], n_list: list[int],
                    out: str | None) -> int:
    A = _summable_matrix(cfg)
    tol = cfg.tol(1e-8)
    rows = []
    for n in n_list:
        for l in l_list:
            v = noise_value(A, NoiseQuery(n, l, tol))
            rows.append((n, l, v.value, v.lower, v.upper, v.cutoff))
    header = ("n", "l", "value", "lower", "upper", "cutoff")
    _emit(_report_text(header, rows, cfg.fmt("csv")), out)
    return 0


def cmd_asymptotic(cfg: RunConfig, l_list: list[int], horizon: int,
                   out: str | None) -> int:
    A = _summable_matrix(cfg)
    tol = cfg.tol(1e-3)
    records = []
    rows = []
    for l in l_list:
        est = asymptotic_noise_estimate(A, l, tol=tol, horizon=horizon)
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
    _emit(_report_text(header, rows, cfg.fmt("csv"), records), out)
    return 0


def cmd_observable(cfg: RunConfig, x_text: str, moment: int | None,
                   out: str | None) -> int:
    A = _matrix(cfg)
    w = cfg.window if cfg.window is not None else _default_window(A.domain)
    if moment is None:
        op = observable_operator(A, IntervalSet.from_string(x_text), w)
    else:
        op = moment_operator(A, moment, w)
    _emit(_operator_text(op.window, op.entries, cfg.fmt("json")), out)
    return 0


def cmd_covariance_check(cfg: RunConfig, x_text: str, shift_text: str,
                         out: str | None) -> int:
    A = _matrix(cfg)
    w = cfg.window if cfg.window is not None else _default_window(A.domain, 128)
    X = IntervalSet.from_string(x_text)
    x = angle_from_string(shift_text)
    defect = covariance_defect(A, X, x, w)
    passed = defect <= 1e-12
    payload = {"window": [w.lo, w.hi], "shift": x, "defect": defect, "pass": passed}
    header = ("window_lo", "window_hi", "shift", "defect", "pass")
    _emit(_report_text(header, [(w.lo, w.hi, x, defect, passed)], cfg.fmt("json"),
                       payload), out)
    return 0 if passed else 1


def cmd_noise_diagonal(cfg: RunConfig, n_list: list[int], out: str | None) -> int:
    A = _summable_matrix(cfg)
    w = cfg.window if cfg.window is not None else _default_window(A.domain, 256)
    tol = cfg.tol(1e-6)
    rows = []
    all_ok = True
    for n in n_list:
        value, tail = noise_operator_diagonal(A, n, w)
        s = noise_value(A, NoiseQuery(n, 2, tol))
        defect = abs(value - s.value)
        ok = (value - tail <= s.upper) and (s.lower <= value + tail)
        all_ok = all_ok and ok
        rows.append((n, value, tail, s.lower, s.upper, defect, ok))
    header = ("n", "value", "tail_bound", "lower", "upper", "defect", "intersects")
    _emit(_report_text(header, rows, cfg.fmt("csv")), out)
    return 0 if all_ok else 1


def cmd_schur_growth(cfg: RunConfig, r_list: list[int], out: str | None) -> int:
    rows = [(rec.r, rec.min_row_sum, rec.harmonic_bound, rec.norm)
            for rec in modulus_growth_table(r_list)]
    _emit(_report_text(("r", "s_r", "u_r", "norm"), rows, cfg.fmt("csv")), out)
    return 0


def cmd_hadamard(cfg: RunConfig, p_max: int, out: str | None) -> int:
    if not 1 <= p_max <= 12:
        raise UsageError(f"--p-max must be in [1, 12], got {p_max}")
    rows = []
    all_ok = True
    for p in range(1, p_max + 1):
        _, norm, mod_norm = sylvester_hadamard_example(p)
        expected = 2.0 ** (p / 2.0)
        ok = abs(norm.value - 1.0) <= 1e-9 and abs(mod_norm.value - expected) <= 1e-9
        all_ok = all_ok and ok
        rows.append((p, norm.value, mod_norm.value, expected, ok))
    header = ("p", "norm", "modulus_norm", "expected_modulus_norm", "pass")
    _emit(_report_text(header, rows, cfg.fmt("csv")), out)
    return 0 if all_ok else 1


def cmd_verify(cfg: RunConfig, suite_name: str, out: str | None) -> int:
    from . import verify

    suite = verify.run(suite_name, cfg.seed)
    _emit("\n".join(suite.lines) + "\n", out)
    return 0 if suite.ok else 1


# The shared options, in help order.  Every subcommand takes --config and
# --out and declares which of the others it reads; argparse refuses the
# rest (exit 2) before any work starts.
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covnoise",
        description="Noise sequences, covariant observables and Schur "
                    "multiplier growth for structure matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, reads: tuple[str, ...], func) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        for flag, kwargs in _SHARED_OPTIONS.items():
            if flag in ("--config", "--out") + reads:
                sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
        return sp

    sp = command("noise-table", "tabulate noise brackets over n and l",
                 ("--matrix", "--tol", "--format"),
                 lambda cfg, a: cmd_noise_table(
                     cfg, _parse_int_list(a.l), _parse_int_list(a.n), a.out))
    sp.add_argument("--n", default="0:9", metavar="LO:HI|A,B,..")
    sp.add_argument("--l", default="2", metavar="A,B,..")

    sp = command("asymptotic", "heuristic large-n classification",
                 ("--matrix", "--tol", "--format"),
                 lambda cfg, a: cmd_asymptotic(cfg, _parse_int_list(a.l), a.horizon, a.out))
    sp.add_argument("--l", default="2", metavar="A,B,..")
    sp.add_argument("--horizon", type=int, default=4096)

    sp = command("verify", "run a named cross-module check suite", ("--seed",),
                 lambda cfg, a: cmd_verify(cfg, a.suite, a.out))
    sp.add_argument("--suite", required=True, choices=_SUITES)

    sp = command("observable", "dump an observable or moment operator",
                 ("--matrix", "--window", "--format"),
                 lambda cfg, a: cmd_observable(cfg, a.x, a.moment, a.out))
    sp.add_argument("--x", default="0:pi", metavar="A:B,..",
                    help="interval set, endpoints may use pi")
    sp.add_argument("--moment", type=int, choices=(1, 2),
                    help="dump the moment operator of this order instead")

    sp = command("covariance-check", "measure one covariance defect",
                 ("--matrix", "--window", "--format"),
                 lambda cfg, a: cmd_covariance_check(cfg, a.x, a.shift, a.out))
    sp.add_argument("--x", default="0:pi", metavar="A:B,..")
    sp.add_argument("--shift", default="pi/2", metavar="EXPR",
                    help="rotation angle, e.g. pi/3")

    sp = command("noise-diagonal", "window diagonal of the noise operator vs brackets",
                 ("--matrix", "--tol", "--window", "--format"),
                 lambda cfg, a: cmd_noise_diagonal(cfg, _parse_int_list(a.n), a.out))
    sp.add_argument("--n", default="0", metavar="LO:HI|A,B,..")

    sp = command("schur-growth", "growth table for the modulus kernel", ("--format",),
                 lambda cfg, a: cmd_schur_growth(cfg, _parse_int_list(a.r), a.out))
    sp.add_argument("--r", default="5,55,555,5555", metavar="A,B,..")

    sp = command("hadamard", "norm separation of Hadamard blocks", ("--format",),
                 lambda cfg, a: cmd_hadamard(cfg, a.p_max, a.out))
    sp.add_argument("--p-max", type=int, default=10)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(_resolve_config(args), args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ContractViolationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
