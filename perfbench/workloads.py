"""The three workloads: seeded item lists and how each item runs.

A workload is a fixed list of items (one pass).  The seed chooses the
values inside each item (matrix seeds, xi, index ranges, intervals,
section orders) but never the list's structure, so the cost of a pass
barely depends on the seed.  README.md in this directory says why each
workload exists and which layers it loads.

Each item kind has three parts:

- ``run(params, ctx)``: the timed call into the program;
- ``collect(params, raw, ctx)``: untimed; returns ``(value, output)``
  where ``output`` is the canonical bytes compared across repeats;
- ``check(params, value)``: untimed; returns a list of problems.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import covnoise.cli as cli
from covnoise import matrices as M
from covnoise import noise as N
from covnoise import observables as O
from covnoise import schur_analysis as S

import checks as C

@dataclass
class Item:
    id: str
    kind: str
    params: dict


@dataclass
class Context:
    out_dir: str

    @property
    def report(self) -> str:
        return os.path.join(self.out_dir, "report.out")


# -- item kinds -----------------------------------------------------------------

def _noise_bytes(values) -> bytes:
    return "".join("%r %r %r %d\n" % (v.value, v.lower, v.upper, v.cutoff)
                   for v in values).encode()


def _run_sequence(p, ctx):
    A = C.build_matrix(p["spec"])
    return N.noise_sequence(A, p["l"], M.IndexWindow(*p["n"]), p["tol"])


def _run_gram_pair(p, ctx):
    A = C.build_matrix(p["spec"])
    window = M.IndexWindow(*p["n"])
    return tuple(N.noise_sequence(A, p["l"], window, tol) for tol in p["tols"])


def _run_asymptotic(p, ctx):
    A = C.build_matrix(p["spec"])
    return N.asymptotic_noise_estimate(A, p["l"], tol=p["tol"], horizon=p["horizon"])


def _asymptotic_bytes(est) -> bytes:
    head = "%s %r\n" % (getattr(est.classification, "value", est.classification), est.estimate)
    return head.encode() + _noise_bytes(est.samples)


def _run_cli(p, ctx):
    return cli.main(p["argv"] + ["--out", ctx.report])


def _collect_cli(p, code, ctx):
    try:
        with open(ctx.report, "rb") as fh:
            output = fh.read()
        os.remove(ctx.report)
    except FileNotFoundError:
        output = b""
    return (code, output), b"exit %d\n" % code + output


def _cli_check(check):
    def checked(p, value):
        code, output = value
        if code != 0:
            return [f"exit code {code}"]
        return check(p, output)
    return checked


def _run_api_observable(p, ctx):
    A = C.build_matrix(p["spec"])
    return O.observable_operator(A, O.IntervalSet.from_pairs(p["pieces"]),
                                 M.IndexWindow(*p["window"]))


def _run_api_covariance(p, ctx):
    A = C.build_matrix(p["spec"])
    return O.covariance_defect(A, O.IntervalSet.from_pairs(p["pieces"]), p["shift"],
                               M.IndexWindow(*p["window"]))


def _run_block_diagonal(p, ctx):
    return S.block_diagonal_norm_divergence(p["p_max"])


def _block_bytes(report) -> bytes:
    return ("%d %r %r\n" % (report.dimension, report.overall_norm.value,
                            report.block_modulus_norms)).encode()


def _run_norm(p, ctx):
    return S.operator_norm(p["entries"])


KINDS = {
    # kind: (run, collect -> (value, output bytes), check)
    "sequence": (_run_sequence, lambda p, r, c: (r, _noise_bytes(r)), C.check_sequence),
    "gram_pair": (_run_gram_pair, lambda p, r, c: (r, _noise_bytes(r[0] + r[1])),
                  C.check_gram_pair),
    "asymptotic": (_run_asymptotic, lambda p, r, c: (r, _asymptotic_bytes(r)),
                   C.check_asymptotic),
    "cli_observable": (_run_cli, _collect_cli, _cli_check(C.check_observable_report)),
    "cli_covariance": (_run_cli, _collect_cli, _cli_check(C.check_covariance_report)),
    "cli_noise_diagonal": (_run_cli, _collect_cli, _cli_check(C.check_noise_diagonal_report)),
    "cli_schur": (_run_cli, _collect_cli, _cli_check(C.check_schur_report)),
    "cli_hadamard": (_run_cli, _collect_cli, _cli_check(C.check_hadamard_report)),
    "api_observable": (_run_api_observable, lambda p, r, c: (r, r.entries.tobytes()),
                       C.check_api_observable),
    "api_covariance": (_run_api_covariance, lambda p, r, c: (r, repr(r).encode()),
                       C.check_covariance_value),
    "block_diagonal": (_run_block_diagonal, lambda p, r, c: (r, _block_bytes(r)),
                       C.check_block_diagonal),
    "norm": (_run_norm, lambda p, r, c: (r, repr(r.value).encode()),
             C.check_observable_norm),
}


# -- seeded inputs --------------------------------------------------------------------

def _pieces(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """``count`` disjoint, non-adjacent intervals inside [0.01, 2pi - 0.01].

    The CLI endpoint parser accepts no exponent, and ``%.17g`` writes none
    for numbers of this size, so the text round-trips exactly.
    """
    while True:
        ends = sorted(rng.uniform(0.01, 2.0 * math.pi - 0.01) for _ in range(2 * count))
        if all(b - a > 0.01 for a, b in zip(ends, ends[1:])):
            return [(ends[2 * k], ends[2 * k + 1]) for k in range(count)]


def _x_arg(pieces) -> str:
    return ",".join("%.17g:%.17g" % piece for piece in pieces)


def _xi(rng: random.Random) -> float:
    return round(rng.uniform(0.05, 0.95), 6)


def _spec_arg(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _observable(rng, ident, spec, window, fmt, count, moment=None):
    pieces = _pieces(rng, count)
    argv = ["observable", "--matrix", _spec_arg(spec), "--window=%d:%d" % window,
            "--x", _x_arg(pieces), "--format", fmt]
    if moment:
        argv += ["--moment", str(moment)]
    params = {"spec": spec, "window": window, "pieces": pieces, "format": fmt,
              "moment": moment, "spot_seed": rng.randrange(2**31), "argv": argv}
    return Item(ident, "cli_observable", params)


def _covariance(rng, ident, spec, window, count):
    pieces = _pieces(rng, count)
    shift = rng.uniform(0.1, 2.0 * math.pi - 0.1)
    argv = ["covariance-check", "--matrix", _spec_arg(spec), "--window=%d:%d" % window,
            "--x", _x_arg(pieces), "--shift", "%.17g" % shift, "--format", "json"]
    params = {"spec": spec, "window": window, "pieces": pieces, "shift": shift, "argv": argv}
    return Item(ident, "cli_covariance", params)


def _noise_diagonal(rng, ident, spec, window, ns, fmt, tol):
    argv = ["noise-diagonal", "--matrix", _spec_arg(spec), "--window=%d:%d" % window,
            "--n=" + ",".join(map(str, ns)), "--tol", repr(tol), "--format", fmt]
    params = {"spec": spec, "window": window, "ns": ns, "format": fmt, "tol": tol,
              "argv": argv}
    return Item(ident, "cli_noise_diagonal", params)


def noise_sweep(rng: random.Random) -> list[Item]:
    items = []

    def sequence(ident, spec, l, lo, length, tol):
        items.append(Item(ident, "sequence",
                          {"spec": spec, "l": l, "n": (lo, lo + length - 1), "tol": tol}))

    for l in (1, 2, 3, 4):
        sequence(f"constant-N-l{l}", {"kind": "constant_one", "domain": "N"}, l,
                 rng.randint(0, 200), 4, 1e-10)
        sequence(f"constant-Z-l{l}", {"kind": "constant_one", "domain": "Z"}, l,
                 rng.randint(-100, 100), 4, 1e-10)
        sequence(f"torus-Z-l{l}", {"kind": "seeded_torus", "domain": "Z",
                                   "seed": rng.randrange(2**31)}, l,
                 rng.randint(-100, 100), 3, 1e-10)
        sequence(f"chessboard-N-l{l}", {"kind": "chessboard", "domain": "N", "xi": _xi(rng)},
                 l, rng.randint(0, 50), 3, 1e-6)
    for l in (2, 4):
        sequence(f"torus-N-l{l}", {"kind": "seeded_torus", "domain": "N",
                                   "seed": rng.randrange(2**31)}, l, rng.randint(0, 200), 3, 1e-10)
    for l in (1, 2):
        orientation = rng.choice(["one_on_even_sum", "one_on_odd_sum"])
        sequence(f"chessboard-Z-l{l}", {"kind": "chessboard", "domain": "Z", "xi": _xi(rng),
                                        "orientation": orientation},
                 l, rng.randint(-50, 50), 3, 1e-6)
    for ident, domain, l, tols in (("gram-N-l1", "N", 1, (1e-5, 4e-5)),
                                   ("gram-N-l2", "N", 2, (1e-5, 4e-5)),
                                   ("gram-Z-l1", "Z", 1, (1.2e-5, 4e-5))):
        lo = rng.randint(0, 100) if domain == "N" else rng.randint(-100, 100)
        # Z rows cost twice as many terms; the looser Z tolerance puts the four
        # heaviest items at about the same cost, so the tail lands on them
        # whatever the number of passes.
        length = 3 if domain == "N" else 2
        items.append(Item(ident, "gram_pair", {
            "spec": {"kind": "seeded_gram", "domain": domain, "dim": 8,
                     "seed": rng.randrange(2**31)},
            "l": l, "n": (lo, lo + length - 1), "tols": tols}))
    items.append(Item("asymptotic-constant-Z", "asymptotic", {
        "spec": {"kind": "constant_one", "domain": "Z"}, "l": rng.randint(1, 4),
        "tol": 1e-4, "horizon": 4096, "expect": "asymptotically_noiseless"}))
    items.append(Item("asymptotic-chessboard-Z", "asymptotic", {
        "spec": {"kind": "chessboard", "domain": "Z", "xi": _xi(rng)}, "l": 2,
        "tol": 1e-4, "horizon": 4096, "expect": "positive_limit"}))
    return items


def operator_dump(rng: random.Random) -> list[Item]:
    # Kernel cost grows with the number of interval pieces, so each item has
    # a fixed piece count and the seed moves only the endpoints.  Below the
    # 512-wide dump, four items of similar cost keep the tail percentile on
    # the same group of items whatever the number of passes.
    constant_n = {"kind": "constant_one", "domain": "N"}

    def torus_spec(domain):
        return {"kind": "torus", "domain": domain,
                "phases": {"formula": "linear", "slope": round(rng.uniform(-3, 3), 6)}}

    def chessboard_spec(domain):
        return {"kind": "chessboard", "domain": domain, "xi": _xi(rng)}

    items = [
        _observable(rng, "observable-json-512", constant_n, (0, 511), "json", 1),
        _covariance(rng, "covariance-1152", constant_n, (0, 1151), 1),
        _observable(rng, "observable-csv-288", chessboard_spec("Z"), (-144, 143), "csv", 2),
        _covariance(rng, "covariance-832-chessboard", chessboard_spec("Z"), (-416, 415), 2),
        _observable(rng, "moment2-csv-288", constant_n, (0, 287), "csv", 1, moment=2),
        _observable(rng, "moment1-json-320", torus_spec("Z"), (-160, 159), "json", 1, moment=1),
        _covariance(rng, "covariance-512-torus", torus_spec("N"), (0, 511), 2),
        _observable(rng, "observable-json-128", chessboard_spec("N"), (0, 127), "json", 3),
        _noise_diagonal(rng, "noise-diagonal-chessboard", chessboard_spec("Z"), (-128, 127),
                        sorted(rng.sample(range(-60, 61), 3)), "json", 1e-6),
    ]
    for ident, kind, spec, window, count in (
            ("gram-observable-256", "api_observable",
             {"kind": "seeded_gram", "domain": "N", "dim": 8}, (0, 255), 2),
            ("torus-observable-256", "api_observable",
             {"kind": "seeded_torus", "domain": "Z"}, (-128, 127), 2),
            ("gram-covariance-512", "api_covariance",
             {"kind": "seeded_gram", "domain": "N", "dim": 8}, (0, 511), 1),
            ("torus-covariance-512", "api_covariance",
             {"kind": "seeded_torus", "domain": "Z"}, (-256, 255), 1)):
        params = {"spec": {**spec, "seed": rng.randrange(2**31)}, "window": window,
                  "pieces": _pieces(rng, count), "moment": None,
                  "spot_seed": rng.randrange(2**31)}
        if kind == "api_covariance":
            params["shift"] = rng.uniform(0.1, 2.0 * math.pi - 0.1)
        items.append(Item(ident, kind, params))
    return items


def _odd(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo | 1, hi + 1, 2)


def _schur(ident, rs, fmt):
    argv = ["schur-growth", "--r", ",".join(map(str, rs)), "--format", fmt]
    return Item(ident, "cli_schur", {"r": rs, "format": fmt, "argv": argv})


def norm_growth(rng: random.Random) -> list[Item]:
    # Section orders sit in narrow seeded ranges on both sides of the
    # 1500 eigensolve limit, so the cost of a pass barely moves with the seed;
    # below the largest section, three of similar cost hold the tail.
    items = [
        _schur("schur-small", [5, 55, _odd(rng, 101, 555)], "csv"),
        _schur("schur-eigen", [_odd(rng, 1401, 1499)], "json"),
        _schur("schur-power", [_odd(rng, 1901, 2001)], "csv"),
        _schur("schur-power-mid", [_odd(rng, 1801, 1899)], "json"),
        _schur("schur-large", [_odd(rng, 2401, 2501)], "json"),
        Item("hadamard-9", "cli_hadamard",
             {"p_max": 9, "format": "csv", "argv": ["hadamard", "--p-max", "9"]}),
        Item("block-diagonal-9", "block_diagonal", {"p_max": 9}),
    ]
    for ident, spec, window, count in (
            ("norm-constant-512", {"kind": "constant_one", "domain": "N"}, (0, 511), 1),
            ("norm-chessboard-384", {"kind": "chessboard", "domain": "N", "xi": _xi(rng)},
             (0, 383), 2)):
        items.append(Item(ident, "norm", {"spec": spec, "window": window,
                                          "pieces": _pieces(rng, count)}))
    return items


WORKLOADS = {"noise_sweep": noise_sweep, "operator_dump": operator_dump,
             "norm_growth": norm_growth}


def make_items(workload: str, seed: int) -> list[Item]:
    """The item list of one pass; the same seed gives the same items."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def prepare(items: list[Item]) -> None:
    """Build the untimed inputs: the observable truncations whose norms the
    norm items take, so that norm_growth runs no oracle work in its loop."""
    for item in items:
        if item.kind == "norm":
            p = item.params
            op = O.observable_operator(C.build_matrix(p["spec"]),
                                       O.IntervalSet.from_pairs(p["pieces"]),
                                       M.IndexWindow(*p["window"]))
            p["entries"] = op.entries
