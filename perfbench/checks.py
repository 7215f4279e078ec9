"""Correctness checks for every item the benchmark runs.

Each check takes an item's parameters and what the program returned and
gives back a list of problems; an empty list means the output is correct.
The reference values are computed here, independently of the program,
except for two closed forms the package keeps as its own test oracles
(``lattice_sum_exact`` and ``chessboard_noise_closed_form``).

Containment of a reference value in a bracket is checked with zero slack.
Bracket widths may exceed the requested tolerance by ``WIDTH_ULPS`` units
in the last place of the numbers the ends are rounded from: at the seed
the ends are rounded to nearest, so widths overshoot ``tol`` by a fraction
of an ulp (a known rounding defect).  The traced run counts such brackets
instead of failing them.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from covnoise import matrices as M
from covnoise import noise as N

WIDTH_ULPS = 4
HERMITIAN_TOL = 1e-12
ENTRY_TOL = 1e-12
NORM_TOL = 1e-9
RELATIVE_TOL = 1e-12
SPOT_CHECKS = 16


# -- reference values -------------------------------------------------------

def order_coefficient(l: int) -> float:
    """c(l) = pi^(l-2) / 3^(l/2 - 1)."""
    return math.pi ** (l - 2) / 3.0 ** (l / 2.0 - 1.0)


def unimodular_noise(domain: str, n: int, l: int) -> float:
    """s_n(l) for a matrix with |A(n, k)| = 1 off the diagonal."""
    return (math.pi / math.sqrt(3.0)) ** l - order_coefficient(l) * N.lattice_sum_exact(
        M.IndexDomain(domain), n)


def chessboard_noise(spec: dict, n: int, l: int) -> float:
    params = M.ChessboardParams(spec["xi"], M.Orientation(spec.get("orientation",
                                                                   "one_on_even_sum")))
    return N.chessboard_noise_closed_form(params, M.IndexDomain(spec["domain"]), n, l).value


def exact_noise(spec: dict, n: int, l: int) -> float | None:
    """Closed-form s_n(l) for the families that have one, else None."""
    kind = spec["kind"]
    if kind in ("constant_one", "torus", "seeded_torus"):
        return unimodular_noise(spec["domain"], n, l)
    if kind == "chessboard":
        return chessboard_noise(spec, n, l)
    return None


def matrix_entry(spec: dict, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A(n, m) for the CLI-expressible families, from their definitions."""
    kind = spec["kind"]
    if kind == "constant_one":
        return np.ones(np.broadcast(n, m).shape, dtype=complex)
    if kind == "chessboard":
        return np.where((n + m) % 2 == 0, 1.0, spec["xi"]).astype(complex)
    if kind == "torus":
        return np.exp(1j * spec["phases"]["slope"] * (n - m).astype(float))
    raise ValueError(f"no closed-form entries for {kind!r}")


def interval_kernel(pieces, q: np.ndarray) -> np.ndarray:
    """(1/2pi) integral over the pieces of e^{iqx} dx, by the sinc form."""
    qf = np.asarray(q, dtype=float)
    out = np.zeros(qf.shape, dtype=complex)
    for a, b in pieces:
        half = 0.5 * (b - a)
        safe = np.where(qf == 0.0, 1.0, qf)
        term = np.exp(1j * qf * (a + b) / 2.0) * np.sin(qf * half) / (math.pi * safe)
        out += np.where(qf == 0.0, (b - a) / (2.0 * math.pi), term)
    return out


def moment_kernel(k: int, q: np.ndarray) -> np.ndarray:
    qf = np.asarray(q, dtype=float)
    safe = np.where(qf == 0.0, 1.0, qf)
    if k == 1:
        return np.where(qf == 0.0, math.pi, -1j / safe)
    return np.where(qf == 0.0, 4.0 * math.pi ** 2 / 3.0, 2.0 / safe ** 2 - 2j * math.pi / safe)


def half_circle_row_sums(r: int) -> np.ndarray:
    """Row sums of the (r+1)-section with entries 1/2 on the diagonal and
    1/(pi |j|) at odd distances j."""
    d = np.arange(1, r + 1)
    weights = np.where(d % 2 == 1, 1.0 / (math.pi * d), 0.0)
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    i = np.arange(r + 1)
    return 0.5 + cum[i] + cum[r - i]


def harmonic_bound(r: int) -> float:
    return math.fsum(1.0 / j for j in range(1, r + 1, 2)) / math.pi


# -- brackets ---------------------------------------------------------------

def width_allowance(lower: float, upper: float, l: int) -> float:
    """WIDTH_ULPS ulps of the largest number the bracket ends are rounded
    from: the ends themselves or the reference moment (pi/sqrt 3)^l that
    the row moment is subtracted from."""
    scale = max(abs(lower), abs(upper), (math.pi / math.sqrt(3.0)) ** l)
    return WIDTH_ULPS * math.ulp(scale)


def check_bracket(label: str, lower: float, upper: float, tol: float, l: int,
                  exact: float | None) -> list[str]:
    problems = []
    if not (math.isfinite(lower) and math.isfinite(upper) and lower <= upper):
        return [f"{label}: malformed bracket [{lower!r}, {upper!r}]"]
    if upper - lower > tol + width_allowance(lower, upper, l):
        problems.append(f"{label}: width {upper - lower!r} exceeds tol {tol!r} "
                        f"beyond {WIDTH_ULPS} ulps")
    if exact is not None and not (lower <= exact <= upper):
        problems.append(f"{label}: bracket [{lower!r}, {upper!r}] misses {exact!r}")
    if upper < 0.0:
        problems.append(f"{label}: upper end {upper!r} is negative")
    return problems


def check_sequence(params: dict, values) -> list[str]:
    spec, l, tol = params["spec"], params["l"], params["tol"]
    ns = range(params["n"][0], params["n"][1] + 1)
    if len(values) != len(ns):
        return [f"expected {len(ns)} brackets, got {len(values)}"]
    problems = []
    for n, v in zip(ns, values):
        problems += check_bracket(f"n={n} l={l}", v.lower, v.upper, tol, l,
                                  exact_noise(spec, n, l))
    return problems


def check_gram_pair(params: dict, result) -> list[str]:
    tight, loose = result
    problems = check_sequence({**params, "tol": params["tols"][0]}, tight)
    problems += check_sequence({**params, "tol": params["tols"][1]}, loose)
    for a, b in zip(tight, loose):
        if max(a.lower, b.lower) > min(a.upper, b.upper):
            problems.append(f"brackets [{a.lower!r}, {a.upper!r}] and "
                            f"[{b.lower!r}, {b.upper!r}] do not intersect")
    return problems


def check_asymptotic(params: dict, est) -> list[str]:
    spec, l, tol, horizon = params["spec"], params["l"], params["tol"], params["horizon"]
    problems = []
    points = tuple(sorted({horizon // 4, horizon // 2, horizon}))
    if tuple(est.sample_points) != points:
        problems.append(f"sample points {est.sample_points} != {points}")
    for n, v in zip(points, est.samples):
        problems += check_bracket(f"n={n} l={l}", v.lower, v.upper, tol / 10.0, l,
                                  exact_noise(spec, n, l))
    got = getattr(est.classification, "value", est.classification)
    if got != params["expect"]:
        problems.append(f"classification {got!r}, expected {params['expect']!r}")
    return problems


# -- operator reports --------------------------------------------------------

def _parse_report(params: dict, text: str) -> tuple[list[int], np.ndarray]:
    if params["format"] == "json":
        data = json.loads(text)
        flat = np.asarray(data["entries"], dtype=float)
        return list(data["window"]), flat[:, 0] + 1j * flat[:, 1]
    lines = text.splitlines()
    if lines[0] != "n,m,re,im":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    table = np.asarray(",".join(lines[1:]).split(","), dtype=float).reshape(-1, 4)
    lo, hi = params["window"]
    idx = np.arange(lo, hi + 1)
    if not (np.array_equal(table[:, 0], np.repeat(idx, idx.size))
            and np.array_equal(table[:, 1], np.tile(idx, idx.size))):
        raise ValueError("CSV index columns are not the window in row-major order")
    return [lo, hi], table[:, 2] + 1j * table[:, 3]


def check_operator(params: dict, window, entries: np.ndarray, entry_fn) -> list[str]:
    """Shape, Hermitian symmetry, diagonal and seeded spot checks."""
    lo, hi = params["window"]
    size = hi - lo + 1
    if list(window) != [lo, hi]:
        return [f"window {window} != {[lo, hi]}"]
    if entries.size != size * size:
        return [f"{entries.size} entries, expected {size * size}"]
    E = entries.reshape(size, size)
    problems = []
    defect = float(np.max(np.abs(E - E.conj().T)))
    if defect > HERMITIAN_TOL:
        problems.append(f"not Hermitian: defect {defect:.3e}")
    moment = params.get("moment")
    if moment == 1:
        diag = math.pi
    elif moment == 2:
        diag = 4.0 * math.pi ** 2 / 3.0
    else:
        diag = sum(b - a for a, b in params["pieces"]) / (2.0 * math.pi)
    diag_defect = float(np.max(np.abs(np.diagonal(E) - diag)))
    if diag_defect > ENTRY_TOL * max(1.0, diag):
        problems.append(f"diagonal deviates from {diag!r} by {diag_defect:.3e}")
    rng = np.random.default_rng(params["spot_seed"])
    i = rng.integers(0, size, SPOT_CHECKS)
    j = rng.integers(0, size, SPOT_CHECKS)
    n, m = i + lo, j + lo
    kernel = moment_kernel(moment, n - m) if moment else interval_kernel(params["pieces"], n - m)
    expected = entry_fn(n, m) * kernel
    spot = np.abs(E[i, j] - expected)
    scale = np.maximum(1.0, np.abs(expected))
    if np.any(spot > ENTRY_TOL * scale):
        k = int(np.argmax(spot / scale))
        problems.append(f"entry ({n[k]}, {m[k]}) is {E[i[k], j[k]]!r}, expected {expected[k]!r}")
    return problems


def check_observable_report(params: dict, output: bytes) -> list[str]:
    try:
        window, entries = _parse_report(params, output.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable report: {exc}"]
    spec = params["spec"]
    return check_operator(params, window, entries, lambda n, m: matrix_entry(spec, n, m))


def check_api_observable(params: dict, op) -> list[str]:
    oracle = build_matrix(params["spec"])
    return check_operator(params, [op.window.lo, op.window.hi], op.entries.reshape(-1),
                          lambda n, m: np.asarray(oracle.entry(n, m)))


def check_covariance_report(params: dict, output: bytes) -> list[str]:
    try:
        data = json.loads(output.decode("utf-8"))
    except ValueError as exc:
        return [f"unparsable report: {exc}"]
    problems = []
    if data.get("window") != list(params["window"]):
        problems.append(f"window {data.get('window')} != {params['window']}")
    if data.get("shift") != params["shift"]:
        problems.append(f"shift {data.get('shift')!r} != {params['shift']!r}")
    defect = data.get("defect")
    if not isinstance(defect, float) or not 0.0 <= defect <= 1e-12:
        problems.append(f"covariance defect {defect!r} is not within 1e-12")
    if data.get("pass") is not True:
        problems.append("report does not pass")
    return problems


def check_covariance_value(params: dict, defect: float) -> list[str]:
    if not 0.0 <= defect <= 1e-12:
        return [f"covariance defect {defect!r} is not within 1e-12"]
    return []


def _parse_rows(params: dict, text: str) -> list[dict]:
    if params["format"] == "json":
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise ValueError("report is not a list of rows")
        return rows
    reader = csv.DictReader(io.StringIO(text))
    return [{k: _csv_value(v) for k, v in row.items()} for row in reader]


def _csv_value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def check_noise_diagonal_report(params: dict, output: bytes) -> list[str]:
    try:
        rows = _parse_rows(params, output.decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable report: {exc}"]
    if [row.get("n") for row in rows] != list(params["ns"]):
        return [f"rows cover n={[row.get('n') for row in rows]}, expected {params['ns']}"]
    problems = []
    for row in rows:
        n = row["n"]
        exact = exact_noise(params["spec"], n, 2)
        problems += check_bracket(f"n={n}", row["lower"], row["upper"], params["tol"], 2,
                                  exact)
        if abs(row["value"] - exact) > row["tail_bound"]:
            problems.append(f"n={n}: windowed diagonal {row['value']!r} is farther than "
                            f"{row['tail_bound']!r} from {exact!r}")
        if row["intersects"] is not True:
            problems.append(f"n={n}: report says the bracket misses the diagonal")
    return problems


# -- norms --------------------------------------------------------------------

def check_schur_report(params: dict, output: bytes) -> list[str]:
    try:
        rows = _parse_rows(params, output.decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable report: {exc}"]
    if [row.get("r") for row in rows] != list(params["r"]):
        return [f"rows cover r={[row.get('r') for row in rows]}, expected {params['r']}"]
    problems = []
    for row in rows:
        r = row["r"]
        sums = half_circle_row_sums(r)
        low, high = float(sums.min()), float(sums.max())
        if not math.isclose(row["s_r"], low, rel_tol=RELATIVE_TOL):
            problems.append(f"r={r}: s_r {row['s_r']!r} != smallest row sum {low!r}")
        if not math.isclose(row["u_r"], harmonic_bound(r), rel_tol=RELATIVE_TOL):
            problems.append(f"r={r}: u_r {row['u_r']!r} != {harmonic_bound(r)!r}")
        if not row["s_r"] <= row["norm"] <= high:
            problems.append(f"r={r}: norm {row['norm']!r} outside [s_r, max row sum] "
                            f"= [{row['s_r']!r}, {high!r}]")
    return problems


def check_hadamard_report(params: dict, output: bytes) -> list[str]:
    try:
        rows = _parse_rows(params, output.decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable report: {exc}"]
    if [row.get("p") for row in rows] != list(range(1, params["p_max"] + 1)):
        return [f"rows cover p={[row.get('p') for row in rows]}"]
    problems = []
    for row in rows:
        p = row["p"]
        if abs(row["norm"] - 1.0) > NORM_TOL:
            problems.append(f"p={p}: norm {row['norm']!r} != 1")
        if abs(row["modulus_norm"] - 2.0 ** (p / 2.0)) > NORM_TOL:
            problems.append(f"p={p}: modulus norm {row['modulus_norm']!r} != 2^(p/2)")
    return problems


def check_block_diagonal(params: dict, report) -> list[str]:
    p_max = params["p_max"]
    problems = []
    if report.dimension != sum(2 ** p for p in range(1, p_max + 1)):
        problems.append(f"dimension {report.dimension} is wrong")
    if abs(report.overall_norm.value - 1.0) > NORM_TOL:
        problems.append(f"overall norm {report.overall_norm.value!r} != 1")
    expected = [2.0 ** (p / 2.0) for p in range(1, p_max + 1)]
    if len(report.block_modulus_norms) != p_max or any(
            abs(a - b) > NORM_TOL for a, b in zip(report.block_modulus_norms, expected)):
        problems.append(f"block modulus norms {report.block_modulus_norms} != 2^(p/2)")
    return problems


def check_observable_norm(params: dict, estimate) -> list[str]:
    """|X|/2pi (the diagonal) <= ||E(X)|| <= 1 for a PSD normalized matrix."""
    floor = sum(b - a for a, b in params["pieces"]) / (2.0 * math.pi)
    if not floor - NORM_TOL <= estimate.value <= 1.0 + NORM_TOL:
        return [f"norm {estimate.value!r} outside [{floor!r}, 1]"]
    return []


# -- matrices ---------------------------------------------------------------------

def build_matrix(spec: dict) -> M.StructureMatrix:
    """The matrix an item describes, built through the program's builders."""
    kind, domain = spec["kind"], M.IndexDomain(spec["domain"])
    if kind == "seeded_gram":
        return M.seeded_gram(domain, spec["dim"], seed=spec["seed"])
    if kind == "seeded_torus":
        return M.seeded_torus(domain, seed=spec["seed"])
    return M.matrix_from_spec(spec)
