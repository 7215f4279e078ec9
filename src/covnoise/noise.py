"""Noise sequences of structure matrices via certified partial summation.

For a structure matrix A the l-th moment of the row variable at n is

    M(n, l) = c(l) * sum_{k != n} |A(n, k)|^l / (k - n)^2,
    c(l)    = (pi / sqrt 3)^l * 3 / pi^2,

and the noise number is s_n(l) = (pi / sqrt 3)^l - M(n, l), which is
nonnegative because |A| <= 1 and the full lattice sum of 1/(k - n)^2 is
pi^2/3 on the integers (pi^2/6 plus a partial sum on the naturals).
Every computed quantity carries a certified bracket [lower, upper]: a
head summed from the entry oracle plus an enclosed tail (Euler-Maclaurin
per residue class of a declared modulus profile; a row without one is one
class whose weight is only known to lie in [0, 1]), widened by a
floating-point rounding allowance and rounded outward, never a heuristic
convergence check.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError, UsageError
from .matrices import IndexDomain, IndexWindow, ChessboardParams, Orientation, StructureMatrix

_REF_BASE = math.pi / math.sqrt(3.0)
DEFAULT_TERM_CAP = 10**8
# pi^(l-2) in the closed forms overflows a double from l = 623 on
MAX_ORDER = 622
# offsets per side in one block of a row sum: 2^14 zigzag indices, 16 Philox blocks
_CHUNK = 1 << 13
# entries one oracle call of a head sum forms at most: 2 MiB of complex128, as
# much as one fetch of a block's 2 * _CHUNK vectors in C^8
_CALL_ENTRIES = 16 * _CHUNK
_UNIT = 2.0**-53
# the near block of every row: 1/j^2 for offsets 1.._CHUNK, read-only
_NEAR_INVERSE_SQUARES = 1.0 / (np.arange(1, _CHUNK + 1).astype(float) ** 2)
_NEAR_INVERSE_SQUARES.flags.writeable = False
# above pi^2/3, the largest lattice sum of a row (integers, or naturals as n grows)
_LATTICE_BOUND = 3.3

ODD_INVERSE_SQUARES_TOTAL = math.pi**2 / 8.0
EVEN_INVERSE_SQUARES_TOTAL = math.pi**2 / 24.0


def _validate_order(l: int) -> None:
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 1:
        raise UsageError(f"moment order must be an integer >= 1, got {l!r}")
    if l > MAX_ORDER:
        raise UsageError(f"moment order must be at most {MAX_ORDER}, the largest l for which "
                         f"pi^(l-2) fits in a double, got {l}")


def reference_moment(l: int) -> float:
    """(pi / sqrt 3)^l, the common limit of the canonical moments."""
    _validate_order(l)
    return _REF_BASE**l


def lattice_sum_exact(domain: IndexDomain, n: int) -> float:
    """sum_{k in domain, k != n} 1/(k - n)^2 in closed form.

    pi^2/3 on the integers for every n; pi^2/6 + sum_{j=1..n} 1/j^2 on
    the naturals.
    """
    if domain is IndexDomain.INTEGERS:
        return math.pi**2 / 3.0
    if n < 0:
        raise UsageError(f"naturals index must be >= 0, got {n}")
    return math.pi**2 / 6.0 + math.fsum(1.0 / (j * j) for j in range(1, n + 1))


def odd_inverse_squares(k: int) -> float:
    """sum_{m=0..k} 1/(2m+1)^2; k = -1 gives the empty sum 0."""
    if k < -1:
        raise UsageError(f"partial-sum index must be >= -1, got {k}")
    return math.fsum(1.0 / ((2 * m + 1) ** 2) for m in range(k + 1))


def even_inverse_squares(k: int) -> float:
    """sum_{m=1..k} 1/(2m)^2; k = 0 gives the empty sum 0."""
    if k < 0:
        raise UsageError(f"partial-sum index must be >= 0, got {k}")
    return math.fsum(1.0 / ((2 * m) ** 2) for m in range(1, k + 1))


@dataclass(frozen=True)
class NoiseQuery:
    n: int
    l: int
    tol: float = 1e-8

    def __post_init__(self) -> None:
        _validate_order(self.l)
        if not self.tol > 0.0:
            raise UsageError(f"tolerance must be positive, got {self.tol}")


@dataclass(frozen=True)
class NoiseValue:
    """Point estimate with a certified enclosure and the cutoff used."""

    value: float
    lower: float
    upper: float
    cutoff: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _tail_coefficient(l: int) -> float:
    # c(l) = (pi/sqrt 3)^l * 3/pi^2; equals 1 at l = 2
    return _REF_BASE**l * 3.0 / math.pi**2


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the unit roundoff u = 2^-53."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _zeta2_enclosure(a):
    """Bounds lo <= zeta(2, a) = sum_{i >= 0} 1/(a + i)^2 <= hi for a > 0.

    The Euler-Maclaurin series of the completely monotone summand 1/x^2
    alternates around its sum, so stopping after the B_4 term undershoots
    and after the B_6 term overshoots.  Works for any number type.
    """
    x = 1 / a
    lo = x + x * x / 2 + x**3 / 6 - x**5 / 30
    return lo, lo + x**7 / 42


def _class_tail(after: int, s: int, p: int) -> tuple[float, float]:
    """Enclosure of sum 1/j^2 over j > after with j = s mod p, which is
    zeta(2, j0/p) / p^2 for the first such offset j0."""
    j0 = after + 1 + (s - after - 1) % p
    lo, hi = _zeta2_enclosure(j0 / p)
    return lo / p**2, hi / p**2


class _Plan(NamedTuple):
    """How one row bracket is made.

    Offsets j = 1..up above n and j = 1..down below n are summed from the
    entry oracle; the rest of the row lies in tail (before the factor
    c(l)).  slack bounds every rounding error of the bracket and width
    bounds the width of the bracket that comes out.
    """

    up: int
    down: int
    tail: tuple[float, float]
    slack: float
    width: float

    @property
    def terms(self) -> int:
        return self.up + self.down


_Row = NamedTuple("_Row", [("n", int), ("end", "int | None"), ("p", int), ("above", tuple),
                           ("below", tuple), ("ref", float), ("coeff", float), ("fixed", int)])


def _row(A: StructureMatrix, n: int, l: int) -> _Row:
    """What no cutoff changes in the plans of row n at order l: per side of n,
    (s, w_lo, w_hi, b_lo, b_hi) for each residue class s of the offset, the
    bounds of its weight w^l (a declared profile gives it; a row without one
    is one class, p = 1, whose weight lies in [0, 1], from |A| <= 1) and of
    its tail past the end of the row below n (index 0 on the naturals; b = 0
    where there is no end); then (pi/sqrt 3)^l, c(l) and 5l + 2p + 40."""
    profile, end = A.profile, n if A.domain is IndexDomain.NATURALS else None
    p = 1 if profile is None else profile.period
    above, below = [], []
    for s in range(p):
        w = [(0.0, 1.0) if profile is None else (profile.weight(n, t) ** l,) * 2 for t in (s, -s)]
        above.append((s, *w[0], 0.0, 0.0))
        below.append((s, *w[1], *((0.0, 0.0) if end is None else _class_tail(end, s, p))))
    return _Row(n, end, p, tuple(above), tuple(below), _REF_BASE**l, _tail_coefficient(l),
                5 * l + 2 * p + 40)


def _row_plan(row: _Row, up: int, down: int) -> _Plan:
    """The bracket plan of a row (see _row) summing up offsets above n and down below it.

    Per direction and residue class s of the offset, the tail is
    w^l * zeta(2, a)/p^2, enclosed by Euler-Maclaurin; on the naturals the
    segment below n past the head is the difference of two such tails.  A
    side whose head reaches the end of the row has no tail.

    The rounding allowance is gamma_N times the largest magnitude in play,
    N = head block length + 5l + 2p + 40: it covers the head sum (any
    summation order, Higham's gamma_{h-1}), each term |A|^l/j^2, the tail
    formulas, the coefficients c(l) and (pi/sqrt 3)^l, and the final
    subtraction from the reference moment.
    """

    lo = hi = mag = 0.0
    below = row.below if row.end is None or down < row.end else ()
    for reach, classes in ((up, row.above), (down, below)):
        for s, w_lo, w_hi, b_lo, b_hi in classes:
            a_lo, a_hi = _class_tail(reach, s, row.p)
            lo += w_lo * (a_lo - b_hi)
            hi += w_hi * (a_hi - b_lo)
            mag += w_hi * (a_hi + b_hi)
    block = min(max(up, down), _CHUNK)
    slack = _gamma(block + row.fixed) * (row.ref + row.coeff * (_LATTICE_BOUND + 2.0 * mag))
    spread = row.coeff * (hi - lo) + 2.0 * slack
    width = spread * (1.0 + 8.0 * _UNIT) + 8.0 * math.ulp(row.ref + spread)
    return _Plan(up, down, (lo, hi), slack, width)


def _first(lo: int, hi: int, pred) -> int:
    """Smallest k in (lo, hi] with pred(k), for pred monotone and pred(hi)."""
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi + 1), True, key=pred)


def _round_up(x: float) -> str:
    """x rounded up to 3 significant digits, so the printed value is reachable."""
    step = 10.0 ** (math.floor(math.log10(x)) - 2)
    return "%.3g" % (math.ceil(x / step * (1.0 + 1e-12)) * step)


def _select_plan(A: StructureMatrix, q: NoiseQuery, found: dict) -> _Plan:
    """The plan with the smallest cutoff whose width is <= q.tol.

    The width falls with the cutoff while the tail dominates and rises
    once the rounding allowance does, so the cutoffs that fit form one
    run.  found maps (order, tolerance) to the last cutoff found on A by
    the caller's earlier searches, and this search records its own there.
    The search first tries found[q.l, q.tol]: if it fits within the term
    cap and the cutoff below it does not, it starts that run and is the
    answer.  Otherwise doubling from one period of the profile (1 without
    one) finds a cutoff that fits, or the term cap, or the rising side
    (then a scan finds the narrowest plan); bisection then finds the
    smallest cutoff that fits.  Either way the cutoff is the same.  A
    search makes the row's cutoff-free parts once (_row) and each plan at
    most once.  A tolerance no cutoff within the cap meets is refused with
    the smallest achievable width; an index outside the domain of A is
    refused first.
    """

    if not A.domain.contains(q.n):
        raise UsageError(f"index {q.n} is not in the {A.domain.name.lower()}; addressable "
                         f"indices have |n| < 2^61")
    row, made = _row(A, q.n, q.l), {}

    def plan(k: int) -> _Plan:
        if k not in made:  # on the naturals the segment below n past k is enclosed: O(k) terms
            made[k] = _row_plan(row, k, k if row.end is None else min(k, row.end))
        return made[k]

    cap = DEFAULT_TERM_CAP
    h = found.get((q.l, q.tol))
    if (h is not None and plan(h).terms <= cap and plan(h).width <= q.tol
            and (h == 1 or plan(h - 1).width > q.tol)):
        return plan(h)
    # from one period on, doubling the cutoff moves every residue class
    lo, cur = 0, plan(1 if A.profile is None else A.profile.period)
    while cur.width > q.tol:
        k = cur.up
        nxt = plan(2 * k)
        if nxt.terms > cap:
            nxt = plan(_first(k, 2 * k, lambda j: plan(j).terms > cap) - 1)
            if nxt.width > q.tol:
                raise ResourceLimitError(
                    f"tolerance {q.tol:g} needs more than {cap} terms; the smallest achievable "
                    f"tolerance within the term cap is {_round_up(nxt.width)}", nxt.width)
        elif nxt.width >= cur.width:
            # the narrowest plan lies in (lo, 2k]; this happens only near the floor
            nxt = min((plan(j) for j in range(lo + 1, 2 * k + 1)), key=lambda pl: pl.width)
            if nxt.width > q.tol:
                raise ResourceLimitError(
                    f"tolerance {q.tol:g} is below the rounding floor of this query; the "
                    f"smallest achievable tolerance is {_round_up(nxt.width)} "
                    f"(cutoff {nxt.up})", nxt.width)
            cur = nxt
            break
        lo, cur = k, nxt
    best = found[q.l, q.tol] = _first(lo, cur.up, lambda j: plan(j).width <= q.tol)
    return plan(best)


def _runs(rows: list[tuple[int, int, int, int]], by_n: list[int], start: int, stop: int) -> list:
    """The oracle calls of the block of offsets [start, stop) of rows
    (n, l, up, down), taken in the order by_n: per call, its members
    (i, u, d), row i summing u offsets of the block above n and d below it;
    the spans (a, b, c, e) of its columns, a..b above n and minus c..e below
    it (none where a > b or c > e); and the entries its rows need.  A call
    takes the next row while it forms at most _CALL_ENTRIES entries, and at
    most 1/16 more than its rows need plus _CHUNK / 8: rows far apart never
    share a call, and short neighbouring rows, whose call costs more than
    their entries, always do."""
    runs: list = []
    for i in by_n:
        n, _, up, down = rows[i]
        u, d = max(min(up, stop - 1) - start + 1, 0), max(min(down, stop - 1) - start + 1, 0)
        if not u + d:
            continue
        a, b = (n + start, n + start + u - 1) if u else (math.inf, -math.inf)
        c, e = (start - n, start - n + d - 1) if d else (math.inf, -math.inf)
        if runs:
            members, (a0, b0, c0, e0), own = run = runs[-1]
            spans = min(a, a0), max(b, b0), min(c, c0), max(e, e0)
            entries = (len(members) + 1) * (max(spans[1] - spans[0] + 1, 0)
                                            + max(spans[3] - spans[2] + 1, 0))
            if entries <= _CALL_ENTRIES and 16 * entries <= 17 * (own + u + d) + 2 * _CHUNK:
                members.append((i, u, d))
                run[1:] = spans, own + u + d
                continue
        runs.append([[(i, u, d)], (a, b, c, e), u + d])
    return runs


def _head_sums(A: StructureMatrix, rows: list[tuple[int, int, int, int]]) -> list[float]:
    """For each row (n, l, up, down): sum |A(n, n + j)|^l / j^2 over
    j = 1..up plus |A(n, n - j)|^l / j^2 over j = 1..down.

    Every row has the same blocks of offsets, _CHUNK a side, walked from the
    far end of the longest row inward.  In each block, each run of rows
    (_runs) shares one oracle call A.entry(ns[:, None], cols[None, :]), cols
    spanning the run's columns above n, ascending, then those below n,
    descending, so each side of a row is one slice in order of offset:
    indices that share per-index data (both sides on the integers,
    neighbouring rows) are fetched together, and the first fetch that
    reaches the cached indices draws every cached value it needs.  The
    block from offset 1 reads 1/j^2 from a shared read-only table.  Each
    side of a row is summed by np.add.reduce and a row's sums are combined
    with exact compensated addition, so a row's head depends neither on the
    order of the blocks nor on the rows summed with it.
    """

    sums: list[list[float]] = [[] for _ in rows]

    def call(members: list, spans: tuple, start: int, inv: np.ndarray) -> None:
        a, b, c, e = spans
        above = np.arange(a, b + 1) if a <= b else np.arange(0)
        below = -np.arange(c, e + 1) if c <= e else np.arange(0)
        ns = np.array([rows[i][0] for i, _, _ in members])
        got = np.abs(np.asarray(A.entry(ns[:, None], np.concatenate([above, below])[None, :])))
        for row, (i, u, d) in zip(got, members):
            n, l = rows[i][:2]
            for at, count in ((n + start - a, u), (above.size + start - n - c, d)):
                if count:
                    sums[i].append(float(np.add.reduce(row[at:at + count]**l * inv[:count])))

    by_n = sorted(range(len(rows)), key=lambda i: rows[i][0])
    reach = max((max(up, down) for _, _, up, down in rows), default=0)
    for start in reversed(range(1, reach + 1, _CHUNK)):
        stop = min(start + _CHUNK, reach + 1)
        inv = (_NEAR_INVERSE_SQUARES if start == 1
               else 1.0 / (np.arange(start, stop).astype(float) ** 2))
        for members, spans, _ in _runs(rows, by_n, start, stop):
            call(members, spans, start, inv)
    return [math.fsum(pieces) for pieces in sums]


def _head_sum(A: StructureMatrix, n: int, l: int, up: int, down: int) -> float:
    """The head of one row: _head_sums of the row alone."""
    return _head_sums(A, [(n, l, up, down)])[0]


def _brackets(A: StructureMatrix, queries: list[NoiseQuery]) -> list[NoiseValue]:
    """Certified brackets of s_n(l) for queries.

    A query is keyed on what its bracket depends on: (n, l, tol), or, on the
    integers for a matrix read by difference, (n mod the profile's period,
    l, tol).  Each key is planned once, in order, before any is summed, each
    search from the last cutoff this call found for its order and
    tolerance; then the heads of all keys are summed together (_head_sums).
    Every index is checked: one outside the domain is refused at once; of
    tolerances out of reach, the refusal of the largest floor is raised, so
    the tolerance it names works for every query."""
    period = 1 if A.profile is None else A.profile.period
    by_difference = A.difference is not None and A.domain is IndexDomain.INTEGERS
    keys = [(q.n % period if by_difference else q.n, q.l, q.tol) for q in queries]
    found, plans, refusals = {}, {}, []
    for key, q in zip(keys, queries):
        if key in plans and A.domain.contains(q.n):
            continue
        try:
            plans[key] = q, _select_plan(A, q, found)
        except ResourceLimitError as exc:
            plans[key] = None
            refusals.append(exc)
    if refusals:
        raise max(refusals, key=lambda exc: exc.achievable)
    heads = _head_sums(A, [(q.n, q.l, plan.up, plan.down) for q, plan in plans.values()])
    values = {}
    for (key, (q, plan)), head in zip(plans.items(), heads):
        coeff, (lo, hi), ref = _tail_coefficient(q.l), plan.tail, _REF_BASE**q.l
        center = coeff * (head + 0.5 * (lo + hi))  # M(n, l), rounded outward below
        radius = 0.5 * coeff * (hi - lo) + plan.slack
        lower = math.nextafter(center - radius, -math.inf)
        upper = math.nextafter(center + radius, math.inf)
        values[key] = NoiseValue(ref - center, math.nextafter(ref - upper, -math.inf),
                                 math.nextafter(ref - lower, math.inf), plan.up)
    return [values[key] for key in keys]


def noise_value(A: StructureMatrix, q: NoiseQuery) -> NoiseValue:
    """Certified bracket for s_n(l) = (pi/sqrt 3)^l - M(n, l)."""
    return _brackets(A, [q])[0]


def noise_sequence(A: StructureMatrix, l: int, n_range: IndexWindow,
                   tol: float = 1e-8) -> list[NoiseValue]:
    """Brackets of s_n(l) over n_range, every row planned before any is
    summed: a refusal names the largest floor, which every row reaches."""
    n_range.validate_for(A.domain)
    return _brackets(A, [NoiseQuery(n, l, tol) for n in range(n_range.lo, n_range.hi + 1)])


class NoiseClassification(Enum):
    ASYMPTOTICALLY_NOISELESS = "asymptotically_noiseless"
    POSITIVE_LIMIT = "positive_limit"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class AsymptoticEstimate:
    classification: NoiseClassification
    estimate: float
    sample_points: tuple[int, ...]
    samples: tuple[NoiseValue, ...]


def asymptotic_noise_estimate(A: StructureMatrix, l: int, tol: float = 1e-3,
                              horizon: int = 4096) -> AsymptoticEstimate:
    """Heuristic large-n classification of the noise sequence.

    Samples s_n(l) at n = horizon/4, horizon/2, horizon in one batch,
    bracketed at tol/10 so their width does not swamp the thresholds; a tol
    whose samples are out of reach is refused, before any is summed, with
    the smallest tol they all reach.  A row of moduli 1 on the naturals has
    s_n(l) = c(l) * zeta(2, n + 1) < c(l)/n, so sample n gets the decay
    allowance c(l)/n: noiseless needs every upper end under tol plus its
    allowance; a positive limit needs all lower ends above 2*tol and the
    values within 10*tol + c(l)/n_1 of each other.  A numerical heuristic,
    never a proof.
    """

    _validate_order(l)
    if not 16 <= horizon < 2**61:
        raise UsageError(f"horizon must be in [16, 2^61), got {horizon}")
    if not tol > 0.0:
        raise UsageError(f"tolerance must be positive, got {tol}")
    return _estimates(A, [l], tol, horizon)[0]


def _estimates(A: StructureMatrix, orders: list[int], tol: float,
               horizon: int) -> list[AsymptoticEstimate]:
    """asymptotic_noise_estimate of each order, all samples in one batch."""
    points = tuple(sorted({horizon // 4, horizon // 2, horizon}))
    try:
        batch = _brackets(A, [NoiseQuery(p, l, tol / 10.0) for l in orders for p in points])
    except ResourceLimitError as exc:
        floor = 10.0 * exc.achievable
        raise ResourceLimitError(
            f"tolerance {tol:g} is out of reach for samples bracketed at tol/10; the smallest "
            f"achievable tolerance is {_round_up(floor)}", floor) from None
    estimates = []
    for i, l in enumerate(orders):
        samples = tuple(batch[i * len(points):(i + 1) * len(points)])
        coeff, values = _tail_coefficient(l), [s.value for s in samples]
        if all(s.upper < tol + coeff / p for p, s in zip(points, samples)):
            cls = NoiseClassification.ASYMPTOTICALLY_NOISELESS
        elif (min(s.lower for s in samples) > 2.0 * tol
              and max(values) - min(values) < 10.0 * tol + coeff / points[0]):
            cls = NoiseClassification.POSITIVE_LIMIT
        else:
            cls = NoiseClassification.UNDETERMINED
        estimates.append(AsymptoticEstimate(cls, samples[-1].value, points, samples))
    return estimates


def is_noiseless_z(B: StructureMatrix, l: int, n_range: IndexWindow,
                   tol: float = 1e-6) -> bool:
    """True when every bracket over n_range certifies s_n(l) < tol.  Every
    row is planned and summed: there is no early exit at a row that fails."""
    if B.domain is not IndexDomain.INTEGERS:
        raise UsageError("noiselessness in this sense is an integers-domain notion")
    _validate_order(l)
    queries = [NoiseQuery(n, l, tol / 2.0) for n in range(n_range.lo, n_range.hi + 1)]
    return all(v.upper < tol for v in _brackets(B, queries))


@dataclass(frozen=True)
class ChessboardNoiseValue:
    """Closed-form noise number."""

    value: float


def chessboard_noise_closed_form(params: ChessboardParams, domain: IndexDomain,
                                 n: int, l: int) -> ChessboardNoiseValue:
    """Closed form for the chessboard noise numbers.

    Naturals (ones on even sums required): with n = 2k or 2k + 1,

        s_n(l) = f(l) * (pi^2/3 - B_k - xi^l * A_n - xi^l * pi^2/8 - pi^2/24)

    where f(l) = pi^(l-2) / 3^(l/2-1), B_k = sum_{m=1..k} 1/(2m)^2 and
    A_n is the odd partial sum with top term (2k-1)^2 for even n and
    (2k+1)^2 for odd n.  The naturals are {0, 1, 2, ...} and the ones sit
    where n+m is even, so weight 1 falls on even differences m - n.  Each
    step in n adds one new difference below the diagonal, which gives the
    two step identities

        s_{2k}(l)   - s_{2k+1}(l) = f(l) * xi^l / (2k+1)^2   (odd difference)
        s_{2k+1}(l) - s_{2k+2}(l) = f(l) / (2k+2)^2          (even difference)

    Integers: the value is n-independent and equals
    f(l) * (1 - xi^l) * pi^2/4 when the ones sit on even index sums, and
    f(l) * (1 - xi^l) * pi^2/12 when they sit on odd index sums.  Both
    constants are fixed by direct summation (split the lattice sum by
    parity: even differences give pi^2/12, odd give pi^2/4).
    """

    _validate_order(l)
    front = math.pi ** (l - 2) * 3.0 ** (1.0 - l / 2.0)
    xi_l = params.xi**l

    if domain is IndexDomain.NATURALS:
        if params.orientation is not Orientation.ONE_ON_EVEN_SUM:
            raise UsageError("the naturals closed form requires ones on even index sums")
        if n < 0:
            raise UsageError(f"naturals index must be >= 0, got {n}")
        k, odd = divmod(n, 2)
        alpha = odd_inverse_squares(k if odd else k - 1)
        beta = even_inverse_squares(k)
        value = front * (math.pi**2 / 3.0 - beta - xi_l * alpha
                         - xi_l * ODD_INVERSE_SQUARES_TOTAL - EVEN_INVERSE_SQUARES_TOTAL)
        return ChessboardNoiseValue(value)
    even = params.orientation is Orientation.ONE_ON_EVEN_SUM
    return ChessboardNoiseValue(front * (1.0 - xi_l) * math.pi**2 / (4.0 if even else 12.0))
