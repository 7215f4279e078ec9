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
import weakref
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
_UNIT = 2.0**-53
# the near block of every row: offsets 1.._CHUNK and their 1/j^2, read-only
_NEAR_OFFSETS = np.arange(1, _CHUNK + 1)
_NEAR_INVERSE_SQUARES = 1.0 / (_NEAR_OFFSETS.astype(float) ** 2)
_NEAR_OFFSETS.flags.writeable = _NEAR_INVERSE_SQUARES.flags.writeable = False
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


# per matrix, the last cutoff found for each (order, tolerance): where the next search
# starts.  Only a hint: a stale, lost or racing entry changes no plan, only the search's cost.
_LAST_CUTOFF: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _select_plan(A: StructureMatrix, q: NoiseQuery) -> _Plan:
    """The plan with the smallest cutoff whose width is <= q.tol.

    The width falls with the cutoff while the tail dominates and rises
    once the rounding allowance does, so the cutoffs that fit form one
    run.  The search first tries the last cutoff found for A at the same
    order and tolerance: if it fits within the term cap and the cutoff
    below it does not, it starts that run and is the answer.  Otherwise
    doubling from one period of the profile (1 without one) finds a cutoff
    that fits, or the term cap, or the rising side (then a scan finds the
    narrowest plan); bisection then finds the smallest cutoff that fits.
    Either way the cutoff is the same.  A search makes the row's cutoff-free
    parts once (_row) and each plan at most once.  A tolerance no cutoff
    within the cap meets is refused with the smallest achievable width; an
    index outside the domain of A is refused first.
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
    found = _LAST_CUTOFF.setdefault(A, {})
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


def _head_sum(A: StructureMatrix, n: int, l: int, up: int, down: int) -> float:
    """sum |A(n, n + j)|^l / j^2 over j = 1..up plus |A(n, n - j)|^l / j^2
    over j = 1..down.

    Offsets are taken in blocks of _CHUNK a side from the far end of the
    row inward, both sides of a block in one oracle call: sides that share
    per-index data (on the integers, seeded values drawn in blocks of zigzag
    indices) fetch it once, and the first fetch that reaches the cached
    indices draws every cached value the row needs.  The block from offset 1
    reads its offsets and 1/j^2 from a shared read-only table.  Each side is
    summed by np.add.reduce and the sums are combined with exact compensated
    addition, so the result does not depend on the order of the blocks.
    """

    pieces: list[float] = []
    reach = max(up, down)
    for start in reversed(range(1, reach + 1, _CHUNK)):
        stop = min(start + _CHUNK, reach + 1)
        js = _NEAR_OFFSETS[:stop - 1] if start == 1 else np.arange(start, stop)
        inv = _NEAR_INVERSE_SQUARES if start == 1 else 1.0 / (js.astype(float) ** 2)
        u, d = js[:max(up - start + 1, 0)], js[:max(down - start + 1, 0)]
        got = np.abs(np.asarray(A.entry(n, n + np.concatenate([u, -d]))))
        pieces += [float(np.add.reduce(m**l * inv[:m.size]))
                   for m in (got[:u.size], got[u.size:]) if m.size]
    return math.fsum(pieces)


def _plan_all(A: StructureMatrix, queries: list[NoiseQuery]) -> list[_Plan]:
    """The plans of queries, all made, in order, before any is summed.  An
    index outside the domain is refused at once; if some tolerances are out
    of reach, the refusal of the query with the largest floor is raised, so
    the tolerance it names works for every query."""
    plans, refusals = [], []
    for q in queries:
        try:
            plans.append(_select_plan(A, q))
        except ResourceLimitError as exc:
            refusals.append(exc)
    if refusals:
        raise max(refusals, key=lambda exc: exc.achievable)
    return plans


def _moment(A: StructureMatrix, q: NoiseQuery, plan: _Plan) -> NoiseValue:
    coeff = _tail_coefficient(q.l)
    lo, hi = plan.tail
    center = coeff * (_head_sum(A, q.n, q.l, plan.up, plan.down) + 0.5 * (lo + hi))
    radius = 0.5 * coeff * (hi - lo) + plan.slack
    return NoiseValue(center, math.nextafter(center - radius, -math.inf),
                      math.nextafter(center + radius, math.inf), plan.up)


def moment(A: StructureMatrix, q: NoiseQuery) -> NoiseValue:
    """Certified bracket for the l-th row moment at q.n.

    The head comes from the entry oracle and the rest of the row from the
    plan's tail enclosure; the bracket is widened by the rounding
    allowance and its ends are rounded outward.  A query no cutoff within
    the term cap can meet, or one below the rounding floor, raises a
    resource error that names the smallest achievable tolerance.
    """

    return _moment(A, q, _select_plan(A, q))


def _noise(q: NoiseQuery, m: NoiseValue) -> NoiseValue:
    """The bracket of s_n(l) = (pi/sqrt 3)^l - M(n, l) from the bracket m of M(n, l)."""
    ref = reference_moment(q.l)
    return NoiseValue(ref - m.value, math.nextafter(ref - m.upper, -math.inf),
                      math.nextafter(ref - m.lower, math.inf), m.cutoff)


def noise_value(A: StructureMatrix, q: NoiseQuery) -> NoiseValue:
    """Certified bracket for s_n(l) = (pi/sqrt 3)^l - M(n, l)."""
    return _noise(q, moment(A, q))


def _plan_samples(A: StructureMatrix, orders: list[int], tol: float,
                  horizon: int) -> tuple[int, ...]:
    """The sample points of asymptotic_noise_estimate at horizon, once the
    tol/10 sample of each order at each point is planned.  A tol some
    sample cannot reach is refused with the smallest tol that all reach."""
    points = tuple(sorted({horizon // 4, horizon // 2, horizon}))
    try:
        _plan_all(A, [NoiseQuery(p, l, tol / 10.0) for l in orders for p in points])
    except ResourceLimitError as exc:
        floor = 10.0 * exc.achievable
        raise ResourceLimitError(
            f"tolerance {tol:g} is out of reach for samples bracketed at tol/10; the smallest "
            f"achievable tolerance is {_round_up(floor)}", floor) from None
    return points


def noise_sequence(A: StructureMatrix, l: int, n_range: IndexWindow,
                   tol: float = 1e-8) -> list[NoiseValue]:
    n_range.validate_for(A.domain)
    return [noise_value(A, NoiseQuery(n, l, tol)) for n in range(n_range.lo, n_range.hi + 1)]


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

    Samples s_n(l) at n = horizon/4, horizon/2, horizon, bracketed at tol/10
    so their width does not swamp the thresholds; a tol whose samples are
    out of reach is refused, before any is summed, with the smallest tol
    they all reach.  A row of moduli 1 on the naturals has s_n(l) =
    c(l) * zeta(2, n + 1) < c(l)/n, so sample n gets the decay allowance
    c(l)/n: noiseless needs every upper end under tol plus its allowance; a
    positive limit needs all lower ends above 2*tol and the values within
    10*tol + c(l)/n_1 of each other.  A numerical heuristic, never a proof.
    """

    _validate_order(l)
    if not 16 <= horizon < 2**61:
        raise UsageError(f"horizon must be in [16, 2^61), got {horizon}")
    if not tol > 0.0:
        raise UsageError(f"tolerance must be positive, got {tol}")
    points = _plan_samples(A, [l], tol, horizon)
    samples = tuple(noise_value(A, NoiseQuery(p, l, tol / 10.0)) for p in points)
    coeff, values = _tail_coefficient(l), [s.value for s in samples]
    if all(s.upper < tol + coeff / p for p, s in zip(points, samples)):
        cls = NoiseClassification.ASYMPTOTICALLY_NOISELESS
    elif (min(s.lower for s in samples) > 2.0 * tol
          and max(values) - min(values) < 10.0 * tol + coeff / points[0]):
        cls = NoiseClassification.POSITIVE_LIMIT
    else:
        cls = NoiseClassification.UNDETERMINED
    return AsymptoticEstimate(cls, samples[-1].value, points, samples)


def is_noiseless_z(B: StructureMatrix, l: int, n_range: IndexWindow,
                   tol: float = 1e-6) -> bool:
    """True when every bracket over n_range certifies s_n(l) < tol."""
    if B.domain is not IndexDomain.INTEGERS:
        raise UsageError("noiselessness in this sense is an integers-domain notion")
    _validate_order(l)
    return all(noise_value(B, NoiseQuery(n, l, tol / 2.0)).upper < tol
               for n in range(n_range.lo, n_range.hi + 1))


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
