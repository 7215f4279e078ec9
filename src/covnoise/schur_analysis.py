"""Operator norms and the modulus-map unboundedness demonstrations.

Two quantitative effects: the finite sections of the modulus of the
half-circle kernel |i_{[0,pi]}| have norms growing like a harmonic sum
even though the kernel itself generates a bounded observable, and the
normalized Sylvester matrices have norm 1 while their entrywise moduli
have norm 2^(p/2).  Together they exhibit the unboundedness of A -> |A|
as a Schur-multiplier phenomenon on concrete sections.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolationError, UsageError
from .matrices import hermitian_defect
from .observables import IntervalSet, kernel_by_difference


class NormMethod(Enum):
    HERMITIAN_EIGEN = "hermitian_eigen"
    TOEPLITZ_POWER = "toeplitz_power"


_STALL, _MAX_MATVECS = 4, 1000  # see _toeplitz_perron_norm


@dataclass(frozen=True)
class NormEstimate:
    """Spectral norm estimate.

    The dense path (HERMITIAN_EIGEN) is one eigensolve: iterations and
    residual are 0 and lower/upper are None, so its value is not
    certified.  The Toeplitz power iteration sets lower/upper, which
    certify the norm: lower <= ||M|| <= upper after rounding; iterations
    counts its FFT matvecs and residual is the relative width.
    """

    value: float
    method: NormMethod
    iterations: int
    residual: float
    lower: float | None = None
    upper: float | None = None


def operator_norm(M: np.ndarray) -> NormEstimate:
    """Spectral norm of a dense matrix from one Hermitian eigensolve.

    A Hermitian input (to 1e-12) gives the largest absolute eigenvalue of
    (M + M^H)/2; any other input, rectangular included, gives the square
    root of the largest eigenvalue of M^H M.  The dtype picks the
    arithmetic: a complex array is solved in complex128, any other (float,
    integer, bool) in float64, where M^H is a view and the symmetric solve
    is about 4x cheaper.  Deterministic, O(n^3) time and O(n^2) memory,
    and not certified.
    """

    M = np.asarray(M)
    if M.ndim != 2 or M.size == 0:
        raise UsageError(f"operator norm needs a nonempty 2-d array, got shape {M.shape}")
    M = M.astype(np.complex128 if np.iscomplexobj(M) else np.float64, copy=False)
    if not np.isfinite(M).all():
        raise UsageError("operator norm needs finite entries")
    MH = M.conj().T
    if M.shape[0] == M.shape[1] and hermitian_defect(M) <= 1e-12:
        value = float(np.max(np.abs(np.linalg.eigvalsh((M + MH) / 2.0))))
    else:
        value = math.sqrt(max(float(np.linalg.eigvalsh(MH @ M)[-1]), 0.0))
    return NormEstimate(value, NormMethod.HERMITIAN_EIGEN, 0, 0.0)


def _half_circle_column(r: int) -> np.ndarray:
    """First column of the section B_r = |i_{[0,pi]}| on indices 0..r."""
    half = IntervalSet.from_pairs([(0.0, math.pi)])
    return np.abs(kernel_by_difference(half, np.arange(r + 1)))


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """[0, v0, v0+v1, ...] with compensated (Neumaier) accumulation, so
    each entry is within about one rounding of the exact prefix sum on
    every platform."""

    sums, total, carry = [0.0], 0.0, 0.0
    for v in values.tolist():
        t = total + v
        carry += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
        sums.append(total + carry)
    return np.asarray(sums)


def _toeplitz_row_sums(column: np.ndarray) -> np.ndarray:
    """Row sums of the symmetric Toeplitz matrix with this first column:
    row i is column[0] + P[i] + P[r-i], P the prefix sums of column[1:]."""

    prefix = _prefix_sums(column[1:])
    return column[0] + prefix + prefix[::-1]


def _toeplitz_perron_norm(column: np.ndarray) -> NormEstimate:
    """Certified norm of the nonnegative symmetric Toeplitz matrix M with
    this first column, in O(n) memory.

    Power iteration from the ones vector, by FFT on a circulant embedding
    of M padded to a length with no prime factor above 5.  Once the FFT
    quotients y/x have not narrowed for _STALL matvecs, one direct matvec
    gives the Collatz-Wielandt bracket min(Mx/x) <= ||M|| <= max(Mx/x),
    true for any positive x.  Its terms are nonnegative, so barring
    underflow each quotient is within relative gamma_{n+1} of its exact
    value (n products summed in any order, one division); the ends are
    widened by gamma_{2n}, whose surplus covers the rounding of the
    widening.  value is the Rayleigh quotient, in fsum (no BLAS).  Refused:
    a non-positive iterate, no stall in _MAX_MATVECS, a spread > gamma_{2n}.
    """

    n = column.size
    size = next(m for m in range(2 * n - 1, 4 * n) if not (2**63 * 3**40 * 5**27) % m)
    spectrum = np.fft.rfft(np.concatenate([column, np.zeros(size - 2 * n + 1), column[:0:-1]]))
    x, best, stalled = np.ones(n), math.inf, 0
    for matvecs in range(1, _MAX_MATVECS + 1):
        y = np.fft.irfft(np.fft.rfft(x, size) * spectrum, size)[:n]
        if not np.all(y > 0.0):
            raise ContractViolationError(f"power iterate {matvecs} is not positive at size {n}")
        spread = float(np.ptp(y / x))
        best, stalled = (spread, 0) if spread < best else (best, stalled + 1)
        if stalled == _STALL:
            break
        x = y / y.max()
    else:
        raise ContractViolationError(f"no stall in {matvecs} FFT matvecs at size {n}")
    direct = np.convolve(x, np.concatenate([column[:0:-1], column]), mode="valid")
    low, high = float(np.min(direct / x)), float(np.max(direct / x))
    gamma = 2 * n * 2.0 ** -53 / (1.0 - 2 * n * 2.0 ** -53)
    if high - low > gamma * high:
        raise ContractViolationError(f"direct quotients spread wider than gamma_2n at size {n}")
    value = math.fsum(x * y) / math.fsum(x * x)
    lower = math.nextafter(low / (1.0 + gamma), -math.inf)
    upper = math.nextafter(high / (1.0 - gamma), math.inf)
    if not lower <= value <= upper:
        raise ContractViolationError(f"Rayleigh quotient {value!r} lies outside its certified "
                                     f"bracket [{lower!r}, {upper!r}] at size {n}")
    return NormEstimate(value, NormMethod.TOEPLITZ_POWER, matvecs,
                        (upper - lower) / value, lower, upper)


@dataclass(frozen=True)
class GrowthRecord:
    """One row of the growth table for the sections B_r = |i_{[0,pi]}|.

    min_row_sum is the literal smallest row sum (it coincides with the
    first row; that is checked, not assumed), harmonic_bound is the
    divergent lower bound (sum of odd reciprocals up to r) / pi, and the
    certified lower end of the norm estimate dominates min_row_sum, which
    strictly dominates harmonic_bound.
    """

    r: int
    min_row_sum: float
    estimate: NormEstimate
    harmonic_bound: float

    @property
    def norm(self) -> float:
        return self.estimate.value


def modulus_growth_table(r_values) -> list[GrowthRecord]:
    """Growth table over odd section orders r in [5, 20000].

    No section is formed: the row sums come from prefix sums of the first
    column and the norm from the certified Toeplitz solve, so memory is
    O(r).  The chain lower(norm) >= min_row_sum > harmonic_bound is
    asserted for every row.
    """

    records = []
    for r in r_values:
        r = int(r)
        if r < 5 or r % 2 == 0 or r > 20_000:
            raise UsageError(f"section orders must be odd, in [5, 20000], got {r}")
        column = _half_circle_column(r)
        row_sums = _toeplitz_row_sums(column)
        smallest = float(row_sums.min())
        if abs(row_sums[0] - smallest) > 1e-12:
            warnings.warn(f"smallest row sum {smallest:.12g} is not the first row sum "
                          f"{row_sums[0]:.12g} at r={r}; using the literal minimum", stacklevel=2)
        norm = _toeplitz_perron_norm(column)
        bound = math.fsum(1.0 / j for j in range(1, r + 1, 2)) / math.pi
        if not (norm.lower >= smallest > bound):
            raise ContractViolationError(
                f"growth chain failed at r={r}: norm bracket=[{norm.lower!r}, "
                f"{norm.upper!r}], min row sum={smallest!r}, harmonic bound={bound!r}")
        records.append(GrowthRecord(r, smallest, norm, bound))
    return records


def sylvester_hadamard(p: int) -> np.ndarray:
    """2^p Sylvester-Hadamard matrix by doubling [[1,1],[1,-1]]."""
    if not 1 <= p <= 12:
        raise UsageError(f"doubling order must be in [1, 12], got {p}")
    H = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(p - 1):
        H = np.block([[H, H], [H, -H]])
    return H


def sylvester_hadamard_example(p: int) -> tuple[np.ndarray, NormEstimate, NormEstimate]:
    """Normalized Sylvester matrix A_p = H / 2^(p/2) with the norms of
    A_p (equal to 1: the matrix is orthogonal) and of its entrywise
    modulus (equal to 2^(p/2): a rank-one flat matrix)."""

    A = sylvester_hadamard(p) / 2.0 ** (p / 2.0)
    return A, operator_norm(A), operator_norm(np.abs(A))


@dataclass(frozen=True)
class BlockDiagonalReport:
    """Direct sum of A_1 .. A_p_max: overall norm stays 1 while the
    per-block modulus norms grow without bound."""

    p_max: int
    dimension: int
    overall_norm: NormEstimate
    block_modulus_norms: tuple[float, ...]


def block_diagonal_norm_divergence(p_max: int = 10) -> BlockDiagonalReport:
    """The direct sum is never formed: its norm is the largest block norm."""
    if not 1 <= p_max <= 10:
        raise UsageError(f"p_max must be in [1, 10], got {p_max}")
    examples = [sylvester_hadamard_example(p) for p in range(1, p_max + 1)]
    return BlockDiagonalReport(p_max, sum(A.shape[0] for A, _, _ in examples),
                               max((norm for _, norm, _ in examples), key=lambda e: e.value),
                               tuple(modulus.value for _, _, modulus in examples))
