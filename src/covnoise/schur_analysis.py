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
    STRUCTURE = "structure"


_STALL, _MAX_MATVECS = 4, 1000  # see _toeplitz_perron_norm


@dataclass(frozen=True)
class NormEstimate:
    """Spectral norm estimate.

    The dense path (HERMITIAN_EIGEN) is one eigensolve: iterations is 0
    and lower/upper are None, so its value is not certified.  The
    Toeplitz power iteration and STRUCTURE set lower/upper, which certify
    the norm: lower <= ||M|| <= upper after rounding; iterations counts
    the FFT matvecs of the Lanczos start and the power loop together.
    """

    value: float
    method: NormMethod
    iterations: int
    lower: float | None = None
    upper: float | None = None


def _real_form_eigenvalues(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian H with J H J = conj(H) (J the flip) from
    its real form Q^H H Q, Q unitary (A. Lee, Linear Algebra Appl. 29, 1980):
    R = [[Re A + Re C, Im C - Im A], [Im A + Im C, Re A - Re C]] for k = n//2,
    A = H[:k, :k], C[i, j] = H[i, n-1-j]; an odd middle index joins the first
    block by the column sqrt(2) H[:k, k], real part up, imaginary part down.
    R is written in place."""

    k, m = H.shape[0] // 2, (H.shape[0] + 1) // 2
    A, C, x = H[:k, :k], H[:k, ::-1][:, :k], math.sqrt(2.0) * H[:k, k:m]
    R = np.empty(H.shape)
    R[k:m, k:m] = H[k:m, k:m].real
    R[:k, k:m], R[k:m, :k] = x.real, x.real.T
    np.add(A.real, C.real, out=R[:k, :k])
    np.subtract(A.real, C.real, out=R[m:, m:])
    R[m:, k:m], R[k:m, m:] = x.imag, x.imag.T
    np.subtract(C.imag, A.imag, out=R[:k, m:])
    np.add(A.imag, C.imag, out=R[m:, :k])
    return np.linalg.eigvalsh(R)


def operator_norm(M: np.ndarray) -> NormEstimate:
    """Spectral norm of a Hermitian matrix: its largest absolute eigenvalue.

    M must be nonempty, square, finite and Hermitian to 1e-12 (else
    UsageError).  H = (M + M^H)/2 takes one complex128 eigensolve or, if
    centrohermitian (H[::-1, ::-1] == conj(H) exactly, as every Hermitian
    Toeplitz H), one float64 eigensolve of its real form, a unitary
    similarity about 4x cheaper.  Deterministic, O(n^3), not certified.
    """

    M = np.asarray(M, dtype=np.complex128)
    if (M.ndim != 2 or M.size == 0 or M.shape[0] != M.shape[1] or not np.isfinite(M).all()
            or hermitian_defect(M) > 1e-12):
        raise UsageError("operator norm needs a nonempty, square and finite array that is "
                         f"Hermitian to 1e-12, got shape {M.shape}")
    H = M + M.conj().T
    H /= 2.0  # exactly Hermitian: the centrohermitian test reads conj(H) as H.T
    solve = _real_form_eigenvalues if np.array_equal(H[::-1, ::-1], H.T) else np.linalg.eigvalsh
    return NormEstimate(float(np.max(np.abs(solve(H)))), NormMethod.HERMITIAN_EIGEN, 0)


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

    Every matvec is an FFT on a circulant embedding of M padded to a length
    with no prime factor above 5.  A Lanczos run from ones/sqrt(n), fully
    reorthogonalized twice (CGS2) with einsum reductions (no BLAS), stops on
    breakdown, at Krylov dimension min(n, 64), or once the Ritz residual
    |beta_k s_k| <= 1e-2 gamma_{2n} theta_max (checked every 4 steps).  Power
    iteration starts from |Ritz vector| / max, entrywise no farther from a
    positive Perron vector.  Once the FFT quotients y/x have not narrowed for
    _STALL matvecs, one direct matvec gives the Collatz-Wielandt bracket
    min(Mx/x) <= ||M|| <= max(Mx/x), true for any positive x.  Its terms are
    nonnegative, so barring underflow each quotient is within relative
    gamma_{n+1} of its exact value (n products summed in any order, one
    division); the ends are widened by gamma_{2n}, whose surplus covers the
    rounding of the widening.  value is the Rayleigh quotient, in fsum (no
    BLAS).  Refused: a non-positive iterate, no stall in _MAX_MATVECS
    matvecs (Lanczos and power together), a spread > gamma_{2n}.
    """

    n = column.size
    size = next(m for m in range(2 * n - 1, 4 * n) if not (2**63 * 3**40 * 5**27) % m)
    spectrum = np.fft.rfft(np.concatenate([column, np.zeros(size - 2 * n + 1), column[:0:-1]]))
    gamma = 2 * n * 2.0 ** -53 / (1.0 - 2 * n * 2.0 ** -53)

    def matvec(v: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(v, size) * spectrum, size)[:n]

    Q, alpha, beta = np.empty((min(n, 64, _MAX_MATVECS), n)), [], []
    Q[0] = 1.0 / math.sqrt(n)
    for k in range(len(Q)):
        w, a = matvec(Q[k]), 0.0
        for _ in range(2):
            h = np.einsum("kn,n->k", Q[:k + 1], w)
            w -= np.einsum("kn,k->n", Q[:k + 1], h)
            a += h[k]
        alpha.append(a)
        beta.append(math.sqrt(np.einsum("n,n->", w, w)))
        last = beta[k] == 0.0 or k + 1 == len(Q)
        if last or k % 4 == 3:
            theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1))
            if last or beta[k] * abs(S[k, -1]) <= 1e-2 * gamma * theta[-1]:
                break
        Q[k + 1] = w / beta[k]
    x = np.abs(np.einsum("kn,k->n", Q[:k + 1], S[:, -1]))
    x, best, stalled = x / x.max(), math.inf, 0
    for matvecs in range(k + 2, _MAX_MATVECS + 1):
        y = matvec(x)
        if not np.all(y > 0.0):
            raise ContractViolationError(f"power iterate {matvecs} is not positive at size {n}")
        spread = float(np.ptp(y / x))
        best, stalled = (spread, 0) if spread < best else (best, stalled + 1)
        if stalled == _STALL:
            break
        x = y / y.max()
    else:
        raise ContractViolationError(f"no stall in {_MAX_MATVECS} FFT matvecs at size {n}")
    direct = np.convolve(x, np.concatenate([column[:0:-1], column]), mode="valid")
    low, high = float(np.min(direct / x)), float(np.max(direct / x))
    if high - low > gamma * high:
        raise ContractViolationError(f"direct quotients spread wider than gamma_2n at size {n}")
    value = math.fsum(x * y) / math.fsum(x * x)
    lower = math.nextafter(low / (1.0 + gamma), -math.inf)
    upper = math.nextafter(high / (1.0 - gamma), math.inf)
    if not lower <= value <= upper:
        raise ContractViolationError(f"Rayleigh quotient {value!r} lies outside its certified "
                                     f"bracket [{lower!r}, {upper!r}] at size {n}")
    return NormEstimate(value, NormMethod.TOEPLITZ_POWER, matvecs, lower, upper)


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
    """Normalized Sylvester matrix A_p = H / s, s = fl(2^(p/2)), with the
    norms of A_p (about 1) and of |A_p| (about 2^(p/2)), certified by
    structure: H must be +-1 with H H^T = 2^p I (its diagonal the only
    nonzeros, exact in float64), else ContractViolationError.  A_p = r H
    exactly, r = fl(1/s), so ||A_p|| = r 2^(p/2), bracketed one nextafter
    outward per rounding in fl(r s), and || |A_p| || = r 2^p, a float."""

    H = sylvester_hadamard(p)
    if not np.all(np.abs(H) == 1.0) or np.count_nonzero(H @ H.T) != H.shape[0]:
        raise ContractViolationError(f"the doubling of order {p} is not a Hadamard matrix")
    s = math.sqrt(2.0 ** p)
    r = 1.0 / s
    value = lower = upper = r * s
    for _ in range(2 * (p % 2)):  # s and r s are exact for even p
        lower, upper = math.nextafter(lower, 0.0), math.nextafter(upper, math.inf)
    norm = NormEstimate(value, NormMethod.STRUCTURE, 0, lower, upper)
    modulus = r * 2.0 ** p
    return H / s, norm, NormEstimate(modulus, NormMethod.STRUCTURE, 0, modulus, modulus)


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
