"""Covariant box observables of structure matrices at finite truncation.

For a subset X of the circle [0, 2pi) the base kernel is

    i_X(n, m) = (1/2pi) integral_X e^{i (n-m) x} dx,

so i_X depends on n - m only.  The observable of a normalized matrix A is
the entrywise product E(X) = A(n, m) i_X(n, m), and shifting X rotates it
covariantly: E(X + x) picks up the phase e^{i (n-m) x} exactly, which makes
the covariance defect of a truncation a pure rounding quantity.  First and
second moment operators use the closed-form kernels of x and x^2, and the
diagonal of E[2] - E[1]^2 reproduces the order-2 noise numbers up to a
window tail that the row plan of the noise brackets encloses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ResourceLimitError, UsageError
from .matrices import (_TILE, IndexDomain, IndexWindow, StructureMatrix, _check_truncation,
                       hermitian_defect, truncate, window_cap)
from .noise import _head_sum, _row_plan, reference_moment

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of half-open subintervals of [0, 2pi), normalized.

    Stored pieces are sorted, disjoint and non-adjacent with
    0 <= a < b <= 2pi.  Constructors reduce endpoints mod 2pi, split
    pieces that wrap past 2pi and merge overlaps, so measure is preserved.
    """

    intervals: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalSet":
        pieces: list[tuple[float, float]] = []
        for a, b in pairs:
            a = float(a)
            b = float(b)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise UsageError(f"interval endpoints must be finite, got ({a}, {b})")
            length = b - a
            if length < 0.0:
                raise UsageError(f"interval ({a}, {b}) has negative length")
            if length == 0.0:
                continue
            if length >= TWO_PI:
                pieces.append((0.0, TWO_PI))
                continue
            start = math.fmod(a, TWO_PI)
            if start < 0.0:
                start += TWO_PI
            end = start + length
            if end <= TWO_PI:
                pieces.append((start, end))
            else:
                pieces.append((start, TWO_PI))
                pieces.append((0.0, end - TWO_PI))
        pieces.sort()
        merged: list[list[float]] = []
        for a, b in pieces:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, min(b, TWO_PI)) for a, b in merged))

    @classmethod
    def from_string(cls, text: str) -> "IntervalSet":
        """Parse "a:b,c:d" where endpoints are arithmetic in pi, e.g.
        "0:pi,3*pi/2:2*pi"."""
        text = text.strip()
        if not text:
            return cls()
        pairs = []
        for piece in text.split(","):
            if piece.count(":") != 1:
                raise UsageError(f"interval piece {piece!r} must look like lo:hi")
            lo, hi = piece.split(":")
            pairs.append((_eval_endpoint(lo), _eval_endpoint(hi)))
        return cls.from_pairs(pairs)

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((0.0, TWO_PI),))

    @property
    def total_length(self) -> float:
        return math.fsum(b - a for a, b in self.intervals)

    def complement(self) -> "IntervalSet":
        gaps = []
        prev = 0.0
        for a, b in self.intervals:
            if a > prev:
                gaps.append((prev, a))
            prev = b
        if prev < TWO_PI:
            gaps.append((prev, TWO_PI))
        return IntervalSet(tuple(gaps))


_ALLOWED_ENDPOINT = set("0123456789pi+-*/(). ")


def _eval_endpoint(expr: str) -> float:
    expr = expr.strip()
    if not expr or not set(expr) <= _ALLOWED_ENDPOINT or "**" in expr:
        raise UsageError(f"cannot parse interval endpoint {expr!r}")
    try:
        value = eval(expr, {"__builtins__": {}}, {"pi": math.pi})  # noqa: S307
    except Exception as exc:
        raise UsageError(f"cannot parse interval endpoint {expr!r}") from exc
    if not isinstance(value, (int, float)):
        raise UsageError(f"interval endpoint {expr!r} is not a number")
    if not abs(value) <= sys.float_info.max:
        raise UsageError(f"interval endpoint {expr!r} is not a finite float")
    return float(value)


def angle_from_string(text: str) -> float:
    """Parse a single angle expression such as "pi/2" or "3*pi/4"."""
    return _eval_endpoint(text)


def shift_interval(X: IntervalSet, x: float) -> IntervalSet:
    """X + x mod 2pi; pieces crossing 2pi split, total length is preserved."""
    return IntervalSet.from_pairs((a + x, b + x) for a, b in X.intervals)


def kernel_by_difference(X: IntervalSet, q) -> np.ndarray:
    """i_X as a function of the index difference q (integer scalar or array).

    q = 0 gives |X| / 2pi; otherwise each piece [a, b) contributes
    (e^{iqb} - e^{iqa}) / (2pi i q).
    """

    qa = np.asarray(q, dtype=float)
    acc = np.zeros(qa.shape, dtype=np.complex128)
    for a, b in X.intervals:
        acc += np.exp(1j * qa * b) - np.exp(1j * qa * a)
    safe = np.where(qa == 0.0, 1.0, qa)
    out = acc / (TWO_PI * 1j * safe)
    return np.where(qa == 0.0, X.total_length / TWO_PI, out)[()]


@dataclass(frozen=True)
class TruncatedOperator:
    """Operator block on a window.  Every builder below certifies it
    Hermitian in O(N) (see _certify_hermitian) before it is made.  For a
    matrix that declares difference, diagonals holds the operator's 2N - 1
    values d(1 - N) .. d(N - 1) by difference and entries is their
    read-only N x N view (O(N) memory); otherwise diagonals is None and
    entries is dense."""

    window: IndexWindow
    entries: np.ndarray
    diagonals: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.entries.shape != (self.window.size, self.window.size):
            raise UsageError(f"entries shape {self.entries.shape} does not match "
                             f"window {self.window}")


def _normalized_block(A: StructureMatrix,
                      w: IndexWindow) -> tuple[np.ndarray, tuple[float, float]]:
    """The w-truncation of A, checked for a unit diagonal, with its
    Hermitian defect and largest modulus (see _certify_hermitian).  A
    matrix that declares difference gives its 2N - 1 values d(1 - N) ..
    d(N - 1) instead, a 1-d array whose checks read each value once, the
    Hermitian defect as max |d(q) - conj(d(-q))|; a dense block is read in
    row tiles.  The checks give the same floats either way."""
    if A.difference is None:
        block = truncate(A, w)
        diagonal = np.diagonal(block)
    else:
        _check_truncation(A, w)
        block = np.asarray(A.difference(np.arange(1 - w.size, w.size)), dtype=np.complex128)
        diagonal = block[w.size - 1]
    diag_defect = float(np.max(np.abs(diagonal - 1.0)))
    if diag_defect > 1e-12:
        raise UsageError(f"{A.label} is not normalized on {w}: diagonal deviates "
                         f"from 1 by {diag_defect:.3e}")
    if block.ndim == 1:
        return block, _difference_certificate(block)
    block_max = max(float(np.max(np.abs(block[i:i + _TILE]))) for i in range(0, w.size, _TILE))
    return block, (hermitian_defect(block), block_max)


def _grid(values: np.ndarray) -> np.ndarray:
    """The size x size grid G[i, j] = values[i - j + size - 1] of the 2 size
    - 1 values of a function of the difference i - j, from 1 - size up, as a
    read-only view: O(size) memory instead of O(size^2)."""
    size = (len(values) + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(values, size)[::-1].T


def _difference_certificate(values: np.ndarray) -> tuple[float, float]:
    """(max |d(q) - conj(d(-q))|, max |d(q)|) over the 2N - 1 values d(1 -
    N) .. d(N - 1) of a function of the difference: the Hermitian defect
    and largest modulus of its N x N grid."""
    return (float(np.max(np.abs(values - values[::-1].conj()))),
            float(np.max(np.abs(values))))


def _certify_hermitian(certificate: tuple[float, float], kernel: np.ndarray) -> None:
    """Certify in O(N) that block * kernel is Hermitian to 1e-12, for the
    kernel's 2N - 1 values k(1 - N) .. k(N - 1).

    With d_B, b the block's Hermitian defect and largest modulus (the
    certificate), and d_k = max |k(q) - conj(k(-q))|, K = max |k| the
    kernel's (see _difference_certificate):
    |P_nm - conj(P_mn)| <= K d_B + b d_k + 2 sqrt(2) gamma_2 b K for P =
    block * kernel.  The exact products differ by k(q)(B_nm - conj(B_mn))
    + conj(B_mn)(k(q) - conj(k(-q))), and each rounded complex product is
    within sqrt(2) gamma_2 |B||k| of its exact value (Higham, Lemma 3.5),
    with 2 sqrt(2) gamma_2 < 6u; the factor 1 + 16u covers the rounding of
    the four maxima (3u each) and of the bound.  The bound is held to the
    1e-12 that the operator_norm solve accepts as Hermitian.
    """

    block_defect, block_max = certificate
    kernel_defect, kernel_max = _difference_certificate(kernel)
    u = 2.0 ** -53
    bound = (kernel_max * block_defect + block_max * kernel_defect
             + 6.0 * u * block_max * kernel_max) * (1.0 + 16.0 * u)
    if not bound <= 1e-12:
        raise ContractViolationError(
            f"operator deviates from Hermitian by up to {bound:.3e} (block "
            f"defect {block_defect:.3e}, kernel defect {kernel_defect:.3e})")


def _covariant(block: np.ndarray, certificate: tuple[float, float], f,
               w: IndexWindow) -> TruncatedOperator:
    """P = block * k(n - m) for k = f, certified Hermitian in O(N) by
    _certify_hermitian, not by a dense pass over P.  A dense block is
    overwritten by P; a block of values by difference gives P's 2N - 1
    products as its diagonals, with their read-only _grid as entries, the
    same bits."""

    values = f(np.arange(1 - w.size, w.size))
    _certify_hermitian(certificate, values)
    if block.ndim == 1:
        diagonals = block * values
        return TruncatedOperator(w, _grid(diagonals), diagonals)
    return TruncatedOperator(w, np.multiply(block, _grid(values), out=block))


def observable_operator(A: StructureMatrix, X: IntervalSet,
                        w: IndexWindow) -> TruncatedOperator:
    """Truncation of E(X): entries A(n, m) i_X(n, m).  A must have unit
    diagonal on w."""
    return _covariant(*_normalized_block(A, w), lambda q: kernel_by_difference(X, q), w)


def covariance_defect(A: StructureMatrix, X: IntervalSet, x: float,
                      w: IndexWindow) -> float:
    """max |e^{i(n-m)x} E(X) - E(X+x)| over the window.

    Zero in exact arithmetic; what is measured here is rounding in the
    endpoint reduction mod 2pi (fmod is exact, only the float-pi drift
    enters) plus the complex exponentials.  A is truncated and checked
    once; both kernels are certified as the operators' would be, and the
    entries of E(X) and E(X+x) are formed and compared _TILE rows at a
    time, so neither operator is held whole.  When A declares difference,
    every factor depends on n - m only, so the same tile body runs once,
    over one row of the 2N - 1 differences, which holds every entry's
    value.
    """

    block, certificate = _normalized_block(A, w)
    q = np.arange(1 - w.size, w.size)
    values = [kernel_by_difference(X, q), kernel_by_difference(shift_interval(X, x), q),
              np.exp(1j * q * x)]
    for kernel in values[:2]:
        _certify_hermitian(certificate, kernel)
    if block.ndim == 1:
        block, (base, shifted, phase) = block[None], [v[None] for v in values]
    else:
        base, shifted, phase = map(_grid, values)
    defect = 0.0
    for i in range(0, len(block), _TILE):
        # Every product is bound to a name: numpy may compute an expression
        # such as phase * (rows * base) in place in its temporary, which
        # moves the last bits of the defect.
        t = slice(i, i + _TILE)
        rows = block[t]
        base_rows = rows * base[t]
        shifted_rows = rows * shifted[t]
        rotated = phase[t] * base_rows
        defect = max(defect, float(np.max(np.abs(rotated - shifted_rows))))
    return defect


def moment_kernel(k: int, q) -> np.ndarray:
    """(1/2pi) integral_0^{2pi} x^k e^{iqx} dx for k in {1, 2}.

    k = 1: pi at q = 0, else -i/q.  k = 2: 4pi^2/3 at q = 0, else
    2/q^2 - 2pi i/q.  Derived by parts; the test suite pins both against
    adaptive quadrature.
    """

    if k not in (1, 2):
        raise UsageError(f"moment kernels exist for k in {{1, 2}}, got {k}")
    qa = np.asarray(q, dtype=float)
    safe = np.where(qa == 0.0, 1.0, qa)
    if k == 1:
        out = -1j / safe
        return np.where(qa == 0.0, math.pi, out)[()]
    out = 2.0 / safe**2 - TWO_PI * 1j / safe
    return np.where(qa == 0.0, 4.0 * math.pi**2 / 3.0, out)[()]


def moment_operator(A: StructureMatrix, k: int, w: IndexWindow) -> TruncatedOperator:
    """Truncation of the k-th moment operator: entries A(n, m) c_k(n - m)."""
    return _covariant(*_normalized_block(A, w), lambda q: moment_kernel(k, q), w)


def noise_operator_diagonal(A: StructureMatrix, n: int,
                            w: IndexWindow) -> tuple[float, float]:
    """Windowed diagonal of E[2] - E[1]^2 at n, with a certified tail bound.

    Returns (value, tail_bound) where

        value = pi^2/3 - sum_{k in w, k != n} |A(n, k)|^2 / (n - k)^2

    is summed by the row path of the noise brackets, and the true order-2
    noise number lies within tail_bound of value (below it, up to
    rounding): tail_bound is the upper end of the row plan's enclosure of
    the row past the window plus its rounding allowance, rounded up.
    Naturals windows must start at 0.  n must sit inside w with margin at
    least a quarter of the window size, and w may hold at most
    window_cap()**2 entries, as many as the largest block truncate allows.
    """

    w.validate_for(A.domain)
    limit = window_cap() ** 2
    if w.size > limit:
        raise ResourceLimitError(
            f"window {w} has {w.size} entries, exceeding the limit {limit} "
            f"(COVNOISE_MAX_WINDOW squared); raise COVNOISE_MAX_WINDOW to sum it anyway")
    if not (w.lo <= n <= w.hi):
        raise UsageError(f"index {n} is outside the window {w}")
    naturals = A.domain is IndexDomain.NATURALS
    if naturals and w.lo != 0:
        raise UsageError("naturals windows for the diagonal identity start at 0")
    margin = w.hi - n if naturals else min(n - w.lo, w.hi - n)
    if margin < w.size / 4.0:
        raise UsageError(f"index {n} needs margin >= {w.size / 4:g} inside {w}, "
                         f"has {margin}")
    if abs(A.entry(n, n) - 1.0) > 1e-12:
        raise UsageError(f"{A.label} is not normalized at {n}")
    up, down = w.hi - n, n - w.lo
    plan = _row_plan(A, n, 2, up, down)
    value = reference_moment(2) - _head_sum(A, n, 2, up, down)
    return value, math.nextafter(plan.tail[1] + plan.slack, math.inf)
