"""Structure matrices over N x N and Z x Z with entries in the closed unit disk.

A structure matrix is a pure entry oracle (n, m) -> complex rather than a
stored array; dense blocks only ever materialize through :func:`truncate`
on an explicit index window.  Builders cover the constant-one matrix,
torus matrices e^{i(nu_n - nu_m)} built from a phase sequence, two-tone
chessboard matrices, and Gram matrices of unit-vector sequences.  Entry
oracles accept integer scalars or integer numpy arrays and broadcast:
per-index data (phases, vectors) is fetched for n and m as given, so a
block costs 2N fetches and a row entry(n, n + offsets) costs k + 1.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .errors import ResourceLimitError, UsageError

DEFAULT_WINDOW_CAP = 4096
_BLOCK = 1024
# Bytes of drawn blocks a seeded builder keeps: 512 blocks of C^8 vectors.
_CACHE_BYTES = 64 << 20
# Blocks drawn and finished together: half a block of a row sum, so a block draws on two CPUs.
_BATCH = 8
# Rows per tile of the reductions over a dense block (hermitian_defect and
# the covariant builders in observables), so no N x N temporary is formed.
_TILE = 64
# Indices lie in |n| < 2^61, so n plus or minus the 10^8-term cap of a row
# sum, and its zigzag index (a seeded cache's key on Z), fit in int64.
INDEX_BOUND = 1 << 61


def window_cap() -> int:
    """Per-side cap for dense truncations; COVNOISE_MAX_WINDOW overrides."""
    raw = os.environ.get("COVNOISE_MAX_WINDOW")
    if raw is None:
        return DEFAULT_WINDOW_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise UsageError(f"COVNOISE_MAX_WINDOW must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise UsageError(f"COVNOISE_MAX_WINDOW must be positive, got {cap}")
    return cap


class IndexDomain(Enum):
    NATURALS = "N"
    INTEGERS = "Z"

    def contains(self, n: int) -> bool:
        return -INDEX_BOUND < n < INDEX_BOUND and (self is IndexDomain.INTEGERS or n >= 0)


class Orientation(Enum):
    """Which parity class of n+m carries the entry 1 in a chessboard matrix."""

    ONE_ON_EVEN_SUM = "one_on_even_sum"
    ONE_ON_ODD_SUM = "one_on_odd_sum"


@dataclass(frozen=True)
class IndexWindow:
    """Inclusive contiguous index range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise UsageError(f"window must satisfy lo <= hi, got {self.lo}:{self.hi}")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def validate_for(self, domain: IndexDomain) -> None:
        if domain is IndexDomain.NATURALS and self.lo < 0:
            raise UsageError(f"window {self} has negative indices on the naturals")
        if not -INDEX_BOUND < self.lo <= self.hi < INDEX_BOUND:
            raise UsageError(f"window {self} reaches past |n| < 2^61, the addressable indices")

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


def _default_window(domain: IndexDomain, size: int = 32) -> IndexWindow:
    """size indices from 0 on the naturals, centred on 0 on the integers."""
    if domain is IndexDomain.NATURALS:
        return IndexWindow(0, size - 1)
    return IndexWindow(-size // 2, size // 2 - 1)


@dataclass(frozen=True)
class ChessboardParams:
    xi: float
    orientation: Orientation = Orientation.ONE_ON_EVEN_SUM

    def __post_init__(self) -> None:
        if not 0.0 <= self.xi <= 1.0:
            raise UsageError(f"chessboard xi must lie in [0, 1], got {self.xi}")


@dataclass(frozen=True)
class PhaseSequence:
    """Real phase sequence; nu must accept integer arrays and broadcast."""

    nu: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RowModulusProfile:
    """Declared moduli |A(n, n+j)| = table[n mod period][j mod period].

    A builder declares a profile when the modulus of its entries depends
    only on residues of the row index and of the offset j from the
    diagonal (j != 0).  The summation layer then encloses each residue
    class of a row tail by a Hurwitz zeta bound with its weight; without
    a profile a row is one class whose weight is only known in [0, 1].
    """

    period: int
    table: tuple[tuple[float, ...], ...]

    def weight(self, n: int, j: int) -> float:
        return self.table[n % self.period][j % self.period]


UNIMODULAR = RowModulusProfile(1, ((1.0,),))


@dataclass(frozen=True, eq=False)
class StructureMatrix:
    """Entry oracle for an infinite matrix with entries in the unit disk.

    entry is pure, deterministic and Hermitian by contract (the operator
    builders certify that on each block).  profile, when given, declares
    the off-diagonal moduli by residue class (see RowModulusProfile), a
    structural fact about the builder; None means only |entry| <= 1 is known.
    difference, when given, declares entry(n, m) == difference(n - m) bit
    for bit (integer scalar or array argument), another structural fact: the
    operator builders then read a window through its 2N - 1 differences.
    """

    domain: IndexDomain
    entry: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str
    profile: RowModulusProfile | None = None
    difference: Callable[[np.ndarray], np.ndarray] | None = None


def constant_one(domain: IndexDomain) -> StructureMatrix:
    def entry(n, m):
        return np.ones(np.broadcast(n, m).shape, dtype=np.complex128)[()]

    def difference(q):
        return np.ones(np.shape(q), dtype=np.complex128)[()]

    return StructureMatrix(domain, entry, f"constant_one[{domain.value}]", profile=UNIMODULAR,
                           difference=difference)


def torus_from_phases(domain: IndexDomain, phases: PhaseSequence,
                      label: str | None = None) -> StructureMatrix:
    """Matrix e^{i(nu_n - nu_m)}; Hermitian with unimodular entries."""

    nu = phases.nu

    def entry(n, m):
        a, b = np.asarray(nu(n), dtype=float), np.asarray(nu(m), dtype=float)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
        np.subtract(a, b, out=out.imag)
        return np.exp(out, out=out)[()]

    return StructureMatrix(domain, entry, label or f"torus[{domain.value}]", profile=UNIMODULAR)


def chessboard(domain: IndexDomain, params: ChessboardParams) -> StructureMatrix:
    """Two-tone matrix: 1 on one parity class of n+m, xi on the other.

    ONE_ON_EVEN_SUM places 1 where n+m is even (so the diagonal is 1 and
    the matrix is normalized); ONE_ON_ODD_SUM swaps the roles, leaving xi
    on the diagonal.  Noise computations ignore the diagonal, so both
    orientations are admissible there; observables require the first.
    """

    if params.orientation is Orientation.ONE_ON_EVEN_SUM:
        even_val, odd_val = 1.0, params.xi
    else:
        even_val, odd_val = params.xi, 1.0

    values = np.array([even_val, odd_val], dtype=np.complex128)

    def entry(n, m):
        # the parity of n + m as one byte per entry, then one gather
        odd = (np.asarray(n) & 1).astype(np.uint8) ^ (np.asarray(m) & 1).astype(np.uint8)
        return values[odd][()]

    def difference(q):
        # n - m has the parity of n + m
        return values[(np.asarray(q) & 1).astype(np.uint8)][()]

    # n + (n + j) has the parity of j, so the modulus depends on j mod 2 only
    if params.xi == 1.0:
        profile = UNIMODULAR
    else:
        profile = RowModulusProfile(2, ((even_val, odd_val), (even_val, odd_val)))
    label = f"chessboard(xi={params.xi:g},{params.orientation.value})[{domain.value}]"
    return StructureMatrix(domain, entry, label, profile=profile, difference=difference)


def gram_from_vectors(domain: IndexDomain,
                      vectors: Callable[[np.ndarray], np.ndarray],
                      label: str | None = None, *, _checked: bool = False) -> StructureMatrix:
    """Gram matrix <v_n, v_m> of a unit-vector sequence; PSD by construction.

    vectors maps an integer index array of shape (k,) to a complex array
    of shape (k, dim).  The oracle fetches v(n) and v(m) for the index
    arrays as given and lets numpy broadcast the inner product, so a w x w
    truncation fetches 2|w| vectors and a row entry(n, n + offsets) with k
    offsets fetches k + 1 and is one matvec.  Any fetched vector whose
    Euclidean norm deviates from 1 by more than 1e-9 is rejected with a
    diagnostic; a builder that checks each vector once when it makes it
    passes _checked=True to skip the check on every fetch.
    """

    def fetch(idx) -> np.ndarray:
        idx = np.asarray(idx)
        flat = idx.reshape(-1)
        rows = np.asarray(vectors(flat), dtype=np.complex128)
        if not _checked:
            _check_unit(rows, lambda i: int(flat[i]))
        return rows.reshape(idx.shape + rows.shape[-1:])

    def entry(n, m):
        return np.einsum("...d,...d->...", np.conj(fetch(n)), fetch(m))[()]

    return StructureMatrix(domain, entry, label or f"gram[{domain.value}]")


def _check_unit(rows: np.ndarray, index_of: Callable[[int], int]) -> None:
    """Refuse the first row of rows (k, dim) whose Euclidean norm is not 1
    within 1e-9; index_of(i) is the index that names row i."""
    parts = np.ascontiguousarray(rows).view(np.float64)
    norms = np.sqrt(np.einsum("...d,...d->...", parts, parts))
    bad = np.nonzero(~(np.abs(norms - 1.0) <= 1e-9))[0]  # NaN norms fail too
    if bad.size:
        raise UsageError(f"gram vector at index {index_of(int(bad[0]))} has norm "
                         f"{norms[bad[0]]!r}, expected 1")


def _check_truncation(A: StructureMatrix, w: IndexWindow) -> None:
    """Refuse a window that A's domain does not hold (exit 2) or whose side
    exceeds window_cap(): 4096 unless COVNOISE_MAX_WINDOW overrides it
    (exit 3)."""
    w.validate_for(A.domain)
    limit = window_cap()
    if w.size > limit:
        raise ResourceLimitError(
            f"window {w} has side {w.size}, exceeding the cap {limit}; "
            f"raise COVNOISE_MAX_WINDOW to materialize it anyway")


def truncate(A: StructureMatrix, w: IndexWindow) -> np.ndarray:
    """Dense complex block A[w x w] on a window that _check_truncation
    accepts.  The operator builders multiply their kernel into it in place,
    so a read-only result of the oracle (a broadcast view, say) is copied."""

    _check_truncation(A, w)
    idx = w.indices()
    block = np.asarray(A.entry(idx[:, None], idx[None, :]), dtype=np.complex128)
    return block if block.flags.writeable else block.copy()


def hermitian_defect(M: np.ndarray) -> float:
    """max |M[i, j] - conj(M[j, i])| of a square array.  The upper
    triangle is read in row tiles against the matching column tiles, so no
    N x N temporary is formed; each pair is compared once."""

    return float(np.max([np.max(np.abs(M[i:i + _TILE, i:] - M[i:, i:i + _TILE].conj().T))
                         for i in range(0, M.shape[0], _TILE)], initial=0.0))


@dataclass(frozen=True)
class PhaseRecoveryFailure:
    """Why a window failed to factor as e^{i(nu_n - nu_m)}.

    kind is "modulus" when some entry is not unimodular within tol and
    indices names that entry twice, or "cocycle" when the product test
    A(n,m)A(m,lo) = A(n,lo) against the anchor column lo fails: the block
    differs from e^{i(nu_n - nu_m)} by more than tol, and indices is the
    first such triple (n, m, lo).
    """

    kind: str
    indices: tuple[int, ...]
    defect: float


def torus_phase_recovery(A: StructureMatrix, w: IndexWindow, tol: float = 1e-10
                         ) -> PhaseSequence | PhaseRecoveryFailure:
    """Factor the w-block as e^{i(nu_n - nu_m)} if it is one.

    Requires unit diagonal on w.  Checks |entry| = 1 within tol, anchors
    nu(w.lo) = 0, reads nu(n) = arg A(n, w.lo), and checks that the block
    equals e^{i(nu_n - nu_m)} within tol.  With unit diagonal and
    unimodular entries that is the cocycle condition A(n,m)A(m,k) = A(n,k)
    on all of w^3, tested in O(w^2).  Failures come back as a value, not
    an exception.
    """

    block = truncate(A, w)
    idx = w.indices()
    diag = np.abs(np.diagonal(block) - 1.0)
    if diag.max() > 1e-12:
        k = int(np.argmax(diag))
        raise UsageError(f"{A.label} is not normalized on {w}: "
                         f"diagonal at {idx[k]} is {block[k, k]!r}")

    def first_failure(kind: str, defect: np.ndarray, *extra: int) -> PhaseRecoveryFailure:
        # argmax of the boolean mask lands on the first True in row-major order
        n_i, m_i = np.unravel_index(int(np.argmax(defect > tol)), block.shape)
        return PhaseRecoveryFailure(kind, (int(idx[n_i]), int(idx[m_i]), *extra),
                                    float(defect[n_i, m_i]))

    mod_defect = np.abs(np.abs(block) - 1.0)
    if mod_defect.max() > tol:
        return first_failure("modulus", mod_defect)

    values = np.angle(block[:, 0])
    recon_defect = np.abs(np.exp(1j * (values[:, None] - values[None, :])) - block)
    if recon_defect.max() > tol:
        return first_failure("cocycle", recon_defect, w.lo)

    lo = w.lo

    def nu(n):
        arr = np.asarray(n)
        pos = arr - lo
        if np.any((pos < 0) | (pos >= values.size)):
            raise UsageError(f"recovered phases only cover {w}")
        return values[pos][()]

    return PhaseSequence(nu)


def _zigzag(n: np.ndarray) -> np.ndarray:
    # 0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...
    arr = np.asarray(n)
    return np.where(arr >= 0, 2 * arr, -2 * arr - 1)


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def _natural(n: np.ndarray) -> np.ndarray:
    # the cache key of an index on N is the index itself; none lies below 0
    arr = np.asarray(n)
    if arr.size and arr.min() < 0:
        raise UsageError(f"index {arr.min()} is not in the naturals")
    return arr


class _BlockCache:
    """Deterministic per-index values in fixed blocks of _BLOCK indices.

    Block b is drawn from a Philox counter-based stream keyed by (seed, b)
    (Salmon et al., SC'11), so a value depends only on the seed and its
    index, never on query order, on how far the cache has grown or on
    which thread drew it.  fill(streams, blocks, out) draws the blocks in
    place into out, one after another, taking one stream per block from
    streams.

    values holds the blocks below the budget of _CACHE_BYTES, in index
    order, each drawn once straight into a store that grows by doubling.
    Blocks past the budget are drawn for the fetch that needs them, and
    spill keeps those of the last such fetch, one fetch's worth, so that
    the next fetch copies the blocks it shares with it.  The blocks one
    fetch needs are drawn in batches of _BATCH blocks on every CPU.
    """

    def __init__(self, seed: int, row: tuple[int, ...], dtype: type,
                 fill: Callable[[Iterator[np.random.Generator], np.ndarray, np.ndarray], None]):
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**63:
            raise UsageError(f"seed must be an integer in [0, 2^63), got {seed!r}")
        self.seed = int(seed)
        self.fill = fill
        self.store = self.values = np.empty((0, *row), dtype)
        self.limit = max(1, _CACHE_BYTES // (_BLOCK * self.store.itemsize * math.prod(row)))
        self.spill = np.empty(0, np.int64), np.empty((0, _BLOCK, *row), dtype)
        self.lock = threading.Lock()

    def _streams(self, blocks: np.ndarray) -> Iterator[np.random.Generator]:
        # resetting one generator to each further key costs a quarter of building one
        bits = np.random.Philox(key=[self.seed, blocks[0]])
        rng, fresh = np.random.Generator(bits), bits.state if len(blocks) > 1 else None
        yield rng
        for b in blocks[1:]:
            fresh["state"]["key"][1] = b
            bits.state = fresh
            yield rng

    def _draw(self, blocks: np.ndarray, out: np.ndarray) -> None:
        """Draw block blocks[i] into out[i * _BLOCK:(i + 1) * _BLOCK] in
        batches of _BATCH blocks: the calling thread and a helper thread per
        further CPU, up to one per further batch, claim them in turn."""
        batches = [slice(i, i + _BATCH) for i in range(0, len(blocks), _BATCH)]
        pending, claim = iter(batches), threading.Lock()
        errors: list[Exception] = []

        def run() -> None:
            # each thread claims the next batch when it is free, so a thread
            # that gets less CPU time draws fewer batches
            try:
                while True:
                    with claim:
                        s = next(pending, None)
                    if s is None:
                        return
                    self.fill(self._streams(blocks[s]), blocks[s],
                              out[s.start * _BLOCK:s.stop * _BLOCK])
            except Exception as exc:  # re-raised by the calling thread
                errors.append(exc)

        # batches are independent and their draws release the GIL
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        threads = [threading.Thread(target=run)
                   for _ in range(min(cpus or 1, len(batches)) - 1)]
        for thread in threads:
            thread.start()
        run()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def ensure(self, size: int) -> None:
        """Draw the blocks below index size, up to the budget, not yet in values."""
        have, want = len(self.values) // _BLOCK, min(-(-size // _BLOCK), self.limit)
        if want <= have:
            return
        if want * _BLOCK > len(self.store):
            cap = min(max(want, 2 * len(self.store) // _BLOCK), self.limit)
            self.store = np.empty((cap * _BLOCK, *self.store.shape[1:]), self.store.dtype)
            self.store[:len(self.values)] = self.values
        self._draw(np.arange(have, want), self.store[have * _BLOCK:want * _BLOCK])
        self.values = self.store[:want * _BLOCK]

    def _past(self, blocks: np.ndarray) -> np.ndarray:
        """The values of the sorted blocks past the budget, of shape
        (len(blocks), _BLOCK) + row: blocks in spill are copied from it and
        each run of further blocks is drawn in one call.  They become the
        new spill."""
        old, kept = self.spill
        out = np.empty((blocks.size, *kept.shape[1:]), kept.dtype)
        have = np.isin(blocks, old)
        out[have] = kept[np.searchsorted(old, blocks[have])]
        missing = np.flatnonzero(~have)
        for run in np.split(missing, np.flatnonzero(np.diff(missing) > 1) + 1):
            if run.size:
                self._draw(blocks[run], out[run[0]:run[-1] + 1].reshape(-1, *out.shape[2:]))
        self.spill = blocks, out
        return out

    def take(self, zz: np.ndarray) -> np.ndarray:
        """The values at the keys zz, of shape zz.shape + row."""
        with self.lock:
            top = int(zz.max(initial=-1))
            if top < self.limit * _BLOCK:
                self.ensure(top + 1)
                return self.values[zz]
            blocks, slot = np.unique(zz // _BLOCK, return_inverse=True)
            slot = slot.reshape(zz.shape)
            kept = int(np.searchsorted(blocks, self.limit))  # blocks is sorted
            self.ensure(int(blocks[kept - 1] + 1) * _BLOCK if kept else 0)
            rows = self.values.shape[1:]
            drawn = self._past(blocks[kept:]).reshape(-1, *rows)
            pos = (slot - kept) * _BLOCK + zz % _BLOCK
            if not kept:
                return drawn[pos]
            near = slot < kept
            out = np.empty(zz.shape + rows, self.values.dtype)
            out[near] = self.values[zz[near]]
            out[~near] = drawn[pos[~near]]
            return out


def seeded_torus(domain: IndexDomain, seed: int = 0) -> StructureMatrix:
    """Torus matrix with reproducible pseudo-random phases in [0, 2pi)."""

    def fill(streams, blocks: np.ndarray, out: np.ndarray) -> None:
        for rng, part in zip(streams, out.reshape(len(blocks), _BLOCK)):
            rng.random(out=part)
        out *= 2.0 * math.pi  # uniform(0, 2pi) is 2pi times random(), bit for bit

    cache = _BlockCache(seed, (), np.float64, fill)
    key = _zigzag if domain is IndexDomain.INTEGERS else _natural

    def nu(n):
        return cache.take(key(n))[()]

    return torus_from_phases(domain, PhaseSequence(nu),
                             label=f"seeded_torus(seed={seed})[{domain.value}]")


def seeded_gram(domain: IndexDomain, dim: int = 8, seed: int = 0) -> StructureMatrix:
    """Gram matrix of reproducible random unit vectors in C^dim."""

    if dim < 1:
        raise UsageError(f"gram vector dimension must be >= 1, got {dim}")
    key, index = (_zigzag, _unzigzag) if domain is IndexDomain.INTEGERS else (_natural, int)

    def fill(streams, blocks: np.ndarray, out: np.ndarray) -> None:
        flat = np.empty((len(out), 2 * dim))
        for rng, part in zip(streams, flat.reshape(len(blocks), _BLOCK, 2 * dim)):
            rng.standard_normal(out=part)
        norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
        np.divide(flat[:, :dim], norms, out=out.real)
        np.divide(flat[:, dim:], norms, out=out.imag)
        _check_unit(out, lambda i: index(int(blocks[i // _BLOCK]) * _BLOCK + i % _BLOCK))

    cache = _BlockCache(seed, (dim,), np.complex128, fill)

    def vectors(idx: np.ndarray) -> np.ndarray:
        return cache.take(key(idx))

    return gram_from_vectors(domain, vectors, _checked=True,
                             label=f"seeded_gram(dim={dim},seed={seed})[{domain.value}]")


def _spec_float(value, field: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"spec field {field} must be a float, got {value!r}") from exc
    if not math.isfinite(number):
        raise UsageError(f"spec field {field} must be a finite float, got {value!r}")
    return number


def _complex_from_pair(value, field: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_spec_float(value, field))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_spec_float(value[0], f"{field}[0]"), _spec_float(value[1], f"{field}[1]"))
    raise UsageError(f"complex values must be numbers or [re, im] pairs, got {value!r}")


def matrix_from_spec(spec: dict) -> StructureMatrix:
    """Build a matrix from its JSON description.

    Shape: {"kind": ..., "domain": "N" | "Z", plus kind-specific fields}.
    Kinds: constant_one; chessboard (xi, optional orientation); torus with
    "phases" either an explicit array (naturals, indices 0..len-1) or
    {"formula": "linear", "slope": s}, read by difference e^{is(n - m)};
    gram with "vectors" given as a list of [re, im]-pair lists (naturals,
    indices 0..len-1), or with a "seed"/"dim" pair for seeded_gram.
    """

    if not isinstance(spec, dict):
        raise UsageError(f"matrix spec must be an object, got {type(spec).__name__}")
    try:
        domain = IndexDomain(spec.get("domain", "N"))
    except ValueError as exc:
        raise UsageError(f"unknown domain {spec.get('domain')!r}; use 'N' or 'Z'") from exc
    kind = spec.get("kind")

    if kind == "constant_one":
        return constant_one(domain)

    if kind == "chessboard":
        if "xi" not in spec:
            raise UsageError("chessboard spec needs a 'xi' field")
        raw = spec.get("orientation", Orientation.ONE_ON_EVEN_SUM.value)
        try:
            orientation = Orientation(str(raw).lower())
        except ValueError as exc:
            raise UsageError(f"unknown orientation {raw!r}") from exc
        return chessboard(domain, ChessboardParams(_spec_float(spec["xi"], "xi"), orientation))

    if kind == "torus":
        phases = spec.get("phases")
        if isinstance(phases, dict):
            if phases.get("formula") != "linear":
                raise UsageError(f"unknown phase formula {phases.get('formula')!r}")
            slope = _spec_float(phases.get("slope", 0.0), "phases.slope")
            difference = lambda q: np.exp(1j * slope * np.asarray(q))[()]  # e^{is(n - m)}
            return StructureMatrix(domain, lambda n, m: difference(np.subtract(n, m)),
                                   f"torus(slope={slope:g})[{domain.value}]",
                                   profile=UNIMODULAR, difference=difference)
        if isinstance(phases, list):
            if domain is not IndexDomain.NATURALS:
                raise UsageError("explicit phase arrays index the naturals only")
            table = np.asarray([_spec_float(p, f"phases[{i}]") for i, p in enumerate(phases)])

            def nu(n):
                arr = np.asarray(n)
                if arr.size and (arr.min() < 0 or arr.max() >= table.size):
                    raise UsageError(
                        f"phase array covers indices 0:{table.size - 1}, got {arr.min()}..{arr.max()}")
                return table[arr][()]

            return torus_from_phases(domain, PhaseSequence(nu),
                                     label=f"torus(table[{table.size}])[N]")
        raise UsageError("torus spec needs 'phases' as an array or a formula object")

    if kind == "gram":
        if "seed" in spec or "dim" in spec:
            seed, dim = spec.get("seed"), spec.get("dim")
            if "vectors" in spec:
                raise UsageError("gram spec takes 'vectors' or a 'seed'/'dim' pair, not both")
            if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
                       for v in (seed, dim)):
                raise UsageError(f"gram spec needs nonnegative integers 'seed' and 'dim', "
                                 f"got {seed!r} and {dim!r}")
            return seeded_gram(domain, dim, seed)
        vecs = spec.get("vectors")
        if not isinstance(vecs, list) or not vecs:
            raise UsageError("gram spec needs a nonempty 'vectors' list or a 'seed'/'dim' pair")
        if domain is not IndexDomain.NATURALS:
            raise UsageError("explicit gram vectors index the naturals only")
        if not all(isinstance(vec, list) and vec and len(vec) == len(vecs[0]) for vec in vecs):
            raise UsageError("gram 'vectors' must be nonempty lists of one length")
        rows = np.asarray([[_complex_from_pair(c, f"vectors[{i}][{j}]") for j, c in enumerate(vec)]
                           for i, vec in enumerate(vecs)])

        def vectors(idx: np.ndarray) -> np.ndarray:
            arr = np.asarray(idx)
            if arr.size and (arr.min() < 0 or arr.max() >= rows.shape[0]):
                raise UsageError(
                    f"vector list covers indices 0:{rows.shape[0] - 1}, got {arr.min()}..{arr.max()}")
            return rows[arr]

        return gram_from_vectors(domain, vectors,
                                 label=f"gram(list[{rows.shape[0]}])[N]")

    raise UsageError(f"unknown matrix kind {kind!r}")
