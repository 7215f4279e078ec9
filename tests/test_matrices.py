import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covnoise as cn
from covnoise.errors import ResourceLimitError, UsageError
from covnoise import matrices
from covnoise.matrices import UNIMODULAR, PhaseRecoveryFailure, window_cap

N = cn.IndexDomain.NATURALS
Z = cn.IndexDomain.INTEGERS


def sample_matrices(seed=0):
    return [
        cn.constant_one(N),
        cn.constant_one(Z),
        cn.chessboard(N, cn.ChessboardParams(0.3)),
        cn.chessboard(Z, cn.ChessboardParams(0.7, cn.Orientation.ONE_ON_ODD_SUM)),
        cn.seeded_torus(N, seed=seed),
        cn.seeded_torus(Z, seed=seed),
        cn.seeded_gram(N, 8, seed=seed),
        cn.seeded_gram(Z, 4, seed=seed),
    ]


def test_window_basics():
    w = cn.IndexWindow(-4, 3)
    assert w.size == 8
    assert list(w.indices()) == list(range(-4, 4))
    assert str(w) == "-4:3"
    with pytest.raises(UsageError):
        cn.IndexWindow(3, 2)
    with pytest.raises(UsageError):
        cn.IndexWindow(-1, 5).validate_for(N)
    cn.IndexWindow(-1, 5).validate_for(Z)


def test_domain_membership():
    assert N.contains(0) and N.contains(7) and not N.contains(-1)
    assert Z.contains(-7)
    bound = matrices.INDEX_BOUND
    assert bound == 2**61 and Z.contains(1 - bound) and N.contains(bound - 1)
    assert not Z.contains(bound) and not Z.contains(-bound) and not N.contains(bound)
    cn.IndexWindow(1 - bound, bound - 1).validate_for(Z)
    for w in (cn.IndexWindow(0, bound), cn.IndexWindow(-bound, 0)):
        with pytest.raises(UsageError, match="2\\^61"):
            w.validate_for(Z)


@pytest.mark.parametrize("matrix", sample_matrices(), ids=lambda m: m.label)
def test_entries_in_unit_disk_and_hermitian(matrix):
    lo = 0 if matrix.domain is N else -13
    idx = np.arange(lo, lo + 27)
    block = matrix.entry(idx[:, None], idx[None, :])
    assert np.max(np.abs(block)) <= 1.0 + 1e-15
    assert np.max(np.abs(block - block.conj().T)) <= 1e-15
    if "one_on_odd_sum" not in matrix.label:
        # every builder except the swapped chessboard is normalized
        assert np.max(np.abs(np.diag(block) - 1.0)) <= 1e-12
    else:
        assert np.max(np.abs(np.diag(block) - 0.7)) <= 1e-15


@given(n=st.integers(-40, 40), m=st.integers(-40, 40), seed=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_entry_scalar_matches_block(n, m, seed):
    A = cn.seeded_torus(Z, seed=seed)
    one = complex(A.entry(n, m))
    grid = A.entry(np.asarray([n]), np.asarray([m]))
    assert one == complex(grid[0])


def test_chessboard_pattern():
    A = cn.chessboard(N, cn.ChessboardParams(0.25))
    assert complex(A.entry(0, 2)) == 1.0  # even sum
    assert complex(A.entry(0, 1)) == 0.25
    assert complex(A.entry(3, 3)) == 1.0  # normalized diagonal regardless of parity
    B = cn.chessboard(Z, cn.ChessboardParams(0.25, cn.Orientation.ONE_ON_ODD_SUM))
    assert complex(B.entry(0, 1)) == 1.0
    assert complex(B.entry(-2, 2)) == 0.25
    assert complex(B.entry(-3, -3)) == 0.25  # swapped orientation is unnormalized
    assert cn.chessboard(Z, cn.ChessboardParams(1.0)).profile == UNIMODULAR
    assert A.profile == cn.RowModulusProfile(2, ((1.0, 0.25), (1.0, 0.25)))
    assert B.profile == cn.RowModulusProfile(2, ((0.25, 1.0), (0.25, 1.0)))
    with pytest.raises(UsageError):
        cn.ChessboardParams(1.5)


def test_chessboard_block_holds_one_byte_per_entry_beyond_itself():
    """A chessboard truncation forms the parity of n + m as one uint8 grid and
    gathers from the two values, so it peaks within 2 MiB of the block."""
    A = cn.chessboard(Z, cn.ChessboardParams(0.5))
    w = cn.IndexWindow(-512, 511)
    tracemalloc.start()
    try:
        block = cn.truncate(A, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (1024, 1024)
    assert peak <= block.nbytes + (2 << 20)
    n, m = np.meshgrid(w.indices(), w.indices(), indexing="ij")
    assert np.array_equal(block, np.where((n + m) % 2 == 0, 1.0, 0.5))


@pytest.mark.parametrize("A", [
    cn.constant_one(N), cn.constant_one(Z),
    cn.chessboard(N, cn.ChessboardParams(0.3)), cn.chessboard(Z, cn.ChessboardParams(0.3)),
    cn.chessboard(N, cn.ChessboardParams(0.6, cn.Orientation.ONE_ON_ODD_SUM)),
    cn.chessboard(Z, cn.ChessboardParams(0.6, cn.Orientation.ONE_ON_ODD_SUM)),
    cn.chessboard(Z, cn.ChessboardParams(1.0)),
    *[cn.matrix_from_spec({"kind": "torus", "domain": d.value,
                           "phases": {"formula": "linear", "slope": 0.4}}) for d in (N, Z)],
], ids=lambda A: A.label)
def test_declared_difference_is_the_entry_bit_for_bit(A):
    """entry(n, m) and difference(n - m) have the same bit pattern on
    blocks, rows and scalars, for negative differences and for indices at
    the addressable bound on either side, where |n - m| nears 2^62."""
    top = matrices.INDEX_BOUND - 1
    sides = [np.arange(0, 41), np.arange(top - 40, top + 1)]
    if A.domain is Z:
        sides += [np.arange(-20, 21), np.arange(-top, -top + 41)]
    pairs = [(n[:, None], m[None, :]) for n in sides for m in sides]
    pairs += [(0, top), (top, 0), (3, 3), (-2, 5) if A.domain is Z else (2, 5),
              (top, np.arange(top - 7, top + 1)), (np.arange(5), 4)]
    if A.domain is Z:
        pairs += [(top, -top), (-top, top),
                  (np.arange(-top, -top + 9), np.arange(top - 8, top + 1))]
    for n, m in pairs:
        q = np.subtract(n, m)
        assert np.array_equal(_bits(A.entry(n, m)), _bits(A.difference(q)))
        assert np.shape(A.difference(q)) == np.shape(q)
    for B in (cn.seeded_torus(A.domain, seed=1), cn.seeded_gram(A.domain, 4, seed=1)):
        assert B.difference is None


def test_torus_from_phases_is_rank_one_phase_form():
    nu = cn.PhaseSequence(lambda n: 0.3 * np.asarray(n, dtype=float) ** 2)
    A = cn.torus_from_phases(Z, nu)
    n, m = 5, -2
    expect = np.exp(1j * (0.3 * 25.0 - 0.3 * 4.0))
    assert abs(complex(A.entry(n, m)) - expect) <= 1e-15
    assert A.profile == UNIMODULAR


def test_gram_from_vectors_rejects_unnormalized():
    def vectors(idx):
        scale = 1.0 + (idx == 3) * 1e-6
        return np.asarray([1.0, 1.0]) / math.sqrt(2.0) * scale[:, None]

    A = cn.gram_from_vectors(N, vectors)
    assert abs(complex(A.entry(0, 1)) - 1.0) <= 1e-12
    with pytest.raises(UsageError, match="index 3"):
        A.entry(3, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gram_from_vectors_rejects_non_finite(bad):
    """abs(norm - 1) > 1e-9 is False for a NaN norm; the check must refuse
    it all the same, so no NaN entry leaves the oracle."""
    def vectors(idx):
        rows = np.tile(np.asarray([1.0, 0.0], dtype=np.complex128), (len(idx), 1))
        rows[idx == 2, 0] = bad
        return rows

    A = cn.gram_from_vectors(N, vectors)
    assert complex(A.entry(0, 1)) == 1.0
    with pytest.raises(UsageError, match="index 2"):
        A.entry(np.arange(4), 0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _captured(monkeypatch, builder, build):
    """Build a matrix and return it with the callable (gram vectors or
    torus phases) its builder handed on to matrices.<builder>."""
    seen = []
    real = getattr(matrices, builder)

    def spy(domain, arg, *args, **kwargs):
        seen.append(arg)
        return real(domain, arg, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(matrices, builder, spy)
        A = build()
    return A, seen[0]


def _grids(n, m):
    return np.broadcast_arrays(np.asarray(n), np.asarray(m))


def _gram_reference(vectors):
    """The dedupe recipe the gram oracle replaced: one np.unique pass over
    both broadcast index grids, then a flat row-by-row inner product."""

    def entry(n, m):
        na, ma = _grids(n, m)
        flat_n, flat_m = na.reshape(-1), ma.reshape(-1)
        uniq, inverse = np.unique(np.concatenate([flat_n, flat_m]), return_inverse=True)
        rows = np.asarray(vectors(uniq), dtype=np.complex128)
        vn, vm = rows[inverse[: flat_n.size]], rows[inverse[flat_n.size:]]
        return np.einsum("kd,kd->k", np.conj(vn), vm).reshape(na.shape)

    return entry


def _torus_reference(phases):
    def entry(n, m):
        na, ma = _grids(n, m)
        return np.exp(1j * (np.asarray(phases.nu(na), dtype=float)
                            - np.asarray(phases.nu(ma), dtype=float)))

    return entry


def _linear_torus_reference(slope):
    """e^{i slope (n - m)}, as perfbench's matrix_entry writes it."""

    def entry(n, m):
        na, ma = _grids(n, m)
        return np.exp(1j * slope * (na - ma).astype(float))[()]

    return entry


def _with_reference(monkeypatch, kind, domain):
    """A builder's matrix and an entry oracle that evaluates it on full
    broadcast index grids, as the oracles did before they broadcast."""
    if kind == "constant_one":
        return cn.constant_one(domain), lambda n, m: np.ones(_grids(n, m)[0].shape, complex)
    if kind.startswith("chessboard"):
        xi, orientation = ((0.3, cn.Orientation.ONE_ON_EVEN_SUM) if kind == "chessboard"
                           else (0.6, cn.Orientation.ONE_ON_ODD_SUM))
        even, odd = (1.0, xi) if orientation is cn.Orientation.ONE_ON_EVEN_SUM else (xi, 1.0)

        def chess(n, m):
            na, ma = _grids(n, m)
            return np.where((na + ma) % 2 == 0, even, odd).astype(complex)

        return cn.chessboard(domain, cn.ChessboardParams(xi, orientation)), chess
    if kind == "seeded_torus":
        A, phases = _captured(monkeypatch, "torus_from_phases",
                              lambda: cn.seeded_torus(domain, seed=5))
        return A, _torus_reference(phases)
    if kind == "linear_torus":
        spec = {"kind": "torus", "domain": domain.value,
                "phases": {"formula": "linear", "slope": 0.4}}
        return cn.matrix_from_spec(spec), _linear_torus_reference(0.4)
    if kind == "gram_list":
        rng = np.random.default_rng(12)
        flat = rng.normal(size=(512, 4))
        flat /= np.linalg.norm(flat, axis=1)[:, None]
        spec = {"kind": "gram", "domain": "N",
                "vectors": [[[r[0], r[2]], [r[1], r[3]]] for r in flat.tolist()]}
        A, vectors = _captured(monkeypatch, "gram_from_vectors",
                               lambda: cn.matrix_from_spec(spec))
        return A, _gram_reference(vectors)
    dim = int(kind.removeprefix("gram"))
    A, vectors = _captured(monkeypatch, "gram_from_vectors",
                           lambda: cn.seeded_gram(domain, dim, seed=7))
    return A, _gram_reference(vectors)


_KINDS = ["constant_one", "chessboard", "chessboard_odd", "seeded_torus", "linear_torus",
          "gram1", "gram3", "gram8"]


@pytest.mark.parametrize("kind, domain",
                         [(k, d) for k in _KINDS for d in (N, Z)] + [("gram_list", N)],
                         ids=lambda v: v.value if isinstance(v, cn.IndexDomain) else v)
def test_broadcast_oracles_match_full_grid_evaluation_bit_for_bit(monkeypatch, kind, domain):
    """Truncations of side 1, 7 and 512 and rows of 2**19 offsets equal the
    full-grid evaluation (for gram: the np.unique dedupe recipe) bit for bit."""
    A, reference = _with_reference(monkeypatch, kind, domain)
    for side in (1, 7, 512):
        lo = 0 if domain is N else -(side // 2)
        idx = cn.IndexWindow(lo, lo + side - 1).indices()
        assert np.array_equal(_bits(cn.truncate(A, cn.IndexWindow(lo, lo + side - 1))),
                              _bits(reference(idx[:, None], idx[None, :])))
    if kind == "gram_list":
        offsets = np.arange(1, 500)
        starts = [(0, 1), (5, 1)]
    else:
        offsets = np.arange(1, 2**19 + 1)
        starts = [(0, 1), (5, 1)] + ([(-3, 1), (4, -1)] if domain is Z else [])
    for n, sign in starts:
        m = n + sign * offsets
        assert np.array_equal(_bits(A.entry(n, m)), _bits(reference(n, m)))
    assert np.array_equal(_bits(A.entry(2, 5)), _bits(reference(2, 5)))


@pytest.mark.parametrize("kind", ["seeded", "linear"])
def test_torus_oracle_is_the_exp_of_the_phase_difference_bit_for_bit(monkeypatch, kind):
    """The seeded oracle writes nu(n) - nu(m) into the imaginary part of its
    one output and exponentiates in place; that is np.exp(1j * (nu(n) -
    nu(m))) to the bit on blocks, rows and scalars, with phases of both
    signs.  The linear torus is np.exp(1j * s * (n - m)) to the bit."""
    if kind == "seeded":
        A, phases = _captured(monkeypatch, "torus_from_phases", lambda: cn.seeded_torus(Z, seed=2))
        nu = phases.nu

        def old(n, m):
            return np.exp(1j * (np.asarray(nu(n), dtype=float)
                                - np.asarray(nu(m), dtype=float)))[()]
    else:
        spec = {"kind": "torus", "domain": "Z", "phases": {"formula": "linear", "slope": -0.7}}
        A, old = cn.matrix_from_spec(spec), _linear_torus_reference(-0.7)

    idx = np.arange(-700, 700)  # a negative slope on Z: phases of both signs
    for n, m in [(idx[:, None], idx[None, :]), (-9, idx), (idx, 11), (idx, idx[::-1]),
                 (-3, 5), (4, -4), (0, 0)]:
        new = A.entry(n, m)
        assert type(new) is type(old(n, m)) and np.shape(new) == np.shape(old(n, m))
        assert np.array_equal(_bits(new), _bits(old(n, m)))


def test_linear_torus_moves_by_the_rounding_of_its_two_phases():
    """The linear torus reads e^{is(n - m)} with one rounding of s(n - m)
    where e^{i(sn - sm)} had three.  On a block and on a far row the two
    differ by no more than the rounding of sn, sm and their difference,
    u(|sn| + |sm| + 2|s(n - m)|), plus a few ulps of exp."""
    slope, u = 0.4, 2.0**-53
    A = cn.matrix_from_spec({"kind": "torus", "domain": "Z",
                             "phases": {"formula": "linear", "slope": slope}})
    idx = np.arange(-512, 512)
    worst = 0.0
    for n, m in [(idx[:, None], idx[None, :]), (10**9, 10**9 + np.arange(-500, 500))]:
        n, m = np.broadcast_arrays(n, m)
        sn, sm = slope * n.astype(float), slope * m.astype(float)
        moved = np.abs(A.entry(n, m) - np.exp(1j * (sn - sm)))
        bound = u * (np.abs(sn) + np.abs(sm) + 2.0 * np.abs(sn - sm)) + 8.0 * u
        assert np.all(moved <= bound)
        worst = max(worst, float(moved.max()))
    assert worst > 0.0  # the entries did move: e^{is(n - m)} is read, not e^{i(sn - sm)}


def test_gram_oracle_fetches_each_side_once(monkeypatch):
    """A side-N truncation hands 2N indices to vectors and a row of k
    offsets hands k + 1, each call with a flat index array."""
    _, vectors = _captured(monkeypatch, "gram_from_vectors",
                           lambda: cn.seeded_gram(Z, 3, seed=4))
    shapes = []

    def counted(idx):
        shapes.append(idx.shape)
        return vectors(idx)

    A = cn.gram_from_vectors(Z, counted)
    cn.truncate(A, cn.IndexWindow(-20, 19))
    assert sum(s[0] for s in shapes) == 2 * 40
    shapes.clear()
    A.entry(7, 7 + np.arange(1, 1001))
    assert sum(s[0] for s in shapes) == 1001
    assert all(len(s) == 1 for s in shapes)

@pytest.mark.parametrize("size", [8, 64, 256])
def test_builders_are_psd(size):
    for matrix in (cn.seeded_torus(N, seed=3), cn.seeded_gram(N, 8, seed=3)):
        block = cn.truncate(matrix, cn.IndexWindow(0, size - 1))
        assert matrices.hermitian_defect(block) <= 1e-12
        lam = np.linalg.eigvalsh(block)[0]
        assert lam >= -1e-9, lam


def test_truncate_and_cap(monkeypatch):
    A = cn.constant_one(N)
    block = cn.truncate(A, cn.IndexWindow(0, 4))
    assert block.shape == (5, 5) and np.all(block == 1.0)
    with pytest.raises(ResourceLimitError):
        cn.truncate(A, cn.IndexWindow(0, window_cap()))
    monkeypatch.setenv("COVNOISE_MAX_WINDOW", "16")
    with pytest.raises(ResourceLimitError):
        cn.truncate(A, cn.IndexWindow(0, 16))
    assert cn.truncate(A, cn.IndexWindow(0, 15)).shape == (16, 16)


@given(seed=st.integers(0, 30), slope=st.floats(-3.0, 3.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_phase_recovery_round_trip(seed, slope):
    """Recovering phases from a rank-one phase matrix reproduces it to 1e-12
    modulo a global offset, on a 16- and a 512-wide window."""
    if seed % 2:
        A = cn.seeded_torus(Z, seed=seed)
        windows = (cn.IndexWindow(-8, 7), cn.IndexWindow(-256, 255))
    else:
        A = cn.torus_from_phases(N, cn.PhaseSequence(
            lambda n: slope * np.asarray(n, dtype=float)))
        windows = (cn.IndexWindow(0, 15), cn.IndexWindow(0, 511))
    for w in windows:
        out = cn.torus_phase_recovery(A, w, 1e-10)
        assert isinstance(out, cn.PhaseSequence)
        idx = w.indices()
        nu = np.asarray([float(out.nu(int(i))) for i in idx])
        rebuilt = np.exp(1j * (nu[:, None] - nu[None, :]))
        block = cn.truncate(A, w)
        assert np.max(np.abs(rebuilt - block)) <= 1e-12


def test_phase_recovery_failures():
    bad_mod = cn.torus_phase_recovery(
        cn.chessboard(Z, cn.ChessboardParams(0.5)), cn.IndexWindow(-4, 4), 1e-10)
    assert isinstance(bad_mod, PhaseRecoveryFailure)
    assert bad_mod.kind == "modulus" and bad_mod.defect == pytest.approx(0.5)

    def entry(n, m):  # unimodular but not of difference form
        na, ma = np.broadcast_arrays(np.asarray(n), np.asarray(m))
        phase = 0.3 * na * ma * (na - ma)
        return np.exp(1j * phase.astype(float))

    twisted = cn.StructureMatrix(N, entry, "twisted", profile=UNIMODULAR)
    bad_coc = cn.torus_phase_recovery(twisted, cn.IndexWindow(0, 7), 1e-10)
    assert isinstance(bad_coc, PhaseRecoveryFailure)
    assert bad_coc.kind == "cocycle"
    assert bad_coc.defect > 1e-10

    def offdiag(n, m):
        na, ma = np.broadcast_arrays(np.asarray(n), np.asarray(m))
        return np.where(na == ma, 0.5, 1.0).astype(np.complex128)[()]

    with pytest.raises(UsageError):
        cn.torus_phase_recovery(cn.StructureMatrix(N, offdiag, "half-diag"),
                                cn.IndexWindow(0, 3), 1e-10)


def test_phase_recovery_cocycle_failure_names_the_anchor_triple():
    """The first entry, row by row, where the block leaves e^{i(nu_n - nu_m)}
    read from the anchor column: a broken cocycle A(n,m)A(m,lo) = A(n,lo)."""
    w = cn.IndexWindow(3, 10)
    twist = np.zeros((w.size, w.size))
    twist[4, 6] = 0.5
    twist[6, 4] = -0.5

    def entry(n, m):
        na, ma = np.broadcast_arrays(np.asarray(n), np.asarray(m))
        return np.exp(1j * (0.7 * (na - ma) + twist[na - w.lo, ma - w.lo]))

    A = cn.StructureMatrix(N, entry, "twisted-pair", profile=UNIMODULAR)
    out = cn.torus_phase_recovery(A, w, 1e-10)
    assert isinstance(out, PhaseRecoveryFailure) and out.kind == "cocycle"
    assert out.indices == (7, 9, 3)
    n, m, lo = out.indices
    cocycle = abs(complex(A.entry(n, m)) * complex(A.entry(m, lo)) - complex(A.entry(n, lo)))
    assert out.defect == pytest.approx(cocycle, rel=1e-9) and out.defect > 0.4


def test_seeded_builders_prefix_stable():
    probe = cn.seeded_torus(N, seed=4)
    grown = complex(probe.entry(700, 3))
    fresh = cn.seeded_torus(N, seed=4)
    assert complex(fresh.entry(700, 3)) == grown
    assert complex(fresh.entry(5, 3)) == complex(cn.seeded_torus(N, seed=4).entry(5, 3))
    g1 = cn.seeded_gram(Z, 8, seed=4)
    g2 = cn.seeded_gram(Z, 8, seed=4)
    g1.entry(-300, 0)  # force a cache regrow before the small read
    assert complex(g1.entry(2, -1)) == complex(g2.entry(2, -1))
    assert complex(cn.seeded_torus(N, seed=4).entry(5, 3)) != complex(
        cn.seeded_torus(N, seed=5).entry(5, 3))


# sha256 of the seeded values on Z at _seeded_indices, for seeds 0, 7 and
# 2^62 - 1, as drawn when every block below the largest index was kept.
_FROZEN = {
    "gram1": "aed3e5b02130b8793195cc05452905228b8e272edc1b501176980b47cf9bba20",
    "gram3": "4098be8efb6d87427e9710678ae9e091b7140b692dc875e8a7b88f2c7136e6de",
    "gram8": "acf754f295f97932c57c7ad98c4e31a163073d5f332d75cef6e292dd63ecd7a5",
    "torus": "177a0e9d10239b7e8bf8894e308015a4bd8ba71afde00c55e201d10df400b521",
}
_SEEDS = (0, 7, 2**62 - 1)


def _seeded_indices(seed):
    """Indices on Z near 0, far out (|n| up to 1.5e6, past the C^8 budget of
    |n| < 2^18) and either side of that budget, in random order."""
    rng = np.random.default_rng(seed % 1000)
    return np.concatenate([rng.integers(-3000, 3001, 40), rng.integers(-1_500_000, 1_500_001, 160),
                           [0, 1, -1, 2**18 - 1, 2**18, -2**18, -2**18 - 1]])


def _seeded_values(monkeypatch, kind, domain, seed, idx):
    """The gram vectors (kind "gram<dim>") or torus phases at idx of a fresh
    seeded matrix, read through the callable its builder hands on."""
    if kind == "torus":
        _, phases = _captured(monkeypatch, "torus_from_phases",
                              lambda: cn.seeded_torus(domain, seed=seed))
        return phases.nu(idx)
    _, vectors = _captured(monkeypatch, "gram_from_vectors",
                           lambda: cn.seeded_gram(domain, int(kind[4:]), seed=seed))
    return vectors(idx)


def _seeded_digest(monkeypatch, kind):
    digest = hashlib.sha256()
    for seed in _SEEDS:
        idx = _seeded_indices(seed)
        if kind == "torus":
            idx = np.concatenate([idx, 4 * idx])
        digest.update(np.ascontiguousarray(_seeded_values(monkeypatch, kind, Z, seed, idx)).tobytes())
    return digest.hexdigest()


def _on_cpus(monkeypatch, cpus):
    """Make the cache see cpus CPUs; returns the helper threads each _draw
    call started, one count per call."""
    per_draw, real_draw = [], matrices._BlockCache._draw

    class Counted(threading.Thread):
        def start(self):
            per_draw[-1] += 1
            super().start()

    def draw(self, blocks, out):
        per_draw.append(0)
        real_draw(self, blocks, out)

    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(matrices.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(matrices.threading, "Thread", Counted)
    monkeypatch.setattr(matrices._BlockCache, "_draw", draw)
    return per_draw


@pytest.mark.parametrize("kind, budget", [("gram8", None)] + [
    (kind, 1 << 18) for kind in ("gram1", "gram3", "gram8", "torus")])
def test_seeded_values_are_frozen(monkeypatch, kind, budget):
    """Seeded gram vectors and torus phases on Z keep their bits whether a
    block is cached or drawn past the budget and dropped: at the real
    budget, and at a 256 KiB one that leaves 2 to 32 blocks cached."""
    if budget is not None:
        monkeypatch.setattr(matrices, "_CACHE_BYTES", budget)
    assert _seeded_digest(monkeypatch, kind) == _FROZEN[kind]


@pytest.mark.parametrize("cpus", [1, 8])
def test_seeded_values_are_frozen_on_any_number_of_cpus(monkeypatch, cpus):
    """The frozen values hold whether the Philox batches of a draw all run
    in the calling thread (1 CPU) or are shared with up to 7 helper
    threads (8 CPUs), at a 256 KiB budget that draws past it too."""
    per_draw = _on_cpus(monkeypatch, cpus)
    monkeypatch.setattr(matrices, "_CACHE_BYTES", 1 << 18)
    for kind in _FROZEN:
        assert _seeded_digest(monkeypatch, kind) == _FROZEN[kind], kind
    assert max(per_draw) == cpus - 1


def _natural_indices(seed):
    """Indices on N near 0, either side of 2^18 and of 2^19 (the C^8
    budget holds n < 2^19), and past 1.5e6, in random order."""
    rng = np.random.default_rng(seed % 1000)
    edges = [2**18 - 1, 2**18, 2**18 + 1, 2**19 - 1, 2**19, 2**19 + 1]
    return rng.permutation(np.concatenate([
        rng.integers(0, 3001, 40), rng.integers(1_500_000, 1_600_001, 40), [0, 1, 2], edges]))


@pytest.mark.parametrize("budget", [None, 1 << 18], ids=["64MiB", "256KiB"])
@pytest.mark.parametrize("cpus", [1, 8])
@pytest.mark.parametrize("kind", ["gram1", "gram3", "gram8", "torus"])
def test_seeded_values_on_the_naturals_are_those_on_the_integers_reindexed(monkeypatch, kind,
                                                                          cpus, budget):
    """A seeded matrix on N keys its cache by the index itself, and on Z by
    the zigzag index (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...), so the value at
    n on N is, bit for bit, the value on Z at the index whose zigzag index
    is n: near 0, either side of both budget edges and far past them, at
    the real budget and at 256 KiB, on 1 CPU and on 8."""
    _on_cpus(monkeypatch, cpus)
    if budget is not None:
        monkeypatch.setattr(matrices, "_CACHE_BYTES", budget)
    for seed in (0, 2**62 - 1):
        n = _natural_indices(seed)
        nu = np.array([matrices._unzigzag(int(k)) for k in n])
        assert np.array_equal(matrices._zigzag(nu), n)
        got = _seeded_values(monkeypatch, kind, N, seed, n)
        want = _seeded_values(monkeypatch, kind, Z, seed, nu)
        assert np.array_equal(_bits(got), _bits(want)), seed


@pytest.mark.parametrize("build", [lambda: cn.seeded_gram(N, 8, seed=3),
                                   lambda: cn.seeded_torus(N, seed=3)], ids=["gram", "torus"])
@pytest.mark.parametrize("n, m, named", [
    (-1, 0, -1), (np.array([-5, 0, 3]), 0, -5), (np.array([4, 2048, -2, 7, -9]), 1, -9)],
    ids=["scalar", "array", "mixed"])
def test_seeded_oracles_on_the_naturals_refuse_negative_indices(build, n, m, named):
    """A negative index has no key on N: the seeded oracles refuse it, as a
    row index or a column index, naming it, even once the blocks at the
    end of the cache are drawn (so it is not read from there)."""
    A = build()
    A.entry(0, np.arange(2048))
    for args in ((n, m), (m, n)):
        with pytest.raises(UsageError, match=rf"^index {named} is not in the naturals$"):
            A.entry(*args)


def _owned_bytes(cache):
    return sum(v.nbytes for v in vars(cache).values()
               if isinstance(v, np.ndarray) and v.base is None)


def test_block_cache_holds_at_most_its_budget(monkeypatch):
    """A gram row on Z at tol 4e-6 (l = 1) reaches 539 blocks of C^8
    vectors; the cache keeps the 512 that fit in 64 MiB and no more.  At a
    1 MiB budget, rows, far truncations and torus phases past it equal the
    values of an unbounded cache, and the cache never owns more than 1 MiB."""
    assert matrices._CACHE_BYTES == 64 << 20
    caches = []

    class Recorded(matrices._BlockCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(matrices, "_BlockCache", Recorded)
    cn.noise_value(cn.seeded_gram(Z, 8, seed=2), cn.NoiseQuery(0, 1, 4e-6))
    assert caches[0].limit == 512 and len(caches[0].values) == 512 * 1024
    assert _owned_bytes(caches[0]) == 64 << 20

    def probes():
        gram, torus = cn.seeded_gram(Z, 8, seed=2), cn.seeded_torus(Z, seed=2)
        far = cn.IndexWindow(10**6, 10**6 + 40)
        return [gram.entry(3, 3 + np.arange(-70_000, 70_000)), cn.truncate(gram, far),
                cn.truncate(torus, far), torus.entry(-(10**7), np.arange(0, 10**6, 7))]

    unbounded = probes()
    caches.clear()
    monkeypatch.setattr(matrices, "_CACHE_BYTES", 1 << 20)
    for got, want in zip(probes(), unbounded):
        assert np.array_equal(_bits(got), _bits(want))
    assert [c.limit for c in caches] == [8, 128]
    assert all(0 < _owned_bytes(c) <= 1 << 20 for c in caches)


def test_concurrent_fetches_get_the_serial_values():
    """Eight threads fetch rows of one seeded gram matrix that reach 64 to
    640 blocks, so its store is regrown while others draw into it and the
    longest rows cross the budget, with a 1 us switch interval; each gets
    the bits a matrix gives serially."""
    offsets = [np.arange(1, 40_000 * (k + 1)) for k in range(8)]
    serial = cn.seeded_gram(Z, 8, seed=9)
    want = [serial.entry(0, o) for o in offsets]
    A = cn.seeded_gram(Z, 8, seed=9)
    got = [None] * len(offsets)

    def fetch(k):
        got[k] = A.entry(0, offsets[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch, args=(k,)) for k in range(len(offsets))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for g, w in zip(got, want):
        assert g is not None and np.array_equal(_bits(g), _bits(w))


def test_seeded_gram_checks_each_vector_once_when_drawn(monkeypatch):
    """Seeded vectors are norm-checked as their block is drawn, not on
    each fetch: a row fetched twice is checked once, and the check names
    a vector by its index in the domain (on Z the key is its zigzag
    index, on N the index itself).  A vector that is not a unit vector is
    refused, naming its index."""
    checked, names = [], []
    real = matrices._check_unit

    def spy(rows, index_of):
        checked.append(len(rows))
        names.append([index_of(i) for i in (0, 1, 2, 1023)])
        real(rows, index_of)

    monkeypatch.setattr(matrices, "_check_unit", spy)
    A = cn.seeded_gram(Z, 8, seed=1)
    offsets = np.arange(1, 20_000)
    A.entry(0, offsets)
    A.entry(0, offsets)
    assert sum(checked) == 40 * 1024
    cn.seeded_gram(N, 8, seed=1).entry(0, 3)
    assert names[0] == [0, -1, 1, -512] and names[-1] == [0, 1, 2, 1023]
    rows = np.full((8, 2), np.sqrt(0.5) + 0j)
    rows[5] *= 2.0
    with pytest.raises(UsageError, match=r"index -3 has norm np.float64\(2.0"):
        real(rows, matrices._unzigzag)
    idx = np.arange(-5000, 5000)
    assert [matrices._unzigzag(int(z)) for z in matrices._zigzag(idx)] == idx.tolist()


def test_matrix_from_spec_round_trips():
    spec_pairs = [
        ({"kind": "constant_one", "domain": "Z"}, cn.constant_one(Z)),
        ({"kind": "chessboard", "domain": "N", "xi": 0.3},
         cn.chessboard(N, cn.ChessboardParams(0.3))),
        ({"kind": "chessboard", "domain": "Z", "xi": 0.5,
          "orientation": "one_on_odd_sum"},
         cn.chessboard(Z, cn.ChessboardParams(0.5, cn.Orientation.ONE_ON_ODD_SUM))),
        ({"kind": "torus", "domain": "Z", "phases": {"formula": "linear", "slope": 0.7}},
         cn.torus_from_phases(Z, cn.PhaseSequence(
             lambda n: 0.7 * np.asarray(n, dtype=float)))),
        ({"kind": "gram", "domain": "Z", "seed": 3, "dim": 4}, cn.seeded_gram(Z, 4, seed=3)),
    ]
    idx = np.arange(-5, 6)
    for spec, direct in spec_pairs:
        built = cn.matrix_from_spec(spec)
        assert built.domain is direct.domain
        lo = 0 if built.domain is N else -5
        sub = idx[idx >= lo] if built.domain is N else idx
        got = built.entry(sub[:, None], sub[None, :])
        want = direct.entry(sub[:, None], sub[None, :])
        assert np.max(np.abs(got - want)) <= 1e-15

    tabular = cn.matrix_from_spec(
        {"kind": "torus", "domain": "N", "phases": [0.0, 0.5, 1.5]})
    assert abs(complex(tabular.entry(1, 2)) - np.exp(1j * (0.5 - 1.5))) <= 1e-15
    with pytest.raises(UsageError):
        tabular.entry(0, 3)

    inv = 1.0 / math.sqrt(2.0)
    g = cn.matrix_from_spec({"kind": "gram", "domain": "N",
                             "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                         [[inv, 0.0], [0.0, inv]]]})
    assert abs(complex(g.entry(0, 1)) - inv) <= 1e-15


@pytest.mark.parametrize("spec,needle", [
    ({"kind": "mystery"}, "kind"),
    ({"kind": "constant_one", "domain": "Q"}, "domain"),
    ({"kind": "chessboard", "domain": "N"}, "xi"),
    ({"kind": "chessboard", "domain": "N", "xi": 0.2, "orientation": "diagonal"},
     "orientation"),
    ({"kind": "torus", "domain": "Z", "phases": [0.1]}, "naturals"),
    ({"kind": "torus", "domain": "N", "phases": {"formula": "quadratic"}}, "formula"),
    ({"kind": "gram", "domain": "N", "vectors": []}, "vectors"),
    ([], "object"),
    ({"kind": "gram", "domain": "N", "seed": 3}, "dim"),
    ({"kind": "gram", "domain": "N", "seed": 3, "dim": 4, "vectors": [[1.0]]}, "not both"),
    ({"kind": "chessboard", "xi": "x"}, "field xi "),
    ({"kind": "chessboard", "xi": None}, "field xi "),
    ({"kind": "chessboard", "xi": 10**400}, "field xi "),
    ({"kind": "torus", "phases": {"formula": "linear", "slope": "x"}}, "field phases.slope "),
    ({"kind": "torus", "phases": ["a", 1]}, r"field phases\[0\] "),
    ({"kind": "gram", "vectors": [[[1, "x"]]]}, r"field vectors\[0\]\[0\]\[1\] "),
    ({"kind": "gram", "vectors": [[1.0, [0.0, None]]]}, r"field vectors\[0\]\[1\]\[1\] "),
    ({"kind": "gram", "vectors": [5]}, "one length"),
    ({"kind": "gram", "vectors": [[]]}, "one length"),
    ({"kind": "gram", "vectors": [[[1, 0]], [[1, 0], [0, 0]]]}, "one length"),
])
def test_matrix_from_spec_rejects(spec, needle):
    with pytest.raises(UsageError, match=needle):
        cn.matrix_from_spec(spec)
