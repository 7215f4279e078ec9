import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import covnoise as cn
from covnoise.errors import ContractViolationError, UsageError
from covnoise import observables
from covnoise.matrices import hermitian_defect
from covnoise.observables import TWO_PI, _grid, angle_from_string

N = cn.IndexDomain.NATURALS
Z = cn.IndexDomain.INTEGERS


def quad_kernel(X, q):
    """Independent quadrature of (1/2pi) int_X e^{iqx} dx, piece by piece."""
    re = sum(quad(lambda x: math.cos(q * x), a, b, limit=200)[0]
             for a, b in X.intervals)
    im = sum(quad(lambda x: math.sin(q * x), a, b, limit=200)[0]
             for a, b in X.intervals)
    return complex(re, im) / TWO_PI


def test_interval_set_normalization():
    X = cn.IntervalSet.from_pairs([(1.0, 1.0), (5.0, 7.5), (0.5, 2.0)])
    # zero length dropped; (5, 7.5) wraps, and its head merges with (0.5, 2)
    assert X.intervals == ((0.0, 2.0), (5.0, TWO_PI))
    assert X.total_length == pytest.approx(2.0 + TWO_PI - 5.0, abs=1e-15)
    assert cn.IntervalSet.from_pairs([(0.0, 10.0)]).intervals == ((0.0, TWO_PI),)
    assert cn.IntervalSet.from_pairs([(1.0, 2.0), (2.0, 3.0)]).intervals == ((1.0, 3.0),)
    with pytest.raises(UsageError):
        cn.IntervalSet.from_pairs([(2.0, 1.0)])
    with pytest.raises(UsageError):
        cn.IntervalSet.from_pairs([(0.0, math.inf)])


def test_interval_set_parsing():
    X = cn.IntervalSet.from_string("0:pi,3*pi/2:2*pi")
    assert X.intervals == ((0.0, math.pi), (3 * math.pi / 2, TWO_PI))
    assert cn.IntervalSet.from_string("").intervals == ()
    assert cn.IntervalSet.from_string("pi/4:(1+1)*pi/2").intervals == \
        ((math.pi / 4, math.pi),)
    huge = "1" + "0" * 400
    for bad in ("0", "0:pi:2", "a:b", "0:import os", "0:2**3", "0:10**400",
                "0:" + huge, "0:" + huge + ".0"):
        with pytest.raises(UsageError):
            cn.IntervalSet.from_string(bad)
    assert angle_from_string("pi/3") == pytest.approx(math.pi / 3, rel=1e-15)
    for bad in ("os.sep", "10**400", "9**9**9", huge, "-" + huge):
        with pytest.raises(UsageError):
            angle_from_string(bad)


FULL = cn.IntervalSet(((0.0, TWO_PI),))


def complement(X):
    """The complement of X in [0, 2pi): the gaps between its pieces."""
    ends = [0.0, *(end for piece in X.intervals for end in piece), TWO_PI]
    return cn.IntervalSet(tuple((a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b))


def test_complement():
    X = cn.IntervalSet.from_string("0:pi/2,pi:3*pi/2")
    C = complement(X)
    assert C.total_length == pytest.approx(TWO_PI - X.total_length, abs=1e-14)
    assert complement(C) == X
    assert complement(FULL).intervals == ()
    assert complement(cn.IntervalSet()) == FULL
    assert FULL == cn.IntervalSet.from_string("0:2*pi")


angles = st.floats(0.0, 4.0 * math.pi, allow_nan=False)


@given(data=st.lists(st.tuples(angles, angles), min_size=1, max_size=3),
       x=st.floats(-10.0, 10.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_shift_preserves_measure(data, x):
    pairs = [(min(a, b), max(a, b)) for a, b in data]
    X = cn.IntervalSet.from_pairs(pairs)
    shifted = cn.shift_interval(X, x)
    assert shifted.total_length == pytest.approx(X.total_length, abs=1e-11)


@given(data=st.lists(st.tuples(angles, angles), min_size=1, max_size=2),
       q=st.integers(-64, 64))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_quadrature(data, q):
    pairs = [(min(a, b), max(a, b)) for a, b in data]
    X = cn.IntervalSet.from_pairs(pairs)
    got = cn.kernel_by_difference(X, q)
    assert abs(got - quad_kernel(X, q)) <= 1e-10


def test_kernel_half_circle_table():
    """[0, pi): diagonal 1/2, even differences vanish, odd ones are i/(pi q)."""
    X = cn.IntervalSet.from_string("0:pi")
    assert cn.kernel_by_difference(X, 0) == pytest.approx(0.5, abs=1e-15)
    assert abs(cn.kernel_by_difference(X, 2)) <= 1e-15
    for q in (1, 3, 5, -7):
        got = cn.kernel_by_difference(X, q)
        assert got == pytest.approx(1j / (math.pi * q), abs=1e-15)
    assert cn.kernel_by_difference(X, np.asarray([0, 1, 2]))[0] == \
        pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("q", range(-64, 65))
def test_moment_kernels_match_quadrature(q):
    c1 = cn.moment_kernel(1, q)
    ref1 = complex(quad(lambda x: x * math.cos(q * x), 0.0, TWO_PI, limit=400)[0],
                   quad(lambda x: x * math.sin(q * x), 0.0, TWO_PI, limit=400)[0]) / TWO_PI
    assert abs(complex(c1) - ref1) <= 1e-10
    c2 = cn.moment_kernel(2, q)
    ref2 = complex(quad(lambda x: x**2 * math.cos(q * x), 0.0, TWO_PI, limit=400)[0],
                   quad(lambda x: x**2 * math.sin(q * x), 0.0, TWO_PI, limit=400)[0]) / TWO_PI
    assert abs(complex(c2) - ref2) <= 1e-10


def test_moment_kernel_rejects_other_orders():
    with pytest.raises(UsageError):
        cn.moment_kernel(3, 0)


def test_observable_normalization_identities():
    for A, w in ((cn.seeded_gram(N, 8, seed=5), cn.IndexWindow(0, 63)),
                 (cn.seeded_torus(Z, seed=5), cn.IndexWindow(-32, 31))):
        empty = cn.observable_operator(A, cn.IntervalSet(), w)
        assert np.max(np.abs(empty.entries)) == 0.0
        full = cn.observable_operator(A, FULL, w)
        assert np.max(np.abs(full.entries - np.eye(w.size))) <= 1e-12
        X = cn.IntervalSet.from_string("0:pi/2,pi:3*pi/2")
        left = cn.observable_operator(A, X, w).entries
        right = cn.observable_operator(A, complement(X), w).entries
        assert np.max(np.abs(left + right - np.eye(w.size))) <= 1e-12


def test_observable_requires_normalized_diagonal():
    skew = cn.chessboard(Z, cn.ChessboardParams(0.5, cn.Orientation.ONE_ON_ODD_SUM))
    with pytest.raises(UsageError):
        cn.observable_operator(skew, FULL, cn.IndexWindow(-4, 3))


def test_monotone_positivity_for_gram():
    A = cn.seeded_gram(N, 8, seed=8)
    w = cn.IndexWindow(0, 255)
    nested = ["0:pi/4", "0:pi/2", "0:pi", "0:3*pi/2", "0:2*pi"]
    prev = np.zeros((w.size, w.size))
    for text in nested:
        cur = cn.observable_operator(A, cn.IntervalSet.from_string(text), w).entries
        gap = np.linalg.eigvalsh(cur - prev)[0]
        assert gap >= -1e-8
        prev = cur


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_covariance_defect_is_rounding_level(seed):
    rng = np.random.default_rng(seed)
    domain = Z if seed % 2 else N
    A = cn.seeded_torus(domain, seed=seed) if seed % 2 else \
        cn.seeded_gram(domain, 8, seed=seed)
    w = cn.IndexWindow(-64, 63) if domain is Z else cn.IndexWindow(0, 127)
    ends = np.sort(rng.uniform(0.0, TWO_PI, size=4))
    X = cn.IntervalSet.from_pairs(ends.reshape(-1, 2))
    x = float(rng.uniform(0.0, TWO_PI))
    assert cn.covariance_defect(A, X, x, w) <= 1e-12


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _dense_differences(w):
    idx = w.indices()
    return idx[:, None] - idx[None, :]


@pytest.mark.parametrize("w", [cn.IndexWindow(0, 0), cn.IndexWindow(0, 6),
                               cn.IndexWindow(0, 511), cn.IndexWindow(-1, -1),
                               cn.IndexWindow(-3, 3), cn.IndexWindow(-256, 255),
                               cn.IndexWindow(0, 199)])
def test_difference_indexed_kernels_are_dense_bit_for_bit(w):
    """Kernels evaluated on the 2N - 1 differences and viewed as the grid
    equal the dense evaluation on idx[:, None] - idx[None, :], and so do
    the operators built from them; the grid is a read-only view.  The
    windows on N use a gram block (not unimodular), one of side 200, not a
    multiple of the row tile."""
    X = cn.IntervalSet.from_pairs([(0.3, 1.9), (2.5, 5.0)])
    x = 2.1
    d = _dense_differences(w)
    kernels = [lambda q: cn.kernel_by_difference(X, q),
               lambda q: cn.moment_kernel(1, q),
               lambda q: cn.moment_kernel(2, q),
               lambda q: np.exp(1j * q * x)]
    for f in kernels:
        grid = _grid(f(np.arange(1 - w.size, w.size)))
        assert np.array_equal(_bits(grid), _bits(f(d)))
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 0.0
    domain = Z if w.lo < 0 else N
    A = cn.seeded_gram(domain, 8, seed=4) if domain is N else cn.seeded_torus(domain, seed=4)
    block = cn.truncate(A, w)
    kernel = cn.kernel_by_difference(X, d)
    assert np.array_equal(_bits(cn.observable_operator(A, X, w).entries),
                          _bits(block * kernel))
    for k in (1, 2):
        kernel = cn.moment_kernel(k, d)
        assert np.array_equal(_bits(cn.moment_operator(A, k, w).entries),
                              _bits(block * kernel))


@pytest.mark.parametrize("A, w", [
    (cn.seeded_gram(N, 8, seed=5), cn.IndexWindow(0, 255)),
    (cn.seeded_torus(Z, seed=11), cn.IndexWindow(-128, 127)),
    (cn.chessboard(Z, cn.ChessboardParams(0.6)), cn.IndexWindow(-100, 99)),
])
def test_covariance_defect_matches_two_operator_recipe(A, w, monkeypatch):
    """One truncation serves both observables (none for a matrix that
    declares difference, which is read by difference), both kernels are
    certified with the block's certificate, and the defect, reduced row tile
    by row tile, is the same float as from two separate dense truncations
    and kernels (inline products of fresh temporaries would move its last
    bits)."""
    truncations, certified = [], []
    certify = observables._certify_hermitian
    monkeypatch.setattr(observables, "truncate",
                        lambda *args: truncations.append(1) or cn.truncate(*args))
    monkeypatch.setattr(observables, "_certify_hermitian",
                        lambda certificate, kernel: certified.append(certificate)
                        or certify(certificate, kernel))
    rng = np.random.default_rng(3)
    d = _dense_differences(w)
    block = cn.truncate(A, w)
    certificate = (hermitian_defect(block), float(np.max(np.abs(block))))
    for _ in range(8):
        ends = np.sort(rng.uniform(0.0, TWO_PI, size=4))
        X = cn.IntervalSet.from_pairs(ends.reshape(-1, 2))
        x = float(rng.uniform(0.0, TWO_PI))
        base_kernel = cn.kernel_by_difference(X, d)
        base = block * base_kernel
        shifted_kernel = cn.kernel_by_difference(cn.shift_interval(X, x), d)
        shifted = block * shifted_kernel
        phase = np.exp(1j * d * x)
        expected = float(np.max(np.abs(phase * base - shifted)))
        before = len(truncations), len(certified)
        assert cn.covariance_defect(A, X, x, w).hex() == expected.hex()
        truncated = 0 if A.difference else 1
        assert (len(truncations), len(certified)) == (before[0] + truncated, before[1] + 2)
        assert certified[-2:] == [certificate] * 2


@pytest.mark.parametrize("A", [
    cn.constant_one(N), cn.constant_one(Z), cn.chessboard(N, cn.ChessboardParams(0.4)),
    cn.chessboard(Z, cn.ChessboardParams(0.8)), cn.chessboard(Z, cn.ChessboardParams(1.0)),
], ids=lambda A: A.label)
def test_difference_path_matches_the_dense_path_bit_for_bit(A):
    """On random interval sets, shifts and windows (odd, even and of size
    1, near 0 and at the addressable bound), a matrix read by difference
    and the same matrix truncated densely give the same observable and
    moment entries and the same covariance defect, bit for bit; the
    entries read by difference are a read-only view."""
    dense = dataclasses.replace(A, difference=None)
    rng = np.random.default_rng(17)
    top = cn.matrices.INDEX_BOUND - 1
    for size in (1, 2, 7, 64, 65, 200, 301):
        for lo in (int(rng.integers(0 if A.domain is N else -300, 40)), top - size + 1):
            w = cn.IndexWindow(lo, lo + size - 1)
            ends = np.sort(rng.uniform(0.0, TWO_PI, size=2 * int(rng.integers(1, 4))))
            X = cn.IntervalSet.from_pairs(ends.reshape(-1, 2))
            x = float(rng.uniform(-TWO_PI, TWO_PI))
            for build in (lambda M: cn.observable_operator(M, X, w),
                          lambda M: cn.moment_operator(M, 1, w),
                          lambda M: cn.moment_operator(M, 2, w)):
                op, reference = build(A), build(dense)
                assert op.entries.tobytes() == reference.entries.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    op.entries[0, 0] = 0.0
            assert cn.covariance_defect(A, X, x, w).hex() == \
                cn.covariance_defect(dense, X, x, w).hex()


def test_truncated_operator_checks_hermiticity():
    """Hermiticity is certified by the builders (see the tests below); the
    dataclass itself checks the shape of its entries."""
    with pytest.raises(UsageError):
        cn.TruncatedOperator(cn.IndexWindow(0, 2), np.eye(2, dtype=np.complex128))


def _dense_hermitian_defect(M):
    """The dense oracle: one full transposed pass."""
    return float(np.max(np.abs(M - M.conj().T)))


@pytest.mark.parametrize("A, w", [
    (cn.seeded_gram(N, 8, seed=5), cn.IndexWindow(0, 255)),
    (cn.seeded_torus(Z, seed=11), cn.IndexWindow(-128, 127)),
    (cn.chessboard(Z, cn.ChessboardParams(0.6)), cn.IndexWindow(-100, 99)),
    (cn.constant_one(N), cn.IndexWindow(0, 300)),
])
def test_covariant_operators_hermitian_against_dense_oracle(A, w, monkeypatch):
    """Operators certified Hermitian in O(N) pass the dense check, and a
    covariance call measures the block's defect once (a matrix that
    declares difference measures it on its differences, with no dense
    pass): no dense pass runs over any product."""
    calls = []
    monkeypatch.setattr(observables, "hermitian_defect",
                        lambda M: calls.append(M.shape) or hermitian_defect(M))
    X = cn.IntervalSet.from_pairs([(0.3, 1.9), (2.5, 5.0)])
    ops = [cn.observable_operator(A, X, w), cn.moment_operator(A, 1, w),
           cn.moment_operator(A, 2, w)]
    dense = [] if A.difference else [(w.size, w.size)]
    assert calls == dense * 3
    for op in ops:
        assert _dense_hermitian_defect(op.entries) <= 1e-12
    calls.clear()
    cn.covariance_defect(A, X, 0.7, w)
    assert calls == dense


def _broken_hermitian(A):
    """A whose entry (0, 1) drops the conjugate of (1, 0)."""
    def entry(n, m):
        out = np.array(A.entry(n, m), dtype=np.complex128)
        if out.ndim == 2 and out.shape[0] > 1:
            out[0, 1] = out[1, 0]
        return out
    return cn.StructureMatrix(A.domain, entry, "broken")


def test_builders_refuse_non_hermitian_block_and_kernel(monkeypatch):
    """The O(N) certificate rejects a block that is not Hermitian and a
    kernel with k(-q) != conj(k(q)), which the dense oracle also rejects."""
    w = cn.IndexWindow(-20, 20)
    X = cn.IntervalSet.from_pairs([(0.3, 1.9)])
    torus = cn.seeded_torus(Z, seed=3)
    bad = _broken_hermitian(torus)
    assert _dense_hermitian_defect(cn.truncate(bad, w)) > 1e-12
    for build in (lambda A: cn.observable_operator(A, X, w),
                  lambda A: cn.moment_operator(A, 2, w),
                  lambda A: cn.covariance_defect(A, X, 0.4, w)):
        with pytest.raises(ContractViolationError, match="block defect"):
            build(bad)

    original = observables.kernel_by_difference
    monkeypatch.setattr(observables, "kernel_by_difference",
                        lambda X, q: original(X, np.abs(q)))  # conjugate dropped
    with pytest.raises(ContractViolationError, match="kernel defect"):
        cn.observable_operator(torus, X, w)
    with pytest.raises(ContractViolationError, match="kernel defect"):
        cn.covariance_defect(torus, X, 0.4, w)
    monkeypatch.setattr(observables, "kernel_by_difference", original)
    moment = observables.moment_kernel
    monkeypatch.setattr(observables, "moment_kernel",
                        lambda k, q: moment(k, np.abs(q)))
    with pytest.raises(ContractViolationError, match="kernel defect"):
        cn.moment_operator(torus, 1, w)


def test_moment_operator_diagonals():
    A = cn.constant_one(N)
    w = cn.IndexWindow(0, 15)
    first = cn.moment_operator(A, 1, w)
    assert np.max(np.abs(np.diag(first.entries) - math.pi)) <= 1e-14
    second = cn.moment_operator(A, 2, w)
    assert np.max(np.abs(np.diag(second.entries) - 4.0 * math.pi**2 / 3.0)) <= 1e-13
    q = 3
    assert first.entries[3, 0] == pytest.approx(complex(0.0, -1.0 / q), abs=1e-15)
    assert second.entries[3, 0] == pytest.approx(
        complex(2.0 / q**2, -2.0 * math.pi / q), abs=1e-13)


def test_noise_diagonal_against_brackets():
    """Windowed noise-operator diagonal lands inside tail distance of the
    certified bracket for all four matrix families."""
    cases = [
        (cn.constant_one(Z), cn.IndexWindow(-128, 127), (-2, 0, 3)),
        (cn.chessboard(Z, cn.ChessboardParams(0.5)), cn.IndexWindow(-128, 127), (0,)),
        (cn.seeded_torus(Z, seed=3), cn.IndexWindow(-128, 127), (0, 5)),
        (cn.seeded_gram(N, 8, seed=3), cn.IndexWindow(0, 255), (0, 7)),
    ]
    for A, w, ns in cases:
        for n in ns:
            value, tail = cn.noise_operator_diagonal(A, n, w)
            s = cn.noise_value(A, cn.NoiseQuery(n, 2, 1e-6))
            assert value - tail <= s.upper and s.lower <= value + tail
            assert abs(value - s.value) <= tail + s.width


@pytest.mark.parametrize("family, n", [
    ("chessboard-Z", -60), ("chessboard-Z", 0), ("chessboard-Z", 37),
    ("constant-Z", -3), ("constant-Z", 0), ("constant-Z", 2),
    ("constant-N", 0), ("constant-N", 5), ("constant-N", 17)])
def test_noise_diagonal_tail_bound_is_certified_and_tight(family, n):
    """value - exact is the row past the window, which the tail bound
    encloses from above and overshoots by less than 1e-8 relative."""
    if family == "chessboard-Z":
        params = cn.ChessboardParams(0.5)
        A, exact = cn.chessboard(Z, params), cn.chessboard_noise_closed_form(params, Z, n, 2).value
    else:
        domain = Z if family == "constant-Z" else N
        A = cn.constant_one(domain)
        exact = cn.reference_moment(2) - cn.lattice_sum_exact(domain, n)
    w = cn.IndexWindow(0, 255) if A.domain is N else cn.IndexWindow(-128, 127)
    value, tail = cn.noise_operator_diagonal(A, n, w)
    assert 0.0 <= value - exact <= tail <= (value - exact) * (1.0 + 1e-8)


def test_noise_diagonal_matches_dense_path():
    A = cn.seeded_torus(Z, seed=9)
    w = cn.IndexWindow(-64, 63)
    sparse, _ = cn.noise_operator_diagonal(A, 2, w)
    first = cn.moment_operator(A, 1, w).entries
    second = cn.moment_operator(A, 2, w).entries
    dense = (second - first @ first)[2 - w.lo, 2 - w.lo].real
    assert abs(sparse - dense) <= 1e-12


def test_noise_diagonal_window_policy():
    A = cn.seeded_gram(N, 8, seed=1)
    with pytest.raises(UsageError):
        cn.noise_operator_diagonal(A, 0, cn.IndexWindow(1, 128))
    with pytest.raises(UsageError):  # margin under a quarter of the window
        cn.noise_operator_diagonal(A, 120, cn.IndexWindow(0, 127))
    with pytest.raises(UsageError):
        cn.noise_operator_diagonal(cn.constant_one(Z), 60, cn.IndexWindow(-64, 63))


def test_noise_diagonal_refuses_windows_past_the_truncation_entry_count(monkeypatch):
    """A window longer than window_cap()**2 entries is refused before its
    index array exists; the limit itself is accepted."""
    A = cn.constant_one(Z)
    tracemalloc.start()
    try:
        with pytest.raises(cn.ResourceLimitError, match="COVNOISE_MAX_WINDOW") as info:
            cn.noise_operator_diagonal(A, 0, cn.IndexWindow(-10**12, 10**12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(cn.window_cap() ** 2) in str(info.value)
    assert peak < 1 << 20
    monkeypatch.setenv("COVNOISE_MAX_WINDOW", "4")
    value, _ = cn.noise_operator_diagonal(A, 0, cn.IndexWindow(-8, 7))
    assert math.isfinite(value)
    with pytest.raises(cn.ResourceLimitError, match="16"):
        cn.noise_operator_diagonal(A, 0, cn.IndexWindow(-8, 8))


def test_projection_defect_trend():
    """Finite sections of the half-circle observable stay far from being
    projections, but the central part of E^2 - E settles as the window
    grows: its Frobenius norm decreases at every doubling."""
    A = cn.seeded_torus(Z, seed=11)
    X = cn.IntervalSet.from_string("0:pi")
    norms = []
    for size in (32, 64, 128, 256):
        w = cn.IndexWindow(-size // 2, size // 2 - 1)
        E = cn.observable_operator(A, X, w).entries
        D = E @ E - E
        q = size // 4
        sub = D[size // 2 - q:size // 2 + q, size // 2 - q:size // 2 + q]
        norms.append(float(np.linalg.norm(sub)))
    assert norms == sorted(norms, reverse=True)
    assert norms[0] > norms[-1]
    assert norms[-1] > 0.05  # persistently non-multiplicative
