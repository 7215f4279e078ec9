import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covnoise as cn
from covnoise import schur_analysis
from covnoise.errors import ContractViolationError, UsageError
from covnoise.schur_analysis import _half_circle_column, _toeplitz_row_sums

# frozen section norms of the half-circle modulus kernel; regression values
# cross-checked below against the row-sum sandwich and the harmonic bound
NORM_5 = 1.1784537794065177
NORM_55 = 1.8907908939598834


def test_operator_norm_analytic_cases():
    """Hermitian input of any numeric dtype; anything else (not Hermitian,
    rectangular, empty, not finite) is a usage error."""
    sym = np.asarray([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128)
    est = cn.operator_norm(sym)
    assert est.method is cn.NormMethod.HERMITIAN_EIGEN
    assert est.value == pytest.approx(3.0, abs=1e-12)
    assert est.iterations == 0
    assert est.lower is None and est.upper is None
    assert cn.operator_norm(sym.real).value == pytest.approx(3.0, rel=1e-15)
    swap = np.asarray([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    assert cn.operator_norm(swap).value == pytest.approx(1.0, abs=1e-15)
    assert cn.operator_norm(np.asarray([[0.0, 1.0j], [-1.0j, 0.0]])).value == pytest.approx(1.0)
    assert cn.operator_norm(np.eye(3, dtype=bool)).value == 1.0
    zero = np.zeros((3, 3), dtype=np.complex128)
    assert cn.operator_norm(zero).value == 0.0
    shift = np.asarray([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    row = np.asarray([[3.0, 4.0j]])
    for M in (shift, row, row.T, np.zeros((2, 5)), np.zeros((0, 3)), np.asarray([[math.nan]]),
              np.asarray([[1.0, math.inf], [math.inf, 1.0]]),
              np.asarray([[1.0, complex(0.0, math.nan)], [complex(0.0, math.nan), 1.0]])):
        with pytest.raises(UsageError):
            cn.operator_norm(M)
    with pytest.raises(TypeError):
        cn.operator_norm(sym, method=cn.NormMethod.HERMITIAN_EIGEN)


def test_operator_norm_deterministic():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    M = (M + M.conj().T) / 2.0
    a = cn.operator_norm(M)
    b = cn.operator_norm(M)
    assert (a.value, a.iterations) == (b.value, b.iterations)


_SHAPES = ["hermitian", "square", "wide", "tall", "real-symmetric", "real-square",
           "real-wide", "real-tall", "integer", "bool", "hermitian-toeplitz",
           "real-toeplitz", "centrohermitian"]


def _hermitian_toeplitz(rng, size, real=False):
    """A Hermitian Toeplitz matrix of this side, t(i - j) with t(-q) = conj(t(q))."""
    t = rng.standard_normal(2 * size - 1)
    if not real:
        t = t + 1j * rng.standard_normal(2 * size - 1)
    t = (t + t[::-1].conj()) / 2.0
    return t[np.subtract.outer(np.arange(size), np.arange(size)) + size - 1]


@given(seed=st.integers(0, 10_000), shape=st.sampled_from(_SHAPES))
@settings(max_examples=100, deadline=None)
def test_operator_norm_matches_svd(seed, shape):
    """The one eigensolve agrees with the top singular value on Hermitian
    complex and real symmetric matrices and on the centrohermitian inputs
    solved through their real form (Hermitian Toeplitz, real symmetric
    Toeplitz, and centrohermitian but not Toeplitz), of sides 1 to 256.
    Non-Hermitian and rectangular complex, real, integer and bool arrays
    are refused, unless the draw happens to be Hermitian (a 1 x 1 real
    array, a symmetric bool one)."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(k) for k in rng.integers(1, 257, size=2))
    if shape in ("hermitian", "square", "real-symmetric", "real-square", "centrohermitian"):
        cols = rows
    elif shape.endswith(("wide", "tall")) and (rows < cols) != shape.endswith("wide"):
        rows, cols = cols, rows
    if shape.endswith("toeplitz"):
        M = _hermitian_toeplitz(rng, rows, real=shape.startswith("real"))
    elif shape == "integer":
        M = rng.integers(-9, 10, size=(rows, cols))
    elif shape == "bool":
        M = rng.random((rows, cols)) < 0.5
    elif shape.startswith("real"):
        M = rng.standard_normal((rows, cols))
    else:
        M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if shape == "centrohermitian":
        M = (M + M[::-1, ::-1].conj()) / 2.0
    if shape in ("hermitian", "real-symmetric", "centrohermitian"):
        M = (M + M.conj().T) / 2.0
    if shape.endswith(("toeplitz", "centrohermitian")):
        assert np.array_equal(M[::-1, ::-1], M.conj())
    hermitian = M.shape[0] == M.shape[1] and np.array_equal(M, M.conj().T)
    assert hermitian or shape not in ("hermitian", "real-symmetric", "hermitian-toeplitz",
                                      "real-toeplitz", "centrohermitian")
    if not hermitian:
        with pytest.raises(UsageError, match="Hermitian to 1e-12"):
            cn.operator_norm(M)
        return
    est = cn.operator_norm(M)
    top = np.linalg.svd(M.astype(np.result_type(M, np.float64)), compute_uv=False)[0]
    assert est.method is cn.NormMethod.HERMITIAN_EIGEN
    assert abs(est.value - top) <= 1e-12 * top


def _spy_eigvalsh(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: seen.append((a.dtype, a.shape)) or eigvalsh(a))
    return seen


@pytest.mark.parametrize("side", [2, 5, 64, 65])
def test_operator_norm_near_miss_keeps_the_complex_solve(monkeypatch, side):
    """One ulp off centrohermitian takes the general complex128 solve: the
    test is exact.  The changed pair (i, j), (j, i) sits off the
    anti-diagonal i + j = n - 1, whose entries are their own mirrors."""
    seen = _spy_eigvalsh(monkeypatch)
    M = _hermitian_toeplitz(np.random.default_rng(side), side)
    i, j = 0, (side - 1) // 2
    M[i, j] = complex(math.nextafter(M[i, j].real, math.inf), M[i, j].imag)
    M[j, i] = M[i, j].conjugate()
    assert i + j != side - 1 and not np.array_equal(M[::-1, ::-1], M.conj())
    assert schur_analysis.hermitian_defect(M) <= 1e-12
    value = cn.operator_norm(M).value
    assert seen == [(np.dtype(np.complex128), (side, side))]
    top = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(value - top) <= 1e-12 * top


def test_covariant_operators_reach_eigvalsh_only_in_float64(monkeypatch):
    """Truncated observables and moments of matrices that declare difference
    are Hermitian Toeplitz, so their norms take the real form: the
    observable-contraction check of verify and a chessboard moment."""
    from covnoise import verify

    seen = _spy_eigvalsh(monkeypatch)
    assert verify.run("schur", 0).ok
    assert {dtype for dtype, _ in seen} == {np.dtype(np.float64)}
    seen.clear()
    chess = cn.chessboard(cn.IndexDomain.NATURALS, cn.ChessboardParams(0.5))
    M = cn.moment_operator(chess, 1, cn.IndexWindow(0, 40)).entries
    value = cn.operator_norm(M).value
    assert seen == [(np.dtype(np.float64), (41, 41))]
    top = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(value - top) <= 1e-12 * top


def _half_circle_section(r):
    """The dense (r+1) x (r+1) section of |i_{[0,pi]}| on indices 0..r,
    the oracle of the Toeplitz path that never forms it."""
    half = cn.IntervalSet.from_pairs([(0.0, math.pi)])
    d = np.abs(np.subtract.outer(np.arange(r + 1), np.arange(r + 1)))
    return np.abs(cn.kernel_by_difference(half, d))


def test_dense_norm_inside_toeplitz_bracket():
    """The dense eigensolves of the r = 55 and r = 555 sections, real
    symmetric matrices solved in float64, land inside the certified bracket
    of the FFT Lanczos-started power-iteration path."""
    for r in (55, 555):
        section = _half_circle_section(r)
        assert section.dtype == np.float64
        dense = cn.operator_norm(section)
        certified = cn.modulus_growth_table((r,))[0].estimate
        assert dense.method is cn.NormMethod.HERMITIAN_EIGEN
        assert certified.lower <= dense.value <= certified.upper


def test_row_sum_bounds_sandwich_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        size = int(rng.integers(2, 80))
        M = rng.uniform(0.0, 1.0, size=(size, size))
        M = (M + M.T) / 2.0
        sums = M.sum(axis=1)
        norm = cn.operator_norm(M.astype(np.complex128)).value
        assert sums.min() - 1e-9 <= norm <= sums.max() + 1e-9


def test_half_circle_section_structure():
    B = _half_circle_section(7)
    assert B.shape == (8, 8)  # indices 0..r inclusive
    assert np.all(np.diag(B) == 0.5)
    for d in range(1, 8):
        expected = 1.0 / (math.pi * d) if d % 2 else 0.0
        assert B[d, 0] == pytest.approx(expected, abs=1e-15)
        assert B[0, d] == B[d, 0]
    assert np.array_equal(_half_circle_section(0), [[0.5]])


def test_growth_table_values_and_chain():
    table = cn.modulus_growth_table((5, 55))
    rec5, rec55 = table
    assert rec5.min_row_sum == pytest.approx(0.5 + 23.0 / (15.0 * math.pi), rel=1e-14)
    assert rec5.harmonic_bound == pytest.approx(23.0 / (15.0 * math.pi), rel=1e-14)
    assert rec5.norm == pytest.approx(NORM_5, rel=1e-12)
    assert rec55.norm == pytest.approx(NORM_55, rel=1e-12)
    for rec, frozen in zip(table, (NORM_5, NORM_55)):
        est = rec.estimate
        assert est.method is cn.NormMethod.TOEPLITZ_POWER
        assert est.lower <= frozen <= est.upper
        assert est.lower >= rec.min_row_sum > rec.harmonic_bound
    # the harmonic lower bound is unbounded along sparse subsequences
    big = cn.modulus_growth_table((555,))[0]
    assert big.harmonic_bound > rec5.harmonic_bound + 0.1
    with pytest.raises(UsageError):
        cn.modulus_growth_table((4,))
    with pytest.raises(UsageError):
        cn.modulus_growth_table((3,))


# Relative widths of the brackets that ARPACK's eigenvector gave before the
# power iteration replaced it; the certificate must stay at least as tight.
ARPACK_WIDTHS = {5: 3.391565251429204e-15, 55: 2.6775128907502178e-14,
                 555: 2.5105847144068905e-13, 1451: 6.475441804116788e-13,
                 1951: 8.700371987552855e-13, 2451: 1.0922088221169155e-12,
                 5555: 2.4730845191601747e-12, 19999: 8.886206325708543e-12}


@pytest.mark.parametrize("r, width", ARPACK_WIDTHS.items(), ids=map(str, ARPACK_WIDTHS))
def test_growth_norm_inside_certified_bracket(r, width):
    est = cn.modulus_growth_table((r,))[0].estimate
    assert est.lower <= est.value <= est.upper
    assert (est.upper - est.lower) / est.value <= width
    assert 0 < est.iterations < schur_analysis._MAX_MATVECS


def test_growth_bracket_contains_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")
    for r in (5, 55):
        est = cn.modulus_growth_table((r,))[0].estimate
        section = mpmath.matrix(_half_circle_section(r).tolist())
        with mpmath.workdps(40):
            top = max(mpmath.eigsy(section, eigvals_only=True))
            assert est.lower <= top <= est.upper


def test_growth_table_repeats_are_identical():
    a, b = (cn.modulus_growth_table((55, 1555))[1].estimate for _ in range(2))
    assert (a.value, a.lower, a.upper) == (b.value, b.lower, b.upper)


def test_growth_table_at_the_top_of_the_range():
    """r=19999 needs O(r) memory; a dense section would take 3.2 GB."""
    rec = cn.modulus_growth_table((19999,))[0]
    assert rec.estimate.lower >= rec.min_row_sum > rec.harmonic_bound
    assert rec.estimate.lower <= rec.norm <= rec.estimate.upper


def test_toeplitz_row_sums_match_dense():
    for r in range(1, 602, 2):
        dense = _half_circle_section(r).sum(axis=1)
        fast = _toeplitz_row_sums(_half_circle_column(r))
        assert np.all(np.abs(fast - dense) <= 4 * np.spacing(dense)), r


def test_toeplitz_norm_refuses_vanishing_eigenvector():
    """A negative entry (outside the nonnegative contract) or a zero column
    drives an iterate off the positive cone, where no bracket exists."""
    for column in ([0.5, -1.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ContractViolationError, match="not positive"):
            schur_analysis._toeplitz_perron_norm(np.asarray(column))


def test_toeplitz_norm_refuses_at_the_matvec_cap(monkeypatch):
    monkeypatch.setattr(schur_analysis, "_MAX_MATVECS", 20)
    with pytest.raises(ContractViolationError, match="no stall in 20 FFT matvecs"):
        cn.modulus_growth_table((55,))


def test_toeplitz_norm_cap_counts_lanczos_and_power_matvecs(monkeypatch):
    """The cap covers both phases: caps of 1 and 4 end inside the Lanczos
    run, one below the need ends in the power loop, and the need itself
    gives the uncapped estimate.  A refusal has run exactly cap matvecs
    (one inverse FFT each)."""
    column = _half_circle_column(55)
    full = schur_analysis._toeplitz_perron_norm(column)
    monkeypatch.setattr(schur_analysis, "_MAX_MATVECS", full.iterations)
    assert schur_analysis._toeplitz_perron_norm(column) == full
    calls, irfft = [], np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: calls.append(1) or irfft(*args))
    for cap in (1, 4, full.iterations - 1):
        monkeypatch.setattr(schur_analysis, "_MAX_MATVECS", cap)
        calls.clear()
        with pytest.raises(ContractViolationError, match=f"no stall in {cap} FFT matvecs"):
            schur_analysis._toeplitz_perron_norm(column)
        assert len(calls) == cap


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column", [[0.5], [0.75, 0.25], np.ones(4), np.ones(7),
                                    _half_circle_column(5)],
                         ids=["one-entry", "two-entry", "ones-4", "ones-7", "r5"])
def test_toeplitz_norm_certifies_below_the_krylov_cap(column):
    """Sizes below the Krylov cap of 64, some with the start vector ones an
    exact eigenvector (beta_0 = 0 in exact arithmetic, and in floating point
    too for ones(4)): the Lanczos run stops without dividing by beta = 0 and
    the bracket contains the dense top eigenvalue."""
    column = np.asarray(column, dtype=np.float64)
    index = np.arange(column.size)
    top = np.linalg.eigvalsh(column[np.abs(np.subtract.outer(index, index))])[-1]
    est = schur_analysis._toeplitz_perron_norm(column)
    assert est.lower <= top <= est.upper
    assert est.lower <= est.value <= est.upper


# FFT matvecs of the Lanczos start and the power loop together, by section order
MATVECS = {5: 6, 555: 35, 1451: 44, 2451: 40, 19999: 47}


@pytest.mark.parametrize("r, count", MATVECS.items(), ids=map(str, MATVECS))
def test_toeplitz_norm_matvec_count(r, count):
    """A Lanczos Ritz vector starts the power loop near the Perron vector,
    and the loop stops once the FFT quotients spread by at most
    log2(size) u max(y) after two or more power matvecs: the counts are
    pinned (counts, not times), and the certificate still holds."""
    est = schur_analysis._toeplitz_perron_norm(_half_circle_column(r))
    assert est.iterations == count
    assert est.lower <= est.value <= est.upper


def test_toeplitz_norm_refuses_a_wide_certificate(monkeypatch):
    """The direct matvec runs once; quotients spread wider than gamma_2n
    (here every other one is inflated by 1e-6) are refused, not widened."""
    calls = []
    convolve = np.convolve

    def skewed(x, kernel, mode):
        calls.append(x.size)
        return convolve(x, kernel, mode) * np.where(np.arange(x.size) % 2, 1.0 + 1e-6, 1.0)

    monkeypatch.setattr(np, "convolve", skewed)
    with pytest.raises(ContractViolationError, match="wider than gamma_2n"):
        cn.modulus_growth_table((55,))
    assert calls == [56]


def test_harmonic_bound_formula():
    rec = cn.modulus_growth_table((9,))[0]
    expected = math.fsum(1.0 / j for j in (1, 3, 5, 7, 9)) / math.pi
    assert rec.harmonic_bound == pytest.approx(expected, rel=1e-15)


def test_schur_multiplier_witness_pair():
    """Entrywise multiplication by the half-circle phase pattern is
    unbounded: observables stay contractions while the modulus sections
    outgrow every bound."""
    E = cn.observable_operator(cn.constant_one(cn.IndexDomain.NATURALS),
                               cn.IntervalSet.from_string("0:pi"),
                               cn.IndexWindow(0, 127))
    assert cn.operator_norm(E.entries).value <= 1.0 + 1e-9
    assert cn.modulus_growth_table((555,))[0].min_row_sum > 1.5


def test_half_circle_observable_is_a_contraction_past_side_1500():
    E = cn.observable_operator(cn.constant_one(cn.IndexDomain.NATURALS),
                               cn.IntervalSet.from_string("0:pi"), cn.IndexWindow(0, 1500))
    assert abs(cn.operator_norm(E.entries).value - 1.0) <= 1e-9


def sylvester_hadamard(p, origin=1.0):
    """The 2^p Sylvester-Hadamard matrix, the oracle of the closed-form
    norms: each G = H[:m, :m] doubled in place to [[G, G], [G, -G]],
    starting from H[0, 0] = origin."""
    H = np.empty((2**p, 2**p))
    H[0, 0] = origin
    for m in [2**k for k in range(p)]:
        H[:m, m:2 * m] = H[m:2 * m, :m] = H[:m, :m]
        np.negative(H[:m, :m], out=H[m:2 * m, m:2 * m])
    return H


def test_sylvester_construction():
    """The doubling gives +-1 entries and H H^T = 2^p I, the two facts the
    closed-form norms rest on; orders outside [1, 12] are refused."""
    H1 = sylvester_hadamard(1)
    assert np.array_equal(H1, np.asarray([[1.0, 1.0], [1.0, -1.0]]))
    for p in (1, 2, 3, 6):
        H = sylvester_hadamard(p)
        size = 2**p
        assert H.shape == (size, size)
        assert np.all(np.abs(H) == 1.0)
        assert np.array_equal(H @ H.T, size * np.eye(size))
    for p in (0, 13):
        with pytest.raises(UsageError, match=r"\[1, 12\]"):
            cn.sylvester_hadamard_example(p)


def _product_certifies(H):
    """The certificate the oracle is held to: +-1 entries, and H H^T with
    its diagonal the only nonzeros (exact in float64)."""
    return bool(np.all(np.abs(H) == 1.0)) and np.count_nonzero(H @ H.T) == H.shape[0]


_CHANGES = {"sign": lambda v: -v, "ulp": lambda v: math.nextafter(v, math.inf)}


@pytest.mark.parametrize("change", _CHANGES, ids=list(_CHANGES))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_every_changed_entry_fails_the_doubling_certificate(p, change):
    """Each entry of small Sylvester matrices, its sign flipped or moved by
    one ulp, is refused by the product certificate, so the closed forms
    are compared only against a true Hadamard matrix."""
    assert _product_certifies(sylvester_hadamard(p))
    for index in np.ndindex(2**p, 2**p):
        H = sylvester_hadamard(p)
        H[index] = _CHANGES[change](H[index])
        assert not _product_certifies(H)


@pytest.mark.parametrize("scale", [0.0, 2.0, 1.0 + 2.0**-52])
def test_a_doubling_from_a_wrong_origin_fails_the_certificate(scale):
    """Every doubling block copies its source whatever the origin: a
    doubling from H[0, 0] = scale gives scale H, which the product
    certificate refuses."""
    for p in (1, 4):
        H = sylvester_hadamard(p, origin=scale)
        assert np.array_equal(H, scale * sylvester_hadamard(p))
        assert not _product_certifies(H)


@pytest.mark.parametrize("p", range(1, 12))
def test_sylvester_norms_are_certified_by_structure(p):
    """Every entry of A_p = r H is +-r, r = fl(1/fl(2^(p/2))): the modulus
    norm r 2^p is an exact point and the norm bracket holds r 2^(p/2),
    evaluated here in 100-digit arithmetic.  Up to p = 6 both agree with
    a dense eigensolve of r H and r |H|."""
    mpmath = pytest.importorskip("mpmath")

    norm, modulus = cn.sylvester_hadamard_example(p)
    r = 1.0 / math.sqrt(2.0**p)
    assert modulus.method is norm.method is cn.NormMethod.STRUCTURE
    assert modulus.lower == modulus.value == modulus.upper == r * 2.0**p
    with mpmath.workdps(100):
        exact = mpmath.mpf(r) * mpmath.sqrt(2) ** p
        assert mpmath.mpf(norm.lower) <= exact <= mpmath.mpf(norm.upper)
    assert norm.lower <= norm.value <= norm.upper
    assert (norm.lower == norm.upper == 1.0) == (p % 2 == 0)
    assert norm.upper - norm.lower <= 4 * 2.0**-52
    if p <= 6:
        A = r * sylvester_hadamard(p)
        assert np.max(np.abs(np.linalg.eigvalsh(A))) == pytest.approx(norm.value, rel=1e-13)
        assert np.max(np.linalg.eigvalsh(np.abs(A))) == pytest.approx(modulus.value, rel=1e-13)


# float.hex of (norm, modulus_norm, expected_modulus_norm) in each row of
# hadamard --p-max 12, as printed when the norms were still read off the
# formed 2^p x 2^p matrix
_HADAMARD_HEX = {
    1: ("0x1.0000000000000p+0", "0x1.6a09e667f3bccp+0", "0x1.6a09e667f3bcdp+0"),
    2: ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+1"),
    3: ("0x1.0000000000000p+0", "0x1.6a09e667f3bccp+1", "0x1.6a09e667f3bcdp+1"),
    4: ("0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+2"),
    5: ("0x1.0000000000000p+0", "0x1.6a09e667f3bccp+2", "0x1.6a09e667f3bcdp+2"),
    6: ("0x1.0000000000000p+0", "0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    7: ("0x1.0000000000000p+0", "0x1.6a09e667f3bccp+3", "0x1.6a09e667f3bcdp+3"),
    8: ("0x1.0000000000000p+0", "0x1.0000000000000p+4", "0x1.0000000000000p+4"),
    9: ("0x1.0000000000000p+0", "0x1.6a09e667f3bccp+4", "0x1.6a09e667f3bcdp+4"),
    10: ("0x1.0000000000000p+0", "0x1.0000000000000p+5", "0x1.0000000000000p+5"),
    11: ("0x1.0000000000000p+0", "0x1.6a09e667f3bccp+5", "0x1.6a09e667f3bcdp+5"),
    12: ("0x1.0000000000000p+0", "0x1.0000000000000p+6", "0x1.0000000000000p+6"),
}


def test_hadamard_report_keeps_its_bits(capsys):
    """hadamard --p-max 12 prints the same floats in CSV and JSON, and the
    block-diagonal report of order 10 keeps its fields, bit for bit."""
    from covnoise.cli import main

    keys = ("norm", "modulus_norm", "expected_modulus_norm")
    assert main(["hadamard", "--p-max", "12"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert main(["hadamard", "--p-max", "12", "--format", "json"]) == 0
    for parsed in (rows, json.loads(capsys.readouterr().out)):
        assert {int(row["p"]): tuple(float(row[k]).hex() for k in keys)
                for row in parsed} == _HADAMARD_HEX
        assert all(row["pass"] in (True, "true") for row in parsed)
    report = cn.block_diagonal_norm_divergence(10)
    assert (report.p_max, report.dimension) == (10, 2046)
    assert report.overall_norm == cn.NormEstimate(1.0, cn.NormMethod.STRUCTURE, 0,
                                                  float.fromhex("0x1.ffffffffffffep-1"),
                                                  float.fromhex("0x1.0000000000002p+0"))
    assert [v.hex() for v in report.block_modulus_norms] == [
        _HADAMARD_HEX[p][1] for p in range(1, 11)]


@pytest.mark.parametrize("p_max", range(1, 12))
def test_hadamard_p_max_prints_the_leading_rows_of_p_max_12(capsys, p_max):
    """A row depends on its p alone: hadamard --p-max N prints the first N
    rows of --p-max 12, byte for byte in CSV and row for row in JSON."""
    from covnoise.cli import main

    outputs = {}
    for top in (p_max, 12):
        for fmt in ("csv", "json"):
            assert main(["hadamard", "--p-max", str(top), "--format", fmt]) == 0
            outputs[top, fmt] = capsys.readouterr().out
    lines = outputs[12, "csv"].splitlines(keepends=True)
    assert outputs[p_max, "csv"] == "".join(lines[:p_max + 1])
    assert json.loads(outputs[p_max, "json"]) == json.loads(outputs[12, "json"])[:p_max]


def test_sylvester_norms_take_no_eigensolve(monkeypatch, tmp_path):
    """hadamard and the block-diagonal report read every norm off the
    structure; verify's schur suite solves only its observable."""
    from covnoise import verify
    from covnoise.cli import main

    seen = _spy_eigvalsh(monkeypatch)
    assert main(["hadamard", "--p-max", "10", "--out", str(tmp_path / "h.csv")]) == 0
    cn.block_diagonal_norm_divergence(10)
    assert seen == []
    assert verify.run("schur", 0).ok
    assert seen == [(np.dtype(np.float64), (64, 64))]


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_sylvester_norm_separation(p):
    norm, modulus_norm = cn.sylvester_hadamard_example(p)
    assert abs(norm.value - 1.0) <= 1e-9
    assert abs(modulus_norm.value - 2.0 ** (p / 2.0)) <= 1e-9


def test_block_diagonal_divergence():
    report = cn.block_diagonal_norm_divergence(6)
    assert report.p_max == 6
    assert report.dimension == sum(2**p for p in range(1, 7))
    assert abs(report.overall_norm.value - 1.0) <= 1e-9
    assert report.block_modulus_norms == pytest.approx(
        tuple(2.0 ** (p / 2.0) for p in range(1, 7)), abs=1e-9)
    with pytest.raises(UsageError):
        cn.block_diagonal_norm_divergence(11)


def test_block_diagonal_norm_is_the_largest_block_norm():
    """The direct sum is never formed: the overall estimate is the largest
    of the block estimates, and the dimension is the sum of the block
    sides."""
    blocks = [cn.sylvester_hadamard_example(p)[0] for p in range(1, 11)]
    report = cn.block_diagonal_norm_divergence(10)
    assert report.overall_norm == max(blocks, key=lambda e: e.value)
    assert report.overall_norm.method is cn.NormMethod.STRUCTURE
    assert report.dimension == 2046
    for p_max in range(1, 11):
        report = cn.block_diagonal_norm_divergence(p_max)
        assert abs(report.overall_norm.value - 1.0) <= 1e-9
        assert report.block_modulus_norms == tuple(
            cn.sylvester_hadamard_example(p)[1].value for p in range(1, p_max + 1))
