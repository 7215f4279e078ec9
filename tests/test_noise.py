import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covnoise as cn
from covnoise.errors import ResourceLimitError, UsageError
from covnoise.noise import (_class_tail, _gamma, _zeta2_enclosure, even_inverse_squares,
                            odd_inverse_squares)

N = cn.IndexDomain.NATURALS
Z = cn.IndexDomain.INTEGERS

# independent partial sums, frozen from math.fsum over explicit ranges
H2_10 = 1.5497677311665408
H2_100 = 1.6349839001848923


def h2(n):
    return math.fsum(1.0 / k**2 for k in range(1, n + 1))


def test_frozen_partial_sums_match_direct():
    assert h2(10) == pytest.approx(H2_10, abs=1e-15)
    assert h2(100) == pytest.approx(H2_100, abs=1e-15)


def test_reference_moment():
    base = math.pi / math.sqrt(3.0)
    for l in (1, 2, 3, 4, 7):
        assert cn.reference_moment(l) == pytest.approx(base**l, rel=1e-15)
    assert cn.reference_moment(2) == pytest.approx(math.pi**2 / 3.0, rel=1e-15)


@pytest.mark.parametrize("n", [0, 1, 5, 37])
def test_lattice_sum_naturals(n):
    direct = math.fsum(1.0 / (k - n) ** 2 for k in range(0, 200001) if k != n)
    exact = cn.lattice_sum_exact(N, n)
    assert exact == pytest.approx(math.pi**2 / 6.0 + h2(n), rel=1e-14)
    assert abs(exact - direct) <= 1e-5  # truncation of the direct sum


def test_lattice_sum_integers_is_n_free():
    values = {cn.lattice_sum_exact(Z, n) for n in (-9, 0, 4)}
    assert values == {math.pi**2 / 3.0}


def test_parity_partial_sums():
    assert odd_inverse_squares(-1) == 0.0
    assert odd_inverse_squares(0) == 1.0
    assert odd_inverse_squares(1) == pytest.approx(1.0 + 1.0 / 9.0, rel=1e-15)
    assert even_inverse_squares(0) == 0.0
    assert even_inverse_squares(2) == pytest.approx(0.25 + 1.0 / 16.0, rel=1e-15)
    assert odd_inverse_squares(200000) == pytest.approx(math.pi**2 / 8.0, abs=1e-5)
    assert even_inverse_squares(200000) == pytest.approx(math.pi**2 / 24.0, abs=2e-6)
    with pytest.raises(UsageError):
        odd_inverse_squares(-2)
    with pytest.raises(UsageError):
        even_inverse_squares(-1)


def test_probability_weights_sum_to_one():
    """The row weights 3/(pi^2 (k-n)^2), k != n, sum to 1 on Z; on N the
    center carries the deficit 1 - (3/pi^2) lattice_sum_exact, which is >= 0."""
    for domain, n in ((N, 0), (N, 7), (Z, -3)):
        center = 1.0 - (3.0 / math.pi**2) * cn.lattice_sum_exact(domain, n)
        lo = 0 if domain is N else n - 200000
        d = np.arange(lo, n + 200001) - n
        off = 3.0 / (math.pi**2 * d[d != 0].astype(float) ** 2)
        assert abs(center + math.fsum(off.tolist()) - 1.0) <= 2e-5
        assert center >= 0.0
    assert 1.0 - (3.0 / math.pi**2) * cn.lattice_sum_exact(Z, 5) == 0.0
    assert 1.0 - (3.0 / math.pi**2) * cn.lattice_sum_exact(N, 0) == \
        pytest.approx(0.5, rel=1e-14)


def test_query_validation():
    with pytest.raises(UsageError):
        cn.NoiseQuery(0, 0)
    with pytest.raises(UsageError):
        cn.NoiseQuery(0, -1)
    with pytest.raises(UsageError):
        cn.NoiseQuery(0, True)
    with pytest.raises(UsageError):
        cn.NoiseQuery(0, 2, tol=0.0)
    with pytest.raises(UsageError):
        cn.noise_value(cn.constant_one(N), cn.NoiseQuery(-1, 2))


def test_moment_matches_noise_value():
    A = cn.chessboard(Z, cn.ChessboardParams(0.5))
    q = cn.NoiseQuery(0, 2, 1e-6)
    m = cn.moment(A, q)
    s = cn.noise_value(A, q)
    ref = cn.reference_moment(2)
    assert s.value == pytest.approx(ref - m.value, abs=1e-15)
    assert s.lower == pytest.approx(ref - m.upper, abs=1e-15)
    assert s.upper == pytest.approx(ref - m.lower, abs=1e-15)


def test_canonical_naturals_bracket():
    A = cn.constant_one(N)
    for n, known in ((0, math.pi**2 / 6.0), (10, math.pi**2 / 6.0 - H2_10)):
        v = cn.noise_value(A, cn.NoiseQuery(n, 2, 1e-8))
        assert v.lower <= known <= v.upper
        assert v.width <= 1e-8


def test_canonical_integers_noiseless_tight():
    A = cn.constant_one(Z)
    v = cn.noise_value(A, cn.NoiseQuery(-3, 4, 1e-8))
    assert v.lower <= 0.0 <= v.upper
    assert v.width <= 1e-8


matrix_pool = [
    lambda: cn.constant_one(N),
    lambda: cn.constant_one(Z),
    lambda: cn.chessboard(N, cn.ChessboardParams(0.3)),
    lambda: cn.chessboard(Z, cn.ChessboardParams(0.8)),
    lambda: cn.seeded_torus(Z, seed=2),
    lambda: cn.seeded_gram(N, 8, seed=2),
]


@given(pick=st.integers(0, len(matrix_pool) - 1), n=st.integers(-25, 25),
       l=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_bracket_refinement_and_nonnegativity(pick, n, l):
    """Brackets contain their refinement at tol/10 and never certify a
    negative noise number."""
    A = matrix_pool[pick]()
    if A.domain is N:
        n = abs(n)
    coarse = cn.noise_value(A, cn.NoiseQuery(n, l, 1e-4))
    fine = cn.noise_value(A, cn.NoiseQuery(n, l, 1e-5))
    assert coarse.lower <= coarse.value <= coarse.upper
    assert coarse.lower <= fine.lower and fine.upper <= coarse.upper
    assert coarse.upper >= -1e-15
    assert fine.width <= coarse.width


@given(xi_lo=st.floats(0.0, 1.0), xi_hi=st.floats(0.0, 1.0),
       n=st.integers(-12, 12), l=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_modulus_monotonicity(xi_lo, xi_hi, n, l):
    """Entrywise larger modulus can only lower the noise numbers."""
    lo, hi = sorted((xi_lo, xi_hi))
    a = cn.chessboard(Z, cn.ChessboardParams(lo))
    b = cn.chessboard(Z, cn.ChessboardParams(hi))
    va = cn.noise_value(a, cn.NoiseQuery(n, l, 1e-5))
    vb = cn.noise_value(b, cn.NoiseQuery(n, l, 1e-5))
    assert va.upper >= vb.lower - 1e-15


@given(seed=st.integers(0, 20), n=st.integers(-15, 15), l=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_torus_noise_equals_constant(seed, n, l):
    A = cn.seeded_torus(Z, seed=seed)
    ref = cn.constant_one(Z)
    va = cn.noise_value(A, cn.NoiseQuery(n, l, 1e-8))
    vb = cn.noise_value(ref, cn.NoiseQuery(n, l, 1e-8))
    assert abs(va.value - vb.value) <= va.width + vb.width


def test_phase_invariance_is_bitwise():
    A = cn.seeded_torus(Z, seed=6)

    def modulus(n, m):
        return np.abs(np.asarray(A.entry(n, m))).astype(np.complex128)[()]

    B = cn.StructureMatrix(Z, modulus, "|seeded_torus|", profile=A.profile)
    for n, l in ((0, 2), (-4, 1), (7, 3)):
        va = cn.noise_value(A, cn.NoiseQuery(n, l, 1e-7))
        vb = cn.noise_value(B, cn.NoiseQuery(n, l, 1e-7))
        assert (va.value, va.lower, va.upper, va.cutoff) == \
               (vb.value, vb.lower, vb.upper, vb.cutoff)


def test_term_cap_reports_achievable_tolerance():
    """A row without a row-modulus profile still meets the term cap, and the
    refusal names a tolerance the cap can reach; the chessboard query that
    used to meet it is now a short certified sum."""
    A = cn.seeded_gram(N, 8, seed=2)
    with pytest.raises(ResourceLimitError, match="achievable") as info:
        cn.noise_value(A, cn.NoiseQuery(0, 2, 1e-10))
    achievable = float(re.search(r"term cap is (\S+)", str(info.value)).group(1))
    assert 1e-8 <= achievable <= 2e-8  # c(2) / (cap - 1) plus the rounding allowance
    assert cn.noise_value(A, cn.NoiseQuery(0, 2, 1e-4)).width <= 1e-4
    params = cn.ChessboardParams(0.3)
    v = cn.noise_value(cn.chessboard(N, params), cn.NoiseQuery(0, 2, 1e-10))
    closed = cn.chessboard_noise_closed_form(params, N, 0, 2).value
    assert v.cutoff <= 100 and v.width <= 1e-10
    assert v.lower <= closed <= v.upper


def test_rows_without_a_profile_on_the_naturals_cost_o_k_terms():
    """A row without a profile encloses its segment below n past the cutoff,
    like a profiled one, so its terms do not grow with n and only the
    tolerance can meet the term cap."""
    A = cn.seeded_gram(N, 8, seed=2)
    for n, tol in ((10**8 + 5, 1e-2), (99_999_990, 1e-6)):
        v = cn.noise_value(A, cn.NoiseQuery(n, 2, tol))
        assert v.width <= tol and v.lower <= v.value <= v.upper
        assert v.cutoff <= 4.0 / tol


def _unprofiled_constant_one(domain):
    """constant_one's entries with no declared profile: only |A| <= 1 is known."""
    one = cn.constant_one(domain)
    return cn.StructureMatrix(domain, one.entry, f"unprofiled {one.label}")


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_rows_without_a_profile_bracket_the_exact_noise(l):
    """For all-ones entries, s_n(l) = 0 on Z and c(l) * zeta(2, n + 1) on N,
    the part of the lattice sum below index 0.  Without a profile the tail
    is a class of weight in [0, 1], and its brackets hold these values."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    coeff = (mp.pi / mp.sqrt(3)) ** l * 3 / mp.pi**2
    cases = [(Z, n) for n in (0, -7, 10**8 + 5)] + \
        [(N, n) for n in (0, 1, 5, 1000, 10**6, 10**8 + 5)]
    for domain, n in cases:
        v = cn.noise_value(_unprofiled_constant_one(domain), cn.NoiseQuery(n, l, 1e-6))
        exact = 0 if domain is Z else coeff * mp.zeta(2, n + 1)
        assert v.width <= 1e-6
        assert mp.mpf(v.lower) <= exact <= mp.mpf(v.upper), (domain, n)


def test_class_tail_encloses_hurwitz_zeta():
    """Each residue-class tail sum_{j > K, j = s mod p} 1/j^2 = zeta(2, j0/p)/p^2
    lies in the Euler-Maclaurin enclosure: exactly (at 40 digits, 60 where
    40 cannot resolve the enclosure's width), and as the floats _class_tail
    returns within the gamma_16 rounding allowance."""
    mp = pytest.importorskip("mpmath")
    allowance = _gamma(16)
    for p in (1, 2, 3):
        for K in [*range(0, 60), 99, 100, 1000, 12345, 10**6, 10**8]:
            for s in range(p):
                j0 = next(j for j in range(K + 1, K + p + 1) if j % p == s)
                mp.mp.dps = 40 if K <= 1000 else 60
                exact = mp.zeta(2, mp.mpf(j0) / p) / p**2
                lo, hi = _zeta2_enclosure(mp.mpf(j0) / p)
                assert lo / p**2 <= exact <= hi / p**2
                flo, fhi = _class_tail(K, s, p)
                assert flo * (1 - allowance) <= exact <= fhi * (1 + allowance)
    mp.mp.dps = 40


def _reference_noise(mp, xi, domain, n, l):
    """s_n(l) at 40 digits for the constant matrix (xi None) or the
    chessboard with ones on even index sums, by direct class sums."""
    ref = (mp.pi / mp.sqrt(3)) ** l
    w_even, w_odd = mp.mpf(1), (mp.mpf(1) if xi is None else mp.mpf(xi) ** l)
    up = w_even * mp.pi**2 / 24 + w_odd * mp.pi**2 / 8
    if domain is Z:
        lattice = 2 * up
    else:  # sum_{j <= n} over even and odd j, as differences of Hurwitz zetas
        even = (mp.zeta(2) - mp.zeta(2, n // 2 + 1)) / 4
        odd = (mp.zeta(2, mp.mpf(1) / 2) - mp.zeta(2, (n + 1) // 2 + mp.mpf(1) / 2)) / 4
        lattice = up + w_even * even + w_odd * odd
    return ref - ref * 3 / mp.pi**2 * lattice


@pytest.mark.parametrize("xi", [None, 0.3, 0.7])
@pytest.mark.parametrize("domain", [N, Z])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_brackets_certified_down_to_the_rounding_floor(xi, domain, l):
    """Below the rounding floor a query is refused with the smallest
    achievable tolerance; at that tolerance and above, the bracket holds the
    40-digit value and is no wider than asked."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    A = cn.constant_one(domain) if xi is None else cn.chessboard(domain, cn.ChessboardParams(xi))
    for n in ((0, 7, 1000) if domain is N else (0, -3)):
        with pytest.raises(ResourceLimitError, match="rounding floor") as info:
            cn.noise_value(A, cn.NoiseQuery(n, l, 1e-18))
        floor = float(re.search(r"smallest achievable tolerance is (\S+)",
                                str(info.value)).group(1))
        assert floor < 1e-11
        exact = _reference_noise(mp, xi, domain, n, l)
        for tol in (1e-6, 1e-10, 10.0 * floor, floor):
            v = cn.noise_value(A, cn.NoiseQuery(n, l, tol))
            assert v.width <= tol
            assert mp.mpf(v.lower) <= exact <= mp.mpf(v.upper)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_profiled_rows_need_few_terms(l):
    """Term-count guard: rows with a declared profile meet tol 1e-10 within
    a cutoff of 100, wherever the row sits."""
    matrices = [cn.constant_one(N), cn.constant_one(Z), cn.seeded_torus(N, seed=3),
                cn.seeded_torus(Z, seed=3)]
    for xi in (0.0, 0.3, 0.95):
        matrices += [cn.chessboard(N, cn.ChessboardParams(xi)),
                     cn.chessboard(Z, cn.ChessboardParams(xi)),
                     cn.chessboard(Z, cn.ChessboardParams(xi, cn.Orientation.ONE_ON_ODD_SUM))]
    for A in matrices:
        for n in ((0, 1, 57, 10**6) if A.domain is N else (-40, 0, 3)):
            v = cn.noise_value(A, cn.NoiseQuery(n, l, 1e-10))
            assert v.cutoff <= 100, (A.label, n)
            assert v.width <= 1e-10


def test_asymptotic_reaches_a_large_horizon_on_profiled_rows():
    """The segment below n is enclosed per class, so horizon 10^8 costs no
    more than a small one."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    flat = cn.asymptotic_noise_estimate(cn.constant_one(N), 2, horizon=10**8)
    assert flat.classification is cn.NoiseClassification.ASYMPTOTICALLY_NOISELESS
    board = cn.asymptotic_noise_estimate(cn.chessboard(N, cn.ChessboardParams(0.5)), 2,
                                         horizon=10**8)
    assert board.classification is cn.NoiseClassification.POSITIVE_LIMIT
    assert board.sample_points == (25_000_000, 50_000_000, 100_000_000)
    for n, v in zip(board.sample_points, board.samples):
        assert mp.mpf(v.lower) <= _reference_noise(mp, 0.5, N, n, 2) <= mp.mpf(v.upper)
        assert v.cutoff <= 100


def test_noise_sequence_matches_pointwise():
    A = cn.constant_one(Z)
    seq = cn.noise_sequence(A, 2, cn.IndexWindow(-2, 2), tol=1e-6)
    assert len(seq) == 5
    single = cn.noise_value(A, cn.NoiseQuery(0, 2, 1e-6))
    assert seq[2].value == single.value


# chessboard closed forms: the naturals formula is checked against brackets,
# the integers constants against both orientations.

@pytest.mark.parametrize("xi", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_chessboard_closed_form_inside_bracket(xi, l):
    A = cn.chessboard(N, cn.ChessboardParams(xi))
    tol = 1e-8 if xi == 1.0 else 1e-5
    for n in (0, 1, 2, 7, 40, 99, 100):
        cf = cn.chessboard_noise_closed_form(cn.ChessboardParams(xi), N, n, l)
        v = cn.noise_value(A, cn.NoiseQuery(n, l, tol))
        assert v.lower <= cf.value <= v.upper


def test_chessboard_closed_form_tight_spot_checks():
    # higher precision at a few points: bracket width 1e-7
    for xi, n, l in ((0.3, 5, 2), (0.7, 12, 1)):
        cf = cn.chessboard_noise_closed_form(cn.ChessboardParams(xi), N, n, l)
        v = cn.noise_value(cn.chessboard(N, cn.ChessboardParams(xi)),
                           cn.NoiseQuery(n, l, 1e-7))
        assert v.lower <= cf.value <= v.upper


def test_chessboard_closed_form_special_values():
    one = cn.chessboard_noise_closed_form(cn.ChessboardParams(1.0), N, 0, 2)
    assert one.value == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    zero = cn.chessboard_noise_closed_form(cn.ChessboardParams(0.0), N, 0, 2)
    assert zero.value == pytest.approx(7.0 * math.pi**2 / 24.0, rel=1e-14)
    flat = cn.chessboard_noise_closed_form(cn.ChessboardParams(1.0), Z, 5, 3)
    assert flat.value == 0.0


def test_chessboard_closed_form_integers_constants():
    for xi in (0.0, 0.5, 1.0):
        even = cn.chessboard_noise_closed_form(
            cn.ChessboardParams(xi), Z, 0, 2)
        assert even.value == pytest.approx((1 - xi**2) * math.pi**2 / 4.0, abs=1e-14)
        odd = cn.chessboard_noise_closed_form(
            cn.ChessboardParams(xi, cn.Orientation.ONE_ON_ODD_SUM), Z, 0, 2)
        assert odd.value == pytest.approx((1 - xi**2) * math.pi**2 / 12.0, abs=1e-14)
        assert "even" in even.convention and "odd" in odd.convention
    # n-independence of the closed form
    vals = {cn.chessboard_noise_closed_form(cn.ChessboardParams(0.5), Z, n, 2).value
            for n in range(-6, 7)}
    assert len(vals) == 1


def test_chessboard_closed_form_rejects_odd_orientation_on_naturals():
    with pytest.raises(UsageError):
        cn.chessboard_noise_closed_form(
            cn.ChessboardParams(0.5, cn.Orientation.ONE_ON_ODD_SUM), N, 0, 2)


@pytest.mark.parametrize("xi", [0.0, 0.3, 0.7, 1.0])
def test_difference_identities_and_monotone_chain(xi):
    """Consecutive closed-form noise numbers telescope: the even-to-odd step
    drops xi^2/(2k+1)^2 and the odd-to-even step drops 1/(2k+2)^2."""
    params = cn.ChessboardParams(xi)
    for k in range(0, 40):
        s0 = cn.chessboard_noise_closed_form(params, N, 2 * k, 2).value
        s1 = cn.chessboard_noise_closed_form(params, N, 2 * k + 1, 2).value
        s2 = cn.chessboard_noise_closed_form(params, N, 2 * k + 2, 2).value
        assert abs((s0 - s1) - xi**2 / (2 * k + 1) ** 2) <= 1e-12
        assert abs((s1 - s2) - 1.0 / (2 * k + 2) ** 2) <= 1e-12
        assert s0 >= s1 > s2


def test_is_noiseless_z():
    assert cn.is_noiseless_z(cn.seeded_torus(Z, seed=1), 2, cn.IndexWindow(-4, 4))
    assert not cn.is_noiseless_z(cn.chessboard(Z, cn.ChessboardParams(0.5)), 2,
                                 cn.IndexWindow(-4, 4))
    with pytest.raises(UsageError):
        cn.is_noiseless_z(cn.constant_one(N), 2, cn.IndexWindow(0, 4))


def test_asymptotic_classifications():
    noiseless = cn.asymptotic_noise_estimate(cn.seeded_torus(N, seed=2), 2)
    assert noiseless.classification is cn.NoiseClassification.ASYMPTOTICALLY_NOISELESS
    positive = cn.asymptotic_noise_estimate(
        cn.chessboard(N, cn.ChessboardParams(0.5)), 2)
    assert positive.classification is cn.NoiseClassification.POSITIVE_LIMIT
    assert positive.estimate == pytest.approx(0.75 * math.pi**2 / 4.0, abs=2e-3)
    # a short horizon leaves the constant-one decay unresolved
    murky = cn.asymptotic_noise_estimate(cn.constant_one(N), 2, horizon=16)
    assert murky.classification is cn.NoiseClassification.UNDETERMINED
    with pytest.raises(UsageError):
        cn.asymptotic_noise_estimate(cn.constant_one(N), 2, horizon=8)


def test_asymptotic_estimate_reports_samples():
    est = cn.asymptotic_noise_estimate(cn.constant_one(N), 2, horizon=4096)
    assert est.sample_points == (1024, 2048, 4096)
    assert len(est.samples) == 3
    assert est.estimate == est.samples[-1].value
