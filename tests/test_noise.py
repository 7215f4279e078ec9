import collections
import dataclasses
import gc
import itertools
import math
import re
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covnoise as cn
from covnoise import matrices, noise, observables
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
    # a limit between tol and 2 tol is neither under tol nor clearly above it
    xi = math.sqrt(1.0 - 6e-3 / math.pi**2)  # s_n(2) = (1 - xi^2) pi^2/4 = 1.5e-3 on Z
    murky = cn.asymptotic_noise_estimate(cn.chessboard(Z, cn.ChessboardParams(xi)), 2)
    assert murky.classification is cn.NoiseClassification.UNDETERMINED
    assert all(1e-3 < s.lower <= s.upper < 2e-3 for s in murky.samples)
    for horizon in (8, 2**61):
        with pytest.raises(UsageError, match=r"horizon must be in \[16, 2\^61\)"):
            cn.asymptotic_noise_estimate(cn.constant_one(N), 2, horizon=horizon)


_LINEAR_TORUS = {"kind": "torus", "domain": "N", "phases": {"formula": "linear", "slope": 0.4}}


@pytest.mark.parametrize("l", [1, 2, 3, 4, 6, 8])
def test_asymptotic_labels_at_every_order(l):
    """With default settings, constant one and a linear torus on N, whose
    s_n(l) = c(l) zeta(2, n + 1) lies just under c(l)/n, are asymptotically
    noiseless; the chessboard with xi = 0.5 on N and on Z has a positive
    limit."""
    for A in (cn.constant_one(N), cn.matrix_from_spec(_LINEAR_TORUS)):
        est = cn.asymptotic_noise_estimate(A, l)
        assert est.classification is cn.NoiseClassification.ASYMPTOTICALLY_NOISELESS, A.label
    for domain in (N, Z):
        est = cn.asymptotic_noise_estimate(cn.chessboard(domain, cn.ChessboardParams(0.5)), l)
        assert est.classification is cn.NoiseClassification.POSITIVE_LIMIT, domain


def test_asymptotic_refuses_a_tolerance_its_samples_cannot_reach_before_summing(monkeypatch):
    """Samples are bracketed at tol/10, so a tolerance below ten times a
    sample's rounding floor is refused with that bound, rounded up, before
    any sample is summed; the bound it names is reached."""
    summed = []
    real = noise._head_sum
    monkeypatch.setattr(noise, "_head_sum", lambda *args: summed.append(args) or real(*args))
    with pytest.raises(ResourceLimitError, match="tolerance 1e-14 .* tol/10") as info:
        cn.asymptotic_noise_estimate(cn.constant_one(N), 2, tol=1e-14)
    assert summed == []
    reachable = float(re.search(r"smallest achievable tolerance is (\S+)$",
                                str(info.value)).group(1))
    assert reachable == pytest.approx(info.value.achievable, rel=1e-2)
    est = cn.asymptotic_noise_estimate(cn.constant_one(N), 2, tol=reachable)
    assert all(s.width <= reachable / 10.0 for s in est.samples)


def test_asymptotic_estimate_reports_samples():
    est = cn.asymptotic_noise_estimate(cn.constant_one(N), 2, horizon=4096)
    assert est.sample_points == (1024, 2048, 4096)
    assert len(est.samples) == 3
    assert est.estimate == est.samples[-1].value


# In the test names below, a tile is one block of noise._CHUNK offsets a side.


def _one_call_per_chunk_head_sum(A, n, l, up, down):
    """The row head summed outward, near block first, with one oracle call
    per block of _CHUNK offsets a side and each side of a block summed by
    np.sum: the bits the far-first row sum must reproduce."""
    pieces = []
    reach = max(up, down)
    for start in range(1, reach + 1, noise._CHUNK):
        js = np.arange(start, min(start + noise._CHUNK, reach + 1))
        inv = 1.0 / (js.astype(float) ** 2)
        u, d = js[:max(up - start + 1, 0)], js[:max(down - start + 1, 0)]
        got = np.abs(np.asarray(A.entry(n, n + np.concatenate([u, -d]))))
        for mags in (got[:u.size], got[u.size:]):
            if mags.size:
                pieces.append(float(np.sum(mags**l * inv[:mags.size])))
    return math.fsum(pieces)


def _unit_vectors(idx):
    t = np.asarray(idx, dtype=float)
    v = np.stack([np.cos(0.37 * t) + 0j, np.sin(0.37 * t) * np.exp(1j * t), 0.5 + 0j * t], -1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


_BUILDERS = {
    "constant_one": cn.constant_one,
    "chessboard": lambda d: cn.chessboard(d, cn.ChessboardParams(0.3)),
    "linear_torus": lambda d: cn.matrix_from_spec(
        {"kind": "torus", "domain": d.value, "phases": {"formula": "linear", "slope": 0.7}}),
    "seeded_torus": lambda d: cn.seeded_torus(d, seed=5),
    "seeded_gram": lambda d: cn.seeded_gram(d, 8, seed=5),
    "vectors_gram": lambda d: cn.gram_from_vectors(d, _unit_vectors),
}


# The cutoff search starts from the last cutoff found for the matrix, order
# and tolerance; these tests hold it to the cutoff of a search from scratch.


def _search_matrices(rng):
    """Every kind of row the search meets, on N and on Z: profiles of period
    1 and 2 (the chessboard in both orientations, xi 0, 1 and random), a
    seeded torus and gram, and a hand-built matrix with no profile."""
    xis = (0.0, 1.0, float(rng.uniform(0.05, 0.95)))
    out = []
    for d in (N, Z):
        out += [cn.constant_one(d), cn.seeded_torus(d, seed=3), cn.seeded_gram(d, 8, seed=3),
                _unprofiled_constant_one(d)]
        out += [cn.chessboard(d, cn.ChessboardParams(xi, o)) for xi in xis
                for o in cn.Orientation]
    return out


def _search(A, q, guess):
    """_select_plan with guess as the last cutoff found for (q.l, q.tol), or
    with none: its plan, or its refusal's message and achievable tolerance."""
    noise._LAST_CUTOFF.pop(A, None)
    if guess is not None:
        noise._LAST_CUTOFF[A] = {(q.l, q.tol): guess}
    try:
        return noise._select_plan(A, q)
    except ResourceLimitError as exc:
        return str(exc), exc.achievable


def test_a_guessed_search_returns_the_plan_of_a_search_from_scratch():
    """Whatever cutoff the search starts from (1, one off the answer, the
    answer, far above it, random, or past the term cap, where a refused
    query's cutoff would fit), it returns the plan of a search with nothing
    to start from, or the same refusal: tolerances below the rounding floor
    and past the term cap included."""
    rng = np.random.default_rng(25)
    for A in _search_matrices(rng):
        ns = (0, 1, 57, int(rng.integers(2, 10**6))) if A.domain is N else \
            (0, -3, int(rng.integers(-10**6, 10**6)))
        for l, n, tol in itertools.product((1, 2, 4), ns, (1e-2, 1e-6, 1e-10, 3e-13, 1e-18)):
            q = cn.NoiseQuery(n, l, tol)
            cold = _search(A, q, None)
            if isinstance(cold, noise._Plan):
                k = cold.up
                assert noise._LAST_CUTOFF[A] == {(l, tol): k}
            elif "term cap" in cold[0]:  # the smallest cutoff that fits once the cap is set aside
                row = noise._row(A, n, l)
                k = noise._first(0, 2**62, lambda j: noise._row_plan(
                    row, j, j if A.domain is Z else min(j, n)).width <= tol)
            else:
                k = int(rng.integers(2, 100))
            for guess in {1, max(k - 1, 1), k, k + 1, 2 * k + 3, int(rng.integers(1, 10**4)),
                          10**9}:
                assert _search(A, q, guess) == cold, (A.label, q, guess)


@pytest.mark.parametrize("name", sorted(_BUILDERS))
@pytest.mark.parametrize("domain", [N, Z])
def test_noise_sequence_rows_are_cold_noise_values(name, domain):
    """Each row of noise_sequence, planned from the cutoff of the row
    before, has the bits of noise_value on a fresh matrix, planned from
    scratch; and the cutoffs kept for the matrix do not keep it alive."""
    build = _BUILDERS[name]
    A = build(domain)
    tol = 1e-10 if A.profile is not None else 1e-3
    w = cn.IndexWindow(0, 8) if domain is N else cn.IndexWindow(-3, 3)
    for l in (1, 3):
        seq = cn.noise_sequence(A, l, w, tol)
        cold = [cn.noise_value(build(domain), cn.NoiseQuery(n, l, tol))
                for n in range(w.lo, w.hi + 1)]
        assert [(v.value.hex(), v.lower.hex(), v.upper.hex(), v.cutoff) for v in seq] == \
            [(v.value.hex(), v.lower.hex(), v.upper.hex(), v.cutoff) for v in cold]
    assert set(noise._LAST_CUTOFF[A]) == {(1, tol), (3, tol)}
    gone = weakref.ref(A)
    del A
    gc.collect()
    assert gone() is None


def test_a_run_of_rows_is_planned_from_the_last_cutoff(monkeypatch):
    """Count gate on the cutoff search: the first row doubles and bisects
    to cutoff 17 in 11 row plans; each next row with that cutoff costs two,
    17 and 16, where a search from scratch made 12 a row."""
    planned = []
    real = noise._row_plan
    monkeypatch.setattr(noise, "_row_plan", lambda *args: planned.append(args[0].n) or real(*args))
    seq = cn.noise_sequence(cn.constant_one(N), 2, cn.IndexWindow(79, 82), 1e-10)
    assert [v.cutoff for v in seq] == [17] * 4
    assert collections.Counter(planned) == {79: 11, 80: 2, 81: 2, 82: 2}


def _one_shot_row_plan(A, n, l, up, down):
    """The plan of row n made in one pass from A, n and l, every part
    recomputed: the bits noise._row and noise._row_plan must reproduce.
    (up, down, tail ends, slack, width), the floats as float.hex."""
    profile = A.profile
    p = 1 if profile is None else profile.period
    below_end = n if A.domain is N else None
    lo = hi = mag = 0.0
    for sign, reach, end in ((1, up, None), (-1, down, below_end)):
        if end is not None and end <= reach:
            continue
        for s in range(p):
            w_lo, w_hi = (0.0, 1.0) if profile is None else (profile.weight(n, sign * s) ** l,) * 2
            a_lo, a_hi = _class_tail(reach, s, p)
            b_lo, b_hi = (0.0, 0.0) if end is None else _class_tail(end, s, p)
            lo += w_lo * (a_lo - b_hi)
            hi += w_hi * (a_hi - b_lo)
            mag += w_hi * (a_hi + b_hi)
    ref = (math.pi / math.sqrt(3.0))**l
    coeff = ref * 3.0 / math.pi**2
    block = min(max(up, down), noise._CHUNK)
    slack = _gamma(block + 5 * l + 2 * p + 40) * (ref + coeff * (noise._LATTICE_BOUND + 2.0 * mag))
    spread = coeff * (hi - lo) + 2.0 * slack
    width = spread * (1.0 + 8.0 * noise._UNIT) + 8.0 * math.ulp(ref + spread)
    return up, down, lo.hex(), hi.hex(), slack.hex(), width.hex()


def _plan_bits(plan):
    return plan.up, plan.down, plan.tail[0].hex(), plan.tail[1].hex(), plan.slack.hex(), \
        plan.width.hex()


def test_row_plans_have_the_bits_of_the_one_shot_formula(monkeypatch):
    """Every plan made from a row's cutoff-free parts has the bits of the
    plan made in one pass: on every kind of row, at the plans the search
    makes (below the rounding floor and past the term cap included) and at
    cutoffs across the tail-dominated run, the rising floor side, the end
    of the row on N, the near block's edge and just past the term cap, with
    heads of equal sides and of sides three times longer above or below."""
    rng = np.random.default_rng(29)
    cap = noise.DEFAULT_TERM_CAP
    made = []
    real = noise._row_plan
    monkeypatch.setattr(noise, "_row_plan",
                        lambda row, up, down: made.append(real(row, up, down)) or made[-1])
    r = int(rng.integers(0, 10**3))
    for A in _search_matrices(rng):
        for n, l in itertools.product((0, 1, 57, 10**6 + r), (1, 2, 4, 622)):
            made.clear()
            for tol in (1e-2, 1e-10, 1e-18):
                _search(A, cn.NoiseQuery(n, l, tol), None)
            row = noise._row(A, n, l)
            assert row.n == n
            ks = set(range(1, 25)) | {2**i + d for i in range(5, 27) for d in (-1, 0, 1)}
            ks |= {noise._CHUNK + d for d in (-1, 0, 1)} | {max(n + d, 1) for d in (-1, 0, 1)}
            ks |= {cap // 2 + 1, cap - n + 1} if A.domain is N else {cap // 2, cap // 2 + 1}
            for k in sorted(ks):  # the search's heads, and the uneven ones of noise diagonals
                for up, down in ((k, k), (k, k // 3), (k // 3, k)):
                    noise._row_plan(row, up, down if A.domain is Z else min(down, n))
            assert len(made) > 3 * len(ks)
            for plan in made:
                assert _plan_bits(plan) == _one_shot_row_plan(A, n, l, plan.up, plan.down), \
                    (A.label, n, l, plan.up, plan.down)


def test_the_near_block_table_is_read_only():
    """Every row's near block reads the same offsets and 1/j^2, so no
    caller may write them."""
    for table in (noise._NEAR_OFFSETS, noise._NEAR_INVERSE_SQUARES):
        assert table.size == noise._CHUNK and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 2


@pytest.mark.parametrize("reach", [1, 2, noise._CHUNK - 1, noise._CHUNK, noise._CHUNK + 1])
@pytest.mark.parametrize("domain", [N, Z])
def test_head_sums_from_the_near_block_table_match_one_call_per_chunk(reach, domain):
    """Heads whose near block reads the shared table keep the bits of heads
    whose every block computes its own offsets: reaches at the edges of one
    block, the longer side above n or below it, on every builder."""
    n = reach + 3
    for name, build in _BUILDERS.items():
        A = build(domain)
        for (up, down), l in itertools.product(((reach, reach // 2), (reach // 3, reach)), (1, 4)):
            assert up != down
            assert noise._head_sum(A, n, l, up, down).hex() == \
                _one_call_per_chunk_head_sum(A, n, l, up, down).hex(), (name, up, down, l)


def _row_results(A, domain, reach, tol):
    """Head sums, moment and noise ends and windowed noise diagonals of A,
    as float.hex: at n = 0 and at n inside the first block, with up != down.
    The brackets use A without its profile, so their heads are long."""
    bare = dataclasses.replace(A, profile=None)
    inside = 1 + min(noise._CHUNK, reach) // 2
    rows = [(0, reach, 0 if domain is N else reach // 3 + 1), (inside, reach, inside)]
    if domain is Z:
        rows.append((-inside, reach // 2, reach))
    out = []
    for n, up, down in rows:
        out.append(noise._head_sum(A, n, 1, up, down).hex())
        q = cn.NoiseQuery(n, 2, tol)
        m, s = noise.moment(bare, q), noise.noise_value(bare, q)
        out += [m.lower.hex(), m.upper.hex(), s.lower.hex(), s.upper.hex(), m.cutoff]
        w = cn.IndexWindow(0, n + reach) if domain is N else cn.IndexWindow(n - reach // 2,
                                                                           n + reach)
        out.append(observables.noise_operator_diagonal(A, n, w)[0].hex())
    return out


@pytest.mark.parametrize("chunk, reach, tol, budget", [
    (1, 150, 2e-2, None),
    (3, 400, 1e-2, None),
    (1000, 7000, 1e-3, None),
    (None, 60000, 1e-4, None),
    (None, 60000, 1e-4, 1 << 17),
], ids=["tile1", "tile3", "tile1000", "default", "default-past-budget"])
@pytest.mark.parametrize("domain", [N, Z])
def test_tiled_rows_are_bit_identical_to_one_call_per_chunk(monkeypatch, chunk, reach, tol,
                                                            budget, domain):
    """Summing a row's blocks of 1, 3, 1000 or 2^13 offsets from the far
    end inward gives the bits of summing them outward: rows spanning
    several blocks, n = 0 and n inside the first block, up != down, on
    every builder, and past a cache budget of 128 KiB."""
    if chunk is not None:
        monkeypatch.setattr(noise, "_CHUNK", chunk)
    if budget is not None:
        monkeypatch.setattr(matrices, "_CACHE_BYTES", budget)
    for name, build in _BUILDERS.items():
        far_first = _row_results(build(domain), domain, reach, tol)
        with monkeypatch.context() as mp:
            mp.setattr(noise, "_head_sum", _one_call_per_chunk_head_sum)
            mp.setattr(observables, "_head_sum", _one_call_per_chunk_head_sum)
            outward = _row_results(build(domain), domain, reach, tol)
        assert far_first == outward, name


def _drawn_blocks(monkeypatch):
    """Record the blocks of every _BlockCache._draw call."""
    calls = []
    real = matrices._BlockCache._draw

    def spy(self, blocks, out):
        calls.append(np.array(blocks))
        real(self, blocks, out)

    monkeypatch.setattr(matrices._BlockCache, "_draw", spy)
    return calls


def test_rows_inside_the_budget_draw_each_block_once(monkeypatch):
    """A gram row on Z that spans several blocks of offsets inside the
    budget draws every Philox block below its top zigzag index exactly
    once: the block of the row's own vector when the oracle fetches it,
    and every other block in one call made by the far block of offsets,
    which goes first.  The row again draws nothing."""
    calls = _drawn_blocks(monkeypatch)
    A = cn.seeded_gram(Z, 8, seed=4)
    v = cn.noise_value(A, cn.NoiseQuery(0, 1, 1e-5))
    top = 2 * v.cutoff  # the zigzag index of n + cutoff at n = 0
    assert 4 * noise._CHUNK < v.cutoff and top < matrices._CACHE_BYTES // 128
    assert [c.tolist() for c in calls] == [[0], list(range(1, top // matrices._BLOCK + 1))]
    assert cn.noise_value(A, cn.NoiseQuery(0, 1, 1e-5)) == v
    assert len(calls) == 2


def _block_boundaries_past(reach, first):
    """Boundaries between blocks of offsets of a row on Z at n = 0 whose
    shared Philox block lies past zigzag index first."""
    return sum(1 for a in range(1 + noise._CHUNK, reach + 1, noise._CHUNK) if 2 * a - 2 >= first)


@pytest.mark.parametrize("budget, tol, pinned", [(None, 4e-6, 541), (1 << 20, 1e-4, None)])
def test_rows_past_the_budget_draw_one_extra_block_per_tile_boundary(monkeypatch, budget, tol,
                                                                     pinned):
    """Past the budget each block of offsets draws the Philox blocks it
    needs, so a Philox block that two blocks of offsets share is drawn by
    both: a row draws every Philox block up to its top zigzag index once,
    plus one per boundary past the budget.  The gate row (gram on Z, n = 0,
    l = 1, tol 4e-6) draws 541 blocks in 5 calls: its own vector's block,
    the two far blocks of offsets past the budget, then the first fetch
    that reaches into the budget draws the 511 cached blocks in one call
    and the one block it needs past it."""
    if budget is not None:
        monkeypatch.setattr(matrices, "_CACHE_BYTES", budget)
    calls = _drawn_blocks(monkeypatch)
    v = cn.noise_value(cn.seeded_gram(Z, 8, seed=1), cn.NoiseQuery(0, 1, tol))
    drawn = sum(map(len, calls))
    limit = matrices._CACHE_BYTES // (matrices._BLOCK * 128)
    extra = _block_boundaries_past(v.cutoff, limit * matrices._BLOCK)
    assert extra > 0 and drawn == 2 * v.cutoff // matrices._BLOCK + 1 + extra
    if pinned is not None:
        assert (drawn, [len(c) for c in calls]) == (pinned, [1, 11, 17, 511, 1])


class _CountedThread(threading.Thread):
    started = 0
    live = 0
    most = 0
    lock = threading.Lock()

    def run(self):
        cls = _CountedThread
        with cls.lock:
            cls.started += 1
            cls.live += 1
            cls.most = max(cls.most, cls.live)
        try:
            super().run()
        finally:
            with cls.lock:
                cls.live -= 1


@pytest.fixture
def counted_threads(monkeypatch):
    monkeypatch.setattr(_CountedThread, "started", 0)
    monkeypatch.setattr(_CountedThread, "most", 0)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    return _CountedThread


def test_one_tile_rows_start_no_thread(counted_threads):
    """Rows of one block of offsets make one oracle call and start no
    thread, on every builder, once the seeded values they need are
    drawn."""
    for domain in (N, Z):
        for name, build in _BUILDERS.items():
            A = build(domain)
            q = cn.NoiseQuery(3, 2, 1e-3 if name.endswith("gram") else 1e-10)
            cn.noise_value(A, q)
            before = threading.active_count()
            counted_threads.started = 0
            v = cn.noise_value(A, q)
            assert v.cutoff <= noise._CHUNK
            assert counted_threads.started == 0, name
            assert threading.active_count() == before


def test_multi_tile_rows_run_on_at_most_cpus_minus_one_more_threads(monkeypatch,
                                                                     counted_threads):
    """On a machine of 4 CPUs, a gram row of many blocks of offsets,
    reaching past the budget so its blocks draw Philox blocks too, sums
    them in the calling thread: only the batches of Philox draws run on
    threads, never more than 3 beside the caller, and none is left when it
    returns."""
    monkeypatch.setattr(matrices.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(matrices.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(matrices, "_CACHE_BYTES", 8 << 20)
    before = threading.active_count()
    v = cn.noise_value(cn.seeded_gram(N, 8, seed=6), cn.NoiseQuery(2, 1, 1e-5))
    assert v.cutoff > 4 * noise._CHUNK
    assert 0 < counted_threads.most <= 3
    assert threading.active_count() == before


def _vectors_bad_at(bad, callers=None):
    def vectors(idx):
        if callers is not None:
            callers.add(threading.get_ident())
        v = _unit_vectors(idx)
        v[np.asarray(idx) == bad] *= 2.0
        return v
    return vectors


def test_an_error_in_a_middle_tile_reaches_the_caller(counted_threads):
    """A vector of norm 2 in a middle block of offsets of a row from a user's
    gram_from_vectors callable is refused with the usual message; the
    callable only ever ran in the calling thread, no thread of the row is
    left, and the next row is summed as usual."""
    before = threading.active_count()
    bad = 5 * noise._CHUNK // 2
    callers = set()
    A = cn.gram_from_vectors(N, _vectors_bad_at(bad, callers))
    q = cn.NoiseQuery(0, 1, 1.5e-5)
    assert cn.noise_value(cn.gram_from_vectors(N, _unit_vectors), q).cutoff > bad + noise._CHUNK
    with pytest.raises(UsageError, match=rf"^gram vector at index {bad} has norm .*, expected 1$"):
        cn.noise_value(A, q)
    assert callers == {threading.get_ident()}
    assert threading.active_count() == before
    good = cn.noise_value(cn.gram_from_vectors(N, _unit_vectors), q)
    assert good.lower <= good.upper
