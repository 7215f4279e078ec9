"""End-to-end checks, one test per contract item.

Each test prints a single summary line (criterion number, PASS or FAIL,
the worst observed figure) before asserting, so a scan of the captured
output shows the whole scoreboard.  Runtime-limited items time
themselves and fail when over budget.
"""

import math
import time

import numpy as np

import covnoise as cn

N = cn.IndexDomain.NATURALS
Z = cn.IndexDomain.INTEGERS


def _line(tag, ok, detail):
    print(f"criterion {tag} {'PASS' if ok else 'FAIL'}: {detail}")


def _random_interval_set(rng, max_pieces=3):
    pieces = int(rng.integers(1, max_pieces + 1))
    cuts = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=2 * pieces))
    return cn.IntervalSet.from_pairs(
        [(float(cuts[2 * i]), float(cuts[2 * i + 1])) for i in range(pieces)])


def test_criterion_01_naturals_canonical_noise():
    t0 = time.perf_counter()
    A = cn.constant_one(N)
    worst_width = 0.0
    contained = True
    for n in (0, 1, 10, 100, 1000):
        v = cn.noise_value(A, cn.NoiseQuery(n, 2, 1e-6))
        ref = math.pi**2 / 6.0 - math.fsum(1.0 / k**2 for k in range(1, n + 1))
        worst_width = max(worst_width, v.width)
        contained = contained and v.lower <= ref <= v.upper
        if n == 1000:
            scaled_err = abs(1000.0 * v.value - 1.0)
    elapsed = time.perf_counter() - t0
    ok = contained and worst_width <= 1e-6 and scaled_err < 0.1 and elapsed < 5.0
    _line(1, ok, f"width<={worst_width:.3e}, |1000*s_1000-1|={scaled_err:.3e}, "
                 f"{elapsed:.2f}s")
    assert contained, "a bracket misses the partial-sum reference"
    assert worst_width <= 1e-6
    assert scaled_err < 0.1
    assert elapsed < 5.0


def test_criterion_02_integers_canonical_noiselessness():
    t0 = time.perf_counter()
    B = cn.constant_one(Z)
    worst_width = 0.0
    worst_excursion = 0.0
    for n in range(-20, 21):
        for l in (1, 2, 3, 4):
            v = cn.noise_value(B, cn.NoiseQuery(n, l, 1e-8))
            worst_width = max(worst_width, v.width)
            worst_excursion = max(worst_excursion, v.lower, -v.upper)
    elapsed = time.perf_counter() - t0
    ok = worst_width <= 2e-8 and worst_excursion <= 0.0 and elapsed < 10.0
    _line(2, ok, f"width<={worst_width:.3e}, zero inside every bracket, "
                 f"{elapsed:.2f}s")
    assert worst_excursion <= 0.0, "some bracket excludes zero"
    assert worst_width <= 2e-8
    assert elapsed < 10.0


def test_criterion_03_naturals_chessboard_closed_forms():
    worst_gap = 0.0
    for xi in (0.0, 0.3, 0.7, 1.0):
        params = cn.ChessboardParams(xi)
        A = cn.chessboard(N, params)
        tol = 1e-8 if xi == 1.0 else 1e-5
        for l in (1, 2, 3, 4):
            for n in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100):
                v = cn.noise_value(A, cn.NoiseQuery(n, l, tol))
                closed = cn.chessboard_noise_closed_form(params, N, n, l).value
                gap = abs(closed - v.value) - v.width
                worst_gap = max(worst_gap, gap)
                assert abs(closed - v.value) <= v.width + 1e-9
                assert v.lower <= closed <= v.upper

    worst_first = 0.0
    chain = True
    for xi in (0.0, 0.3, 0.7, 1.0):
        params = cn.ChessboardParams(xi)

        def s(n):
            return cn.chessboard_noise_closed_form(params, N, n, 2).value

        for k in range(25):
            first = s(2 * k) - s(2 * k + 1) - xi**2 / (2 * k + 1) ** 2
            worst_first = max(worst_first, abs(first))
            chain = chain and s(2 * k) >= s(2 * k + 1) > s(2 * k + 2)
    ok = worst_gap <= 1e-9 and worst_first <= 1e-12 and chain
    _line("3 (closed forms, first identity, monotone chain)", ok,
          f"closed-form gap beyond width {worst_gap:.3e}, "
          f"first identity residual {worst_first:.3e}")
    assert worst_first <= 1e-12
    assert chain


def test_criterion_03_second_difference_identity_as_stated():
    """Second l=2 difference identity, as the README and
    chessboard_noise_closed_form state it.

    On the naturals {0, 1, 2, ...} with ones on even index sums, the
    odd-to-even step s_{2k+1}(2) -> s_{2k+2}(2) adds the single new
    off-diagonal term d = -(2k+2) to the moment; the difference is even,
    so its weight is 1 and

        s_{2k+1}(2) - s_{2k+2}(2) = 1/(2k+2)^2.

    This is checked on the closed form and, independently of it, on the
    certified noise_value brackets, whose interval difference must contain
    1/(2k+2)^2 with no slack.  The form 1/(2k+1)^2 holds under no
    documented convention; the same brackets must exclude it, so its
    refutation is part of the check.
    """

    worst = 0.0
    margin = math.inf
    for xi in (0.0, 0.3, 0.7, 1.0):
        params = cn.ChessboardParams(xi)
        A = cn.chessboard(N, params)
        tol = 1e-8 if xi == 1.0 else 1e-6

        def s(n):
            return cn.chessboard_noise_closed_form(params, N, n, 2).value

        for k in range(25):
            step = 1.0 / (2 * k + 2) ** 2
            stated = 1.0 / (2 * k + 1) ** 2
            worst = max(worst, abs(s(2 * k + 1) - s(2 * k + 2) - step))
            a = cn.noise_value(A, cn.NoiseQuery(2 * k + 1, 2, tol))
            b = cn.noise_value(A, cn.NoiseQuery(2 * k + 2, 2, tol))
            lo, hi = a.lower - b.upper, a.upper - b.lower
            assert lo <= step <= hi, (
                f"xi={xi}, k={k}: bracket [{lo!r}, {hi!r}] misses 1/(2k+2)^2")
            margin = min(margin, max(lo - stated, stated - hi))
    ok = worst <= 1e-12 and margin > 0.0
    _line("3 (second difference identity as stated)", ok,
          f"residual {worst:.3e} against 1/(2k+2)^2; brackets exclude "
          f"1/(2k+1)^2 by >= {margin:.3e}")
    assert worst <= 1e-12, f"worst residual {worst:.3e} against 1/(2k+2)^2"
    assert margin > 0.0, (
        f"a certified bracket does not exclude 1/(2k+1)^2 (margin {margin:.3e})")


def test_criterion_04_integers_chessboard_adjudication():
    big = 10_000_000
    inv = 1.0 / np.arange(1.0, big + 1.0) ** 2
    odd_total = float(inv[0::2].sum())
    even_total = float(inv[1::2].sum())

    small = 20_000
    d = np.arange(-small, small + 1)
    d = d[d != 0]
    odd_small = float(inv[0:small:2].sum())
    even_small = float(inv[1:small:2].sum())

    worst_const = 0.0
    worst_pattern = 0.0
    worst_spread = 0.0
    zero_iff = True
    for orientation in (cn.Orientation.ONE_ON_EVEN_SUM,
                        cn.Orientation.ONE_ON_ODD_SUM):
        ones_even = orientation is cn.Orientation.ONE_ON_EVEN_SUM
        target = math.pi**2 / 4.0 if ones_even else math.pi**2 / 12.0
        for xi in (0.0, 0.5, 1.0):
            A = cn.chessboard(Z, cn.ChessboardParams(xi, orientation))

            # entry-level sums at each n (ties the oracle to the builder,
            # and shows the value does not depend on n)
            per_n = []
            for n in range(-10, 11):
                row = np.asarray(A.entry(n, n + d))
                per_n.append(float(np.sum(np.abs(row) ** 2 / d.astype(float) ** 2)))
            worst_spread = max(worst_spread, max(per_n) - min(per_n))

            w_even, w_odd = (1.0, xi**2) if ones_even else (xi**2, 1.0)
            expected_small = 2.0 * (w_odd * odd_small + w_even * even_small)
            worst_pattern = max(worst_pattern, abs(per_n[10] - expected_small))

            oracle = math.pi**2 / 3.0 - 2.0 * (w_odd * odd_total
                                               + w_even * even_total)
            worst_const = max(worst_const, abs(oracle - (1.0 - xi**2) * target))
            zero_iff = zero_iff and ((abs(oracle) <= 1e-6) == (xi == 1.0))
            if xi < 1.0:
                zero_iff = zero_iff and oracle > 1e-3

            closed = cn.chessboard_noise_closed_form(
                cn.ChessboardParams(xi, orientation), Z, 0, 2).value
            v = cn.noise_value(A, cn.NoiseQuery(0, 2, 1e-4))
            assert v.lower <= closed <= v.upper
            assert abs(closed - oracle) <= 1e-6

    ok = (worst_const <= 1e-6 and worst_pattern <= 1e-12
          and worst_spread <= 1e-10 and zero_iff)
    _line(4, ok, f"oracle vs constant {worst_const:.3e}, builder vs parity "
                 f"weights {worst_pattern:.3e}, n-spread {worst_spread:.3e}")
    assert worst_const <= 1e-6
    assert worst_pattern <= 1e-12, "builder pattern deviates from parity weights"
    assert worst_spread <= 1e-10
    assert zero_iff, "oracle vanishes away from xi=1 or persists at xi=1"


def test_criterion_05_noise_operator_diagonal_identity():
    t0 = time.perf_counter()
    cases = [
        (cn.constant_one(Z), (-3, 0, 2)),
        (cn.chessboard(Z, cn.ChessboardParams(0.5)), (-3, 0, 2)),
        (cn.seeded_torus(Z, seed=5), (-3, 0, 2)),
        (cn.seeded_gram(N, dim=8, seed=11), (0, 5, 17)),
    ]
    sizes = (128, 256, 512, 1024)
    all_intersect = True
    worst_growth = 0.0
    for A, points in cases:
        brackets = {n: cn.noise_value(A, cn.NoiseQuery(n, 2, 1e-6))
                    for n in points}
        products = []
        for size in sizes:
            if A.domain is N:
                w = cn.IndexWindow(0, size - 1)
            else:
                w = cn.IndexWindow(-size // 2, size // 2 - 1)
            for n in points:
                value, tail = cn.noise_operator_diagonal(A, n, w)
                br = brackets[n]
                all_intersect = (all_intersect
                                 and value - tail <= br.upper
                                 and br.lower <= value + tail)
            value0, _ = cn.noise_operator_diagonal(A, 0, w)
            margin = w.hi if A.domain is N else min(-w.lo, w.hi)
            products.append(abs(value0 - brackets[0].value) * margin)
        for before, after in zip(products, products[1:]):
            worst_growth = max(worst_growth, after / before)
            assert after <= before * 1.25, \
                f"{A.label}: defect*margin grew {before:.3e} -> {after:.3e}"
    elapsed = time.perf_counter() - t0
    ok = all_intersect and worst_growth <= 1.25 and elapsed < 60.0
    _line(5, ok, f"all intervals intersect, worst defect*margin ratio "
                 f"{worst_growth:.3f}, {elapsed:.1f}s")
    assert all_intersect
    assert elapsed < 60.0


def test_criterion_06_covariance():
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for domain, A in ((N, cn.seeded_gram(N, dim=8, seed=1)),
                      (Z, cn.seeded_torus(Z, seed=9))):
        w = cn.IndexWindow(0, 127) if domain is N else cn.IndexWindow(-64, 63)
        for _ in range(100):
            X = _random_interval_set(rng)
            x = float(rng.uniform(0.0, 2.0 * math.pi))
            worst = max(worst, cn.covariance_defect(A, X, x, w))
    ok = worst <= 1e-12
    _line(6, ok, f"largest covariance defect {worst:.3e} over 200 cases")
    assert worst <= 1e-12


def test_criterion_07_observable_positivity_and_normalization():
    A = cn.seeded_gram(N, dim=8, seed=3)
    w = cn.IndexWindow(0, 255)
    rng = np.random.default_rng(7)
    low, high, worst_sum = 0.0, 1.0, 0.0
    for _ in range(20):
        X = _random_interval_set(rng)
        op = cn.observable_operator(A, X, w)
        eigs = np.linalg.eigvalsh(op.entries)
        low = min(low, float(eigs[0]))
        high = max(high, float(eigs[-1]))
        comp = cn.observable_operator(A, X.complement(), w)
        resolution = op.entries + comp.entries - np.eye(w.size)
        worst_sum = max(worst_sum, float(np.max(np.abs(resolution))))
    ok = low >= -1e-6 and high <= 1.0 + 1e-6 and worst_sum <= 1e-12
    _line(7, ok, f"spectrum in [{low:.2e}, {high:.9f}], resolution defect "
                 f"{worst_sum:.3e}")
    assert low >= -1e-6
    assert high <= 1.0 + 1e-6
    assert worst_sum <= 1e-12


def test_criterion_08_section_norm_growth():
    t0 = time.perf_counter()
    table = cn.modulus_growth_table([5, 55, 555, 5555])
    elapsed = time.perf_counter() - t0
    chain = all(rec.norm >= rec.min_row_sum > rec.harmonic_bound
                for rec in table)
    u5_err = abs(table[0].harmonic_bound - 23.0 / (15.0 * math.pi))
    spread = table[-1].harmonic_bound - table[0].harmonic_bound
    ok = chain and u5_err <= 1e-12 and spread > 0.8 and elapsed < 60.0
    _line(8, ok, f"norm>=s_r>u_r at every r, u_5 error {u5_err:.3e}, "
                 f"u_5555-u_5={spread:.4f}, {elapsed:.1f}s")
    assert chain
    assert u5_err <= 1e-12
    assert spread > 0.8
    assert elapsed < 60.0


def test_criterion_09_hadamard_separation():
    worst_plain = 0.0
    worst_modulus = 0.0
    for p in range(1, 11):
        _, plain, mod = cn.sylvester_hadamard_example(p)
        worst_plain = max(worst_plain, abs(plain.value - 1.0))
        worst_modulus = max(worst_modulus, abs(mod.value - 2.0 ** (p / 2.0)))
    ok = worst_plain <= 1e-9 and worst_modulus <= 1e-9
    _line(9, ok, f"|norm-1|<={worst_plain:.3e}, "
                 f"|modulus norm-2^(p/2)|<={worst_modulus:.3e} for p<=10")
    assert worst_plain <= 1e-9
    assert worst_modulus <= 1e-9


def test_criterion_10_classification_round_trips():
    slope = cn.PhaseSequence(lambda n: 0.37 * np.asarray(n, dtype=float))
    torus_n = [cn.constant_one(N), cn.seeded_torus(N, seed=2),
               cn.chessboard(N, cn.ChessboardParams(1.0)),
               cn.torus_from_phases(N, slope)]
    torus_z = [cn.constant_one(Z), cn.seeded_torus(Z, seed=3),
               cn.chessboard(Z, cn.ChessboardParams(1.0)),
               cn.torus_from_phases(Z, slope)]
    span = cn.IndexWindow(-5, 5)

    noiseless_ok = True
    for A in torus_n:
        est = cn.asymptotic_noise_estimate(A, 2)
        noiseless_ok = (noiseless_ok and est.classification
                        is cn.NoiseClassification.ASYMPTOTICALLY_NOISELESS)
    for B in torus_z:
        noiseless_ok = noiseless_ok and cn.is_noiseless_z(B, 2, span)

    positive_ok = True
    for xi in (0.0, 0.3, 0.5, 0.7, 0.9):
        est = cn.asymptotic_noise_estimate(cn.chessboard(N, cn.ChessboardParams(xi)), 2)
        positive_ok = (positive_ok and est.classification
                       is cn.NoiseClassification.POSITIVE_LIMIT)
        positive_ok = positive_ok and not cn.is_noiseless_z(
            cn.chessboard(Z, cn.ChessboardParams(xi)), 2, span, tol=1e-3)

    recovery_ok = True
    for A in torus_n:
        got = cn.torus_phase_recovery(A, cn.IndexWindow(0, 31), tol=1e-8)
        recovery_ok = recovery_ok and isinstance(got, cn.PhaseSequence)
    for B in torus_z:
        got = cn.torus_phase_recovery(B, cn.IndexWindow(-16, 15), tol=1e-8)
        recovery_ok = recovery_ok and isinstance(got, cn.PhaseSequence)
    for xi in (0.0, 0.5, 0.9):
        got = cn.torus_phase_recovery(cn.chessboard(Z, cn.ChessboardParams(xi)),
                                      cn.IndexWindow(-16, 15), tol=1e-8)
        recovery_ok = (recovery_ok and isinstance(got, cn.PhaseRecoveryFailure)
                       and got.kind == "modulus")

    ok = noiseless_ok and positive_ok and recovery_ok
    _line(10, ok, "torus-valued classified noiseless, chessboards xi<=0.9 "
                  "positive, recovery succeeds exactly on torus-valued blocks")
    assert noiseless_ok, "a torus-valued matrix was not classified noiseless"
    assert positive_ok, "a chessboard was not classified as a positive limit"
    assert recovery_ok, "phase recovery round-trip disagrees with membership"


def test_operator_dump_wall_clock(tmp_path):
    """The two heaviest single-operator CLI calls stay inside their budgets:
    a 512-wide JSON dump (about 10 MB) and a 1152-wide covariance check."""
    from covnoise.cli import main

    budgets = ((["observable", "--window", "0:511", "--format", "json"], 0.5),
               (["covariance-check", "--window", "0:1151"], 0.5))
    ok = True
    detail = []
    for argv, budget in budgets:
        t0 = time.perf_counter()
        code = main(argv + ["--out", str(tmp_path / "report.out")])
        elapsed = time.perf_counter() - t0
        ok = ok and code == 0 and elapsed <= budget
        detail.append(f"{argv[0]} {elapsed:.2f}s (budget {budget}s, exit {code})")
    _line("dump", ok, ", ".join(detail))
    assert ok


def test_dense_norm_wall_clock(tmp_path):
    """hadamard --p-max 10, twenty dense norms up to side 1024, all real
    symmetric, stays inside its budget: about 0.3 s with float64 solves,
    about 1 s if they are solved in complex128 (2-CPU machine).
    One untimed p = 8 solve first, since the first threaded BLAS call of a
    process can stall for about a second while its threads start; the
    best of three runs is timed, so a burst of load on a shared machine
    does not decide the result."""
    from covnoise.cli import main

    cn.sylvester_hadamard_example(8)
    budget = 0.7
    times, codes = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        codes.append(main(["hadamard", "--p-max", "10", "--out", str(tmp_path / "h.csv")]))
        times.append(time.perf_counter() - t0)
    ok = codes == [0, 0, 0] and min(times) <= budget
    _line("dense-norm", ok, f"hadamard best of 3 {min(times):.2f}s (budget {budget}s, "
                            f"exits {codes})")
    assert ok


def test_gram_row_wall_clock(tmp_path):
    """noise-table on a seeded gram row on Z at tol 4e-6 (l = 1: 539
    blocks of 1024 Philox-drawn vectors in C^8, 27 of them past the cache
    budget) stays inside its budget.  Each block drawn once, in place, on
    two CPUs takes about 0.3 s, and up to about 0.48 s when the second CPU
    is busy elsewhere; blocks drawn one at a time into a cache
    re-concatenated on each growth, with every fetched vector norm-checked
    again, took 0.36 to 0.60 s (2-CPU machine).  One untimed small row
    first loads numpy.random; the best of three runs is timed."""
    from covnoise.cli import main

    spec = '{"kind": "gram", "domain": "Z", "seed": 1, "dim": 8}'
    out = str(tmp_path / "g.csv")
    main(["noise-table", "--matrix", spec, "--n", "0", "--l", "1", "--tol", "1e-2", "--out", out])
    budget = 0.55
    times, codes = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        codes.append(main(["noise-table", "--matrix", spec, "--n", "0", "--l", "1",
                           "--tol", "4e-6", "--out", out]))
        times.append(time.perf_counter() - t0)
    ok = codes == [0, 0, 0] and min(times) <= budget
    _line("gram-row", ok, f"noise-table gram Z tol 4e-6 best of 3 {min(times):.2f}s "
                          f"(budget {budget}s, exits {codes})")
    assert ok
