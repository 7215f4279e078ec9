"""The verify suites: fixed cross-module checks of closed forms, torus
recovery, covariance, the noise-diagonal identity and norm growth.

Each check records one line, PASS or FAIL with its measured defect, and a
suite fails if any of its checks fails.  ``covnoise verify --suite NAME``
prints the lines of one suite, or of all of them in the order of SUITES.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import (ChessboardParams, IndexDomain, IndexWindow, Orientation, PhaseSequence,
                       _default_window, chessboard, constant_one, seeded_gram, seeded_torus,
                       torus_phase_recovery, truncate)
from .noise import NoiseQuery, chessboard_noise_closed_form, is_noiseless_z, noise_value
from .observables import (IntervalSet, covariance_defect, noise_operator_diagonal,
                          observable_operator)
from .schur_analysis import modulus_growth_table, operator_norm, sylvester_hadamard_example


class Suite:
    """The PASS/FAIL lines of the checks run so far, and whether all passed."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.ok = True

    def check(self, name: str, passed: bool, defect: float) -> None:
        self.ok = self.ok and passed
        word = "PASS" if passed else "FAIL"
        self.lines.append("%s %s defect=%.3e" % (word, name, defect))


def _suite_chessboard(suite: Suite, seed: int) -> None:
    for xi in (0.0, 0.3, 0.7, 1.0):
        A = chessboard(IndexDomain.NATURALS, ChessboardParams(xi))
        tol = 1e-8 if xi == 1.0 else 1e-5
        worst = -math.inf
        good = True
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 34):
            for l in (1, 2, 3, 4):
                v = noise_value(A, NoiseQuery(n, l, tol))
                cf = chessboard_noise_closed_form(
                    ChessboardParams(xi), IndexDomain.NATURALS, n, l)
                overshoot = max(v.lower - cf.value, cf.value - v.upper)
                worst = max(worst, overshoot)
                good = good and overshoot <= 0.0
        suite.check("chessboard-naturals-closed-form xi=%g" % xi, good, max(worst, 0.0))
    for xi in (0.0, 0.5, 1.0):
        for orientation, constant in (
                (Orientation.ONE_ON_EVEN_SUM, math.pi ** 2 / 4.0),
                (Orientation.ONE_ON_ODD_SUM, math.pi ** 2 / 12.0)):
            A = chessboard(IndexDomain.INTEGERS, ChessboardParams(xi, orientation))
            target = (1.0 - xi ** 2) * constant
            v = noise_value(A, NoiseQuery(0, 2, 1e-8 if xi == 1.0 else 1e-6))
            defect = max(v.lower - target, target - v.upper, 0.0)
            suite.check("chessboard-integers %s xi=%g" % (orientation.value, xi),
                        defect <= 0.0, defect)
    worst_even = worst_odd = 0.0
    mono = True
    for xi in (0.0, 0.3, 0.7, 1.0):
        params = ChessboardParams(xi)
        for k in range(0, 25):
            s0 = chessboard_noise_closed_form(params, IndexDomain.NATURALS, 2 * k, 2).value
            s1 = chessboard_noise_closed_form(params, IndexDomain.NATURALS, 2 * k + 1, 2).value
            s2 = chessboard_noise_closed_form(params, IndexDomain.NATURALS, 2 * k + 2, 2).value
            worst_even = max(worst_even, abs((s0 - s1) - xi ** 2 / (2 * k + 1) ** 2))
            worst_odd = max(worst_odd, abs((s1 - s2) - 1.0 / (2 * k + 2) ** 2))
            mono = mono and s0 >= s1 > s2
    suite.check("difference-identity-even-start", worst_even <= 1e-12, worst_even)
    suite.check("difference-identity-odd-start", worst_odd <= 1e-12, worst_odd)
    suite.check("monotone-decrease", mono, 0.0)


def _suite_torus(suite: Suite, seed: int) -> None:
    for domain in (IndexDomain.NATURALS, IndexDomain.INTEGERS):
        A = seeded_torus(domain, seed=seed)
        w = _default_window(domain, 64)
        recovered = torus_phase_recovery(A, w, 1e-10)
        if isinstance(recovered, PhaseSequence):
            idx = w.indices()
            nu = np.asarray([float(recovered.nu(int(n))) for n in idx])
            block = truncate(A, w)
            defect = float(np.max(np.abs(
                np.exp(1j * (nu[:, None] - nu[None, :])) - block)))
            suite.check("phase-recovery %s" % domain.value, defect <= 1e-9, defect)
        else:
            suite.check("phase-recovery %s" % domain.value, False, math.inf)
        ref = constant_one(domain)
        ns = (0, 5, 12) if domain is IndexDomain.NATURALS else (-7, 0, 3)
        worst = 0.0
        good = True
        for n in ns:
            for l in (1, 2):
                va = noise_value(A, NoiseQuery(n, l, 1e-8))
                vb = noise_value(ref, NoiseQuery(n, l, 1e-8))
                gap = abs(va.value - vb.value)
                worst = max(worst, gap)
                good = good and gap <= va.width + vb.width
        suite.check("torus-noise-matches-constant %s" % domain.value, good, worst)
    A = seeded_torus(IndexDomain.INTEGERS, seed=seed)
    suite.check("torus-integers-noiseless",
                is_noiseless_z(A, 2, IndexWindow(-5, 5)), 0.0)
    failure = torus_phase_recovery(
        chessboard(IndexDomain.INTEGERS, ChessboardParams(0.5)),
        IndexWindow(-8, 7), 1e-10)
    suite.check("recovery-rejects-non-torus",
                not isinstance(failure, PhaseSequence), 0.0)


def _suite_covariance(suite: Suite, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for domain in (IndexDomain.NATURALS, IndexDomain.INTEGERS):
        if domain is IndexDomain.NATURALS:
            A = seeded_gram(domain, 8, seed=seed)
        else:
            A = seeded_torus(domain, seed=seed)
        w = _default_window(domain, 128)
        worst = 0.0
        for _ in range(20):
            count = int(rng.integers(1, 4))
            ends = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=2 * count))
            X = IntervalSet.from_pairs(ends.reshape(-1, 2))
            x = float(rng.uniform(0.0, 2.0 * math.pi))
            worst = max(worst, covariance_defect(A, X, x, w))
        suite.check("covariance %s window=128" % domain.value, worst <= 1e-12, worst)


def _suite_noise_diagonal(suite: Suite, seed: int) -> None:
    cases = (
        ("constant-integers", constant_one(IndexDomain.INTEGERS)),
        ("chessboard-integers", chessboard(IndexDomain.INTEGERS, ChessboardParams(0.5))),
        ("torus-integers", seeded_torus(IndexDomain.INTEGERS, seed=seed)),
        ("gram-naturals", seeded_gram(IndexDomain.NATURALS, 8, seed=seed)),
    )
    for name, A in cases:
        good = True
        worst = 0.0
        ns = (0, 5) if A.domain is IndexDomain.NATURALS else (-2, 0, 3)
        brackets = {n: noise_value(A, NoiseQuery(n, 2, 1e-6)) for n in ns}
        for size in (128, 256):
            w = _default_window(A.domain, size)
            for n in ns:
                value, tail = noise_operator_diagonal(A, n, w)
                s = brackets[n]
                defect = abs(value - s.value)
                worst = max(worst, defect)
                good = good and defect <= tail + s.width
                good = good and (value - tail <= s.upper) and (s.lower <= value + tail)
        suite.check("noise-diagonal %s" % name, good, worst)


def _suite_schur(suite: Suite, seed: int) -> None:
    table = modulus_growth_table((5, 55, 555))
    chain = all(rec.estimate.lower >= rec.min_row_sum > rec.harmonic_bound
                for rec in table)
    suite.check("growth-chain r=5,55,555", chain, 0.0)
    u5 = table[0].harmonic_bound
    suite.check("harmonic-bound-start", abs(u5 - 23.0 / (15.0 * math.pi)) <= 1e-12,
                abs(u5 - 23.0 / (15.0 * math.pi)))
    suite.check("harmonic-bound-growth",
                table[-1].harmonic_bound - table[0].harmonic_bound > 0.5,
                table[-1].harmonic_bound - table[0].harmonic_bound)
    E = observable_operator(constant_one(IndexDomain.NATURALS),
                            IntervalSet.from_string("0:pi"), IndexWindow(0, 63))
    norm = operator_norm(E.entries)
    suite.check("observable-contraction window=64", norm.value <= 1.0 + 1e-9,
                max(norm.value - 1.0, 0.0))
    good = True
    worst = 0.0
    for p in range(1, 7):
        _, nrm, mod = sylvester_hadamard_example(p)
        gap = max(abs(nrm.value - 1.0), abs(mod.value - 2.0 ** (p / 2.0)))
        worst = max(worst, gap)
        good = good and gap <= 1e-9
    suite.check("hadamard-separation p<=6", good, worst)


SUITES = {
    "chessboard": _suite_chessboard,
    "torus": _suite_torus,
    "covariance": _suite_covariance,
    "noise_diagonal": _suite_noise_diagonal,
    "schur": _suite_schur,
}


def run(name: str, seed: int) -> Suite:
    """The checks of suite name, or of every suite for "all"."""
    suite = Suite()
    for suite_name in SUITES if name == "all" else [name]:
        SUITES[suite_name](suite, seed)
    return suite
