"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line on success (run with -s to see them all);
a failure reads as the criterion number plus the offending values.
"""

import math
import time

import numpy as np
import pytest

from entrokit import (ChiSquared, CovMatrix, Exponential, Gamma, Laplace,
                      LogNormal, Normal, Uniform, det_psd,
                      fgn_det_sweep, hadamard_gap, kl_divergence,
                      modified_shannon, nb_to_logarithmic, binomial_to_poisson,
                      poisson_entropy, poisson_entropy_derivative, renyi,
                      shannon)
from entrokit.verification import ORACLE_MEASURES, oracle_equivalence, random_distribution

SEED = 42
CORE_FAMILIES = ("gamma", "exp", "chisq", "laplace", "lognormal")  # criteria 1 and 3


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_oracle_equivalence_core():
    """6 measures x 5 families x 200 admissible draws, scaled error <= 1e-8."""
    start = time.time()
    rows = oracle_equivalence(CORE_FAMILIES, draws=200, seed=SEED)
    elapsed = time.time() - start
    worst = max(rows, key=lambda r: r.max_error)
    for row in rows:
        assert row.max_error <= 1e-8, (row.family, row.measure, row.max_error)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s target"
    _report(1, f"{len(rows)} cells x 200 draws, worst scaled error "
               f"{worst.max_error:.2e} ({worst.family}/{worst.measure}), "
               f"{elapsed:.1f}s")


def test_criterion_2_closed_form_value_pins():
    assert abs(shannon(Exponential(math.e))) <= 1e-12
    assert modified_shannon(Normal(0.0, 1.0)) == pytest.approx(
        math.sqrt(math.pi / 2.0), abs=1e-10)
    for lam in (0.5, 1.0, 3.0):
        assert modified_shannon(Exponential(lam)) == pytest.approx(1.0 / lam, abs=1e-10)
        assert modified_shannon(Laplace(0.0, lam)) == pytest.approx(2.0 / lam, abs=1e-10)
    assert modified_shannon(ChiSquared(2)) == pytest.approx(2.0, abs=1e-10)
    assert abs(modified_shannon(Uniform(-1.0, 4.0))) <= 1e-10
    _report(2, "exponential Shannon zero at lambda=e and all modified-entropy pins")


def test_criterion_3_kl_nonnegativity():
    rng = np.random.default_rng(SEED)
    checked = 0
    for family in CORE_FAMILIES:
        for _ in range(200):
            p = random_distribution(family, rng)
            q = p if rng.uniform() < 0.25 else random_distribution(family, rng)
            v = kl_divergence(p, q)
            assert v >= -1e-12, (p, q, v)
            if p == q:
                assert v < 1e-12, (p, v)
            else:
                assert v >= 1e-12, (p, q, v)
            checked += 1
    assert checked >= 1000
    _report(3, f"{checked} same-family pairs: KL >= -1e-12 with zero iff equal")


def test_criterion_4_poisson_monotonicity():
    grid = np.geomspace(0.01, 100.0, 100)
    entropies = [poisson_entropy(float(l)) for l in grid]
    assert all(a < b for a, b in zip(entropies, entropies[1:]))
    derivs = [poisson_entropy_derivative(float(l)) for l in grid]
    assert all(v > 0.0 for v in derivs)
    assert all(a > b for a, b in zip(derivs, derivs[1:]))
    tail = poisson_entropy_derivative(1000.0)
    assert 0.0 < tail < 5e-3
    _report(4, f"entropy increasing, derivative positive and decreasing on "
               f"100-point grid; H'(1e3)={tail:.2e} < 5e-3")


def test_criterion_5_gamma_monotonicity():
    grid = np.linspace(0.1, 10.0, 50)
    values = np.array([[shannon(Gamma(lam, mu)) for mu in grid] for lam in grid])
    assert np.all(np.diff(values, axis=0) < 0.0), "not strictly decreasing in lambda"
    assert np.all(np.diff(values, axis=1) > 0.0), "not strictly increasing in mu"
    _report(5, "50x50 grid: Shannon decreasing along lambda, increasing along mu")


def test_criterion_6_convergence_experiments():
    start = time.time()
    bin_table = binomial_to_poisson(2.0, [10, 100, 1000, 10_000])
    errs = bin_table.errors()
    assert errs[-3] > errs[-2] > errs[-1]
    assert errs[-1] < 1e-3
    nb_table = nb_to_logarithmic(0.5, [0.4, 0.1, 0.01, 0.001])
    nb_errs = nb_table.errors()
    assert all(a > b for a, b in zip(nb_errs, nb_errs[1:]))
    elapsed = time.time() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s target"
    _report(6, f"binomial->poisson final error {errs[-1]:.2e} < 1e-3; "
               f"nb->logarithmic errors decreasing; {elapsed:.1f}s")


def test_criterion_7_gaussian_vectors():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        b = rng.normal(size=(n, n))
        a = b.T @ b + 1e-3 * np.eye(n)
        cov = CovMatrix(a)
        gap = hadamard_gap(cov)
        scale = float(np.prod(np.diag(a)))
        assert gap >= -1e-10 * scale
        assert gap > 0.0  # random B'B has off-diagonal mass
        diag_gap = hadamard_gap(CovMatrix(np.diag(np.diag(a))))
        assert abs(diag_gap) <= 1e-10 * scale
    rows = fgn_det_sweep(5, list(np.linspace(0.05, 0.95, 19)) + [0.5, 1.0])
    by_h = {r.hurst: r for r in rows}
    assert by_h[0.5].det == pytest.approx(1.0, abs=1e-12)
    assert by_h[1.0].det == 0.0 and by_h[1.0].singular
    assert all(0.0 <= r.det <= 1.0 + 1e-12 for r in rows)
    _report(7, "1000 PSD matrices: Hadamard gap >= -1e-10*scale, equality iff "
               "diagonal; fGn n=5 endpoints det(1/2)=1, det(1)=0 singular")


def test_criterion_8_renyi_limit_per_family():
    reps = [Gamma(1.3, 2.2), Exponential(0.7), ChiSquared(3), Laplace(1.5, 0.8),
            LogNormal(0.3, 1.1), Normal(0.5, 2.0), Uniform(-1.0, 2.0)]
    worst = 0.0
    for d in reps:
        h = shannon(d)
        for eps in (1e-4, -1e-4):
            gap = abs(renyi(1.0 + eps, d) - h)
            worst = max(worst, gap)
            assert gap <= 1e-3, (d, eps, gap)
    _report(8, f"|renyi(1 +/- 1e-4) - shannon| <= 1e-3 for one representative per "
               f"continuous family (worst {worst:.2e})")
