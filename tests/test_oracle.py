import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrokit import oracle
from entrokit import (Binomial, ChiSquared, Exponential, Gamma, Laplace,
                      Logarithmic, LogNormal, NegBinomialConditional, Normal,
                      OracleConfig, Poisson, Uniform, discrete_entropy_sum,
                      discrete_expectation, integral_p_alpha, integral_p_alpha_log_p,
                      integrate_halfline, integrate_interval, kl_integral,
                      logpdf, logpmf, poisson_entropy_derivative, shannon)
from entrokit.errors import (EntrokitError, FamilyMismatchError, NonConvergenceError,
                             ParameterError, SeriesBudgetError,
                             UnsupportedFamilyError, ValidityDomainError)


def gamma_power_integral(lam, mu, alpha):
    a = alpha * (mu - 1.0)
    return (lam ** (alpha - 1.0) * alpha ** (-a - 1.0)
            * math.exp(math.lgamma(a + 1.0) - alpha * math.lgamma(mu)))


def binomial_log_p(mpmath, d, k):
    n, p = d.n, mpmath.mpf(d.p)
    return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + k * mpmath.log(p) + (n - k) * mpmath.log1p(-p))


def poisson_log_p(mpmath, d, k):
    lam = mpmath.mpf(d.lam)
    return k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1)


def mpmath_series(mpmath, d, transform="p_log_p", alpha=1.0):
    """Sum of the transformed Poisson or Binomial pmf at the working precision.

    A direct sum over mean +- (50 sigma + 50), walked by the pmf ratio,
    while the +-50 sigma window holds at most 1e4 terms or reaches an end
    of the support.  Otherwise the integral of the continuous extension
    (log-gammas at real x) over +-50 sigma: by Poisson summation it
    differs from the sum by O(exp(-2 pi^2 sigma^2)), and sigma > 100 there.
    """
    if isinstance(d, Poisson):
        mean, sd, top, log_p = d.lam, math.sqrt(d.lam), math.inf, poisson_log_p
        log_ratio = lambda k: mpmath.log(mpmath.mpf(d.lam) / (k + 1))  # noqa: E731
    else:
        mean, sd, top, log_p = d.n * d.p, math.sqrt(d.n * d.p * (1 - d.p)), d.n, binomial_log_p
        odds = mpmath.mpf(d.p) / (1 - mpmath.mpf(d.p))
        log_ratio = lambda k: mpmath.log(odds * (d.n - k) / (k + 1))  # noqa: E731
    lo, hi = mean - 50 * sd, mean + 50 * sd

    def term(lp):
        return mpmath.exp(alpha * lp) * (1 if transform == "p_alpha" else lp)

    if lo <= 0 or hi >= top or hi - lo <= 1e4:
        first = max(0, math.floor(lo) - 50)
        last = int(min(top, math.ceil(hi) + 50))
        lp, total = log_p(mpmath, d, first), 0
        for k in range(first, last + 1):
            total += term(lp)
            if k < last:
                lp += log_ratio(k)
        return total
    return mpmath.quad(lambda x: term(log_p(mpmath, d, x)),
                       [mean + j * sd for j in range(-50, 51, 5)], method="gauss-legendre")


def laplace_power_integral(lam, alpha):
    return (lam / 2.0) ** (alpha - 1.0) / alpha


# 20 benchmark integrals with known closed forms: the gamma-family J and
# the Laplace J at assorted parameters, including singular-at-zero cases.
BENCHMARKS = (
    [("gamma", (lam, mu, alpha), gamma_power_integral(lam, mu, alpha))
     for lam, mu, alpha in [
         (1.0, 2.0, 2.0), (0.5, 1.5, 0.6), (2.0, 3.5, 1.4), (1.5, 0.3, 1.0),
         (1.5, 0.4, 1.1), (3.0, 0.8, 2.5), (0.2, 5.0, 0.4), (1.0, 1.0, 3.0),
         (4.0, 2.2, 0.35), (0.7, 6.0, 2.8), (1.0, 0.55, 1.5), (2.5, 8.0, 1.9),
     ]]
    + [("laplace", (lam, alpha), laplace_power_integral(lam, alpha))
       for lam, alpha in [
           (2.0, 3.0), (1.0, 0.5), (0.3, 2.2), (5.0, 1.5),
       ]]
    + [("exp", (lam, alpha), lam ** (alpha - 1.0) / alpha)
       for lam, alpha in [(1.0, 2.0), (3.0, 0.5), (0.4, 4.0), (2.0, 1.0)]]
)
assert len(BENCHMARKS) == 20


@pytest.mark.parametrize("family,params,want", BENCHMARKS)
def test_benchmark_integrals(family, params, want, cfg):
    if family == "gamma":
        lam, mu, alpha = params
        d = Gamma(lam, mu)
    elif family == "laplace":
        lam, alpha = params
        d = Laplace(0.7, lam)
    else:
        lam, alpha = params
        d = Exponential(lam)
    res = integral_p_alpha(d, alpha, cfg)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(want))
    assert res.error <= tol
    assert abs(res.value - want) <= 2.0 * tol


@pytest.mark.parametrize("family,params,want", BENCHMARKS[:6] + BENCHMARKS[12:18])
def test_transform_agrees_with_untransformed_panels(family, params, want, cfg):
    """The t = x/(scale+x) route must match direct panel integration in x."""
    if family == "gamma":
        lam, mu, alpha = params
        d, rate = Gamma(lam, mu), lam * alpha
    elif family == "laplace":
        lam, alpha = params
        d, rate = Laplace(0.7, lam), lam * alpha
    else:
        lam, alpha = params
        d, rate = Exponential(lam), lam * alpha

    def f(x):
        return np.exp(alpha * logpdf(d, x))

    transformed = integral_p_alpha(d, alpha, cfg).value
    # truncation point where the integrand tail is below 1e-16
    hi = 0.7 + 60.0 / rate if family == "laplace" else 60.0 / rate
    lo = 0.7 - 60.0 / rate if family == "laplace" else 0.0
    mesh = np.unique(np.concatenate([
        np.geomspace(1e-40, 1.0, 30) * (hi - lo) + lo, [lo, hi]]))
    direct = integrate_interval(f, mesh, cfg).value
    assert abs(transformed - direct) <= 1e-9 * (1.0 + abs(want))


class TestQuadratureContracts:
    def test_alpha_one_is_normalization(self, cfg):
        for d in [Gamma(1.3, 0.7), Exponential(2.0), ChiSquared(4),
                  Laplace(-1.0, 0.5), LogNormal(0.5, 1.5), Normal(1.0, 0.25),
                  Uniform(-2.0, 1.0)]:
            assert integral_p_alpha(d, 1.0, cfg).value == pytest.approx(1.0, abs=1e-9)

    def test_p_log_p_pins(self, cfg):
        # integral p log p at alpha=1 equals minus the Shannon entropy
        assert integral_p_alpha_log_p(Exponential(1.0), 1.0, cfg).value == pytest.approx(
            -1.0, abs=1e-9)
        assert integral_p_alpha_log_p(Laplace(0.0, 2.0), 1.0, cfg).value == pytest.approx(
            -1.0, abs=1e-9)

    def test_exponential_alpha2_log_decomposition(self, cfg):
        # J1 = integral p^2 log p for Exp(lam): J * (log lam - 1/2)
        lam = 1.0
        j = lam / 2.0
        want = j * (math.log(lam) - 0.5)
        assert integral_p_alpha_log_p(Exponential(lam), 2.0, cfg).value == pytest.approx(
            want, abs=1e-9)

    def test_validity_domain_checked(self, cfg):
        with pytest.raises(ValidityDomainError):
            integral_p_alpha(Gamma(1.0, 0.5), 3.0, cfg)

    def test_rejects_discrete(self, cfg):
        with pytest.raises(FamilyMismatchError):
            integral_p_alpha(Poisson(1.0), 2.0, cfg)

    def test_nonconvergence_budget(self):
        tiny = OracleConfig(max_subdivisions=4)

        def wild(x):
            return np.cos(200.0 * x) * np.cos(3000.0 * x**2)

        with pytest.raises(NonConvergenceError):
            integrate_interval(wild, np.linspace(0.0, 3.0, 3), tiny)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            OracleConfig(abs_tol=0.0)
        with pytest.raises(ParameterError):
            OracleConfig(max_subdivisions=0)

    @pytest.mark.parametrize("kwargs", [
        {"max_terms": 1.5}, {"max_terms": True}, {"max_terms": 10.0}, {"max_terms": "10"},
        {"max_subdivisions": 2.5}, {"max_subdivisions": True},
        {"abs_tol": math.inf}, {"rel_tol": math.nan}, {"series_tail_tol": math.inf},
        {"abs_tol": True}, {"rel_tol": "1e-10"},
    ])
    def test_config_rejects_wrong_types_and_non_finite_tolerances(self, kwargs):
        with pytest.raises(ParameterError):
            OracleConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        assert OracleConfig(max_terms=np.int64(10), max_subdivisions=np.int32(8)).max_terms == 10

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    @pytest.mark.parametrize("d", [Exponential(1.0), Exponential(5.0)])
    def test_non_finite_alpha_is_a_parameter_error(self, d, alpha, cfg):
        with pytest.raises(ParameterError):
            integral_p_alpha(d, alpha, cfg)
        with pytest.raises(ParameterError):
            integral_p_alpha_log_p(d, alpha, cfg)


class TestKLIntegral:
    def test_identical_pair_is_zero(self, cfg):
        assert abs(kl_integral(Gamma(1.5, 2.5), Gamma(1.5, 2.5), cfg).value) <= 1e-10

    def test_exponential_pin(self, cfg):
        assert kl_integral(Exponential(2.0), Exponential(1.0), cfg).value == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-9)

    def test_lognormal_pin(self, cfg):
        assert kl_integral(LogNormal(1.0, 1.0), LogNormal(0.0, 1.0), cfg).value == pytest.approx(
            0.5, abs=1e-9)

    def test_support_mismatch_rejected(self, cfg):
        with pytest.raises(UnsupportedFamilyError):
            kl_integral(Exponential(1.0), Normal(0.0, 1.0), cfg)


class TestDiscreteSeries:
    def test_binomial_exact(self, cfg):
        res = discrete_entropy_sum(Binomial(2, 0.5), "p_log_p", 1.0, cfg)
        assert res.value == pytest.approx(-1.5 * math.log(2.0), abs=1e-13)
        assert 0.0 < res.tail_bound
        assert abs(res.value + 1.5 * math.log(2.0)) <= res.tail_bound

    def test_poisson_entropy_pin(self, cfg):
        res = discrete_entropy_sum(Poisson(1.0), "p_log_p", 1.0, cfg)
        assert -res.value == pytest.approx(1.3048422422562515, abs=1e-12)

    def test_logarithmic_pin(self, cfg):
        res = discrete_entropy_sum(Logarithmic(0.5), "p_log_p", 1.0, cfg)
        assert -res.value == pytest.approx(0.8829244358028679, abs=1e-12)

    def test_transform_validation(self, cfg):
        with pytest.raises(ParameterError):
            discrete_entropy_sum(Poisson(1.0), "plogp", 1.0, cfg)
        with pytest.raises(ParameterError):
            discrete_entropy_sum(Poisson(1.0), "p_alpha", -1.0, cfg)
        with pytest.raises(FamilyMismatchError):
            discrete_entropy_sum(Exponential(1.0), "p_log_p", 1.0, cfg)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    @pytest.mark.parametrize("transform", ["p_alpha", "p_alpha_log_p"])
    def test_non_finite_alpha_is_a_parameter_error(self, transform, alpha, cfg):
        with pytest.raises(ParameterError):
            discrete_entropy_sum(Poisson(3.0), transform, alpha, cfg)

    def test_budget_exhausted(self):
        cfg = OracleConfig(max_terms=10)
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(Logarithmic(0.01), "p_log_p", 1.0, cfg)

    @pytest.mark.parametrize("d,transform,alpha", [
        (Logarithmic(0.01), "p_log_p", 1.0),
        (Logarithmic(0.3), "p_alpha", 0.7),
        (Poisson(30.0), "p_log_p", 1.0),
        (Poisson(4.0), "p_alpha_log_p", 1.4),
        (NegBinomialConditional(0.05, 0.3), "p_log_p", 1.0),
    ])
    def test_tail_bound_is_true_upper_bound(self, d, transform, alpha):
        """Resumming ten times as many terms must stay inside the certificate."""
        coarse_cfg = OracleConfig(series_tail_tol=1e-6)
        coarse = discrete_entropy_sum(d, transform, alpha, coarse_cfg)
        k0 = 0 if isinstance(d, Poisson) else 1
        ks = np.arange(k0, 10 * max(coarse.last_k, 2) + 1, dtype=float)
        lp = np.asarray(logpmf(d, ks), dtype=float)
        with np.errstate(all="ignore"):
            w = np.exp(alpha * lp)
            if transform in ("p_log_p", "p_alpha_log_p"):
                w = w * lp
        dense = float(w.sum())
        assert abs(dense - coarse.value) <= coarse.tail_bound
        assert coarse.tail_bound > 0.0


class TestDiscreteExpectation:
    """Sum of p_k w(k), on the driver that discrete_entropy_sum uses."""

    @pytest.mark.parametrize("d,pmf_k,ks", [
        (Binomial(40, 0.3), lambda k: math.comb(40, k) * 0.3**k * 0.7**(40 - k), range(41)),
        (Logarithmic(0.2), lambda k: -0.8**k / (k * math.log(0.2)), range(1, 400)),
    ])
    def test_log_weight_matches_a_direct_fsum(self, d, pmf_k, ks, cfg):
        res = discrete_expectation(d, lambda k: np.log(k + 1.0), cfg)
        direct = math.fsum(pmf_k(k) * math.log(k + 1) for k in ks)
        assert abs(res.value - direct) <= res.tail_bound < 1e-12 * direct

    @pytest.mark.parametrize("lam", [3.5, 200.0])
    def test_weight_zero_at_the_start(self, lam, cfg):
        res = discrete_expectation(Poisson(lam), lambda k: k.astype(float), cfg)
        assert abs(res.value - lam) <= res.tail_bound

    def test_block_ending_on_a_zero_weight_is_not_a_certificate(self, cfg):
        p = 0.001
        res = discrete_expectation(Logarithmic(p), lambda k: np.maximum(k - 100.0, 0.0), cfg)
        direct = math.fsum(-(1 - p)**k / (k * math.log(p)) * max(k - 100, 0)
                           for k in range(101, 80000))
        assert res.last_k > 64
        assert abs(res.value - direct) <= res.tail_bound < 1e-12 * direct

    def test_budget_exhausted(self):
        with pytest.raises(SeriesBudgetError):
            discrete_expectation(Logarithmic(0.01), lambda k: np.log(k + 1.0),
                                 OracleConfig(max_terms=10))

    def test_rejects_continuous(self, cfg):
        with pytest.raises(FamilyMismatchError):
            discrete_expectation(Exponential(1.0), lambda k: np.log(k + 1.0), cfg)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_poisson_derivative_matches_finite_differences(lam, cfg):
    h = 1e-4 * max(1.0, lam)

    def entropy(value):
        return -discrete_entropy_sum(Poisson(value), "p_log_p", 1.0, cfg).value

    fd = (entropy(lam + h) - entropy(lam - h)) / (2.0 * h)
    assert poisson_entropy_derivative(lam) == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("d,transform,alpha", [
    (Logarithmic(0.01), "p_log_p", 1.0),
    (Logarithmic(0.3), "p_alpha", 0.7),
    (Poisson(30.0), "p_log_p", 1.0),
    (Poisson(4.0), "p_alpha_log_p", 1.4),
    (NegBinomialConditional(0.05, 0.3), "p_log_p", 1.0),
    (Binomial(12, 0.25), "p_log_p", 1.0),
    (Binomial(40, 0.3), "p_log_p", 1.0),
    (Binomial(25, 0.6), "p_alpha", 0.7),
    (Poisson(300.0), "p_log_p", 1.0),
    (Binomial(1000, 0.5), "p_log_p", 1.0),
    (Poisson(1e-8), "p_log_p", 1.0),
    (Binomial(3, 1e-10), "p_log_p", 1.0),
])
def test_tail_bound_covers_error_against_mpmath(d, transform, alpha, cfg):
    """tail_bound bounds |value - true sum|, rounding included."""
    mpmath = pytest.importorskip("mpmath")
    res = discrete_entropy_sum(d, transform, alpha, cfg)
    with mpmath.workdps(30):
        if isinstance(d, Poisson):
            lam = mpmath.mpf(d.lam)
            log_p = lambda k: k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1)  # noqa: E731
        elif isinstance(d, Logarithmic):
            p = mpmath.mpf(d.p)
            log_p = lambda k: (k * mpmath.log1p(-p) - mpmath.log(k)  # noqa: E731
                               - mpmath.log(-mpmath.log(p)))
        elif isinstance(d, Binomial):
            log_p = lambda k: binomial_log_p(mpmath, d, k)  # noqa: E731
        else:
            p, r = mpmath.mpf(d.p), mpmath.mpf(d.r)
            log_p = lambda k: (mpmath.loggamma(k + r) - mpmath.loggamma(r)  # noqa: E731
                               - mpmath.loggamma(k + 1) + k * mpmath.log1p(-p)
                               + r * mpmath.log(p) - mpmath.log(1 - p**r))
        k0 = 1 if isinstance(d, (Logarithmic, NegBinomialConditional)) else 0
        k1 = d.n + 1 if isinstance(d, Binomial) else 2 * res.last_k + 50
        exact = mpmath.fsum(mpmath.exp(alpha * lp) * (lp if transform != "p_alpha" else 1)
                            for lp in map(log_p, range(k0, k1)))
        assert abs(res.value - exact) <= res.tail_bound
    # the rounding part alone exceeds one ulp of the sum
    assert res.tail_bound > 2.0**-52 * abs(res.value)


class TestBinomialSeries:
    """Binomial runs the block engine: memory is one block, not the support."""

    def test_huge_n_small_p_is_cheap(self):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            h = shannon(Binomial(10**8, 1e-8))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(h) and h > 0.0
        assert elapsed < 1.0
        assert peak < 5e6

    def test_large_mean_memory_is_one_block(self):
        tracemalloc.start()
        try:
            shannon(Binomial(10**7, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_budget_applies_to_binomial(self):
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(Binomial(10**8, 0.5), "p_log_p", 1.0,
                                 OracleConfig(max_terms=10**5))

    def test_stops_before_n_once_the_tail_certifies(self, cfg):
        res = discrete_entropy_sum(Binomial(10**6, 0.02), "p_log_p", 1.0, cfg)
        assert res.last_k < 10**6
        assert 0.0 < res.tail_bound < 1e-9

    def test_huge_n_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        d = Binomial(10**7, 1e-7)
        h = shannon(d)
        with mpmath.workdps(40):
            exact = -mpmath.fsum(mpmath.exp(lp) * lp
                                 for lp in (binomial_log_p(mpmath, d, k) for k in range(120)))
        assert abs(h - float(exact)) <= 1e-8 * (1.0 + h)


class TestSeriesFromTheMode:
    """Poisson and Binomial are summed outward from the mode in O(sigma) terms."""

    @pytest.mark.parametrize("d,transform,alpha", [
        (Binomial(10**6, 0.5), "p_log_p", 1.0),
        (Binomial(10**6, 0.5), "p_alpha", 0.6),
        (Poisson(1e4), "p_alpha_log_p", 2.5),
        (Binomial(10**9, 1.0 - 1e-8), "p_log_p", 1.0),
    ])
    def test_tail_bound_covers_error_against_mpmath(self, d, transform, alpha, cfg):
        mpmath = pytest.importorskip("mpmath")
        res = discrete_entropy_sum(d, transform, alpha, cfg)
        with mpmath.workdps(40):
            exact = mpmath_series(mpmath, d, transform, alpha)
        assert abs(res.value - exact) <= res.tail_bound

    def test_terms_grow_with_sigma_not_with_the_mean(self, cfg, monkeypatch):
        summed = []
        monkeypatch.setattr(oracle, "logpmf", lambda d, ks: summed.append(len(ks)) or logpmf(d, ks))
        res = discrete_entropy_sum(Poisson(1e6), "p_log_p", 1.0, cfg)
        assert 10**6 < res.last_k < 10**6 + 20 * 1000
        assert sum(summed) < 40 * 1000

    def test_max_terms_counts_terms_not_indices(self):
        res = discrete_entropy_sum(Poisson(2e7), "p_log_p", 1.0, OracleConfig(max_terms=10**6))
        assert res.last_k > 2 * 10**7
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(Poisson(2e7), "p_log_p", 1.0, OracleConfig(max_terms=10**4))

    @pytest.mark.parametrize("d", [Poisson(1e300), Binomial(10**20, 0.5)])
    def test_mass_beyond_exact_float_indices_is_a_budget_error(self, d, cfg):
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(d, "p_log_p", 1.0, cfg)

    def test_shannon_beyond_the_old_index_budget(self):
        h = shannon(Poisson(2e7))
        assert h == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 2e7), abs=1e-8)

    @pytest.mark.parametrize("d,want", [
        (Poisson(1e10), None),
        (Binomial(10**12, 0.3), "14.454125217036549157"),
    ])
    def test_shannon_at_scale_against_mpmath(self, d, want):
        mpmath = pytest.importorskip("mpmath")
        h = shannon(d)
        with mpmath.workdps(40):
            exact = -mpmath_series(mpmath, d)
            if want is not None:  # the integral agrees with an independent value
                assert abs(exact - mpmath.mpf(want)) < 1e-17
        assert abs(h - exact) <= 1e-12 * (1.0 + h)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_scales_within_tail_bound(self, data):
        """log-uniform lambda in [1e-8, 1e8], n in [1, 1e9], p in [1e-8, 1 - 1e-8]."""
        mpmath = pytest.importorskip("mpmath")
        # hypothesis' own float and integer draws crowd the ends of a range
        rnd = data.draw(st.randoms(use_true_random=False))
        if rnd.random() < 0.5:
            d = Poisson(10.0 ** rnd.uniform(-8.0, 8.0))
        else:
            t = 10.0 ** rnd.uniform(-8.0, math.log10(0.5))
            d = Binomial(round(10.0 ** rnd.uniform(0.0, 9.0)), 1.0 - t if rnd.random() < 0.5 else t)
        transform, alpha = data.draw(st.sampled_from(
            [("p_log_p", 1.0), ("p_alpha", 0.6), ("p_alpha", 2.0), ("p_alpha_log_p", 1.5)]))
        try:
            res = discrete_entropy_sum(d, transform, alpha, OracleConfig())
        except EntrokitError:
            return  # documented: the budget or the index range ran out
        with mpmath.workdps(40):
            exact = mpmath_series(mpmath, d, transform, alpha)
        assert math.isfinite(res.value)
        assert abs(res.value - exact) <= res.tail_bound
