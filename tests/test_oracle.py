import contextlib
import math
import pickle
import re
import sys
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from entrokit import oracle, special
from entrokit import (Binomial, ChiSquared, Exponential, Gamma, Laplace,
                      Logarithmic, LogNormal, NegBinomialConditional, Normal,
                      Poisson, Uniform, discrete_entropy_sum,
                      discrete_expectation, integral_p_alpha, integral_p_alpha_log_p,
                      format_spec, kl_integral, entropy_estimate, logpdf, logpmf, pdf,
                      pmf, poisson_entropy_derivative, shannon)
from entrokit.closed_form import EntropySpec, evaluate
from entrokit.oracle import OracleConfig, integrate_halfline, integrate_interval
from entrokit.errors import (EntrokitError, FamilyMismatchError, NonConvergenceError,
                             ParameterError, SeriesBudgetError,
                             UnsupportedFamilyError, ValidityDomainError)
from entrokit.verification import (ORACLE_FAMILIES, ORACLE_MEASURES, oracle_equivalence,
                                   random_distribution, random_spec)


def gamma_power_integral(lam, mu, alpha):
    a = alpha * (mu - 1.0)
    return (lam ** (alpha - 1.0) * alpha ** (-a - 1.0)
            * math.exp(math.lgamma(a + 1.0) - alpha * math.lgamma(mu)))


def gamma_log_j(mpmath, lam, mu, alpha):
    """log of the integral of p**alpha for Gamma(lam, mu), at mpmath's working precision."""
    lam, mu, alpha = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(alpha)
    a1 = alpha * (mu - 1) + 1
    return ((alpha - 1) * mpmath.log(lam) - a1 * mpmath.log(alpha) + mpmath.loggamma(a1)
            - alpha * mpmath.loggamma(mu))


def gamma_log_j_slope(mpmath, lam, mu, alpha):
    """d/d alpha of gamma_log_j: the integral of p**alpha log p over that of p**alpha."""
    lam, mu, alpha = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(alpha)
    a1 = alpha * (mu - 1) + 1
    return (mpmath.log(lam) - (mu - 1) * mpmath.log(alpha) - a1 / alpha
            + (mu - 1) * mpmath.digamma(a1) - mpmath.loggamma(mu))


def gamma_measure(mpmath, measure, lam, mu, alpha, beta):
    if measure == "shannon":
        return -gamma_log_j_slope(mpmath, lam, mu, 1)
    if measure == "gr1":
        return -gamma_log_j_slope(mpmath, lam, mu, alpha)
    log_j = gamma_log_j(mpmath, lam, mu, alpha)
    if measure == "renyi":
        return log_j / (1 - mpmath.mpf(alpha))
    if measure == "tsallis":
        return mpmath.expm1(log_j) / (1 - mpmath.mpf(alpha))
    return (log_j - gamma_log_j(mpmath, lam, mu, beta)) / (mpmath.mpf(beta) - alpha)  # gr2


def gamma_kl(mpmath, lam_p, mu_p, lam_q, mu_q):
    lp, mp, lq, mq = (mpmath.mpf(v) for v in (lam_p, mu_p, lam_q, mu_q))
    return ((mp - mq) * mpmath.digamma(mp) - mpmath.loggamma(mp) + mpmath.loggamma(mq)
            + mq * (mpmath.log(lp) - mpmath.log(lq)) + mp * (lq - lp) / lp)


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
def test_benchmark_integrals(family, params, want):
    if family == "gamma":
        lam, mu, alpha = params
        d = Gamma(lam, mu)
    elif family == "laplace":
        lam, alpha = params
        d = Laplace(0.7, lam)
    else:
        lam, alpha = params
        d = Exponential(lam)
    res = integral_p_alpha(d, alpha)
    tol = max(oracle._ABS_TOL, oracle._REL_TOL * abs(want))
    assert res.error <= tol
    assert abs(res.value - want) <= 2.0 * tol


@pytest.mark.parametrize("family,params,want", BENCHMARKS[:6] + BENCHMARKS[12:18])
def test_transform_agrees_with_untransformed_panels(family, params, want):
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

    transformed = integral_p_alpha(d, alpha).value
    # truncation point where the integrand tail is below 1e-16
    hi = 0.7 + 60.0 / rate if family == "laplace" else 60.0 / rate
    lo = 0.7 - 60.0 / rate if family == "laplace" else 0.0
    mesh = np.unique(np.concatenate([
        np.geomspace(1e-40, 1.0, 30) * (hi - lo) + lo, [lo, hi]]))
    direct = integrate_interval(f, oracle._first_pass(mesh)).value
    assert abs(transformed - direct) <= 1e-9 * (1.0 + abs(want))


class TestQuadratureContracts:
    def test_alpha_one_is_normalization(self):
        for d in [Gamma(1.3, 0.7), Exponential(2.0), ChiSquared(4),
                  Laplace(-1.0, 0.5), LogNormal(0.5, 1.5), Normal(1.0, 0.25),
                  Uniform(-2.0, 1.0)]:
            assert integral_p_alpha(d, 1.0).value == pytest.approx(1.0, abs=1e-9)

    def test_p_log_p_pins(self):
        # integral p log p at alpha=1 equals minus the Shannon entropy
        assert integral_p_alpha_log_p(Exponential(1.0), 1.0).value == pytest.approx(
            -1.0, abs=1e-9)
        assert integral_p_alpha_log_p(Laplace(0.0, 2.0), 1.0).value == pytest.approx(
            -1.0, abs=1e-9)

    def test_exponential_alpha2_log_decomposition(self):
        # J1 = integral p^2 log p for Exp(lam): J * (log lam - 1/2)
        lam = 1.0
        j = lam / 2.0
        want = j * (math.log(lam) - 0.5)
        assert integral_p_alpha_log_p(Exponential(lam), 2.0).value == pytest.approx(
            want, abs=1e-9)

    def test_validity_domain_checked(self):
        with pytest.raises(ValidityDomainError):
            integral_p_alpha(Gamma(1.0, 0.5), 3.0)

    def test_rejects_discrete(self):
        with pytest.raises(FamilyMismatchError):
            integral_p_alpha(Poisson(1.0), 2.0)

    def test_nonconvergence_budget(self, oracle_settings):
        oracle_settings(max_subdivisions=4)

        def wild(x):
            return np.cos(200.0 * x) * np.cos(3000.0 * x**2)

        with pytest.raises(NonConvergenceError):
            integrate_interval(wild, oracle._first_pass(np.linspace(0.0, 3.0, 3)))

    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol", "max_subdivisions",
                                      "series_tail_tol", "max_terms"])
    def test_config_takes_no_setting(self, name):
        """Each setting is a module constant, so OracleConfig has no field to set."""
        with pytest.raises(TypeError):
            OracleConfig(**{name: getattr(oracle, f"_{name.upper()}")})

    def test_non_finite_integrand(self):
        with pytest.raises(NonConvergenceError, match="non-finite"):
            integrate_interval(lambda x: np.where(x > 0.5, np.nan, x),
                               oracle._first_pass(np.array([0.0, 1.0])))

    @pytest.mark.parametrize("mesh", [
        [0.0, 0.0, 1.0], np.linspace(1.0, 1.0 + 4e-16, 17),  # a tiny Uniform's mesh repeats values
    ], ids=["equal_neighbours", "repeated_mesh"])
    def test_a_pass_with_equal_neighbours_integrates(self, mesh):
        """A panel of width 0 adds 0: exp(-x) over [lo, hi] to within 1e-12."""
        res = integrate_interval(lambda x: np.exp(-x), oracle._first_pass(np.array(mesh)))
        assert abs(res.value - (math.exp(-mesh[0]) - math.exp(-mesh[-1]))) <= 1e-12

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    @pytest.mark.parametrize("d", [Exponential(1.0), Exponential(5.0)])
    def test_non_finite_alpha_is_a_parameter_error(self, d, alpha):
        with pytest.raises(ParameterError):
            integral_p_alpha(d, alpha)
        with pytest.raises(ParameterError):
            integral_p_alpha_log_p(d, alpha)


class TestKLIntegral:
    def test_identical_pair_is_zero(self):
        assert abs(kl_integral(Gamma(1.5, 2.5), Gamma(1.5, 2.5)).value) <= 1e-10

    def test_exponential_pin(self):
        assert kl_integral(Exponential(2.0), Exponential(1.0)).value == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-9)

    def test_lognormal_pin(self):
        assert kl_integral(LogNormal(1.0, 1.0), LogNormal(0.0, 1.0)).value == pytest.approx(
            0.5, abs=1e-9)

    def test_support_mismatch_rejected(self):
        """The error names both records; records of one support pass, whatever their family."""
        with pytest.raises(UnsupportedFamilyError,
                           match=r"exp:lambda=1\.0 on .* vs normal:mean=0\.0"):
            kl_integral(Exponential(1.0), Normal(0.0, 1.0))
        with pytest.raises(UnsupportedFamilyError, match="supports differ"):
            kl_integral(Uniform(0.0, 1.0), Uniform(0.0, 2.0))
        assert kl_integral(Gamma(1.0, 1.0), Exponential(1.0)).value == pytest.approx(
            0.0, abs=1e-10)

    def test_rejects_discrete(self):
        with pytest.raises(FamilyMismatchError):
            kl_integral(Poisson(1.0), Poisson(2.0))

    def test_uniform_width_past_the_float_range(self, monkeypatch):
        """b - a = inf is a ParameterError naming the record before any mesh is built.

        A pair whose supports differ is an UnsupportedFamilyError before that.
        """
        def no_run(*args):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(oracle, "integrate_interval", no_run)
        wide = Uniform(-1e308, 1e308)
        with pytest.raises(ParameterError, match=r"b - a of uniform:a=-1e\+308,b=1e\+308"):
            entropy_estimate(wide, "shannon", None, None)
        with pytest.raises(ParameterError, match=r"b - a of uniform:a=-1e\+308,b=1e\+308"):
            kl_integral(wide, wide)
        # the supports differ before any width is looked at
        with pytest.raises(UnsupportedFamilyError, match=r"uniform:a=-1e\+308,b=1e\+308"):
            kl_integral(Uniform(0.0, 1.0), wide)


class TestComputedValueChecks:
    """The checks left on values the oracle computes, reached through its entry points.

    Each raises before a quadrature run starts, with the same message
    through every entry point.
    """

    @pytest.fixture
    def no_run(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("a quadrature run started")

        for name in ("integrate_halfline", "integrate_realline", "integrate_interval"):
            monkeypatch.setattr(oracle, name, no_run)

    # every value-level entry point that runs a quadrature; q shares d's support for KL
    RUNS = {
        "shannon": lambda d, q: entropy_estimate(d, "shannon", None, None),
        "renyi": lambda d, q: entropy_estimate(d, "renyi", 2.0, None),
        "gr1": lambda d, q: entropy_estimate(d, "gr1", 0.5, None),
        "gr2": lambda d, q: entropy_estimate(d, "gr2", 0.5, 2.0),
        "tsallis": lambda d, q: entropy_estimate(d, "tsallis", 2.0, None),
        "sm": lambda d, q: entropy_estimate(d, "sm", 2.0, 3.0),
        "p_alpha": lambda d, q: integral_p_alpha(d, 2.0),
        "p_alpha_log_p": lambda d, q: integral_p_alpha_log_p(d, 2.0),
        "kl": lambda d, q: kl_integral(d, q),
    }

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
    @pytest.mark.parametrize("d, q, spec, scale", [
        (LogNormal(800.0, 1.0), Exponential(1.0), "lognormal:m=800.0,sigma2=1.0", "inf"),
        (LogNormal(-800.0, 1.0), Exponential(1.0), "lognormal:m=-800.0,sigma2=1.0", "0.0"),
        (Gamma(1e-310, 2.0), Exponential(1.0), "gamma:lambda=1e-310,mu=2.0", "inf"),
    ], ids=["lognormal-overflow", "lognormal-underflow", "gamma"])
    def test_map_scale_outside_the_positive_doubles_names_the_record(self, d, q, spec, scale,
                                                                      run, no_run):
        """An exp past the float range, or 1/lam of a subnormal rate, on the half-line map.

        An exponential or Laplace record of a subnormal rate runs its standard record at
        scale 1 instead (TestStandardRecord)."""
        with pytest.raises(ParameterError) as info:
            run(d, q)
        assert str(info.value) == (
            f"the map scale of {spec} is {scale}, outside the positive doubles")

    @pytest.mark.parametrize("d, measure, alpha, beta, scale", [
        (LogNormal(0.0, 2000.0), "renyi", 2.0, None, "0.0"),
        (LogNormal(0.0, 2000.0), "renyi", 0.5, None, "inf"),
        (LogNormal(0.0, 1000.0), "gr2", 0.5, 2.0, "inf"),
        (LogNormal(0.0, 2000.0), "gr2", 0.5, 2.0, "nan"),
    ], ids=["underflow", "overflow", "one-order-overflows", "inf-times-zero"])
    def test_the_checked_scale_is_the_plan_of_the_orders(self, d, measure, alpha, beta, scale,
                                                         no_run):
        """A log-normal's escort scale exp(m + (1 - alpha) sigma2 / alpha) depends on alpha;
        GR2's joint plan takes the geometric mean of its two orders' scales."""
        with pytest.raises(ParameterError) as info:
            entropy_estimate(d, measure, alpha, beta)
        assert str(info.value) == (
            f"the map scale of {format_spec(d)} is {scale}, outside the positive doubles")

    @pytest.mark.parametrize("p, q, message", [
        (Laplace(-1e308, 1.0), Laplace(1e308, 1.0),
         "laplace:mu=1e+308,lambda=1.0 in the coordinates of laplace:mu=-1e+308,lambda=1.0"),
        (Exponential(1e-310), Exponential(1.0),
         "exp:lambda=1.0 in the coordinates of exp:lambda=1e-310"),
        (Normal(0.0, 1e-300), Normal(1e200, 1.0),
         "normal:mean=1e+200,sigma2=1.0 in the coordinates of normal:mean=0.0,sigma2=1e-300"),
    ], ids=["gap", "rate-ratio", "location-over-scale"])
    def test_q_past_the_float_range_in_the_coordinates_of_p(self, p, q, message, no_run):
        """q mapped by p's (c, s) has a location or rate past the doubles: one error naming both."""
        with pytest.raises(ParameterError) as info:
            kl_integral(p, q)
        assert str(info.value) == f"{message} is past the float range"


@st.composite
def location_scale_cases(draw):
    """A record of the four standard families at any location and scale, with its measure.

    Locations are 0 or log-uniform in magnitude up to 1e300 of either sign, scales
    log-uniform from 1e-300 to 1e300 (the normal's variance spans that range, as its
    square leaves the doubles), orders in [0.2, 3.5], 0.05 from 1 and from each other.
    """
    family = draw(st.sampled_from(("exp", "laplace", "normal", "uniform")))
    magnitude = 10.0 ** draw(st.floats(-300.0, 300.0))
    loc = draw(st.sampled_from((0.0, 1.0, -1.0))) * magnitude
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    if family == "uniform":
        assume(loc + scale > loc)
    d = {"exp": lambda: Exponential(1.0 / scale), "laplace": lambda: Laplace(loc, 1.0 / scale),
         "normal": lambda: Normal(loc, scale), "uniform": lambda: Uniform(loc, loc + scale)}[family]()
    measure = draw(st.sampled_from(("shannon", "renyi", "gr1", "tsallis", "gr2", "sm")))
    order = st.floats(0.2, 3.5).filter(lambda a: abs(a - 1.0) >= 0.05)
    alpha = None if measure == "shannon" else draw(order)
    beta = draw(order.filter(lambda b: abs(b - alpha) >= 0.05)) if measure in ("gr2", "sm") else None
    return d, measure, alpha, beta


class TestStandardRecord:
    """Exp, Laplace, normal and uniform records integrate Exp(1), Laplace(0, 1), N(0, 1) and
    U(0, 1); location and scale enter by the scale law, in math."""

    @given(case=location_scale_cases())
    @example(case=(Normal(1e20, 1.0), "shannon", None, None))
    @example(case=(Exponential(1e-310), "gr2", 0.5, 3.0))
    @example(case=(Laplace(-3e18, 89.8), "sm", 0.3, 2.5))
    @example(case=(Uniform(-1e300, 1e300), "renyi", 2.0, None))
    @settings(max_examples=300, deadline=None)
    def test_any_location_and_scale_against_the_closed_form(self, case):
        """Within 1e-12 (1 + |v|) of the closed form; where that leaves the doubles (Tsallis
        and Sharma-Mittal only), the oracle raises a structured error or agrees."""
        d, measure, alpha, beta = case
        try:
            want = evaluate(EntropySpec(measure, alpha, beta), d)
        except ParameterError:
            assert measure in ("tsallis", "sm")
            with contextlib.suppress(ParameterError):
                entropy_estimate(d, measure, alpha, beta)
            return
        got = entropy_estimate(d, measure, alpha, beta)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("d", [Exponential(1e-310), Laplace(0.0, 1e-310)], ids=repr)
    @pytest.mark.parametrize("run", TestComputedValueChecks.RUNS.values(),
                             ids=TestComputedValueChecks.RUNS)
    def test_a_subnormal_rate_gives_a_value(self, d, run):
        """1/lam is past the doubles, log s = -log lam is not: every entry point has a value."""
        value = run(d, d)
        value = value.value if isinstance(value, oracle.QuadResult) else value
        assert math.isfinite(value)

    def test_the_law_of_a_log_row(self):
        """Each log row holds J1' - log s J1 of the standard record, errors scaled alike."""
        d, s = Laplace(0.7, 0.25), 4.0
        alpha = 2.5
        j1 = integral_p_alpha(Laplace(0.0, 1.0), alpha)
        j1_log = integral_p_alpha_log_p(Laplace(0.0, 1.0), alpha)
        got = integral_p_alpha_log_p(d, alpha)
        factor = s ** (1.0 - alpha)
        assert got.value == pytest.approx(factor * (j1_log.value - math.log(s) * j1.value),
                                          rel=1e-15)
        assert got.error == pytest.approx(factor * (j1_log.error + math.log(s) * j1.error),
                                          rel=1e-12)
        want = (alpha - 1.0) * math.log(0.25 / 2.0) - math.log(alpha)  # log J of Laplace
        assert math.log(integral_p_alpha(d, alpha).value) == pytest.approx(want, rel=1e-14)

    def test_the_standard_log_density_is_computed_once(self, monkeypatch):
        """Fresh records of one family share one log-density call on the shared pass."""
        monkeypatch.setattr(oracle, "_STANDARD_LOG_P", {})
        calls = []
        monkeypatch.setattr(oracle, "logpdf",
                            lambda d, x: calls.append((d, np.size(x))) or logpdf(d, x))
        for lam in (0.5, 2.0, 3.0):
            entropy_estimate(Exponential(lam), "renyi", 2.0)
            entropy_estimate(Normal(lam, lam), "gr1", 0.5)
        assert calls == [(Exponential(1.0), 510), (Normal(0.0, 1.0), 1020)]
        assert set(oracle._STANDARD_LOG_P) == {Exponential, Normal}
        assert not any(lp.flags.writeable for lp in oracle._STANDARD_LOG_P.values())

    def test_gamma_and_lognormal_stay_at_their_own_coordinates(self):
        for d in (Gamma(2.0, 3.0), ChiSquared(5), LogNormal(1.0, 0.5)):
            plan = oracle._plan(d, 1.0)
            assert (plan.c, plan.s, plan.log_s, plan.standard) == (0.0, 1.0, 0.0, None)


class TestDiscreteSeries:
    def test_binomial_exact(self):
        res = discrete_entropy_sum(Binomial(2, 0.5), "p_log_p", 1.0)
        assert res.value == pytest.approx(-1.5 * math.log(2.0), abs=1e-13)
        assert 0.0 < res.tail_bound
        assert abs(res.value + 1.5 * math.log(2.0)) <= res.tail_bound

    def test_poisson_entropy_pin(self):
        res = discrete_entropy_sum(Poisson(1.0), "p_log_p", 1.0)
        assert -res.value == pytest.approx(1.3048422422562515, abs=1e-12)

    def test_logarithmic_pin(self):
        res = discrete_entropy_sum(Logarithmic(0.5), "p_log_p", 1.0)
        assert -res.value == pytest.approx(0.8829244358028679, abs=1e-12)

    def test_transform_validation(self):
        with pytest.raises(ParameterError):
            discrete_entropy_sum(Poisson(1.0), "plogp", 1.0)
        with pytest.raises(ParameterError):
            discrete_entropy_sum(Poisson(1.0), "p_alpha", -1.0)
        with pytest.raises(FamilyMismatchError):
            discrete_entropy_sum(Exponential(1.0), "p_log_p", 1.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    @pytest.mark.parametrize("transform", ["p_alpha", "p_alpha_log_p"])
    def test_non_finite_alpha_is_a_parameter_error(self, transform, alpha):
        with pytest.raises(ParameterError):
            discrete_entropy_sum(Poisson(3.0), transform, alpha)

    def test_budget_exhausted(self, oracle_settings):
        oracle_settings(max_terms=10)
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(Logarithmic(0.01), "p_log_p", 1.0)

    @pytest.mark.parametrize("d,transform,alpha", [
        (Logarithmic(0.01), "p_log_p", 1.0),
        (Logarithmic(0.3), "p_alpha", 0.7),
        (Poisson(30.0), "p_log_p", 1.0),
        (Poisson(4.0), "p_alpha_log_p", 1.4),
        (NegBinomialConditional(0.05, 0.3), "p_log_p", 1.0),
    ])
    def test_tail_bound_is_true_upper_bound(self, d, transform, alpha, oracle_settings):
        """Resumming ten times as many terms must stay inside the certificate."""
        oracle_settings(series_tail_tol=1e-6)
        coarse = discrete_entropy_sum(d, transform, alpha)
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
    def test_log_weight_matches_a_direct_fsum(self, d, pmf_k, ks):
        res = discrete_expectation(d, lambda k: np.log(k + 1.0))
        direct = math.fsum(pmf_k(k) * math.log(k + 1) for k in ks)
        assert abs(res.value - direct) <= res.tail_bound < 1e-12 * direct

    @pytest.mark.parametrize("lam", [3.5, 200.0])
    def test_weight_zero_at_the_start(self, lam):
        res = discrete_expectation(Poisson(lam), lambda k: k.astype(float))
        assert abs(res.value - lam) <= res.tail_bound

    def test_block_ending_on_a_zero_weight_is_not_a_certificate(self):
        p = 0.001
        res = discrete_expectation(Logarithmic(p), lambda k: np.maximum(k - 100.0, 0.0))
        direct = math.fsum(-(1 - p)**k / (k * math.log(p)) * max(k - 100, 0)
                           for k in range(101, 80000))
        assert res.last_k > 64
        assert abs(res.value - direct) <= res.tail_bound < 1e-12 * direct

    def test_budget_exhausted(self, oracle_settings):
        oracle_settings(max_terms=10)
        with pytest.raises(SeriesBudgetError):
            discrete_expectation(Logarithmic(0.01), lambda k: np.log(k + 1.0))

    def test_rejects_continuous(self):
        with pytest.raises(FamilyMismatchError):
            discrete_expectation(Exponential(1.0), lambda k: np.log(k + 1.0))


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_poisson_derivative_matches_finite_differences(lam):
    h = 1e-4 * max(1.0, lam)

    def entropy(value):
        return -discrete_entropy_sum(Poisson(value), "p_log_p", 1.0).value

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
    # alpha (-log p) <= 1 past the mode: _tail_ratio's additive bound
    (Poisson(4.0), "p_alpha_log_p", 0.005),
    (Logarithmic(0.3), "p_alpha_log_p", 0.02),
])
def test_tail_bound_covers_error_against_mpmath(d, transform, alpha):
    """tail_bound bounds |value - true sum|, rounding included."""
    mpmath = pytest.importorskip("mpmath")
    res = discrete_entropy_sum(d, transform, alpha)
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

    def test_budget_applies_to_binomial(self, oracle_settings):
        oracle_settings(max_terms=10**5)
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(Binomial(10**8, 0.5), "p_log_p", 1.0)

    def test_stops_before_n_once_the_tail_certifies(self):
        res = discrete_entropy_sum(Binomial(10**6, 0.02), "p_log_p", 1.0)
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
    def test_tail_bound_covers_error_against_mpmath(self, d, transform, alpha):
        mpmath = pytest.importorskip("mpmath")
        res = discrete_entropy_sum(d, transform, alpha)
        with mpmath.workdps(40):
            exact = mpmath_series(mpmath, d, transform, alpha)
        assert abs(res.value - exact) <= res.tail_bound

    def test_terms_grow_with_sigma_not_with_the_mean(self, monkeypatch):
        summed = []
        monkeypatch.setattr(oracle, "logpmf", lambda d, ks: summed.append(len(ks)) or logpmf(d, ks))
        res = discrete_entropy_sum(Poisson(1e6), "p_log_p", 1.0)
        assert 10**6 < res.last_k < 10**6 + 20 * 1000
        assert sum(summed) < 40 * 1000

    def test_max_terms_counts_terms_not_indices(self, oracle_settings):
        oracle_settings(max_terms=10**6)
        res = discrete_entropy_sum(Poisson(2e7), "p_log_p", 1.0)
        assert res.last_k > 2 * 10**7
        oracle_settings(max_terms=10**4)
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(Poisson(2e7), "p_log_p", 1.0)

    @pytest.mark.parametrize("d", [Poisson(1e300), Binomial(10**20, 0.5)])
    def test_mass_beyond_exact_float_indices_is_a_budget_error(self, d):
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(d, "p_log_p", 1.0)

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
            res = discrete_entropy_sum(d, transform, alpha)
        except EntrokitError:
            return  # documented: the budget or the index range ran out
        with mpmath.workdps(40):
            exact = mpmath_series(mpmath, d, transform, alpha)
        assert math.isfinite(res.value)
        assert abs(res.value - exact) <= res.tail_bound


def per_block_shannon(d):
    """Sum of p_k log p_k with one logpmf call per block, as the series engine summed before
    it batched its evaluation: the same blocks (64 terms doubling to 65536, upward from
    max(start, mode - 64), then downward) and the same certificate, without the rounding
    bound.  Returns (value, last index summed upward, terms summed)."""
    plan = oracle._plan(d, 1.0)
    start, stop = map(int, d.support)
    k0 = max(start, plan.mode - 64)
    directions = [(plan.ratio, lambda j: k0 + j, stop - k0)]
    if k0 > start:
        directions.append((plan.down, lambda j: k0 - 1 - j, k0 - 1 - start))
    total, summed, last_up = 0.0, 0, None
    for ratio, index, last in directions:
        j, size = 0, 64
        while True:
            end = j + size - 1 if last is None else min(j + size - 1, last)
            ks = index(np.arange(j, end + 1))
            lp = np.asarray(logpmf(d, ks), dtype=float)
            t = np.exp(lp) * lp
            total += float(t.sum())
            summed += len(ks)
            q = oracle._tail_ratio(ratio(int(ks[-1])), float(lp[-1]), 1.0, True)
            tail = 2.0 * abs(float(t[-1])) * q / (1.0 - q)
            certified = q < 1.0 and tail <= oracle._SERIES_TAIL_TOL
            if end == last or certified:
                break
            j, size = end + 1, min(2 * size, 65536)
        last_up = int(ks[-1]) if last_up is None else last_up
    return total, last_up, summed


class TestTinyRates:
    """Rates near and below 2**-1022: bd0's (x - m)/m and the ratio bound's 1/rho overflow there."""

    def test_log_pmf_is_finite_on_the_support(self):
        mpmath = pytest.importorskip("mpmath")
        d = Poisson(1e-310)
        got = logpmf(d, [1.0, 2.0])
        with mpmath.workdps(50):
            want = [float(poisson_log_p(mpmath, d, k)) for k in (1, 2)]
        assert np.allclose(got, [-713.80137883, -1428.29590484], rtol=0, atol=1e-8)
        assert np.allclose(got, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("d", [
        Poisson(1e-310), Poisson(1e-308), Poisson(1e-300), Poisson(1e-250),
        Binomial(7, 1e-310), Binomial(10**6, 1e-315), Binomial(1000, 1e-300),
        # subnormal rates: their terms round by 2**-1075 absolutely, where u |t| is 0
        Poisson(1e-320), Binomial(10, 1e-320),
    ], ids=repr)
    def test_shannon_within_its_tail_bound(self, d):
        mpmath = pytest.importorskip("mpmath")
        res = discrete_entropy_sum(d, "p_log_p", 1.0)
        with mpmath.workdps(50):
            exact = mpmath_series(mpmath, d)
            assert abs(res.value - exact) <= res.tail_bound
        assert res.last_k < 100 and shannon(d) == -res.value

    @pytest.mark.parametrize("d", [Poisson(1e-310), Poisson(1e-320), Binomial(10, 1e-320)],
                             ids=repr)
    def test_bound_covers_the_exp_rounding_carried_by_log_p(self, d):
        """p_1 is subnormal: its exp rounds by up to 2**-1075, t = p_1 log p_1 by |log p_1| that."""
        res = discrete_entropy_sum(d, "p_log_p", 1.0)
        log_p1 = float(logpmf(d, 1.0))
        assert 0.0 < math.exp(log_p1) < 2.0**-1022
        # in units of the smallest double, 2**-1074, so that the half-unit stays exact
        assert res.tail_bound / 2.0**-1074 >= 0.5 * abs(log_p1) > 350.0

    @pytest.mark.parametrize("d", [
        Poisson(3.0), Logarithmic(0.9999999999), NegBinomialConditional(0.9999999, 0.5),
    ], ids=repr)
    def test_normal_rates_keep_their_bound(self, d, monkeypatch):
        """Subnormal terms at a normal rate (the last two have some) move no bit of the bound."""
        res = discrete_entropy_sum(d, "p_log_p", 1.0)
        assert type(res.tail_bound) is float
        monkeypatch.setattr(oracle, "_MIN_NORMAL", 0.0)  # no term counts as subnormal
        assert discrete_entropy_sum(d, "p_log_p", 1.0) == res

    def test_ratio_bound_below_the_reciprocal_range(self):
        """1/rho overflows for rho < 5.6e-309; -log(rho) does not."""
        q = oracle._tail_ratio(1e-310, -800.0, 1.0, True)
        assert 0.0 < q < 1e-300


class TestFarBelowHugeMeans:
    """Where (x - m)/m rounds to -1 (x below m 2**-53), bd0 takes x (log x - log m) - (x - m)."""

    @pytest.mark.parametrize("d, ks", [
        (Poisson(1e17), [1.0, 2.0]), (Binomial(10**18, 0.5), [1.0]),
    ], ids=["poisson", "binomial"])
    def test_log_pmf_against_mpmath(self, d, ks):
        mpmath = pytest.importorskip("mpmath")
        got = logpmf(d, ks)
        with mpmath.workdps(40):
            log_p = poisson_log_p if isinstance(d, Poisson) else binomial_log_p
            want = [log_p(mpmath, d, int(k)) for k in ks]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w)
        assert np.all(pmf(d, ks) == 0.0)


BATCHED = [Poisson(1e4), Binomial(10**6, 0.3), Binomial(1000, 0.5),
           NegBinomialConditional(0.05, 0.3), Logarithmic(1e-3)]


class TestBatchedEvaluation:
    """One logpmf call per series, both directions in it; the blocks are certified as before."""

    @staticmethod
    def logged_calls(monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "logpmf",
                            lambda d, ks: calls.append(np.array(ks, dtype=float)) or logpmf(d, ks))
        return calls

    @pytest.mark.parametrize("d", BATCHED, ids=repr)
    def test_one_call_per_series_holding_exactly_the_terms_summed(self, d, monkeypatch):
        _, _, summed = per_block_shannon(d)
        calls = self.logged_calls(monkeypatch)
        discrete_entropy_sum(d, "p_log_p", 1.0)
        assert len(calls) == 1 and len(calls[0]) == summed

    @pytest.mark.parametrize("d", BATCHED + [
        Poisson(0.1), Poisson(70.0), Poisson(2e5), Binomial(10, 0.2), Binomial(10**7, 1e-7),
        Binomial(5000, 0.999), NegBinomialConditional(0.5, 4.0), Logarithmic(0.9),
    ], ids=repr)
    def test_matches_one_call_per_block(self, d):
        value, last_up, _ = per_block_shannon(d)
        res = discrete_entropy_sum(d, "p_log_p", 1.0)
        assert res.last_k == last_up
        assert abs(res.value - value) <= res.tail_bound

    def test_a_first_batch_cut_by_the_shared_budget_is_evaluated_again(self, monkeypatch,
                                                                        oracle_settings):
        """Poisson(1781.9) sums 448 terms upward, which its estimate of log p predicts; one
        10 nats high predicts 960.  At max_terms = 1060 the downward prediction then has 100
        terms left, so its first batch ends inside its second block; a later batch evaluates
        that block whole, and the sum is the default one."""
        d = Poisson(1781.9)
        want = discrete_entropy_sum(d, "p_log_p", 1.0)
        plan = oracle._plan

        def high(d, alpha):
            exact = plan(d, alpha)
            return exact._replace(log_p=lambda k: exact.log_p(k) + 10.0)

        monkeypatch.setattr(oracle, "_plan", high)
        calls = self.logged_calls(monkeypatch)
        oracle_settings(max_terms=1060)
        assert discrete_entropy_sum(d, "p_log_p", 1.0) == want
        assert [len(ks) for ks in calls] == [1060, 384]
        assert calls[1][0] == calls[0][64]  # the downward block at position 64, from its start

    def test_no_batch_asks_past_the_term_budget(self, monkeypatch, oracle_settings):
        calls = self.logged_calls(monkeypatch)
        oracle_settings(max_terms=10**4)
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(Poisson(2e7), "p_log_p", 1.0)
        assert calls and sum(map(len, calls)) <= 10**4

    @pytest.mark.parametrize("d", [Poisson(5.0), Logarithmic(0.5)], ids=repr)
    def test_a_one_term_budget_is_a_budget_error(self, d, oracle_settings):
        oracle_settings(max_terms=1)
        with pytest.raises(SeriesBudgetError):
            discrete_entropy_sum(d, "p_log_p", 1.0)

    def test_no_batch_holds_more_than_the_largest_block(self, monkeypatch):
        calls = self.logged_calls(monkeypatch)
        discrete_entropy_sum(Logarithmic(1e-4), "p_log_p", 1.0)
        assert len(calls) > 1 and max(map(len, calls)) <= 65536

    def test_the_weight_is_evaluated_once_per_batch(self, monkeypatch):
        calls = self.logged_calls(monkeypatch)
        weights = []

        def weight(ks):
            weights.append(len(ks))
            return np.log(ks + 1.0)

        discrete_expectation(Poisson(1e4), weight)
        # eight blocks in one call: before it, one weight call on the block ends where the
        # two first batches may end (at most ten a direction) sizes them
        assert len(calls) == 1 and weights[0] <= 20
        assert weights[1:] == [len(ks) + 1 for ks in calls]
        weights.clear()
        calls.clear()
        discrete_expectation(Poisson(5.0), weight)  # its first block certifies: no size call
        assert weights == [len(ks) + 1 for ks in calls] == [65]


class TestLogPEstimate:
    """Each discrete plan's libm estimate of log p_k, which sizes batches only, tracks logpmf.

    Within 1e-6 (1 + |log p_k|) at the support's first index, the mode and the mode +- 1, 3
    and 10 sd: a tolerance, as libm's lgamma differs across platforms.
    """

    @staticmethod
    def records():
        """(record, mode, sd) over log-spaced grids of each family's parameters."""
        for lam in np.geomspace(1e-3, 1e8, 200):
            yield Poisson(float(lam)), math.floor(lam), math.sqrt(lam)
        ps = np.geomspace(1e-4, 0.5, 12)
        for n in [*np.unique(np.round(np.geomspace(1, 1e9, 40)).astype(int)), 10**15, 10**16,
                  10**17]:
            for p in np.concatenate([ps, 1.0 - ps]):
                n, p = int(n), float(p)
                yield Binomial(n, p), math.floor((n + 1) * p), math.sqrt(n * p * (1.0 - p))
        for p in np.geomspace(1e-4, 0.9999, 12):
            p = float(p)
            for r in np.geomspace(1e-6, 1e3, 10):
                # the negative binomial's mode and sd, r (1 - p) / p**2 its variance
                r = float(r)
                yield (NegBinomialConditional(p, r), math.floor((r - 1.0) * (1.0 - p) / p),
                       math.sqrt(r * (1.0 - p)) / p)
            var = -(1.0 - p) * ((1.0 - p) + math.log(p)) / (p * math.log(p)) ** 2
            yield Logarithmic(p), 1, math.sqrt(var)

    def test_within_a_millionth_of_log_pmf(self):
        for d, mode, sd in self.records():
            lo, hi = d.support
            ks = {lo, *(round(mode + m * sd) for m in (0, -1, 1, -3, 3, -10, 10))}
            ks = sorted(float(k) for k in ks if lo <= k <= hi)
            estimate = oracle._plan(d, 1.0).log_p
            for k, lp in zip(ks, logpmf(d, np.array(ks))):
                assert abs(estimate(int(k)) - lp) <= 1e-6 * (1.0 + abs(lp)), (d, k)

    def test_a_huge_binomial_evaluates_exactly_the_terms_it_sums(self, monkeypatch):
        """At the mode of Binomial(1e17, 1e-12) the estimate holds (a difference of log-gammas
        near 4e18 read 521 nats high there): one call, its points the terms summed."""
        points, summed, series = [], [], oracle._series
        monkeypatch.setattr(oracle, "logpmf",
                            lambda d, ks: points.append(len(ks)) or logpmf(d, ks))
        monkeypatch.setattr(oracle, "_series",
                            lambda *args: summed.append((out := series(*args))[2]) or out)
        d = Binomial(10**17, 1e-12)
        discrete_entropy_sum(d, "p_log_p", 1.0)
        assert len(points) == 1 and points == [sum(summed)]
        mode = math.floor((d.n + 1) * d.p)
        assert abs(oracle._plan(d, 1.0).log_p(mode) - logpmf(d, float(mode))) <= 1e-12

    def test_an_estimate_past_lgamma_and_nan_terms_warn_of_nothing(self, monkeypatch,
                                                                    oracle_settings):
        """At r = 1e306 lgamma(r) overflows in the estimate, which then predicts no
        certificate (the first batch reaches its limit), and log p_k is -inf: the terms
        0 * -inf are NaN, silently, and the NaN blocks every certificate."""
        calls = []
        monkeypatch.setattr(oracle, "logpmf", lambda d, ks: calls.append(len(ks)) or logpmf(d, ks))
        oracle_settings(max_terms=10**5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesBudgetError):
                discrete_entropy_sum(NegBinomialConditional(0.5, 1e306), "p_log_p", 1.0)
        assert calls[0] == 32704


UNBATCHED = [Poisson(0.1), Poisson(70.0), Poisson(1e4), Poisson(436416.00320465304),
             Binomial(10, 0.2), Binomial(1000, 0.5), Binomial(10**6, 0.3), Binomial(10**7, 1e-7),
             NegBinomialConditional(0.05, 0.3), NegBinomialConditional(0.5, 4.0),
             Logarithmic(1e-3), Logarithmic(0.9)]


class TestBatchesDoNotChangeValues:
    """The batch plan decides which terms one logpmf call evaluates, never what they sum to."""

    @staticmethod
    def runs(monkeypatch, run):
        """The default run, then runs whose batches are one block or reach their limit."""
        results = [run()]
        plan = oracle._plan
        # an estimate of 0 certifies nowhere (each batch reaches its limit), one of -inf at
        # once (each batch is one block)
        for estimate in (0.0, -math.inf):
            monkeypatch.setattr(oracle, "_plan", lambda d, alpha, estimate=estimate: plan(
                d, alpha)._replace(log_p=lambda k: estimate))
            results.append(run())
        monkeypatch.setattr(oracle, "_plan", plan)
        monkeypatch.setattr(oracle, "_MAX_BATCH", 1)  # every batch is one block
        return results + [run()]

    @pytest.mark.parametrize("transform, alpha", [
        ("p_log_p", 1.0), ("p_alpha", 0.7), ("p_alpha_log_p", 1.6)])
    @pytest.mark.parametrize("d", UNBATCHED, ids=repr)
    def test_entropy_sums(self, d, transform, alpha, monkeypatch):
        default, *others = self.runs(monkeypatch,
                                     lambda: discrete_entropy_sum(d, transform, alpha))
        assert others == [default] * 3

    @pytest.mark.parametrize("d", UNBATCHED, ids=repr)
    def test_expectations(self, d, monkeypatch):
        default, *others = self.runs(monkeypatch, lambda: discrete_expectation(
            d, lambda ks: np.log(np.asarray(ks, dtype=float) + 1.0)))
        assert others == [default] * 3


class TestGR1SharesOneExp:
    def test_one_exp_per_batch_of_nodes(self, monkeypatch):
        """GR1's p**alpha log p row multiplies the p**alpha row by log p: one exp per pass."""
        calls = {"exp": 0, "logpdf": 0}
        real_exp, real_logpdf = np.exp, oracle.logpdf

        def exp(*args, **kwargs):
            calls["exp"] += 1
            return real_exp(*args, **kwargs)

        def logpdf(d, x):
            calls["logpdf"] += 1
            return real_logpdf(d, x)

        d = Gamma(1.3, 2.2)
        want = (integral_p_alpha(d, 1.7), integral_p_alpha_log_p(d, 1.7))
        monkeypatch.setattr(oracle, "logpdf", logpdf)
        monkeypatch.setattr(np, "exp", exp)
        value = entropy_estimate(d, "gr1", 1.7, None)
        monkeypatch.undo()
        assert calls["logpdf"] >= 1 and calls["exp"] == calls["logpdf"]
        assert value == pytest.approx(-want[1].value / want[0].value, rel=1e-9)


class TestEntropyEstimateArguments:
    @pytest.mark.parametrize("measure, alpha, beta", [
        ("renyi", 1.0, None), ("gr2", 2.0, 2.0), ("sm", 2.0, 1.0), ("renyi", None, None),
        ("entropy", None, None)])
    def test_orders_are_checked_as_a_spec(self, measure, alpha, beta):
        with pytest.raises(ParameterError):
            entropy_estimate(Exponential(1.0), measure, alpha, beta)

    def test_modified_is_named(self):
        with pytest.raises(ParameterError, match="no modified entropy"):
            entropy_estimate(Exponential(1.0), "modified", None, None)

    def test_power_integral_needs_an_order(self):
        with pytest.raises(ParameterError):
            integral_p_alpha(Exponential(1.0), None)

    def test_discrete_records(self):
        d = Poisson(3.0)
        want = -discrete_entropy_sum(d, "p_log_p", 1.0).value
        assert entropy_estimate(d, "shannon", None, None) == want
        with pytest.raises(UnsupportedFamilyError):
            entropy_estimate(d, "renyi", 2.0, None)

    @pytest.mark.parametrize("measure, alpha, beta", [
        ("renyi", 3.5, None), ("gr1", 3.5, None), ("gr2", 3.5, 0.5), ("gr2", 0.5, 3.5),
        ("sm", 3.5, 0.5)])
    def test_underflowed_power_integral(self, measure, alpha, beta):
        """A measure that takes the log of J(3.5) = 0.0, or divides by it, names the integral."""
        d = Gamma(1e-200, 2.0)
        assert integral_p_alpha(d, 3.5) == (0.0, 0.0)
        with pytest.raises(NonConvergenceError, match=r"integral of p\*\*3.5 underflows"):
            entropy_estimate(d, measure, alpha, beta)

    @pytest.mark.parametrize("measure, beta, want", [("tsallis", None, 0.4), ("sm", 5.0, 0.25)])
    def test_underflowed_power_integral_where_no_log_is_taken(self, measure, beta, want):
        """Tsallis, and Sharma-Mittal with a positive power of J, need no log of J = 0.0."""
        assert entropy_estimate(Gamma(1e-200, 2.0), measure, 3.5, beta) == want

    @pytest.mark.parametrize("mu", [1e12, 1e14, 1e16, 1e20, 1e200])
    def test_density_zero_at_every_node_raises(self, mu, monkeypatch):
        """A concentrated Gamma falls between the nodes: no value "converges" to 0 from nothing."""
        calls = []
        monkeypatch.setattr(oracle, "logpdf",
                            lambda d, x: calls.append(np.size(x)) or logpdf(d, x))
        d = Gamma(1.0, mu)
        runs = [lambda: integral_p_alpha(d, 1.0),
                lambda: integral_p_alpha_log_p(d, 2.0),
                lambda: entropy_estimate(d, "shannon", None, None),
                lambda: entropy_estimate(d, "gr2", 0.5, 2.0),
                lambda: kl_integral(d, Gamma(1.0, 2.0))]
        for run in runs:
            calls.clear()
            with pytest.raises(NonConvergenceError, match=r"density of gamma:lambda=1\.0,mu="
                                                           r".* is 0 at every quadrature node"):
                run()
            first_pass = 15 * (len(oracle._PLAIN_MESH) - 1)  # 15 nodes per panel
            assert calls[0] == first_pass and len(calls) <= 2  # KL's q once more

    def test_density_zero_at_some_nodes_still_integrates(self):
        """p > 0 at some node: p**3.5 may underflow everywhere, p itself integrates."""
        d = Gamma(1e-200, 2.0)
        assert integral_p_alpha(d, 3.5) == (0.0, 0.0)
        assert abs(integral_p_alpha(d, 1.0).value - 1.0) <= 1e-10


def realline_knot(c, scale, p):
    """Where a second split point p sits on the real line's t-mesh centred on c."""
    return (p - c) / (scale + abs(p - c))


class TestConstantMeshes:
    """The half-line and real-line meshes' first passes are built once, at import."""

    MESHES = [oracle._PLAIN_MESH, oracle._REALLINE_MESH, np.linspace(0.0, 1.0, 17)]
    PASSES = [oracle._PLAIN_PASS, oracle._REALLINE_PASS, oracle._UNIT_PASS]
    MAPPED = [oracle._HALF_U, oracle._HALF_UU, oracle._HALF_X, oracle._HALF_JAC,
              oracle._REAL_X, oracle._REAL_JAC]

    def test_read_only(self):
        for array in [*self.MESHES[:2], *(a for first in self.PASSES for a in first),
                      *self.MAPPED]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_the_mapped_nodes_are_the_maps_at_scale_one(self):
        """The shared passes' points and Jacobians, bit for bit what each map computes at
        centre 0, scale 1 and k = 1."""
        t = oracle._PLAIN_PASS[1]
        u = 1.0 - t
        for built, fresh in [(oracle._HALF_U, u), (oracle._HALF_UU, u * u),
                             (oracle._HALF_X, 1.0 * t / u), (oracle._HALF_JAC, 1.0 / (u * u))]:
            assert built.tobytes() == fresh.tobytes()
        t = oracle._REALLINE_PASS[1]
        v = 1.0 - np.abs(t)
        assert oracle._REAL_X.tobytes() == (0.0 + 1.0 * (t / v)).tobytes()
        assert oracle._REAL_JAC.tobytes() == (1.0 / (v * v)).tobytes()
        assert oracle._SHARED_X == {"halfline": oracle._HALF_X, "realline": oracle._REAL_X,
                                    "interval": oracle._UNIT_PASS[1]}

    def test_the_meshes_match_np_unique(self):
        """Sorting and dropping equal neighbours builds np.unique's meshes, -0.0 and all."""
        plain = np.unique(np.concatenate([np.geomspace(1e-3, 0.05, 4)[:-1],
                                          np.linspace(0.0, 0.9, 19),
                                          1.0 - np.geomspace(0.1, 1e-5, 13), [1.0]]))
        line = np.unique(np.concatenate([-plain[::-1], plain]))
        assert oracle._PLAIN_MESH.tobytes() == plain.tobytes()
        assert oracle._REALLINE_MESH.tobytes() == line.tobytes()
        points = [0.3, -0.0, 0.0, 0.3, -1.0, 2.0, 2.0]
        assert oracle._mesh(points).tobytes() == np.unique(points).tobytes()

    @pytest.mark.parametrize("mesh, built", list(zip(MESHES, PASSES)),
                             ids=["halfline", "realline", "interval"])
    def test_the_import_time_pass_is_first_pass_of_the_mesh(self, mesh, built):
        """Panels, nodes and half-widths agree bit for bit with a pass built now."""
        fresh = oracle._first_pass(mesh.copy())
        assert len(built) == len(fresh) == 3
        for a, b in zip(built, fresh):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d, first, points", [
        (Gamma(2.0, 3.0), "_PLAIN_PASS", 510),
        (Normal(0.5, 2.0), "_REALLINE_PASS", 1020),
        (Uniform(0.0, 2.0), "_UNIT_PASS", 240),
    ], ids=["halfline", "realline", "interval"])
    def test_each_value_enters_integrate_interval_once(self, d, first, points, monkeypatch):
        """Where bench/spans.py counts runs and points: one run per value, its first pass whole."""
        runs, original = [], oracle.integrate_interval

        def counted(f, pass_):
            seen = []
            runs.append((pass_, seen))
            return original(lambda x: seen.append(x.size) or f(x), pass_)

        monkeypatch.setattr(oracle, "integrate_interval", counted)
        entropy_estimate(d, "shannon")
        [(pass_, seen)] = runs
        assert seen[0] == points
        assert pass_ is getattr(oracle, first)

    @pytest.mark.parametrize("run, first", [
        (lambda: entropy_estimate(Uniform(-1.0, 2.0), "shannon"), "_UNIT_PASS"),
        (lambda: kl_integral(Uniform(0.5, 4.0), Uniform(0.5, 4.0)), "_UNIT_PASS"),
        (lambda: kl_integral(Exponential(3.0), Gamma(0.5, 2.0)), "_PLAIN_PASS"),
        (lambda: integral_p_alpha_log_p(Laplace(1e3, 0.1), 2.5), "_REALLINE_PASS"),
    ], ids=["interval", "kl-interval", "kl-halfline", "realline-two-rows"])
    def test_a_standard_record_runs_the_shared_pass(self, run, first, monkeypatch):
        """Every interval is U(0, 1)'s 16 equal panels, and a half-line KL or a real-line value
        without a second split point starts from the constant pass."""
        passes, original = [], oracle.integrate_interval
        monkeypatch.setattr(oracle, "integrate_interval",
                            lambda f, pass_: passes.append(pass_) or original(f, pass_))
        run()
        assert passes == [getattr(oracle, first)] and passes[0] is getattr(oracle, first)

    @pytest.mark.parametrize("run, mesh", [
        (lambda: kl_integral(Normal(0.5, 2.0), Normal(-1.0, 0.5)),
         np.union1d(oracle._REALLINE_MESH,
                    [realline_knot(0.0, 1.0, (-1.0 - 0.5) / math.sqrt(2.0))])),
        (lambda: kl_integral(Laplace(0.4, 0.8), Laplace(3.0, 2.0)),
         np.union1d(oracle._REALLINE_MESH, [realline_knot(0.0, 1.0, (3.0 - 0.4) / (1.0 / 0.8))])),
        (lambda: kl_integral(Laplace(1e3, 1.0), Normal(-1e3, 4.0)),
         np.union1d(oracle._REALLINE_MESH, [realline_knot(0.0, 1.0, -2e3)])),
        (lambda: kl_integral(Normal(0.0, 1.0), Laplace(0.0, 1.0)),
         np.union1d(oracle._REALLINE_MESH, [0.0])),
    ], ids=["kl-normal", "kl-laplace", "kl-far-apart", "kl-same-centre"])
    def test_a_pass_built_per_run_is_first_pass_of_its_mesh(self, run, mesh, monkeypatch):
        """q's location, mapped by p's (c, s), joins the standard real-line mesh."""
        passes, original = [], oracle.integrate_interval

        def recorded(f, first):
            passes.append(first)
            return original(f, first)

        monkeypatch.setattr(oracle, "integrate_interval", recorded)
        run()
        [first] = passes
        want = oracle._first_pass(mesh)
        assert len(first) == len(want) == 3
        for a, b in zip(first, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestVectorRuns:
    """One adaptive run per oracle value: c integrals on one mesh, one real-line t-mesh."""

    @staticmethod
    def panel_counts(monkeypatch):
        """Panels held after each pass of every integrate_interval run, one list per run."""
        runs = []
        original = oracle.integrate_interval

        def counted(f, first):
            held = []
            runs.append(held)

            def g(x):
                evaluated = np.size(x) // 15
                # the first pass evaluates every panel; later ones the four parts of each split
                held.append(evaluated if not held else held[-1] + 3 * evaluated // 4)
                return f(x)

            return original(g, first)

        monkeypatch.setattr(oracle, "integrate_interval", counted)
        return runs

    def test_two_components_match_two_scalar_runs(self):
        d = Gamma(0.8, 0.6)  # p**1.9 ~ x**-0.76 at 0: the power map with k = 4/0.24
        rows = [(0.7, False), (1.9, True)]

        def weight(alpha, with_log):
            def g(x):
                lp = logpdf(d, x)
                with np.errstate(all="ignore"):
                    w = np.exp(alpha * lp)
                    return np.where(np.isneginf(lp), 0.0, w * lp) if with_log else w
            return g

        both = oracle.integrate_halfline(
            lambda x: np.stack([weight(*row)(x) for row in rows]), scale=0.6, power_at_zero=-0.76)
        assert both.value.shape == both.error.shape == (2,)
        for i, row in enumerate(rows):
            alone = oracle.integrate_halfline(weight(*row), scale=0.6, power_at_zero=-0.76)
            assert isinstance(alone.value, float) and isinstance(alone.error, float)
            tol = max(oracle._ABS_TOL, oracle._REL_TOL * abs(alone.value))
            assert both.error[i] <= max(oracle._ABS_TOL, oracle._REL_TOL * abs(both.value[i]))
            assert abs(both.value[i] - alone.value) <= 2.0 * tol

    def test_each_component_meets_its_own_tolerance(self):
        # a large and a small integral: the large one's tolerance would starve the small one
        def f(x):
            return np.stack([1e6 * np.cos(x), np.exp(-x) * np.sqrt(x)])

        res = integrate_interval(f, oracle._first_pass(np.linspace(0.0, 2.0, 3)))
        big = 1e6 * math.sin(2.0)
        assert abs(res.value[0] - big) <= 2.0 * oracle._REL_TOL * abs(big)
        for value, error in zip(res.value, res.error):
            assert error <= max(oracle._ABS_TOL, oracle._REL_TOL * abs(value))
        mpmath = pytest.importorskip("mpmath")
        exact = float(mpmath.quad(lambda t: mpmath.exp(-t) * mpmath.sqrt(t), [0, 2]))
        assert abs(res.value[1] - exact) <= 2.0 * oracle._REL_TOL * exact

    @pytest.mark.parametrize("budget", [16, 40, 100])
    def test_no_run_holds_more_than_max_subdivisions_panels(self, budget, monkeypatch,
                                                             oracle_settings):
        runs = self.panel_counts(monkeypatch)

        def wild(x):
            return np.cos(200.0 * x) * np.cos(3000.0 * x**2)

        oracle_settings(max_subdivisions=budget)
        with pytest.raises(NonConvergenceError):
            oracle.integrate_interval(wild, oracle._first_pass(np.linspace(0.0, 3.0, 3)))
        assert len(runs) == 1 and len(runs[0]) > 1
        assert max(runs[0]) <= budget
        assert max(runs[0]) > budget - 3  # the last split that fitted was made

    def test_panel_budget_holds_for_the_oracle_values(self, monkeypatch, oracle_settings):
        runs = self.panel_counts(monkeypatch)
        oracle_settings(max_subdivisions=300)
        entropy_estimate(Gamma(0.5, 0.5), "gr2", 0.6, 1.3)
        kl_integral(Laplace(0.0, 1.0), Laplace(300.0, 2.0))
        kl_integral(Gamma(2.0, 1.05), Gamma(0.5, 3.0))
        assert len(runs) == 3
        assert max(max(held) for held in runs) <= 300

    def test_gamma_shannon_takes_one_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "logpdf",
                            lambda d, x: calls.append(np.size(x)) or logpdf(d, x))
        h = entropy_estimate(Gamma(1.3, 2.2), "shannon", None, None)
        assert calls == [15 * (len(oracle._PLAIN_MESH) - 1)]
        # Gamma(lambda, mu): mu - log lambda + lgamma(mu) + (1 - mu) digamma(mu)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            mu = mpmath.mpf(2.2)
            want = mu - mpmath.log(1.3) + mpmath.loggamma(mu) + (1 - mu) * mpmath.digamma(mu)
        assert abs(h - float(want)) <= 1e-10 * (1.0 + abs(h))

    @pytest.mark.parametrize("lam_p, lam_q", [(0.3, 1.0), (1.0, 1.0), (4.0, 0.5)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("distance", np.geomspace(1e-3, 1e6, 10))
    def test_laplace_kl_over_split_distances(self, distance, sign, lam_p, lam_q):
        """|mu_p - mu_q| from 1e-3 to 1e6 scale units 1/lam_p."""
        d = distance / lam_p
        v = kl_integral(Laplace(0.7, lam_p), Laplace(0.7 + sign * d, lam_q)).value
        want = (math.log(lam_p / lam_q) + lam_q * d + (lam_q / lam_p) * math.exp(-lam_p * d)
                - 1.0)
        assert abs(v - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("sd_p, sd_q", [(0.3, 1.0), (1.0, 1.0), (4.0, 0.5)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("distance", np.geomspace(1e-3, 1e6, 10))
    def test_normal_kl_over_split_distances(self, distance, sign, sd_p, sd_q):
        """|mean_p - mean_q| from 1e-3 to 1e6 scale units sd_p."""
        d = distance * sd_p
        v = kl_integral(Normal(0.7, sd_p**2), Normal(0.7 + sign * d, sd_q**2)).value
        want = 0.5 * (math.log(sd_q**2 / sd_p**2) + (sd_p**2 + d * d) / sd_q**2 - 1.0)
        assert abs(v - want) <= 1e-12 * (1.0 + abs(want))

    @staticmethod
    def realline_bits(interior, scale=1.0):
        d = Laplace(0.4, 0.8)

        def g(x):
            return np.exp(logpdf(d, x)) * np.cos(x)

        return pickle.dumps(oracle.integrate_realline(g, interior, scale=scale))

    def test_realline_is_centred_on_its_first_split_point(self):
        """p - c = scale puts p's breakpoint at t = +-1/2, a point of the mesh already."""
        assert self.realline_bits([0.0, 2.0], scale=2.0) == self.realline_bits([0.0], scale=2.0)
        assert self.realline_bits([2.0, 0.0], scale=2.0) == self.realline_bits([2.0], scale=2.0)
        assert self.realline_bits([0.0], scale=2.0) != self.realline_bits([2.0], scale=2.0)

    def test_realline_other_split_points_in_any_order_and_repeated(self):
        want = self.realline_bits([0.4, -3.0, 1.7, 9.0])
        assert self.realline_bits([0.4, 9.0, -3.0, 1.7]) == want
        assert self.realline_bits([0.4, 1.7, 1.7, 0.4, -3.0, 9.0, -3.0]) == want

    @pytest.mark.parametrize("interior, scale", [
        ([-1e308, 1e308], 1.0), ([0.0, 1.7e308], 1e308), ([-1e308, 0.0, 1e308], 1.0),
    ], ids=["gap", "gap_plus_scale", "third_point"])
    def test_realline_gap_past_the_float_range_is_a_parameter_error(self, interior, scale):
        with pytest.raises(ParameterError, match="past the float range"):
            oracle.integrate_realline(lambda x: np.exp(-np.abs(x)), interior, scale=scale)

    def test_realline_meets_its_tolerance_on_two_modes_far_apart(self):
        """The second mode, 1e3 scale units from the centre, lies where the map stretches."""
        def g(x):
            return (np.exp(-0.5 * x * x) + np.exp(-0.5 * (x - 1e3) ** 2)) / math.sqrt(2 * math.pi)

        for interior in ([0.0, 1e3], [1e3, 0.0]):
            res = oracle.integrate_realline(g, interior, scale=1.0)
            tol = max(oracle._ABS_TOL, oracle._REL_TOL * 2.0)
            assert res.error <= tol
            assert abs(res.value - 2.0) <= tol

    def test_realline_is_one_run_at_any_number_of_split_points(self, monkeypatch):
        runs = self.panel_counts(monkeypatch)
        d = Normal(0.4, 2.0)

        def p(x):
            return np.exp(logpdf(d, x))

        for interior in ([0.4], [-1.0, 0.4], [-3.0, -1.0, 0.4, 2.5], [0.4, 0.4]):
            res = oracle.integrate_realline(p, interior, scale=math.sqrt(2.0))
            assert abs(res.value - 1.0) <= 2.0 * oracle._ABS_TOL
        assert len(runs) == 4


@st.composite
def gamma_cases(draw):
    """Gamma(lam, mu) with lam in [1e-6, 1e6], mu in [0.05, 30], orders keeping a + 1 >= 0.05."""
    lam = 10.0 ** draw(st.floats(-6.0, 6.0))
    mu = 10.0 ** draw(st.floats(math.log10(0.05), math.log10(30.0)))
    measure = draw(st.sampled_from(("shannon", "renyi", "gr1", "gr2", "tsallis")))
    hi = 3.5 if mu >= 1.0 else min(3.5, 0.95 / (1.0 - mu))
    return lam, mu, measure, draw(st.floats(0.2, hi)), draw(st.floats(0.2, hi))


class TestHalflineEndpoint:
    """x = scale*s/(1-s), s = t**k, makes an x**a endpoint at 0 smooth; a + 1 < 1/20 raises."""

    @given(case=gamma_cases())
    @example(case=(5.5256709305484704e-06, 0.6953860627304576, "gr2",
                   2.4299759079281533, 2.579389208642617))
    @example(case=(0.34181289346503996, 0.05387751047566782, "shannon", 1.0, 1.0))
    @example(case=(236896.89399523422, 0.3076637528788755, "gr1", 1.371498576458131, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_gamma_measures_against_mpmath(self, case):
        """Within 1e-10 (1 + |v|) of 40-digit mpmath, or NonConvergenceError."""
        mpmath = pytest.importorskip("mpmath")
        lam, mu, measure, alpha, beta = case
        # the orders a measure takes, off 1 and apart as the selftest draws them
        alpha, beta = {"shannon": (None, None), "gr2": (alpha, beta)}.get(measure, (alpha, None))
        for order in (alpha, beta):
            assume(order is None or abs(order - 1.0) >= 0.05)
        assume(beta is None or abs(beta - alpha) >= 0.05)
        try:
            v = entropy_estimate(Gamma(lam, mu), measure, alpha, beta)
        except NonConvergenceError:
            return
        with mpmath.workdps(40):
            exact = float(gamma_measure(mpmath, measure, lam, mu, alpha, beta))
        assert abs(v - exact) <= 1e-10 * (1.0 + abs(exact))

    @pytest.mark.parametrize("mu", [0.05, 0.07, 0.1])
    def test_error_estimate_is_honest_near_the_floor(self, mu):
        mpmath = pytest.importorskip("mpmath")
        res = integral_p_alpha_log_p(Gamma(1.0, mu), 1.0)
        with mpmath.workdps(40):
            exact = float(gamma_log_j_slope(mpmath, 1.0, mu, 1.0))
        assert abs(res.value - exact) <= res.error

    def test_kl_with_p_at_the_floor(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = float(gamma_kl(mpmath, 1.0, 0.05, 2.0, 3.0))
        assert abs(kl_integral(Gamma(1.0, 0.05), Gamma(2.0, 3.0)).value - exact) <= 1e-12

    @pytest.mark.parametrize("mu_p, lam_p, lam_q", [
        (0.2, 1.0, 1.0), (0.2, 5.0, 0.7), (1.0, 0.3, 2.0), (3.0, 0.3, 2.0), (12.0, 1.0, 1.0)])
    def test_kl_reads_the_power_of_p_not_of_q(self, mu_p, lam_p, lam_q):
        """q's x**(1e-6 - 1) enters only through log q, a log factor: no floor error."""
        mpmath = pytest.importorskip("mpmath")
        v = kl_integral(Gamma(lam_p, mu_p), Gamma(lam_q, 1e-6)).value
        with mpmath.workdps(40):
            exact = float(gamma_kl(mpmath, lam_p, mu_p, lam_q, 1e-6))
        assert abs(v - exact) <= 1e-13 * (1.0 + abs(exact))

    @pytest.mark.parametrize("a1", [*np.geomspace(1e-14, 0.0499, 9), 0.04])
    def test_below_the_floor_raises(self, a1):
        """Shannon, Renyi, GR1 and KL never return a value once a + 1 < 1/20."""
        shape_at_two = 1.0 + (a1 - 1.0) / 2.0  # alpha (mu - 1) + 1 = a1 at alpha = 2
        calls = [
            lambda: entropy_estimate(Gamma(1.0, a1), "shannon", None, None),
            lambda: entropy_estimate(Gamma(0.3, shape_at_two), "renyi", 2.0, None),
            lambda: entropy_estimate(Gamma(40.0, shape_at_two), "gr1", 2.0, None),
            lambda: kl_integral(Gamma(2.0, a1), Gamma(1.0, 2.0)),
        ]
        for call in calls:
            with pytest.raises(NonConvergenceError, match="past doubles"):
                call()

    @pytest.mark.parametrize("power", [3.0, 0.0, -0.5, -0.95, 2.5, 10.0])
    def test_every_run_starts_from_the_plain_mesh(self, power, monkeypatch):
        runs = TestVectorRuns.panel_counts(monkeypatch)
        integrate_halfline(lambda x: x**power * np.exp(-x), scale=1.0, power_at_zero=power)
        entropy_estimate(Gamma(1.0, power + 1.0), "shannon", None, None)  # p ~ x**power
        panels = len(oracle._PLAIN_MESH) - 1
        assert [held[0] for held in runs] == [panels, panels]


def lognormal_p_alpha_log_p(mpmath, m, sigma2, alpha):
    """Integral of p**alpha log p for LogNormal(m, sigma2), at mpmath's working precision.

    In y = log x the escort p**alpha / J(alpha) is normal, with mean
    m + (1 - alpha) sigma2 / alpha and variance sigma2 / alpha: the integral
    is J(alpha) times the escort mean of log p = -y - log(2 pi sigma2)/2 - (y - m)**2/(2 sigma2).
    """
    m, s, a = mpmath.mpf(m), mpmath.mpf(sigma2), mpmath.mpf(alpha)
    mean = m + (1 - a) * s / a
    log_j = ((1 - a) * m + (1 - a) ** 2 * s / (2 * a) + (1 - a) / 2 * mpmath.log(2 * mpmath.pi * s)
             - mpmath.log(a) / 2)
    mean_log_p = -mean - mpmath.log(2 * mpmath.pi * s) / 2 - (s / a + (mean - m) ** 2) / (2 * s)
    return mpmath.exp(log_j) * mean_log_p


class TestGradedFirstMesh:
    """One first mesh, graded toward both ends of the map: most values take one pass."""

    def test_plain_mesh_structure(self):
        mesh = oracle._PLAIN_MESH
        assert mesh[0] == 0.0 and mesh[-1] == 1.0
        assert np.all(np.diff(mesh) > 0.0)
        assert 0.5 in mesh  # the real line's t = +-1/2, its first split point +- one scale
        assert np.diff(mesh).min() >= 1e-6  # no panel left an ulp wide by the union
        line = oracle._REALLINE_MESH
        assert np.array_equal(line, -line[::-1]) and np.array_equal(line[len(mesh) - 1:], mesh)

    @pytest.mark.parametrize("m, sigma2, alpha", [
        (1.4638539755315008, 2.0800457949637603, 1.0),
        (1.5, 2.0, 0.6), (-2.0, 4.0, 0.3), (2.0, 4.0, 0.3), (2.0, 4.0, 1.0),
        (-1.0, 4.0, 1.0), (0.0, 3.0, 1.7), (2.0, 4.0, 3.5), (-2.0, 4.0, 3.5)])
    def test_wide_lognormal_within_its_error_estimate(self, m, sigma2, alpha):
        """The first case reported an error of 1.45e-10 while 2.0e-9 off on a 15-panel mesh."""
        mpmath = pytest.importorskip("mpmath")
        res = integral_p_alpha_log_p(LogNormal(m, sigma2), alpha)
        with mpmath.workdps(40):
            exact = float(lognormal_p_alpha_log_p(mpmath, m, sigma2, alpha))
        assert abs(res.value - exact) <= max(res.error, 1e-14)

    def test_most_values_take_one_pass(self, monkeypatch):
        """Desk draws of every continuous family: one pass for 95% of values, 90% per family.

        Passes are counted at the panel rule: a standard record's first pass calls no logpdf.
        """
        calls = []
        gk_apply = oracle._gk_apply
        monkeypatch.setattr(oracle, "_gk_apply",
                            lambda f, x, h: calls.append(np.size(x)) or gk_apply(f, x, h))
        rng = np.random.default_rng(2028)
        one_pass = {}
        for family in ORACLE_FAMILIES:
            for measure in ("shannon", "renyi", "gr1", "gr2"):
                for _ in range(25):
                    d = random_distribution(family, rng)
                    spec = random_spec(measure, d, rng)
                    calls.clear()
                    entropy_estimate(d, measure, spec.alpha, spec.beta)
                    one_pass.setdefault(family, []).append(len(calls) == 1)
        assert np.mean([flag for flags in one_pass.values() for flag in flags]) >= 0.95
        for family, flags in one_pass.items():
            assert np.mean(flags) >= 0.9, family


# --- the quadrature pass as first written, kept as the reference ----------------------
# The oracle's pass was later trimmed to fewer numpy calls; these copies pin that every
# node, value and error estimate stayed the same double.

REFERENCE_SPLITS = np.linspace(0.0, 1.0, 5)


def reference_gk_apply(f, ends):
    lo, hi = ends
    h = 0.5 * (hi - lo)
    x = (lo + h)[:, None] + h[:, None] * oracle._XK
    with np.errstate(all="ignore"):
        y = np.asarray(f(x.reshape(-1)), dtype=float)
        scalar = y.ndim == 1
        y = y.reshape(-1, 15)
        kd = y @ oracle._W
        k = kd[:, 0]
        resasc = np.abs(y - 0.5 * k[:, None]) @ oracle._WK
        err = resasc * np.fmin(1.0, (200.0 * np.abs(kd[:, 1]) / resasc) ** 1.5)
    est = np.stack([k, err]).reshape(2, -1, len(h)) * h
    est[1] = np.maximum(est[1], np.abs(est[0]) * 5e-16)
    return est, scalar


def reference_integrate_interval(f, breakpoints):
    bp = np.asarray(breakpoints, dtype=float)
    ends = np.stack([bp[:-1], bp[1:]])
    est, scalar = reference_gk_apply(f, ends)
    while True:
        totals, errors = est.sum(axis=2).tolist()
        if not all(map(math.isfinite, totals + errors)):
            raise NonConvergenceError("non-finite quadrature result; integrand invalid")
        tols = [max(oracle._ABS_TOL, oracle._REL_TOL * abs(v)) for v in totals]
        unmet = [i for i, (e, t) in enumerate(zip(errors, tols)) if e > t]
        if not unmet:
            totals = [math.fsum(row) for row in est[0]]
            if scalar:
                return oracle.QuadResult(totals[0], errors[0])
            return oracle.QuadResult(np.array(totals), np.array(errors))
        n = ends.shape[1]
        room = (oracle._MAX_SUBDIVISIONS - n) // 3
        if room < 1:
            i = unmet[0]
            raise NonConvergenceError(
                f"error estimate {errors[i]:.3e} still above tolerance {tols[i]:.3e} "
                f"after {n} panels (max_subdivisions={oracle._MAX_SUBDIVISIONS})")
        share = np.max([est[1, i] / tols[i] for i in unmet], axis=0)
        split = share > 0.5 / n
        if np.count_nonzero(split) > room:
            split[:] = False
            split[np.argpartition(share, -room)[-room:]] = True
        lo, hi = ends[:, split]
        edges = lo[:, None] + (hi - lo)[:, None] * REFERENCE_SPLITS
        edges[:, 4] = hi
        new_ends = np.stack([edges[:, :-1].reshape(-1), edges[:, 1:].reshape(-1)])
        new_est, _ = reference_gk_apply(f, new_ends)
        keep = ~split
        ends = np.concatenate([ends[:, keep], new_ends], axis=1)
        est = np.concatenate([est[:, :, keep], new_est], axis=2)


def reference_halfline(g, scale=1.0, power_at_zero=3.0):
    k = max(1.0, 4.0 / (power_at_zero + 1.0))

    def f(t):
        u = 1.0 - (s := t**k)
        gx = g(x := scale * s / u)
        return np.where((gx == 0.0) | np.isinf(gx) & (x < 2.0**-1022), 0.0,
                        gx * (scale / (u * u) * (k * t ** (k - 1.0))))

    return reference_integrate_interval(f, oracle._PLAIN_MESH)


def reference_realline(g, interior, scale=1.0):
    c = float(interior[0])
    knots = [(float(p) - c) / (scale + abs(float(p) - c)) for p in interior[1:]]

    def f(t):
        v = 1.0 - np.abs(t)
        gx = g(c + scale * (t / v))
        return np.where(gx == 0.0, 0.0, gx * (scale / (v * v)))

    mesh = np.concatenate([-oracle._PLAIN_MESH[::-1], oracle._PLAIN_MESH, knots])
    return reference_integrate_interval(f, np.unique(mesh))


def reference_integrate(g, plan, splits=(0.0,)):
    if plan.map == "halfline":
        return reference_halfline(g, scale=plan.scale, power_at_zero=plan.power_at_zero)
    if plan.map == "realline":  # a standard record, centred on 0
        return reference_realline(g, splits, scale=1.0)
    return reference_integrate_interval(g, np.linspace(0.0, 1.0, 17))  # U(0, 1)


def reference_power_integrals(d, terms):
    """The standard record's rows (d's own at (c, s) = (0, 1)) by the reference pass, then the
    scale law's -log s J1(alpha) added to each log row, from a J1 row where log s != 0."""
    plan = oracle._joint_plan(d, [alpha for alpha, _ in terms])
    record = d if plan.standard is None else plan.standard
    rows = []
    for alpha, with_log in terms:
        if plan.log_s != 0.0 and with_log and alpha != 1.0 and (alpha, False) not in terms:
            rows.append((alpha, False))
        rows.append((alpha, with_log))

    def g(x):
        lp = oracle.logpdf(record, x)
        out = []
        with np.errstate(all="ignore"):
            for alpha, with_log in rows:
                w = np.exp(alpha * lp)
                out.append(np.where(np.isneginf(lp), 0.0, w * lp) if with_log else w)
        return out[0] if len(out) == 1 else np.stack(out)

    res = reference_integrate(g, plan)
    if plan.log_s == 0.0:
        return res, plan.log_s
    values, errors = np.atleast_1d(res.value).tolist(), np.atleast_1d(res.error).tolist()
    found = {}
    for i, (alpha, with_log) in enumerate(rows):
        value, error = values[i], errors[i]
        if with_log:
            j, j_error = (1.0, 0.0) if alpha == 1.0 else (values[rows.index((alpha, False))],
                                                          errors[rows.index((alpha, False))])
            value, error = value - plan.log_s * j, error + abs(plan.log_s) * j_error
        found[alpha, with_log] = (value, error)
    kept = [found[term] for term in terms]
    if len(kept) == 1:
        return oracle.QuadResult(*kept[0]), plan.log_s
    return oracle.QuadResult(*map(np.array, zip(*kept))), plan.log_s


def reference_kl(p, q):
    """p's standard record against q mapped by p's (c, s), q's location a real-line breakpoint."""
    plan = oracle._plan(p, 1.0)
    if plan.standard is not None:
        p, q = plan.standard, oracle._plan(q, 1.0).moved(plan)

    def g(x):
        lp = oracle.logpdf(p, x)
        lq = oracle.logpdf(q, x)
        with np.errstate(all="ignore"):
            out = np.exp(lp) * (lp - lq)
        return np.where(np.isneginf(lp), 0.0, out)

    return reference_integrate(g, plan, (0.0, oracle._plan(q, 1.0).c))


def measure_terms(spec):
    """The (alpha, with_log) rows entropy_estimate integrates for a measure."""
    return {"shannon": [(1.0, True)], "gr1": [(spec.alpha, False), (spec.alpha, True)],
            "gr2": [(spec.alpha, False), (spec.beta, False)]}.get(
                spec.measure, [(spec.alpha, False)])


class TestPassMatchesReference:
    """Every node, value and error estimate of a run is the reference pass's, bit for bit."""

    @staticmethod
    def outcome(run):
        """A run's QuadResult as bytes and types, or the message of its NonConvergenceError."""
        try:
            res = run()
        except NonConvergenceError as exc:
            return str(exc)
        return [np.asarray(v, dtype=float).tobytes() for v in res], [type(v) for v in res]

    @pytest.fixture
    def compare(self, monkeypatch):
        """compare(run, reference): the same outcome from the same nodes.

        The nodes are those handed to oracle.logpdf, which every integrand here calls once
        per pass and density; compare returns the number of those calls.
        """
        nodes = []
        logpdf = oracle.logpdf
        monkeypatch.setattr(oracle, "logpdf",
                            lambda d, x: nodes.append(np.array(x).tobytes()) or logpdf(d, x))

        def check(run, reference):
            # the standard records' log-densities on the shared passes are computed afresh
            monkeypatch.setattr(oracle, "_STANDARD_LOG_P", {})
            got = self.outcome(run)
            got_nodes = nodes[:]
            nodes.clear()
            assert got == self.outcome(reference)
            assert got_nodes == nodes and got_nodes
            passes = len(nodes)
            nodes.clear()
            return passes

        return check

    def test_oracle_values_of_every_family_and_measure(self, compare):
        rng = np.random.default_rng(2020)
        for family in ORACLE_FAMILIES:
            for measure in ORACLE_MEASURES:
                for _ in range(3):
                    d = random_distribution(family, rng)
                    terms = measure_terms(random_spec(measure, d, rng))
                    compare(lambda: oracle._power_integrals(d, terms),
                            lambda: reference_power_integrals(d, terms))

    def test_kl_of_every_family(self, compare):
        rng = np.random.default_rng(2021)
        for family in ORACLE_FAMILIES:
            for _ in range(3):
                p = random_distribution(family, rng)
                q = p if family == "uniform" else random_distribution(family, rng)
                compare(lambda: kl_integral(p, q), lambda: reference_kl(p, q))

    @pytest.mark.parametrize("d, terms", [
        (Exponential(3.0), [(2.5, True)]), (Laplace(-4.0, 0.2), [(0.5, True)]),
        (Normal(1e20, 4.0), [(1.0, True)]), (Uniform(-3.0, 5.0), [(0.7, False), (0.7, True)]),
        (Exponential(1.0), [(2.5, True)]), (Normal(0.3, 0.5), [(0.4, False), (3.0, False)]),
    ], ids=["exp-j1-row", "laplace-j1-row", "normal-far", "uniform-gr1", "exp-at-scale-one",
            "normal-gr2"])
    def test_the_scale_law_of_the_four_standard_families(self, d, terms, compare):
        """The law's log s term and J1 row, at log s != 0 and at log s = 0 (no J1 row)."""
        compare(lambda: oracle._power_integrals(d, terms),
                lambda: reference_power_integrals(d, terms))

    @pytest.mark.parametrize("interior", [[0.4], [-1.0, 0.4], [-3.0, -1.0, 2.5]],
                             ids=["one", "two", "three"])
    def test_realline_at_one_two_and_three_split_points(self, interior, compare):
        d = Laplace(0.4, 0.8)

        def g(x):
            return np.exp(oracle.logpdf(d, x)) * (1.0 + np.abs(x))

        compare(lambda: oracle.integrate_realline(g, interior, scale=1.5),
                lambda: reference_realline(g, interior, scale=1.5))

    @pytest.mark.parametrize("power", [3.0, 7.0, 1.5, -0.5, -0.9])  # k = 1, 1, 1.6, 8, 40
    def test_halfline_at_k_one_and_above(self, power, compare):
        d = Gamma(1.3, power + 1.0)

        def g(x):
            with np.errstate(all="ignore"):
                lp = oracle.logpdf(d, x)
                return np.where(lp == -np.inf, 0.0, np.exp(lp) * lp)

        compare(lambda: oracle.integrate_halfline(g, scale=2.0, power_at_zero=power),
                lambda: reference_halfline(g, scale=2.0, power_at_zero=power))
        compare(lambda: integral_p_alpha_log_p(d, 1.0),
                lambda: reference_power_integrals(d, [(1.0, True)])[0])

    def test_runs_of_many_passes_and_a_multi_row_integrand(self, compare):
        d = Normal(0.3, 0.5)

        def kink(x):  # |x - 1/3| and a density: neither is smooth on the mesh
            lp = oracle.logpdf(d, x)
            return np.array([np.sqrt(np.abs(x - 1.0 / 3.0)), np.exp(lp) * np.abs(x - 0.3)])

        two, one = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])
        passes = compare(lambda: integrate_interval(kink, oracle._first_pass(two)),
                         lambda: reference_integrate_interval(kink, two))
        assert passes >= 3
        single = compare(lambda: integrate_interval(lambda x: kink(x)[0], oracle._first_pass(one)),
                         lambda: reference_integrate_interval(lambda x: kink(x)[0], one))
        assert single >= 3

    @pytest.mark.parametrize("budget", [16, 40, 100])
    def test_budget_exhaustion_says_the_same(self, budget, compare, oracle_settings):
        d = Normal(0.0, 1.0)

        def wild(x):  # the logpdf term is 0; its call records the nodes
            return np.cos(200.0 * x) * np.cos(3000.0 * x**2) + 0.0 * oracle.logpdf(d, x)

        oracle_settings(max_subdivisions=budget)
        mesh = np.linspace(0.0, 3.0, 3)
        compare(lambda: integrate_interval(wild, oracle._first_pass(mesh)),
                lambda: reference_integrate_interval(wild, mesh))


# what _check_default raises for a cfg that is not None or an OracleConfig
NOT_THE_CONFIG = (r"the oracle runs at abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=2000, "
                  r"series_tail_tol=1e-14, max_terms=10000000 only, got cfg=")
# the two entry points that keep a trailing cfg, as the benchmark passes OracleConfig() there
DEFAULT_CONFIG_RUNS = {
    "entropy_estimate, continuous": lambda *cfg: entropy_estimate(
        Gamma(1.5, 2.5), "gr1", 1.7, None, *cfg),
    "entropy_estimate, discrete": lambda *cfg: entropy_estimate(
        Poisson(5.0), "shannon", None, None, *cfg),
    "kl_integral": lambda *cfg: kl_integral(LogNormal(1.0, 1.0), LogNormal(0.0, 2.0), *cfg),
}


@pytest.mark.parametrize("run", DEFAULT_CONFIG_RUNS.values(), ids=DEFAULT_CONFIG_RUNS)
def test_cfg_omitted_or_none_runs_the_default_config(run):
    """The same bytes with cfg omitted, None and OracleConfig(); any other value raises.

    The oracle runs at one configuration, its module constants, so a setting it would
    ignore is an error that names them.
    """
    want = pickle.dumps(run(OracleConfig()))
    assert pickle.dumps(run()) == want
    assert pickle.dumps(run(None)) == want
    for other in ({"max_terms": 10}, "default", 1e-10):
        with pytest.raises(ParameterError, match=NOT_THE_CONFIG):
            run(other)


# a value that is neither None nor an OracleConfig instance, among them falsy ones and
# look-alikes that carry the settings' values
NOT_A_CONFIG = {
    "settings_dict": {"max_terms": 10}, "string": "default", "float": 1e-10, "zero": 0,
    "false": False, "the_class": OracleConfig,
    "settings_tuple": (1e-10, 1e-10, 2000, 1e-14, 10**7),
    "namespace": types.SimpleNamespace(max_terms=10**7),
}


@pytest.mark.parametrize("other", NOT_A_CONFIG.values(), ids=NOT_A_CONFIG)
@pytest.mark.parametrize("run", DEFAULT_CONFIG_RUNS.values(), ids=DEFAULT_CONFIG_RUNS)
def test_any_other_cfg_is_a_parameter_error_naming_the_settings(run, other):
    with pytest.raises(ParameterError, match=NOT_THE_CONFIG + re.escape(repr(other))):
        run(other)


@pytest.mark.parametrize("width", [math.ulp(1.0) * k for k in (1, 2, 3, 5)] + [1e-14],
                         ids=["1ulp", "2ulp", "3ulp", "5ulp", "1e-14"])
@pytest.mark.parametrize("measure, alpha", [("shannon", None), ("renyi", 2.0), ("gr1", 0.5)])
def test_uniform_a_few_ulp_wide_matches_its_closed_form(width, measure, alpha):
    """A width of a few ulp is U(0, 1)'s run and log(b - a): no node falls outside [a, b]."""
    d = Uniform(1.0, 1.0 + width)
    got = entropy_estimate(d, measure, alpha)
    want = evaluate(EntropySpec(measure, alpha), d)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


class TestNoSpecialKernelInContinuousOracle:
    """The continuous oracle shares no kernel with the closed forms: `special` stays out."""

    @staticmethod
    def patch_every_binding(monkeypatch, name, replacement):
        """Point every entrokit module's binding of special's `name` at replacement."""
        real = getattr(special, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("entrokit")]:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, replacement)

    def test_gamma_oracle_values_ignore_a_shifted_kernel(self, monkeypatch):
        """log_gamma and digamma off by 1e-9 move the closed forms, not the oracle values.

        Each gamma and chi-squared cell's largest closed-form error against its
        oracle value goes from below 1e-12 to above 1e-10 (1 + |v|), and every
        oracle value keeps its bits.
        """
        values = []
        estimate = oracle.entropy_estimate
        monkeypatch.setattr(oracle, "entropy_estimate",
                            lambda *args: values.append(estimate(*args)) or values[-1])

        def cells():
            values.clear()
            rows = oracle_equivalence(("gamma", "chisq"), 40, 2501)
            return [row.max_error for row in rows], list(values)

        errors, oracle_values = cells()
        for name in ("log_gamma", "digamma"):
            real = getattr(special, name)
            self.patch_every_binding(monkeypatch, name, lambda x, real=real: real(x) + 1e-9)
        shifted_errors, shifted_values = cells()
        assert max(errors) < 1e-12 and min(shifted_errors) > 1e-10
        assert np.array(shifted_values).tobytes() == np.array(oracle_values).tobytes()

    def test_continuous_oracle_runs_with_special_raising(self, monkeypatch):
        """log_gamma, digamma and trigamma raise: every continuous oracle value still comes."""
        def broken(x):
            raise AssertionError("a special kernel was called")

        for name in ("log_gamma", "digamma", "trigamma"):
            self.patch_every_binding(monkeypatch, name, broken)
        monkeypatch.setattr(special, "_shifted_series", broken)
        rng = np.random.default_rng(2502)
        for family in ORACLE_FAMILIES:
            d = random_distribution(family, rng)  # fresh records: no constant cached yet
            x = np.linspace(0.1, 3.0, 7)
            assert np.isfinite(logpdf(d, x)).any() and pdf(d, 1.0) >= 0.0
            for measure in ORACLE_MEASURES:
                spec = random_spec(measure, d, rng)
                assert math.isfinite(entropy_estimate(d, measure, spec.alpha, spec.beta))
            q = d if family == "uniform" else random_distribution(family, rng)
            assert math.isfinite(kl_integral(d, q).value)
