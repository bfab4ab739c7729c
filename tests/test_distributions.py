import math
import sys

import numpy as np
import pytest

from entrokit import (Binomial, ChiSquared, Exponential, Gamma, Laplace,
                      Logarithmic, LogNormal, NegBinomialConditional, Normal,
                      Poisson, Uniform, density_sup,
                      discrete_entropy_sum, format_spec, integral_p_alpha,
                      log_gamma, logpdf, logpmf, parse_spec, pdf, pmf)
from entrokit.errors import (FamilyMismatchError, ParameterError,
                             UnboundedDensityError)
from entrokit.special import bd0, stirlerr
from entrokit.verification import random_distribution

CONTINUOUS = ("gamma", "exp", "chisq", "laplace", "lognormal", "normal", "uniform")


class TestConstruction:
    @pytest.mark.parametrize("make", [
        lambda: Gamma(0.0, 1.0), lambda: Gamma(1.0, -2.0),
        lambda: Exponential(-1.0), lambda: ChiSquared(0),
        lambda: Laplace(0.0, 0.0), lambda: LogNormal(0.0, 0.0),
        lambda: Normal(0.0, -1.0), lambda: Uniform(2.0, 2.0),
        lambda: Poisson(0.0), lambda: Binomial(0, 0.5), lambda: Binomial(3, 1.0),
        lambda: NegBinomialConditional(0.0, 0.1),
        lambda: NegBinomialConditional(0.5, 0.0), lambda: Logarithmic(1.0),
        lambda: Gamma(math.nan, 1.0), lambda: Normal(math.inf, 1.0),
    ])
    def test_rejected(self, make):
        with pytest.raises(ParameterError):
            make()

    def test_chisq_gamma_conversion_exposed(self):
        assert ChiSquared(5).as_gamma() == Gamma(0.5, 2.5)

    def test_discrete_tag(self):
        assert Poisson(1.0).is_discrete
        assert not Gamma(1.0, 1.0).is_discrete


class TestPdfPins:
    def test_exponential_at_zero_plus(self):
        assert pdf(Exponential(1.0), 1e-13) == pytest.approx(1.0, abs=1e-12)

    def test_laplace_peak(self):
        assert pdf(Laplace(0.0, 2.0), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_gamma_value(self):
        assert pdf(Gamma(1.0, 2.0), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_outside_support_is_zero(self):
        assert pdf(Gamma(1.0, 2.0), -1.0) == 0.0
        assert pdf(Exponential(2.0), 0.0) == 0.0
        assert pdf(Uniform(0.0, 1.0), 2.0) == 0.0

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatchError):
            pdf(Poisson(1.0), 0.5)
        with pytest.raises(FamilyMismatchError):
            pmf(Gamma(1.0, 1.0), 1)


class TestPmfPins:
    def test_poisson_zero(self):
        assert pmf(Poisson(1.0), 0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_binomial_half(self):
        assert pmf(Binomial(2, 0.5), 1) == pytest.approx(0.5, rel=1e-13)

    def test_logarithmic_first(self):
        assert pmf(Logarithmic(0.5), 1) == pytest.approx(0.5 / math.log(2.0), rel=1e-13)

    def test_out_of_support_returns_zero(self):
        assert pmf(Poisson(1.0), -1) == 0.0
        assert pmf(Binomial(4, 0.5), 5) == 0.0
        assert pmf(NegBinomialConditional(0.5, 0.1), 0) == 0.0
        assert pmf(Logarithmic(0.5), 0) == 0.0
        assert pmf(Poisson(1.0), 2.5) == 0.0

    def test_nbcond_is_conditional_on_positive(self):
        # P{X=k | X>0} = raw pmf / (1 - p^r)
        p, r = 0.4, 0.3
        d = NegBinomialConditional(p, r)
        raw1 = r * (1 - p) * p**r  # Gamma(1+r)/Gamma(r) = r
        assert pmf(d, 1) == pytest.approx(raw1 / (1.0 - p**r), rel=1e-12)

    def test_nbcond_makes_one_log_gamma_call(self, monkeypatch):
        import entrokit.distributions as distributions

        d = NegBinomialConditional(0.4, 0.3)
        logpmf(d, 1.0)  # the record's cached constants
        calls = []
        real = distributions.log_gamma
        monkeypatch.setattr(distributions, "log_gamma", lambda x: calls.append(1) or real(x))
        ks = np.arange(1.0, 50.0)
        many, one = logpmf(d, ks), logpmf(d, 7.0)
        assert len(calls) == 2
        assert np.ndim(one) == 0 and one == many[6]


def nbcond_inline(d, k):
    return (log_gamma(k + d.r) - log_gamma(d.r) - log_gamma(k + 1.0) + k * math.log1p(-d.p)
            + d.r * math.log(d.p) - math.log(-math.expm1(d.r * math.log(d.p))))


@pytest.mark.parametrize("d", [NegBinomialConditional(0.35, 0.2), NegBinomialConditional(0.9, 1e-6),
                               NegBinomialConditional(0.05, 7.5)], ids=repr)
@pytest.mark.parametrize("k", [3.0, np.asarray(3.0), np.arange(1.0, 40.0),
                               np.arange(1.0, 41.0).reshape(5, 8), np.array([[1.0], [2e5]])],
                         ids=["scalar", "0-d", "1-d", "2-d", "column"])
def test_nbcond_log_pmf_is_the_inline_formula(d, k, monkeypatch):
    """One log-gamma call gives log gamma(r), (k + r) and (k + 1): the inline formula's bits."""
    import entrokit.distributions as distributions

    calls, real = [], distributions.log_gamma
    monkeypatch.setattr(distributions, "log_gamma", lambda x: calls.append(1) or real(x))
    got = logpmf(d, k)
    want = nbcond_inline(d, np.asarray(k))
    assert len(calls) == 1 and np.shape(got) == np.shape(k)
    assert np.array_equal(got, want)
    if np.ndim(k) == 0:
        assert type(got) is np.float64


def elementwise_records():
    rng = np.random.default_rng(1818)
    poisson = [Poisson(float(lam)) for lam in 10.0 ** rng.uniform(0.0, 7.0, 16)]
    binomial = [Binomial(int(n), float(p)) for n, p in zip(10.0 ** rng.uniform(1.0, 11.0, 16),
                                                           rng.uniform(1e-3, 0.999, 16))]
    return [Poisson(1.0), Poisson(1e7), Binomial(10, 0.5), Binomial(10**11, 0.3)] + poisson + binomial


class TestLogPmfIsElementwise:
    """log p_k is a function of k alone: the same double in any index array."""

    @pytest.mark.parametrize("d", elementwise_records(), ids=repr)
    def test_array_matches_each_index_alone(self, d):
        mean, var = (d.lam, d.lam) if isinstance(d, Poisson) else (d.n * d.p, d.n * d.p * (1 - d.p))
        top = math.inf if isinstance(d, Poisson) else d.n
        reach = 12.0 * math.sqrt(var)
        ks = np.unique(np.clip(np.round(np.linspace(mean - reach, mean + reach, 257)), 0, top))
        together = logpmf(d, ks)
        alone = np.array([logpmf(d, k) for k in ks])
        assert np.array_equal(together, alone)

    def test_a_value_once_moved_by_its_batch(self):
        # k = 54291 alone, in the 256-index block of the downward series that holds it, and in
        # the 1984-index batch that evaluates that block with its neighbours
        d = Poisson(54759.61245759474)
        alone = logpmf(d, 54291.0)
        for ks in (np.arange(54502.0, 54246.0, -1.0), np.arange(54694.0, 52710.0, -1.0)):
            assert logpmf(d, ks)[ks == 54291.0][0] == alone


class TestNormalization:
    @pytest.mark.parametrize("family", CONTINUOUS)
    def test_continuous_normalization(self, family, rng):
        for _ in range(50):
            d = random_distribution(family, rng)
            res = integral_p_alpha(d, 1.0)
            assert abs(res.value - 1.0) <= 1e-9

    @pytest.mark.parametrize("d", [
        Poisson(0.3), Poisson(7.0), Binomial(12, 0.25),
        NegBinomialConditional(0.35, 0.2), NegBinomialConditional(0.8, 1.7),
        Logarithmic(0.2), Logarithmic(0.9),
    ])
    def test_discrete_normalization(self, d):
        res = discrete_entropy_sum(d, "p_alpha", 1.0)
        assert abs(res.value - 1.0) <= 1e-12


class TestDensitySup:
    def test_exponential(self):
        """Attained at the support's first point, 5e-324: 0 lies outside the support."""
        d = Exponential(3.0)
        b = density_sup(d)
        assert b.M == 3.0 and b.attained_at == d.support[0] == 5e-324

    def test_lognormal_pin(self):
        b = density_sup(LogNormal(0.0, 1.0))
        assert b.M == pytest.approx(math.exp(0.5) / math.sqrt(2 * math.pi), rel=1e-13)
        assert b.attained_at == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_gamma_unbounded(self):
        with pytest.raises(UnboundedDensityError):
            density_sup(Gamma(1.0, 0.5))
        with pytest.raises(UnboundedDensityError):
            density_sup(ChiSquared(1))

    def test_gamma_mu_one_matches_exponential(self):
        assert density_sup(Gamma(2.0, 1.0)) == density_sup(Exponential(2.0))

    def test_uniform_attained_everywhere(self):
        b = density_sup(Uniform(1.0, 3.0))
        assert b.M == 0.5 and b.attained_at is None

    @staticmethod
    def check_attained(d):
        """pdf at attained_at is M to 1e-13; a uniform is M everywhere: at its midpoint too."""
        b = density_sup(d)
        at = (d.a + d.b) / 2.0 if b.attained_at is None else b.attained_at
        assert abs(pdf(d, at) - b.M) <= 1e-13 * b.M, (d, b)

    @pytest.mark.parametrize("d", [Exponential(1e-300), Exponential(1e300), Gamma(7.0, 1.0),
                                   ChiSquared(2), Gamma(1.0, 1e6)], ids=repr)
    def test_sup_attained_where_reported(self, d):
        self.check_attained(d)

    @pytest.mark.parametrize("family", CONTINUOUS)
    def test_sup_attained_where_reported_on_draws(self, family, rng):
        for _ in range(500):
            d = random_distribution(family, rng)
            if family not in ("gamma", "chisq") or d.mu >= 1.0:  # mu < 1: unbounded at 0
                self.check_attained(d)

    @pytest.mark.parametrize("family", CONTINUOUS)
    def test_sup_dominates_dense_grid(self, family, rng):
        for _ in range(5):
            d = random_distribution(family, rng)
            if family in ("gamma", "chisq"):
                mu = d.mu if family == "gamma" else d.nu / 2.0
                if mu < 1.0:
                    continue
            bound = density_sup(d)
            if family in ("laplace", "normal"):
                loc = d.mu if family == "laplace" else d.mean
                grid = np.linspace(loc - 20.0, loc + 20.0, 100_000)
            elif family == "uniform":
                grid = np.linspace(d.a, d.b, 100_000)
            else:
                grid = np.linspace(1e-9, 50.0, 100_000)
            assert np.all(pdf(d, grid) <= bound.M * (1.0 + 1e-12))


def test_chisq_pdf_equals_gamma_pointwise():
    x = np.linspace(1e-6, 40.0, 10_000)
    for nu in (1, 2, 3, 8):
        a = pdf(ChiSquared(nu), x)
        b = pdf(Gamma(0.5, nu / 2.0), x)
        assert np.max(np.abs(a - b)) <= 1e-14


class TestParseSpec:
    @pytest.mark.parametrize("text,expected", [
        ("gamma:lambda=1,mu=2", Gamma(1.0, 2.0)),
        ("exp:lambda=2.5", Exponential(2.5)),
        ("chisq:nu=3", ChiSquared(3)),
        ("laplace:mu=0,lambda=1", Laplace(0.0, 1.0)),
        ("lognormal:m=0,sigma2=1", LogNormal(0.0, 1.0)),
        ("normal:mean=0,sigma2=1", Normal(0.0, 1.0)),
        ("uniform:a=0,b=1", Uniform(0.0, 1.0)),
        ("poisson:lambda=2", Poisson(2.0)),
        ("binomial:n=10,p=0.3", Binomial(10, 0.3)),
        ("nbcond:p=0.4,r=0.1", NegBinomialConditional(0.4, 0.1)),
        ("logarithmic:p=0.5", Logarithmic(0.5)),
    ])
    def test_grammar(self, text, expected):
        assert parse_spec(text) == expected

    def test_round_trip(self):
        for text in ["gamma:lambda=1,mu=2", "uniform:a=0,b=1", "binomial:n=10,p=0.3"]:
            assert parse_spec(format_spec(parse_spec(text))) == parse_spec(text)

    @pytest.mark.parametrize("bad", [
        "weibull:k=1", "gamma:lambda=1", "gamma:lambda=1,mu=2,nu=3",
        "gamma:lambda=x,mu=2", "gamma", "exp:lambda", "exp:lambda=0",
        "binomial:n=2.5,p=0.3",
    ])
    def test_rejected(self, bad):
        with pytest.raises(ParameterError):
            parse_spec(bad)


def test_parse_spec_rejects_a_repeated_key():
    with pytest.raises(ParameterError, match="'lambda' is given more than once"):
        parse_spec("gamma:lambda=1,lambda=2,mu=3")
    with pytest.raises(ParameterError, match="'mu' is given more than once"):
        parse_spec("gamma:lambda=1,mu=x,MU=2")  # found before any value is converted


TINY, BIG = math.ulp(0.0), sys.float_info.max

SUPPORTS = [
    (Gamma(1.0, 2.5), (TINY, BIG)), (Exponential(2.0), (TINY, BIG)),
    (ChiSquared(3), (TINY, BIG)), (LogNormal(0.0, 1.0), (TINY, BIG)),
    (Laplace(0.0, 1.0), (-math.inf, math.inf)), (Normal(0.0, 1.0), (-math.inf, math.inf)),
    (Uniform(1.0, 3.0), (1.0, 3.0)), (Poisson(5.0), (0.0, BIG)),
    (Binomial(10, 0.3), (0.0, 10.0)), (NegBinomialConditional(0.3, 0.5), (1.0, BIG)),
    (Logarithmic(0.5), (1.0, BIG)),
]
FAMILY_IDS = [d.spec_name for d, _ in SUPPORTS]


@pytest.mark.parametrize("d, support", SUPPORTS, ids=FAMILY_IDS)
def test_each_family_states_its_support(d, support):
    assert d.support == support


def density_pair(d, x):
    """(logpdf, pdf) of a continuous d at x, or (logpmf, pmf) of a discrete one."""
    return (logpmf if d.is_discrete else logpdf)(d, x), (pmf if d.is_discrete else pdf)(d, x)


@pytest.mark.parametrize("d", [d for d, _ in SUPPORTS], ids=FAMILY_IDS)
def test_infinite_points_have_no_density(d):
    """No exception, and no warning: pyproject's filterwarnings turns one into a failure."""
    for x in (math.inf, -math.inf):
        assert density_pair(d, x) == (-math.inf, 0.0)
    assert np.array_equal(density_pair(d, np.array([math.inf, -math.inf]))[0],
                          [-math.inf, -math.inf])


@pytest.mark.parametrize("d, support", SUPPORTS, ids=FAMILY_IDS)
def test_nan_is_outside_a_bounded_support(d, support):
    log_p, p = density_pair(d, math.nan)
    if support == (-math.inf, math.inf):
        assert math.isnan(log_p) and math.isnan(p)
    else:
        assert (log_p, p) == (-math.inf, 0.0)


def test_logpdf_vectorizes():
    out = logpdf(Gamma(1.0, 2.0), np.array([-1.0, 1.0, 2.0]))
    assert out.shape == (3,)
    assert out[0] == -math.inf


@pytest.mark.parametrize("d", [
    Gamma(1.23456789, 2), Exponential(0.1), ChiSquared(7), Laplace(-0.3, 1e-7),
    LogNormal(1.0 / 3.0, 2.5), Normal(-1e300, 0.1), Uniform(-2.0, 1.0 / 7.0),
    Poisson(12.345678901234), Binomial(100, 0.123456789),
    NegBinomialConditional(0.3, 1e-6), Logarithmic(0.999),
])
def test_format_spec_inverts_parse_spec(d):
    assert parse_spec(format_spec(d)) == d


def test_format_spec_keeps_every_digit():
    assert format_spec(Gamma(1.23456789, 2)) == "gamma:lambda=1.23456789,mu=2.0"
    rng = np.random.default_rng(3)
    for family in CONTINUOUS:  # numpy-float parameters format as plain numbers
        d = random_distribution(family, rng)
        assert parse_spec(format_spec(d)) == d


def gamma_logpdf(d, x):
    return d.mu * math.log(d.lam) - math.lgamma(d.mu) + (d.mu - 1.0) * np.log(x) - d.lam * x


@pytest.mark.parametrize("d, constants, inline", [
    (Gamma(1.3, 2.2), ("_log_norm",), gamma_logpdf),
    (ChiSquared(3), ("_log_norm",), lambda d, x: gamma_logpdf(Gamma(0.5, 1.5), x)),
    (Binomial(30, 0.3), ("_stirlerr_n",), lambda d, k: (
        stirlerr(d.n) - stirlerr(k) - stirlerr(d.n - k) - bd0(k, d.n * d.p)
        - bd0(d.n - k, d.n * (1.0 - d.p)) + 0.5 * np.log(d.n / (2.0 * math.pi * k * (d.n - k))))),
    (NegBinomialConditional(0.35, 0.2), ("_log_one_minus_pr",), lambda d, k: (
        log_gamma(k + d.r) - log_gamma(d.r) - log_gamma(k + 1.0) + k * math.log1p(-d.p)
        + d.r * math.log(d.p) - math.log(-math.expm1(d.r * math.log(d.p))))),
])
def test_normalizing_constants_are_lazy_and_exact(d, constants, inline):
    """A record computes its constants on first evaluation, to the same bits."""
    assert not any(name in vars(d) for name in constants)
    x = np.arange(1.0, 25.0)
    got = logpdf(d, x) if not d.is_discrete else logpmf(d, x)
    assert all(name in vars(d) for name in constants)
    assert np.array_equal(got, inline(d, x))


@pytest.mark.parametrize("r", [0.5, 2.5])
def test_nbcond_log_pmf_is_finite_where_log_gamma_overflows(r):
    """Past k of about 2.5e305 log p_k is k log(1 - p) to far below 1e-12, with no warning."""
    d = NegBinomialConditional(0.3, r)
    ks = np.array([3e305, 1e307, BIG])
    for got in (logpmf(d, ks), [logpmf(d, k) for k in ks]):
        assert np.allclose(got, ks * math.log1p(-0.3), rtol=1e-12, atol=0.0)


HUGE_POINT_RECORDS = [
    Gamma(2.0, 1.0), Exponential(2.0), ChiSquared(3), LogNormal(0.0, 1.0), Laplace(0.0, 2.0),
    Normal(0.0, 1.0), Uniform(1.0, 3.0), Poisson(5.0), Binomial(10, 0.3),
    NegBinomialConditional(0.3, 0.5), Logarithmic(0.5),
]


@pytest.mark.parametrize("d", HUGE_POINT_RECORDS, ids=[d.spec_name for d in HUGE_POINT_RECORDS])
def test_huge_finite_points_give_a_value_without_a_warning(d):
    """Overflow at +-1e308 (k = 1e200 if discrete) gives -inf or a finite value, silently.

    pyproject's filterwarnings turns a RuntimeWarning into a failure.
    """
    if d.is_discrete:
        values = logpmf(d, np.array([1.0, 1e200]))
    else:
        values = np.append(logpdf(d, np.array([1e308, -1e308])),
                           [logpdf(d, 1e308), logpdf(d, -1e308)])
    assert not np.isnan(values).any() and (values < np.inf).all()


def test_density_past_the_float_range_is_inf_without_a_warning():
    assert pdf(Uniform(0.0, 1e-310), 5e-311) == math.inf
    assert (pdf(Uniform(0.0, 1e-310), np.array([5e-311, 2e-310])) == [math.inf, 0.0]).all()


class TestNormalLogDensityAtHugeScales:
    """The square of x - mean never forms: d (d / sigma2) holds where d**2 overflows."""

    def test_infinite_points_give_minus_inf(self):
        values = logpdf(Normal(0.0, 1e308), np.array([math.inf, -math.inf]))
        assert (values == -math.inf).all()

    def test_finite_value_past_the_square_range(self):
        assert logpdf(Normal(0.0, 1e200), 1e160) == pytest.approx(-5e119, rel=1e-15)


class TestGammaNormaliser:
    """The gamma-type log-density's constant mu log lam - log gamma(mu), from libm's lgamma."""

    def test_scaled_error_against_mpmath(self):
        """Over log-uniform mu in [1e-8, 1e300] and next to the zeros of log gamma."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2500)
        strata = np.linspace(-8.0, 300.0, 2001)
        mus = np.append(10 ** rng.uniform(strata[:-1], strata[1:]),
                        [1.0, 2.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0 - 1e-9, 2.0 + 1e-9, 1.5, 3.0])
        worst = 0.0
        with mpmath.workdps(40):
            for mu in mus:
                want = -mpmath.loggamma(mpmath.mpf(float(mu)))
                got = Gamma(1.0, float(mu))._log_norm
                worst = max(worst, float(abs(got - want) / (1 + abs(want))))
        assert worst <= 2e-15

    @pytest.mark.parametrize("mu", [2.6e305, 1e307, sys.float_info.max])
    def test_past_the_float_range_as_log_gamma_gave_it(self, mu):
        """lgamma's OverflowError becomes log_gamma's inf: no error, the same values."""
        for lam in (0.5, 1.0, 3.0):
            d, x = Gamma(lam, mu), np.array([0.5, 1.0, 2.0])
            want = mu * math.log(lam) - log_gamma(mu)
            assert np.array_equal(d._log_norm, want, equal_nan=True)
            assert np.array_equal(logpdf(d, x), want + (mu - 1.0) * np.log(x) - lam * x,
                                  equal_nan=True)


@pytest.mark.parametrize("d, inside, outside", [
    (Gamma(0.7, 2.5), [0.1, 1.0, 3.5, 40.0], [-1.0, 0.0, np.nan, np.inf]),
    (Uniform(-1.0, 2.0), [-1.0, 0.0, 2.0], [-1.5, 2.5, np.nan, -np.inf]),
    (Poisson(3.5), [0.0, 1.0, 7.0], [-1.0, 0.5, np.nan, np.inf]),
    (Binomial(10, 0.3), [0.0, 4.0, 10.0], [11.0, 2.5, np.nan, -1.0]),
], ids=["gamma", "uniform", "poisson", "binomial"])
def test_support_mask_changes_no_bit_inside(d, inside, outside):
    """An all-inside array runs no mask; among outside points, NaN included, it gives the same bits."""
    log_p = logpmf if d.is_discrete else logpdf
    alone = log_p(d, np.array(inside))
    mixed = log_p(d, np.array(outside + inside))
    assert np.array_equal(mixed[len(outside):], alone)
    assert np.all(mixed[:len(outside)] == -np.inf)


def masked_everywhere(d, x):
    """The log-density or log-mass with the support mask always built, as logpdf/logpmf once did."""
    x = np.asarray(x, dtype=float)
    formula = d._logpmf if d.is_discrete else d._logpdf
    lo, hi = d.support
    with np.errstate(over="ignore"):
        if (lo, hi) == (-math.inf, math.inf):
            return formula(x)
        inside = (x >= lo) & (x <= hi)
        if d.is_discrete:
            inside &= x == np.floor(x)
        return np.where(inside, formula(np.where(inside, x, lo)), -np.inf)


@pytest.mark.parametrize("d", [d for d, _ in SUPPORTS], ids=FAMILY_IDS)
def test_support_test_keeps_every_output(d):
    """NaN, +-inf, empty arrays, non-integers and points past either end: the masked output."""
    lo, hi = d.support
    log_p = logpmf if d.is_discrete else logpdf
    inside = [2.0, 3.0] if d.spec_name != "uniform" else [1.5, 2.0]
    outside = [math.nan, math.inf, -math.inf, 2.5 if d.is_discrete else None,
               lo - 1.0 if lo > -math.inf else None, hi + 1.0 if hi < 1e300 else None]
    outside = [x for x in outside if x is not None]
    cases = [np.array([]), np.array(inside), np.array(outside), np.array(outside + inside),
             np.array(inside + outside).reshape(1, -1), np.array(inside).reshape(2, 1),
             *inside, *outside]
    for x in cases:
        got, want = log_p(d, x), masked_everywhere(d, x)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("d, ks", [
    (Poisson(3.5), [-2, 0, 1, 7, 40, 2**62]),
    (Binomial(10, 0.3), [-1, 0, 1, 4, 9, 10, 11, 10**6]),
    (Binomial(10**6, 0.3), [-5, 0, 299_999, 300_000, 10**6, 10**6 + 1]),
    (NegBinomialConditional(0.05, 0.3), [-1, 0, 1, 2, 500]),
    (Logarithmic(0.5), [-3, 0, 1, 2, 60]),
], ids=["poisson", "binomial", "binomial_large", "nbcond", "logarithmic"])
def test_integer_indices_give_the_bits_of_float_ones(d, ks):
    """An int64 index array, which skips the floor(x) == x test, gives the float array's bits.

    With the points outside the support and without them (the masked and
    the unmasked path), k = 0 and k = n included.
    """
    ks = np.array(ks, dtype=np.int64)
    lo, hi = d.support
    for sub in (ks, ks[(ks >= lo) & (ks <= hi)], ks[(ks > lo) & (ks < hi)]):
        got, want = logpmf(d, sub), logpmf(d, sub.astype(float))
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
