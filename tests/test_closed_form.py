import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrokit import (Binomial, ChiSquared, EntropySpec, Exponential, Gamma,
                      Laplace, Logarithmic, LogNormal, Normal, OracleConfig,
                      Poisson, Uniform, density_sup, digamma, evaluate, format_spec,
                      generalized_renyi1, generalized_renyi2, integral_p_alpha,
                      integral_p_alpha_log_p, kl_divergence, kl_integral,
                      log_gamma, lognormal_moment, modified_shannon, renyi,
                      shannon, sharma_mittal, tsallis)
from entrokit import oracle
from entrokit.errors import (FamilyMismatchError, ParameterError, UnboundedDensityError,
                             UnsupportedFamilyError, ValidityDomainError)
from entrokit.verification import ORACLE_FAMILIES, random_distribution

EULER_GAMMA = 0.5772156649015328606
CFG = OracleConfig()

CONTINUOUS_REPS = [
    Gamma(1.3, 2.2), Exponential(0.7), ChiSquared(3), Laplace(1.5, 0.8),
    LogNormal(0.3, 1.1), Normal(0.5, 2.0), Uniform(-1.0, 2.0),
]


class TestShannon:
    def test_exponential_zero_crossing_at_e(self):
        assert abs(shannon(Exponential(math.e))) <= 1e-12

    def test_gamma_pin(self):
        # Gamma(1, 2) entropy is 1 + euler_gamma, cross-checked by quadrature
        want = 1.0 + EULER_GAMMA
        assert shannon(Gamma(1.0, 2.0)) == pytest.approx(want, abs=1e-12)
        est = -integral_p_alpha_log_p(Gamma(1.0, 2.0), 1.0, CFG).value
        assert shannon(Gamma(1.0, 2.0)) == pytest.approx(est, abs=1e-9)

    def test_lognormal_pin(self):
        want = 0.5 * math.log(2 * math.pi) + 0.5
        assert shannon(LogNormal(0.0, 1.0)) == pytest.approx(want, abs=1e-12)

    def test_gamma_shape_one_is_the_exponential_exactly(self):
        assert shannon(Gamma(1.0, 1.0)) == 1.0 == shannon(Exponential(1.0))

    def test_normal_matches_scalar_formula(self):
        assert shannon(Normal(2.0, 4.0)) == pytest.approx(
            0.5 * (1 + math.log(2 * math.pi)) + 0.5 * math.log(4.0), abs=1e-13)

    def test_uniform(self):
        assert shannon(Uniform(0.0, 0.5)) == pytest.approx(math.log(0.5), abs=1e-13)

    def test_poisson_series_pin(self):
        assert shannon(Poisson(1.0)) == pytest.approx(1.3048422422562515, abs=1e-12)

    def test_binomial_exact(self):
        assert shannon(Binomial(2, 0.5)) == pytest.approx(1.5 * math.log(2.0), abs=1e-13)

    def test_discrete_positive(self):
        for d in [Poisson(0.01), Binomial(3, 0.9), Logarithmic(0.3)]:
            assert shannon(d) > 0.0


class TestRenyi:
    def test_exponential_pin(self):
        assert renyi(2.0, Exponential(1.0)) == pytest.approx(math.log(2.0), abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_zero_crossing(self, alpha):
        lam = alpha ** (1.0 / (alpha - 1.0))
        assert abs(renyi(alpha, Exponential(lam))) <= 1e-12

    def test_chisq_nu1_validity_error(self):
        with pytest.raises(ValidityDomainError, match=r"alpha\*\(mu-1\)"):
            renyi(2.0, ChiSquared(1))

    def test_chisq_nu1_small_alpha_allowed(self):
        # defined for 0 < alpha < 2 at nu = 1
        value = renyi(1.5, ChiSquared(1))
        est = math.log(integral_p_alpha(ChiSquared(1), 1.5, CFG).value) / (1 - 1.5)
        assert value == pytest.approx(est, abs=1e-8)

    def test_order_one_rejected(self):
        with pytest.raises(ParameterError):
            renyi(1.0, Exponential(1.0))
        with pytest.raises(ParameterError):
            renyi(1.0 + 1e-12, Exponential(1.0))

    def test_exponential_ordering_around_shannon(self):
        for lam in (0.3, 1.0, 4.0):
            h = shannon(Exponential(lam))
            assert renyi(0.5, Exponential(lam)) > h
            assert renyi(2.5, Exponential(lam)) < h

    def test_renyi_decreases_in_alpha_toward_minus_log_lambda(self):
        lam = 1.7
        alphas = [0.2, 0.5, 2.0, 5.0, 20.0, 200.0]
        vals = [renyi(a, Exponential(lam)) for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(-math.log(lam), abs=0.05)

    @pytest.mark.parametrize("d", CONTINUOUS_REPS)
    def test_limit_to_shannon(self, d):
        h = shannon(d)
        gaps = [max(abs(renyi(1.0 + eps, d) - h), abs(renyi(1.0 - eps, d) - h))
                for eps in (1e-2, 1e-3, 1e-4)]
        # strictly shrinking unless the measure is order-free (uniform)
        assert gaps[0] >= gaps[1] >= gaps[2]
        if gaps[0] > 1e-14:
            assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-3


class TestGeneralizedRenyi1:
    def test_exponential_pin(self):
        assert generalized_renyi1(2.0, Exponential(1.0)) == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_zero_crossing(self, alpha):
        assert abs(generalized_renyi1(alpha, Exponential(math.exp(1.0 / alpha)))) <= 1e-12

    def test_laplace_pin_and_location_free(self):
        want = -math.log(1.0) + 1.0 / 3.0
        assert generalized_renyi1(3.0, Laplace(5.0, 2.0)) == pytest.approx(want, abs=1e-13)
        assert generalized_renyi1(3.0, Laplace(-7.0, 2.0)) == pytest.approx(want, abs=1e-13)
        est = (-integral_p_alpha_log_p(Laplace(5.0, 2.0), 3.0, CFG).value
               / integral_p_alpha(Laplace(5.0, 2.0), 3.0, CFG).value)
        assert want == pytest.approx(est, abs=1e-9)

    def test_alpha_one_equals_shannon(self):
        for d in CONTINUOUS_REPS:
            assert generalized_renyi1(1.0, d) == pytest.approx(shannon(d), abs=1e-11)


class TestShannonIsGR1AtOne:
    """Shannon is the gr1 row at alpha = 1, and the gamma order test is exact there."""

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    @pytest.mark.parametrize("seed", [7, 2024])
    def test_bit_identical_on_seeded_draws(self, family, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            d = random_distribution(family, rng)
            assert shannon(d) == generalized_renyi1(1.0, d), format_spec(d)

    def test_gamma_shape_below_machine_epsilon(self):
        d = Gamma(1.0, 1e-17)
        assert generalized_renyi1(1.0, d) == shannon(d) == -99999999999999968.0

    def test_gamma_order_error_names_the_shape(self):
        with pytest.raises(ValidityDomainError, match=r"alpha\*mu \+ 1 - alpha = -0\.5 <= 0"):
            generalized_renyi1(3.0, Gamma(1.0, 0.5))

    @staticmethod
    def accepts(fn):
        try:
            fn()
        except ValidityDomainError:
            return False
        return True

    @pytest.mark.parametrize("mu", [2.0**-60, 2.0**-53, 1e-17, 2.0**-52, 1e-12, 1e-8,
                                    0.25, 0.5, 0.9, 1.0, 2.0])
    def test_gamma_orders_accepted_exactly_where_the_oracle_accepts(self, mu):
        d = Gamma(1.0, mu)
        alphas = {1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 2.0, 1e3}
        if mu < 1.0:
            edge = 1.0 / (1.0 - mu)  # alpha*mu + 1 - alpha = 0
            for alpha in (edge, edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)):
                alphas |= {alpha, *np.nextafter(alpha, [0.0, np.inf]),
                           *(alpha + 2e-16 * np.arange(-3, 4))}
        seen = set()
        for alpha in sorted(map(float, alphas)):
            want = self.accepts(lambda: oracle._gamma_plan(d, alpha))
            seen.add(want)
            assert self.accepts(lambda: generalized_renyi1(alpha, d)) is want, alpha
            if abs(alpha - 1.0) >= 1e-10:  # renyi excludes orders next to 1
                assert self.accepts(lambda: renyi(alpha, d)) is want, alpha
        assert seen == ({True, False} if mu < 1.0 else {True})  # the grid straddles the edge


class TestTsallis:
    def test_exponential_pin(self):
        assert tsallis(2.0, Exponential(1.0)) == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_zero_crossing(self, alpha):
        lam = alpha ** (1.0 / (alpha - 1.0))
        assert abs(tsallis(alpha, Exponential(lam))) <= 1e-12

    @pytest.mark.parametrize("nu", [1, 2, 3, 7])
    def test_chisq_matches_gamma_specialization(self, nu):
        alpha = 1.5 if nu == 1 else 2.0
        assert tsallis(alpha, ChiSquared(nu)) == tsallis(alpha, Gamma(0.5, nu / 2.0))

    def test_asymptote_structure(self):
        # alpha < 1: decreases from +inf to 1/(alpha-1) < 0
        assert tsallis(0.5, Exponential(1e-4)) > 100.0
        assert tsallis(0.5, Exponential(1e6)) == pytest.approx(-2.0, abs=1e-2)
        # alpha > 1: decreases from 1/(alpha-1) > 0 to -inf
        assert tsallis(3.0, Exponential(1e-6)) == pytest.approx(0.5, abs=1e-3)
        assert tsallis(3.0, Exponential(1e4)) < -100.0


class TestGeneralizedRenyi2:
    def test_exponential_pin(self):
        assert generalized_renyi2(2.0, 4.0, Exponential(1.0)) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-13)

    def test_zero_crossing(self):
        alpha, beta = 2.0, 4.0
        lam = (beta / alpha) ** (1.0 / (beta - alpha))
        assert abs(generalized_renyi2(alpha, beta, Exponential(lam))) <= 1e-12

    @given(st.floats(0.3, 3.0), st.floats(0.3, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry(self, alpha, beta):
        if abs(alpha - beta) < 0.05:
            return
        d = Laplace(0.0, 1.4)
        assert generalized_renyi2(alpha, beta, d) == pytest.approx(
            generalized_renyi2(beta, alpha, d), rel=1e-12, abs=1e-12)

    def test_gamma_requires_both_orders_admissible(self):
        # mu = 0.6: alpha fine at 1.2, beta = 3 violates beta*(mu-1) > -1
        with pytest.raises(ValidityDomainError, match=r"beta\*\(mu-1\)"):
            generalized_renyi2(1.2, 3.0, Gamma(1.0, 0.6))


class TestSharmaMittal:
    def test_exponential_pin(self):
        assert sharma_mittal(2.0, 3.0, Exponential(1.0)) == pytest.approx(0.375, abs=1e-13)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 4.0])
    def test_zero_crossing_for_any_beta(self, beta):
        alpha = 2.0
        lam = alpha ** (1.0 / (alpha - 1.0))
        assert abs(sharma_mittal(alpha, beta, Exponential(lam))) <= 1e-12

    def test_laplace_follows_oracle_not_printed_form(self):
        # at lambda=1, alpha=2, beta=3 the power-integral route gives 15/32;
        # a lambda**(beta-1) prefactor would give 3/8 and disagrees with
        # the quadrature oracle
        d = Laplace(0.0, 1.0)
        value = sharma_mittal(2.0, 3.0, d)
        j = integral_p_alpha(d, 2.0, CFG).value
        est = (j ** ((1 - 3.0) / (1 - 2.0)) - 1.0) / (1 - 3.0)
        assert value == pytest.approx(15.0 / 32.0, abs=1e-13)
        assert value == pytest.approx(est, abs=1e-9)


class TestModifiedShannon:
    def test_normal_pin(self):
        for s2 in (1.0, 4.0):
            want = math.sqrt(s2) * math.sqrt(math.pi / 2.0)
            assert modified_shannon(Normal(0.0, s2)) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
    def test_exponential_pin(self, lam):
        assert modified_shannon(Exponential(lam)) == pytest.approx(1.0 / lam, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_laplace_pin(self, lam):
        assert modified_shannon(Laplace(3.0, lam)) == pytest.approx(2.0 / lam, abs=1e-10)

    def test_chisq_pins(self):
        assert modified_shannon(ChiSquared(2)) == pytest.approx(2.0, abs=1e-10)
        with pytest.raises(UnboundedDensityError):
            modified_shannon(ChiSquared(1))

    def test_chisq_nu_ge_3_closed_form(self):
        for nu in (3, 4, 9):
            z = nu / 2.0 - 1.0
            want = (2.0 * math.exp(log_gamma(nu / 2.0)) * z ** (2.0 - nu / 2.0)
                    * math.exp(z) * (math.log(z) - digamma(z)))
            assert modified_shannon(ChiSquared(nu)) == pytest.approx(want, rel=1e-11)

    def test_uniform_zero(self):
        assert abs(modified_shannon(Uniform(-2.0, 5.0))) <= 1e-12

    def test_lognormal_closed_form(self):
        m, s2 = 0.4, 1.3
        want = (math.sqrt(s2) * (s2 + 1.0) * math.sqrt(math.pi / 2.0)
                * math.exp(m - s2 / 2.0))
        assert modified_shannon(LogNormal(m, s2)) == pytest.approx(want, rel=1e-12)

    def test_gamma_closed_form_via_digamma(self):
        lam, mu = 1.7, 3.4
        want = (math.exp(log_gamma(mu - 1.0)) / lam * (mu - 1.0) ** (2.0 - mu)
                * math.exp(mu - 1.0) * (mu - 1.0)
                * (math.log(mu - 1.0) - digamma(mu - 1.0)))
        assert modified_shannon(Gamma(lam, mu)) == pytest.approx(want, rel=1e-11)
        assert modified_shannon(Gamma(lam, mu)) > 0.0

    def test_identity_against_shannon_and_sup(self, rng):
        for family in ("exp", "laplace", "lognormal", "normal", "uniform"):
            for _ in range(20):
                d = random_distribution(family, rng)
                m = density_sup(d).M
                want = shannon(d) / m + math.log(m) / m
                assert modified_shannon(d) == pytest.approx(want, abs=1e-12)
                assert modified_shannon(d) >= 0.0


class TestKLDivergence:
    def test_exponential_pins(self):
        assert kl_divergence(Exponential(3.0), Exponential(3.0)) == 0.0
        assert kl_divergence(Exponential(2.0), Exponential(1.0)) == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-13)

    def test_laplace_zero_and_oracle(self):
        assert kl_divergence(Laplace(1.0, 2.0), Laplace(1.0, 2.0)) == 0.0
        p, q = Laplace(0.5, 2.0), Laplace(-0.3, 0.7)
        assert kl_divergence(p, q) == pytest.approx(kl_integral(p, q, CFG).value, abs=1e-9)

    def test_gamma_and_chisq_oracle(self):
        p, q = Gamma(1.2, 2.5), Gamma(0.8, 1.1)
        assert kl_divergence(p, q) == pytest.approx(kl_integral(p, q, CFG).value, abs=1e-9)
        p, q = ChiSquared(3), ChiSquared(6)
        assert kl_divergence(p, q) == pytest.approx(kl_integral(p, q, CFG).value, abs=1e-9)

    def test_chisq_closed_formula(self):
        # log Gamma(nu1/2) - log Gamma(nu/2) + (nu-nu1)/2 psi(nu/2)
        nu, nu1 = 7, 3
        want = (log_gamma(nu1 / 2.0) - log_gamma(nu / 2.0)
                + (nu - nu1) / 2.0 * digamma(nu / 2.0))
        assert kl_divergence(ChiSquared(nu), ChiSquared(nu1)) == pytest.approx(want, rel=1e-12)

    def test_lognormal_pin(self):
        assert kl_divergence(LogNormal(1.0, 1.0), LogNormal(0.0, 1.0)) == pytest.approx(
            0.5, abs=1e-13)

    def test_cross_family_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            kl_divergence(Exponential(1.0), Gamma(1.0, 1.0))
        with pytest.raises(UnsupportedFamilyError):
            kl_divergence(Normal(0.0, 1.0), Normal(0.0, 2.0))

    def test_nonnegativity_with_zero_iff_equal(self, rng):
        for family in ("gamma", "exp", "chisq", "laplace", "lognormal"):
            for _ in range(40):
                p = random_distribution(family, rng)
                q = random_distribution(family, rng)
                v = kl_divergence(p, q)
                assert v >= -1e-12
                if p == q:
                    assert v <= 1e-12
                assert kl_divergence(p, p) <= 1e-12


    @pytest.mark.parametrize("p, q", [
        (Gamma(1e-300, 1.0), Gamma(1e300, 1.0)), (Gamma(1e300, 1.0), Gamma(1e-300, 1.0)),
        (Exponential(1e-300), Exponential(1e300)), (Exponential(1e300), Exponential(1e-300))])
    def test_rate_ratio_beyond_float_range_raises_parameter_error(self, p, q):
        with pytest.raises(ParameterError) as err:
            kl_divergence(p, q)
        assert format_spec(p) in str(err.value) and format_spec(q) in str(err.value)

    def test_finite_extremes_unchanged(self):
        # still finite: the guard must not touch these values
        p, q = Exponential(1e-150), Exponential(1e150)
        assert kl_divergence(p, q) == math.log(p.lam / q.lam) + q.lam / p.lam - 1.0
        assert kl_divergence(q, p) == math.log(q.lam / p.lam) + p.lam / q.lam - 1.0


class TestChiSquaredFormulaTable:
    """The printed chi-squared formulas, asserted against the gamma delegation."""

    def test_shannon(self):
        for nu in (1, 2, 5, 8):
            want = (math.log(2.0) + log_gamma(nu / 2.0) + nu / 2.0
                    - digamma(nu / 2.0) * (nu / 2.0 - 1.0))
            assert shannon(ChiSquared(nu)) == pytest.approx(want, rel=1e-12)

    def test_renyi(self):
        nu, alpha = 5, 1.8
        a = alpha * (nu / 2.0 - 1.0)
        want = (math.log(2.0)
                - (alpha * log_gamma(nu / 2.0) - log_gamma(a + 1.0)) / (1.0 - alpha)
                - (1.0 - alpha + alpha * nu / 2.0) / (1.0 - alpha) * math.log(alpha))
        assert renyi(alpha, ChiSquared(nu)) == pytest.approx(want, rel=1e-12)

    def test_gr1(self):
        nu, alpha = 7, 2.3
        z = nu / 2.0 - 1.0
        want = (math.log(2.0) + log_gamma(nu / 2.0) + z * math.log(alpha)
                - z * digamma(alpha * z + 1.0) + z + 1.0 / alpha)
        assert generalized_renyi1(alpha, ChiSquared(nu)) == pytest.approx(want, rel=1e-12)

    def test_tsallis(self):
        nu, alpha = 4, 2.5
        z = nu / 2.0 - 1.0
        j = (2.0 ** (1.0 - alpha) * alpha ** (-alpha * z - 1.0)
             * math.exp(log_gamma(alpha * z + 1.0) - alpha * log_gamma(nu / 2.0)))
        want = (j - 1.0) / (1.0 - alpha)
        assert tsallis(alpha, ChiSquared(nu)) == pytest.approx(want, rel=1e-12)

    def test_gr2_and_sm(self):
        nu, alpha, beta = 6, 1.4, 2.2
        z = nu / 2.0 - 1.0
        want_gr2 = (math.log(2.0) + log_gamma(nu / 2.0)
                    + (math.log(beta ** (beta * z + 1.0) / alpha ** (alpha * z + 1.0))
                       + log_gamma(alpha * z + 1.0) - log_gamma(beta * z + 1.0))
                    / (beta - alpha))
        assert generalized_renyi2(alpha, beta, ChiSquared(nu)) == pytest.approx(
            want_gr2, rel=1e-12)
        j = (2.0 ** (1.0 - alpha) * alpha ** (-alpha * z - 1.0)
             * math.exp(log_gamma(alpha * z + 1.0) - alpha * log_gamma(nu / 2.0)))
        want_sm = (j ** ((1.0 - beta) / (1.0 - alpha)) - 1.0) / (1.0 - beta)
        assert sharma_mittal(alpha, beta, ChiSquared(nu)) == pytest.approx(
            want_sm, rel=1e-12)


class TestParameterDependence:
    def test_exponential_all_measures_decrease_in_lambda(self):
        lams = np.geomspace(0.05, 30.0, 60)
        for fn in [shannon,
                   lambda d: renyi(1.6, d), lambda d: generalized_renyi1(2.0, d),
                   lambda d: tsallis(1.6, d), lambda d: generalized_renyi2(1.2, 2.1, d),
                   lambda d: sharma_mittal(1.6, 2.4, d)]:
            vals = [fn(Exponential(l)) for l in lams]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gamma_shannon_monotone_both_parameters(self):
        grid = np.linspace(0.1, 10.0, 30)
        for mu in (0.2, 1.0, 4.0):
            vals = [shannon(Gamma(l, mu)) for l in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for lam in (0.2, 1.0, 4.0):
            vals = [shannon(Gamma(lam, m)) for m in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_laplace_location_invariance(self):
        for mu in (-11.0, 0.0, 42.0):
            d = Laplace(mu, 1.3)
            assert shannon(d) == shannon(Laplace(0.0, 1.3))
            assert renyi(2.2, d) == renyi(2.2, Laplace(0.0, 1.3))
            assert tsallis(0.7, d) == tsallis(0.7, Laplace(0.0, 1.3))
            assert sharma_mittal(2.0, 3.0, d) == sharma_mittal(2.0, 3.0, Laplace(0.0, 1.3))

    def test_lognormal_shifts_additively_in_m(self):
        base, shifted = LogNormal(0.2, 0.9), LogNormal(0.2 + 1.7, 0.9)
        for fn in [shannon, lambda d: renyi(1.8, d),
                   lambda d: generalized_renyi1(2.4, d),
                   lambda d: generalized_renyi2(1.3, 2.2, d)]:
            assert fn(shifted) - fn(base) == pytest.approx(1.7, abs=1e-12)


class TestLogNormalMoments:
    def test_trivial_pins(self):
        assert lognormal_moment(0.0, 1.3, 2.0, "plain") == 1.0
        assert lognormal_moment(0.0, 0.0, 1.0, "times_centered_sq") == 1.0

    def test_first_moment(self):
        assert lognormal_moment(1.0, 0.0, 1.0, "plain") == pytest.approx(
            math.exp(0.5), rel=1e-13)

    def test_against_quadrature(self, cfg):
        from entrokit import integrate_halfline, logpdf  # noqa: PLC0415
        m, s2, p = 0.3, 0.8, 1.4
        d = LogNormal(m, s2)

        def g(kind):
            def f(x):
                w = np.exp(logpdf(d, x)) * x**p
                if kind == "times_log":
                    w = w * np.log(np.where(x > 0, x, 1.0))
                elif kind == "times_centered_sq":
                    w = w * (np.log(np.where(x > 0, x, 1.0)) - m) ** 2
                return np.where(x > 0, w, 0.0)
            return f

        for kind in ("plain", "times_log", "times_centered_sq"):
            est = integrate_halfline(g(kind), cfg, scale=math.exp(m + s2 * (1 + p))).value
            assert lognormal_moment(p, m, s2, kind) == pytest.approx(est, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ParameterError):
            lognormal_moment(1.0, 0.0, -1.0, "plain")
        with pytest.raises(ParameterError):
            lognormal_moment(1.0, 0.0, 1.0, "cubed")


class TestEntropySpec:
    def test_measure_validation(self):
        with pytest.raises(ParameterError):
            EntropySpec("entropy")
        with pytest.raises(ParameterError):
            EntropySpec("shannon", alpha=2.0)
        with pytest.raises(ParameterError):
            EntropySpec("renyi")
        with pytest.raises(ParameterError):
            EntropySpec("renyi", alpha=1.0 + 1e-11)
        with pytest.raises(ParameterError):
            EntropySpec("gr2", alpha=2.0, beta=2.0)
        with pytest.raises(ParameterError):
            EntropySpec("tsallis", alpha=-2.0)
        with pytest.raises(ParameterError):
            EntropySpec("renyi", alpha=2.0, beta=3.0)

    def test_evaluate_dispatch(self):
        d = Exponential(1.0)
        assert evaluate(EntropySpec("shannon"), d) == shannon(d)
        assert evaluate(EntropySpec("renyi", 2.0), d) == renyi(2.0, d)
        assert evaluate(EntropySpec("gr1", 2.0), d) == generalized_renyi1(2.0, d)
        assert evaluate(EntropySpec("tsallis", 2.0), d) == tsallis(2.0, d)
        assert evaluate(EntropySpec("gr2", 2.0, 3.0), d) == generalized_renyi2(2.0, 3.0, d)
        assert evaluate(EntropySpec("sm", 2.0, 3.0), d) == sharma_mittal(2.0, 3.0, d)
        assert evaluate(EntropySpec("modified"), d) == modified_shannon(d)

    def test_measures_unsupported_for_discrete(self):
        with pytest.raises(UnsupportedFamilyError):
            renyi(2.0, Poisson(1.0))
        with pytest.raises(UnsupportedFamilyError):
            tsallis(2.0, Binomial(3, 0.5))


class TestFloatRange:
    """Closed forms whose value leaves the float range name the record."""

    @pytest.mark.parametrize("d", [LogNormal(0.0, 2000.0), LogNormal(800.0, 1.0),
                                   LogNormal(800.0, 100.0)])
    def test_density_sup_out_of_range(self, d):
        for fn in (density_sup, modified_shannon):
            with pytest.raises(ParameterError, match=format_spec(d)):
                fn(d)

    def test_modified_of_a_subnormal_rate(self):
        with pytest.raises(ParameterError, match="exp:lambda=1e-320"):
            modified_shannon(Exponential(1e-320))

    @pytest.mark.parametrize("args", [(40.0, 0.0, 1.0), (1.0, 0.0, math.inf),
                                      (1.0, math.nan, 1.0), ("a", 0.0, 1.0)])
    def test_lognormal_moment_out_of_range(self, args):
        with pytest.raises(ParameterError):
            lognormal_moment(*args)

    def test_density_sup_of_a_discrete_record(self):
        with pytest.raises(FamilyMismatchError):
            density_sup(Poisson(3.0))

    def test_tsallis_whose_power_integral_overflows(self):
        # log J = 713.8 is finite; expm1 of it is past the float range
        with pytest.raises(ParameterError, match="exp:lambda=1e-300"):
            tsallis(1e-10, Exponential(1e-300))


def test_sharma_mittal_with_equal_orders_is_tsallis():
    d = Exponential(1.5)
    assert evaluate(EntropySpec("sm", 2.0, 2.0), d) == pytest.approx(tsallis(2.0, d), rel=1e-14)
