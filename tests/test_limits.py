import inspect
import math
import pickle

import numpy as np
import pytest

from entrokit import (Binomial, ConvergenceTable, ExperimentRow, Logarithmic,
                      NegBinomialConditional, OracleConfig, Poisson, appendix_series_growth,
                      binomial_to_poisson, discrete_entropy_sum,
                      nb_to_logarithmic, pmf, poisson_entropy,
                      poisson_entropy_derivative, shannon)
from entrokit.errors import ParameterError


def mpmath_poisson_sum(mpmath, lam, weight):
    """Sum of p_k weight(k, log p_k) over mean +- (50 sigma + 50), walked by the pmf ratio."""
    sd = math.sqrt(lam)
    first, last = max(0, math.floor(lam - 50 * sd) - 50), math.ceil(lam + 50 * sd) + 50
    big_lam = mpmath.mpf(lam)
    lp = first * mpmath.log(big_lam) - big_lam - mpmath.loggamma(first + 1)
    total = 0
    for k in range(first, last + 1):
        total += mpmath.exp(lp) * weight(k, lp)
        lp += mpmath.log(big_lam / (k + 1))
    return total


class TestPoissonEntropy:
    def test_pin_at_one(self):
        assert poisson_entropy(1.0) == pytest.approx(1.3048422422562515, abs=1e-12)

    def test_matches_direct_pmf_summation(self, cfg):
        for lam in (0.3, 2.0, 17.0):
            direct = -discrete_entropy_sum(Poisson(lam), "p_log_p", 1.0, cfg).value
            assert poisson_entropy(lam) == pytest.approx(direct, abs=1e-11)

    def test_tiny_lambda_leading_order(self):
        lam = 1e-8
        value = poisson_entropy(lam)
        assert value == pytest.approx(-lam * math.log(lam) + lam, rel=1e-6)
        assert 0.0 < value < 1e-6

    def test_positive_across_lambda_range(self):
        for lam in np.geomspace(1e-3, 1e3, 25):
            assert poisson_entropy(float(lam)) > 0.0
            assert poisson_entropy_derivative(float(lam)) > 0.0

    def test_strictly_increasing_on_grid(self):
        grid = np.geomspace(0.1, 50.0, 60)
        vals = [poisson_entropy(l) for l in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            poisson_entropy(0.0)
        with pytest.raises(ParameterError):
            poisson_entropy(-2.0)
        for bad in (True, math.inf, math.nan, "2.0", None):
            for fn in (poisson_entropy, poisson_entropy_derivative):
                with pytest.raises(ParameterError):
                    fn(bad)

    def test_numpy_scalars_are_accepted(self):
        for fn in (poisson_entropy, poisson_entropy_derivative):
            assert fn(np.int64(3)) == fn(3) == fn(3.0)
            assert fn(np.float32(0.5)) == fn(0.5)
            assert type(fn(np.float32(0.5))) is float

    @pytest.mark.parametrize("lam", [300.0, 1e3, 1e4])
    def test_against_mpmath(self, lam):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath_poisson_sum(mpmath, lam, lambda k, lp: -lp)
        got = poisson_entropy(lam)
        assert abs(got - exact) <= 1e-10 * (1.0 + got)


class TestPoissonDerivative:
    def test_positive_and_finite_difference(self):
        lam = 1.0
        h = 1e-4
        fd = (poisson_entropy(lam + h) - poisson_entropy(lam - h)) / (2.0 * h)
        got = poisson_entropy_derivative(lam)
        assert got > 0.0
        assert got == pytest.approx(fd, abs=1e-6)

    def test_large_lambda_decay(self):
        v100 = poisson_entropy_derivative(100.0)
        assert 0.0 < v100 < 0.01
        v1000 = poisson_entropy_derivative(1000.0)
        assert 0.0 < v1000 < 5e-3

    def test_monotone_decreasing(self):
        grid = list(range(1, 51))
        vals = [poisson_entropy_derivative(float(k)) for k in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_second_differences_negative(self):
        grid = np.linspace(0.2, 30.0, 80)
        h = poisson_entropy
        vals = np.array([h(float(l)) for l in grid])
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second < 0.0)

    @pytest.mark.parametrize("lam", [1e3, 1e4])
    def test_against_mpmath(self, lam):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = (mpmath_poisson_sum(mpmath, lam, lambda k, lp: mpmath.log(k + 1))
                     - mpmath.log(lam))
        assert abs(poisson_entropy_derivative(lam) - exact) <= 1e-12

    @pytest.mark.parametrize("lam", [100.0, 300.0, 1000.0])
    def test_jensen_ceiling(self, lam):
        assert poisson_entropy_derivative(lam) <= math.log((lam + 1.0) / lam) + 1e-3


class TestAppendixGrowth:
    def test_table_values(self):
        table = appendix_series_growth([1.0, 10.0, 100.0, 1000.0])
        values = [v for _, v in table]
        assert all(v > 0.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
        # the divergence bound instantiated at N = 2, 10, 100
        by_lam = dict(table)
        assert by_lam[10.0] > math.log(3.0) * 0.95
        assert by_lam[100.0] > math.log(11.0) * 0.95
        assert by_lam[1000.0] > math.log(101.0)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            appendix_series_growth([2.0, 1.0])
        with pytest.raises(ParameterError):
            appendix_series_growth([])
        with pytest.raises(ParameterError):
            appendix_series_growth([-1.0, 1.0])
        with pytest.raises(ParameterError):
            appendix_series_growth([True, 2.0])


class TestBinomialToPoisson:
    def test_default_experiment(self):
        table = binomial_to_poisson(2.0, [10, 100, 1000, 10_000])
        errs = table.errors()
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-3
        # empirical pin from the first run of this experiment
        assert errs[-1] == pytest.approx(6.9176e-5, rel=1e-3)
        assert all(r.limit == table.rows[0].limit for r in table.rows)
        assert table.rows[0].limit == pytest.approx(1.7048826439329838, abs=1e-11)

    def test_sanity_anchor(self):
        from entrokit import Binomial  # noqa: PLC0415
        assert shannon(Binomial(2, 0.5)) == pytest.approx(1.5 * math.log(2.0), abs=1e-13)

    def test_perturbed_scheme_still_converges(self):
        table = binomial_to_poisson(2.0, [10, 100, 1000, 10_000], perturb=3.0)
        errs = table.errors()
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-3

    def test_invalid_grids(self):
        with pytest.raises(ParameterError):
            binomial_to_poisson(2.0, [100, 10])
        with pytest.raises(ParameterError):
            binomial_to_poisson(20.0, [10, 100])  # p_n > 1 at n = 10
        with pytest.raises(ParameterError):
            binomial_to_poisson(2.0, [])
        for grid in ([10.7, 100], [10, 100.5], [True, 10], ["10", "100"], [10, math.inf]):
            with pytest.raises(ParameterError):
                binomial_to_poisson(2.0, grid)
        with pytest.raises(ParameterError):
            binomial_to_poisson(True, [10, 100])

    def test_integer_valued_grids_are_accepted(self):
        want = binomial_to_poisson(2.0, [10, 100, 1000])
        assert binomial_to_poisson(2.0, [10.0, np.int64(100), 1000 + 1e-12]) == want
        assert binomial_to_poisson(np.float32(2.0), list(np.geomspace(10, 1000, 3))) == want


class TestNbToLogarithmic:
    def test_default_experiment(self):
        table = nb_to_logarithmic(0.5, [0.4, 0.1, 0.01, 0.001])
        errs = table.errors()
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] == pytest.approx(6.0209e-4, rel=1e-3)
        assert table.rows[0].limit == pytest.approx(0.8829244358028679, abs=1e-11)

    def test_pmf_limit_pin(self):
        got = pmf(NegBinomialConditional(0.5, 0.001), 1)
        assert got == pytest.approx(0.5 / math.log(2.0), abs=1e-3)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_logarithmic_entropy_positive(self, p):
        assert shannon(Logarithmic(p)) > 0.0

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            nb_to_logarithmic(0.5, [0.1, 0.4])
        with pytest.raises(ParameterError):
            nb_to_logarithmic(0.5, [0.6, 0.1])  # 0.6 outside (0, 1/2)
        with pytest.raises(ParameterError):
            nb_to_logarithmic(0.5, [])


class TestTableTypes:
    def test_experiment_row_consistency_enforced(self):
        with pytest.raises(ParameterError):
            ExperimentRow(1.0, 2.0, 1.0, 0.5)
        row = ExperimentRow(1.0, 2.0, 1.0, 1.0)
        assert row.abs_error == 1.0

    def test_table_requires_monotone_driver(self):
        rows = (ExperimentRow(1.0, 1.0, 1.0, 0.0), ExperimentRow(1.0, 1.0, 1.0, 0.0))
        with pytest.raises(ParameterError):
            ConvergenceTable("n", rows)


def test_poisson_series_share_the_oracle_budget():
    from entrokit import OracleConfig  # noqa: PLC0415
    from entrokit.errors import SeriesBudgetError  # noqa: PLC0415

    tight = OracleConfig(max_terms=20)
    for fn in (poisson_entropy, poisson_entropy_derivative):
        with pytest.raises(SeriesBudgetError):
            fn(50.0, tight)
    with pytest.raises(SeriesBudgetError):
        appendix_series_growth([50.0], tight)


def test_poisson_series_run_the_default_config_without_a_cfg():
    for fn in (poisson_entropy, poisson_entropy_derivative):
        want = pickle.dumps(fn(3.7, OracleConfig()))
        assert pickle.dumps(fn(3.7)) == want
        assert pickle.dumps(fn(3.7, None)) == want
    want = pickle.dumps(appendix_series_growth([0.5, 4.0], OracleConfig()))
    assert pickle.dumps(appendix_series_growth([0.5, 4.0])) == want


def shannon_sum(d):
    return -discrete_entropy_sum(d, "p_log_p", 1.0, OracleConfig()).value


@pytest.mark.parametrize("table, limit_d, records", [
    (lambda: binomial_to_poisson(2.0, [10, 100, 1000]), Poisson(2.0),
     [Binomial(n, 2.0 / n) for n in (10, 100, 1000)]),
    (lambda: nb_to_logarithmic(0.5, [0.4, 0.1, 0.01]), Logarithmic(0.5),
     [NegBinomialConditional(0.5, r) for r in (0.4, 0.1, 0.01)]),
], ids=["binomial_to_poisson", "nb_to_logarithmic"])
def test_convergence_tables_sum_at_the_default_config(table, limit_d, records):
    """Both columns are the oracle's sums at OracleConfig(), to the bit."""
    limit = shannon_sum(limit_d)
    got = table()
    want = [(shannon_sum(d), limit) for d in records]
    assert pickle.dumps([(row.approx, row.limit) for row in got.rows]) == pickle.dumps(want)


@pytest.mark.parametrize("fn", [binomial_to_poisson, nb_to_logarithmic])
def test_convergence_tables_have_no_cfg(fn):
    assert "cfg" not in inspect.signature(fn).parameters
