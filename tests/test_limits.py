import math

import numpy as np
import pytest

from entrokit import (ConvergenceTable, ExperimentRow, Logarithmic,
                      NegBinomialConditional, appendix_series_growth,
                      binomial_to_poisson, discrete_entropy_sum,
                      nb_to_logarithmic, pmf, poisson_entropy,
                      poisson_entropy_derivative, shannon)
from entrokit.errors import ParameterError


class TestPoissonEntropy:
    def test_pin_at_one(self):
        assert poisson_entropy(1.0) == pytest.approx(1.3048422422562515, abs=1e-12)

    def test_matches_direct_pmf_summation(self, cfg):
        for lam in (0.3, 2.0, 17.0):
            from entrokit import Poisson  # noqa: PLC0415
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
