"""Poisson entropy analysis and the Shannon-entropy convergence experiments.

The Poisson entropy is evaluated through its series form

    H(lam) = -lam*log(lam/e) + sum_{k>=0} p_k log(k!)

and its derivative through

    H'(lam) = sum_{k>=0} p_k log(k+1)  -  log(lam),

with p_k the Poisson(lam) probabilities; each series is summed by the
oracle's engine from the mode on the record's log-pmf, at the oracle's
one configuration, and this module only supplies the weights.
The convergence experiments produce tables: binomial entropies with
p_n = lam/n approaching the Poisson entropy, and conditional negative
binomial entropies approaching the logarithmic entropy as r -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .distributions import Binomial, Logarithmic, NegBinomialConditional, Poisson
from .errors import ParameterError, as_grid_integer, as_iterable, as_real
from .special import log_gamma


@dataclass(frozen=True)
class ExperimentRow:
    """One line of a convergence table."""

    driver: float
    approx: float
    limit: float
    abs_error: float

    def __post_init__(self):
        if abs(self.abs_error - abs(self.approx - self.limit)) > 1e-15 * (1 + self.abs_error):
            raise ParameterError("abs_error must equal |approx - limit|")


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of a convergence experiment, in grid order toward the limit."""

    driver_name: str
    rows: tuple[ExperimentRow, ...]

    def __post_init__(self):
        drivers = [r.driver for r in self.rows]
        ascending = all(a < b for a, b in zip(drivers, drivers[1:]))
        descending = all(a > b for a, b in zip(drivers, drivers[1:]))
        if not (ascending or descending):
            raise ParameterError("table rows must be strictly monotone in the driver")

    def errors(self):
        return [r.abs_error for r in self.rows]


def _log_factorial(k):
    return log_gamma(k + 1.0)


def _log_next(k):
    return np.log(k + 1.0)


def poisson_entropy(lam: float) -> float:
    """Shannon entropy of Poisson(lam); strictly positive and increasing in lam.

    The paper's form cancels lam*log(lam) against the series, so the
    result is off by a few ulp of lam*log(lam): 3.5e-12 at lam = 1e4 and
    3.4e-9 at 1e6 against mpmath.  For large lam use
    shannon(Poisson(lam)), which sums -p_k log p_k directly.
    """
    d = Poisson(lam)  # checks lam and stores it as a float
    series = oracle.discrete_expectation(d, _log_factorial)
    return -d.lam * (math.log(d.lam) - 1.0) + series.value


def poisson_entropy_derivative(lam: float) -> float:
    """d/dlam of the Poisson entropy; positive, decreasing, and -> 0 at infinity."""
    d = Poisson(lam)
    series = oracle.discrete_expectation(d, _log_next)
    return series.value - math.log(d.lam)


def appendix_series_growth(lam_grid):
    """exp(-lam) * sum_i lam**i log(i+1) / i! on an increasing lam grid.

    The sequence diverges to infinity, eventually exceeding log(N+1) for
    every N; the grid values make that concrete.
    """
    records = [Poisson(v) for v in as_iterable(lam_grid, "lam_grid")]
    if not records or any(b.lam <= a.lam for a, b in zip(records, records[1:])):
        raise ParameterError("lambda grid must be strictly increasing")
    return [(d.lam, oracle.discrete_expectation(d, _log_next).value) for d in records]


def _table(driver_name: str, drivers, limit_d, record) -> ConvergenceTable:
    """Shannon entropies of record(x) over the drivers x against that of limit_d."""
    limit = -oracle.discrete_entropy_sum(limit_d, "p_log_p", 1.0).value
    rows = []
    for x in drivers:
        approx = -oracle.discrete_entropy_sum(record(x), "p_log_p", 1.0).value
        rows.append(ExperimentRow(float(x), approx, limit, abs(approx - limit)))
    return ConvergenceTable(driver_name, tuple(rows))


def binomial_to_poisson(lam: float, n_grid, perturb: float = 0.0) -> ConvergenceTable:
    """Binomial(n, p_n) Shannon entropies against the Poisson(lam) limit.

    p_n = (lam/n) * (1 + perturb/n); the default perturb = 0 is the plain
    scheme, the knob demonstrates that only n * p_n -> lam matters.  A
    p_n outside (0, 1) is a ParameterError of its Binomial record.
    """
    target, perturb = Poisson(lam), as_real(perturb, "perturb")
    ns = [as_grid_integer(n, "n") for n in as_iterable(n_grid, "n_grid")]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("n grid must be strictly increasing")
    return _table("n", ns, target, lambda n: Binomial(n, (target.lam / n) * (1.0 + perturb / n)))


def nb_to_logarithmic(p: float, r_grid) -> ConvergenceTable:
    """Conditional negative binomial entropies against the Logarithmic(p) limit.

    The r grid must decrease within (0, 1/2), the region where the
    dominated-convergence construction behind the limit applies.
    """
    target = Logarithmic(p)
    rs = [as_real(r, "r grid value") for r in as_iterable(r_grid, "r_grid")]
    if not rs or any(b >= a for a, b in zip(rs, rs[1:])):
        raise ParameterError("r grid must be strictly decreasing")
    if any(not 0.0 < r < 0.5 for r in rs):
        raise ParameterError("invalid grid: r values must lie in (0, 1/2)")
    return _table("r", rs, target, lambda r: NegBinomialConditional(target.p, r))
