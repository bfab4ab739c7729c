"""Poisson entropy analysis and the Shannon-entropy convergence experiments.

The Poisson entropy is evaluated through its series form

    H(lam) = -lam*log(lam/e) + sum_{k>=0} p_k log(k!)

and its derivative through

    H'(lam) = sum_{k>=0} p_k log(k+1)  -  log(lam),

with p_k the Poisson(lam) probabilities; each series is summed by the
oracle's engine from the mode on the record's log-pmf, and this module
only supplies the weights.
The convergence experiments produce tables: binomial entropies with
p_n = lam/n approaching the Poisson entropy, and conditional negative
binomial entropies approaching the logarithmic entropy as r -> 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import oracle
from .distributions import Binomial, Logarithmic, NegBinomialConditional, Poisson
from .errors import ParameterError
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


def _intensity(lam) -> float:
    if isinstance(lam, bool) or not (
            isinstance(lam, numbers.Real) and math.isfinite(lam) and lam > 0):
        raise ParameterError(f"lambda must be a positive real, got {lam!r}")
    return float(lam)


def _log_factorial(k):
    # exactly 0 at k = 0, 1, where log_gamma is off by a few ulp of 1
    return np.where(k < 2, 0.0, log_gamma(k + 1.0))


def _log_next(k):
    return np.log(k + 1.0)


def poisson_entropy(lam: float, cfg: oracle.OracleConfig | None = None) -> float:
    """Shannon entropy of Poisson(lam); strictly positive and increasing in lam.

    The paper's form cancels lam*log(lam) against the series, so the
    result is off by a few ulp of lam*log(lam): 3.5e-12 at lam = 1e4 and
    3.4e-9 at 1e6 against mpmath.  For large lam use
    shannon(Poisson(lam)), which sums -p_k log p_k directly.
    """
    lam = _intensity(lam)
    series = oracle.discrete_expectation(Poisson(lam), _log_factorial,
                                         cfg or oracle.OracleConfig())
    return -lam * (math.log(lam) - 1.0) + series.value


def poisson_entropy_derivative(lam: float, cfg: oracle.OracleConfig | None = None) -> float:
    """d/dlam of the Poisson entropy; positive, decreasing, and -> 0 at infinity."""
    lam = _intensity(lam)
    series = oracle.discrete_expectation(Poisson(lam), _log_next, cfg or oracle.OracleConfig())
    return series.value - math.log(lam)


def appendix_series_growth(lam_grid, cfg: oracle.OracleConfig | None = None):
    """exp(-lam) * sum_i lam**i log(i+1) / i! on an increasing lam grid.

    The sequence diverges to infinity, eventually exceeding log(N+1) for
    every N; the grid values make that concrete.
    """
    lams = [_intensity(v) for v in lam_grid]
    if not lams or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ParameterError("lambda grid must be strictly increasing")
    cfg = cfg or oracle.OracleConfig()
    return [(lam, oracle.discrete_expectation(Poisson(lam), _log_next, cfg).value)
            for lam in lams]


def _integer(v) -> int:
    """v as an int, if it is a real within 1e-9 of one."""
    if isinstance(v, bool) or not (
            isinstance(v, numbers.Real) and math.isfinite(v) and abs(v - round(v)) <= 1e-9):
        raise ParameterError(f"n grid needs integer values, got {v!r}")
    return int(round(v))


def binomial_to_poisson(lam: float, n_grid, perturb: float = 0.0,
                        cfg: oracle.OracleConfig | None = None) -> ConvergenceTable:
    """Binomial(n, p_n) Shannon entropies against the Poisson(lam) limit.

    p_n = (lam/n) * (1 + perturb/n); the default perturb = 0 is the plain
    scheme, the knob demonstrates that only n * p_n -> lam matters.  Both
    columns are summed by the oracle's engine.
    """
    cfg = cfg or oracle.OracleConfig()
    lam = _intensity(lam)
    ns = [_integer(n) for n in n_grid]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("n grid must be strictly increasing")
    limit = -oracle.discrete_entropy_sum(Poisson(lam), "p_log_p", 1.0, cfg).value
    rows = []
    for n in ns:
        p_n = (lam / n) * (1.0 + perturb / n)
        if not 0.0 < p_n < 1.0:
            raise ParameterError(
                f"invalid grid: p_n = {p_n:.6g} outside (0, 1) at n = {n}")
        approx = -oracle.discrete_entropy_sum(Binomial(n, p_n), "p_log_p", 1.0, cfg).value
        rows.append(ExperimentRow(float(n), approx, limit, abs(approx - limit)))
    return ConvergenceTable("n", tuple(rows))


def nb_to_logarithmic(p: float, r_grid,
                      cfg: oracle.OracleConfig | None = None) -> ConvergenceTable:
    """Conditional negative binomial entropies against the Logarithmic(p) limit.

    The r grid must decrease within (0, 1/2), the region where the
    dominated-convergence construction behind the limit applies.
    """
    cfg = cfg or oracle.OracleConfig()
    rs = [float(r) for r in r_grid]
    if not rs or any(b >= a for a, b in zip(rs, rs[1:])):
        raise ParameterError("r grid must be strictly decreasing")
    if any(not 0.0 < r < 0.5 for r in rs):
        raise ParameterError("invalid grid: r values must lie in (0, 1/2)")
    limit = -oracle.discrete_entropy_sum(Logarithmic(p), "p_log_p", 1.0, cfg).value
    rows = []
    for r in rs:
        approx = -oracle.discrete_entropy_sum(
            NegBinomialConditional(p, r), "p_log_p", 1.0, cfg).value
        rows.append(ExperimentRow(r, approx, limit, abs(approx - limit)))
    return ConvergenceTable("r", tuple(rows))
