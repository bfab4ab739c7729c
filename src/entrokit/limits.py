"""Poisson entropy analysis and the Shannon-entropy convergence experiments.

The Poisson entropy is evaluated through its series form

    H(lam) = -lam*log(lam/e) + exp(-lam) * sum_{k>=2} lam**k log(k!) / k!

and its derivative through

    H'(lam) = exp(-lam) * sum_{i>=1} lam**i log(i+1) / i!  -  log(lam),

both summed by the oracle's certified series engine; this module only
supplies the terms and their ratio bound.
The convergence experiments produce tables: binomial entropies with
p_n = lam/n approaching the Poisson entropy, and conditional negative
binomial entropies approaching the logarithmic entropy as r -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .distributions import Binomial, Logarithmic, NegBinomialConditional
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


def _poisson_series(lam: float, weight, start: int, cfg: oracle.OracleConfig) -> float:
    """Sum of pois_pmf(lam, k) * weight(k) for k >= start with a certified tail.

    weight must be positive and increasing with decreasing successive
    ratios weight(k+1)/weight(k) on k >= start (true for log(k!) from
    k = 2 and log(k+1) from k = 1), so that the transformed term ratio
    is bounded by its value at the current index.
    """
    log_lam = math.log(lam)

    def block(ks):
        ks = ks.astype(float)
        w = weight(ks)
        w_next = float(weight(np.array([ks[-1] + 1.0]))[0])
        q = lam / (ks[-1] + 1.0) * (w_next / float(w[-1]))
        lp = ks * log_lam - lam - log_gamma(ks + 1.0)
        t = np.exp(lp) * w
        # log p_k taken as good to a few ulp of 1 + |log p_k|: only the value is used here
        return t, q, 4.0 * oracle._U * (1.0 + float(np.max(np.abs(lp)))) * float(t.sum())

    return oracle._certified_series(block, start, cfg).value


def poisson_entropy(lam: float, cfg: oracle.OracleConfig | None = None) -> float:
    """Shannon entropy of Poisson(lam); strictly positive and increasing in lam."""
    if not (isinstance(lam, (int, float)) and lam > 0 and math.isfinite(lam)):
        raise ParameterError(f"lambda must be a positive real, got {lam}")
    cfg = cfg or oracle.OracleConfig()
    series = _poisson_series(lam, lambda k: log_gamma(k + 1.0), 2, cfg)
    return -lam * (math.log(lam) - 1.0) + series


def poisson_entropy_derivative(lam: float, cfg: oracle.OracleConfig | None = None) -> float:
    """d/dlam of the Poisson entropy; positive, decreasing, and -> 0 at infinity."""
    if not (isinstance(lam, (int, float)) and lam > 0 and math.isfinite(lam)):
        raise ParameterError(f"lambda must be a positive real, got {lam}")
    cfg = cfg or oracle.OracleConfig()
    return _poisson_series(lam, lambda k: np.log(k + 1.0), 1, cfg) - math.log(lam)


def appendix_series_growth(lam_grid, cfg: oracle.OracleConfig | None = None):
    """exp(-lam) * sum_i lam**i log(i+1) / i! on an increasing lam grid.

    The sequence diverges to infinity, eventually exceeding log(N+1) for
    every N; the grid values make that concrete.
    """
    lams = [float(v) for v in lam_grid]
    if not lams or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ParameterError("lambda grid must be strictly increasing")
    cfg = cfg or oracle.OracleConfig()
    return [(lam, _poisson_series(lam, lambda k: np.log(k + 1.0), 1, cfg)) for lam in lams]


def binomial_to_poisson(lam: float, n_grid, perturb: float = 0.0,
                        cfg: oracle.OracleConfig | None = None) -> ConvergenceTable:
    """Binomial(n, p_n) Shannon entropies against the Poisson(lam) limit.

    p_n = (lam/n) * (1 + perturb/n); the default perturb = 0 is the plain
    scheme, the knob demonstrates that only n * p_n -> lam matters.
    """
    cfg = cfg or oracle.OracleConfig()
    ns = [int(n) for n in n_grid]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("n grid must be strictly increasing")
    limit = poisson_entropy(lam, cfg)
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
