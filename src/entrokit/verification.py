"""Randomized oracle-equivalence and monotonicity suites.

Shared by the CLI selftest verb and the acceptance tests: admissible
parameter draws per family, scaled closed-form vs oracle comparison,
and the monotonicity sweeps the closed forms are expected to satisfy.
All randomness flows through a caller-supplied seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from . import limits, oracle
from .distributions import (ChiSquared, Distribution, Exponential, Gamma, Laplace,
                            LogNormal, Normal, Uniform)
from .errors import ParameterError, as_integer
from .measures import ORDERS, oracle_error

ORACLE_FAMILIES = ("gamma", "exp", "chisq", "laplace", "lognormal", "normal", "uniform")
CORE_FAMILIES = ("gamma", "exp", "chisq", "laplace", "lognormal")
ORACLE_MEASURES = ("shannon", "renyi", "gr1", "tsallis", "gr2", "sm")


# one admissible draw per family, kept at desk scale; arguments are drawn left to right
_DRAWS = {
    "gamma": lambda rng: Gamma(10 ** rng.uniform(-1.0, 0.9), 10 ** rng.uniform(-0.8, 0.9)),
    "exp": lambda rng: Exponential(10 ** rng.uniform(-1.0, 1.0)),
    "chisq": lambda rng: ChiSquared(int(rng.integers(1, 13))),
    "laplace": lambda rng: Laplace(rng.uniform(-3.0, 3.0), 10 ** rng.uniform(-1.0, 1.0)),
    "lognormal": lambda rng: LogNormal(rng.uniform(-2.0, 2.0), 10 ** rng.uniform(-0.8, 0.4)),
    "normal": lambda rng: Normal(rng.uniform(-3.0, 3.0), 10 ** rng.uniform(-1.0, 1.0)),
    "uniform": lambda rng: Uniform(a := rng.uniform(-3.0, 1.0),
                                   a + 10 ** rng.uniform(-1.0, 1.0)),
}


def random_distribution(family: str, rng: np.random.Generator) -> Distribution:
    """One admissible parameter draw, kept at desk scale."""
    if family not in _DRAWS:
        raise ParameterError(f"unknown family {family!r}")
    return _DRAWS[family](rng)


def random_order(d: Distribution, rng: np.random.Generator,
                 exclude: float | None = None) -> float:
    """An order parameter admissible for d, away from 1 and from `exclude`.

    For gamma-type distributions with mu < 1 the draw keeps
    alpha*(mu-1) >= -0.7, so a + 1 >= 0.3 stays far above the oracle's
    floor of 1/20 for an x**a endpoint at 0.
    """
    hi = 3.5
    if isinstance(d, (Gamma, ChiSquared)) and d.mu < 1.0:  # chi-squared reads mu = nu/2
        hi = min(hi, 0.7 / (1.0 - d.mu))
    for _ in range(1000):
        alpha = rng.uniform(0.3, hi)
        if abs(alpha - 1.0) < 0.05:
            continue
        if exclude is not None and abs(alpha - exclude) < 0.05:
            continue
        return alpha
    raise RuntimeError("could not draw an admissible order")


def random_spec(measure: str, d: Distribution, rng: np.random.Generator) -> cf.EntropySpec:
    """measure with as many random orders as it takes (measures.ORDERS), beta away from alpha."""
    orders = []
    for _ in ORDERS.get(measure, ()):  # EntropySpec names an unknown measure
        orders.append(random_order(d, rng, exclude=orders[0] if orders else None))
    return cf.EntropySpec(measure, *orders)


@dataclass(frozen=True)
class OracleCheckRow:
    """Worst measures.oracle_error over the draws of one (family, measure) cell."""

    family: str
    measure: str
    draws: int
    max_error: float


def oracle_equivalence(families, measures, draws: int, seed: int) -> list[OracleCheckRow]:
    """measures.oracle_error of each closed form against its oracle value, max per cell.

    The oracle runs at OracleConfig()'s defaults, as everywhere in the
    package.

    A NaN or inf oracle value makes its cell's max_error inf.

    Raises ParameterError for an empty family list, fewer than one draw
    or a negative seed, which would check nothing or fail in numpy.
    """
    if not families:
        raise ParameterError("oracle equivalence needs at least one family")
    draws, seed = as_integer(draws, "draws"), as_integer(seed, "seed")
    if draws < 1:
        raise ParameterError(f"oracle equivalence needs at least 1 draw, got {draws}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    rows = []
    for family in families:
        for measure in measures:
            worst = 0.0
            for _ in range(draws):
                d = random_distribution(family, rng)
                spec = random_spec(measure, d, rng)
                closed = cf.evaluate(spec, d)
                est = oracle.entropy_estimate(d, measure, spec.alpha, spec.beta)
                worst = max(worst, oracle_error(closed, est))
            rows.append(OracleCheckRow(family, measure, draws, worst))
    return rows


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _strictly_increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def monotonicity_checks() -> list[tuple[str, bool]]:
    """The analytic monotonicity claims as named pass/fail checks."""
    checks = []
    lams = np.geomspace(0.05, 20.0, 40)
    for name, fn in [
        ("shannon", lambda lam: cf.shannon(Exponential(lam))),
        ("renyi(1.7)", lambda lam: cf.renyi(1.7, Exponential(lam))),
        ("gr1(2.0)", lambda lam: cf.generalized_renyi1(2.0, Exponential(lam))),
        ("gr2(1.3,2.4)", lambda lam: cf.generalized_renyi2(1.3, 2.4, Exponential(lam))),
        ("tsallis(1.7)", lambda lam: cf.tsallis(1.7, Exponential(lam))),
        ("sm(1.7,2.5)", lambda lam: cf.sharma_mittal(1.7, 2.5, Exponential(lam))),
    ]:
        checks.append((f"exponential {name} strictly decreasing in lambda",
                       _strictly_decreasing([fn(l) for l in lams])))
    grid = np.linspace(0.1, 10.0, 25)
    ok_lam = all(_strictly_decreasing([cf.shannon(Gamma(l, m)) for l in grid])
                 for m in grid[::6])
    ok_mu = all(_strictly_increasing([cf.shannon(Gamma(l, m)) for m in grid])
                for l in grid[::6])
    checks.append(("gamma shannon strictly decreasing in lambda", ok_lam))
    checks.append(("gamma shannon strictly increasing in mu", ok_mu))
    pois = [limits.poisson_entropy(l) for l in np.geomspace(0.05, 50.0, 30)]
    checks.append(("poisson entropy strictly increasing in lambda",
                   _strictly_increasing(pois)))
    return checks
