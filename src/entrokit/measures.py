"""Measure names, the order-parameter checks and the oracle verdict every entry point shares.

Kept apart from closed_form, and free of numpy, so that the command-line
parser can offer the measure names without loading any numeric module.
Chi-squared is looked up as Gamma(1/2, nu/2) by every measure: its
record reads lam = 1/2 and mu = nu/2 (distributions).
oracle_error is the one verdict on a closed form against its oracle
value; --verify and selftest both pass a value within their tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, as_real

# measure -> the orders it takes, each as check_order's exclude_one (alpha first)
_ORDERS = {"shannon": (), "renyi": (True,), "gr1": (False,), "tsallis": (True,),
           "gr2": (False, False), "sm": (True, True), "modified": ()}
MEASURES = tuple(_ORDERS)

# orders closer than this to a forbidden value are rejected, never nudged
ORDER_EPS = 1e-10


def check_order(name, value, exclude_one) -> float:
    """value as a float, once it is a positive order, not within ORDER_EPS of 1 if excluded."""
    value = as_real(value, name)
    if value <= 0:
        raise ParameterError(f"{name} must be positive, got {value}")
    if exclude_one and abs(value - 1.0) < ORDER_EPS:
        raise ParameterError(f"{name} must differ from 1, got {value}")
    return value


def oracle_error(closed: float, est: float) -> float:
    """|closed - est| / (1 + |closed|), or inf when that is not finite (a NaN or inf estimate)."""
    error = abs(closed - est) / (1.0 + abs(closed))
    return error if math.isfinite(error) else math.inf


@dataclass(frozen=True)
class EntropySpec:
    """Which measure to evaluate plus its order parameters.

    measure is one of MEASURES.  alpha is required for renyi, gr1,
    tsallis, gr2 and sm; beta for gr2 and sm; both are stored as
    floats.  Orders within 1e-10 of a forbidden value (1 for
    renyi/tsallis/sm, alpha == beta for gr2) are rejected outright
    instead of being silently nudged.
    """

    measure: str
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.measure not in _ORDERS:
            raise ParameterError(
                f"unknown measure {self.measure!r}; expected one of {MEASURES}")
        excludes = _ORDERS[self.measure]
        for name, exclude_one in zip(("alpha", "beta"), excludes):
            object.__setattr__(self, name, check_order(name, getattr(self, name), exclude_one))
        for name in ("alpha", "beta")[len(excludes):]:
            if getattr(self, name) is not None:
                raise ParameterError(f"measure {self.measure!r} takes no {name}")
        if self.measure == "gr2" and abs(self.alpha - self.beta) < ORDER_EPS:
            raise ParameterError(f"measure 'gr2' requires alpha != beta, "
                                 f"got alpha={self.alpha}, beta={self.beta}")
