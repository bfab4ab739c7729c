"""Measure names and the order-parameter checks every entry point shares.

Kept apart from closed_form, and free of numpy, so that the command-line
parser can offer the measure names without loading any numeric module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

MEASURES = ("shannon", "renyi", "gr1", "tsallis", "gr2", "sm", "modified")

# orders closer than this to a forbidden value are rejected, never nudged
ORDER_EPS = 1e-10


def check_order(name, value, exclude_one):
    """Raise ParameterError unless value is a finite positive order (and not 1 if excluded)."""
    if value is None or not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ParameterError(f"{name} must be a finite positive real, got {value}")
    if value <= 0:
        raise ParameterError(f"{name} must be positive, got {value}")
    if exclude_one and abs(value - 1.0) < ORDER_EPS:
        raise ParameterError(f"{name} must differ from 1, got {value}")


@dataclass(frozen=True)
class EntropySpec:
    """Which measure to evaluate plus its order parameters.

    measure is one of MEASURES.  alpha is required for renyi, gr1,
    tsallis, gr2 and sm; beta for gr2 and sm.  Orders within 1e-10 of a
    forbidden value (1 for renyi/tsallis/sm, alpha == beta for gr2) are
    rejected outright instead of being silently nudged.
    """

    measure: str
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ParameterError(
                f"unknown measure {self.measure!r}; expected one of {MEASURES}")
        needs_alpha = self.measure in ("renyi", "gr1", "tsallis", "gr2", "sm")
        needs_beta = self.measure in ("gr2", "sm")
        if needs_alpha:
            check_order("alpha", self.alpha,
                        exclude_one=self.measure in ("renyi", "tsallis", "sm"))
        elif self.alpha is not None:
            raise ParameterError(f"measure {self.measure!r} takes no alpha")
        if needs_beta:
            check_order("beta", self.beta, exclude_one=self.measure == "sm")
            if abs(self.alpha - self.beta) < ORDER_EPS:
                raise ParameterError(
                    f"measure {self.measure!r} requires alpha != beta, "
                    f"got alpha={self.alpha}, beta={self.beta}")
        elif self.beta is not None:
            raise ParameterError(f"measure {self.measure!r} takes no beta")
