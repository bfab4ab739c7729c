"""Exception hierarchy for the toolkit, and the one check of numeric parameters.

Every failure mode callers are expected to branch on gets its own class;
messages always name the violated constraint with actual values filled in.
as_real and as_integer check every numeric argument of the public entry
points: any real or integer, numpy scalars and Fractions included, comes
back as a Python float or int; bool, strings, None, NaN, +-inf and ints
past the float range raise ParameterError.  as_grid_integer reads a grid
value as the integer it is within 1e-9 of.  Range rules stay with callers.
as_iterable checks the sequence arguments (grids, split points) the same
way.
"""

import contextlib
import math
import numbers
import sys


class EntrokitError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(EntrokitError, ValueError):
    """Distribution or spec construction rejected (bad parameter value)."""


class DomainError(EntrokitError, ValueError):
    """Special-function argument outside the supported domain (x <= 0 or non-finite)."""


class FamilyMismatchError(EntrokitError, TypeError):
    """Continuous operation applied to a discrete family or vice versa."""


class UnboundedDensityError(EntrokitError):
    """Density has no finite supremum, so the modified entropy does not exist."""


class ValidityDomainError(EntrokitError):
    """Entropy order parameters violate the finiteness domain (e.g. alpha*(mu-1) <= -1).

    The message carries the violated inequality with the offending values.
    """


class UnsupportedFamilyError(EntrokitError):
    """No closed form exists for this measure/family combination."""


class NonConvergenceError(EntrokitError):
    """Adaptive quadrature exhausted its subdivision budget above tolerance."""


class SeriesBudgetError(EntrokitError):
    """Series summation hit max_terms before the tail bound certified."""


class NotPSDError(EntrokitError):
    """Matrix failed the positive-semidefiniteness check (negative pivot)."""


class SingularCovarianceError(EntrokitError):
    """Covariance determinant is zero; Gaussian entropy is -inf and not representable."""




def as_real(value, name: str) -> float:
    """value as a finite Python float, or ParameterError naming the parameter `name`."""
    # float first: it covers numpy's float64 too and is far cheaper than the ABC
    if isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int or Fraction past the float range
            if math.isfinite(float(value)):
                return float(value)
    raise ParameterError(f"{name} must be a finite real number, got {value!r}")


def as_integer(value, name: str) -> int:
    """value as a Python int within the float range, or ParameterError naming `name`."""
    if ((isinstance(value, int) or isinstance(value, numbers.Integral))
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max):
        return int(value)
    raise ParameterError(f"{name} must be an integer within the float range, got {value!r}")


def as_grid_integer(value, name: str) -> int:
    """value as an int, if it is a real within 1e-9 of one, or ParameterError naming `name`."""
    value = as_real(value, name)
    if abs(value - round(value)) > 1e-9:
        raise ParameterError(f"{name} needs integer grid values, got {value!r}")
    return round(value)


def as_iterable(value, name: str):
    """value, if it is an iterable other than a string, or ParameterError naming `name`."""
    if not isinstance(value, (str, bytes)):
        with contextlib.suppress(TypeError):
            iter(value)
            return value
    raise ParameterError(f"{name} must be an iterable of numbers, got {value!r}")
