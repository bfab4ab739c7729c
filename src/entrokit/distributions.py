"""Parameter records, validation, density/pmf evaluation and the spec syntax.

Eleven families are supported.  Records are immutable; constructing one
with out-of-range parameters raises ParameterError, never silently
adjusts.  All logarithms throughout the toolkit are natural logs.

Each family class carries its own record facts: its spec name and
fields, the parameter a sweep varies by default, whether it is discrete,
and its log-density or log-mass.  Density and mass evaluation is done in
log space and vectorizes over numpy arrays, which is what the quadrature
and series oracles consume.  Poisson and Binomial use Loader's
saddle-point form (stirlerr and bd0 from special), whose pieces are
small and of one sign, so log p_k is good to a few ulp of |log p_k| plus
u |k - mean| at any scale: no log-gammas of size k log k cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FamilyMismatchError, ParameterError
from .special import bd0, log_gamma, stirlerr

_TWO_PI = 2.0 * math.pi
_LOG_2PI = math.log(_TWO_PI)


def _check(cond, msg):
    if not cond:
        raise ParameterError(msg)


def _finite(*vals):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


_FAMILIES = {}  # spec name -> record class, filled as the classes are defined


@dataclass(frozen=True)
class Distribution:
    """Base record; concrete families subclass this.

    A family's class line gives its spec syntax 'spec:key=value,...' (one
    key per field, converted by the field's int or float annotation), the
    key a sweep varies by default, and whether it is discrete, in which
    case it defines _logpmf instead of _logpdf (both on float arrays).
    Normalizing constants are cached properties, computed on the first
    evaluation: building a record costs no special-function call.
    """

    def __init_subclass__(cls, spec, keys, sweep, discrete=False, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__annotations__.items()  # types are strings: postponed annotations
        cls.spec_fields = tuple((key, attr, int if ann == "int" else float)
                                for key, (attr, ann) in zip(keys, fields, strict=True))
        cls.spec_name, cls.sweep_param, cls.is_discrete = spec, sweep, discrete
        _FAMILIES[spec] = cls


@dataclass(frozen=True)
class Gamma(Distribution, spec="gamma", keys=("lambda", "mu"), sweep="lambda"):
    lam: float
    mu: float

    def __post_init__(self):
        _check(_finite(self.lam, self.mu) and self.lam > 0 and self.mu > 0,
               f"gamma requires lambda > 0 and mu > 0, got lambda={self.lam}, mu={self.mu}")

    @cached_property
    def _log_norm(self):
        return self.mu * math.log(self.lam) - log_gamma(self.mu)

    def _logpdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.where(x > 0, x, 1.0))
            out = self._log_norm + (self.mu - 1.0) * lx - self.lam * x
        return np.where(x > 0, out, -np.inf)


@dataclass(frozen=True)
class Exponential(Distribution, spec="exp", keys=("lambda",), sweep="lambda"):
    lam: float

    def __post_init__(self):
        _check(_finite(self.lam) and self.lam > 0,
               f"exponential requires lambda > 0, got {self.lam}")

    def _logpdf(self, x):
        return np.where(x > 0, math.log(self.lam) - self.lam * x, -np.inf)


@dataclass(frozen=True)
class ChiSquared(Distribution, spec="chisq", keys=("nu",), sweep="nu"):
    nu: int

    def __post_init__(self):
        _check(isinstance(self.nu, int) and self.nu >= 1,
               f"chi-squared requires integer nu >= 1, got {self.nu}")

    def as_gamma(self) -> Gamma:
        """The equivalent Gamma(lambda=1/2, mu=nu/2) record."""
        return Gamma(0.5, self.nu / 2.0)

    @cached_property
    def _gamma(self):
        return self.as_gamma()

    def _logpdf(self, x):
        return self._gamma._logpdf(x)


@dataclass(frozen=True)
class Laplace(Distribution, spec="laplace", keys=("mu", "lambda"), sweep="lambda"):
    mu: float
    lam: float

    def __post_init__(self):
        _check(_finite(self.mu, self.lam) and self.lam > 0,
               f"laplace requires finite mu and lambda > 0, got mu={self.mu}, lambda={self.lam}")

    def _logpdf(self, x):
        return math.log(self.lam / 2.0) - self.lam * np.abs(x - self.mu)


@dataclass(frozen=True)
class LogNormal(Distribution, spec="lognormal", keys=("m", "sigma2"), sweep="m"):
    m: float
    sigma2: float

    def __post_init__(self):
        _check(_finite(self.m, self.sigma2) and self.sigma2 > 0,
               f"log-normal requires finite m and sigma2 > 0, got m={self.m}, sigma2={self.sigma2}")

    def _logpdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.where(x > 0, x, 1.0))
            out = (-lx - 0.5 * math.log(self.sigma2) - 0.5 * _LOG_2PI
                   - (lx - self.m) ** 2 / (2.0 * self.sigma2))
        return np.where(x > 0, out, -np.inf)


@dataclass(frozen=True)
class Normal(Distribution, spec="normal", keys=("mean", "sigma2"), sweep="sigma2"):
    mean: float
    sigma2: float

    def __post_init__(self):
        _check(_finite(self.mean, self.sigma2) and self.sigma2 > 0,
               f"normal requires finite mean and sigma2 > 0, got mean={self.mean}, sigma2={self.sigma2}")

    def _logpdf(self, x):
        return (-0.5 * (_LOG_2PI + math.log(self.sigma2))
                - (x - self.mean) ** 2 / (2.0 * self.sigma2))


@dataclass(frozen=True)
class Uniform(Distribution, spec="uniform", keys=("a", "b"), sweep="b"):
    a: float
    b: float

    def __post_init__(self):
        _check(_finite(self.a, self.b) and self.a < self.b,
               f"uniform requires a < b, got a={self.a}, b={self.b}")

    def _logpdf(self, x):
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, -math.log(self.b - self.a), -np.inf)


@dataclass(frozen=True)
class Poisson(Distribution, spec="poisson", keys=("lambda",), sweep="lambda", discrete=True):
    lam: float

    def __post_init__(self):
        _check(_finite(self.lam) and self.lam > 0,
               f"poisson requires lambda > 0, got {self.lam}")

    def _logpmf(self, k):
        ok = (k >= 0) & (k == np.floor(k))
        ks = np.where(ok, k, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0 is replaced below
            out = -stirlerr(ks) - bd0(ks, self.lam) - 0.5 * (_LOG_2PI + np.log(ks))
        out = np.where(ks == 0.0, -self.lam, out)
        return np.where(ok, out, -np.inf)


@dataclass(frozen=True)
class Binomial(Distribution, spec="binomial", keys=("n", "p"), sweep="p", discrete=True):
    n: int
    p: float

    def __post_init__(self):
        _check(isinstance(self.n, int) and self.n >= 1,
               f"binomial requires integer n >= 1, got n={self.n}")
        _check(_finite(self.p) and 0.0 < self.p < 1.0,
               f"binomial requires p in (0, 1), got p={self.p}")

    @cached_property
    def _stirlerr_n(self):
        return float(stirlerr(self.n))

    def _logpmf(self, k):
        n, p = self.n, self.p
        ok = (k >= 0) & (k <= n) & (k == np.floor(k))
        ks = np.where(ok, k, 0.0)
        rest = n - ks
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0, n are replaced below
            out = (self._stirlerr_n - stirlerr(ks) - stirlerr(rest)
                   - bd0(ks, n * p) - bd0(rest, n * (1.0 - p))
                   + 0.5 * np.log(n / (_TWO_PI * ks * rest)))
        out = np.where(ks == 0.0, n * math.log1p(-p), np.where(rest == 0.0, n * math.log(p), out))
        return np.where(ok, out, -np.inf)


@dataclass(frozen=True)
class NegBinomialConditional(Distribution, spec="nbcond", keys=("p", "r"), sweep="r",
                             discrete=True):
    """Negative binomial conditioned on a strictly positive outcome.

    Only the conditional law P{X = k | X > 0}, k >= 1, is exposed; it is
    the object whose small-r limit is the logarithmic distribution.
    """

    p: float
    r: float

    def __post_init__(self):
        _check(_finite(self.p) and 0.0 < self.p < 1.0,
               f"nbcond requires p in (0, 1), got p={self.p}")
        _check(_finite(self.r) and self.r > 0,
               f"nbcond requires r > 0, got r={self.r}")

    @cached_property
    def _log_gamma_r(self):
        return log_gamma(self.r)

    @cached_property
    def _log_one_minus_pr(self):
        # log(1 - p^r) via expm1 keeps precision for r near 0
        return math.log(-math.expm1(self.r * math.log(self.p)))

    def _logpmf(self, k):
        ok = (k >= 1) & (k == np.floor(k))
        ks = np.where(ok, k, 1.0)
        out = (log_gamma(ks + self.r) - self._log_gamma_r - log_gamma(ks + 1.0)
               + ks * math.log1p(-self.p) + self.r * math.log(self.p) - self._log_one_minus_pr)
        return np.where(ok, out, -np.inf)


@dataclass(frozen=True)
class Logarithmic(Distribution, spec="logarithmic", keys=("p",), sweep="p", discrete=True):
    p: float

    def __post_init__(self):
        _check(_finite(self.p) and 0.0 < self.p < 1.0,
               f"logarithmic requires p in (0, 1), got p={self.p}")

    def _logpmf(self, k):
        ok = (k >= 1) & (k == np.floor(k))
        ks = np.where(ok, k, 1.0)
        out = ks * math.log1p(-self.p) - np.log(ks) - math.log(-math.log(self.p))
        return np.where(ok, out, -np.inf)


def logpdf(d: Distribution, x):
    """Log-density at x (scalar or array); -inf outside the support."""
    if d.is_discrete:
        raise FamilyMismatchError(f"{type(d).__name__} is discrete; use pmf/logpmf")
    return d._logpdf(np.asarray(x, dtype=float))


def pdf(d: Distribution, x):
    """Density at x; 0 outside the support."""
    out = np.exp(logpdf(d, x))
    return float(out) if np.ndim(out) == 0 else out


def logpmf(d: Distribution, k):
    """Log-probability at integer k (scalar or array); -inf outside the support."""
    if not d.is_discrete:
        raise FamilyMismatchError(f"{type(d).__name__} is continuous; use pdf/logpdf")
    return d._logpmf(np.asarray(k, dtype=float))


def pmf(d: Distribution, k):
    """Probability mass at k; 0 outside the support."""
    out = np.exp(logpmf(d, k))
    return float(out) if np.ndim(out) == 0 else out


# --- textual parameter syntax used by the CLI -------------------------------

def parse_spec(text: str) -> Distribution:
    """Parse 'family:key=val,key=val' into a Distribution, e.g. 'gamma:lambda=1,mu=2'."""
    head, sep, rest = text.strip().partition(":")
    family = head.strip().lower()
    if family not in _FAMILIES:
        raise ParameterError(
            f"unknown family {family!r}; expected one of {', '.join(sorted(_FAMILIES))}")
    cls = _FAMILIES[family]
    if not sep or not rest.strip():
        raise ParameterError(f"family {family!r} needs parameters, e.g. "
                             + family + ":" + ",".join(f"{k}=..." for k, _, _ in cls.spec_fields))
    given = {}
    for item in rest.split(","):
        key, eq, val = item.partition("=")
        if not eq:
            raise ParameterError(f"malformed parameter {item!r}; expected key=value")
        given[key.strip().lower()] = val.strip()
    kwargs = {}
    for key, attr, conv in cls.spec_fields:
        if key not in given:
            raise ParameterError(f"family {family!r} is missing parameter {key!r}")
        raw = given.pop(key)
        try:
            kwargs[attr] = conv(raw)
        except ValueError as exc:
            raise ParameterError(f"parameter {key}={raw!r} is not a valid {conv.__name__}") from exc
    if given:
        raise ParameterError(f"unknown parameter(s) {sorted(given)} for family {family!r}")
    return cls(**kwargs)


def format_spec(d: Distribution) -> str:
    """Inverse of parse_spec: parse_spec(format_spec(d)) == d."""
    parts = ",".join(f"{key}={conv(getattr(d, attr))!r}" for key, attr, conv in d.spec_fields)
    return f"{d.spec_name}:{parts}"
