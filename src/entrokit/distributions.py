"""Parameter records, validation, density/pmf evaluation and the spec syntax.

Eleven families are supported.  Records are immutable.  Each field is
stored as errors.as_integer (n, nu) or as_real (the rest) returns it, so
numpy scalars become Python numbers; values they reject, and values out
of the family's range, raise ParameterError and are never adjusted.  All
logarithms throughout the toolkit are natural logs.

Each family class carries its own record facts: its spec name and
fields, the parameter a sweep varies by default, whether it is discrete,
its support, and its log-density or log-mass.  logpdf and logpmf apply
the support: a family's formula is evaluated only at support points,
and every other point, +-inf and NaN included, is -inf (the whole line
of normal and Laplace is not masked, so NaN stays NaN there).

Chi-squared(nu) is the gamma law Gamma(1/2, nu/2): its record reads
lam = 1/2 and mu = nu/2 and shares Gamma's log-density, so every other
module looks chi-squared up as Gamma(1/2, nu/2) without converting it.
Density and mass evaluation is done in log space and vectorizes over
numpy arrays, which is what the quadrature and series oracles consume.
The continuous densities take their constants from libm (the gamma
normaliser mu log lam - lgamma(mu) from math.lgamma), never from
special, so the quadrature oracle shares no kernel with the closed
forms.  Poisson and Binomial use Loader's saddle-point form (stirlerr
and bd0 from special), whose pieces are small and of one sign, so
log p_k is good to a few ulp of |log p_k| plus u |k - mean| at any
scale: no log-gammas of size k log k cancel.  The conditional negative
binomial takes its log-gammas from special.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FamilyMismatchError, ParameterError, as_integer, as_real
from .special import bd0, log_gamma, stirlerr

_TWO_PI = 2.0 * math.pi
_LOG_2PI = math.log(_TWO_PI)
_POSITIVE = (math.ulp(0.0), sys.float_info.max)  # (0, inf) as a closed interval of doubles
_WHOLE_LINE = (-math.inf, math.inf)


_FAMILIES = {}  # spec name -> record class, filled as the classes are defined


@dataclass(frozen=True)
class Distribution:
    """Base record; concrete families subclass this.

    A family's class line gives its spec syntax 'spec:key=value,...' (one
    key per field, converted and checked by the field's int or float
    annotation), the key a sweep varies by default, whether it is discrete,
    in which case it defines _logpmf instead of _logpdf (both on float
    arrays), its support, and its range rule as (text, test).  Normalizing
    constants are cached properties, computed on the first evaluation:
    building a record costs no special-function call.

    support is the closed interval [lo, hi] of doubles the law lives on,
    or a function of the record giving it: (0, inf) is [smallest positive
    double, largest double], so 0 and +inf lie outside it.  The default is
    the whole line, (-inf, inf), which logpdf does not mask.  A family's
    _logpdf or _logpmf computes only on support points (integers, if
    discrete); the record's support attribute reads (lo, hi).
    """

    def __init_subclass__(cls, spec, keys, sweep, rule, discrete=False, support=_WHOLE_LINE, **kw):
        super().__init_subclass__(**kw)
        fields = cls.__annotations__.items()  # types are strings: postponed annotations
        cls.spec_fields = tuple((key, attr, int if ann == "int" else float)
                                for key, (attr, ann) in zip(keys, fields, strict=True))
        cls.spec_name, cls.sweep_param, cls.is_discrete, cls.rule = spec, sweep, discrete, rule
        cls.support = property(support) if callable(support) else support
        _FAMILIES[spec] = cls

    def __post_init__(self):
        for key, attr, conv in self.spec_fields:
            value = getattr(self, attr)
            checked = as_integer(value, key) if conv is int else as_real(value, key)
            if checked is not value:
                object.__setattr__(self, attr, checked)
        text, holds = self.rule
        if not holds(self):
            got = ", ".join(f"{key}={getattr(self, attr)}" for key, attr, _ in self.spec_fields)
            raise ParameterError(f"{self.spec_name} requires {text}, got {got}")


class _GammaShaped:
    """The gamma density of rate lam and shape mu, for the records that read as one."""

    @cached_property
    def _log_norm(self):
        try:
            log_gamma_mu = math.lgamma(self.mu)
        except OverflowError:  # past the float range, mu above about 2.5e305
            log_gamma_mu = math.inf
        return self.mu * math.log(self.lam) - log_gamma_mu

    def _logpdf(self, x):
        return self._log_norm + (self.mu - 1.0) * np.log(x) - self.lam * x


@dataclass(frozen=True)
class Gamma(_GammaShaped, Distribution, spec="gamma", keys=("lambda", "mu"), sweep="lambda",
            support=_POSITIVE, rule=("lambda > 0 and mu > 0", lambda d: d.lam > 0 and d.mu > 0)):
    lam: float
    mu: float


@dataclass(frozen=True)
class Exponential(Distribution, spec="exp", keys=("lambda",), sweep="lambda", support=_POSITIVE,
                  rule=("lambda > 0", lambda d: d.lam > 0)):
    lam: float

    def _logpdf(self, x):
        return math.log(self.lam) - self.lam * x


@dataclass(frozen=True)
class ChiSquared(_GammaShaped, Distribution, spec="chisq", keys=("nu",), sweep="nu",
                 support=_POSITIVE, rule=("nu >= 1", lambda d: d.nu >= 1)):
    """Chi-squared with nu degrees of freedom: the gamma law of rate 1/2 and shape nu/2.

    It reads as that Gamma record (lam and mu), so the closed-form rows,
    oracle plans and draws written for Gamma serve it unchanged.
    """

    nu: int
    lam = 0.5

    @property
    def mu(self) -> float:
        return self.nu / 2.0

    def as_gamma(self) -> Gamma:
        """The equivalent Gamma(lambda=1/2, mu=nu/2) record."""
        return Gamma(self.lam, self.mu)


@dataclass(frozen=True)
class Laplace(Distribution, spec="laplace", keys=("mu", "lambda"), sweep="lambda",
              rule=("lambda > 0", lambda d: d.lam > 0)):
    mu: float
    lam: float

    def _logpdf(self, x):
        return math.log(self.lam / 2.0) - self.lam * np.abs(x - self.mu)


@dataclass(frozen=True)
class LogNormal(Distribution, spec="lognormal", keys=("m", "sigma2"), sweep="m",
                support=_POSITIVE, rule=("sigma2 > 0", lambda d: d.sigma2 > 0)):
    m: float
    sigma2: float

    def _logpdf(self, x):
        lx = np.log(x)
        return (-lx - 0.5 * math.log(self.sigma2) - 0.5 * _LOG_2PI
                - (lx - self.m) ** 2 / (2.0 * self.sigma2))


@dataclass(frozen=True)
class Normal(Distribution, spec="normal", keys=("mean", "sigma2"), sweep="sigma2",
             rule=("sigma2 > 0", lambda d: d.sigma2 > 0)):
    mean: float
    sigma2: float

    def _logpdf(self, x):
        d = x - self.mean  # d (d / sigma2), not d**2 / sigma2: d**2 overflows past |d| = 1.3e154
        return -0.5 * (_LOG_2PI + math.log(self.sigma2)) - d * (d / self.sigma2) / 2.0


@dataclass(frozen=True)
class Uniform(Distribution, spec="uniform", keys=("a", "b"), sweep="b",
              support=lambda d: (d.a, d.b), rule=("a < b", lambda d: d.a < d.b)):
    a: float
    b: float

    def _logpdf(self, x):
        return np.full_like(x, -math.log(self.b - self.a))


@dataclass(frozen=True)
class Poisson(Distribution, spec="poisson", keys=("lambda",), sweep="lambda", discrete=True,
              support=(0.0, sys.float_info.max), rule=("lambda > 0", lambda d: d.lam > 0)):
    lam: float

    def _logpmf(self, k):
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0 is replaced below
            out = -stirlerr(k) - bd0(k, self.lam) - 0.5 * (_LOG_2PI + np.log(k))
        return np.where(k == 0.0, -self.lam, out)


@dataclass(frozen=True)
class Binomial(Distribution, spec="binomial", keys=("n", "p"), sweep="p", discrete=True,
               support=lambda d: (0.0, float(d.n)),
               rule=("n >= 1 and 0 < p < 1", lambda d: d.n >= 1 and 0.0 < d.p < 1.0)):
    n: int
    p: float

    @cached_property
    def _stirlerr_n(self):
        return float(stirlerr(self.n))

    def _logpmf(self, k):
        n, p = self.n, self.p
        rest = n - k
        with np.errstate(divide="ignore", invalid="ignore"):  # k = 0, n are replaced below
            out = (self._stirlerr_n - stirlerr(k) - stirlerr(rest)
                   - bd0(k, n * p) - bd0(rest, n * (1.0 - p))
                   + 0.5 * np.log(n / (_TWO_PI * k * rest)))
        return np.where(k == 0.0, n * math.log1p(-p), np.where(rest == 0.0, n * math.log(p), out))


@dataclass(frozen=True)
class NegBinomialConditional(Distribution, spec="nbcond", keys=("p", "r"), sweep="r",
                             discrete=True, support=(1.0, sys.float_info.max),
                             rule=("0 < p < 1 and r > 0", lambda d: 0.0 < d.p < 1.0 and d.r > 0)):
    """Negative binomial conditioned on a strictly positive outcome.

    Only the conditional law P{X = k | X > 0}, k >= 1, is exposed; it is
    the object whose small-r limit is the logarithmic distribution.
    """

    p: float
    r: float

    @cached_property
    def _log_gamma_r(self):
        return log_gamma(self.r)

    @cached_property
    def _log_one_minus_pr(self):
        # log(1 - p^r) via expm1 keeps precision for r near 0
        return math.log(-math.expm1(self.r * math.log(self.p)))

    def _logpmf(self, k):
        lg_shifted, lg_next = log_gamma(np.stack((k + self.r, k + 1.0)))  # both in one call
        # past k of about 2.5e305 they overflow; (r - 1) log k is their difference there, off
        # by about r (r - 1) / (2k), far below an ulp of log p_k, about k log(1 - p)
        if (huge := np.isinf(lg_shifted) | np.isinf(lg_next)).any():
            lg_shifted = np.where(huge, (self.r - 1.0) * np.log(k), lg_shifted)
            lg_next = np.where(huge, 0.0, lg_next)
        return (lg_shifted - self._log_gamma_r - lg_next
                + k * math.log1p(-self.p) + self.r * math.log(self.p) - self._log_one_minus_pr)


@dataclass(frozen=True)
class Logarithmic(Distribution, spec="logarithmic", keys=("p",), sweep="p", discrete=True,
                  support=(1.0, sys.float_info.max), rule=("0 < p < 1", lambda d: 0.0 < d.p < 1.0)):
    p: float

    def _logpmf(self, k):
        return k * math.log1p(-self.p) - np.log(k) - math.log(-math.log(self.p))


def _on_support(formula, x, support, integers=False):
    """formula at the points of x in support = [lo, hi] (integers only, if asked), -inf elsewhere.

    The formula sees only support points: the others, NaN included, are
    replaced by lo before it runs.  The whole line runs no mask: the
    formulas written on it are -inf at +-inf by themselves.  The mask is
    applied only when a point falls outside; the oracle's nodes and
    indices are nearly always all inside, and there the formula runs on x
    itself.  Overflow at huge finite points is silent, as it gives the
    right value (-inf, or stirlerr's 1/(z z) = 0); an invalid operation
    still warns.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        if support == _WHOLE_LINE:
            return formula(x)
        lo, hi = support
        inside = (x >= lo) & (x <= hi)
        if integers:
            inside &= x == np.floor(x)
        if inside.all():
            return formula(x)
        return np.where(inside, formula(np.where(inside, x, lo)), -np.inf)


def logpdf(d: Distribution, x):
    """Log-density at x (scalar or array): d's formula on d.support, -inf elsewhere.

    +-inf give -inf for every family.  NaN gives -inf too, except on the
    whole line (normal, Laplace), which is not masked: there it stays NaN.
    """
    if d.is_discrete:
        raise FamilyMismatchError(f"{type(d).__name__} is discrete; use pmf/logpmf")
    return _on_support(d._logpdf, x, d.support)


def pdf(d: Distribution, x):
    """Density at x; 0 outside the support, inf where it is past the float range."""
    with np.errstate(over="ignore"):  # as in logpdf: inf is the right double there
        out = np.exp(logpdf(d, x))
    return float(out) if np.ndim(out) == 0 else out


def logpmf(d: Distribution, k):
    """Log-probability at k (scalar or array): d's formula at the integers of d.support.

    Every other point is -inf: non-integers, points outside d.support,
    +-inf and NaN.
    """
    if not d.is_discrete:
        raise FamilyMismatchError(f"{type(d).__name__} is continuous; use pdf/logpdf")
    return _on_support(d._logpmf, k, d.support, integers=True)


def pmf(d: Distribution, k):
    """Probability mass at k; 0 outside the support."""
    out = np.exp(logpmf(d, k))
    return float(out) if np.ndim(out) == 0 else out


# --- textual parameter syntax used by the CLI -------------------------------

def parse_spec(text: str) -> Distribution:
    """Parse 'family:key=val,key=val' into a Distribution, e.g. 'gamma:lambda=1,mu=2'.

    Each of the family's keys is given exactly once; a repeated key is a
    ParameterError, raised before any value is converted.
    """
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
        key = key.strip().lower()
        if not eq:
            raise ParameterError(f"malformed parameter {item!r}; expected key=value")
        if key in given:
            raise ParameterError(f"parameter {key!r} is given more than once")
        given[key] = val.strip()
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
