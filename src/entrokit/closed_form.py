"""Closed-form entropy measures, divergence and the modified entropy.

Seven measures are implemented: Shannon, Renyi(alpha), one-parameter
generalized Renyi GR1(alpha), Tsallis(alpha), two-parameter generalized
Renyi GR2(alpha, beta), Sharma-Mittal(alpha, beta) and the modified
Shannon entropy for bounded densities.

Shannon is GR1 at alpha = 1, GR1(alpha) = -int p**alpha log p / int p**alpha,
and is evaluated by the same closed form.  Everything else factors
through the power integral J(alpha) = integral of p**alpha, for which
each continuous family has a closed log-form:

    renyi   = log J(alpha) / (1 - alpha)
    tsallis = (J(alpha) - 1) / (1 - alpha)
    gr2     = (log J(alpha) - log J(beta)) / (beta - alpha)
    sm      = (J(alpha)**((1-beta)/(1-alpha)) - 1) / (1 - beta)

Each continuous family has one row in _ROWS (log J(alpha) with its
order-domain check, GR1, KL, density supremum) where the measures look
their entry up; each GR1 entry gives exactly the Shannon double at
alpha = 1.  Chi-squared is looked up as Gamma(1/2, nu/2): its record
reads lam = 1/2 and mu = nu/2, so Gamma's row takes it unchanged; its
printed formulas are test assertions instead.  Discrete Shannon
entropies have no closed form and are computed by the certified series
engine, sharing one code path with the oracle.

Orders are checked by EntropySpec and their domains eagerly: a Gamma or
chi-squared power integral only exists for alpha*(mu-1) + 1 > 0, tested
as alpha*mu + 1 - alpha > 0 (the shape of p**alpha, exact at alpha = 1
for any mu).  Violations raise ValidityDomainError carrying the violated
inequality, never NaN.  Values past the float range raise ParameterError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (ChiSquared, Distribution, Exponential, Gamma, Laplace,
                            LogNormal, Normal, Uniform, format_spec)
from .errors import (EntrokitError, FamilyMismatchError, ParameterError,
                     UnboundedDensityError, UnsupportedFamilyError, ValidityDomainError,
                     as_real)
# the spec and its checks live apart so the CLI parser loads them without numpy;
# closed_form.MEASURES and closed_form.EntropySpec are the same objects
from .measures import MEASURES, EntropySpec  # noqa: F401
from .special import digamma, log_gamma

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DensityBound:
    """Supremum M of a bounded density and the point of d.support where it is attained.

    attained_at is None where the density is M everywhere on its support.
    """

    M: float
    attained_at: float | None


# --- the family table ----------------------------------------------------------

def _gamma_shape(alpha: float, mu: float, label: str) -> float:
    """alpha*mu + 1 - alpha, the shape of p**alpha, once it is positive: J(alpha) exists.

    The same test as alpha*(mu-1) > -1, but exact at alpha = 1 for any mu.
    """
    s = alpha * mu + (1.0 - alpha)
    if s <= 0.0:
        raise ValidityDomainError(
            f"{label}*(mu-1) + 1 = {label}*mu + 1 - {label} = {s:.6g} <= 0: the power "
            f"integral of the gamma density diverges for {label}={alpha:.6g}, mu={mu:.6g}")
    return s


def _gamma_log_j(d, alpha, label):
    s = _gamma_shape(alpha, d.mu, label)
    return ((alpha - 1.0) * math.log(d.lam) - s * math.log(alpha)
            + log_gamma(s) - alpha * log_gamma(d.mu))


def _gamma_gr1(d, alpha):
    # Shannon's terms with digamma at the shape of p**alpha; the last two vanish at alpha = 1
    s = _gamma_shape(alpha, d.mu, "alpha")
    return (-math.log(d.lam) + log_gamma(d.mu) + d.mu - digamma(s) * (d.mu - 1.0)
            + (d.mu - 1.0) * math.log(alpha) + (1.0 / alpha - 1.0))


def _gamma_sup(d):
    if d.mu < 1.0:
        raise UnboundedDensityError(
            f"gamma density with mu = {d.mu} < 1 is unbounded at 0; "
            "the modified Shannon entropy does not exist")
    if d.mu == 1.0:  # the exponential's sup, at the support's first point
        return DensityBound(d.lam, d.support[0])
    mode = (d.mu - 1.0) / d.lam
    log_m = (d.mu * math.log(d.lam) - log_gamma(d.mu)
             + (d.mu - 1.0) * math.log(mode) - (d.mu - 1.0))
    return DensityBound(math.exp(log_m), mode)


# One row per continuous family: log_j(d, alpha, label), which raises
# ValidityDomainError naming the order `label` outside its domain;
# gr1(d, alpha), which is Shannon at alpha = 1 (each row gives exactly the
# Shannon double there); kl(p, q) for a same-family pair; sup(d) -> DensityBound.
# A missing entry means the family has no such closed form.
_ROWS = {
    Gamma: dict(
        log_j=_gamma_log_j,
        gr1=_gamma_gr1,
        kl=lambda p, q: (q.mu * math.log(p.lam / q.lam) + p.mu * (q.lam / p.lam - 1.0)
                         + log_gamma(q.mu) - log_gamma(p.mu)
                         + (p.mu - q.mu) * digamma(p.mu)),
        sup=_gamma_sup),
    Exponential: dict(
        log_j=lambda d, alpha, label: (alpha - 1.0) * math.log(d.lam) - math.log(alpha),
        gr1=lambda d, alpha: -math.log(d.lam) + 1.0 / alpha,
        kl=lambda p, q: math.log(p.lam / q.lam) + q.lam / p.lam - 1.0,
        sup=lambda d: DensityBound(d.lam, d.support[0])),
    Laplace: dict(
        log_j=lambda d, alpha, label: (alpha - 1.0) * math.log(d.lam / 2.0) - math.log(alpha),
        gr1=lambda d, alpha: -math.log(d.lam / 2.0) + 1.0 / alpha,
        kl=lambda p, q: (math.log(p.lam / q.lam)
                         + (q.lam / p.lam) * (p.lam * abs(p.mu - q.mu)
                                              + math.exp(-p.lam * abs(p.mu - q.mu))) - 1.0),
        sup=lambda d: DensityBound(d.lam / 2.0, d.mu)),
    LogNormal: dict(
        log_j=lambda d, alpha, label: (
            (1.0 - alpha) * (0.5 * math.log(d.sigma2) + 0.5 * _LOG_2PI + d.m)
            - 0.5 * math.log(alpha) + d.sigma2 * (1.0 - alpha) ** 2 / (2.0 * alpha)),
        gr1=lambda d, alpha: (0.5 * math.log(d.sigma2) + 0.5 * _LOG_2PI + d.m
                              + 1.0 / (2.0 * alpha)
                              + d.sigma2 * (1.0 - alpha**2) / (2.0 * alpha**2)),
        kl=lambda p, q: (0.5 * math.log(q.sigma2 / p.sigma2)
                         + (p.sigma2 - q.sigma2 + (p.m - q.m) ** 2) / (2.0 * q.sigma2)),
        sup=lambda d: DensityBound(
            math.exp(0.5 * d.sigma2 - d.m) / (math.sqrt(d.sigma2) * math.sqrt(2.0 * math.pi)),
            math.exp(d.m - d.sigma2))),
    Normal: dict(
        log_j=lambda d, alpha, label: ((1.0 - alpha) * (0.5 * math.log(d.sigma2) + 0.5 * _LOG_2PI)
                                       - 0.5 * math.log(alpha)),
        gr1=lambda d, alpha: 0.5 * (1.0 / alpha + _LOG_2PI) + 0.5 * math.log(d.sigma2),
        sup=lambda d: DensityBound(1.0 / math.sqrt(2.0 * math.pi * d.sigma2), d.mean)),
    Uniform: dict(
        log_j=lambda d, alpha, label: (1.0 - alpha) * math.log(d.b - d.a),
        gr1=lambda d, alpha: math.log(d.b - d.a),
        sup=lambda d: DensityBound(1.0 / (d.b - d.a), None)),
}
_ROWS[ChiSquared] = _ROWS[Gamma]  # its record reads lam = 1/2, mu = nu/2

_ENTRY_NAMES = {"log_j": "power integral", "gr1": "GR1",
                "kl": "KL divergence", "sup": "density supremum"}


def _out_of_range(what: str, *records: Distribution) -> ParameterError:
    return ParameterError(
        f"{what} of {' and '.join(map(format_spec, records))} is not a finite float: "
        "the parameters leave the floating-point range")


def _closed_form(name: str, d: Distribution, *args, what: str | None = None):
    """The `name` entry of d's family row, evaluated at (d, *args).

    This is where a math range or domain error becomes a ParameterError
    naming the records and `what` the caller asked for (the entry's name
    by default).
    """
    what = what or _ENTRY_NAMES[name]
    try:
        fn = _ROWS[type(d)][name]
    except KeyError:
        raise UnsupportedFamilyError(f"no closed-form {what} for {type(d).__name__}") from None
    try:
        return fn(d, *args)
    except EntrokitError:
        raise
    except (ArithmeticError, ValueError):  # OverflowError or math domain error
        records = [d] + [a for a in args if isinstance(a, Distribution)]
        raise _out_of_range(what, *records) from None


# --- measures -----------------------------------------------------------------

def density_sup(d: Distribution) -> DensityBound:
    """Exact supremum of the density of a bounded continuous family.

    Raises UnboundedDensityError for Gamma with mu < 1 (equivalently
    chi-squared with nu = 1), whose density blows up at 0, and
    ParameterError when M or its location leaves the float range.
    """
    if d.is_discrete:
        raise FamilyMismatchError(f"{type(d).__name__} is discrete; densities only")
    bound = _closed_form("sup", d)
    if not 0.0 < bound.M < math.inf:
        raise _out_of_range("density supremum", d)
    return bound


def shannon(d: Distribution) -> float:
    """Shannon entropy; may be negative for continuous families.

    Discrete families are summed by the certified series engine, since
    their entropies have no finite closed form.
    """
    return evaluate(EntropySpec("shannon"), d)


def renyi(alpha: float, d: Distribution) -> float:
    """Renyi entropy of order alpha (alpha > 0, alpha != 1)."""
    return evaluate(EntropySpec("renyi", alpha), d)


def generalized_renyi1(alpha: float, d: Distribution) -> float:
    """One-parameter generalized Renyi entropy: -int p**a log p / int p**a."""
    return evaluate(EntropySpec("gr1", alpha), d)


def tsallis(alpha: float, d: Distribution) -> float:
    """Tsallis entropy of order alpha (alpha > 0, alpha != 1)."""
    return evaluate(EntropySpec("tsallis", alpha), d)


def generalized_renyi2(alpha: float, beta: float, d: Distribution) -> float:
    """Two-parameter generalized Renyi entropy; symmetric in (alpha, beta != alpha)."""
    return evaluate(EntropySpec("gr2", alpha, beta), d)


def sharma_mittal(alpha: float, beta: float, d: Distribution) -> float:
    """Sharma-Mittal entropy (alpha, beta > 0, both != 1)."""
    return evaluate(EntropySpec("sm", alpha, beta), d)


def modified_shannon(d: Distribution) -> float:
    """Modified Shannon entropy (1/M) H + log(M)/M; nonnegative.

    Requires a bounded density; propagates UnboundedDensityError from
    density_sup for Gamma with mu < 1 / chi-squared with nu = 1.
    """
    return evaluate(EntropySpec("modified"), d)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence of p from q for a same-family pair.

    Supported families: Gamma, Exponential, ChiSquared, Laplace,
    LogNormal.  Nonnegative, and exactly zero iff the parameters agree.
    Raises ParameterError when the divergence is not a finite float, as
    for rates whose ratio leaves the floating-point range.
    """
    if type(p) is not type(q):
        raise UnsupportedFamilyError(
            f"kl_divergence needs a same-family pair, got "
            f"{type(p).__name__} and {type(q).__name__}")
    value = _closed_form("kl", p, q)
    if not math.isfinite(value):
        raise _out_of_range("KL divergence", p, q)
    return value


_MOMENT_KINDS = ("plain", "times_log", "times_centered_sq")


def lognormal_moment(p: float, m: float, sigma2: float, kind: str = "plain") -> float:
    """Closed-form lognormal expectations E X**p, E[X**p log X], E[X**p (log X - m)**2].

    Raises ParameterError when the expectation leaves the float range.
    """
    d, p = LogNormal(m, sigma2), as_real(p, "p")  # the record checks m and sigma2
    if kind not in _MOMENT_KINDS:
        raise ParameterError(f"kind must be one of {_MOMENT_KINDS}, got {kind!r}")
    try:
        value = math.exp(d.m * p + d.sigma2 * p * p / 2.0)
    except OverflowError:
        value = math.inf
    if kind == "times_log":
        value *= d.sigma2 * p + d.m
    elif kind == "times_centered_sq":
        value *= d.sigma2 * (d.sigma2 * p * p + 1.0)
    if not math.isfinite(value):
        raise _out_of_range(f"E[X**{p}] ({kind})", d)
    return value


def _shannon(s: EntropySpec, d: Distribution) -> float:
    if d.is_discrete:
        from . import oracle  # only discrete records need the series engine
        return -oracle.discrete_entropy_sum(d, "p_log_p", 1.0).value
    return _closed_form("gr1", d, 1.0, what="Shannon entropy")


def _modified(s: EntropySpec, d: Distribution) -> float:
    m = density_sup(d).M
    value = (_shannon(s, d) + math.log(m)) / m
    # mathematically >= 0; rounding noise (uniform: log(w) + log(1/w)) is clipped
    return 0.0 if -1e-10 < value < 0.0 else value


# each measure from a checked spec: its orders are floats inside their domains
_BY_MEASURE = {
    "shannon": _shannon,
    "renyi": lambda s, d: _closed_form("log_j", d, s.alpha, "alpha") / (1.0 - s.alpha),
    "gr1": lambda s, d: _closed_form("gr1", d, s.alpha),
    "tsallis": lambda s, d: (math.expm1(_closed_form("log_j", d, s.alpha, "alpha"))
                             / (1.0 - s.alpha)),
    "gr2": lambda s, d: ((_closed_form("log_j", d, s.alpha, "alpha")
                          - _closed_form("log_j", d, s.beta, "beta")) / (s.beta - s.alpha)),
    "sm": lambda s, d: (math.expm1(_closed_form("log_j", d, s.alpha, "alpha")
                                   * (1.0 - s.beta) / (1.0 - s.alpha)) / (1.0 - s.beta)),
    "modified": _modified,
}


def evaluate(spec: EntropySpec, d: Distribution) -> float:
    """Dispatch a measure spec against a distribution; every measure function comes here.

    A value past the float range raises ParameterError naming d.
    """
    try:
        value = _BY_MEASURE[spec.measure](spec, d)
    except OverflowError:  # an expm1 past the float range; the rows raise ParameterError
        value = math.inf
    if not math.isfinite(value):
        raise _out_of_range(f"{spec.measure} entropy", d)
    return value
