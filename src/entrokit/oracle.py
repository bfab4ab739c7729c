"""Independent numerical ground truth for the closed forms.

Two engines live here and deliberately share nothing with the formula
code they are used to check; what they need to know of a family (support,
map scale, split points, singular endpoint, ratio bound) is one row of
_PLANS:

* adaptive panel quadrature with an embedded Gauss(7)/Kronrod(15) pair
  for the error estimate.  Half-line integrals are mapped onto (0, 1)
  by x = scale * t / (1 - t); whole-line integrands are split at the
  density mode and each tail mapped the same way.  When the integrand
  is unbounded at 0 (gamma-type x**a with a in (-1, 0)) the initial
  mesh is graded geometrically toward the singular endpoint so the
  error estimate stays trustworthy.

* one series engine with a certified geometric tail: once the uniform
  one-step ratio bound q of the terms is below 1, the remaining tail is
  at most term * q / (1 - q), reported with an extra factor-2 safety
  margin plus an a-priori rounding bound.  A finite support (Binomial)
  ends at its last index at the latest; memory is one block of terms.
  One driver sums from the mode outward on the record's log-pmf, both
  tails each with its own certificate, so Poisson and Binomial take
  O(sigma) terms rather than O(mean); max_terms counts the terms
  summed.  It has two callers: discrete_entropy_sum (p log p, p**alpha,
  p**alpha log p) and discrete_expectation (p_k w(k), which the Poisson
  series of limits use).

Every public routine returns its error estimate alongside the value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (Binomial, ChiSquared, Distribution, Exponential, Gamma,
                            Laplace, Logarithmic, LogNormal, NegBinomialConditional,
                            Normal, Poisson, Uniform, logpdf, logpmf)
from .errors import (FamilyMismatchError, NonConvergenceError, ParameterError,
                     SeriesBudgetError, UnsupportedFamilyError, ValidityDomainError)


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances and budgets for the quadrature and series oracles."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    series_tail_tol: float = 1e-14
    max_terms: int = 10**7

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "series_tail_tol"):
            tol = getattr(self, name)
            if isinstance(tol, bool) or not (
                    isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
                raise ParameterError(f"oracle tolerance {name} must be positive and finite, "
                                     f"got {tol!r}")
        for name in ("max_subdivisions", "max_terms"):
            budget = getattr(self, name)
            if not (isinstance(budget, numbers.Integral) and not isinstance(budget, bool)
                    and budget >= 1):
                raise ParameterError(f"oracle budget {name} must be an integer >= 1, "
                                     f"got {budget!r}")


class QuadResult(NamedTuple):
    value: float
    error: float


class SeriesResult(NamedTuple):
    value: float
    tail_bound: float
    last_k: int


# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 nodes/weights).
_XK = np.array([
    -0.9914553711208126392069, -0.9491079123427585245262,
    -0.8648644233597690727897, -0.7415311855993944398639,
    -0.5860872354676911302941, -0.4058451513773971669066,
    -0.2077849550078984676007, 0.0,
    0.2077849550078984676007, 0.4058451513773971669066,
    0.5860872354676911302941, 0.7415311855993944398639,
    0.8648644233597690727897, 0.9491079123427585245262,
    0.9914553711208126392069,
])
_WK = np.array([
    0.0229353220105292249637, 0.0630920926299785532907,
    0.1047900103222501838399, 0.1406532597155259187452,
    0.1690047266392679028266, 0.1903505780647854099133,
    0.2044329400752988924142, 0.2094821410847278280130,
    0.2044329400752988924142, 0.1903505780647854099133,
    0.1690047266392679028266, 0.1406532597155259187452,
    0.1047900103222501838399, 0.0630920926299785532907,
    0.0229353220105292249637,
])
_WG = np.array([
    0.0, 0.1294849661688696932706, 0.0, 0.2797053914892766679015,
    0.0, 0.3818300505051189449504, 0.0, 0.4179591836734693877551,
    0.0, 0.3818300505051189449504, 0.0, 0.2797053914892766679015,
    0.0, 0.1294849661688696932706, 0.0,
])


def _gk_apply(f, lo, hi):
    """Kronrod value and QUADPACK-style error estimate per panel."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _XK[None, :]
    with np.errstate(all="ignore"):
        y = np.asarray(f(x.reshape(-1)), dtype=float).reshape(x.shape)
    k = (y * _WK).sum(axis=1) * h
    g = (y * _WG).sum(axis=1) * h
    d = np.abs(k - g)
    mean = k / np.where(h != 0.0, 2.0 * h, 1.0)
    resasc = (np.abs(y - mean[:, None]) * _WK).sum(axis=1) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(resasc > 0.0, 200.0 * d / np.where(resasc > 0, resasc, 1.0), 0.0)
        err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio**1.5), d)
    err = np.maximum(err, np.abs(k) * 5e-16)
    return k, err


def integrate_interval(f: Callable, breakpoints, cfg: OracleConfig) -> QuadResult:
    """Adaptive quadrature of f over the panels defined by breakpoints.

    Panels above their equidistributed error share are bisected until the
    summed estimate is under max(abs_tol, rel_tol * |integral|).
    """
    bp = np.asarray(breakpoints, dtype=float)
    lo, hi = bp[:-1], bp[1:]
    vals, errs = _gk_apply(f, lo, hi)
    while True:
        total = float(vals.sum())
        total_err = float(errs.sum())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= tol or not np.isfinite(total_err):
            if not np.isfinite(total) or not np.isfinite(total_err):
                raise NonConvergenceError("non-finite quadrature result; integrand invalid")
            return QuadResult(total, total_err)
        n = len(vals)
        if n >= cfg.max_subdivisions:
            raise NonConvergenceError(
                f"error estimate {total_err:.3e} still above tolerance {tol:.3e} "
                f"after {n} panels (max_subdivisions={cfg.max_subdivisions})")
        mask = errs > tol / (2.0 * n)
        if not mask.any():
            mask[np.argmax(errs)] = True
        # respect the panel budget: split only the worst offenders if needed
        room = cfg.max_subdivisions - n
        if int(mask.sum()) > room:
            order = np.argsort(errs)[::-1][:room]
            keep_mask = np.zeros(n, dtype=bool)
            keep_mask[order] = True
            mask = keep_mask
        s_lo, s_hi = lo[mask], hi[mask]
        mid = 0.5 * (s_lo + s_hi)
        new_lo = np.concatenate([lo[~mask], s_lo, mid])
        new_hi = np.concatenate([hi[~mask], mid, s_hi])
        new_vals, new_errs = _gk_apply(f, np.concatenate([s_lo, mid]),
                                       np.concatenate([mid, s_hi]))
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])
        lo, hi = new_lo, new_hi


_PLAIN_MESH = np.unique(np.concatenate([
    np.linspace(0.0, 0.9, 10),
    1.0 - np.geomspace(0.1, 1e-5, 6),
    [1.0],
]))
# geometric grading toward t = 0 keeps an x**a endpoint singularity honest
_GRADED_MESH = np.unique(np.concatenate([
    [0.0], np.geomspace(1e-120, 1e-2, 119), _PLAIN_MESH[_PLAIN_MESH > 1e-2],
]))


def _tail(g: Callable, origin: float, sign: float, scale: float) -> Callable:
    """g on x = origin + sign * scale*t/(1-t), times the Jacobian, as a function of t in (0, 1)."""

    def f(t):
        u = 1.0 - t
        return g(origin + sign * (scale * t / u)) * (scale / (u * u))
    return f


def integrate_halfline(g: Callable, cfg: OracleConfig, scale: float = 1.0,
                       singular_at_zero: bool = False) -> QuadResult:
    """Integral of g over (0, inf) via the x = scale*t/(1-t) substitution."""
    mesh = _GRADED_MESH if singular_at_zero else _PLAIN_MESH
    return integrate_interval(_tail(g, 0.0, 1.0, scale), mesh, cfg)


def integrate_realline(g: Callable, cfg: OracleConfig, interior, scale: float = 1.0) -> QuadResult:
    """Integral of g over the real line, split at the given interior points."""
    pts = sorted(float(p) for p in interior)
    if not pts:
        raise ParameterError("need at least one interior split point")
    sub = replace(cfg, abs_tol=cfg.abs_tol / (len(pts) + 1))
    total, err = 0.0, 0.0
    for piece in (integrate_interval(_tail(g, pts[0], -1.0, scale), _PLAIN_MESH, sub),
                  integrate_interval(_tail(g, pts[-1], 1.0, scale), _PLAIN_MESH, sub)):
        total += piece.value
        err += piece.error
    for a, b in zip(pts[:-1], pts[1:]):
        piece = integrate_interval(g, np.linspace(a, b, 9), sub)
        total += piece.value
        err += piece.error
    return QuadResult(total, err)


def _power_weight(d: Distribution, alpha: float, with_log: bool) -> Callable:
    def g(x):
        lp = logpdf(d, x)
        with np.errstate(all="ignore"):
            w = np.exp(alpha * lp)
            if with_log:
                w = np.where(np.isneginf(lp), 0.0, w * lp)
        return w
    return g


# --- per-family plans ---------------------------------------------------------

class _Plan(NamedTuple):
    """How the engines cover the support of one record."""

    support: str                   # "halfline", "realline", "interval[a,b]" or "discrete"
    scale: float = 1.0             # of the x = scale*t/(1-t) tail map
    splits: tuple = ()             # real-line split points, or the interval's ends
    singular: bool = False         # integrand unbounded at x = 0
    start: int = 0                 # first index of a discrete support
    stop: int | None = None        # last index of a finite support
    ratio: Callable | None = None  # ratio(k) >= p_{j+1}/p_j for every j >= k
    mode: int = 0                  # index of the largest p_k; summation starts next to it
    down: Callable | None = None   # down(k) >= p_{j-1}/p_j for every j <= k
    mean: float | None = None      # log p_k is off by a few ulp of |k - mean| too


def _gamma_plan(d: Gamma, alpha: float) -> _Plan:
    a = alpha * (d.mu - 1.0)
    if a <= -1.0:
        raise ValidityDomainError(
            f"integral of p**alpha diverges: alpha*(mu-1) = {a:.6g} <= -1")
    escort_mean = (a + 1.0) / (alpha * d.lam)
    return _Plan("halfline", scale=max(escort_mean, d.mu / d.lam), singular=a < 0.0)


# plan(d, alpha) for the alpha-power integrand of d (alpha = 1 for KL)
_PLANS = {
    Gamma: _gamma_plan,
    ChiSquared: lambda d, alpha: _gamma_plan(d.as_gamma(), alpha),
    Exponential: lambda d, alpha: _Plan("halfline", scale=1.0 / d.lam),
    # centred on the mass of p**alpha (the escort is a lognormal itself)
    LogNormal: lambda d, alpha: _Plan(
        "halfline", scale=math.exp(d.m + (1.0 - alpha) * d.sigma2 / alpha)),
    Laplace: lambda d, alpha: _Plan("realline", scale=1.0 / d.lam, splits=(d.mu,)),
    Normal: lambda d, alpha: _Plan("realline", scale=math.sqrt(d.sigma2), splits=(d.mean,)),
    Uniform: lambda d, alpha: _Plan(f"interval[{d.a},{d.b}]", splits=(d.a, d.b)),
    Poisson: lambda d, alpha: _Plan(
        "discrete", ratio=lambda k: d.lam / (k + 1.0), mode=math.floor(d.lam),
        down=lambda k: k / d.lam, mean=d.lam),
    Binomial: lambda d, alpha: _Plan(
        "discrete", stop=d.n, ratio=lambda k: max(0, d.n - k) / (k + 1.0) * d.p / (1.0 - d.p),
        mode=math.floor((d.n + 1) * d.p),
        down=lambda k: k * (1.0 - d.p) / ((d.n - k + 1.0) * d.p), mean=d.n * d.p),
    NegBinomialConditional: lambda d, alpha: _Plan(
        "discrete", start=1, ratio=lambda k: (1.0 - d.p) * max(1.0, (k + d.r) / (k + 1.0))),
    Logarithmic: lambda d, alpha: _Plan("discrete", start=1, ratio=lambda k: 1.0 - d.p),
}


def _plan(d: Distribution, alpha: float) -> _Plan:
    make = _PLANS.get(type(d))
    if make is None:
        raise UnsupportedFamilyError(f"no oracle plan for {type(d).__name__}")
    return make(d, alpha)


def _integrate(g: Callable, plan: _Plan, cfg: OracleConfig) -> QuadResult:
    if plan.support == "halfline":
        return integrate_halfline(g, cfg, scale=plan.scale, singular_at_zero=plan.singular)
    if plan.support == "realline":
        return integrate_realline(g, cfg, plan.splits, scale=plan.scale)
    return integrate_interval(g, np.linspace(*plan.splits, 17), cfg)


def _density_power_integral(d: Distribution, alpha: float, cfg: OracleConfig,
                            with_log: bool) -> QuadResult:
    if d.is_discrete:
        raise FamilyMismatchError("power integrals are defined for continuous families")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    return _integrate(_power_weight(d, alpha, with_log), _plan(d, alpha), cfg)


def integral_p_alpha(d: Distribution, alpha: float, cfg: OracleConfig) -> QuadResult:
    """Numerical integral of p(x)**alpha over the support of d."""
    return _density_power_integral(d, alpha, cfg, with_log=False)


def integral_p_alpha_log_p(d: Distribution, alpha: float, cfg: OracleConfig) -> QuadResult:
    """Numerical integral of p(x)**alpha * log p(x) over the support of d."""
    return _density_power_integral(d, alpha, cfg, with_log=True)


def kl_integral(p: Distribution, q: Distribution, cfg: OracleConfig) -> QuadResult:
    """Numerical Kullback-Leibler divergence of p from q (continuous pairs)."""
    if p.is_discrete or q.is_discrete:
        raise FamilyMismatchError("kl_integral handles continuous pairs only")
    plan_p, plan_q = _plan(p, 1.0), _plan(q, 1.0)
    if plan_p.support != plan_q.support:
        raise UnsupportedFamilyError(
            f"supports differ: {plan_p.support} vs {plan_q.support}")

    def g(x):
        lp = logpdf(p, x)
        lq = logpdf(q, x)
        with np.errstate(all="ignore"):
            out = np.exp(lp) * (lp - lq)
        return np.where(np.isneginf(lp), 0.0, out)

    plan = plan_p._replace(splits=tuple(sorted(set(plan_p.splits) | set(plan_q.splits))),
                           singular=plan_p.singular or plan_q.singular)
    return _integrate(g, plan, cfg)


# --- series with certified truncation -------------------------------------------

_TRANSFORMS = ("p_log_p", "p_alpha", "p_alpha_log_p")
_U = 2.0**-53  # unit roundoff
_LP_ULPS = 8.0  # rounding in one log p_k, in units of _U * |log p_k|
_SHIFT_ULPS = 4.0  # and of _U * |k - mean|, from the rounded mean in Loader's log-pmf
_FIRST_BLOCK = 64
_EXACT_INDEX = 2**53  # integer indices are exact floats up to here


def _certified_series(block: Callable, start: int, cfg: OracleConfig,
                      stop: int | None = None, budget: int | None = None) -> SeriesResult:
    """Sum of the terms t_k over start <= k (<= stop) with a certified tail.

    block(ks) returns (t, q, err) on an index array: the terms, q >=
    |t_{j+1} / t_j| for every j >= ks[-1] (inf while none holds), and a
    bound on the summed error the terms inherit from their inputs (log
    p_k).  The terms share one sign.  Blocks grow from 64 to 65536 terms
    until the tail 2 t_last q / (1 - q) is at most cfg.series_tail_tol or
    k = stop is summed (tail 0), or SeriesBudgetError once budget terms
    (default cfg.max_terms) are summed.  tail_bound adds err, two
    roundings per term (its exp and its product), gamma_{m-1} sum |t|
    per m-term block summed in any order (Higham 2002, section 4) and
    one rounding of the running total per block; with one sign, a
    block's sum |t| is its |sum|.
    """
    last = start + (cfg.max_terms if budget is None else budget) - 1
    if stop is not None:
        last = min(stop, last)
    total = rounding = 0.0
    k, size = start, _FIRST_BLOCK
    while k <= last:
        ks = np.arange(k, min(k + size, last + 1))
        t, q, err = block(ks)
        s = float(t.sum())
        total += s
        m = len(ks)
        gamma = (m - 1) * _U / (1.0 - (m - 1) * _U)
        rounding += err + (2.0 * _U + gamma) * abs(s) + _U * abs(total)
        end = int(ks[-1])
        if end == stop:
            return SeriesResult(total, rounding, end)
        if q < 1.0:
            tail = 2.0 * abs(float(t[-1])) * q / (1.0 - q)
            if tail <= cfg.series_tail_tol:
                return SeriesResult(total, tail + rounding, end)
        k = end + 1
        size = min(2 * size, 65536)
    raise SeriesBudgetError(
        f"series tail not certified below {cfg.series_tail_tol:g} within "
        f"max_terms={cfg.max_terms}")


def _tail_ratio(rho: float, lp_last: float, alpha: float, with_log: bool) -> float:
    """q >= t_{j+1}/t_j past a term with log p = lp_last, given p_{j+1}/p_j <= rho < 1.

    With the log weight the ratio is r**alpha (1 + log(1/r)/L), L = -log p_j.
    It increases in r and decreases in L once alpha L > 1; below that,
    x**alpha log(1/x) <= 1/(alpha e) on (0, 1) gives an additive bound.
    """
    if not (rho < 1.0 and lp_last < 0.0):
        return math.inf
    if rho == 0.0:
        return 0.0
    if not with_log:
        return rho**alpha
    big_l = -lp_last
    if alpha * big_l > 1.0:
        return rho**alpha * (1.0 + math.log(1.0 / rho) / big_l)
    return rho**alpha + 1.0 / (alpha * math.e * big_l)


def _mode_sum(d: Distribution, plan: _Plan, terms: Callable, cfg: OracleConfig) -> SeriesResult:
    """Certified sum over the support of d, from next to the mode outward.

    terms(ks, lp, lp_err, rho, step) returns (t, q, err) for one block:
    ks the indices, lp = log p_k and lp_err its rounding bound, rho the
    plan's bound on p_{j+step}/p_j for every j past ks[-1], step +1 on
    the upward pass and -1 on the downward one.  Summation runs upward
    from k0 = max(start, mode - 64) and, when k0 is above the first
    index, downward from k0 - 1 over the mirrored index, each direction
    with its own tail certificate below cfg.series_tail_tol.  A
    direction also ends at the end of a finite support.  last_k is the
    last index summed upward and tail_bound includes rounding.
    SeriesBudgetError is raised once max_terms terms (both directions
    together) are summed without a certificate.
    """
    if plan.mode > _EXACT_INDEX:
        raise SeriesBudgetError(
            f"the mass lies near index {plan.mode}, beyond 2**53 where indices are "
            "not exact floats")

    def block_for(index: Callable, ratio: Callable, step: int) -> Callable:
        def block(js):
            ks = index(js)
            lp = np.asarray(logpmf(d, ks), dtype=float)
            lp_err = _LP_ULPS * _U * np.abs(lp)
            if plan.mean is not None:
                lp_err += _SHIFT_ULPS * _U * np.abs(ks - plan.mean)
            return terms(ks, lp, lp_err, ratio(int(ks[-1])), step)
        return block

    k0 = max(plan.start, plan.mode - _FIRST_BLOCK)
    up = _certified_series(block_for(lambda js: js, plan.ratio, 1), k0, cfg, plan.stop)
    if k0 == plan.start:
        return up
    down = _certified_series(block_for(lambda js: (k0 - 1) - js, plan.down, -1), 0, cfg,
                             k0 - 1 - plan.start, cfg.max_terms - (up.last_k - k0 + 1))
    total = up.value + down.value
    return SeriesResult(total, up.tail_bound + down.tail_bound + _U * abs(total), up.last_k)


def discrete_entropy_sum(d: Distribution, transform: str, alpha: float,
                         cfg: OracleConfig) -> SeriesResult:
    """Sum of p_k log p_k, p_k**alpha, or p_k**alpha log p_k over the support.

    Summed from the mode outward by the driver shared with
    discrete_expectation; last_k is the last index summed upward and
    tail_bound covers truncation and rounding.  SeriesBudgetError is
    raised once max_terms terms are summed without a certificate.
    """
    if not d.is_discrete:
        raise FamilyMismatchError("discrete_entropy_sum needs a discrete family")
    if transform not in _TRANSFORMS:
        raise ParameterError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    if transform == "p_log_p":
        alpha = 1.0
    elif not (alpha > 0 and math.isfinite(alpha)):
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    with_log = transform in ("p_log_p", "p_alpha_log_p")

    def terms(ks, lp, lp_err, rho, step):
        # the transformed term moves by t_k (alpha + 1/log p_k) per unit of log p_k
        e = np.exp(alpha * lp)
        if with_log:
            t = e * lp
            err = float(np.dot(lp_err, e - alpha * t))  # e (1 + alpha |lp|)
        else:
            t = e
            err = alpha * float(np.dot(lp_err, e))
        return t, _tail_ratio(rho, float(lp[-1]), alpha, with_log), err

    return _mode_sum(d, _plan(d, alpha), terms, cfg)


def discrete_expectation(d: Distribution, weight: Callable, cfg: OracleConfig) -> SeriesResult:
    """Sum of p_k w(k) over the support of d, with a certified tail.

    weight maps an index array to w(k) >= 0, nondecreasing in k, with
    w(k+1)/w(k) nonincreasing where w > 0 (log k! and log(k+1) qualify).
    Then t_{j+1}/t_j <= rho w(k+1)/w(k) upward and <= rho downward past
    an index k.  A block that ends on a zero weight gives no certificate
    yet.  Summed from the mode outward like discrete_entropy_sum;
    tail_bound covers truncation and the rounding of log p_k and of the
    sum, not the error of w.
    """
    if not d.is_discrete:
        raise FamilyMismatchError("discrete_expectation needs a discrete family")

    def terms(ks, lp, lp_err, rho, step):
        w = np.asarray(weight(np.append(ks, ks[-1] + 1)), dtype=float)
        t = np.exp(lp) * w[:-1]
        # upward w(k+1)/w(k) joins rho; downward w does not increase
        q = math.inf if w[-2] == 0.0 else rho * float(w[-1] / w[-2] if step > 0 else 1.0)
        return t, q, float(np.dot(lp_err, t))

    return _mode_sum(d, _plan(d, 1.0), terms, cfg)


def entropy_estimate(d: Distribution, measure: str, alpha: float | None,
                     beta: float | None, cfg: OracleConfig) -> float:
    """Oracle value of a measure, assembled purely from the numeric engines.

    measure is one of shannon, renyi, gr1, tsallis, gr2, sm.  Discrete
    families support shannon only.
    """
    if d.is_discrete:
        if measure != "shannon":
            raise UnsupportedFamilyError(
                f"oracle for discrete families covers shannon only, not {measure}")
        return -discrete_entropy_sum(d, "p_log_p", 1.0, cfg).value
    if measure == "shannon":
        return -integral_p_alpha_log_p(d, 1.0, cfg).value
    if measure == "renyi":
        return math.log(integral_p_alpha(d, alpha, cfg).value) / (1.0 - alpha)
    if measure == "gr1":
        j1 = integral_p_alpha_log_p(d, alpha, cfg).value
        j = integral_p_alpha(d, alpha, cfg).value
        return -j1 / j
    if measure == "tsallis":
        return (integral_p_alpha(d, alpha, cfg).value - 1.0) / (1.0 - alpha)
    if measure == "gr2":
        ja = integral_p_alpha(d, alpha, cfg).value
        jb = integral_p_alpha(d, beta, cfg).value
        return (math.log(ja) - math.log(jb)) / (beta - alpha)
    if measure == "sm":
        j = integral_p_alpha(d, alpha, cfg).value
        return (j ** ((1.0 - beta) / (1.0 - alpha)) - 1.0) / (1.0 - beta)
    raise ParameterError(f"unknown measure {measure!r}")
