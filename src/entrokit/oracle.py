"""Independent numerical ground truth for the closed forms.

Two engines live here and deliberately share nothing with the formula
code they are used to check.  The support of a law is its record's
(d.support); how the engines cover it (half-line, real-line or interval
map, map scale, split points, power at x = 0, ratio bound) is one row of
_PLANS:

* adaptive panel quadrature with an embedded Gauss(7)/Kronrod(15) pair
  for the error estimate (QUADPACK's dqk15 rule and estimate), one run
  per oracle value.  One builder makes every continuous integrand: rows
  of p**alpha, each times log p or not, on one mesh (GR1's integrals of
  p**alpha and p**alpha log p, GR2's J(alpha) and J(beta)), each row
  refined until it meets its own tolerance, with one log-density call
  per record and batch of nodes.  The Kullback-Leibler divergence is
  the builder's log(p/q) row at alpha = 1, on p's plan with q's split
  points added.  Half-line integrals are mapped
  onto (0, 1) by x = scale * s / (1 - s) with s = t**k: an integrand
  that behaves like x**a or x**a log x at 0 gets k = max(1, 4/(a + 1)),
  so it vanishes like t**3 (log t) at t = 0 and the error estimate holds
  there as on a smooth integrand.  The real line is mapped onto (-1, 1)
  by x = c + scale * t/(1 - |t|), centred on the first split point c (a
  density's location; p's for a KL pair), and every other split point
  is a breakpoint of the t-mesh.  A second mode far from c costs points
  where the map stretches; the oracle's integrands have their mass near
  c.  A half-line run starts from one constant mesh on (0, 1), graded
  toward both ends of the map: three geometric panels next to t = 0
  (x -> 0, where power laws and a log-normal's low tail sit), steps of
  0.05 through the body and twelve geometric panels toward t = 1 (the
  tail), so that most desk-scale values meet their tolerance in this
  first pass.  A real-line run starts from that mesh, its mirror image
  and its breakpoints, and a flagged panel is split in four equal parts.
  The first pass of each constant mesh (the half-line's, and the real
  line's without extra breakpoints) is built once, at import: its
  panels, nodes and half-widths are read-only and shared by every run.
  A run whose density p is 0 at every node of its first pass would
  "converge" to 0 there; it raises NonConvergenceError naming the record
  instead.

* one series engine with a certified geometric tail: once the uniform
  one-step ratio bound q of the terms is below 1, the remaining tail is
  at most term * q / (1 - q), reported with an extra factor-2 safety
  margin plus an a-priori rounding bound.  One loop per direction sums
  from next to the mode outward, both tails each with its own
  certificate, so Poisson and Binomial take O(sigma) terms rather than
  O(mean); a finite support (Binomial) ends at its last index at the
  latest, and max_terms counts the terms summed.  The loop sums and
  certifies blocks of 64 doubling to 65536 terms and owns its batches:
  one log-pmf call reaches to the block where the plan's ratio bound
  predicts the certificate, so a direction mostly takes one call and
  memory is one batch (32768 terms, or one larger block).  The batch
  plan decides only which call evaluates a term: a log p_k is the same
  double in any call (but for the array-wide cut of stirlerr's series,
  an ulp of stirlerr at most), so the blocks sum and certify alike.  A
  caller hands the engine only what it sums (_Summand): its terms and
  error slopes on an index array, a ratio bound past a term, and the
  size of a term under a bound on log p.  There are two callers:
  discrete_entropy_sum (p log p, p**alpha, p**alpha log p) and
  discrete_expectation (p_k w(k), which the Poisson series of limits
  use).

Every public routine returns its error estimate alongside the value.
Each takes its tolerances and budgets as an optional OracleConfig: None,
the default, runs OracleConfig()'s defaults, the one configuration every
oracle value of the package is computed at.  Callers pass a config only
to change a setting.

The continuous densities come from distributions.logpdf, whose
constants come from libm: no quadrature run reaches a special kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (Binomial, ChiSquared, Distribution, Exponential, Gamma,
                            Laplace, Logarithmic, LogNormal, NegBinomialConditional,
                            Normal, Poisson, Uniform, format_spec, logpdf, logpmf)
from .errors import (FamilyMismatchError, NonConvergenceError, ParameterError,
                     SeriesBudgetError, UnsupportedFamilyError, ValidityDomainError,
                     as_integer, as_iterable, as_real)
from .measures import EntropySpec, check_order


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances and budgets for the quadrature and series oracles: positive floats and ints.

    Every public routine of the oracle takes one as cfg; None, the
    default, runs OracleConfig()'s defaults.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    series_tail_tol: float = 1e-14
    max_terms: int = 10**7

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            value = (as_integer if field.type == "int" else as_real)(value, field.name)
            if value <= 0:
                raise ParameterError(f"oracle setting {field.name} must be positive, got {value}")
            object.__setattr__(self, field.name, value)


_CONFIG = OracleConfig()  # what every run uses when its cfg is None


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


# one product gives the Kronrod sum and its difference from the Gauss sum
_W = np.stack([_WK, _WK - _WG], axis=1)
# (lo, hi) of the four parts of a split panel, as fractions of its width
_PARTS = np.array([[0.0, 0.25], [0.25, 0.5], [0.5, 0.75], [0.75, 1.0]])


def _nodes(ends):
    """The 15 Kronrod nodes of each panel, (lo, hi) on ends' last axis, flat, and its half-width.

    The nodes run in the C order of ends, panel by panel.
    """
    lo, hi = ends[..., 0], ends[..., 1]
    h = 0.5 * (hi - lo)
    x = (lo + h)[..., None] + h[..., None] * _XK
    return x.reshape(-1), h.reshape(-1)


def _gk_apply(f, x, h):
    """Kronrod values and QUADPACK-style error estimates of the panels of nodes x, half-widths h.

    x and h are _nodes' two arrays.  Returns shape (2, components,
    panels), values first, and True when f returns one value per point.
    The sums run on the unit panel and are scaled by h at the end; the
    error ratio 200 |K - G| / resasc has h cancelled.  The caller
    silences numpy's floating-point warnings: f and a constant y divide
    by 0.
    """
    y = np.asarray(f(x), dtype=float)
    scalar = y.ndim == 1
    y = y.reshape(-1, 15)
    est = (y @ _W).T  # the Kronrod sums, then K - G, overwritten by the error
    resasc = np.abs(y - 0.5 * est[0][:, None]) @ _WK  # the mean is K / 2
    # QUADPACK's resasc * min(1, (200 |K - G| / resasc)**1.5); 0 for a constant y
    est[1] = resasc * np.fmin(1.0, (200.0 * np.abs(est[1]) / resasc) ** 1.5)
    # in C order, as the panel sums along the last axis run pairwise on contiguous rows
    est = np.multiply(est.reshape(2, -1, len(h)), h, order="C")
    np.maximum(est[1], np.abs(est[0]) * 5e-16, out=est[1])
    return est, scalar


def _breakpoints(breakpoints) -> np.ndarray:
    """breakpoints as a float array, or ParameterError unless they are 1-D, >= 2, finite reals.

    A numeric array, as the oracle's own meshes are, is checked whole;
    the entries of anything else go through as_real one by one.
    """
    bp = breakpoints
    if not (isinstance(bp, np.ndarray) and bp.dtype.kind in "fiu"):
        bp = np.array([as_real(b, "breakpoint") for b in as_iterable(bp, "breakpoints")])
    if not (bp.ndim == 1 and len(bp) >= 2 and np.isfinite(bp).all()):
        raise ParameterError(
            f"breakpoints must be a 1-D sequence of at least two finite reals, got {breakpoints!r}")
    return bp.astype(float, copy=False)


def _first_pass(bp) -> tuple:
    """The panels of a mesh bp as (lo, hi) rows, their nodes and their half-widths (_nodes)."""
    ends = np.array([bp[:-1], bp[1:]]).T  # (panels, 2)
    return (ends, *_nodes(ends))


def integrate_interval(f: Callable, breakpoints, cfg: OracleConfig | None = None) -> QuadResult:
    """Adaptive quadrature of f over the panels defined by breakpoints.

    breakpoints are a 1-D sequence of at least two finite reals (equal
    neighbours allowed), or ParameterError.  f maps an array of points
    to as many values, or to shape (c, points) for c integrals on one
    mesh; a QuadResult of floats, or of length-c arrays, comes back.
    Each pass splits every panel above its equidistributed share of an
    unmet tolerance in four equal parts, until each component's summed
    error estimate is under max(abs_tol, rel_tol * |its integral|).
    NonConvergenceError once a split would take the mesh past
    max_subdivisions panels.  The oracle's two constant meshes, passed
    as themselves, start from their first pass as built at import.
    """
    cfg = cfg or _CONFIG
    with np.errstate(all="ignore"):  # f and _gk_apply meet 0/0 and x/0
        if breakpoints is _PLAIN_MESH:
            ends, x, h = _PLAIN_PASS
        elif breakpoints is _REALLINE_MESH:
            ends, x, h = _REALLINE_PASS
        else:
            ends, x, h = _first_pass(_breakpoints(breakpoints))
        est, scalar = _gk_apply(f, x, h)
        while True:
            totals, errors = est.sum(axis=2).tolist()
            if not all(map(math.isfinite, totals + errors)):
                raise NonConvergenceError("non-finite quadrature result; integrand invalid")
            tols = [max(cfg.abs_tol, cfg.rel_tol * abs(v)) for v in totals]
            unmet = [i for i, (e, t) in enumerate(zip(errors, tols)) if e > t]
            if not unmet:
                totals = [math.fsum(row) for row in est[0].tolist()]  # the sums correctly rounded
                if scalar:
                    return QuadResult(totals[0], errors[0])
                return QuadResult(np.array(totals), np.array(errors))
            n = len(ends)
            room = (cfg.max_subdivisions - n) // 3  # panels that can still be split in four
            if room < 1:
                i = unmet[0]
                raise NonConvergenceError(
                    f"error estimate {errors[i]:.3e} still above tolerance {tols[i]:.3e} "
                    f"after {n} panels (max_subdivisions={cfg.max_subdivisions})")
            share = est[1, unmet[0]] / tols[unmet[0]]  # the largest of the unmet tolerances
            for i in unmet[1:]:
                share = np.maximum(share, est[1, i] / tols[i])
            # never empty: an unmet row's shares sum to more than 1, so one is above 1/n
            split = share > 0.5 / n
            if np.count_nonzero(split) > room:  # the panel budget: only the worst offenders
                split[:] = False
                split[np.argpartition(share, -room)[-room:]] = True
            lo, hi = ends[split].T
            new_ends = lo[:, None, None] + (hi - lo)[:, None, None] * _PARTS  # (split, 4, 2)
            new_ends[:, 3, 1] = hi
            new_est, _ = _gk_apply(f, *_nodes(new_ends))
            keep = ~split
            ends = np.concatenate([ends[keep], new_ends.reshape(-1, 2)])
            est = np.concatenate([est[:, :, keep], new_est], axis=2)


# the half-line's t-mesh on [0, 1]: geometric panels from t = 1e-3 to 0.05, steps of 0.05
# to 0.9 (0.5 exact: the real line's t = +-1/2), then ratio 2.15 in 1 - t down to 1e-5
_PLAIN_MESH = np.unique(np.concatenate([
    np.geomspace(1e-3, 0.05, 4)[:-1],
    np.linspace(0.0, 0.9, 19),
    1.0 - np.geomspace(0.1, 1e-5, 13),
    [1.0],
]))
# the real line's t-mesh on [-1, 1]: the half-line mesh and its mirror image
_REALLINE_MESH = np.unique(np.concatenate([-_PLAIN_MESH[::-1], _PLAIN_MESH]))
# their first passes, built once: read-only, like the meshes, as every run shares them
_PLAIN_PASS, _REALLINE_PASS = _first_pass(_PLAIN_MESH), _first_pass(_REALLINE_MESH)
for _array in (_PLAIN_MESH, _REALLINE_MESH, *_PLAIN_PASS, *_REALLINE_PASS):
    _array.flags.writeable = False
del _array


def integrate_halfline(g: Callable, cfg: OracleConfig | None = None, scale: float = 1.0,
                       power_at_zero: float = 3.0) -> QuadResult:
    """Integral of g over (0, inf) via x = scale*s/(1-s), s = t**k, from one t-mesh.

    power_at_zero is the a of an x**a or x**a log x factor of g at x = 0.
    k = max(1, 4/(a + 1)) makes the mapped integrand vanish like
    t**3 (log t) at t = 0, where the error estimate holds as on a smooth
    integrand.  The default a = 3 gives k = 1, the plain map, which also
    suits any g smooth at 0.  For a + 1 < 1/20, NonConvergenceError:
    about exp(-744 (a + 1)) of such a mass lies below the smallest
    double, 7e-17 at the floor and 5e-14 with the log weight.
    """
    return _halfline(g, cfg, _positive_scale(scale), as_real(power_at_zero, "power_at_zero"))


def _halfline(g: Callable, cfg: OracleConfig | None, scale: float,
              power_at_zero: float) -> QuadResult:
    """integrate_halfline on a checked scale and power: floats, the scale positive."""
    a1 = power_at_zero + 1.0
    if a1 < 1.0 / 20.0:
        raise NonConvergenceError(f"x**{a1 - 1:.3g} at 0 is past doubles: a + 1 = {a1:.3g} < 1/20")
    k = max(1.0, 4.0 / a1)

    def f(t):
        s = t if k == 1.0 else t**k  # at k = 1, t**k and k t**(k - 1) are t and 1 exactly
        u = 1.0 - s
        gx = g(x := scale * s / u)
        jac = scale / (u * u)
        if k != 1.0:
            jac *= k * t ** (k - 1.0)
        out = gx * jac
        # a density that underflowed to 0 stays 0 where the Jacobian overflows to inf, and
        # so does an x**a that overflowed below the smallest normal double
        out[(gx == 0.0) | np.isinf(gx) & (x < 2.0**-1022)] = 0.0
        return out

    return integrate_interval(f, _PLAIN_MESH, cfg)


def _positive_scale(scale) -> float:
    scale = as_real(scale, "scale")
    if not scale > 0.0:
        raise ParameterError(f"scale must be positive, got {scale}")
    return scale


def integrate_realline(g: Callable, cfg: OracleConfig | None, interior,
                       scale: float = 1.0) -> QuadResult:
    """Integral of g over the real line in one run, by x = c + scale*t/(1-|t|) on t in (-1, 1).

    The centre c is the first interior point.  Each other point p is a
    breakpoint of the t-mesh at t = (p - c)/(scale + |p - c|), so their
    order and repeats change nothing; a gap p - c past the float range
    raises ParameterError.  The map suits an integrand whose mass lies
    within a few scale units of c, as a density's does around its
    location: a second mode far from c is met where the map stretches,
    and takes more points (two normal modes 1e3 scale units apart: 1305
    points against 1050 with a linear piece between them, and a relative
    error of 3e-12 against 7e-16, within the tolerance).
    """
    scale = _positive_scale(scale)
    pts = [as_real(p, "split point") for p in as_iterable(interior, "interior")]
    if not pts:
        raise ParameterError("need at least one interior split point")
    return _realline(g, cfg, pts, scale)


def _realline(g: Callable, cfg: OracleConfig | None, pts, scale: float) -> QuadResult:
    """integrate_realline on checked split points, centre first, and a checked scale.

    Without a second point the run takes the constant mesh itself.
    """
    c = pts[0]
    knots = []
    for p in pts[1:]:
        width = scale + abs(p - c)
        if not math.isfinite(width):
            raise ParameterError(f"split point {p} is past the float range from the centre {c}")
        knots.append((p - c) / width)

    def f(t):
        v = 1.0 - np.abs(t)
        gx = g(c + scale * (t / v))
        out = gx * (scale / (v * v))
        out[gx == 0.0] = 0.0
        return out

    return integrate_interval(f, np.union1d(_REALLINE_MESH, knots) if knots else _REALLINE_MESH,
                              cfg)


# --- per-family plans ---------------------------------------------------------

class _Plan(NamedTuple):
    """How the engines cover the support of one record, which is the record's d.support."""

    map: str = ""                  # "halfline", "realline" or "interval"; "" for a series
    scale: float = 1.0             # of the x = scale*t/(1-t) tail map
    splits: tuple = ()             # real-line split points, centre first
    power_at_zero: float = 3.0     # a of the integrand's x**a (log x) at 0; 3: the plain map
    ratio: Callable | None = None  # ratio(k) >= p_{j+1}/p_j for every j >= k
    mode: int = 0                  # index of the largest p_k; summation starts next to it
    down: Callable | None = None   # down(k) >= p_{j-1}/p_j for every j <= k
    mean: float | None = None      # log p_k is off by a few ulp of |k - mean| too


def _gamma_plan(d: Gamma | ChiSquared, alpha: float) -> _Plan:
    a1 = alpha * d.mu + (1.0 - alpha)  # a + 1 for p**alpha ~ x**a, exact at alpha = 1
    if a1 <= 0.0:
        raise ValidityDomainError(
            f"integral of p**alpha diverges: alpha*(mu-1) + 1 = {a1:.6g} <= 0")
    # the scale is the escort mean (a + 1) / (alpha lam), or the mean if that is larger
    return _Plan("halfline", scale=max(a1 / (alpha * d.lam), d.mu / d.lam),
                 power_at_zero=alpha * (d.mu - 1.0))


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf past the float range: a scale that _positive_scale rejects."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# plan(d, alpha) for the alpha-power integrand of d (alpha = 1 for KL)
_PLANS = {
    Gamma: _gamma_plan,
    ChiSquared: _gamma_plan,  # its record reads lam = 1/2, mu = nu/2
    Exponential: lambda d, alpha: _Plan("halfline", scale=1.0 / d.lam),
    # centred on the mass of p**alpha (the escort is a lognormal itself)
    LogNormal: lambda d, alpha: _Plan(
        "halfline", scale=_exp_or_inf(d.m + (1.0 - alpha) * d.sigma2 / alpha)),
    Laplace: lambda d, alpha: _Plan("realline", scale=1.0 / d.lam, splits=(d.mu,)),
    Normal: lambda d, alpha: _Plan("realline", scale=math.sqrt(d.sigma2), splits=(d.mean,)),
    Uniform: lambda d, alpha: _Plan("interval"),
    Poisson: lambda d, alpha: _Plan(
        ratio=lambda k: d.lam / (k + 1.0), mode=math.floor(d.lam),
        down=lambda k: k / d.lam, mean=d.lam),
    Binomial: lambda d, alpha: _Plan(
        ratio=lambda k: max(0, d.n - k) / (k + 1.0) * d.p / (1.0 - d.p),
        mode=math.floor((d.n + 1) * d.p),
        down=lambda k: k * (1.0 - d.p) / ((d.n - k + 1.0) * d.p), mean=d.n * d.p),
    NegBinomialConditional: lambda d, alpha: _Plan(
        ratio=lambda k: (1.0 - d.p) * max(1.0, (k + d.r) / (k + 1.0))),
    Logarithmic: lambda d, alpha: _Plan(ratio=lambda k: 1.0 - d.p),
}


def _plan(d: Distribution, alpha: float) -> _Plan:
    make = _PLANS.get(type(d))
    if make is None:
        raise UnsupportedFamilyError(f"no oracle plan for {type(d).__name__}")
    return make(d, alpha)


def _joint_plan(d: Distribution, orders) -> _Plan:
    """One plan for the integrands of several orders: scales' geometric mean, the lower power."""
    plans = [_plan(d, alpha) for alpha in dict.fromkeys(orders)]
    if len(plans) == 1:
        return plans[0]
    first, second = plans
    scale = first.scale
    if second.scale != scale:
        scale = math.sqrt(first.scale) * math.sqrt(second.scale)
    return first._replace(scale=scale, power_at_zero=min(first.power_at_zero, second.power_at_zero))


def _power_integrals(d: Distribution, terms, cfg: OracleConfig | None,
                     q: Distribution | None = None) -> QuadResult:
    """Integrals of p**alpha, times log(p/q) where with_log, for each (alpha, with_log) of terms.

    p is the density of d.  Without a reference record q the reference
    is Lebesgue measure and the log factor is log p; with one it is
    log p - log q, on p's plan: q shares p's support (kl_integral checks
    it), and on the real line q's split points join p's as breakpoints,
    so the run stays centred on p's mass.  One run on one mesh, one
    logpdf call per record and batch of nodes; one term gives a
    QuadResult of floats, more give arrays in the order of terms.  A row
    right after the p**alpha row of its order copies that row.
    """
    if d.is_discrete:
        raise FamilyMismatchError("power integrals are defined for continuous families")
    terms = [(check_order("alpha", alpha, exclude_one=False), with_log)
             for alpha, with_log in terms]

    mass = False  # whether p > 0 at some node of the first pass

    def g(x):
        nonlocal mass
        lp = logpdf(d, x)
        mass = mass or _some_mass(d, lp)
        log_ratio = lp if q is None else lp - logpdf(q, x)
        rows = np.empty((len(terms), len(lp)))
        for i, (alpha, with_log) in enumerate(terms):
            row = rows[i]
            if i and terms[i - 1] == (alpha, False):  # GR1: the row above holds p**alpha
                row[:] = rows[i - 1]
            else:
                np.exp(lp if alpha == 1.0 else alpha * lp, out=row)
            if with_log:
                row *= log_ratio
                row[lp == -np.inf] = 0.0
        return rows if len(terms) > 1 else rows[0]

    plan = _joint_plan(d, [alpha for alpha, _ in terms])
    # the plan's fields are floats; only its scale can leave the doubles (an exp or a ratio)
    if plan.map == "halfline":  # p's power at 0 holds: log q adds only a log factor
        return _halfline(g, cfg, _positive_scale(plan.scale), plan.power_at_zero)
    if plan.map == "realline":  # centred on p's split point, with q's as breakpoints
        splits = plan.splits if q is None else plan.splits + _plan(q, 1.0).splits
        return _realline(g, cfg, splits, _positive_scale(plan.scale))
    a, b = d.support
    if not math.isfinite(b - a):  # np.linspace would build a mesh of inf and NaN
        raise ParameterError(f"the width b - a of {format_spec(d)} is past the float range")
    # a panel a few ulp wide has nodes that round to outside [a, b]
    return integrate_interval(lambda x: g(np.minimum(np.maximum(x, a), b)),
                              np.linspace(a, b, 17), cfg)


def _some_mass(d: Distribution, lp) -> bool:
    """True, or NonConvergenceError when p = exp(lp) is 0 at every node of a first pass.

    Such a pass integrates to 0 with error 0 and ends its run: the run
    would return 0 from no mass at all.
    """
    if _exp_or_inf(float(lp.max())) == 0.0:
        raise NonConvergenceError(
            f"the density of {format_spec(d)} is 0 at every quadrature node: the mesh "
            "misses its mass")
    return True


def integral_p_alpha(d: Distribution, alpha: float, cfg: OracleConfig | None = None) -> QuadResult:
    """Numerical integral of p(x)**alpha over the support of d."""
    return _power_integrals(d, [(alpha, False)], cfg)


def integral_p_alpha_log_p(d: Distribution, alpha: float,
                           cfg: OracleConfig | None = None) -> QuadResult:
    """Numerical integral of p(x)**alpha * log p(x) over the support of d."""
    return _power_integrals(d, [(alpha, True)], cfg)


def kl_integral(p: Distribution, q: Distribution, cfg: OracleConfig | None = None) -> QuadResult:
    """Numerical Kullback-Leibler divergence of p from q (continuous pairs of one support).

    The integral of p log(p/q): the log(p/q) row of _power_integrals at
    alpha = 1, on p's plan with q's split points added.
    UnsupportedFamilyError unless p.support == q.support.
    """
    if p.is_discrete or q.is_discrete:
        raise FamilyMismatchError("kl_integral handles continuous pairs only")
    if p.support != q.support:
        raise UnsupportedFamilyError(
            f"supports differ: {format_spec(p)} on {p.support} vs {format_spec(q)} on {q.support}")
    return _power_integrals(p, [(1.0, True)], cfg, q)


# --- series with certified truncation -------------------------------------------

_TRANSFORMS = ("p_log_p", "p_alpha", "p_alpha_log_p")
_U = 2.0**-53  # unit roundoff
_LP_ULPS = 8.0  # rounding in one log p_k, in units of _U * |log p_k|
_SHIFT_ULPS = 4.0  # and of _U * |k - mean|, from the rounded mean in Loader's log-pmf
_FIRST_BLOCK = 64
_MAX_BLOCK = 65536  # the largest block
# the most terms a batch of several blocks holds: a block this long costs far more than a
# call, so a batch that reached further would save little and could waste a whole block.
# Blocks decide the sum and batches only the calls, so the two limits stay apart: capping
# blocks at 32768 too doubles the running total's roundings past 65472 terms (Poisson(1e10)
# 5.5e-15 -> 9.0e-15 off mpmath), and one block per call loosens the bounds (_series)
_MAX_BATCH = 32768
_WALK_PIECES = 4  # sub-steps per block in the walk that predicts where a batch ends
_EXACT_INDEX = 2**53  # integer indices are exact floats up to here
_MIN_NORMAL = 2.0**-1022  # below it a double rounds by 2**-1075 absolutely, not by _U relative


class _Summand(NamedTuple):
    """What the series engine sums, as functions of log p_k.

    terms(ks, lp, step) returns three arrays on an index array ks with
    log p_k = lp: the terms t, their slopes (|dt/d log p_k| <= slope)
    and grow.  When rho bounds p_{j+step}/p_j for every j past a
    term with log p = lp, ratio(rho, lp) times the term's grow bounds
    |t_{j+step}/t_j| there (grow inf: no bound yet).  size(lp) is the
    |t_k| at log p_k <= lp that the batch prediction assumes.  step is
    +1 upward and -1 downward.
    """

    terms: Callable
    size: Callable
    ratio: Callable


def _geometric_tail(t: float, q: float) -> float:
    """2 |t| q / (1 - q): twice the tail past t when every later step shrinks by q or more."""
    return 2.0 * abs(t) * q / (1.0 - q) if q < 1.0 else math.inf


def _tail_ratio(rho: float, lp_last: float, alpha: float, with_log: bool) -> float:
    """q >= t_{j+1}/t_j past a term with log p = lp_last, given p_{j+1}/p_j <= rho < 1.

    With the log weight the ratio is r**alpha (1 - log(r)/L), L = -log p_j.
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
        return rho**alpha * (1.0 - math.log(rho) / big_l)
    return rho**alpha + 1.0 / (alpha * math.e * big_l)


def _walk(rho: Callable, k: int, k_end: int, step: int, lp: float) -> float:
    """A bound on log p at k_end from lp >= log p_k: n steps from j add n log rho(j), capped at 0.

    rho(j) bounds every step from j on, so the walk takes _WALK_PIECES sub-steps.
    """
    piece = max(1, -(-abs(k_end - k) // _WALK_PIECES))
    for j in range(k, k_end, step * piece):
        r = rho(j)
        lp = min(0.0, lp + min(piece, abs(k_end - j)) * math.log(r)) if r > 0.0 else -math.inf
    return lp


def _series(d: Distribution, plan: _Plan, s: _Summand, cfg: OracleConfig, first: int, step: int,
            budget: int, walk: tuple[int, float]) -> tuple[float, float, int, float]:
    """Certified sum of t_k over k = first + step i, i < budget, ending at the support's end.

    Returns the sum, its bound (tail plus rounding), the number of terms
    summed and log p_first.  Terms are summed and certified in blocks
    that grow from 64 to 65536 terms.  A block ends the sum once its
    tail 2 |t_last| q / (1 - q) is at most cfg.series_tail_tol, with q =
    s.ratio(rho, log p_last) times grow_last and rho the plan's bound on
    p_{j+step}/p_j for every j past the block, or once it reaches the
    end of d.support (its last index upward, its first downward; tail 0).
    SeriesBudgetError once budget terms are summed without either.  The
    terms share one sign.  The bound adds the error they inherit from
    log p_k (the dot product of slope and the bound on the rounding of
    log p_k), two roundings per term (its exp and its product),
    gamma_{m-1} sum |t| per m-term block summed in any order (Higham
    2002, section 4) and one rounding of the running total per block;
    with one sign, a block's sum |t| is its |sum|.  A block that holds
    nonzero terms below the smallest normal double adds 2**-1075 for each
    of their two roundings, which are absolute there, not relative.

    Evaluation runs in batches of whole blocks, one logpmf call each, and
    s.terms(ks, lp, step) sees each batch once.  A batch reaches from
    its first block to the first block end, within 32768 terms (or the
    first block), where the tail would certify under a bound on log p
    that walks from walk = (index, bound on its log p) by the plan's
    ratio bound (_walk).  A later batch walks from the last term
    evaluated.  Where a batch ends changes no block: a wrong prediction
    costs one more batch or unused terms, never a different sum.  Making
    each batch one block (one certificate per call) was measured on 720
    seeded sums: it moved 505 values and loosened tail_bound by a median
    2.2x (up to 244x), for 1-12% more sums per second.
    """
    rho, stop = (plan.ratio, d.support[1]) if step > 0 else (plan.down, d.support[0])
    last = (int(stop) - first) * step  # past any budget where the support has no end
    n = min(budget, last + 1)
    total = rounding = 0.0
    i = have = base = 0  # positions: this block's start, past the batch, the batch's start
    size = _FIRST_BLOCK
    while i < n:
        end = min(i + size, n)
        if i == have:  # a batch to the first block end where the tail is predicted to hold
            have, grown, (k, lp_top) = end, size, walk
            while True:
                k_end = first + step * (have - 1)
                lp_top, k = _walk(rho, k, k_end, step, lp_top), k_end
                if lp_top == -math.inf or _geometric_tail(
                        s.size(lp_top), s.ratio(rho(k_end), lp_top)) <= cfg.series_tail_tol:
                    break
                grown = min(2 * grown, _MAX_BLOCK)
                if have == n or min(have + grown, n) > i + max(_MAX_BATCH, end - i):
                    break
                have = min(have + grown, n)
            ks = first + step * np.arange(i, have)
            lp = np.asarray(logpmf(d, ks), dtype=float)
            lp_err = _LP_ULPS * _U * np.abs(lp)
            if plan.mean is not None:
                lp_err += _SHIFT_ULPS * _U * np.abs(ks - plan.mean)
            t, slope, grow = s.terms(ks, lp, step)
            size_t, subnormal = np.abs(t), None
            if size_t.min() < _MIN_NORMAL:  # the terms are far above it at desk-scale rates
                subnormal = (size_t < _MIN_NORMAL) & (size_t > 0.0)
            base, walk = i, (int(ks[-1]), float(lp[-1]))
            if i == 0:
                lp_first = float(lp[0])
        a, b = i - base, end - base
        block = float(t[a:b].sum())
        total += block
        gamma = (end - i - 1) * _U / (1.0 - (end - i - 1) * _U)
        err = float(np.dot(lp_err[a:b], slope[a:b]))
        rounding += err + (2.0 * _U + gamma) * abs(block) + _U * abs(total)
        if subnormal is not None:
            rounding += 2.0**-1074 * int(np.count_nonzero(subnormal[a:b]))  # 2 x 2**-1075 a term
        if end - 1 == last:
            return total, rounding, end, lp_first
        q = s.ratio(rho(first + step * (end - 1)), float(lp[b - 1])) * float(grow[b - 1])
        tail = _geometric_tail(float(t[b - 1]), q)
        if tail <= cfg.series_tail_tol:
            return total, tail + rounding, end, lp_first
        i, size = end, min(2 * size, _MAX_BLOCK)
    raise SeriesBudgetError(
        f"series tail not certified below {cfg.series_tail_tol:g} within "
        f"max_terms={cfg.max_terms}")


def _mode_sum(d: Distribution, plan: _Plan, s: _Summand, cfg: OracleConfig | None) -> SeriesResult:
    """Certified sum of s over the support of d, from next to the mode outward.

    Summation runs upward from k0 = max(first index, mode - 64) and, when
    k0 is above the first index of d.support, downward from k0 - 1, each
    direction with its own tail certificate below cfg.series_tail_tol
    (_series).  A direction also ends at the end of a finite support.
    The upward batch prediction starts from log p_k0 <= 0, the downward
    one from the log p_k0 the upward pass evaluated.  last_k is the last index
    summed upward and tail_bound includes rounding.  SeriesBudgetError
    is raised once max_terms terms (both directions together) are
    summed without a certificate.
    """
    cfg = cfg or _CONFIG
    if plan.mode > _EXACT_INDEX:
        raise SeriesBudgetError(
            f"the mass lies near index {float(plan.mode):g}, beyond 2**53 where indices are "
            "not exact floats")
    start = int(d.support[0])
    k0 = max(start, plan.mode - _FIRST_BLOCK)
    up, up_bound, n, lp0 = _series(d, plan, s, cfg, k0, 1, cfg.max_terms, (k0, 0.0))
    if k0 == start:
        return SeriesResult(up, up_bound, k0 + n - 1)
    down, down_bound, _, _ = _series(d, plan, s, cfg, k0 - 1, -1, cfg.max_terms - n, (k0, lp0))
    total = up + down
    return SeriesResult(total, up_bound + down_bound + _U * abs(total), k0 + n - 1)


def discrete_entropy_sum(d: Distribution, transform: str, alpha: float,
                         cfg: OracleConfig | None = None) -> SeriesResult:
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
    alpha = 1.0 if transform == "p_log_p" else check_order("alpha", alpha, exclude_one=False)
    with_log = transform in ("p_log_p", "p_alpha_log_p")

    def terms(ks, lp, step):
        # the transformed term moves by t_k (alpha + 1/log p_k) per unit of log p_k: its
        # slope is e (1 + alpha |lp|), or alpha e without the log
        e = np.exp(alpha * lp)
        t = e * lp if with_log else e
        return t, (e - alpha * t if with_log else alpha * e), np.ones_like(t)

    return _mode_sum(d, _plan(d, alpha), _Summand(
        terms, lambda lp: math.exp(alpha * lp) * (-lp if with_log else 1.0),
        lambda rho, lp: _tail_ratio(rho, lp, alpha, with_log)), cfg)


def discrete_expectation(d: Distribution, weight: Callable,
                         cfg: OracleConfig | None = None) -> SeriesResult:
    """Sum of p_k w(k) over the support of d, with a certified tail.

    weight maps an index array to w(k) >= 0, nondecreasing in k, with
    w(k+1)/w(k) nonincreasing where w > 0 (log k! and log(k+1) qualify);
    it is called once per batch of indices, on one more index than the
    batch holds.  Then t_{j+1}/t_j <= rho w(k+1)/w(k) upward and <= rho
    downward past an index k.  A block that ends on a zero weight gives
    no certificate yet.  Summed from the mode outward like
    discrete_entropy_sum; tail_bound covers truncation and the rounding
    of log p_k and of the sum, not the error of w.
    """
    if not d.is_discrete:
        raise FamilyMismatchError("discrete_expectation needs a discrete family")
    scale = 1.0  # the largest weight evaluated yet: the w the next batch's prediction assumes

    def terms(ks, lp, step):
        nonlocal scale
        w = np.asarray(weight(np.append(ks, ks[-1] + 1)), dtype=float)
        scale = max(scale, float(w.max()))
        with np.errstate(divide="ignore", invalid="ignore"):
            # upward w(k+1)/w(k) joins the ratio; downward w does not increase
            grow = np.where(w[:-1] == 0.0, math.inf, w[1:] / w[:-1] if step > 0 else 1.0)
        t = np.exp(lp) * w[:-1]
        return t, t, grow

    return _mode_sum(d, _plan(d, 1.0), _Summand(
        terms, lambda lp: math.exp(lp) * scale, lambda rho, lp: rho), cfg)


def _nonzero(j: float, alpha: float, measure: str) -> float:
    """j, an integral of p**alpha, once it is above 0: measure takes its log or divides by it."""
    if not j > 0.0:
        raise NonConvergenceError(
            f"the integral of p**{alpha:g} underflows to {j:g}: {measure} needs it above 0")
    return j


def entropy_estimate(d: Distribution, measure: str, alpha: float | None = None,
                     beta: float | None = None, cfg: OracleConfig | None = None) -> float:
    """Oracle value of a measure, assembled purely from the numeric engines.

    measure and its orders are checked as an EntropySpec; the measures
    are shannon, renyi, gr1, tsallis, gr2 and sm (the oracle has no
    modified entropy).  Discrete families support shannon only.  An
    integral of p**alpha that underflows to 0 raises NonConvergenceError
    where the measure takes its log or divides by it.  alpha and beta
    default to None, as shannon needs no order.
    """
    spec = EntropySpec(measure, alpha, beta)
    if measure == "modified":
        raise ParameterError("the oracle has no modified entropy (it needs a density sup)")
    alpha, beta = spec.alpha, spec.beta
    if d.is_discrete:
        if measure != "shannon":
            raise UnsupportedFamilyError(
                f"oracle for discrete families covers shannon only, not {measure}")
        return -discrete_entropy_sum(d, "p_log_p", 1.0, cfg).value
    if measure == "shannon":
        return -_power_integrals(d, [(1.0, True)], cfg).value
    if measure == "gr1":
        j, j_log = _power_integrals(d, [(alpha, False), (alpha, True)], cfg).value
        return float(-j_log / _nonzero(j, alpha, measure))
    if measure == "gr2":
        j_alpha, j_beta = _power_integrals(d, [(alpha, False), (beta, False)], cfg).value
        j_alpha, j_beta = _nonzero(j_alpha, alpha, measure), _nonzero(j_beta, beta, measure)
        return (math.log(j_alpha) - math.log(j_beta)) / (beta - alpha)
    j = _power_integrals(d, [(alpha, False)], cfg).value
    if measure == "renyi":
        return math.log(_nonzero(j, alpha, measure)) / (1.0 - alpha)
    if measure == "tsallis":
        return (j - 1.0) / (1.0 - alpha)
    power = (1.0 - beta) / (1.0 - alpha)
    if power < 0.0:  # 0.0 to a positive power is 0.0, which gives the right value
        _nonzero(j, alpha, measure)
    return (j ** power - 1.0) / (1.0 - beta)  # sm
