"""Independent numerical ground truth for the closed forms.

Two engines live here and deliberately share nothing with the formula
code they are used to check.  The support of a law is its record's
(d.support); how the engines cover it (half-line, real-line or interval
map, map scale, location and scale, power at x = 0, ratio bound) is one
row of _PLANS:

* adaptive panel quadrature with an embedded Gauss(7)/Kronrod(15) pair
  for the error estimate (QUADPACK's dqk15 rule and estimate), one run
  per oracle value.  One builder makes every continuous integrand: rows
  of p**alpha, each times log p or not, on one mesh (GR1's integrals of
  p**alpha and p**alpha log p, GR2's J(alpha) and J(beta)), each row
  refined until it meets its own tolerance, with one log-density call
  per record and batch of nodes.  The Kullback-Leibler divergence is
  the builder's log(p/q) row at alpha = 1, on p's plan.
  Each continuous row names the record as c + s X for a standard
  record X.  Exponential, Laplace, normal and uniform records are
  Exp(1), Laplace(0, 1), N(0, 1) and U(0, 1) moved by (0, 1/lam),
  (mu, 1/lam), (mean, sigma) and (a, b - a), and the run integrates X:
  by the scale law, the integral of p**alpha is s**(1 - alpha) J1 and
  that of p**alpha log p is s**(1 - alpha) (J1' - log s J1), J1 and J1'
  being X's, and error estimates scale alike.  The law is applied in
  math and taken from log s (-log lam for a rate), so a location far
  above the scale, or a scale past the doubles, costs no accuracy:
  Renyi and GR2 add log s to their log J1 terms, GR1 and Shannon
  subtract J1'/J1 from it.  A KL pair is integrated with q mapped by
  p's (c, s), where log(p/q) is unchanged.  Gamma, chi-squared and
  log-normal records stay in their own coordinates, at (c, s) = (0, 1),
  where the law is exact.  Half-line integrals are mapped
  onto (0, 1) by x = scale * s / (1 - s) with s = t**k: an integrand
  that behaves like x**a or x**a log x at 0 gets k = max(1, 4/(a + 1)),
  so it vanishes like t**3 (log t) at t = 0 and the error estimate holds
  there as on a smooth integrand.  The real line is mapped onto (-1, 1)
  by x = c + scale * t/(1 - |t|), centred on the first split point c (0,
  a standard record's location, from the builder), and every other
  split point (a KL pair's q's location, mapped) is a breakpoint of the
  t-mesh.  A second mode far from c costs points
  where the map stretches; the oracle's integrands have their mass near
  c.  A half-line run starts from one constant mesh on (0, 1), graded
  toward both ends of the map: three geometric panels next to t = 0
  (x -> 0, where power laws and a log-normal's low tail sit), steps of
  0.05 through the body and twelve geometric panels toward t = 1 (the
  tail), so that most desk-scale values meet their tolerance in this
  first pass.  A real-line run starts from that mesh, its mirror image
  and its breakpoints, and a flagged panel is split in four equal parts.
  There is one internal path per map: integrate_halfline,
  integrate_realline and, for U(0, 1), _power_integrals itself hand
  integrate_interval a first pass (panels, nodes and half-widths).  The
  half-line's, the real line's without extra breakpoints and [0, 1]'s
  16 equal panels are built once, at import, read-only and shared by
  every run, with the points and Jacobians of their maps at centre 0,
  scale 1 and k = 1 (and the half line's 1 - t and (1 - t)**2, for
  other scales); a real line with a breakpoint is built per run.  On
  its map's shared pass a standard record's log-density is a constant
  too, computed on first use: such a value's first pass is one exp per
  row and the panel rule.  The overflow masks of the maps run only
  where a Jacobian overflows or a point is below the normal doubles.
  The three integrators take the floats and split points a plan built
  and check no argument; _power_integrals checks the values the plan
  computed (a map scale outside the positive doubles; the uniform's
  plan, a width past the float range), each error naming the record.
  A run whose density p is 0 at every node of its first
  pass would "converge" to 0 there; it raises NonConvergenceError
  naming the record instead.

* one series engine with a certified geometric tail: once the uniform
  one-step ratio bound q of the terms is below 1, the remaining tail is
  at most term * q / (1 - q), reported with an extra factor-2 safety
  margin plus an a-priori rounding bound.  One loop per direction sums
  from next to the mode outward, both tails each with its own
  certificate, so Poisson and Binomial take O(sigma) terms rather than
  O(mean); a finite support (Binomial) ends at its last index at the
  latest, and _MAX_TERMS counts the terms summed.  The loop sums and
  certifies blocks of 64 doubling to 65536 terms.  Before anything is
  evaluated, each plan's scalar libm estimate of log p_k (lgamma, log
  and log1p; no log-pmf call) is taken at the candidate block ends, and
  the first end where the tail would certify is where each direction's
  batch ends; one log-pmf call evaluates both directions up to there, so
  a sum mostly takes one call holding exactly the terms it adds.  A
  direction evaluates a later batch only where that prediction fell
  short.  Memory is one batch (up to 32768 terms a direction, or one
  larger block).  The batch plan decides only which call evaluates a
  term: a log p_k is the same double in any call (but for the
  array-wide cut of stirlerr's series, an ulp of stirlerr at most), so
  the blocks sum and certify alike, and a wrong estimate costs a batch,
  never a different sum.  A caller hands the engine only what it sums
  (_Summand): its terms and error slopes on an index array, a ratio
  bound past a term, and the size of a term at an estimate of log p
  (times a weight, for discrete_expectation).  There are two callers:
  discrete_entropy_sum (p log p, p**alpha, p**alpha log p) and
  discrete_expectation (p_k w(k), which the Poisson series of limits
  use).

Every value-level entry point (entropy_estimate, integral_p_alpha,
integral_p_alpha_log_p, kl_integral, discrete_entropy_sum and
discrete_expectation) returns its value with an error estimate, or
builds it from ones that have one.  The oracle runs at one
configuration, five module constants: integrate_interval reads its
tolerances and panel budget (_ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS), and
the series engine its tail tolerance and term budget (_SERIES_TAIL_TOL,
_MAX_TERMS).  No caller sets them.

The continuous densities come from distributions.logpdf, whose
constants come from libm: no quadrature run reaches a special kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (Binomial, ChiSquared, Distribution, Exponential, Gamma,
                            Laplace, Logarithmic, LogNormal, NegBinomialConditional,
                            Normal, Poisson, Uniform, format_spec, logpdf, logpmf)
from .errors import (FamilyMismatchError, NonConvergenceError, ParameterError,
                     SeriesBudgetError, UnsupportedFamilyError, ValidityDomainError)
from .measures import EntropySpec, check_order


@dataclass(frozen=True)
class OracleConfig:
    """The oracle's one configuration, which has no fields: its settings are module constants.

    entropy_estimate and kl_integral accept an instance as their trailing
    cfg, as they accept None (_check_default).
    """


def _check_default(config) -> None:
    """ParameterError unless config is None or an OracleConfig: no setting is silently ignored."""
    if config is not None and not isinstance(config, OracleConfig):
        raise ParameterError(
            f"the oracle runs at abs_tol={_ABS_TOL}, rel_tol={_REL_TOL}, "
            f"max_subdivisions={_MAX_SUBDIVISIONS}, series_tail_tol={_SERIES_TAIL_TOL}, "
            f"max_terms={_MAX_TERMS} only, got cfg={config!r}")


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
# integrate_interval's tolerances and panel budget
_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 2000


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


def _first_pass(bp) -> tuple:
    """The panels of a mesh bp as (lo, hi) rows, their nodes and their half-widths (_nodes)."""
    ends = np.array([bp[:-1], bp[1:]]).T  # (panels, 2)
    return (ends, *_nodes(ends))


def integrate_interval(f: Callable, first: tuple) -> QuadResult:
    """Adaptive quadrature of f from a first pass, the (ends, x, h) that _first_pass builds.

    The oracle's internal path, as are integrate_halfline and
    integrate_realline: each map hands in its first pass and no argument
    is checked.  The half-line's pass, and the real line's without extra
    breakpoints, are the read-only ones built at import; a pass on a mesh
    with equal neighbours holds panels of width 0, which add 0.  f maps
    an array of points to as many values, or to shape (c, points) for c
    integrals on one mesh; a QuadResult of floats, or of length-c arrays,
    comes back.  Each pass splits every panel above its equidistributed
    share of an unmet tolerance in four equal parts, until each
    component's summed error estimate is under max(_ABS_TOL, _REL_TOL *
    |its integral|).  NonConvergenceError once a split would take the
    mesh past _MAX_SUBDIVISIONS panels.
    """
    ends, x, h = first
    with np.errstate(all="ignore"):  # f and _gk_apply meet 0/0 and x/0
        est, scalar = _gk_apply(f, x, h)
        while True:
            totals, errors = est.sum(axis=2).tolist()
            if not all(map(math.isfinite, totals + errors)):
                raise NonConvergenceError("non-finite quadrature result; integrand invalid")
            tols = [max(_ABS_TOL, _REL_TOL * abs(v)) for v in totals]
            unmet = [i for i, (e, t) in enumerate(zip(errors, tols)) if e > t]
            if not unmet:
                totals = [math.fsum(row) for row in est[0].tolist()]  # the sums correctly rounded
                if scalar:
                    return QuadResult(totals[0], errors[0])
                return QuadResult(np.array(totals), np.array(errors))
            n = len(ends)
            room = (_MAX_SUBDIVISIONS - n) // 3  # panels that can still be split in four
            if room < 1:
                i = unmet[0]
                raise NonConvergenceError(
                    f"error estimate {errors[i]:.3e} still above tolerance {tols[i]:.3e} "
                    f"after {n} panels (max_subdivisions={_MAX_SUBDIVISIONS})")
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


def _mesh(points) -> np.ndarray:
    """The distinct values of points, sorted: np.unique's result, without its numpy.ma import."""
    mesh = np.sort(np.asarray(points, dtype=float))
    return mesh[np.concatenate(([True], mesh[1:] != mesh[:-1]))]


# the half-line's t-mesh on [0, 1]: geometric panels from t = 1e-3 to 0.05, steps of 0.05
# to 0.9 (0.5 exact: the real line's t = +-1/2), then ratio 2.15 in 1 - t down to 1e-5
_PLAIN_MESH = _mesh(np.concatenate([
    np.geomspace(1e-3, 0.05, 4)[:-1],
    np.linspace(0.0, 0.9, 19),
    1.0 - np.geomspace(0.1, 1e-5, 13),
    [1.0],
]))
# the real line's t-mesh on [-1, 1]: the half-line mesh and its mirror image
_REALLINE_MESH = _mesh(np.concatenate([-_PLAIN_MESH[::-1], _PLAIN_MESH]))
# their first passes and the unit interval's 16 equal panels, built once: read-only, like
# the meshes, as every run shares them
_PLAIN_PASS, _REALLINE_PASS = _first_pass(_PLAIN_MESH), _first_pass(_REALLINE_MESH)
_UNIT_PASS = _first_pass(np.linspace(0.0, 1.0, 17))
# the maps' values on the shared nodes at scale 1, centre 0 and k = 1: 1 - t and (1 - t)**2 of
# the half line, the points x and the Jacobians dx/dt of both lines
_HALF_U = 1.0 - _PLAIN_PASS[1]
_HALF_UU = _HALF_U * _HALF_U
_HALF_X, _HALF_JAC = _PLAIN_PASS[1] / _HALF_U, 1.0 / _HALF_UU
_REAL_V = 1.0 - np.abs(_REALLINE_PASS[1])
_REAL_X, _REAL_JAC = _REALLINE_PASS[1] / _REAL_V, 1.0 / (_REAL_V * _REAL_V)
for _array in (_PLAIN_MESH, _REALLINE_MESH, *_PLAIN_PASS, *_REALLINE_PASS, *_UNIT_PASS,
               _HALF_U, _HALF_UU, _HALF_X, _HALF_JAC, _REAL_X, _REAL_JAC):
    _array.flags.writeable = False
del _array, _REAL_V
# each map's shared nodes x, where a standard record's log-density is a constant
_SHARED_X = {"halfline": _HALF_X, "realline": _REAL_X, "interval": _UNIT_PASS[1]}
# family -> its standard record's log-density at _SHARED_X of its map, filled on first use
_STANDARD_LOG_P: dict = {}


def integrate_halfline(g: Callable, scale: float, power_at_zero: float) -> QuadResult:
    """Integral of g over (0, inf) via x = scale*s/(1-s), s = t**k, from the constant first pass.

    scale is a positive float and power_at_zero the a of an x**a or
    x**a log x factor of g at x = 0, as the plan built them.
    k = max(1, 4/(a + 1)) makes the mapped integrand vanish like
    t**3 (log t) at t = 0, where the error estimate holds as on a smooth
    integrand.  a = 3 gives k = 1, the plain map, which also suits any g
    smooth at 0.  For a + 1 < 1/20, NonConvergenceError: about
    exp(-744 (a + 1)) of such a mass lies below the smallest double,
    7e-17 at the floor and 5e-14 with the log weight.  At k = 1 the
    first pass reads 1 - t and (1 - t)**2 from constants, and at scale 1
    its points and Jacobians too: the same doubles the map computes.
    """
    a1 = power_at_zero + 1.0
    if a1 < 1.0 / 20.0:
        raise NonConvergenceError(f"x**{a1 - 1:.3g} at 0 is past doubles: a + 1 = {a1:.3g} < 1/20")
    k = max(1.0, 4.0 / a1)

    def f(t):
        if k != 1.0:
            u = 1.0 - (s := t**k)
            x, jac = scale * s / u, scale / (u * u)
            jac *= k * t ** (k - 1.0)
        elif t is not _PLAIN_PASS[1]:  # at k = 1, t**k and k t**(k - 1) are t and 1 exactly
            u = 1.0 - t
            x, jac = scale * t / u, scale / (u * u)
        elif scale == 1.0:  # the shared pass: its points and Jacobians are constants
            x, jac = _HALF_X, _HALF_JAC
        else:
            x, jac = scale * t / _HALF_U, scale / _HALF_UU
        gx = g(x)
        out = gx * jac
        # a density that underflowed to 0 stays 0 where the Jacobian overflows to inf, and
        # so does an x**a that overflowed below the smallest normal double
        if jac is not _HALF_JAC and (jac.max() == math.inf or x.min() < 2.0**-1022):
            out[(gx == 0.0) | np.isinf(gx) & (x < 2.0**-1022)] = 0.0
        return out

    return integrate_interval(f, _PLAIN_PASS)


def integrate_realline(g: Callable, splits, scale: float) -> QuadResult:
    """Integral of g over the real line in one run, by x = c + scale*t/(1-|t|) on t in (-1, 1).

    splits are floats, centre first, and scale a positive float, as the
    plan built them.  Each other point p is a breakpoint of the t-mesh at
    t = (p - c)/(scale + |p - c|), so their order and repeats change
    nothing; a gap p - c past the float range raises ParameterError.
    Without a second point the run starts from the constant first pass,
    whose points and Jacobians at centre 0 and scale 1 are constants too.
    The map suits an integrand whose mass lies within a few scale units
    of c, as a density's does around its location: a second mode far
    from c is met where the map stretches, and takes more points (two
    normal modes 1e3 scale units apart: 1305 points against 1050 with a
    linear piece between them, and a relative error of 3e-12 against
    7e-16, within the tolerance).
    """
    c = splits[0]
    knots = []
    for p in splits[1:]:
        width = scale + abs(p - c)
        if not math.isfinite(width):
            raise ParameterError(f"split point {p} is past the float range from the centre {c}")
        knots.append((p - c) / width)

    def f(t):
        if t is _REALLINE_PASS[1] and c == 0.0 and scale == 1.0:  # the shared pass at (0, 1)
            x, jac = _REAL_X, _REAL_JAC
        else:
            v = 1.0 - np.abs(t)
            x, jac = c + scale * (t / v), scale / (v * v)
        gx = g(x)
        out = gx * jac
        if jac is not _REAL_JAC and jac.max() == math.inf:  # 0 stays 0 where jac overflows
            out[gx == 0.0] = 0.0
        return out

    first = _first_pass(_mesh(np.concatenate([_REALLINE_MESH, knots]))) if knots else _REALLINE_PASS
    return integrate_interval(f, first)


# --- per-family plans ---------------------------------------------------------

class _Plan(NamedTuple):
    """How the engines cover the support of one record, which is the record's d.support.

    A continuous record is that of c + s X, X the plan's standard record,
    which the quadrature integrates (the record itself where that is None,
    at c = 0 and s = 1).
    """

    map: str = ""                  # "halfline", "realline" or "interval"; "" for a series
    scale: float = 1.0             # of the x = scale*t/(1-t) tail map
    power_at_zero: float = 3.0     # a of the integrand's x**a (log x) at 0; 3: the plain map
    c: float = 0.0                 # the location and scale of the record against X's
    s: float = 1.0
    rate: float = 1.0              # 1/s, exact where s is 1/lam, and finite where s is not
    log_s: float = 0.0             # log s, a float also where s is not (1/lam of a subnormal lam)
    standard: Distribution | None = None  # X: Exp(1), Laplace(0, 1), N(0, 1) or U(0, 1)
    moved: Callable | None = None  # moved(plan): this record's law in the plan's (x - c)/s
    ratio: Callable | None = None  # ratio(k) >= p_{j+1}/p_j for every j >= k
    mode: int = 0                  # index of the largest p_k; summation starts next to it
    down: Callable | None = None   # down(k) >= p_{j-1}/p_j for every j <= k
    mean: float | None = None      # log p_k is off by a few ulp of |k - mean| too
    log_p: Callable | None = None  # log_p(k): a libm estimate of log p_k that sizes batches


def _gamma_plan(d: Gamma | ChiSquared, alpha: float) -> _Plan:
    a1 = alpha * d.mu + (1.0 - alpha)  # a + 1 for p**alpha ~ x**a, exact at alpha = 1
    if a1 <= 0.0:
        raise ValidityDomainError(
            f"integral of p**alpha diverges: alpha*(mu-1) + 1 = {a1:.6g} <= 0")
    # the scale is the escort mean (a + 1) / (alpha lam), or the mean if that is larger
    return _Plan("halfline", scale=max(a1 / (alpha * d.lam), d.mu / d.lam),
                 power_at_zero=alpha * (d.mu - 1.0),
                 moved=lambda p: Gamma(d.lam / p.rate, d.mu))


def _uniform_plan(d: Uniform, alpha: float) -> _Plan:
    s = d.b - d.a
    if s == math.inf:  # no value past the doubles: the closed form has none either
        raise ParameterError(f"the width b - a of {format_spec(d)} is past the float range")
    return _Plan("interval", c=d.a, s=s, rate=1.0 / s, log_s=math.log(s), standard=_UNIFORM,
                 moved=lambda p: Uniform((d.a - p.c) / p.s, (d.b - p.c) / p.s))


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _stirling(m: int) -> float:
    """log m! - log(sqrt(2 pi m) (m/e)**m), m >= 1: from lgamma below 15, else three terms
    of Stirling's series (within 8e-12), as lgamma's own value cancels at large m."""
    if m < 15:
        return math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2.0 * math.pi)
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * m * m)) / (m * m)) / m


def _deviance(x: float, mean: float) -> float:
    """x log(x/mean) + mean - x for x > 0, as mean ((1 + v) log1p(v) - v), v = x/mean - 1."""
    v = (x - mean) / mean
    if not -1.0 < v < math.inf:  # x below mean 2**-53, or a mean under 1 far below x
        return x * (math.log(x) - math.log(mean)) - (x - mean)
    return mean * ((1.0 + v) * math.log1p(v) - v)


def _binomial_log_p(n: int, p: float, k: int) -> float:
    """A libm estimate of log p_k of Binomial(n, p): Loader's saddle-point form in scalars.

    No two terms of the size of log n! are subtracted, so the estimate
    holds at the mode of any n: lgamma(n + 1) - lgamma(n - k + 1) reads
    hundreds of nats off from n of about 1e15.
    """
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    m = n - k
    return (_stirling(n) - _stirling(k) - _stirling(m) - _deviance(k, n * p)
            - _deviance(m, n * (1.0 - p)) + 0.5 * math.log(n / (2.0 * math.pi * k * m)))


_EXP, _LAPLACE, _NORMAL, _UNIFORM = (Exponential(1.0), Laplace(0.0, 1.0), Normal(0.0, 1.0),
                                     Uniform(0.0, 1.0))
# plan(d, alpha) for the alpha-power integrand of d (alpha = 1 for KL)
_PLANS = {
    Gamma: _gamma_plan,
    ChiSquared: _gamma_plan,  # its record reads lam = 1/2, mu = nu/2
    Exponential: lambda d, alpha: _Plan(
        "halfline", s=1.0 / d.lam, rate=d.lam, log_s=-math.log(d.lam), standard=_EXP,
        moved=lambda p: Exponential(d.lam / p.rate)),
    # centred on the mass of p**alpha (the escort is a lognormal itself)
    LogNormal: lambda d, alpha: _Plan(
        "halfline", scale=_exp_or_inf(d.m + (1.0 - alpha) * d.sigma2 / alpha),
        moved=lambda p: LogNormal(d.m - p.log_s, d.sigma2)),
    Laplace: lambda d, alpha: _Plan(
        "realline", c=d.mu, s=1.0 / d.lam, rate=d.lam, log_s=-math.log(d.lam), standard=_LAPLACE,
        moved=lambda p: Laplace((d.mu - p.c) * p.rate, d.lam / p.rate)),
    Normal: lambda d, alpha: _Plan(
        "realline", c=d.mean, s=math.sqrt(d.sigma2), rate=1.0 / math.sqrt(d.sigma2),
        log_s=0.5 * math.log(d.sigma2), standard=_NORMAL,
        moved=lambda p: Normal((d.mean - p.c) * p.rate, d.sigma2 * p.rate * p.rate)),
    Uniform: _uniform_plan,
    Poisson: lambda d, alpha: _Plan(
        ratio=lambda k: d.lam / (k + 1.0), mode=math.floor(d.lam),
        down=lambda k: k / d.lam, mean=d.lam,
        log_p=lambda k: k * math.log(d.lam) - d.lam - math.lgamma(k + 1.0)),
    Binomial: lambda d, alpha: _Plan(
        ratio=lambda k: max(0, d.n - k) / (k + 1.0) * d.p / (1.0 - d.p),
        mode=math.floor((d.n + 1) * d.p),
        down=lambda k: k * (1.0 - d.p) / ((d.n - k + 1.0) * d.p), mean=d.n * d.p,
        log_p=lambda k: _binomial_log_p(d.n, d.p, k)),
    NegBinomialConditional: lambda d, alpha: _Plan(
        ratio=lambda k: (1.0 - d.p) * max(1.0, (k + d.r) / (k + 1.0)),
        log_p=lambda k: (math.lgamma(k + d.r) - math.lgamma(d.r) - math.lgamma(k + 1.0)
                         + k * math.log1p(-d.p) + d.r * math.log(d.p)
                         - math.log(-math.expm1(d.r * math.log(d.p))))),
    Logarithmic: lambda d, alpha: _Plan(
        ratio=lambda k: 1.0 - d.p,
        log_p=lambda k: k * math.log1p(-d.p) - math.log(k) - math.log(-math.log(d.p))),
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


def _power_integrals(d: Distribution, terms, q: Distribution | None = None) -> tuple:
    """Integrals of p1**alpha, times log p or log(p/q) where with_log, for each (alpha, with_log).

    Returns them as a QuadResult, and log s.  d is the record of c + s X
    for its plan's (c, s) and standard record X of density p1 (d itself
    at (0, 1)), and the run integrates X.  Without a reference record q
    each log row comes back as the integral of p1**alpha (log p1 - log s),
    from p1**alpha's row (added where log s != 0, but J1(1) = 1): times
    s**(1 - alpha), the caller's factor, each row is d's own integral.
    With q the log factor is log(p/q), invariant under the map: q is
    mapped by p's (c, s) (ParameterError where that leaves the doubles),
    it shares p's support (kl_integral checks it), and on the real line
    its location is a breakpoint of p's run, which stays centred on p's
    mass.  One run on one mesh, one logpdf call per record and batch of
    nodes, but none for X on its map's shared first pass, where its
    log-density is a constant computed once.  One term gives a QuadResult
    of floats, more give arrays in the order of terms.  A row right after
    the p**alpha row of its order copies that row.  Each alpha is a float
    order its caller checked: entropy_estimate as an EntropySpec,
    integral_p_alpha and integral_p_alpha_log_p by check_order,
    kl_integral's is 1.0.
    """
    if d.is_discrete:
        raise FamilyMismatchError("power integrals are defined for continuous families")
    plan = _joint_plan(d, [alpha for alpha, _ in terms])
    # the plan's fields are floats; only its scale can leave the doubles (an exp or a ratio)
    if not 0.0 < plan.scale < math.inf:
        raise ParameterError(
            f"the map scale of {format_spec(d)} is {plan.scale}, outside the positive doubles")
    x1, shared = d, None
    if plan.standard is not None:
        x1, shared = plan.standard, _SHARED_X[plan.map]
        if q is not None:
            try:
                q = _plan(q, 1.0).moved(plan)
            except ParameterError:
                raise ParameterError(f"{format_spec(q)} in the coordinates of {format_spec(d)} "
                                     "is past the float range") from None
    law = q is None and plan.log_s != 0.0  # log s J1(alpha) leaves each log row
    rows = []
    for alpha, with_log in terms:
        if law and with_log and alpha != 1.0 and (alpha, False) not in terms:
            rows.append((alpha, False))
        rows.append((alpha, with_log))

    mass = False  # whether p > 0 at some node of the first pass

    def g(x):
        nonlocal mass
        if x is shared:
            lp = _STANDARD_LOG_P.get(type(x1))
            if lp is None:
                lp = _STANDARD_LOG_P[type(x1)] = logpdf(x1, x)
                lp.flags.writeable = False
        else:
            lp = logpdf(x1, x)
        mass = mass or _some_mass(d, lp)
        log_ratio = lp if q is None else lp - logpdf(q, x)
        out = np.empty((len(rows), len(lp)))
        for i, (alpha, with_log) in enumerate(rows):
            row = out[i]
            if i and rows[i - 1] == (alpha, False):  # GR1: the row above holds p**alpha
                row[:] = out[i - 1]
            else:
                np.exp(lp if alpha == 1.0 else alpha * lp, out=row)
            if with_log:
                row *= log_ratio
                if lp.min() == -np.inf:  # p = 0: p**alpha log p is 0 * -inf there
                    row[lp == -np.inf] = 0.0
        return out if len(rows) > 1 else out[0]

    if plan.map == "halfline":  # p's power at 0 holds: log q adds only a log factor
        res = integrate_halfline(g, plan.scale, plan.power_at_zero)
    elif plan.map == "realline":  # a standard record, centred on 0, with q's centre a breakpoint
        res = integrate_realline(g, (0.0,) if q is None else (0.0, _plan(q, 1.0).c), 1.0)
    else:
        res = integrate_interval(g, _UNIT_PASS)  # U(0, 1)
    if not law:
        return res, plan.log_s
    found = dict(zip(rows, zip(np.atleast_1d(res.value).tolist(),
                               np.atleast_1d(res.error).tolist())))
    scaled = []
    for alpha, with_log in terms:
        value, error = found[alpha, with_log]
        if with_log:
            j, j_error = found.get((alpha, False), (1.0, 0.0))
            value, error = value - plan.log_s * j, error + abs(plan.log_s) * j_error
        scaled.append((value, error))
    if len(scaled) == 1:
        return QuadResult(*scaled[0]), plan.log_s
    return QuadResult(*map(np.array, zip(*scaled))), plan.log_s


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


def _scaled(d: Distribution, alpha: float, res: QuadResult, log_s: float) -> QuadResult:
    """res times s**(1 - alpha), the scale law's factor; ParameterError past the float range."""
    factor = _exp_or_inf((1.0 - alpha) * log_s)
    if factor == math.inf:
        raise ParameterError(
            f"the integral of p**{alpha:g} of {format_spec(d)} is past the float range")
    return QuadResult(factor * res.value, factor * res.error)


def integral_p_alpha(d: Distribution, alpha: float) -> QuadResult:
    """Numerical integral of p(x)**alpha over the support of d."""
    alpha = check_order("alpha", alpha, exclude_one=False)
    return _scaled(d, alpha, *_power_integrals(d, [(alpha, False)]))


def integral_p_alpha_log_p(d: Distribution, alpha: float) -> QuadResult:
    """Numerical integral of p(x)**alpha * log p(x) over the support of d."""
    alpha = check_order("alpha", alpha, exclude_one=False)
    return _scaled(d, alpha, *_power_integrals(d, [(alpha, True)]))


def kl_integral(p: Distribution, q: Distribution, cfg: OracleConfig | None = None) -> QuadResult:
    """Numerical Kullback-Leibler divergence of p from q (continuous pairs of one support).

    The integral of p log(p/q): the log(p/q) row of _power_integrals at
    alpha = 1, on p's plan with q mapped alike and its location added.
    UnsupportedFamilyError unless p.support == q.support.  cfg is None
    or an OracleConfig, which holds no settings (_check_default).
    """
    _check_default(cfg)
    if p.is_discrete or q.is_discrete:
        raise FamilyMismatchError("kl_integral handles continuous pairs only")
    if p.support != q.support:
        raise UnsupportedFamilyError(
            f"supports differ: {format_spec(p)} on {p.support} vs {format_spec(q)} on {q.support}")
    return _power_integrals(p, [(1.0, True)], q)[0]


# --- series with certified truncation -------------------------------------------

_TRANSFORMS = ("p_log_p", "p_alpha", "p_alpha_log_p")
_U = 2.0**-53  # unit roundoff
_LP_ULPS = 8.0  # rounding in one log p_k, in units of _U * |log p_k|
_SHIFT_ULPS = 4.0  # and of _U * |k - mean|, from the rounded mean in Loader's log-pmf
_FIRST_BLOCK = 64
_MAX_BLOCK = 65536  # the largest block
_SERIES_TAIL_TOL = 1e-14  # a direction ends once its certified tail is at most this
_MAX_TERMS = 10**7  # the most terms a sum adds, both directions together
# the most terms a direction's batch of several blocks holds (the first call holds both
# directions'): a block this long costs far more than a call, so a batch that reached
# further would save little and could waste a whole block.
# Blocks decide the sum and batches only the calls, so the two limits stay apart: capping
# blocks at 32768 too doubles the running total's roundings past 65472 terms (Poisson(1e10)
# 5.5e-15 -> 9.0e-15 off mpmath), and one block per call loosens the bounds (_series)
_MAX_BATCH = 32768
_EXACT_INDEX = 2**53  # integer indices are exact floats up to here
_MIN_NORMAL = 2.0**-1022  # below it a double rounds by 2**-1075 absolutely, not by _U relative


class _Summand(NamedTuple):
    """What the series engine sums, as functions of log p_k.

    terms(ks, lp, down) returns five arrays on an index array ks with
    log p_k = lp, whose first down indices are summed downward and the
    rest upward: the terms t, their slopes (|dt/d log p_k| <= slope),
    grow, the exps e that the terms are built from and the factors, with
    t = e factor as computed (grow and factor may be a scalar that serves
    all).  When rho bounds p_{j+step}/p_j for every j past a term with
    log p = lp in its direction (step +1 upward, -1 downward), ratio(rho,
    lp) times the term's grow bounds |t_{j+step}/t_j| there (grow inf: no
    bound yet).  The batch prediction takes |t_k| to be w(k) size(lp) at
    the estimate lp of log p_k, with w(k) from weights(list of indices),
    or 1 where weights is None.
    """

    terms: Callable
    size: Callable
    ratio: Callable
    weights: Callable | None = None


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


def _ends(i: int, size: int, n: int) -> list[int]:
    """The positions where a batch from the block at position i (size terms) may end.

    The block ends up to position n, within 32768 terms of i or the
    block at i, whichever is longer.
    """
    cap, ends, end = min(n, i + max(_MAX_BATCH, size)), [], i
    while (end := end + size) < cap:  # no block in the window reaches _MAX_BLOCK
        ends.append(end)
        size *= 2
    if end == cap or cap == n:
        ends.append(cap)
    return ends


def _reach(plan: _Plan, s: _Summand, first: int, step: int, ends: list, weights=None) -> int:
    """The first of ends (positions) where a direction's tail would certify; else the last.

    The direction sums k = first + step j.  At each end, the tail is
    taken at the plan's libm estimate of log p there and at the weight
    in the list weights (1 where it is None).  A wrong estimate costs a
    batch, never a different sum.  An estimate above 0 or NaN reads 0,
    as does one past libm's range (lgamma overflows, or a log of 0):
    no certificate.
    """
    rho = plan.ratio if step > 0 else plan.down
    for end, w in zip(ends[:-1], weights or [1.0] * len(ends)):  # the last end needs no test
        k = first + step * (end - 1)
        try:
            lp = min(0.0, plan.log_p(k))
        except (OverflowError, ValueError):
            lp = 0.0
        if lp == -math.inf or _geometric_tail(
                w * s.size(lp), s.ratio(rho(k), lp)) <= _SERIES_TAIL_TOL:
            return end
    return ends[-1]


def _evaluate(d: Distribution, plan: _Plan, s: _Summand, ks, down: int) -> tuple:
    """One logpmf call and one s.terms call on the index array ks, the first down of it downward.

    Returns (lp, lp_err, t, slope, grow, halves): log p_k, the bound on
    its rounding, s.terms' terms, slopes and grow, and each term's
    absolute roundings (None where no term and no exp is below the
    smallest normal double).
    """
    lp = logpmf(d, ks)
    lp_err = _LP_ULPS * _U * np.abs(lp)
    if plan.mean is not None:
        lp_err += _SHIFT_ULPS * _U * np.abs(ks - plan.mean)
    t, slope, grow, e, factor = s.terms(ks, lp, down)
    size_t, halves = np.abs(t), None
    if min(size_t.min(), e.min()) < _MIN_NORMAL:  # far above it at desk-scale rates
        # each term's absolute roundings, in units of 2**-1075 (itself 0.0 as a double)
        halves = (((size_t < _MIN_NORMAL) & (size_t > 0.0))
                  + np.where((e < _MIN_NORMAL) & (e > 0.0), np.abs(factor), 0.0))
    return lp, lp_err, t, slope, grow, halves


def _series(d: Distribution, plan: _Plan, s: _Summand, first: int, step: int, budget: int,
            batch: tuple, base: int, have: int) -> tuple[float, float, int]:
    """Certified sum of t_k over k = first + step i, i < budget, ending at the support's end.

    Returns the sum, its bound (tail plus rounding) and the number of
    terms summed.  Terms are summed and certified in blocks
    that grow from 64 to 65536 terms.  A block ends the sum once its
    tail 2 |t_last| q / (1 - q) is at most _SERIES_TAIL_TOL, with q =
    s.ratio(rho, log p_last) times grow_last and rho the plan's bound on
    p_{j+step}/p_j for every j past the block, or once it reaches the
    end of d.support (its last index upward, its first downward; tail 0).
    SeriesBudgetError once budget terms are summed without either.  The
    terms share one sign.  The bound adds the error they inherit from
    log p_k (the dot product of slope and the bound on the rounding of
    log p_k), two roundings per term (its exp and its product),
    gamma_{m-1} sum |t| per m-term block summed in any order (Higham
    2002, section 4) and one rounding of the running total per block;
    with one sign, a block's sum |t| is its |sum|.  Below the smallest
    normal double a rounding is absolute, up to 2**-1075, not relative:
    a block adds 2**-1075 for each nonzero t below it (the product) and
    2**-1075 |factor| for each nonzero e below it (the exp, carried into
    t by the factor).

    batch is the _evaluate batch that _mode_sum made: position i of the
    direction is its entry i - base, for the positions below have (in
    summation order; none where have is 0).  Where a block reaches past
    have, the engine evaluates the next batch, one logpmf call from that
    block on, to the block end _reach picks.  Where a batch ends changes
    no block: a wrong prediction costs one more batch or unused terms,
    never a different sum.  Making each batch one block (one certificate
    per call) was measured on 720 seeded sums: it moved 505 values and
    loosened tail_bound by a median 2.2x (up to 244x), for 1-12% more
    sums per second.
    """
    rho, stop = (plan.ratio, d.support[1]) if step > 0 else (plan.down, d.support[0])
    last = (int(stop) - first) * step  # past any budget where the support has no end
    n = min(budget, last + 1)
    total = rounding = 0.0
    i, size = 0, _FIRST_BLOCK
    while i < n:
        end = min(i + size, n)
        if end > have:  # the prediction fell short: a batch from this block on
            have = _reach(plan, s, first, step, _ends(i, size, n))
            ks = first + step * np.arange(i, have)
            batch, base = _evaluate(d, plan, s, ks, len(ks) if step < 0 else 0), i
        lp, lp_err, t, slope, grow, halves = batch
        a, b = i - base, end - base
        block = float(t[a:b].sum())
        total += block
        gamma = (end - i - 1) * _U / (1.0 - (end - i - 1) * _U)
        err = float(np.dot(lp_err[a:b], slope[a:b]))
        rounding += err + (2.0 * _U + gamma) * abs(block) + _U * abs(total)
        if halves is not None:  # in whole units of the smallest double, rounded up
            rounding += 2.0**-1074 * math.ceil(0.5 * float(halves[a:b].sum()))
        if end - 1 == last:
            return total, rounding, end
        q = s.ratio(rho(first + step * (end - 1)), lp.item(b - 1))
        q *= grow.item(b - 1) if isinstance(grow, np.ndarray) else grow
        tail = _geometric_tail(t.item(b - 1), q)
        if tail <= _SERIES_TAIL_TOL:
            return total, tail + rounding, end
        i, size = end, min(2 * size, _MAX_BLOCK)
    raise SeriesBudgetError(
        f"series tail not certified below {_SERIES_TAIL_TOL:g} within max_terms={_MAX_TERMS}")


def _mode_sum(d: Distribution, plan: _Plan, s: _Summand) -> SeriesResult:
    """Certified sum of s over the support of d, from next to the mode outward.

    Summation runs upward from k0 = max(first index, mode - 64) and, when
    k0 is above the first index of d.support, downward from k0 - 1, each
    direction with its own tail certificate below _SERIES_TAIL_TOL
    (_series).  A direction also ends at the end of a finite support.
    Before any evaluation, _reach picks each direction's first batch from
    the plan's estimate of log p at its block ends, under a weight of 1.
    Where a summand has weights and either batch passes its first block,
    one weights call on both directions' block ends decides them instead
    (a sum that certifies within its first blocks pays no weight call).
    One logpmf call and one s.terms call evaluate both batches together:
    the indices run from k0 - 1 down, then from k0 up, so that each
    direction reads a contiguous slice in its summation order.  A
    direction evaluates a later batch only where its prediction fell
    short.  last_k is the last index summed upward and tail_bound
    includes rounding.  SeriesBudgetError is raised once _MAX_TERMS terms
    (both directions together) are summed without a certificate.
    """
    if plan.mode > _EXACT_INDEX:
        raise SeriesBudgetError(
            f"the mass lies near index {float(plan.mode):g}, beyond 2**53 where indices are "
            "not exact floats")
    start, budget = int(d.support[0]), _MAX_TERMS
    k0 = max(start, plan.mode - _FIRST_BLOCK)
    ups = _ends(0, _FIRST_BLOCK, min(budget, int(d.support[1]) - k0 + 1))
    downs = _ends(0, _FIRST_BLOCK, min(budget, k0 - start))  # [0] where k0 is the first index

    def batches(weights=None):  # the budget left after the upward batch caps the downward one
        up = _reach(plan, s, k0, 1, ups, weights)
        down = _reach(plan, s, k0 - 1, -1, downs, weights and weights[len(ups):])
        return up, min(down, budget - up)

    up, down = batches()
    if s.weights is not None and (up > ups[0] or down > downs[0]):
        up, down = batches(s.weights([k0 + e - 1 for e in ups] + [k0 - e for e in downs]))
    ks = np.concatenate((np.arange(k0 - 1, k0 - 1 - down, -1), np.arange(k0, k0 + up)))
    # a log p_k of -inf (p_k past the float range) makes NaN terms or rounding bounds (0 * -inf,
    # inf * 0), silently, as a NaN certifies no block; a weight of 0 divides by 0 in its grow
    with np.errstate(divide="ignore", invalid="ignore"):
        batch = _evaluate(d, plan, s, ks, down)
        total, bound, n = _series(d, plan, s, k0, 1, budget, batch, -down, up)
        if k0 > start:
            below, below_bound, _ = _series(d, plan, s, k0 - 1, -1, budget - n, batch, 0, down)
            total, bound = total + below, bound + below_bound + _U * abs(total + below)
    return SeriesResult(total, bound, k0 + n - 1)


def discrete_entropy_sum(d: Distribution, transform: str, alpha: float) -> SeriesResult:
    """Sum of p_k log p_k, p_k**alpha, or p_k**alpha log p_k over the support.

    Summed from the mode outward by the driver shared with
    discrete_expectation; last_k is the last index summed upward and
    tail_bound covers truncation and rounding.  SeriesBudgetError is
    raised once _MAX_TERMS terms are summed without a certificate.
    """
    if not d.is_discrete:
        raise FamilyMismatchError("discrete_entropy_sum needs a discrete family")
    if transform not in _TRANSFORMS:
        raise ParameterError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    alpha = 1.0 if transform == "p_log_p" else check_order("alpha", alpha, exclude_one=False)
    with_log = transform in ("p_log_p", "p_alpha_log_p")
    one = alpha == 1.0  # 1.0 x is x: no multiply by alpha

    def terms(ks, lp, down):
        # the transformed term moves by t_k (alpha + 1/log p_k) per unit of log p_k: its
        # slope is e (1 + alpha |lp|), or alpha e without the log
        e = np.exp(lp if one else alpha * lp)
        if with_log:
            t = e * lp
            return t, e - (t if one else alpha * t), 1.0, e, lp
        return e, e if one else alpha * e, 1.0, e, 1.0

    return _mode_sum(d, _plan(d, alpha), _Summand(
        terms, lambda lp: math.exp(alpha * lp) * (-lp if with_log else 1.0),
        lambda rho, lp: _tail_ratio(rho, lp, alpha, with_log)))


def discrete_expectation(d: Distribution, weight: Callable) -> SeriesResult:
    """Sum of p_k w(k) over the support of d, with a certified tail.

    weight maps an index array to w(k) >= 0, nondecreasing in k, with
    w(k+1)/w(k) nonincreasing where w > 0 (log k! and log(k+1) qualify);
    it is called once per batch of indices ks, on ks and ks[-1] + 1 (the
    first batch holds both directions, the upward ones last: _mode_sum),
    and, where a first batch may pass its first block, once before it on
    the block ends where the two first batches may end (at most 20
    indices), which size them.  Then t_{j+1}/t_j <= rho w(k+1)/w(k)
    upward and <= rho downward past an index k.  A block that ends on a
    zero weight gives no certificate yet.  Summed from the mode outward like discrete_entropy_sum;
    tail_bound covers truncation and the rounding of log p_k and of the
    sum, not the error of w.
    """
    if not d.is_discrete:
        raise FamilyMismatchError("discrete_expectation needs a discrete family")

    def terms(ks, lp, down):
        w = np.asarray(weight(np.append(ks, ks[-1] + 1)), dtype=float)
        grow = np.empty(len(ks))
        grow[:down] = 1.0  # downward w does not increase; upward w(k+1)/w(k) joins the ratio
        np.divide(w[down + 1:], w[down:-1], out=grow[down:])  # _mode_sum silences x/0 and 0/0
        grow[w[:-1] == 0.0] = math.inf
        e = np.exp(lp)
        t = e * w[:-1]
        return t, t, grow, e, w[:-1]

    return _mode_sum(d, _plan(d, 1.0), _Summand(
        terms, math.exp, lambda rho, lp: rho,
        lambda ks: np.asarray(weight(np.array(ks)), dtype=float).tolist()))


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
    default to None, as shannon needs no order.  cfg is None or an
    OracleConfig, which holds no settings (_check_default).
    """
    _check_default(cfg)
    spec = EntropySpec(measure, alpha, beta)
    if measure == "modified":
        raise ParameterError("the oracle has no modified entropy (it needs a density sup)")
    alpha, beta = spec.alpha, spec.beta
    if d.is_discrete:
        if measure != "shannon":
            raise UnsupportedFamilyError(
                f"oracle for discrete families covers shannon only, not {measure}")
        return -discrete_entropy_sum(d, "p_log_p", 1.0).value
    # each integral of p**alpha is s**(1 - alpha) times the standard record's j (_power_integrals)
    if measure == "shannon":
        return -_power_integrals(d, [(1.0, True)])[0].value
    if measure == "gr1":  # s**(1 - alpha) cancels
        j, j_log = _power_integrals(d, [(alpha, False), (alpha, True)])[0].value
        return float(-j_log / _nonzero(j, alpha, measure))
    if measure == "gr2":
        res, log_s = _power_integrals(d, [(alpha, False), (beta, False)])
        j_alpha, j_beta = res.value
        j_alpha, j_beta = _nonzero(j_alpha, alpha, measure), _nonzero(j_beta, beta, measure)
        return log_s + (math.log(j_alpha) - math.log(j_beta)) / (beta - alpha)
    res, log_s = _power_integrals(d, [(alpha, False)])
    j = res.value
    if measure == "renyi":
        return log_s + math.log(_nonzero(j, alpha, measure)) / (1.0 - alpha)
    if measure == "tsallis":
        value = (_exp_or_inf((1.0 - alpha) * log_s) * j - 1.0) / (1.0 - alpha)
    else:  # sm, with J**power = s**(1 - beta) j**power
        power = (1.0 - beta) / (1.0 - alpha)
        if power < 0.0:  # 0.0 to a positive power is 0.0, which gives the right value
            _nonzero(j, alpha, measure)
        value = (_exp_or_inf((1.0 - beta) * log_s) * j ** power - 1.0) / (1.0 - beta)
    if not math.isfinite(value):
        raise ParameterError(f"the {measure} entropy of {format_spec(d)} is past the float range")
    return value
