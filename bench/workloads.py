"""Seeded input pools and operations for the four benchmark workloads.

Every input is drawn here, from the benchmark's own generator, so a change
to the program's random draws (entrokit.verification) cannot change a
workload.  Ranges are drawn by stratified sampling (one draw per equal
stratum, in log space where the range spans decades), which keeps the mix
of cheap and expensive inputs, and so the timings, nearly the same from
seed to seed.  The range endpoints that the workload exists to exercise
(Binomial n = 1e6, Poisson lambda = 1e4, Logarithmic p = 1e-3, NBcond
r = 1e-6, H = 0 and H = 1) are always in the pool.

An item is one input with its operation ("op"): `run` makes the library
calls that are timed, `check` compares the result with a reference from
`refs` after the timed loop.  Records and covariance matrices are built
inside the op, as a CLI call builds them from its spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from entrokit import closed_form as cf
from entrokit import distributions as dist
from entrokit import gaussian, limits, oracle
from entrokit.errors import SingularCovarianceError, UnboundedDensityError

import refs

# Known defects of the program that these workloads measure.  A miss of the
# named kind inside the class is counted in fail_ratio but does not make the
# run incorrect; any other miss does.
GAMMA_LARGE_SHAPE = "gamma_large_shape"          # cancellation in log-gamma/digamma sums, shape >= 1e6
POISSON_LARGE_LAMBDA = "poisson_entropy_large_lambda"  # paper's series form, lambda >= 1e3
FGN_MISFLAG = "fgn_singular_misflag"              # det floor flags positive-definite matrices singular


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # failure cause, or None
    props: dict = field(default_factory=dict)
    expect: type | None = None  # documented error the input is meant to provoke
    defect: tuple[str, str] | None = None  # (known-defect class, cause it explains)


@dataclass
class Workload:
    items: list[Item]
    one_shot: list[str]  # CLI arguments whose process time is setup_s
    check_one_shot: Callable[[str], bool]


def record(cls, *params):
    """Build a distribution record; a separate function so tracing can span it."""
    return cls(*params)


# --- sampling helpers --------------------------------------------------------


def stratified(rng, k, lo, hi, pin=None):
    """k draws, one per equal stratum of [lo, hi], in random order.

    pin="lo" or pin="hi" replaces the draw of the end stratum by the endpoint.
    """
    u = (np.arange(k) + rng.random(k)) / k
    vals = lo + (hi - lo) * u
    if pin == "lo":
        vals[0] = lo
    elif pin == "hi":
        vals[-1] = hi
    return [float(v) for v in rng.permutation(vals)]


def log_stratified(rng, k, lo, hi, pin=None):
    return [10.0 ** v for v in stratified(rng, k, math.log10(lo), math.log10(hi), pin)]


def interleave(rng, items):
    """Spread each kind evenly over the pass, so any prefix has the pool's mix."""
    by_kind = {}
    for it in items:
        by_kind.setdefault(it.kind, []).append(it)
    keyed = []
    for group in by_kind.values():
        order = rng.permutation(len(group))
        offset = rng.random()
        keyed += [((j + offset) / len(group), group[i]) for j, i in enumerate(order)]
    keyed.sort(key=lambda t: t[0])
    return [it for _, it in keyed]


# --- continuous families -----------------------------------------------------

CONTINUOUS = {
    "gamma": dist.Gamma, "exp": dist.Exponential, "chisq": dist.ChiSquared,
    "laplace": dist.Laplace, "lognormal": dist.LogNormal, "normal": dist.Normal,
    "uniform": dist.Uniform,
}
KL_FAMILIES = ("gamma", "exp", "chisq", "laplace", "lognormal")
MEASURES = ("shannon", "renyi", "gr1", "tsallis", "gr2", "sm", "modified")


# Desk-scale ranges, those the library's own selftest draws from:
# (scale, lo, hi) per parameter; "log" ranges are in decades.
DESK = {
    "gamma": (("log", -1.0, 0.9), ("log", -0.8, 0.9)),
    "exp": (("log", -1.0, 1.0),),
    "chisq": (("int", 1, 12),),
    "laplace": (("lin", -3.0, 3.0), ("log", -1.0, 1.0)),
    "lognormal": (("lin", -2.0, 2.0), ("log", -0.8, 0.4)),
    "normal": (("lin", -3.0, 3.0), ("log", -1.0, 1.0)),
    "uniform": (("lin", -3.0, 1.0), ("log", -1.0, 1.0)),  # a and the width b - a
}


def desk_draws(family, rng, k):
    """k desk-scale parameter tuples, each parameter stratified on its own."""
    cols = []
    for scale, lo, hi in DESK[family]:
        if scale == "int":
            cols.append([int(v) for v in stratified(rng, k, lo, hi + 1 - 1e-9)])
        else:
            vals = stratified(rng, k, lo, hi)
            cols.append([10.0 ** v for v in vals] if scale == "log" else vals)
    rows = list(zip(*cols))
    if family == "uniform":
        rows = [(a, a + w) for a, w in rows]
    return rows


def gamma_shape(family, params):
    if family == "gamma":
        return params[1]
    if family == "chisq":
        return params[0] / 2.0
    if family == "exp":
        return 1.0
    return None


def draw_order(rng, shape, exclude=None):
    """An order away from 1 (and from `exclude`) inside the validity domain."""
    hi = 3.5
    if shape is not None and shape < 1.0:
        hi = min(hi, 0.7 / (1.0 - shape))  # alpha*(mu-1) >= -0.7
    while True:
        alpha = float(rng.uniform(0.3, hi))
        if abs(alpha - 1.0) >= 0.05 and (exclude is None or abs(alpha - exclude) >= 0.05):
            return alpha


def measure_orders(rng, name, shape):
    if name in ("shannon", "modified"):
        return None, None
    alpha = draw_order(rng, shape)
    if name in ("renyi", "gr1", "tsallis"):
        return alpha, None
    return alpha, draw_order(rng, shape, exclude=alpha)


def compare(value, ref):
    """Failure cause of one number against its reference, or None."""
    if not math.isfinite(float(value)):
        return "nonfinite"
    return None if refs.within(value, ref) else "miss"


def value_check(ref):
    return lambda value: compare(value, ref())


def measure_item(family, params, name, rng, with_oracle, cfg=None, defect=None):
    shape = gamma_shape(family, params)
    alpha, beta = measure_orders(rng, name, shape)
    spec = cf.EntropySpec(name, alpha, beta)
    cls = CONTINUOUS[family]
    expect = None
    if name == "modified" and shape is not None and shape < 1.0:
        expect = UnboundedDensityError

    def ref():
        return refs.measure(family, params, name, alpha, beta)

    if with_oracle:
        def run():
            d = record(cls, *params)
            return cf.evaluate(spec, d), oracle.entropy_estimate(d, name, alpha, beta, cfg)
        check = oracle_pair_check(ref)
    else:
        def run():
            return cf.evaluate(spec, record(cls, *params))
        check = value_check(ref)
    return Item(f"{family}/{name}", run, check, expect=expect,
                defect=(defect, "miss") if defect else None,
                props={"gamma_type": shape is not None and family != "exp",
                       "singular_at_zero": shape is not None and shape < 1.0})


def kl_item(family, p, q, with_oracle, cfg=None, defect=None):
    cls = CONTINUOUS[family]

    def ref():
        return refs.kl(family, p, q)

    if with_oracle:
        def run():
            dp, dq = record(cls, *p), record(cls, *q)
            return cf.kl_divergence(dp, dq), oracle.kl_integral(dp, dq, cfg).value
        check = oracle_pair_check(ref)
    else:
        def run():
            return cf.kl_divergence(record(cls, *p), record(cls, *q))
        check = value_check(ref)
    return Item(f"{family}/kl", run, check, defect=(defect, "miss") if defect else None,
                props={"gamma_type": family in ("gamma", "chisq"), "kl": True})


def oracle_pair_check(ref):
    """Closed form within tolerance of the reference and of its oracle estimate."""
    def check(result):
        closed, est = result
        cause = compare(closed, ref())
        if cause is not None:
            return cause
        cause = compare(est, closed)
        return "oracle_disagrees" if cause == "miss" else cause
    return check


def extreme_gamma_params(family, e_mu, e_lam):
    """Shape and rate 10**e_mu and 10**e_lam; chi-squared takes nu = 2 * shape."""
    if family == "chisq":
        return (max(1, int(round(2.0 * 10 ** e_mu))),)
    return (10 ** e_lam, 10 ** e_mu)


def closed_form_scalar(rng, scale=1.0) -> Workload:
    per_family = max(8, int(200 * scale))
    n_extreme = per_family // 4  # of each gamma-type family
    items = []
    for family in CONTINUOUS:
        kinds = MEASURES + (("kl",) if family in KL_FAMILIES else ())
        n_desk = per_family - (n_extreme if family in ("gamma", "chisq") else 0)
        qs = iter(desk_draws(family, rng, n_desk))
        for i, p in enumerate(desk_draws(family, rng, n_desk)):
            kind = kinds[i % len(kinds)]
            if kind == "kl":
                items.append(kl_item(family, p, next(qs), False))
            else:
                items.append(measure_item(family, p, kind, rng, False))
        if family not in ("gamma", "chisq"):
            continue
        # shape and rate log-uniform over [1e-8, 1e12]
        e_mu = stratified(rng, n_extreme, -8.0, 12.0)
        e_lam = stratified(rng, 2 * n_extreme, -8.0, 12.0)
        for i in range(n_extreme):
            kind = kinds[i % len(kinds)]
            p = extreme_gamma_params(family, e_mu[i], e_lam[2 * i])
            shapes = [gamma_shape(family, p)]
            if kind == "kl":
                q = extreme_gamma_params(family, e_mu[(i + 1) % n_extreme], e_lam[2 * i + 1])
                shapes.append(gamma_shape(family, q))
                defect = GAMMA_LARGE_SHAPE if max(shapes) >= 1e6 else None
                it = kl_item(family, p, q, False, defect=defect)
            else:
                defect = GAMMA_LARGE_SHAPE if shapes[0] >= 1e6 else None
                it = measure_item(family, p, kind, rng, False, defect=defect)
            it.props["extreme"] = True
            items.append(it)
    for it in items:
        it.props["provoked_error"] = it.expect is not None
    return Workload(interleave(rng, items),
                    ["entropy", "--dist", "gamma:lambda=1,mu=2", "--measure", "shannon"],
                    lambda out: refs.within(float(out), 1.0 + float(refs.mp.euler)))


ORACLE_MEASURES = ("shannon", "renyi", "gr1", "tsallis", "gr2", "sm")


def oracle_verify(rng, scale=1.0) -> Workload:
    cfg = oracle.OracleConfig()
    draws = max(1, int(12 * scale))  # per family and measure
    items = []
    for family in CONTINUOUS:
        for i, p in enumerate(desk_draws(family, rng, draws * len(ORACLE_MEASURES))):
            items.append(measure_item(family, p, ORACLE_MEASURES[i % len(ORACLE_MEASURES)],
                                      rng, True, cfg))
    for family in KL_FAMILIES:
        pairs = zip(desk_draws(family, rng, 2 * draws), desk_draws(family, rng, 2 * draws))
        items += [kl_item(family, p, q, True, cfg) for p, q in pairs]
    return Workload(interleave(rng, items),
                    ["entropy", "--dist", "exp:lambda=1", "--measure", "renyi",
                     "--alpha", "2", "--verify"],
                    _check_verify_line)


def _check_verify_line(out):
    lines = out.strip().splitlines()
    if lines[0] != "closed_form,oracle,abs_error" or len(lines) != 2:
        return False
    closed, est, err = (float(v) for v in lines[1].split(","))
    return refs.within(closed, math.log(2.0)) and refs.within(est, closed) and err == abs(closed - est)


# --- discrete families and convergence tables --------------------------------


def discrete_item(family, params, run, defect=None, kind=None):
    def check(value):
        return compare(value, refs.discrete_shannon(family, params))
    return Item(kind or family, run, check, defect=(defect, "miss") if defect else None,
                props={"family": family})


def shannon_item(family, cls, params):
    return discrete_item(family, params, lambda: cf.shannon(record(cls, *params)))


def table_check(limit_family, limit_params, row_family, row_params):
    def check(table):
        causes = [compare(table.rows[0].limit, refs.discrete_shannon(limit_family, limit_params))]
        causes += [compare(row.approx, refs.discrete_shannon(row_family, params))
                   for row, params in zip(table.rows, row_params)]
        return next((c for c in causes if c), None)
    return check


TABLE_N = (10, 100, 1000, 10000)
TABLE_R = (0.4, 0.1, 0.01, 0.001)


def series_converge(rng, scale=1.0) -> Workload:
    def k(base):  # thin strata keep the latency quantiles steady across seeds
        return max(2, int(3 * base * scale))

    items = []
    for lam in log_stratified(rng, k(16), 0.1, 1e4, pin="hi"):
        items.append(shannon_item("poisson", dist.Poisson, (lam,)))
    for lam in log_stratified(rng, k(16), 0.1, 1e4, pin="hi"):
        defect = POISSON_LARGE_LAMBDA if lam >= 1e3 else None
        items.append(discrete_item("poisson", (lam,), lambda lam=lam: limits.poisson_entropy(lam),
                                   defect=defect, kind="poisson_entropy"))
    for n in log_stratified(rng, k(40), 10, 1e6, pin="hi"):
        items.append(shannon_item("binomial", dist.Binomial,
                                  (int(round(n)), float(rng.uniform(0.02, 0.98)))))
    for r in log_stratified(rng, k(16), 1e-6, 0.5, pin="lo"):
        p = float(rng.uniform(0.05, 0.95))
        items.append(shannon_item("nbcond", dist.NegBinomialConditional, (p, r)))
    for p in log_stratified(rng, k(16), 1e-3, 0.9, pin="lo"):
        items.append(shannon_item("logarithmic", dist.Logarithmic, (p,)))
    for lam in log_stratified(rng, k(4), 0.5, 8.0):
        check = table_check("poisson", (lam,), "binomial", [(n, lam / n) for n in TABLE_N])
        items.append(Item("binomial_to_poisson",
                          lambda lam=lam: limits.binomial_to_poisson(lam, TABLE_N), check,
                          props={"family": "table"}))
    for p in stratified(rng, k(4), 0.05, 0.95):
        check = table_check("logarithmic", (p,), "nbcond", [(p, r) for r in TABLE_R])
        items.append(Item("nb_to_logarithmic",
                          lambda p=p: limits.nb_to_logarithmic(p, TABLE_R), check,
                          props={"family": "table"}))
    return Workload(interleave(rng, items),
                    ["converge", "--lambda", "2", "--n", ",".join(map(str, TABLE_N))],
                    _check_converge)


def _check_converge(out):
    lines = out.strip().splitlines()
    if lines[0] != "n,approx,limit,abs_error" or len(lines) != 1 + len(TABLE_N):
        return False
    limit_ref = refs.discrete_shannon("poisson", (2.0,))
    for n, line in zip(TABLE_N, lines[1:]):
        driver, approx, limit, _ = (float(v) for v in line.split(","))
        if driver != n or not refs.within(limit, limit_ref):
            return False
        if not refs.within(approx, refs.discrete_shannon("binomial", (n, 2.0 / n))):
            return False
    return True


# --- Gaussian vectors ----------------------------------------------------------

FGN_SIZES = (64, 128, 256)


def _det_and_entropy(a):
    """det_psd and gaussian_entropy; the entropy's SingularCovarianceError is part of
    the result, so a matrix flagged singular costs the same as any other."""
    det = gaussian.det_psd(a)
    try:
        return det, gaussian.gaussian_entropy(a)
    except SingularCovarianceError as exc:
        return det, exc


def fgn_check(n, hurst, matrix):
    def check(result):
        det, entropy = result
        logdet = refs.log_det(matrix(), hurst)
        if logdet is None:  # H = 1: rank one, singular is the right answer
            ok = det.singular and isinstance(entropy, SingularCovarianceError)
            return None if ok else "misflag"
        if det.singular:
            return "misflag"
        if isinstance(entropy, Exception):
            return "raised"
        return (compare(det.value, math.exp(logdet))
                or compare(entropy, refs.gaussian_entropy(n, logdet)))
    return check


def fgn_sweep(rng, scale=1.0) -> Workload:
    toeplitz = max(3, int(30 * scale))  # per size, general matrices get half as many
    items = []
    for n in FGN_SIZES:
        for h in [0.0, 1.0] + stratified(rng, toeplitz - 2, 0.0, 1.0):
            items.append(Item(f"toeplitz/n={n}",
                              lambda n=n, h=h: _det_and_entropy(gaussian.fgn_covariance(n, h)),
                              fgn_check(n, h, lambda n=n, h=h: refs.fgn_matrix(n, h)),
                              defect=(FGN_MISFLAG, "misflag") if h < 1.0 else None,
                              props={"toeplitz": True, "n": n, "endpoint": h in (0.0, 1.0)}))
        for h in [0.0, 1.0] + stratified(rng, max(1, toeplitz // 2 - 2), 0.0, 1.0):
            sd = np.sqrt(10.0 ** rng.uniform(-1.0, 1.0, n))
            m = sd[:, None] * refs.fgn_matrix(n, h) * sd[None, :]
            m = 0.5 * (m + m.T)
            items.append(Item(f"general/n={n}",
                              lambda m=m: _det_and_entropy(gaussian.CovMatrix(m)),
                              fgn_check(n, h, lambda m=m: m),
                              defect=(FGN_MISFLAG, "misflag") if h < 1.0 else None,
                              props={"toeplitz": False, "n": n, "endpoint": h in (0.0, 1.0)}))
    return Workload(interleave(rng, items),
                    ["gauss", "--n", "5", "--hurst-grid", "0:1:21"], _check_gauss)


def _check_gauss(out):
    lines = out.strip().splitlines()
    if lines[0] != "hurst,det,entropy" or len(lines) != 22:
        return False
    for j, line in enumerate(lines[1:]):
        hurst, det, entropy = line.split(",")
        h = float(hurst)
        if abs(h - j / 20.0) > 1e-15:
            return False
        logdet = refs.log_det(refs.fgn_matrix(5, h), h)
        if logdet is None:
            if entropy != "singular" or float(det) != 0.0:
                return False
        elif entropy == "singular" or not (refs.within(float(det), math.exp(logdet))
                                           and refs.within(float(entropy),
                                                           refs.gaussian_entropy(5, logdet))):
            return False
    return True


WORKLOADS = {
    "closed_form_scalar": closed_form_scalar,
    "oracle_verify": oracle_verify,
    "series_converge": series_converge,
    "fgn_sweep": fgn_sweep,
}
