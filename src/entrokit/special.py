"""Log-gamma, digamma and trigamma kernels on the positive half-line.

Method: one kernel serves all three.  Each argument x below 10 walks up
the recurrence on its own, x, x + 1, (x + 1) + 1, ..., to the first
z >= 10; the walks of the whole array are one block of at most ten
steps per row.  The Stirling-type expansion (DLMF 5.11) is summed at z
as a polynomial in 1/z**2, and each row's shift terms are taken back
out in the order of its walk, so a value does not depend on the rest
of the array.  Overflow at the ends of the float range gives the limit
(psi(1e-320) = -inf, log gamma(1e308) = inf) without a warning.
The three coefficient tuples are B_2k / (2k (2k-1)), B_2k / (2k) and
B_2k, each derived from the one Bernoulli table below.  With these
coefficient counts the expansion truncation error at z = 10 is under
3e-17 for log-gamma and under 2e-15 (absolute) for digamma and trigamma,
so the delivered accuracy is limited by rounding in the recurrence,
comfortably inside the advertised 1e-13 relative / 1e-12
scaled-absolute contract on x in [1e-6, 1e6].

Arguments below 1e-6 are accepted but the absolute accuracy degrades,
because the leading 1/x (digamma) and 1/x**2 (trigamma) poles amplify
the input rounding; no clamping is performed.

All three functions accept scalars or numpy arrays and are pure and
reentrant.

Two array kernels serve the saddle-point log-pmfs of Poisson and Binomial
(C. Loader, *Fast and accurate computation of binomial probabilities*,
2000): stirlerr, the Stirling remainder of log k!, and bd0, the deviance
x log(x/m) + m - x.  Both are nonnegative, so the log-pmfs add terms of
one sign and no O(k log k) quantities cancel.  They skip the argument
checks.  bd0 runs its near-mode series only when some element has
|v| < 0.1 and its log1p form only when some element has |v| >= 0.1,
v = (x - m)/(x + m); an element takes the same expression either way,
so a value does not depend on the rest of its array.  stirlerr cuts
its series for the whole array at its smallest argument, which can move
a value by an ulp of stirlerr (1e-18 or less absolute) against the same
k alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Bernoulli numbers B_2k = n / d, k = 1..8
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
# integer products, then one true division: each coefficient is its exact value correctly rounded
_LGAMMA_COEF = tuple(n / (d * 2 * k * (2 * k - 1)) for k, (n, d) in enumerate(_BERNOULLI, 1))
_DIGAMMA_COEF = tuple(n / (d * 2 * k) for k, (n, d) in enumerate(_BERNOULLI[:7], 1))
_TRIGAMMA_COEF = tuple(n / d for n, d in _BERNOULLI[:7])

_SHIFT_THRESHOLD = 10.0
_WALK_COLUMNS = np.arange(12)  # a placeholder, then x and up to 10 unit steps

# stirlerr(k) = log k! - [(k + 1/2) log k - k + log(2 pi)/2] for k = 0..15, from 40-digit
# mpmath; k = 0 is a placeholder (the log-pmfs evaluate their endpoints exactly)
_STIRLERR_TABLE = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
# k above which the first j coefficients of _LGAMMA_COEF leave a term below 1e-19 out
_STIRLERR_CUTS = tuple(
    (abs(_LGAMMA_COEF[j]) / 1e-19) ** (1.0 / (2 * j + 1)) for j in range(1, 8))


def _shifted_series(x, coef, finish, step, zeros=()):
    """finish(z, 1/z**2, sum_k coef[k] / z**(2k+2)) at z = x + n >= 10, minus step(x + j), j < n.

    Checks x; the result is exactly 0 where x is in `zeros`, and a float
    for a scalar x.
    """
    arr = np.asarray(x, dtype=float)
    ok = (arr > 0.0) & (arr < np.inf)
    if not ok.all():
        raise DomainError(f"argument must be a finite positive real, got {arr[~ok].ravel()[0]}")
    flat = arr.reshape(-1)
    z = flat.copy()
    low = np.flatnonzero(z < _SHIFT_THRESHOLD)
    # 1/x overflows below 1e-308 and z*z above 1e154; the limits they give are the values
    with np.errstate(over="ignore", divide="ignore"):
        if low.size:
            # row i is [placeholder, x, x + 1, (x + 1) + 1, ...], rounded as the recurrence
            # rounds; x > 0 reaches 10 in at most 10 unit steps, so column 11 is >= 10
            walk = np.ones((low.size, _WALK_COLUMNS.size))
            walk[:, 1] = z[low]
            np.add.accumulate(walk[:, 1:], axis=1, out=walk[:, 1:])
            n = np.argmax(walk >= _SHIFT_THRESHOLD, axis=1)
            z[low] = walk[np.arange(low.size), n]
        rz2 = 1.0 / (z * z)
        series = np.zeros_like(z)
        for c in reversed(coef):
            series = (series + c) * rz2
        out = finish(z, rz2, series)
        if low.size:
            # finish - step(x) - step(x + 1) - ..., in that order, then - 0 past the row's steps
            terms = step(walk)
            terms[_WALK_COLUMNS >= n[:, None]] = 0.0
            terms[:, 0] = out[low]
            out[low] = np.subtract.reduce(terms, axis=1)
    for root in zeros:
        out[flat == root] = 0.0
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Relative error <= 1e-13 on [1e-6, 1e6] (scaled near the zeros at
    x = 1 and x = 2, where log gamma itself vanishes); exactly 0 at the
    zeros, where the recurrence would leave 2.7e-15.
    """
    # series * z: the series terms are c_k / z^(2k-1)
    return _shifted_series(x, _LGAMMA_COEF,
                           lambda z, rz2, s: (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + s * z,
                           np.log, zeros=(1.0, 2.0))


def digamma(x):
    """Digamma psi(x) for x > 0; satisfies psi(x+1) = psi(x) + 1/x."""
    return _shifted_series(x, _DIGAMMA_COEF, lambda z, rz2, s: np.log(z) - 0.5 / z - s,
                           lambda v: 1.0 / v)


def trigamma(x):
    """Trigamma psi'(x) for x > 0; obeys 1/x < psi'(x) < 1/x + 1/x**2."""
    # series / z: the series terms are B_2k / z^(2k+1)
    return _shifted_series(x, _TRIGAMMA_COEF, lambda z, rz2, s: 1.0 / z + 0.5 * rz2 + s / z,
                           lambda v: -1.0 / (v * v))


def stirlerr(k):
    """log k! - [(k + 1/2) log k - k + log(2 pi)/2] for integers k >= 1 (scalar or array).

    A table for k <= 15; above it the _LGAMMA_COEF series, cut at the
    first term below 1e-19 for the smallest k of the array.  The cut is
    one for the whole array: eight terms everywhere, or a count per
    element, cost several times as much at large k.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim == 0:
        return stirlerr(k.reshape(1)).reshape(())
    any_small = not k.min(initial=np.inf) > 15.0  # some k <= 15, or a NaN: the table's mask
    small = k <= 15.0 if any_small else None
    z = np.where(small, 16.0, k) if any_small else k
    zmin = float(z.min(initial=np.inf))  # inf for an empty k: the one-term cut
    terms = next((j for j, cut in enumerate(_STIRLERR_CUTS, 1) if zmin > cut), 8)
    series = _LGAMMA_COEF[terms - 1]
    if terms > 1:
        rz2 = 1.0 / (z * z)
        for c in _LGAMMA_COEF[terms - 2::-1]:
            series = series * rz2 + c
    out = series / z
    if any_small:
        out[small] = _STIRLERR_TABLE[k[small].astype(np.intp)]
    return out


def bd0(x, m):
    """Deviance x log(x/m) + m - x >= 0 for x > 0 (scalar or array) and a scalar m > 0.

    Where |x - m| < 0.1 (x + m) Loader's series in v = (x - m)/(x + m),
    bd0 = (x - m) v + 2x (v^3/3 + v^5/5 + ... + v^17/17), keeps a few ulp
    of relative accuracy: the terms past v^17/17 sum to under 2**-56 of
    it.  Elsewhere x log1p((x - m)/m) - (x - m) is good to about
    2u (bd0 + |x - m|), where |x - m| is at most ten times bd0.  Where
    (x - m)/m overflows, which takes m < 1, or rounds to -1, which takes
    x below m 2**-53, x (log x - log m) - (x - m) stands in.

    A branch runs only if some element takes it: an array whose elements
    are all near m runs the series alone, one with none near m the log1p
    form alone, and a mixed array both, each element keeping its own.
    Either way an element's value is its branch's expression, so it does
    not depend on the rest of the array.  A 0-d x gives a 0-d array.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return bd0(x.reshape(1), m).reshape(())
    d = x - m
    v = d / (x + m)
    size = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # NaN passes neither test, and the mixed path puts it on the log1p side
        if size.max(initial=0.0) < 0.1:
            return _bd0_series(x, d, v)
        if size.min(initial=math.inf) >= 0.1:
            return _bd0_log1p(x, d, m)
        return np.where(size < 0.1, _bd0_series(x, d, v), _bd0_log1p(x, d, m))


def _bd0_series(x, d, v):
    """(x - m) v + 2x v^3 (1/3 + v^2/5 + ... + v^14/17), in bd0's order of operations."""
    v2 = v * v
    s = np.full_like(v, 1.0 / 17.0)
    for i in range(7, 0, -1):  # Horner in v**2, in place
        s *= v2
        s += 1.0 / (2 * i + 1)
    tail = 2.0 * x  # ((2x v) v^2) s, left to right
    tail *= v
    tail *= v2
    tail *= s
    out = d * v
    out += tail
    return out


def _bd0_log1p(x, d, m):
    """x log1p((x - m)/m) - (x - m); x (log x - log m) - (x - m) where (x - m)/m is +-inf or -1."""
    r = d / m
    far = x * np.log1p(r) - d
    # far is +-inf or NaN where r overflows (|d| <= max(x, m): only below m = 1) or rounds
    # to -1 (log1p(-1) = -inf), so one sum tells whether to look for them
    if not math.isfinite(far.sum()):
        swap = np.isinf(r) | (r == -1.0)
        far = np.where(swap, x * (np.log(x) - math.log(m)) - d, far)
    return far
