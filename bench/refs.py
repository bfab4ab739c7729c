"""Reference values that share no code with entrokit.

Continuous families: each measure is written out from its definition and
evaluated in mpmath at 50 significant digits, so cancellation in the
double-precision closed forms shows as a miss instead of being copied.

Discrete families: the pmf is rebuilt from the ratio p_{k+1}/p_k, walked
outward from the mode until terms fall below e^-70 of the mode term,
normalised by its own sum and reduced with math.fsum.  Neither log-gamma
nor any entrokit series code is involved.

Gaussian vectors: numpy.linalg.slogdet of the benchmark's own fGn
covariance, plus the exact values log det = log(n+1) - n log 2 at H = 0
and 0 at H = 1/2.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50

TOLERANCE = 1e-8  # scaled: |value - ref| <= TOLERANCE * (1 + |ref|)


def within(value, ref) -> bool:
    """The paper's acceptance test, applied to a float against a reference."""
    value = float(value)
    return math.isfinite(value) and abs(value - float(ref)) <= TOLERANCE * (1.0 + abs(float(ref)))


# --- continuous families -----------------------------------------------------
# Every family is reduced to a handful of exact expectations.  Gamma-type
# laws (gamma, exponential, chi-squared) share the gamma expressions; the
# escort density p**alpha / J(alpha) of each family is again in the family.


def _as_gamma(family, params):
    if family == "gamma":
        return mp.mpf(params[0]), mp.mpf(params[1])
    if family == "exp":
        return mp.mpf(params[0]), mp.mpf(1)
    if family == "chisq":
        return mp.mpf(1) / 2, mp.mpf(params[0]) / 2
    return None


def _gamma_logpdf_moments(lam, mu, e_logx, e_x):
    """E[log p(X)] for a gamma(lam, mu) density, given E log X and E X."""
    return mu * mp.log(lam) - mp.loggamma(mu) + (mu - 1) * e_logx - lam * e_x


def log_power_integral(family, params, alpha):
    """log of J(alpha) = integral of p**alpha."""
    alpha = mp.mpf(alpha)
    g = _as_gamma(family, params)
    if g is not None:
        lam, mu = g
        a = alpha * (mu - 1)
        # integral x**a exp(-alpha lam x) dx = Gamma(a+1) / (alpha lam)**(a+1)
        return (alpha * (mu * mp.log(lam) - mp.loggamma(mu))
                + mp.loggamma(a + 1) - (a + 1) * mp.log(alpha * lam))
    if family == "laplace":
        half = mp.mpf(params[1]) / 2
        return (alpha - 1) * mp.log(half) - mp.log(alpha)
    if family == "lognormal":
        m, s2 = mp.mpf(params[0]), mp.mpf(params[1])
        return ((1 - alpha) / 2 * mp.log(2 * mp.pi * s2) - mp.log(alpha) / 2
                + (1 - alpha) * m + (1 - alpha) ** 2 * s2 / (2 * alpha))
    if family == "normal":
        s2 = mp.mpf(params[1])
        return (1 - alpha) / 2 * mp.log(2 * mp.pi * s2) - mp.log(alpha) / 2
    if family == "uniform":
        return (1 - alpha) * mp.log(mp.mpf(params[1]) - mp.mpf(params[0]))
    raise ValueError(family)


def escort_entropy(family, params, alpha):
    """-E_q[log p] with q proportional to p**alpha; alpha = 1 gives Shannon."""
    alpha = mp.mpf(alpha)
    g = _as_gamma(family, params)
    if g is not None:
        lam, mu = g
        a = alpha * (mu - 1)  # escort is gamma(alpha lam, a + 1)
        e_logx = mp.digamma(a + 1) - mp.log(alpha * lam)
        e_x = (a + 1) / (alpha * lam)
        return -_gamma_logpdf_moments(lam, mu, e_logx, e_x)
    if family == "laplace":
        lam = mp.mpf(params[1])  # escort is laplace(mu, alpha lam)
        return -mp.log(lam / 2) + lam / (alpha * lam)
    if family == "lognormal":
        m, s2 = mp.mpf(params[0]), mp.mpf(params[1])
        # in y = log x the escort is normal(m + (1-alpha) s2/alpha, s2/alpha)
        ey = m + (1 - alpha) * s2 / alpha
        second = s2 / alpha + (ey - m) ** 2
        return mp.log(2 * mp.pi * s2) / 2 + second / (2 * s2) + ey
    if family == "normal":
        s2 = mp.mpf(params[1])
        return mp.log(2 * mp.pi * s2) / 2 + 1 / (2 * alpha)
    if family == "uniform":
        return mp.log(mp.mpf(params[1]) - mp.mpf(params[0]))
    raise ValueError(family)


def log_density_sup(family, params):
    """log of sup p, or None when the density is unbounded."""
    g = _as_gamma(family, params)
    if g is not None:
        lam, mu = g
        if mu < 1:
            return None
        if mu == 1:
            return mp.log(lam)
        mode = (mu - 1) / lam
        return mu * mp.log(lam) - mp.loggamma(mu) + (mu - 1) * mp.log(mode) - lam * mode
    if family == "laplace":
        return mp.log(mp.mpf(params[1]) / 2)
    if family == "lognormal":
        m, s2 = mp.mpf(params[0]), mp.mpf(params[1])
        return s2 / 2 - m - mp.log(2 * mp.pi * s2) / 2
    if family == "normal":
        return -mp.log(2 * mp.pi * mp.mpf(params[1])) / 2
    if family == "uniform":
        return -mp.log(mp.mpf(params[1]) - mp.mpf(params[0]))
    raise ValueError(family)


def measure(family, params, name, alpha=None, beta=None):
    """Reference value of one measure, or None where it does not exist."""
    if name == "shannon":
        return escort_entropy(family, params, 1)
    if name == "gr1":
        return escort_entropy(family, params, alpha)
    if name == "modified":
        log_m = log_density_sup(family, params)
        if log_m is None:
            return None
        return (escort_entropy(family, params, 1) + log_m) / mp.exp(log_m)
    log_ja = log_power_integral(family, params, alpha)
    alpha = mp.mpf(alpha)
    if name == "renyi":
        return log_ja / (1 - alpha)
    if name == "tsallis":
        return mp.expm1(log_ja) / (1 - alpha)
    beta = mp.mpf(beta)
    if name == "gr2":
        return (log_ja - log_power_integral(family, params, beta)) / (beta - alpha)
    if name == "sm":
        return mp.expm1(log_ja * (1 - beta) / (1 - alpha)) / (1 - beta)
    raise ValueError(name)


def kl(family, p, q):
    """KL(p || q) for a same-family pair, as E_p[log p - log q]."""
    gp, gq = _as_gamma(family, p), _as_gamma(family, q)
    if gp is not None:
        (lp, mp_), (lq, mq) = gp, gq
        e_logx = mp.digamma(mp_) - mp.log(lp)
        e_x = mp_ / lp
        return (_gamma_logpdf_moments(lp, mp_, e_logx, e_x)
                - _gamma_logpdf_moments(lq, mq, e_logx, e_x))
    if family == "laplace":
        (mu_p, lam_p), (mu_q, lam_q) = map(lambda t: (mp.mpf(t[0]), mp.mpf(t[1])), (p, q))
        gap = abs(mu_p - mu_q)
        e_abs_q = gap + mp.exp(-lam_p * gap) / lam_p  # E_p |X - mu_q|
        return mp.log(lam_p / 2) - 1 - mp.log(lam_q / 2) + lam_q * e_abs_q
    if family == "lognormal":
        (m_p, s_p), (m_q, s_q) = map(lambda t: (mp.mpf(t[0]), mp.mpf(t[1])), (p, q))
        return mp.log(s_q / s_p) / 2 + (s_p + (m_p - m_q) ** 2) / (2 * s_q) - mp.mpf(1) / 2
    raise ValueError(family)


# --- discrete families -------------------------------------------------------

_CUTOFF = -70.0  # stop once log(p_k / p_mode) is below this, walking away from the mode


def _log_ratio(family, params):
    """k -> log(p_{k+1} / p_k), the start of the support, and a mode guess."""
    if family == "poisson":
        lam = params[0]
        return (lambda k: math.log(lam / (k + 1.0))), 0, int(lam)
    if family == "binomial":
        n, p = params
        odds = math.log(p) - math.log1p(-p)
        return (lambda k: math.log((n - k) / (k + 1.0)) + odds), 0, min(n, int((n + 1) * p))
    if family == "nbcond":
        p, r = params
        l1p = math.log1p(-p)
        mode = max(1, int((r - 1.0) * (1.0 - p) / p)) if r > 1.0 else 1
        return (lambda k: math.log((k + r) / (k + 1.0)) + l1p), 1, mode
    if family == "logarithmic":
        l1p = math.log1p(-params[0])
        return (lambda k: math.log(k / (k + 1.0)) + l1p), 1, 1
    raise ValueError(family)


def discrete_shannon(family, params) -> float:
    """Shannon entropy of a discrete law from its normalised term ratios."""
    step, start, mode = _log_ratio(family, params)
    end = params[0] if family == "binomial" else None
    logs = [0.0]
    lr, k = 0.0, mode
    while end is None or k < end:  # upward from the mode
        lr += step(k)
        k += 1
        if lr < _CUTOFF:
            break
        logs.append(lr)
    lr, k = 0.0, mode
    while k > start:  # downward: log p_{k-1} = log p_k - step(k-1)
        k -= 1
        lr -= step(k)
        if lr < _CUTOFF:
            break
        logs.append(lr)
    weights = [math.exp(v) for v in logs]
    total = math.fsum(weights)
    log_total = math.log(total)
    # H = -sum p log p with p = w / total
    return -math.fsum(w * (v - log_total) for w, v in zip(weights, logs)) / total


# --- Gaussian vectors --------------------------------------------------------


def fgn_autocovariance(n: int, hurst: float) -> np.ndarray:
    """Lag-0..n-1 autocovariance of unit-variance fractional Gaussian noise."""
    lags = np.arange(n, dtype=float)
    two_h = 2.0 * hurst

    def pw(x):
        # 0**(2H) = 0 also at H = 0, the continuity convention of the fGn family
        return np.where(x != 0.0, np.abs(x) ** two_h, 0.0)

    return 0.5 * (pw(lags + 1.0) - 2.0 * pw(lags) + pw(lags - 1.0))


def fgn_matrix(n: int, hurst: float) -> np.ndarray:
    rho = fgn_autocovariance(n, hurst)
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return rho[idx]


def log_det(matrix: np.ndarray, hurst: float):
    """Reference log det, or None for the rank-one H = 1 matrix."""
    n = matrix.shape[0]
    if hurst == 1.0 and n > 1:
        return None
    scale = float(np.sum(np.log(np.diag(matrix))))
    if hurst == 0.0:
        return math.log(n + 1.0) - n * math.log(2.0) + scale
    if hurst == 0.5:
        return scale
    sign, value = np.linalg.slogdet(matrix)
    return float(value) if sign > 0 else None


def gaussian_entropy(n: int, logdet: float) -> float:
    return 0.5 * n * (1.0 + math.log(2.0 * math.pi)) + 0.5 * logdet
