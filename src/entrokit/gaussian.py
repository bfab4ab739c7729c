"""Gaussian-vector Shannon entropy, Hadamard extremes and fGn covariances.

Each covariance matrix is factored once, at construction, into its
pivots: log det = sum log pivots.  A Toeplitz matrix (every diagonal
exactly constant, as for fractional Gaussian noise) is factored by the
Durbin-Levinson recursion on its first row in O(n^2) time and O(n)
memory; its pivots are the prediction-error variances.  Any other matrix
goes through a left-looking Cholesky factorization with diagonal
pivoting (LAPACK's dpstf2 scheme): O(n^3) flops, one matrix-vector
product per step, O(n^2) memory.  The two routines share no code, so
the tests use the pivoted one as the reference for the recursion.

Singularity is decided by rank alone.  A pivot at or below the relative
floor 1e-12 * max(a_ii) ends the factorization: the matrix is singular
(det 0, entropy -inf) if what remains is consistent with rank
deficiency, and NotPSDError is raised otherwise or for a pivot below
-1e-12 * max(a_ii).  A positive-definite matrix whose determinant
underflows is not singular; its entropy comes from the log pivots.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotPSDError, ParameterError, SingularCovarianceError

_PIVOT_REL_FLOOR = 1e-12
_SYM_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Symmetric positive-semidefinite matrix with strictly positive diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        try:
            a = np.asarray(self.entries)
            # complex entries would lose their imaginary part, strings would be parsed
            if a.dtype.kind not in "biufO":
                raise TypeError(f"dtype {a.dtype}")
            a = np.array(a, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"covariance entries must be real numbers ({exc})") from None
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ParameterError(f"covariance must be square with n >= 1, got shape {a.shape}")
        scale = float(np.max(np.abs(a))) or 1.0
        if not math.isfinite(scale):
            raise ParameterError(f"covariance entries must be finite, got max |a_ij| = {scale}")
        asym = a - a.T
        if float(np.max(np.abs(asym))) > _SYM_TOL * max(1.0, scale):
            raise ParameterError("covariance must be symmetric to 1e-14")
        if asym.any():  # exactly symmetric input keeps its entries
            a = 0.5 * (a + a.T)
        if np.any(np.diag(a) <= 0.0):
            raise ParameterError("covariance diagonal entries must be strictly positive")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        # (pivots, singular), kept so each matrix is factored once; NotPSDError if not PSD
        toeplitz = np.array_equal(a[1:, 1:], a[:-1, :-1])
        object.__setattr__(self, "_factor", _levinson(a[0]) if toeplitz else _pivoted_factor(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class DetResult(NamedTuple):
    value: float
    singular: bool


def _pivoted_factor(a: np.ndarray):
    """Pivots of the diagonally pivoted Cholesky factorization of a.

    Left-looking (Crout) order, as in LAPACK's dpstf2: the Schur-complement
    diagonal d is kept as a vector, step k pivots on the largest d (first
    index on ties), builds column k of L from the original entries minus
    one matrix-vector product with the columns already factored, and
    lowers d by its squares.  Only the permutation, d and the factored
    rows of L are swapped.  d never increases, so the pivots come out
    non-increasing.

    Returns (pivots, singular).  The pivot list is in elimination order;
    a rank-deficient stop pads the remainder with zeros.
    """
    n = a.shape[0]
    d = np.array(np.diag(a), dtype=float)
    floor = _PIVOT_REL_FLOOR * float(np.max(d))
    perm = np.arange(n)
    low = np.zeros((n, n))  # row i: the factored part of L's row for index perm[i]
    pivots = np.zeros(n)
    for k in range(n):
        j = k + int(np.argmax(d[k:]))
        if j != k:
            # element and slice swaps (fancy-indexed ones cost several times more per
            # step); the copy keeps row k's values until row j has taken its place
            perm[k], perm[j] = perm[j], perm[k]
            d[k], d[j] = d[j], d[k]
            low[k, :k], low[j, :k] = low[j, :k], low[k, :k].copy()
        piv = float(d[k])
        if piv < -floor:
            raise NotPSDError(
                f"pivot {piv:.3e} < -{floor:.3e} at step {k}: matrix is not PSD")
        if piv <= floor:
            # PSD forces the remaining block a[rest, rest] - L L^T to vanish with its diagonal
            rest, done = perm[k:], low[k:, :k]
            rem = a[np.ix_(rest, rest)]
            rem -= done @ done.T
            if float(np.max(np.abs(rem))) > 1e4 * max(floor, 1e-300):
                raise NotPSDError(
                    "tiny pivots but non-negligible remaining block: matrix is not PSD")
            return pivots, True
        pivots[k] = piv
        col = a[perm[k], perm[k + 1:]] - low[k + 1:, :k] @ low[k, :k]
        col /= math.sqrt(piv)
        low[k + 1:, k] = col
        d[k + 1:] -= col * col
    return pivots, False


def _levinson(r: np.ndarray):
    """Durbin-Levinson factorization of the symmetric Toeplitz matrix with first row r.

    Returns (pivots, singular) like _pivoted_factor.  The pivots are the
    prediction-error variances v_k of the order-k predictors, in natural
    order (the unpivoted factorization); a rank-deficient stop pads the
    remainder with zeros.
    """
    n = r.shape[0]
    floor = _PIVOT_REL_FLOOR * float(r[0])
    pivots = np.zeros(n)
    pivots[0] = v = float(r[0])
    phi = np.zeros(n)  # phi[i - 1] is the coefficient of lag i in the current predictor
    for k in range(1, n):
        kappa = (float(r[k]) - float(phi[:k - 1] @ r[k - 1:0:-1])) / v
        phi[:k - 1] -= kappa * phi[:k - 1][::-1]
        phi[k - 1] = kappa
        v *= (1.0 - kappa) * (1.0 + kappa)
        if v < -floor:
            raise NotPSDError(
                f"prediction-error variance {v:.3e} < -{floor:.3e} at order {k}: "
                "matrix is not PSD")
        if v <= floor:
            # rank k: the order-k predictor must reproduce every later r_j.  In a PSD
            # matrix its miss on r_j is cov(error_j, x_0), at most sqrt(v * r_0) <=
            # sqrt(floor * r_0) by Cauchy-Schwarz; the factor 2 absorbs rounding in v
            resid = r[k + 1:] - np.convolve(r, phi[:k])[k:n - 1]
            if resid.size and float(np.max(np.abs(resid))) > 2.0 * math.sqrt(floor * r[0]):
                raise NotPSDError(
                    "tiny prediction error but later covariances not reproduced: "
                    "matrix is not PSD")
            return pivots, True
        pivots[k] = v
    return pivots, False


def cholesky_pivots(a: CovMatrix) -> np.ndarray:
    """Factorization pivots in elimination order (zeros past a rank-deficient stop).

    For Toeplitz input these are the unpivoted prediction-error variances
    in natural order.  All pivots strictly positive certifies positive
    definiteness even when the determinant itself underflows.
    """
    return a._factor[0].copy()


def _det_and_entropy(factor) -> tuple[DetResult, float | None]:
    """Determinant and Gaussian entropy (None if singular) from (pivots, singular)."""
    pivots, singular = factor
    if singular:
        return DetResult(0.0, True), None
    log_det = float(np.sum(np.log(pivots)))
    value = float(np.prod(pivots))
    if not sys.float_info.min <= value < math.inf:
        # the product under/overflowed, or went subnormal and lost digits: the
        # log route rounds once (to 0.0 below e**-745)
        value = math.exp(log_det)
    n = pivots.shape[0]
    return DetResult(value, False), 0.5 * n * (1.0 + math.log(2.0 * math.pi)) + 0.5 * log_det


def det_psd(a: CovMatrix) -> DetResult:
    """Determinant of a PSD covariance from its factorization pivots.

    The singular flag marks a rank-deficient matrix (det = 0, Gaussian
    entropy -inf); a positive-definite matrix whose determinant
    underflows reports 0.0 with the flag clear.
    """
    return _det_and_entropy(a._factor)[0]


def gaussian_entropy(a: CovMatrix) -> float:
    """Shannon entropy of a centered Gaussian vector with covariance a.

    (n/2)(1 + log 2 pi) + (1/2) sum log pivots; raises
    SingularCovarianceError when the matrix is rank-deficient.
    """
    entropy = _det_and_entropy(a._factor)[1]
    if entropy is None:
        raise SingularCovarianceError(
            "covariance determinant is 0; the entropy is -inf and not representable")
    return entropy


def hadamard_gap(a: CovMatrix) -> float:
    """prod(a_ii) - det(a); nonnegative, and ~0 exactly for diagonal matrices."""
    return float(np.prod(np.diag(a.entries))) - det_psd(a).value


def _pow_keep_zero(base: float, exponent: float) -> float:
    # 0**(2H) is 0 for every H > 0; keeping that at H = 0 is the
    # continuity convention that reproduces the independent-increment
    # covariance of the H = 0 noise (lag-1 correlation -1/2)
    return 0.0 if base == 0.0 else base**exponent


def _fgn_autocovariance(n: int, hurst: float) -> np.ndarray:
    """Lag-0..n-1 autocovariance of unit-variance fractional Gaussian noise."""
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    if not (isinstance(hurst, numbers.Real) and not isinstance(hurst, bool)
            and 0.0 <= hurst <= 1.0):
        raise ParameterError(f"hurst index must lie in [0, 1], got {hurst!r}")
    n, two_h = int(n), 2.0 * float(hurst)
    rho = np.empty(n)
    rho[0] = 1.0
    for j in range(1, n):
        rho[j] = 0.5 * (_pow_keep_zero(j + 1.0, two_h) - 2.0 * _pow_keep_zero(float(j), two_h)
                        + _pow_keep_zero(j - 1.0, two_h))
    return rho


def fgn_covariance(n: int, hurst: float) -> CovMatrix:
    """Covariance of n successive fractional-Gaussian-noise increments.

    Unit diagonal, Toeplitz, lag-j covariance
    ((j+1)**2H - 2 j**2H + (j-1)**2H) / 2.  H = 1/2 yields the identity
    and H = 1 the all-ones matrix; both endpoints of [0, 1] are allowed.
    """
    rho = _fgn_autocovariance(n, hurst)
    # row i of the Toeplitz matrix is the window [rho_i, ..., rho_1, rho_0, ..., rho_{n-1-i}]
    lags = np.concatenate((rho[:0:-1], rho))
    return CovMatrix(np.lib.stride_tricks.sliding_window_view(lags, n)[::-1])


@dataclass(frozen=True)
class FgnSweepRow:
    """One Hurst-grid point of the fGn determinant sweep."""

    hurst: float
    det: float
    singular: bool
    entropy: float | None


def fgn_det_sweep(n: int, hurst_grid) -> list[FgnSweepRow]:
    """Determinant (and entropy where defined) of the n-point fGn covariance
    over a Hurst grid.  det(H = 1/2) = 1 is the maximum, det(H = 1) = 0 the
    minimum; whether det is monotone on each side of 1/2 is an open
    hypothesis, so the sweep reports values without asserting it.
    """
    rows = []
    for h in hurst_grid:
        # the Levinson recursion needs only the first row: no n x n matrix is built
        det, entropy = _det_and_entropy(_levinson(_fgn_autocovariance(n, h)))
        rows.append(FgnSweepRow(float(h), det.value, det.singular, entropy))
    return rows


def rank1_extremal_vector(diag, signs) -> CovMatrix:
    """Covariance {s_i s_j sqrt(a_ii a_jj)} of (+-sqrt(a_ii) xi_0)_i.

    This is the degenerate Gaussian vector realizing the minimal
    determinant 0 (for n >= 2) with the prescribed variances; any sign
    combination gives the same determinant.
    """
    d = np.asarray(diag, dtype=float)
    s = np.asarray(signs, dtype=float)
    if d.ndim != 1 or s.shape != d.shape or d.size < 1:
        raise ParameterError("diag and signs must be 1-d sequences of equal length")
    if np.any(d <= 0):
        raise ParameterError("variances must be strictly positive")
    if not np.all(np.isin(s, (-1.0, 1.0))):
        raise ParameterError("signs must be +1 or -1")
    v = s * np.sqrt(d)
    m = np.outer(v, v)
    np.fill_diagonal(m, d)
    return CovMatrix(m)
