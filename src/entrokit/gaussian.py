"""Gaussian-vector Shannon entropy, Hadamard extremes and fGn covariances.

Determinants of covariance matrices are computed by symmetric Cholesky
factorization with diagonal pivoting.  Pivots below the relative floor
1e-12 * max(a_ii) terminate the factorization as rank-deficient, and a
pivot below -1e-12 * max(a_ii) raises NotPSDError.  Determinant values
under 1e-13 * prod(a_ii) are reported as 0 with a singular flag; near
H = 1 the fractional-Gaussian-noise matrix is close enough to singular
that naive elimination would otherwise return noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotPSDError, ParameterError, SingularCovarianceError

_PIVOT_REL_FLOOR = 1e-12
_DET_REL_FLOOR = 1e-13
_SYM_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Symmetric positive-semidefinite matrix with strictly positive diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ParameterError(f"covariance must be square with n >= 1, got shape {a.shape}")
        scale = float(np.max(np.abs(a))) or 1.0
        if float(np.max(np.abs(a - a.T))) > _SYM_TOL * max(1.0, scale):
            raise ParameterError("covariance must be symmetric to 1e-14")
        a = 0.5 * (a + a.T)
        if np.any(np.diag(a) <= 0.0):
            raise ParameterError("covariance diagonal entries must be strictly positive")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        # (pivots, singular), kept so each matrix is factored once; NotPSDError if not PSD
        object.__setattr__(self, "_factor", _pivoted_factor(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class DetResult(NamedTuple):
    value: float
    singular: bool


def _pivoted_factor(a: np.ndarray):
    """Pivots of the diagonally pivoted symmetric factorization of a.

    Returns (pivots, singular).  The pivot list is in elimination order;
    a rank-deficient stop pads the remainder with zeros.
    """
    m = np.array(a, dtype=float)
    n = m.shape[0]
    scale = float(np.max(np.diag(m)))
    floor = _PIVOT_REL_FLOOR * scale
    pivots = np.zeros(n)
    for k in range(n):
        j = k + int(np.argmax(np.diag(m)[k:]))
        if j != k:
            m[[k, j], :] = m[[j, k], :]
            m[:, [k, j]] = m[:, [j, k]]
        piv = m[k, k]
        if piv < -floor:
            raise NotPSDError(
                f"pivot {piv:.3e} < -{floor:.3e} at step {k}: matrix is not PSD")
        if piv <= floor:
            # PSD forces the remaining block to vanish with its diagonal
            rem = m[k:, k:]
            if rem.size and float(np.max(np.abs(rem))) > 1e4 * max(floor, 1e-300):
                raise NotPSDError(
                    "tiny pivots but non-negligible remaining block: matrix is not PSD")
            return pivots, True
        pivots[k] = piv
        if k + 1 < n:
            col = m[k + 1:, k].copy()
            m[k + 1:, k + 1:] -= np.outer(col, col) / piv
    return pivots, False


def cholesky_pivots(a: CovMatrix) -> np.ndarray:
    """Factorization pivots in elimination order (zeros past a rank-deficient stop).

    All pivots strictly positive certifies positive definiteness even
    when the determinant itself underflows the reporting floor.
    """
    return a._factor[0].copy()


def det_psd(a: CovMatrix) -> DetResult:
    """Determinant of a PSD covariance via the pivoted factorization.

    Values below 1e-13 * prod(a_ii) are reported as 0.0 with the
    singular flag set; the flag marks the categorical det = 0 case
    (Gaussian entropy -inf), not a tiny-but-meaningful value.
    """
    pivots, singular = a._factor
    if singular:
        return DetResult(0.0, True)
    log_det = float(np.sum(np.log(pivots)))
    log_floor = math.log(_DET_REL_FLOOR) + float(np.sum(np.log(np.diag(a.entries))))
    if log_det < log_floor:
        return DetResult(0.0, True)
    value = float(np.prod(pivots))
    if value == 0.0 or math.isinf(value):
        value = math.exp(log_det)  # product under/overflowed; log route is safe here
    return DetResult(value, False)


def gaussian_entropy(a: CovMatrix) -> float:
    """Shannon entropy of a centered Gaussian vector with covariance a.

    (n/2)(1 + log 2 pi) + (1/2) log det; raises SingularCovarianceError
    when the determinant is flagged zero.
    """
    if det_psd(a).singular:
        raise SingularCovarianceError(
            "covariance determinant is 0; the entropy is -inf and not representable")
    log_det = float(np.sum(np.log(a._factor[0])))
    n = a.n
    return 0.5 * n * (1.0 + math.log(2.0 * math.pi)) + 0.5 * log_det


def hadamard_gap(a: CovMatrix) -> float:
    """prod(a_ii) - det(a); nonnegative, and ~0 exactly for diagonal matrices."""
    return float(np.prod(np.diag(a.entries))) - det_psd(a).value


def _pow_keep_zero(base: float, exponent: float) -> float:
    # 0**(2H) is 0 for every H > 0; keeping that at H = 0 is the
    # continuity convention that reproduces the independent-increment
    # covariance of the H = 0 noise (lag-1 correlation -1/2)
    return 0.0 if base == 0.0 else base**exponent


def fgn_covariance(n: int, hurst: float) -> CovMatrix:
    """Covariance of n successive fractional-Gaussian-noise increments.

    Unit diagonal, Toeplitz, lag-j covariance
    ((j+1)**2H - 2 j**2H + (j-1)**2H) / 2.  H = 1/2 yields the identity
    and H = 1 the all-ones matrix; both endpoints of [0, 1] are allowed.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"n must be an integer >= 1, got {n}")
    if not (isinstance(hurst, (int, float)) and 0.0 <= hurst <= 1.0):
        raise ParameterError(f"hurst index must lie in [0, 1], got {hurst}")
    two_h = 2.0 * float(hurst)
    rho = np.empty(n)
    rho[0] = 1.0
    for j in range(1, n):
        rho[j] = 0.5 * (_pow_keep_zero(j + 1.0, two_h) - 2.0 * _pow_keep_zero(float(j), two_h)
                        + _pow_keep_zero(j - 1.0, two_h))
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return CovMatrix(rho[idx])


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
        a = fgn_covariance(n, float(h))
        det = det_psd(a)
        entropy = None if det.singular else gaussian_entropy(a)
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
