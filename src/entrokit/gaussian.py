"""Gaussian-vector Shannon entropy, Hadamard extremes and fGn covariances.

Each covariance matrix is factored once, at construction, into its
pivots: log det = sum log pivots.  A Toeplitz matrix (every diagonal
exactly constant, as for fractional Gaussian noise) is factored by the
Durbin-Levinson recursion on its first row in O(n^2) time and O(n)
memory; its pivots are the prediction-error variances.  fgn_covariance
builds its matrix from the lag vector alone: the entries are a read-only
O(n) view and no n x n array is ever formed.  Any other matrix goes
through a Cholesky factorization with diagonal pivoting in panels of 64
steps (LAPACK's dpstrf scheme): inside a panel each step pivots on the
largest remaining Schur-complement diagonal and builds its column from
the start-of-panel Schur complement minus the panel's own columns; at the
end of the panel the unchosen indices are gathered into a compact Schur
complement, updated by one BLAS-3 product.  O(n^3) flops, O(n^2) memory,
no row or column swaps.  The two routines share no code, so the tests
use the pivoted one as the reference for the recursion.

The symmetry bound is max |a_ij - a_ji| <= 1e-14 * max |a_ij| at every
scale.  The factorization gathers each Schur complement with `take`, row
panel then columns, each read in memory order.  det, log det and entropy
follow from the pivots once, at construction, and every function below
reads them.

Singularity is decided by rank alone.  A pivot at or below the relative
floor 1e-12 * max(a_ii) ends the factorization: the matrix is singular
(det 0, entropy -inf) if what remains is consistent with rank
deficiency, and NotPSDError is raised otherwise or for a pivot below
-1e-12 * max(a_ii).  A positive-definite matrix whose determinant
underflows or overflows is not singular; its entropy comes from the log
pivots.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (NotPSDError, ParameterError, SingularCovarianceError, as_integer,
                     as_iterable, as_real)

_PIVOT_REL_FLOOR = 1e-12
_SYM_TOL = 1e-14  # relative to max |a_ij|
_PANEL = 64  # pivoting steps per BLAS-3 update; at n = 256, 16-48 are slower, 96-128 no faster
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# the largest fGn size; checked before anything of size n is allocated
_MAX_FGN_N = 10**6


def _real_array(values, what: str) -> np.ndarray:
    """values as a new float array, or ParameterError unless every entry is a real number.

    An int or float ndarray is checked by its dtype alone.  Any other
    input (a list, an object array) is also checked entry by entry, as
    errors.as_real checks a scalar: numpy reads True among floats as 1.0
    and keeps an int past the float range as an object.
    """
    try:
        a = np.asarray(values)
        # bools, complex entries (which would lose their imaginary part) and strings
        if a.dtype.kind not in "iufO":
            raise TypeError(f"dtype {a.dtype}")
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} must be real numbers ({exc})") from None
    if not (isinstance(values, np.ndarray) and a.dtype.kind != "O"):
        for value in np.asarray(values, dtype=object).flat:
            as_real(value, what)
    return np.array(a, dtype=float)


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Symmetric positive-semidefinite matrix with strictly positive diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = _real_array(self.entries, "covariance entries")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ParameterError(f"covariance must be square with n >= 1, got shape {a.shape}")
        scale = max(float(a.max()), -float(a.min()))
        if not math.isfinite(scale):
            raise ParameterError(f"covariance entries must be finite, got max |a_ij| = {scale}")
        asym = np.subtract(a, a.T)
        max_asym = float(np.abs(asym, out=asym).max())
        del asym  # n^2 doubles that would otherwise live through the factorization
        if max_asym > _SYM_TOL * scale:
            raise ParameterError("covariance must be symmetric to 1e-14 * max |a_ij|")
        if max_asym > 0.0:  # exactly symmetric input keeps its entries
            a = 0.5 * (a + a.T)
        if np.any(np.diag(a) <= 0.0):
            raise ParameterError("covariance diagonal entries must be strictly positive")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        # _Factored (pivots, singular, det, log det, entropy), kept so each matrix is factored
        # and its pivots multiplied once; NotPSDError if not PSD.
        # a is exactly symmetric here (a[0, 1] == a[1, 0]): a[0, 0] == a[1, 1] is the O(1)
        # test that turns most non-Toeplitz matrices away before the full comparison
        toeplitz = len(a) == 1 or a[0, 0] == a[1, 1] and np.array_equal(a[1:, 1:], a[:-1, :-1])
        object.__setattr__(self, "_factor",
                           _factored(_levinson(a[0]) if toeplitz else _pivoted_factor(a)))

    @classmethod
    def _toeplitz(cls, r: np.ndarray) -> CovMatrix:
        """The symmetric Toeplitz covariance with first row r, from r alone.

        Symmetric and Toeplitz by construction, so finite lags and r_0 > 0
        cover every entry check of the public constructor.  The entries are
        a read-only sliding-window view over the 2n - 1 lags: O(n) memory.
        """
        if not (r[0] > 0.0 and np.all(np.isfinite(r))):
            raise ParameterError("Toeplitz lags must be finite with r_0 > 0")
        # row i is the window [r_i, ..., r_1, r_0, ..., r_{n-1-i}]
        lags = np.concatenate((r[:0:-1], r))
        lags.setflags(write=False)
        cov = cls.__new__(cls)
        object.__setattr__(cov, "entries",
                           np.lib.stride_tricks.sliding_window_view(lags, r.shape[0])[::-1])
        object.__setattr__(cov, "_factor", _factored(_levinson(r)))
        return cov

    @property
    def n(self) -> int:
        return self.entries.shape[0]


# bound at import: bench/spans.py rebinds the module's CovMatrix to a plain function
_toeplitz_cov = CovMatrix._toeplitz


class DetResult(NamedTuple):
    value: float
    singular: bool


def _pivoted_factor(a: np.ndarray):
    """Pivots of the diagonally pivoted Cholesky factorization of a.

    Panel-blocked, as in LAPACK's dpstrf.  The Schur-complement diagonal d
    is kept as a vector over the remaining indices.  Inside a panel of
    _PANEL steps, each step pivots on the largest d (ties go to the first
    remaining index in the original order), builds its column of L from
    the start-of-panel Schur complement s minus the panel's own columns
    (at most _PANEL terms), lowers d by the column's squares and marks the
    index done.  At the end of the panel the unchosen indices are gathered
    into a compact s (`take` along rows, then columns: each reads its
    source in memory order), and the panel's columns are subtracted from
    it in one BLAS-3 product.  No row or column is swapped.  d never
    increases, so the pivots come out non-increasing.

    Returns (pivots, singular).  The pivot list is in elimination order;
    a rank-deficient stop pads the remainder with zeros.
    """
    n = a.shape[0]
    d = np.array(np.diag(a), dtype=float)
    floor = _PIVOT_REL_FLOOR * float(np.max(d))
    pivots = np.zeros(n)
    s = a  # Schur complement at the start of the panel, over the remaining indices
    for k0 in range(0, n, _PANEL):
        m = s.shape[0]
        low = np.empty((min(_PANEL, m), m))  # row t: the panel's column t of L
        for t in range(low.shape[0]):
            p = int(d.argmax())
            piv = float(d[p])
            if piv < -floor:
                raise NotPSDError(
                    f"pivot {piv:.3e} < -{floor:.3e} at step {k0 + t}: matrix is not PSD")
            if piv <= floor:
                # PSD forces the remaining block s[rest, rest] - L L^T to vanish with its diagonal
                rest = np.flatnonzero(d > -math.inf)
                done = low[:t, rest]
                rem = s.take(rest, 0).take(rest, 1)
                rem -= done.T @ done
                if float(np.max(np.abs(rem))) > 1e4 * max(floor, 1e-300):
                    raise NotPSDError(
                        "tiny pivots but non-negligible remaining block: matrix is not PSD")
                return pivots, True
            pivots[k0 + t] = piv
            col = low[t]
            # np.dot gives @'s doubles (the same strided gemv) with less dispatch; a contiguous
            # copy of low[:t, p] would take another gemv kernel and change the last bits
            np.subtract(s[p], np.dot(low[:t, p], low[:t]), out=col)
            col /= math.sqrt(piv)
            d -= col * col
            d[p] = -math.inf  # done; -inf stays below every remaining d
        rest = np.flatnonzero(d > -math.inf)
        d, low = d[rest], low[:, rest]
        s = s.take(rest, 0)  # two statements: the old s is freed before the column gather
        s = s.take(rest, 1)
        s -= low.T @ low
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
    lags = r.tolist()
    for k in range(1, n):
        head = phi[:k - 1]
        kappa = (lags[k] - float(head @ r[k - 1:0:-1])) / v
        head -= kappa * head[::-1]
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
    return a._factor.pivots.copy()


def _exp(log_value: float) -> float:
    """exp, with inf in place of OverflowError past the float range."""
    return math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf


def _prod_and_log(factors: np.ndarray) -> tuple[float, float]:
    """(prod, sum of logs) of positive factors; no warning escapes.

    Where the running product over/underflows (perhaps only part-way) or
    goes subnormal and loses digits, the log route rounds once: to 0.0
    below e**-745 and to inf past the float range.
    """
    # the ufuncs' own reduces are np.sum and np.prod without their Python wrappers
    log_value = float(np.add.reduce(np.log(factors)))
    with np.errstate(over="ignore"):
        value = float(np.multiply.reduce(factors))
    if not sys.float_info.min <= value < math.inf:
        value = _exp(log_value)
    return value, log_value


class _Factored(NamedTuple):
    """A matrix's factorization and what follows from its pivots, computed once."""

    pivots: np.ndarray
    singular: bool
    det: float
    log_det: float  # -inf if singular
    entropy: float | None  # None if singular


def _factored(factor) -> _Factored:
    """(pivots, singular) with the determinant, its log and the Gaussian entropy."""
    pivots, singular = factor
    if singular:
        return _Factored(pivots, True, 0.0, -math.inf, None)
    det, log_det = _prod_and_log(pivots)
    n = pivots.shape[0]
    return _Factored(pivots, False, det, log_det,
                     0.5 * n * (1.0 + math.log(2.0 * math.pi)) + 0.5 * log_det)


def det_psd(a: CovMatrix) -> DetResult:
    """Determinant of a PSD covariance from its factorization pivots.

    The singular flag marks a rank-deficient matrix (det = 0, Gaussian
    entropy -inf).  A positive-definite matrix whose determinant
    underflows reports 0.0, and one whose determinant is past the float
    range reports inf, both with the flag clear; gaussian_entropy stays
    finite for both.
    """
    return DetResult(a._factor.det, a._factor.singular)


def gaussian_entropy(a: CovMatrix) -> float:
    """Shannon entropy of a centered Gaussian vector with covariance a.

    (n/2)(1 + log 2 pi) + (1/2) sum log pivots; raises
    SingularCovarianceError when the matrix is rank-deficient.
    """
    entropy = a._factor.entropy
    if entropy is None:
        raise SingularCovarianceError(
            "covariance determinant is 0; the entropy is -inf and not representable")
    return entropy


def hadamard_gap(a: CovMatrix) -> float:
    """prod(a_ii) - det(a); nonnegative up to rounding, 0.0 for diagonal matrices.

    Both products are taken like det_psd's.  Where prod(a_ii) is past the
    float range the gap is prod(a_ii) (1 - det / prod(a_ii)) from the log
    pivots, inf when it is past the range too: never NaN.
    """
    # a diagonal matrix pivots on its diagonal in descending order, so taking the
    # diagonal in that order makes both products (and both log sums) equal
    hadamard, log_hadamard = _prod_and_log(np.sort(np.diag(a.entries))[::-1])
    factor = a._factor
    if factor.singular:
        return hadamard
    if hadamard < math.inf:
        return hadamard - factor.det
    rel = -math.expm1(factor.log_det - log_hadamard)  # 1 - det / prod(a_ii)
    return 0.0 if rel == 0.0 else math.copysign(_exp(log_hadamard + math.log(abs(rel))), rel)


def _fgn_autocovariance(n: int, hurst: float) -> np.ndarray:
    """Lag-0..n-1 autocovariance of unit-variance fractional Gaussian noise."""
    n, hurst = as_integer(n, "n"), as_real(hurst, "hurst index")
    if n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n}")
    if n > _MAX_FGN_N:
        raise ParameterError(f"fGn size n = {n} exceeds the limit of {_MAX_FGN_N}")
    if not 0.0 <= hurst <= 1.0:
        raise ParameterError(f"hurst index must lie in [0, 1], got {hurst}")
    two_h = 2.0 * hurst
    # j**2H for j = 0..n, one pow each; np.power can differ from pow by an ulp.
    # 0**(2H) is 0 for every H > 0; keeping that at H = 0 is the continuity
    # convention that reproduces the independent-increment covariance of the
    # H = 0 noise (lag-1 correlation -1/2)
    pows = np.array([0.0] + [float(j) ** two_h for j in range(1, n + 1)])
    rho = np.empty(n)
    rho[0] = 1.0
    rho[1:] = 0.5 * (pows[2:] - 2.0 * pows[1:n] + pows[:n - 1])
    return rho


def fgn_covariance(n: int, hurst: float) -> CovMatrix:
    """Covariance of n successive fractional-Gaussian-noise increments.

    Unit diagonal, Toeplitz, lag-j covariance
    ((j+1)**2H - 2 j**2H + (j-1)**2H) / 2.  H = 1/2 yields the identity
    and H = 1 the all-ones matrix; both endpoints of [0, 1] are allowed.
    Built from the n lags alone: `entries` is a read-only view over the
    2n - 1 lags and the factorization is the Levinson recursion, so time
    is O(n^2) and memory O(n) (n = 10**4 takes well under a second).
    n above 10**6 raises ParameterError before anything is allocated.
    """
    return _toeplitz_cov(_fgn_autocovariance(n, hurst))


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
    for h in as_iterable(hurst_grid, "hurst_grid"):
        factor = fgn_covariance(n, h)._factor
        rows.append(FgnSweepRow(float(h), factor.det, factor.singular, factor.entropy))
    return rows


def rank1_extremal_vector(diag, signs) -> CovMatrix:
    """Covariance {s_i s_j sqrt(a_ii a_jj)} of (+-sqrt(a_ii) xi_0)_i.

    This is the degenerate Gaussian vector realizing the minimal
    determinant 0 (for n >= 2) with the prescribed variances; any sign
    combination gives the same determinant.
    """
    d = _real_array(diag, "variances")
    s = _real_array(signs, "signs")
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
