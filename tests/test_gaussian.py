import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from entrokit import gaussian
from entrokit import (CovMatrix, cholesky_pivots, det_psd, fgn_covariance,
                      fgn_det_sweep, gaussian_entropy, hadamard_gap,
                      rank1_extremal_vector, shannon, Normal)
from entrokit.errors import (NotPSDError, ParameterError,
                             SingularCovarianceError)


def cofactor_det(m):
    """Brute-force determinant by permutation expansion (n <= 5 test oracle)."""
    n = m.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        seen = list(perm)
        for i in range(n):  # parity via cycle counting
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        total += sign * math.prod(m[i, perm[i]] for i in range(n))
    return total


def random_psd(rng, n):
    b = rng.normal(size=(n, n))
    return b.T @ b + 1e-3 * np.eye(n)


class TestCovMatrix:
    def test_validation(self):
        with pytest.raises(ParameterError):
            CovMatrix(np.zeros((2, 3)))
        with pytest.raises(ParameterError):
            CovMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ParameterError):
            CovMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_not_psd_rejected_at_construction(self):
        with pytest.raises(NotPSDError):
            CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_within_tolerance_asymmetry_is_symmetrized(self):
        a = CovMatrix(np.array([[2.0, 1.0 + 4e-15], [1.0, 2.0]]))
        assert a.entries[0, 1] == a.entries[1, 0] == 0.5 * ((1.0 + 4e-15) + 1.0)

    def test_symmetric_entries_kept_bit_for_bit(self, rng):
        for m in (random_psd(rng, 6), fgn_covariance(50, 0.7).entries,
                  rank1_extremal_vector([1.0, 2.0, 3.0], [1, -1, 1]).entries,
                  np.diag([1e308, 0.5e308])):  # 0.5 * (a + a.T) would overflow here
            assert np.array_equal(CovMatrix(np.array(m)).entries, m)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            CovMatrix(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ParameterError, match="finite"):
            CovMatrix(np.diag([bad, 1.0]))

    def test_string_entries_rejected(self):
        for entries in ([["a", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]):
            with pytest.raises(ParameterError, match="real numbers"):
                CovMatrix(entries)

    def test_complex_entries_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning from a silent cast
            for entries in (np.array([[1.0, 0.5j], [-0.5j, 1.0]]), [[1.0 + 0j, 0.0], [0.0, 1.0]]):
                with pytest.raises(ParameterError, match="real numbers"):
                    CovMatrix(entries)

    def test_entries_read_only(self):
        a = CovMatrix(np.eye(2))
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200, 256])
    def test_toeplitz_pre_test_keeps_path_and_pivots(self, rng, n, monkeypatch):
        """Each matrix takes the path the full Toeplitz comparison picks, with the same
        pivots, whether or not its first two diagonal entries are equal."""
        r = gaussian._fgn_autocovariance(n, 0.7)
        general = random_psd(rng, n)
        unit = general / np.sqrt(np.outer(np.diag(general), np.diag(general)))  # a_ii all 1
        skewed = general + np.triu(rng.uniform(0.0, 1e-15, (n, n)), 1)  # symmetrized
        scales = np.sqrt(rng.uniform(0.5, 2.0, n))
        paths = []
        for name in ("_levinson", "_pivoted_factor"):
            real = getattr(gaussian, name)
            monkeypatch.setattr(gaussian, name, lambda a, real=real, name=name:
                                paths.append(name) or real(a))
        for a in (toeplitz(r), toeplitz(r) * np.outer(scales, scales), general, unit, skewed):
            sym = a if np.array_equal(a, a.T) else 0.5 * (a + a.T)
            is_toeplitz = np.array_equal(sym[1:, 1:], sym[:-1, :-1])
            want = gaussian._levinson(sym[0]) if is_toeplitz else gaussian._pivoted_factor(sym)
            paths.clear()
            got = CovMatrix(a)._factor
            assert paths == ["_levinson" if is_toeplitz else "_pivoted_factor"]
            assert got[1] == want[1]
            assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()


class TestDetPsd:
    def test_identity(self):
        assert det_psd(CovMatrix(np.eye(5))) == (1.0, False)

    def test_diagonal(self):
        res = det_psd(CovMatrix(np.diag([2.0, 3.0, 5.0])))
        assert res.value == pytest.approx(30.0, rel=1e-13)
        assert not res.singular

    def test_rank_one_is_flagged_zero(self):
        a = rank1_extremal_vector([1.0, 4.0, 9.0], [1, 1, 1])
        res = det_psd(a)
        assert res.value == 0.0 and res.singular

    def test_brute_force_equivalence(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            a = random_psd(rng, n)
            want = cofactor_det(a)
            got = det_psd(CovMatrix(a)).value
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_determinant_past_float_range(self):
        # det = 1e400: inf with the flag clear, the entropy from the log pivots
        a = CovMatrix(np.diag([10.0] * 400))
        assert det_psd(a) == (math.inf, False)
        assert gaussian_entropy(a) == pytest.approx(
            200.0 * (1.0 + math.log(2.0 * math.pi)) + 200.0 * math.log(10.0), rel=1e-14)
        # the running product overflows part-way, and no RuntimeWarning escapes
        a = CovMatrix(np.diag([10.0] * 310 + [2e-11] * 30))
        assert det_psd(a) == (pytest.approx(2.0**30 * 1e-20, rel=1e-12), False)


class TestGaussianEntropy:
    def test_scalar_matches_normal_formula(self):
        assert gaussian_entropy(CovMatrix(np.array([[1.0]]))) == pytest.approx(
            0.5 * (1.0 + math.log(2.0 * math.pi)), abs=1e-13)

    def test_identity_three(self):
        assert gaussian_entropy(CovMatrix(np.eye(3))) == pytest.approx(
            1.5 * (1.0 + math.log(2.0 * math.pi)), abs=1e-13)

    def test_singular_raises(self):
        a = rank1_extremal_vector([1.0, 2.0], [1, -1])
        with pytest.raises(SingularCovarianceError):
            gaussian_entropy(a)

    def test_diagonal_decomposes_into_scalar_entropies(self):
        diag = [0.3, 1.0, 2.5, 7.0]
        total = gaussian_entropy(CovMatrix(np.diag(diag)))
        parts = sum(shannon(Normal(0.0, v)) for v in diag)
        assert total == pytest.approx(parts, abs=1e-11)


class TestHadamard:
    def test_diagonal_gap_zero(self):
        # at any scale: det subnormal, past the float range, or its product overflowing part-way
        for diag in ([2.0, 3.0], [8.6, 5.5, 3.1, 4.3], [0.1] * 320, [10.0] * 400,
                     [10.0] * 310 + [2e-11] * 30):
            assert hadamard_gap(CovMatrix(np.diag(diag))) == 0.0

    def test_gap_past_float_range(self):
        # prod(a_ii) = 1e400 and det past the range or 0: the gap is inf, not NaN
        sd = np.full(400, math.sqrt(10.0))
        rescaled = CovMatrix(sd[:, None] * fgn_covariance(400, 0.7).entries * sd[None, :])
        assert det_psd(rescaled) == (math.inf, False)
        assert hadamard_gap(rescaled) == math.inf
        assert hadamard_gap(rank1_extremal_vector([10.0] * 400, [1] * 400)) == math.inf

    def test_rank_one_gap_is_full_product(self):
        a = rank1_extremal_vector([1.0, 4.0, 9.0], [1, 1, 1])
        assert hadamard_gap(a) == pytest.approx(36.0, rel=1e-12)

    def test_random_psd_gap_positive(self, rng):
        for _ in range(300):
            a = random_psd(rng, int(rng.integers(2, 6)))
            gap = hadamard_gap(CovMatrix(a))
            scale = float(np.prod(np.diag(a)))
            assert gap >= -1e-10 * scale
            if np.max(np.abs(a - np.diag(np.diag(a)))) > 1e-6:
                assert gap > 0.0


class TestFgn:
    def test_half_is_identity(self):
        assert np.array_equal(fgn_covariance(4, 0.5).entries, np.eye(4))

    def test_one_is_all_ones(self):
        assert np.array_equal(fgn_covariance(4, 1.0).entries, np.ones((4, 4)))

    def test_lag_one_at_07(self):
        want = 0.5 * (2.0**1.4 - 2.0)
        assert fgn_covariance(2, 0.7).entries[0, 1] == pytest.approx(want, rel=1e-14)

    def test_h_zero_covariance_table(self):
        a = fgn_covariance(4, 0.0).entries
        assert np.all(np.diag(a) == 1.0)
        assert a[0, 1] == -0.5
        assert a[0, 2] == 0.0 and a[0, 3] == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            fgn_covariance(0, 0.5)
        with pytest.raises(ParameterError):
            fgn_covariance(3, 1.5)
        for grid in (0.5, None, "0.5", np.float64(0.5)):
            with pytest.raises(ParameterError, match="hurst_grid"):
                fgn_det_sweep(3, grid)

    def test_numpy_scalar_arguments(self):
        want = fgn_det_sweep(8, [0.3, 0.5])
        assert fgn_det_sweep(np.int64(8), [0.3, 0.5]) == want
        assert fgn_det_sweep(np.uint8(8), [np.float64(0.3), np.float32(0.5)]) == want
        assert np.array_equal(fgn_covariance(np.int32(5), np.float32(0.5)).entries, np.eye(5))
        assert np.array_equal(fgn_covariance(np.int64(5), np.float32(0.25)).entries,
                              fgn_covariance(5, float(np.float32(0.25))).entries)

    @pytest.mark.parametrize("n, h", [(True, 0.5), (False, 0.5), (2.0, 0.5), (np.int64(0), 0.5),
                                      (3, np.float32(1.5)), (3, float("nan")), (3, "0.5"),
                                      (3, True), (3, False)])
    def test_bad_arguments_are_parameter_errors(self, n, h):
        with pytest.raises(ParameterError):
            fgn_covariance(n, h)
        with pytest.raises(ParameterError):
            fgn_det_sweep(n, [h])

    def test_nondegenerate_inside_open_interval(self):
        # positive definiteness checked through the factorization pivots,
        # which stay meaningful even when det underflows the report floor
        for h in np.linspace(0.01, 0.99, 99):
            pivots = cholesky_pivots(fgn_covariance(50, float(h)))
            assert np.all(pivots > 0.0)

    def test_sweep_endpoints_and_range(self):
        rows = fgn_det_sweep(5, list(np.linspace(0.1, 0.9, 9)) + [1.0])
        by_h = {round(r.hurst, 3): r for r in rows}
        assert by_h[0.5].det == pytest.approx(1.0, abs=1e-12)
        assert by_h[1.0].det == 0.0 and by_h[1.0].singular
        assert by_h[1.0].entropy is None
        assert all(0.0 <= r.det <= 1.0 + 1e-12 for r in rows)
        assert max(r.det for r in rows) == by_h[0.5].det


class TestRank1Extremal:
    def test_two_by_two_signs(self):
        a = rank1_extremal_vector([1.0, 1.0], [1, -1])
        assert np.array_equal(a.entries, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert det_psd(a) == (0.0, True)

    def test_case_two_matrix(self):
        a = rank1_extremal_vector([4.0, 9.0, 25.0], [1, 1, 1])
        assert np.array_equal(np.diag(a.entries), np.array([4.0, 9.0, 25.0]))
        assert a.entries[0, 1] == pytest.approx(6.0, rel=1e-15)
        assert det_psd(a).value == 0.0

    def test_single_component(self):
        a = rank1_extremal_vector([3.0], [-1])
        assert det_psd(a) == (3.0, False)

    def test_validation(self):
        with pytest.raises(ParameterError):
            rank1_extremal_vector([1.0, 2.0], [1])
        with pytest.raises(ParameterError):
            rank1_extremal_vector([1.0, -2.0], [1, 1])
        with pytest.raises(ParameterError):
            rank1_extremal_vector([1.0, 2.0], [1, 2])
        # real numbers only, signs not bool: CovMatrix's rule
        for diag, signs in ((["1", "4"], [1, -1]), ([1.0, 4.0], ["1", "-1"]),
                            ([1.0, 4.0], [True, True]), ([1.0 + 0j, 4.0], [1, -1])):
            with pytest.raises(ParameterError):
                rank1_extremal_vector(diag, signs)


def test_each_matrix_is_factored_once(monkeypatch):
    from entrokit import gaussian

    calls = []
    for name in ("_pivoted_factor", "_levinson"):
        factor = getattr(gaussian, name)
        monkeypatch.setattr(gaussian, name, lambda a, factor=factor: calls.append(1) or factor(a))
    fgn_det_sweep(6, [0.2, 0.5, 0.8, 1.0])
    assert len(calls) == 4
    a = fgn_covariance(6, 0.7)
    before = det_psd(a)
    pivots = cholesky_pivots(a)
    pivots[:] = 0.0  # a copy: the kept factorization is unaffected
    gaussian_entropy(a)
    hadamard_gap(a)
    assert det_psd(a) == before
    assert len(calls) == 5


def toeplitz(r):
    r = np.asarray(r, dtype=float)
    n = r.size
    return r[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]


class TestRankOnlySingularity:
    """Positive-definite matrices with a tiny determinant are not singular."""

    @pytest.mark.parametrize("h, n", [(0.9, 50), (0.7, 400), (0.99, 20), (0.0, 64)])
    def test_fgn_positive_definite(self, h, n):
        a = fgn_covariance(n, h)
        assert det_psd(a).singular is False
        assert math.isfinite(gaussian_entropy(a))

    def test_rescaled_fgn_positive_definite(self, rng):
        sd = np.sqrt(10.0 ** rng.uniform(-1.0, 1.0, 50))
        a = CovMatrix(sd[:, None] * fgn_covariance(50, 0.9).entries * sd[None, :])
        assert not np.array_equal(a.entries[1:, 1:], a.entries[:-1, :-1])
        assert det_psd(a).singular is False
        assert math.isfinite(gaussian_entropy(a))

    def test_h_zero_entropy_matches_exact_det(self):
        n = 64  # det = (n + 1) / 2**n
        want = 0.5 * n * (1.0 + math.log(2.0 * math.pi)) + 0.5 * (math.log(n + 1.0) - n * math.log(2.0))
        assert gaussian_entropy(fgn_covariance(n, 0.0)) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [1050, 1100])
    def test_underflowing_det_is_rounded_once(self, n):
        # H = 0: det = (n + 1) / 2**n, subnormal at n = 1050 and 0.0 at n = 1100; a
        # running product of the pivots would stop at the smallest subnormal
        row = fgn_det_sweep(n, [0.0])[0]
        assert row.singular is False
        assert row.det == pytest.approx((n + 1) / 2**n, rel=1e-9, abs=0.0)
        assert row.entropy == pytest.approx(
            0.5 * n * (1.0 + math.log(2.0 * math.pi)) + 0.5 * (math.log(n + 1.0) - n * math.log(2.0)),
            rel=1e-13)

    def test_h_one_still_singular(self):
        for n in (2, 5, 64):
            a = fgn_covariance(n, 1.0)
            assert det_psd(a) == (0.0, True)
            with pytest.raises(SingularCovarianceError):
                gaussian_entropy(a)
        row = fgn_det_sweep(64, [1.0])[0]
        assert row.singular and row.det == 0.0 and row.entropy is None


class TestLevinsonAgainstPivoted:
    """The Toeplitz recursion against the pivoted factorization, which shares no code."""

    @staticmethod
    def both(r):
        return gaussian._levinson(np.asarray(r, dtype=float)), gaussian._pivoted_factor(toeplitz(r))

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200, 500])
    @pytest.mark.parametrize("h", [0.0, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999])
    def test_fgn_log_det(self, n, h):
        (lev, lev_singular), (piv, piv_singular) = self.both(gaussian._fgn_autocovariance(n, h))
        assert lev_singular is False and piv_singular is False
        want = float(np.sum(np.log(piv)))
        assert abs(float(np.sum(np.log(lev))) - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("phi", [0.9, 0.999])
    def test_ar1_log_det(self, phi):
        (lev, lev_singular), (piv, piv_singular) = self.both(phi ** np.arange(300.0))
        assert lev_singular is False and piv_singular is False
        want = float(np.sum(np.log(piv)))
        assert abs(float(np.sum(np.log(lev))) - want) <= 1e-12 * (1.0 + abs(want))
        # AR(1): every prediction error past the first is 1 - phi**2
        assert lev[1:] == pytest.approx(1.0 - phi**2, rel=1e-12)

    def test_rank_two_cosine_is_singular_on_both(self):
        (lev, lev_singular), (piv, piv_singular) = self.both(np.cos(0.7 * np.arange(40.0)))
        assert lev_singular is True and piv_singular is True
        assert np.count_nonzero(lev) == 2 and np.count_nonzero(piv) == 2
        assert det_psd(CovMatrix(toeplitz(np.cos(0.7 * np.arange(40.0))))) == (0.0, True)

    def test_indefinite_row_raises_on_both(self):
        r = np.array([1.0, 0.9, -0.9])
        with pytest.raises(NotPSDError):
            gaussian._levinson(r)
        with pytest.raises(NotPSDError):
            gaussian._pivoted_factor(toeplitz(r))
        with pytest.raises(NotPSDError):
            CovMatrix(toeplitz(r))

    def test_tiny_error_with_unreproduced_row_raises(self):
        # order-1 predictor is exact (r_1 = r_0) but r_2 breaks it: not PSD
        with pytest.raises(NotPSDError):
            gaussian._levinson(np.array([1.0, 1.0, 0.5]))
        with pytest.raises(NotPSDError):
            gaussian._pivoted_factor(toeplitz([1.0, 1.0, 0.5]))

    def test_covmatrix_picks_levinson_for_toeplitz_only(self, monkeypatch):
        calls = []
        for name in ("_pivoted_factor", "_levinson"):
            factor = getattr(gaussian, name)
            monkeypatch.setattr(gaussian, name,
                                lambda a, name=name, factor=factor: calls.append(name) or factor(a))
        fgn_covariance(8, 0.7)
        CovMatrix(np.diag([1.0, 2.0, 3.0]))
        assert calls == ["_levinson", "_pivoted_factor"]

    def test_sweep_matches_matrix_path(self):
        grid = [0.0, 0.2, 0.5, 0.8, 0.95, 1.0]
        for row, h in zip(fgn_det_sweep(30, grid), grid):
            a = fgn_covariance(30, h)
            det = det_psd(a)
            assert (row.det, row.singular) == (det.value, det.singular)
            assert row.entropy == (None if det.singular else gaussian_entropy(a))

    def test_large_sweep_builds_no_matrix(self):
        tracemalloc.start()
        try:
            rows = fgn_det_sweep(4000, [0.3, 0.7, 1.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20  # the dense 4000 x 4000 matrix alone is 128 MB
        assert [r.singular for r in rows] == [False, False, True]
        assert all(math.isfinite(r.entropy) for r in rows[:2])

    def test_fgn_covariance_is_built_from_its_lags(self):
        tracemalloc.start()
        try:
            a = fgn_covariance(2000, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the dense 2000 x 2000 matrix alone is 32 MB
        assert np.array_equal(a.entries, toeplitz(gaussian._fgn_autocovariance(2000, 0.7)))
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0
        row = fgn_det_sweep(2000, [0.7])[0]
        assert (det_psd(a), gaussian_entropy(a)) == ((row.det, row.singular), row.entropy)


def rescaled_fgn(rng, n, h):
    """D^1/2 R D^1/2: fGn correlations with unequal variances, not Toeplitz."""
    sd = np.sqrt(10.0 ** rng.uniform(-1.0, 1.0, n))
    m = sd[:, None] * fgn_covariance(n, h).entries * sd[None, :]
    return 0.5 * (m + m.T)


class TestPivotedFactor:
    """The general (non-Toeplitz) path against LAPACK's LU log determinant."""

    @staticmethod
    def assert_log_det_matches_slogdet(m):
        pivots, singular = gaussian._pivoted_factor(m)
        sign, want = np.linalg.slogdet(m)
        assert singular is False and sign == 1.0
        got = float(np.sum(np.log(pivots)))
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 63, 64, 65, 100, 129, 300])
    def test_random_spd_log_det(self, rng, n):
        self.assert_log_det_matches_slogdet(random_psd(rng, n))

    @pytest.mark.parametrize("n", [256, 1000])
    @pytest.mark.parametrize("h", [0.0, 0.5, 0.9, 0.99])
    def test_rescaled_fgn_log_det(self, rng, n, h):
        self.assert_log_det_matches_slogdet(rescaled_fgn(rng, n, h))

    def test_pivots_non_increasing(self, rng):
        # the Schur-complement diagonal only ever decreases, so this holds exactly
        for m in (random_psd(rng, 40), rescaled_fgn(rng, 120, 0.8), np.diag([1.0, 3.0, 2.0, 3.0])):
            pivots = cholesky_pivots(CovMatrix(m))
            assert np.all(np.diff(pivots) <= 0.0)
        assert np.array_equal(cholesky_pivots(CovMatrix(np.diag([1.0, 3.0, 2.0, 3.0]))),
                              [3.0, 3.0, 2.0, 1.0])

    def test_rank_deficient_is_singular_with_rank_pivots(self, rng):
        # ranks on both sides of the 64-step panel edges
        for n, rank in ((60, 7), (100, 63), (100, 64), (100, 65), (200, 128), (200, 129)):
            b = rng.normal(size=(n, rank))
            m = b @ b.T
            m = 0.5 * (m + m.T)
            a = CovMatrix(m)
            assert not np.array_equal(a.entries[1:, 1:], a.entries[:-1, :-1])
            pivots, singular = gaussian._pivoted_factor(a.entries)
            assert singular is True and np.count_nonzero(pivots) == rank
            assert det_psd(a) == (0.0, True)

    def test_negative_pivot_raises(self):
        # the second matrix is a 70 x 70 SPD block (pivots >= 1/3) beside the indefinite
        # [[s, 2s], [2s, s]], s = 1e-3: its negative pivot comes at step 71, in the second panel
        second_panel = np.zeros((72, 72))
        second_panel[:70, :70] = toeplitz(0.5 ** np.arange(70.0))
        second_panel[70:, 70:] = [[1e-3, 2e-3], [2e-3, 1e-3]]
        for m in (np.array([[2.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.5]]), second_panel):
            with pytest.raises(NotPSDError, match="pivot"):
                gaussian._pivoted_factor(m)
            with pytest.raises(NotPSDError):
                CovMatrix(m)

    def test_tiny_pivot_with_remaining_block_raises(self):
        # step 0 leaves a zero diagonal but off-diagonal 0.3 - 0.5 = -0.2
        m = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.3], [0.5, 0.3, 0.25]])
        with pytest.raises(NotPSDError, match="remaining block"):
            gaussian._pivoted_factor(m)
        with pytest.raises(NotPSDError):
            CovMatrix(m)
