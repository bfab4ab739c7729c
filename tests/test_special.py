import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entrokit import digamma, log_gamma, trigamma
from entrokit.errors import DomainError
from entrokit.special import (_DIGAMMA_COEF, _LGAMMA_COEF, _STIRLERR_TABLE, _TRIGAMMA_COEF,
                              _shifted_series, bd0, stirlerr)

EULER_GAMMA = 0.5772156649015328606
PI2_6 = math.pi**2 / 6.0


def scaled_err(got, want):
    return abs(got - want) / (1.0 + abs(want))


class TestPins:
    def test_log_gamma_at_integers(self):
        assert abs(log_gamma(1.0)) <= 1e-13
        assert abs(log_gamma(2.0)) <= 1e-13

    def test_log_gamma_exact_at_its_zeros(self):
        mp = pytest.importorskip("mpmath")
        assert mp.loggamma(1) == 0 and mp.loggamma(2) == 0
        assert log_gamma(1.0) == 0.0 and log_gamma(2.0) == 0.0
        got = log_gamma(np.array([0.5, 1.0, 1.5, 2.0, 12.0]))
        assert got[1] == 0.0 and got[3] == 0.0
        for x, value in zip([0.5, 1.5, 12.0], got[[0, 2, 4]]):
            assert scaled_err(value, float(mp.loggamma(x))) <= 1e-13

    def test_log_gamma_half(self):
        # Gamma(1/2) = sqrt(pi); value cross-checked by high-precision
        # quadrature of the defining integral
        assert scaled_err(log_gamma(0.5), 0.5 * math.log(math.pi)) <= 1e-13

    def test_digamma_one_and_two(self):
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-12
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) <= 1e-12

    def test_digamma_recurrence_at_7_5(self):
        assert abs(digamma(7.5) - (digamma(6.5) + 1.0 / 6.5)) <= 1e-12

    def test_trigamma_one_and_two(self):
        assert abs(trigamma(1.0) - PI2_6) <= 1e-12
        assert abs(trigamma(2.0) - (PI2_6 - 1.0)) <= 1e-12

    def test_trigamma_sandwich_at_3_7(self):
        x = 3.7
        assert 1.0 / x < trigamma(x) < 1.0 / x + 1.0 / x**2


def trigamma_series_oracle(z, n_terms=2_000_000):
    """Direct summation of sum 1/(z+n)^2 with an integral bracket on the tail.

    The tail lies between 1/(z+N) and 1/(z+N-1); the midpoint correction
    leaves an error below half the bracket width, about 1/(2 N^2).
    """
    n = np.arange(n_terms, dtype=float)
    s = float(np.sum(1.0 / ((z + n) ** 2)))
    lo, hi = 1.0 / (z + n_terms), 1.0 / (z + n_terms - 1.0)
    return s + 0.5 * (lo + hi), 0.5 * (hi - lo)


@pytest.mark.parametrize("z", [1.0, 2.0, 0.37, 5.25, 41.0])
def test_trigamma_against_series_summation(z):
    want, bracket = trigamma_series_oracle(z)
    assert abs(trigamma(z) - want) <= bracket + 1e-12


class TestRecurrences:
    def test_recurrences_hold_on_random_arguments(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1e-6, 100.0, size=10_000)
        assert np.max(np.abs(log_gamma(x + 1.0) - log_gamma(x) - np.log(x))
                      / (1.0 + np.abs(log_gamma(x)))) <= 1e-12
        assert np.max(np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
                      / (1.0 + np.abs(digamma(x)))) <= 1e-12
        assert np.max(np.abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / x**2)
                      / (1.0 + np.abs(trigamma(x)))) <= 1e-12

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_digamma_recurrence_property(self, x):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-10 * (1 + abs(digamma(x)))


class TestBounds:
    def test_trigamma_sandwich_everywhere(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(1e-6, 100.0, 5000), 10 ** rng.uniform(-6, 6, 5000)])
        t = trigamma(x)
        assert np.all(t > 1.0 / x)
        assert np.all(t < 1.0 / x + 1.0 / x**2)

    def test_digamma_below_log(self):
        rng = np.random.default_rng(12)
        x = 10 ** rng.uniform(-6, 6, 10_000)
        assert np.all(digamma(x) < np.log(x))

    def test_monotonicity(self):
        x = np.geomspace(1e-4, 1e4, 400)
        assert np.all(np.diff(digamma(x)) > 0)
        assert np.all(np.diff(trigamma(x)) < 0)


class TestAccuracyRange:
    def test_scaled_accuracy_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(3)
        xs = np.concatenate([10 ** rng.uniform(-6, 6, 200), [1e-6, 1.0, 2.0, 10.0, 1e6]])
        for x in xs:
            x = float(x)
            assert scaled_err(log_gamma(x), float(mp.loggamma(x))) <= 1e-13
            assert scaled_err(digamma(x), float(mp.digamma(x))) <= 1e-12
            assert scaled_err(trigamma(x), float(mp.polygamma(1, x))) <= 1e-12


class TestCallContract:
    """A scalar in gives a Python float; an array-like in gives an array of its shape."""

    @pytest.mark.parametrize("x", [2.5, 3, np.float64(2.5), np.array(2.5)],
                             ids=["float", "int", "float64", "0-d"])
    @pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
    def test_scalar_gives_float(self, fn, x):
        got = fn(x)
        assert type(got) is float
        assert got == fn(float(x))

    @pytest.mark.parametrize("x", [[0.5, 1.0, 2.0, 12.0], np.array([]), np.empty((0, 3)),
                                   np.array([[0.5, 1.0, 3.0], [2.0, 9.99, 1e6]]),
                                   np.geomspace(1e-3, 1e3, 24).reshape(2, 3, 4)],
                             ids=["list", "empty", "empty 2-d", "2-d", "3-d"])
    @pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
    def test_array_keeps_shape_and_scalar_values(self, fn, x):
        got = fn(x)
        want = np.asarray(x, dtype=float)
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert [v.hex() for v in got.ravel().tolist()] == [
            fn(v).hex() for v in want.ravel().tolist()]


def recurrence_reference(x, coef, finish, step, zeros=()):
    """The kernel as a masked loop: shift every x < 10 up by 1 until all are >= 10, sum the
    series there, then take the shifts back out one step at a time, first shift first."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    z = arr.copy()
    shifts = []
    while np.any(z < 10.0):
        mask = z < 10.0
        shifts.append((mask, z[mask].copy()))
        z[mask] += 1.0
    rz2 = 1.0 / (z * z)
    series = np.zeros_like(z)
    for c in reversed(coef):
        series = (series + c) * rz2
    out = finish(z, rz2, series)
    for mask, vals in shifts:
        out[mask] -= step(vals)
    for root in zeros:
        out[arr == root] = 0.0
    return out


class TestKernelMatchesRecurrence:
    """log_gamma, digamma and trigamma give the masked recurrence's doubles, bit for bit.

    The kernel walks only the arguments below 10, in one block, so this also fails where
    numpy's log or division rounds differently between array layouts.
    """

    @pytest.fixture(autouse=True)
    def spy(self, monkeypatch):
        calls = []

        def spied(x, coef, finish, step, zeros=()):
            calls.append((coef, finish, step, zeros))
            return _shifted_series(x, coef, finish, step, zeros)

        monkeypatch.setattr("entrokit.special._shifted_series", spied)
        self.calls = calls

    def check(self, x):
        for fn in (log_gamma, digamma, trigamma):
            got = fn(x)
            assert np.shape(got) == np.shape(x)
            with np.errstate(over="ignore", divide="ignore"):
                want = recurrence_reference(x, *self.calls[-1]).reshape(np.shape(x))
            assert np.array_equal(np.asarray(got).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("x", [1.0, 2.0, 10.0, float(np.nextafter(10.0, 0.0)), 5e-324,
                                   1e-8, 0.37, 2.2, 9.5, 12.0, 1e7, 1e308])
    def test_scalars(self, x):
        self.check(x)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_log_uniform_draws(self, seed):
        x = 10 ** np.random.default_rng(seed).uniform(-8, 7, 20_000)
        self.check(np.concatenate([x, [1.0, 2.0, 10.0, np.nextafter(10.0, 0.0), 5e-324]]))

    def test_shapes(self):
        rng = np.random.default_rng(2)
        r = 10 ** rng.uniform(-8, 1, 300)
        # NBcond's log-pmf stacks k + r and the index row into one (2, n) call
        self.check(np.stack([np.arange(300.0) + r, np.arange(1.0, 301.0)]))
        self.check(10 ** rng.uniform(-8, 7, (3, 4, 5)))
        self.check(np.array([]))
        self.check(np.empty((0, 3)))


class TestNoWarnings:
    """The kernel's 1/x and z*z overflow at the ends of the float range without a warning;
    pytest's filterwarnings = error turns a leak into a failure."""

    @pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-309])
    def test_tiny_end(self, x):
        assert log_gamma(x) == pytest.approx(-math.log(x), rel=1e-15)
        assert digamma(x) == -math.inf
        assert trigamma(x) == math.inf

    @pytest.mark.parametrize("x", [1e200, 1e308, 1.7e308])
    def test_huge_end(self, x):
        # (x - 1/2) log x - x overflows from about 2.6e305
        assert log_gamma(x) == pytest.approx(x * (math.log(x) - 1.0), rel=1e-12)
        assert digamma(x) == pytest.approx(math.log(x), rel=1e-15)
        assert trigamma(x) == pytest.approx(1.0 / x, rel=1e-15)

    def test_arrays_at_both_ends(self):
        got = digamma(np.array([5e-324, 1.0, 1e308]))
        assert got[0] == -math.inf and np.isfinite(got[1:]).all()


class TestBernoulliTable:
    """The coefficient tuples are B_2k / (2k (2k-1)), B_2k / (2k) and B_2k, correctly rounded."""

    def test_against_mpmath_bernoulli(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            b = [mp.bernoulli(2 * k) for k in range(1, 9)]
            assert _LGAMMA_COEF == tuple(
                float(b[k - 1] / (2 * k * (2 * k - 1))) for k in range(1, 9))
            assert _DIGAMMA_COEF == tuple(float(b[k - 1] / (2 * k)) for k in range(1, 8))
            assert _TRIGAMMA_COEF == tuple(float(b[k - 1]) for k in range(1, 8))


class TestLoaderKernels:
    """stirlerr and bd0, the pieces of the Poisson and Binomial log-pmfs."""

    @staticmethod
    def mp_stirlerr(mp, k):
        return mp.loggamma(k + 1) - ((k + mp.mpf(1) / 2) * mp.log(k) - k + mp.log(2 * mp.pi) / 2)

    def test_stirlerr_table_is_correctly_rounded(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            assert [float(self.mp_stirlerr(mp, k)) for k in range(1, 16)] == list(
                _STIRLERR_TABLE[1:])

    def test_stirlerr_series_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        # every cut of the series sits between two of these k
        ks = np.array([*range(1, 40), 58, 59, 179, 180, 1513, 1514, 302853, 302854, 1e8, 1e12])
        with mp.workdps(60):
            for k, got in zip(ks, stirlerr(ks)):
                want = self.mp_stirlerr(mp, int(k))
                assert abs(got - want) <= 3 * 2.0**-53 * want
        assert stirlerr(7) == stirlerr(np.array([7.0]))[0] == _STIRLERR_TABLE[7]

    def test_empty_arrays(self):
        for got in (stirlerr(np.array([])), bd0(np.array([]), 3.0)):
            assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("m", [1e-8, 0.3, 7.5, 1000.0, 12345.678, 1e10])
    def test_bd0_against_mpmath(self, m):
        mp = pytest.importorskip("mpmath")
        near = np.round(m + np.sqrt(m) * np.linspace(-20.0, 20.0, 81))
        x = np.unique(np.clip(np.concatenate([near, np.linspace(1.0, 3.0 * m + 5.0, 81).round()]),
                              1.0, None))
        with mp.workdps(40):
            for xi, got in zip(x, bd0(x, m)):
                xm, mm = mp.mpf(int(xi)), mp.mpf(m)
                want = xm * mp.log(xm / mm) + mm - xm
                # series: a few ulp of bd0; log1p branch: about u (bd0 + |x - m|)
                scale = want if abs(xi - m) < 0.1 * (xi + m) else want + abs(xm - mm)
                assert abs(got - want) <= 4 * 2.0**-53 * scale


class TestDomain:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
    def test_rejects_nonpositive(self, fn, bad):
        with pytest.raises(DomainError):
            fn(bad)

    def test_rejects_bad_array_element(self):
        with pytest.raises(DomainError):
            digamma(np.array([1.0, -2.0]))
