"""One input policy for every public numeric entry point.

Any real number is a valid real parameter, numpy scalars and Fractions
included, and is stored as a Python float; integer parameters take any
integer and store a Python int.  bool, strings, None, NaN, inf and ints
past the float range raise ParameterError.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from entrokit import (Binomial, ChiSquared, CovMatrix, EntropySpec, Exponential, Gamma,
                      Laplace, Logarithmic, LogNormal, NegBinomialConditional, Normal,
                      Poisson, Uniform, appendix_series_growth, binomial_to_poisson,
                      discrete_entropy_sum, entropy_estimate, fgn_covariance, fgn_det_sweep,
                      generalized_renyi1, generalized_renyi2, integral_p_alpha,
                      integral_p_alpha_log_p, lognormal_moment, nb_to_logarithmic, poisson_entropy,
                      poisson_entropy_derivative, rank1_extremal_vector, renyi, sharma_mittal,
                      tsallis)
from entrokit.errors import ParameterError
from entrokit.verification import oracle_equivalence

EXP = Exponential(1.0)


class Slot:
    """One numeric argument of an entry point.

    call(v) runs the entry point with v in the slot and returns something
    comparable; good is a valid value, whole a valid integer one (or None)
    and stored(result) the value the result keeps for the slot, if any.
    """

    def __init__(self, call, kind, good, whole=None, stored=None):
        self.call, self.kind, self.good, self.whole, self.stored = call, kind, good, whole, stored


def field(cls, args, i, whole=None):
    attr = cls.spec_fields[i][1]
    kind = cls.spec_fields[i][2]

    def call(v):
        return cls(*args[:i], v, *args[i + 1:])
    return Slot(call, kind, args[i], whole, stored=lambda d: getattr(d, attr))


def spec_slot(i):
    return Slot(lambda v: EntropySpec("gr2", *((2.0, 3.0)[:i] + (v,) + (2.0, 3.0)[i + 1:])),
                float, (2.0, 3.0)[i], (2, 3)[i],
                stored=lambda s: (s.alpha, s.beta)[i])


def table(t):
    return t.driver_name, t.rows


def entries(cov):
    return cov.entries.tolist()


SLOTS = {
    "Gamma.lam": field(Gamma, (1.5, 2.5), 0, 2),
    "Gamma.mu": field(Gamma, (1.5, 2.5), 1, 3),
    "Exponential.lam": field(Exponential, (2.0,), 0, 2),
    "ChiSquared.nu": field(ChiSquared, (3,), 0),
    "Laplace.mu": field(Laplace, (0.5, 2.0), 0, 1),
    "Laplace.lam": field(Laplace, (0.5, 2.0), 1, 2),
    "LogNormal.m": field(LogNormal, (0.5, 2.0), 0, 1),
    "LogNormal.sigma2": field(LogNormal, (0.5, 2.0), 1, 2),
    "Normal.mean": field(Normal, (0.5, 2.0), 0, 1),
    "Normal.sigma2": field(Normal, (0.5, 2.0), 1, 2),
    "Uniform.a": field(Uniform, (0.5, 5.0), 0, 1),
    "Uniform.b": field(Uniform, (0.5, 2.0), 1, 2),
    "Poisson.lam": field(Poisson, (3.0,), 0, 3),
    "Binomial.n": field(Binomial, (10, 0.25), 0),
    "Binomial.p": field(Binomial, (10, 0.25), 1),
    "NegBinomialConditional.p": field(NegBinomialConditional, (0.25, 0.25), 0),
    "NegBinomialConditional.r": field(NegBinomialConditional, (0.25, 0.25), 1, 2),
    "Logarithmic.p": field(Logarithmic, (0.5,), 0),
    "renyi.alpha": Slot(lambda v: renyi(v, EXP), float, 2.0, 2),
    "generalized_renyi1.alpha": Slot(lambda v: generalized_renyi1(v, EXP), float, 2.0, 2),
    "tsallis.alpha": Slot(lambda v: tsallis(v, EXP), float, 2.0, 2),
    "generalized_renyi2.alpha": Slot(lambda v: generalized_renyi2(v, 3.0, EXP), float, 2.0, 2),
    "generalized_renyi2.beta": Slot(lambda v: generalized_renyi2(2.0, v, EXP), float, 3.0, 3),
    "sharma_mittal.alpha": Slot(lambda v: sharma_mittal(v, 3.0, EXP), float, 2.0, 2),
    "sharma_mittal.beta": Slot(lambda v: sharma_mittal(2.0, v, EXP), float, 3.0, 3),
    "EntropySpec.alpha": spec_slot(0),
    "EntropySpec.beta": spec_slot(1),
    "entropy_estimate.alpha": Slot(lambda v: entropy_estimate(EXP, "renyi", v),
                                   float, 2.0, 2),
    "entropy_estimate.beta": Slot(lambda v: entropy_estimate(EXP, "gr2", 2.0, v),
                                  float, 3.0, 3),
    "integral_p_alpha.alpha": Slot(lambda v: integral_p_alpha(EXP, v), float, 2.0, 2),
    "integral_p_alpha_log_p.alpha": Slot(lambda v: integral_p_alpha_log_p(EXP, v),
                                         float, 2.0, 2),
    "discrete_entropy_sum.alpha": Slot(
        lambda v: discrete_entropy_sum(Poisson(3.0), "p_alpha", v), float, 2.0, 2),
    "poisson_entropy.lam": Slot(poisson_entropy, float, 3.0, 3),
    "poisson_entropy_derivative.lam": Slot(poisson_entropy_derivative, float, 3.0, 3),
    "appendix_series_growth.lam": Slot(lambda v: appendix_series_growth([v, 5.0]),
                                       float, 2.0, 2),
    "binomial_to_poisson.lam": Slot(lambda v: table(binomial_to_poisson(v, [10, 100])),
                                    float, 2.0, 2),
    "binomial_to_poisson.n": Slot(lambda v: table(binomial_to_poisson(2.0, [v, 100])),
                                  float, 10.0, 10),
    "binomial_to_poisson.perturb": Slot(
        lambda v: table(binomial_to_poisson(2.0, [10, 100], perturb=v)), float, 0.5, 1),
    "nb_to_logarithmic.p": Slot(lambda v: table(nb_to_logarithmic(v, [0.4, 0.1])), float, 0.5),
    "nb_to_logarithmic.r": Slot(lambda v: table(nb_to_logarithmic(0.5, [v, 0.1])), float, 0.25),
    "fgn_covariance.n": Slot(lambda v: fgn_covariance(v, 0.7).entries.tolist(), int, 4),
    "fgn_covariance.hurst": Slot(lambda v: fgn_covariance(4, v).entries.tolist(),
                                 float, 0.75, 1),
    "CovMatrix.diagonal": Slot(lambda v: entries(CovMatrix([[v, 0.5], [0.5, 2.0]])),
                               float, 1.5, 1, stored=lambda e: e[0][0]),
    "CovMatrix.off_diagonal": Slot(lambda v: entries(CovMatrix([[2.0, v], [v, 2.0]])),
                                   float, 0.5, 1, stored=lambda e: e[0][1]),
    "rank1_extremal_vector.diag": Slot(
        lambda v: entries(rank1_extremal_vector([v, 3.0], [1.0, -1.0])), float, 2.0, 2,
        stored=lambda e: e[0][0]),
    "rank1_extremal_vector.signs": Slot(
        lambda v: entries(rank1_extremal_vector([2.0, 3.0], [v, 1.0])), float, -1.0, -1),
    "fgn_det_sweep.n": Slot(lambda v: fgn_det_sweep(v, [0.3]), int, 4),
    "fgn_det_sweep.hurst": Slot(lambda v: fgn_det_sweep(4, [v]), float, 0.75, 1),
    "lognormal_moment.p": Slot(lambda v: lognormal_moment(v, 0.5, 2.0), float, 1.5, 2),
    "lognormal_moment.m": Slot(lambda v: lognormal_moment(1.5, v, 2.0), float, 0.5, 1),
    "lognormal_moment.sigma2": Slot(lambda v: lognormal_moment(1.5, 0.5, v), float, 2.0, 2),
    "oracle_equivalence.draws": Slot(
        lambda v: oracle_equivalence(("exp",), v, 7), int, 1),
    "oracle_equivalence.seed": Slot(
        lambda v: oracle_equivalence(("exp",), 1, v), int, 7),
}

BAD = {"true": True, "str": "1", "none": None, "nan": math.nan, "inf": math.inf,
       "huge_int": 10**400}


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("name", SLOTS)
def test_every_entry_point_rejects_non_numbers(name, bad):
    with pytest.raises(ParameterError):
        SLOTS[name].call(bad)


def accepted_values(slot):
    """(value, the equivalent Python number) pairs the slot must accept."""
    if slot.kind is int:
        return [(np.int64(slot.good), slot.good)]
    pairs = [(np.float32(slot.good), float(np.float32(slot.good))),
             (Fraction(slot.good), slot.good)]
    if slot.whole is not None:
        pairs.append((np.int64(slot.whole), float(slot.whole)))
    return pairs


@pytest.mark.parametrize("name", SLOTS)
def test_every_entry_point_takes_any_real_and_stores_a_python_number(name):
    slot = SLOTS[name]
    for value, plain in accepted_values(slot):
        got, want = slot.call(value), slot.call(plain)
        assert got == want, (value, got, want)
        if slot.stored is not None:
            assert type(slot.stored(got)) is slot.kind
            assert slot.stored(got) == plain


@pytest.mark.parametrize("n", [10**6 + 1, 10**300], ids=["just_above", "googol_cubed"])
@pytest.mark.parametrize("call", [lambda n: fgn_covariance(n, 0.7),
                                  lambda n: fgn_det_sweep(n, [0.7])],
                         ids=["fgn_covariance", "fgn_det_sweep"])
def test_fgn_size_above_the_limit_is_rejected_before_allocating(call, n):
    with pytest.raises(ParameterError, match=f"n = {n} exceeds the limit of 1000000"):
        call(n)


@pytest.mark.parametrize("call, name", [
    (lambda: appendix_series_growth(5.0), "lam_grid"),
    (lambda: binomial_to_poisson(2.0, 10), "n_grid"),
    (lambda: nb_to_logarithmic(0.5, 0.1), "r_grid"),
    (lambda: fgn_det_sweep(4, 0.3), "hurst_grid"),
], ids=["appendix_series_growth", "binomial_to_poisson", "nb_to_logarithmic",
        "fgn_det_sweep"])
def test_sequence_arguments_reject_a_non_iterable(call, name):
    """A number where a sequence belongs is a ParameterError naming the argument."""
    with pytest.raises(ParameterError, match=f"{name} must be an iterable of numbers"):
        call()
