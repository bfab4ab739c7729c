"""Closed-form entropy measures for common distributions, with numerical verification.

The toolkit computes Shannon, Renyi, generalized Renyi (one- and
two-parameter), Tsallis, Sharma-Mittal and modified Shannon entropies
plus the Kullback-Leibler divergence in closed form, and ships the
independent quadrature/series oracles used to validate every formula.
"""

from .closed_form import (DensityBound, EntropySpec, density_sup, evaluate,
                          generalized_renyi1, generalized_renyi2, kl_divergence,
                          lognormal_moment, modified_shannon, renyi, shannon,
                          sharma_mittal, tsallis)
from .distributions import (Binomial, ChiSquared, Distribution, Exponential, Gamma,
                            Laplace, Logarithmic, LogNormal, NegBinomialConditional,
                            Normal, Poisson, Uniform, format_spec, logpdf, logpmf,
                            parse_spec, pdf, pmf)
from .gaussian import (CovMatrix, DetResult, FgnSweepRow, cholesky_pivots,
                       det_psd, fgn_covariance, fgn_det_sweep, gaussian_entropy,
                       hadamard_gap, rank1_extremal_vector)
from .limits import (ConvergenceTable, ExperimentRow, appendix_series_growth,
                     binomial_to_poisson, nb_to_logarithmic, poisson_entropy,
                     poisson_entropy_derivative)
from .oracle import (OracleConfig, QuadResult, SeriesResult, discrete_entropy_sum,
                     entropy_estimate, integral_p_alpha, integral_p_alpha_log_p,
                     integrate_halfline, integrate_interval, integrate_realline,
                     kl_integral)
from .special import digamma, log_gamma, trigamma

__version__ = "0.1.0"

__all__ = [
    "Binomial", "ChiSquared", "ConvergenceTable", "CovMatrix", "DensityBound",
    "DetResult", "Distribution", "EntropySpec", "ExperimentRow", "Exponential",
    "FgnSweepRow", "Gamma", "Laplace", "Logarithmic", "LogNormal",
    "NegBinomialConditional", "Normal", "OracleConfig", "Poisson", "QuadResult",
    "SeriesResult", "Uniform", "appendix_series_growth", "binomial_to_poisson",
    "cholesky_pivots", "density_sup", "det_psd", "digamma",
    "discrete_entropy_sum", "entropy_estimate", "evaluate", "fgn_covariance",
    "fgn_det_sweep", "format_spec", "gaussian_entropy", "generalized_renyi1",
    "generalized_renyi2", "hadamard_gap", "integral_p_alpha",
    "integral_p_alpha_log_p", "integrate_halfline", "integrate_interval",
    "integrate_realline", "kl_divergence", "kl_integral", "log_gamma",
    "lognormal_moment", "logpdf", "logpmf", "modified_shannon",
    "nb_to_logarithmic", "parse_spec", "pdf", "pmf", "poisson_entropy",
    "poisson_entropy_derivative", "rank1_extremal_vector", "renyi", "shannon",
    "sharma_mittal", "trigamma", "tsallis",
]
