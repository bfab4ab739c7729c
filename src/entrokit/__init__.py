"""Closed-form entropy measures for common distributions, with numerical verification.

The toolkit computes Shannon, Renyi, generalized Renyi (one- and
two-parameter), Tsallis, Sharma-Mittal and modified Shannon entropies
plus the Kullback-Leibler divergence in closed form, and ships the
independent quadrature/series oracles used to validate every formula.

`import entrokit` loads no submodule and not numpy.  A public name, or
a submodule such as `entrokit.gaussian`, is imported from its home
module the first time it is looked up (PEP 562), so a program pays only
for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports at the package level
_EXPORTS = {
    "closed_form": (
        "DensityBound", "density_sup", "evaluate", "generalized_renyi1",
        "generalized_renyi2", "kl_divergence", "lognormal_moment", "modified_shannon",
        "renyi", "shannon", "sharma_mittal", "tsallis"),
    "distributions": (
        "Binomial", "ChiSquared", "Distribution", "Exponential", "Gamma", "Laplace",
        "Logarithmic", "LogNormal", "NegBinomialConditional", "Normal", "Poisson",
        "Uniform", "format_spec", "logpdf", "logpmf", "parse_spec", "pdf", "pmf"),
    "gaussian": (
        "CovMatrix", "DetResult", "FgnSweepRow", "cholesky_pivots", "det_psd",
        "fgn_covariance", "fgn_det_sweep", "gaussian_entropy", "hadamard_gap",
        "rank1_extremal_vector"),
    "limits": (
        "ConvergenceTable", "ExperimentRow", "appendix_series_growth",
        "binomial_to_poisson", "nb_to_logarithmic", "poisson_entropy",
        "poisson_entropy_derivative"),
    "measures": ("EntropySpec",),
    "oracle": (
        "QuadResult", "SeriesResult", "discrete_entropy_sum", "discrete_expectation",
        "entropy_estimate", "integral_p_alpha", "integral_p_alpha_log_p", "kl_integral"),
    "special": ("digamma", "log_gamma", "trigamma"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# submodules reachable as attributes of a bare `import entrokit`
_SUBMODULES = frozenset(
    ("closed_form", "distributions", "errors", "gaussian", "limits", "oracle", "special"))

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
