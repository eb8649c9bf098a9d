"""Rumour propagation among sceptics and k-fold coverage experiments.

A sceptic accepts a rumour only once it has reached them from at least k
distinct sources.  This package simulates the firework process (sources
shout rightward over a random range) and the reverse firework process
(sites listen leftward over a random range) on 1D and 2D lattices,
computes exact under-coverage probabilities, and runs the continuum
Poisson Boolean analogue on the positive orthant.

Every name in __all__ imports from the package (`from rumourlab import
realize`), and the modules that hold them read as attributes
(`rumourlab.exact`), but lazily: a module is imported when it or one of its
names is first read (PEP 562), so importing the package, or one of its
modules, loads only the modules a caller uses.
"""

import importlib

__version__ = "0.2.0"

# module -> the names the package exports from it
_EXPORTS = {
    "distributions": (
        "ConstCont", "Constant", "DistParseError", "Geometric", "ParetoCont", "ParetoTail",
        "PowerCont", "PowerTail", "TailDistribution", "TailFunctionals", "Truncated",
        "TruncatedLawError", "parse_distribution",
    ),
    "lattice": (
        "CoverageField", "LatticeConfig", "Realization", "SiteEstimate", "WindowOverflowError",
        "estimate_under_coverage", "firework_counts", "last_under_covered", "realize",
        "reverse_membership",
    ),
    "exact": (
        "EnumerationBoundError", "ExactQuery", "LossyTruncationError",
        "PaperFormulaDivisionError", "SeriesDiagnostics", "enumeration_oracle",
        "poisson_binomial_fewer_than", "series_diagnostics", "shell_multiplicity_2d",
        "uncovered_prob_1d", "uncovered_prob_2d", "undercovered_prob_1d",
        "undercovered_prob_1d_closed_form", "undercovered_prob_2d_exact",
        "undercovered_prob_2d_paper",
    ),
    "continuum": (
        "ContinuumConfig", "LambdaSummary", "PointSet", "k_cover_deficit_2d",
        "k_cover_last_gap_1d", "sample_ppp", "scan_lambda",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules an eager import of the package left bound as its attributes
_MODULES = (*_EXPORTS, "stats")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULES, *__all__})
