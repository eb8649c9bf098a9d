"""Rumour propagation among sceptics and k-fold coverage experiments.

A sceptic accepts a rumour only once it has reached them from at least k
distinct sources.  This package simulates the firework process (sources
shout rightward over a random range) and the reverse firework process
(sites listen leftward over a random range) on 1D and 2D lattices,
computes exact under-coverage probabilities, and runs the continuum
Poisson Boolean analogue on the positive orthant.
"""

from rumourlab.distributions import (
    ConstCont,
    Constant,
    DistParseError,
    Geometric,
    ParetoCont,
    ParetoTail,
    PowerCont,
    PowerTail,
    TailDistribution,
    TailFunctionals,
    Truncated,
    TruncatedLawError,
    parse_distribution,
)
from rumourlab.lattice import (
    CoverageField,
    LatticeConfig,
    Realization,
    SiteEstimate,
    WindowOverflowError,
    estimate_under_coverage,
    firework_counts,
    last_under_covered,
    realize,
    reverse_membership,
)
from rumourlab.exact import (
    EnumerationBoundError,
    ExactQuery,
    LossyTruncationError,
    PaperFormulaDivisionError,
    SeriesDiagnostics,
    enumeration_oracle,
    poisson_binomial_fewer_than,
    series_diagnostics,
    shell_multiplicity_2d,
    uncovered_prob_1d,
    uncovered_prob_2d,
    undercovered_prob_1d,
    undercovered_prob_1d_closed_form,
    undercovered_prob_2d_exact,
    undercovered_prob_2d_paper,
)
from rumourlab.continuum import (
    ContinuumConfig,
    LambdaSummary,
    PointSet,
    k_cover_deficit_2d,
    k_cover_last_gap_1d,
    sample_ppp,
    scan_lambda,
)

__version__ = "0.2.0"
