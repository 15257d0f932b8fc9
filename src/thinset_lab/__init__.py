"""Numerical laboratory for thin sets of integer frequencies.

Exponent algebra linking moment and interpolation parameters, certified
sup norms of trigonometric polynomials, Orlicz and Lorentz norms,
heavy-tailed Monte Carlo norm estimates, combinatorial quasi-independence
search, example set families with counting statistics, and a suite of
named reproducible experiments.
"""

from .errors import (
    DomainError,
    ExtractionError,
    FitError,
    InfeasibleError,
    ResourceLimitError,
)
from .examples_sets import (
    GENERATOR_KINDS,
    RepresentationCounts,
    fit_mesh_exponent,
    generate,
    mesh_counts,
    r_alpha,
)
from .exponents import (
    ExponentTable,
    OrliczParams,
    conjugate,
    derive_exponents,
    invert_for_p,
    invert_for_q,
    orlicz_params,
)
from .experiments import (
    EXPERIMENT_IDS,
    CheckResult,
    ExperimentReport,
    default_config,
    emit_report,
    parse_report,
    run_experiment,
)
from .orlicz import (
    FAMILIES,
    OrliczFunction,
    log_type_functional,
    luxemburg_norm,
    psi_norm_of_constant,
    psi_set_norm,
)
from .quasi import (
    DEFAULT_BUDGET,
    PartitionResult,
    QiSearchResult,
    as_freqset,
    is_quasi_independent,
    max_quasi_independent,
    partition_lemma,
)
from .sampler import (
    DRIVER_KINDS,
    SEED_ENV_VAR,
    DriverDistribution,
    make_rng,
    resolve_seed,
    sample_driver,
    sample_isotropic_stable,
    sample_positive_stable,
)
from .stable_norm import (
    SUP_REL_TOL,
    NormEstimate,
    estimate_bracket,
    median_of_means,
    sz_lower,
    zero_one_upper,
)
from .trigpoly import (
    TrigPolynomial,
    default_grid_size,
    evaluate_grid,
    fq_norm,
    lorentz_norms,
    lq_function_norm,
    sup_norm,
    sup_norm_rows,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "InfeasibleError",
    "ResourceLimitError",
    "ExtractionError",
    "FitError",
    "ExponentTable",
    "OrliczParams",
    "conjugate",
    "derive_exponents",
    "invert_for_q",
    "invert_for_p",
    "orlicz_params",
    "TrigPolynomial",
    "default_grid_size",
    "evaluate_grid",
    "fq_norm",
    "lorentz_norms",
    "sup_norm",
    "sup_norm_rows",
    "lq_function_norm",
    "FAMILIES",
    "OrliczFunction",
    "luxemburg_norm",
    "psi_set_norm",
    "log_type_functional",
    "psi_norm_of_constant",
    "DRIVER_KINDS",
    "SEED_ENV_VAR",
    "DriverDistribution",
    "resolve_seed",
    "make_rng",
    "sample_positive_stable",
    "sample_isotropic_stable",
    "sample_driver",
    "SUP_REL_TOL",
    "NormEstimate",
    "median_of_means",
    "estimate_bracket",
    "zero_one_upper",
    "sz_lower",
    "DEFAULT_BUDGET",
    "QiSearchResult",
    "PartitionResult",
    "as_freqset",
    "is_quasi_independent",
    "max_quasi_independent",
    "partition_lemma",
    "GENERATOR_KINDS",
    "RepresentationCounts",
    "generate",
    "mesh_counts",
    "fit_mesh_exponent",
    "r_alpha",
    "EXPERIMENT_IDS",
    "CheckResult",
    "ExperimentReport",
    "default_config",
    "run_experiment",
    "emit_report",
    "parse_report",
    "__version__",
]
