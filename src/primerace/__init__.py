"""Numerical toolkit for square-root-weighted prime races mod q.

The package builds exact streaming tallies of primes in residue classes
(counts, 1/sqrt(p) sums, log-weighted sums, character sums), derives the
race's limiting bias constant from the character group, and checks the
finite-x behavior those limits predict: envelope densities for the race
deviation, three independent estimates of its centering constant, central
Euler products, zero-sum reconstructions of the fluctuation term, and its
even moments.  The `primerace` console script drives the same pipelines
and writes CSV/JSON reports.
"""

from .characters import (
    BiasConstant,
    Character,
    ClassFunction,
    SquareRootCount,
    bias_constant,
    character_by_label,
    enumerate_characters,
    euler_phi,
    inner_product,
    parse_label,
    race_weight,
    square_root_count,
    unit_residues,
)
from .sieve import (
    DEFAULT_SEGMENT_ODDS,
    prime_powers,
    segment_bounds,
    sieve_segment,
    simple_sieve,
)
from .tally import (
    LOG2,
    CheckpointGrid,
    CheckpointSeries,
    TallyOrderError,
    TallyPartial,
    TallyResult,
    RaceSummary,
    accumulate,
    merge,
    range_partial,
    read_series_csv,
)
from .ingest import (
    CoverageWarning,
    ExpandedZero,
    ZeroDataset,
    ZeroFileError,
    load_zeros,
    parse_zeros,
    serialize,
    symmetric_expand,
)
from .analysis import (
    LI_TWO,
    DensityReport,
    FitResult,
    SampleSeries,
    TruncationWarning,
    calibrate_K,
    delta_exact,
    delta_zero_sum,
    density_race,
    envelope_check,
    estimate_C,
    estimate_C_all,
    estimate_L,
    estimate_ell,
    euler_density_check,
    euler_series,
    fit_moment_constant,
    g_of,
    mean_integral,
    mean_values,
    moment,
    race_series,
    rms_window,
    weighted_second_moment,
)
from .cli import RunConfig, UsageError, main

__version__ = "0.1.0"

__all__ = [
    # characters
    "BiasConstant", "Character", "ClassFunction", "SquareRootCount",
    "bias_constant", "character_by_label", "enumerate_characters",
    "euler_phi", "inner_product", "parse_label", "race_weight",
    "square_root_count", "unit_residues",
    # sieve
    "DEFAULT_SEGMENT_ODDS", "prime_powers", "segment_bounds", "sieve_segment",
    "simple_sieve",
    # tally
    "LOG2", "CheckpointGrid", "CheckpointSeries", "TallyOrderError",
    "TallyPartial", "TallyResult", "RaceSummary", "accumulate", "merge",
    "range_partial", "read_series_csv",
    # ingest
    "CoverageWarning", "ExpandedZero", "ZeroDataset", "ZeroFileError",
    "load_zeros", "parse_zeros", "serialize", "symmetric_expand",
    # analysis
    "LI_TWO", "DensityReport", "FitResult", "SampleSeries",
    "TruncationWarning", "calibrate_K", "delta_exact", "delta_zero_sum",
    "density_race", "envelope_check", "estimate_C", "estimate_C_all",
    "estimate_L", "estimate_ell", "euler_density_check", "euler_series",
    "fit_moment_constant", "g_of", "mean_integral", "mean_values", "moment",
    "race_series", "rms_window",
    "weighted_second_moment",
    # cli
    "RunConfig", "UsageError", "main",
    "__version__",
]
