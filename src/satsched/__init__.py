"""satsched: energy-minimal GPU frequency planning for satellite edge compute.

A desk-scale simulator and library for picking the lowest (hence cheapest,
under cubic DVFS power) GPU clock that still meets a probabilistic
end-to-end latency deadline for on-board image processing, accounting for
the radio legs: finite-blocklength ARQ uplink, optional inter-satellite
relaying, and a deterministic downlink.
"""

# set before the submodules load: harness records it in every *_meta.json
__version__ = "0.1.0"

from .channel import (EARTH_RADIUS_M, SPEED_OF_LIGHT, IslPath, LinkGeometry,
                      LinkParams, OfdmGrid, db_to_linear, downlink_delay,
                      expected_uplink_delay, fbl_error_probability,
                      isl_round_trip, path_loss, ring_chord_m, slant_range,
                      snr, uplink_delay_pmf)
from .compute import (AGX, BUILTIN_PLATFORMS, NANO, Platform, batch_law,
                      energy, mean_exec_time, power)
from .config import (DEFAULT_CONFIG, Scenario, default_config, load_config,
                     load_scenario, merge_config, resolve)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     EstimationError, InfeasibleBudgetError,
                     InfeasibleConstraintError, InfeasibleLinkError,
                     SatschedError)
from .estimation import (ExecSample, FrequencyModel, SubsetReplicate,
                         SubsetStudyResult, draw_subset, estimate_bsp_moments,
                         fit_frequency_model, fit_moment_model,
                         miss_probability, run_subset_replicate,
                         sample_size_study)
from .harness import (CommLegs, GroundTruth, budget_from_legs, comm_legs,
                      fit_frequency_grid, fit_report, ground_truth_for,
                      ingest_samples_csv, run_fig3, run_fig4, run_fig5,
                      synthesize_ground_truth)
from .kernels import BACKEND
from .numerics import (GammaFitResult, GammaLaw, Polynomial, fit_gamma_mle,
                       gamma_cdf, gamma_quantile, ks_statistic,
                       normal_quantile, polyfit, q_function, sample_gamma)
from .rand import (BIT_GENERATORS, NS_GROUND_TRUTH, NS_SUBSET_STUDY,
                   child_seed, generator_from, stream)
from .scheduler import (FrequencySolution, LatencyBudget, MomentModel,
                        PricedSelection, processing_budget, select_and_price,
                        solve_cantelli_frequency, solve_optimal_frequency)

__all__ = [
    "AGX", "BACKEND", "BIT_GENERATORS", "BUILTIN_PLATFORMS", "CommLegs",
    "ConfigError", "ConvergenceError", "DEFAULT_CONFIG", "DomainError",
    "EARTH_RADIUS_M",
    "EstimationError", "ExecSample", "FrequencyModel", "FrequencySolution",
    "GammaFitResult", "GammaLaw", "GroundTruth", "InfeasibleBudgetError",
    "InfeasibleConstraintError", "InfeasibleLinkError", "IslPath",
    "LatencyBudget", "LinkGeometry", "LinkParams", "MomentModel", "NANO",
    "NS_GROUND_TRUTH", "NS_SUBSET_STUDY", "OfdmGrid", "Platform", "Polynomial",
    "PricedSelection", "SPEED_OF_LIGHT", "SatschedError", "Scenario",
    "SubsetReplicate", "SubsetStudyResult", "batch_law", "budget_from_legs",
    "child_seed", "comm_legs",
    "db_to_linear", "default_config", "downlink_delay", "draw_subset",
    "energy", "estimate_bsp_moments", "expected_uplink_delay",
    "fbl_error_probability", "fit_frequency_grid", "fit_frequency_model",
    "fit_gamma_mle", "fit_moment_model", "fit_report", "gamma_cdf",
    "gamma_quantile", "generator_from", "ground_truth_for",
    "ingest_samples_csv",
    "isl_round_trip", "ks_statistic", "load_config",
    "load_scenario", "mean_exec_time", "merge_config", "miss_probability",
    "normal_quantile", "path_loss", "polyfit", "power", "processing_budget",
    "q_function", "resolve", "ring_chord_m", "run_fig3", "run_fig4",
    "run_fig5", "run_subset_replicate", "sample_gamma", "sample_size_study",
    "select_and_price", "slant_range", "snr", "solve_cantelli_frequency",
    "solve_optimal_frequency", "stream", "synthesize_ground_truth",
    "uplink_delay_pmf",
]
