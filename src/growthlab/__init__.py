"""Growth-optimal portfolios under constraints, and their stability.

The package solves the constrained quadratic growth problem behind the
numéraire portfolio, simulates discretized continuous-path markets, and
measures how the optimal wealth responds when the information flow, the
probability measure, or the constraint set is perturbed.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError, DensityFloorHit, DimensionMismatch, GrowthlabError,
    InfeasibleConstraint, InvalidSpec, NonConvergence, NonNestedPartitions,
    QuadratureUnderResolved, ThresholdFailure, UnsupportedSignalModel,
)
from .constraints import (
    Ball, Box, ConstraintSet, FullSpace, HalfspacePolytope, Intersection,
    NonnegativeOrthant, constraint_from_config, hausdorff_distance,
    truncated_pair_distance,
)
from .quadform import (
    cov_inner, cov_norm, nullspace_split, optimal_fraction_batch,
)
from .market import (
    DensityRecord, GaussianSignalModel, MarketSpec, PathBundle, TiltSpec,
    density_paths, event_probabilities, filtered_drift, girsanov_drift,
    simulate_paths, simulate_signal_paths, tilt_decomposition, tilt_field,
)
from .numeraire import (
    GrowthPath, WealthPaths, growth_path, growth_rate, numeraire_fractions,
    terminal_deflation, wealth_paths, wealth_process_gap,
)
from .stability import (
    LadderReport, constraint_ladder, density_sequence_check,
    excursion_density_ladder, filtration_ladder, lognormal_density_ladder,
    probability_ladder,
)
from .sensitivity import (
    expansion_ladder, expansion_orders, first_order_check,
    reference_increments, response_quotient, second_order_check,
    streamed_expansion_ladder,
)
from .discrete import (
    OnePeriodMarket, OnePeriodResult, ScenarioTree, discontinuity_report,
    one_period_optimal, tree_predictable_projection,
    tree_projection_convergence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
