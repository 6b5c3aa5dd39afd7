"""Variance-bounded measurement planning for spatial field estimation."""

from .errors import (
    DegenerateDataError,
    GramTooLargeError,
    GridTooLargeError,
    NumericalError,
    VerificationError,
)
from .geometry import (
    Disk,
    Environment,
    cover_environment,
    disks_intersect,
    greedy_mis,
    lawnmower_rows,
    mis_tour_lower_bound,
)
from .gp import (
    Hyperparameters,
    HyperparameterGrid,
    MeasurementMultiset,
    Posterior,
    fit_hyperparameters,
    kernel_matrix,
    nlml,
    repeated_measurement_variance,
)
from .placement import (
    AccuracySpec,
    MeasurementPlan,
    VerificationReport,
    default_grid_spacing,
    disk_cover_placement,
    necessary_radius,
    project_into_environment,
    required_measurements,
    sufficient_radius,
    verify_plan,
)
from .routing import (
    TimeModel,
    Tour,
    cumulative_times,
    intra_disk_travel,
    tour_from_plan,
    tour_time,
    tsp_heuristic,
)
from .fleet import (
    MakespanCertificate,
    SubtourSet,
    farthest_dwell_distance,
    makespan,
    makespan_certificate,
    split_tour,
)
from .fields import FieldGrid, sample_gp_field
from .baselines import (
    SensorModel,
    TrialReport,
    baseline_candidates,
    convergence_study,
    curves_over_time,
    entropy_greedy,
    lawnmower_plan,
    mi_greedy,
    ordered_tour,
    simulate_trial,
    simulate_trials,
    single_trial_mse_over_time,
    survey_rows,
    variance_over_time,
)

__version__ = "0.1.0"
