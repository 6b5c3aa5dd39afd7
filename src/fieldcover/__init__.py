"""Variance-bounded measurement planning for spatial field estimation."""

import os

# numpy and scipy each load their own OpenBLAS, and after a threaded call
# each pool's workers spin for 2**28 cycles before they sleep, on the core
# the other pool's next threaded call needs. Both libraries read this
# (log2 cycles) when they load, so it is set before anything imports
# numpy; a value already in the environment wins. Only idle time changes:
# thread counts and work splits, and so every output's bits, stay the same.
OPENBLAS_THREAD_TIMEOUT = "20"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", OPENBLAS_THREAD_TIMEOUT)

from .errors import (
    DegenerateDataError,
    GramTooLargeError,
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
