"""Branching particle filtering of Levy-stable signals.

Library layout:

- ``stable``: exact stable-process simulation and characteristic exponents
- ``observation``: sensors, observation records, branching weights
- ``branching``: the branching particle system and the multinomial baseline
- ``reference``: particle-free grid and Kalman reference filters
- ``metrics``: Sobolev error metrics on frequency grids and rate fitting
- ``checks``: the statistical validation suite
- ``harness``: experiment configuration, commands, and CSV artifacts
"""

from .stable import (
    SpectralMeasure,
    InitialLaw,
    SignalModel,
    characteristic_exponent,
    increment_cf,
    sample_standard_stable_1d,
    sample_increment,
    empirical_cf,
    directional_moment,
    covariance_rate,
    quadratic_variation_estimate,
)
from .observation import (
    GaussianBumpSensor,
    ClippedLinearSensor,
    ZeroSensor,
    ObservationModel,
    ObservationRecord,
    simulate_scenario,
    weight,
    offspring_parameters,
)
from .branching import (
    ExtinctionError,
    WeightOverflowError,
    PopulationGrowthError,
    ParticleEnsemble,
    FilterRun,
    init_ensemble,
    evolve_segment,
    run_filter,
    estimate,
    empirical_fourier,
    run_baseline,
    population_control,
)
from .reference import (
    GridFilter,
    build_grid,
    predict_step,
    update_step,
    grid_transform,
    run_reference,
    kalman_reference,
)
from .metrics import (
    FrequencyGrid,
    default_gamma,
    sobolev_norm_sq,
    filter_error,
    rate_fit,
    slope_confidence,
)

__version__ = "0.1.0"
