"""Empirical n-rate of the Sobolev filter error (reduced-size sweep).

The filter error is the Sobolev distance between the empirical measure's
transform and the grid reference filter's transform, integrated against
(1 + |theta|^2)^gamma.  The root-mean-square error at the terminal epoch
decays like n^(-1/2); this script reproduces the slope on a sweep small
enough to run in seconds (the full-size sweep lives in the acceptance
suite and the rate-sweep CLI command).
"""

from levyfilter import (
    FrequencyGrid,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    Oracle,
    SignalModel,
    SpectralMeasure,
)
from levyfilter.experiments import rate_sweep

signal = SignalModel(
    2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [1.0])
)
obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.1)
metric = FrequencyGrid.build(1, alpha=2.0)

result = rate_sweep(
    signal,
    obs,
    2.0,
    ns=[250, 500, 1000, 2000, 4000],
    replications=30,
    seed=77,
    metric=metric,
    oracle=Oracle("grid", grid_points=512, grid_halfwidth=10.0),
)

print(f"{'n':>6} {'rms error':>12} {'sqrt(n) * rms':>14}")
for n, err in result.per_n_error:
    print(f"{n:>6} {err:>12.6f} {(n ** 0.5) * err:>14.4f}")
fit = result.fit
print(f"\nlog-log slope {fit.slope:.4f}, 95% CI [{fit.ci_low:.4f}, {fit.ci_high:.4f}] (theory: -1/2)")
