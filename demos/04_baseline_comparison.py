"""Branching sparsity versus multinomial resampling.

Multinomial resampling redraws every particle's site at every observation,
so the expected number of relocations per epoch is n - 1 no matter how
small epsilon is.  The branching rule only touches particles whose weight
residual beats an independent uniform, and that fraction shrinks like
sqrt(epsilon).  Both filters run on identical observation records here.
"""

from levyfilter import (
    GaussianBumpSensor,
    InitialLaw,
    Oracle,
    SignalModel,
    SpectralMeasure,
)
from levyfilter.experiments import baseline_comparison

signal = SignalModel(
    2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [1.0])
)
sensor = GaussianBumpSensor([1.0], [[0.0]], [1.0])

result = baseline_comparison(
    signal,
    sensor,
    horizon=2.0,
    n=2000,
    seed=19,
    oracle=Oracle("grid", grid_points=512, grid_halfwidth=10.0),
    epsilons=(0.1, 0.05, 0.025, 0.0125),
)

print(f"{'epsilon':>8} {'branch frac':>12} {'multinomial frac':>17} "
      f"{'branch err':>11} {'multi err':>10}")
for eps, bf, mf, be, me in zip(
    result.epsilons,
    result.branching_fractions,
    result.multinomial_fractions,
    result.branching_errors,
    result.multinomial_errors,
):
    print(f"{eps:>8} {bf:>12.4f} {mf:>17.4f} {be:>11.4f} {me:>10.4f}")

print(f"\nbranch-fraction slope in epsilon: {result.slope:.3f} (theory: 1/2)")
print("errors are mean |normalized mean - grid mean| per epoch")
