"""Exact stable increment sampling versus the analytic transform.

The signal is a Levy-stable process given by an index alpha and a finite
atomic measure on the unit sphere.  Because the measure is atomic, an
increment over any duration is a finite weighted sum of independent
one-dimensional totally skewed stable draws, so there is no time
discretization at all.  This script draws big increment samples for several
alphas (including the logarithmic alpha = 1 branch) and compares the
empirical transform against exp(dt * l(-theta)) node by node.
"""

import numpy as np

from levyfilter import (
    InitialLaw,
    SignalModel,
    SpectralMeasure,
    characteristic_exponent,
    empirical_cf,
    increment_cf,
    sample_increment,
)

rng = np.random.default_rng(2739)
gamma = SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
law = InitialLaw.point([0.0, 0.0])
draws, dt = 100_000, 1.0

angles = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
thetas = np.concatenate(
    [r * np.column_stack([np.cos(angles), np.sin(angles)]) for r in (0.5, 1.5)]
)
tolerance = 5.0 * 2.0 / np.sqrt(draws)

print(f"{draws} increments per alpha, 20 frequency nodes, 5-sigma band {tolerance:.4f}")
print(f"{'alpha':>6} {'max |empirical - exact|':>24} {'l(1,0)':>22}")
for alpha in (0.8, 1.0, 1.5, 2.0):
    model = SignalModel(alpha, gamma, law)
    sample = sample_increment(model, dt, rng, size=draws)
    gap = np.abs(empirical_cf(sample, thetas) - increment_cf(model, dt, thetas))
    ell = characteristic_exponent(np.array([1.0, 0.0]), model)[0]
    print(f"{alpha:>6} {gap.max():>24.5f} {ell:>22.4f}")

print()
print("alpha = 2 increments are Gaussian; the covariance rate is 2 * sum w z z':")
model = SignalModel(2.0, gamma, law)
sample = sample_increment(model, dt, rng, size=draws)
print(np.cov(sample.T).round(4))
