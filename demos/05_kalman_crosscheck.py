"""Gaussian linear-channel special case against the exact Kalman posterior.

With alpha = 2 and a linear sensor that never hits its clip bound, the true
normalized filter is Gaussian and a standard Kalman recursion computes it
exactly (prediction adds epsilon times the signal covariance rate; the
update treats dY/epsilon as a linear observation with noise covariance
I/epsilon).  The particle filter's normalized mean should sit within a few
posterior standard deviations over sqrt(n) of the exact mean.
"""

from levyfilter import (
    ClippedLinearSensor,
    InitialLaw,
    ObservationModel,
    SignalModel,
    SpectralMeasure,
)
from levyfilter.checks import check_kalman_crosscheck

signal = SignalModel(
    2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [1.0])
)
obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1)
ns = (500, 2000, 8000)

result = check_kalman_crosscheck(
    signal,
    obs,
    horizon=2.0,
    seed=23,
    ns=ns,
    reference_n=8000,
    replications=8,
)

values = result.values

print(f"{'n':>6} {'rms mean error':>15} {'sqrt(n) * rms':>14}")
for n in ns:
    err = values[f"rms_n_{n}"]
    print(f"{n:>6} {err:>15.5f} {(n ** 0.5) * err:>14.4f}")
print(f"\nposterior std (epoch average): {values['posterior_std']:.4f}")
print(f"rms at n={values['reference_n']}: {values['reference_rms']:.5f} "
      f"(tolerance {values['tolerance']:.5f})")
print(f"n-slope: {values['fit_slope']:.4f} (theory: -1/2)")
print(f"clip margin: {values['clip_margin']:.1f} (everything stayed linear)")
print(f"{result.status}: {result.detail}")
