"""Particle-free reference filters on a spatial grid, plus a Kalman special case.

The grid filter realizes the exact unnormalized filter recursion: between
observations the density is convolved with the stable transition kernel
(done exactly on the dual grid, where the kernel acts as multiplication by
exp(epsilon * l(-theta))), and at an observation the density is multiplied
pointwise by 1 + rho(x).  Dual-grid multiplication implies periodic boundary
conditions, so the domain must comfortably contain the filter mass; boundary
and clamped-mass diagnostics make the discretization error observable.

For alpha = 2 with an unclipped linear sensor the exact normalized filter is
Gaussian and ``kalman_reference`` provides it in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .observation import ObservationModel, ObservationRecord, weight
from .stable import SignalModel, characteristic_exponent, covariance_rate

__all__ = [
    "GridAccuracyWarning",
    "GridDomainError",
    "GridFilter",
    "build_grid",
    "predict_step",
    "update_step",
    "grid_transform",
    "GridEpochSummary",
    "run_reference",
    "kalman_reference",
]


class GridAccuracyWarning(UserWarning):
    """Discretization diagnostics exceeded their comfort thresholds."""


class GridDomainError(ValueError):
    """The spatial domain is too small for the requested initial law."""


_CLAMP_ERROR_FRACTION = 1e-3
_BOUNDARY_WARN_FRACTION = 1e-4
_INITIAL_MASS_OUTSIDE_TOL = 1e-6


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass
class GridFilter:
    """Unnormalized filter density on a rectangular grid plus its dual-grid cache."""

    axes: tuple                 # per-dimension cell-center coordinates
    density: np.ndarray         # (N, ...) mass per unit volume, >= 0
    multiplier: np.ndarray      # complex transition factor exp(eps*l(-theta)) per dual node
    epsilon: float
    cell_volume: float
    points: np.ndarray          # (cells, d) cell centers, flattened in C order
    strict: bool = False
    clamped_mass: float = 0.0   # cumulative mass created by clamping negatives
    last_clamped: float = 0.0

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return self.density.shape

    @property
    def total_mass(self) -> float:
        return float(self.density.sum() * self.cell_volume)

    @property
    def mean(self) -> np.ndarray:
        mass = self.density.sum()
        flat = self.density.reshape(-1)
        return (flat @ self.points) / mass

    @property
    def variance(self) -> np.ndarray:
        """Per-axis variance of the normalized density."""
        mass = self.density.sum()
        flat = self.density.reshape(-1)
        mean = (flat @ self.points) / mass
        return (flat @ (self.points - mean) ** 2) / mass

    def boundary_mass_fraction(self) -> float:
        total = self.density.sum()
        if total <= 0.0:
            return 0.0
        inner = self.density
        for axis in range(self.dimension):
            inner = np.take(inner, np.arange(1, inner.shape[axis] - 1), axis=axis)
        return float(1.0 - inner.sum() / total)


def _initial_density(signal: SignalModel, axes: tuple, cell_volume: float) -> np.ndarray:
    law = signal.initial_law
    shape = tuple(a.size for a in axes)
    edges_lo = np.array([a[0] - 0.5 * (a[1] - a[0]) for a in axes])
    edges_hi = np.array([a[-1] + 0.5 * (a[1] - a[0]) for a in axes])
    if law.kind == "point":
        x0 = law.center
        if np.any(x0 < edges_lo) or np.any(x0 > edges_hi):
            raise GridDomainError("point mass lies outside the grid domain")
        density = np.zeros(shape)
        idx = tuple(int(np.argmin(np.abs(a - c))) for a, c in zip(axes, x0))
        density[idx] = 1.0 / cell_volume
        return density
    if law.kind == "gaussian":
        coverage = 1.0
        for lo, hi, mu, sd in zip(edges_lo, edges_hi, law.center, law.scale):
            coverage *= _norm_cdf((hi - mu) / sd) - _norm_cdf((lo - mu) / sd)
    else:  # uniform
        coverage = 1.0
        for lo, hi, mu, hw in zip(edges_lo, edges_hi, law.center, law.scale):
            overlap = max(0.0, min(hi, mu + hw) - max(lo, mu - hw))
            coverage *= overlap / (2.0 * hw)
    if 1.0 - coverage > _INITIAL_MASS_OUTSIDE_TOL:
        raise GridDomainError(
            f"initial mass outside the domain is {1.0 - coverage:.3e} (> 1e-06); enlarge the grid"
        )
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    density = law.pdf(points).reshape(shape)
    density /= density.sum() * cell_volume
    return density


def build_grid(
    signal: SignalModel,
    epsilon: float,
    domain_halfwidth: float,
    points_per_axis: int,
    *,
    center=None,
    strict: bool = False,
) -> GridFilter:
    """Discretize the initial law on a power-of-two grid and cache the transition multiplier."""
    if domain_halfwidth <= 0.0:
        raise ValueError("domain halfwidth must be positive")
    if points_per_axis < 64 or points_per_axis & (points_per_axis - 1):
        raise ValueError("points_per_axis must be a power of two, at least 64")
    d = signal.dimension
    center = np.zeros(d) if center is None else np.atleast_1d(np.asarray(center, float))
    delta = 2.0 * domain_halfwidth / points_per_axis
    axes = tuple(
        center[i] - domain_halfwidth + (np.arange(points_per_axis) + 0.5) * delta
        for i in range(d)
    )
    cell_volume = float(delta**d)
    density = _initial_density(signal, axes, cell_volume)
    freq_axes = [2.0 * np.pi * np.fft.fftfreq(points_per_axis, d=delta) for _ in range(d)]
    mesh = np.meshgrid(*freq_axes, indexing="ij")
    thetas = np.column_stack([m.ravel() for m in mesh])
    multiplier = np.exp(
        epsilon * characteristic_exponent(-thetas, signal)
    ).reshape(density.shape)
    space_mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in space_mesh])
    return GridFilter(
        axes=axes,
        density=density,
        multiplier=multiplier,
        epsilon=epsilon,
        cell_volume=cell_volume,
        points=points,
        strict=strict,
    )


def predict_step(grid: GridFilter) -> GridFilter:
    """One transition of duration epsilon by dual-grid multiplication.

    The multiplier equals 1 at theta = 0, so total mass is preserved up to
    transform round-off; small negative lobes from band-limited inversion are
    clamped to zero and the clamped mass is tracked.
    """
    spectrum = np.fft.fftn(grid.density)
    new = np.fft.ifftn(spectrum * grid.multiplier).real
    negative = new < 0.0
    clamped = float(-new[negative].sum() * grid.cell_volume)
    new = np.where(negative, 0.0, new)
    total = float(new.sum() * grid.cell_volume)
    if total > 0.0 and clamped > _CLAMP_ERROR_FRACTION * total:
        message = f"clamped mass {clamped:.3e} exceeds 1e-03 of total {total:.3e}"
        if grid.strict:
            raise RuntimeError(message)
        warnings.warn(message, GridAccuracyWarning)
    out = replace(
        grid,
        density=new,
        clamped_mass=grid.clamped_mass + clamped,
        last_clamped=clamped,
    )
    frac = out.boundary_mass_fraction()
    if frac > _BOUNDARY_WARN_FRACTION:
        warnings.warn(
            f"boundary cells hold fraction {frac:.3e} of the mass; periodic wrap-around may bite",
            GridAccuracyWarning,
        )
    return out


def update_step(grid: GridFilter, dy, obs: ObservationModel) -> GridFilter:
    """Pointwise Bayes update: multiply the density by 1 + rho(x) > 0."""
    factor = 1.0 + weight(grid.points, dy, obs)
    new = grid.density * factor.reshape(grid.shape)
    return replace(grid, density=new, last_clamped=0.0)


def grid_transform(grid: GridFilter, thetas, chunk: int = 128) -> np.ndarray:
    """Fourier transform of the grid measure (cell-center atoms) on a frequency list."""
    th = np.asarray(thetas, dtype=float)
    if th.ndim == 1 and grid.dimension == 1:
        th = th.reshape(-1, 1)
    th = np.atleast_2d(th)
    masses = grid.density.reshape(-1) * grid.cell_volume
    out = np.empty(th.shape[0], dtype=complex)
    for lo in range(0, th.shape[0], chunk):
        block = th[lo : lo + chunk]
        out[lo : lo + block.shape[0]] = masses @ np.exp(-1j * (grid.points @ block.T))
    return out


@dataclass
class GridEpochSummary:
    epoch: int
    time: float
    total_mass: float
    mean: np.ndarray
    variance: np.ndarray
    boundary_mass: float
    clamped_mass: float
    transform: np.ndarray | None = None


def run_reference(
    signal: SignalModel,
    obs: ObservationModel,
    record: ObservationRecord,
    *,
    domain_halfwidth: float,
    points_per_axis: int,
    theta_grid=None,
    strict: bool = False,
) -> tuple[list, GridFilter]:
    """Alternate predict and update over the record; per-epoch summaries plus the final grid."""
    grid = build_grid(
        signal, obs.epsilon, domain_halfwidth, points_per_axis, strict=strict
    )
    summaries = [_summarize(grid, 0, theta_grid)]
    for k in range(1, record.count + 1):
        grid = predict_step(grid)
        grid = update_step(grid, record.increments[k - 1], obs)
        summaries.append(_summarize(grid, k, theta_grid))
    return summaries, grid


def _summarize(grid: GridFilter, epoch: int, theta_grid) -> GridEpochSummary:
    return GridEpochSummary(
        epoch=epoch,
        time=epoch * grid.epsilon,
        total_mass=grid.total_mass,
        mean=grid.mean.copy(),
        variance=grid.variance.copy(),
        boundary_mass=grid.boundary_mass_fraction(),
        clamped_mass=grid.clamped_mass,
        transform=None if theta_grid is None else grid_transform(grid, theta_grid),
    )


def kalman_reference(
    record: ObservationRecord,
    matrix,
    prior_mean,
    prior_cov,
    noise_rate,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact posterior (means, covariances) for the Gaussian linear-channel case.

    Predict adds epsilon * noise_rate to the covariance (noise_rate is the
    per-unit-time signal covariance); the update treats dY_k / epsilon as a
    linear observation with noise covariance I / epsilon.  Entry k holds the
    posterior at t_{k+1}.
    """
    H = np.atleast_2d(np.asarray(matrix, dtype=float))
    d2, d1 = H.shape
    m = np.atleast_1d(np.asarray(prior_mean, dtype=float)).copy()
    P = np.atleast_2d(np.asarray(prior_cov, dtype=float)).copy()
    Q = np.atleast_2d(np.asarray(noise_rate, dtype=float))
    eps = record.epsilon
    means = np.empty((record.count, d1))
    covs = np.empty((record.count, d1, d1))
    eye = np.eye(d1)
    for k in range(record.count):
        P = P + eps * Q
        z = record.increments[k] / eps
        S = H @ P @ H.T + np.eye(d2) / eps
        gain = P @ H.T @ np.linalg.inv(S)
        m = m + gain @ (z - H @ m)
        P = (eye - gain @ H) @ P
        means[k] = m
        covs[k] = P
    return means, covs


def _kalman_from_law(signal: SignalModel, matrix, record: ObservationRecord):
    """(prior covariance, posterior means, posterior covariances) from the signal's own
    initial law (Gaussian or point) and covariance rate; alpha = 2 and a linear sensor."""
    law = signal.initial_law
    if law.kind not in ("point", "gaussian"):
        raise ValueError(f"kalman oracle needs a point or gaussian initial law, not {law.kind}")
    d = signal.dimension
    cov0 = np.diag(law.scale**2) if law.kind == "gaussian" else np.zeros((d, d))
    means, covs = kalman_reference(
        record, matrix, law.center, cov0, covariance_rate(signal.spectral)
    )
    return cov0, means, covs
