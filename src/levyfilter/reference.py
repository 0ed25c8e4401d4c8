"""Particle-free reference filters on a spatial grid, plus a Kalman special case.

The grid filter realizes the exact unnormalized filter recursion: between
observations the density is convolved with the stable transition kernel
(done exactly on the dual grid, where the kernel acts as multiplication by
exp(epsilon * l(-theta))), and at an observation the density is multiplied
pointwise by 1 + rho(x).  Dual-grid multiplication implies periodic boundary
conditions, so the domain must comfortably contain the filter mass; boundary
and clamped-mass diagnostics make the discretization error observable.

For alpha = 2 with an unclipped linear sensor the exact normalized filter is
Gaussian and ``kalman_reference`` provides it in closed form.  Every command
reads its reference posterior, of either kind, from ``oracle_summaries``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .metrics import fourier
from .observation import ClippedLinearSensor, ObservationModel, ObservationRecord, weight
from .stable import SignalModel, characteristic_exponent, covariance_rate

__all__ = [
    "GridAccuracyWarning",
    "GridDomainError",
    "GridFilter",
    "build_grid",
    "predict_step",
    "update_step",
    "grid_transform",
    "OracleSummary",
    "run_reference",
    "oracle_summaries",
    "kalman_sensor",
    "ClipRegionError",
    "clip_margin",
    "kalman_reference",
]


class GridAccuracyWarning(UserWarning):
    """Discretization diagnostics exceeded their comfort thresholds."""


class GridDomainError(ValueError):
    """The spatial domain is too small for the requested initial law."""


# The accuracy tests on each predicted grid: (what, largest fraction of its mass, why).
_ACCURACY_TESTS = (
    ("clamped mass", 1e-3, "negative lobes of the band-limited inversion were set to zero"),
    ("boundary cells hold", 1e-4, "periodic wrap-around may bite"),
)
_INITIAL_MASS_OUTSIDE_TOL = 1e-6


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass
class GridFilter:
    """Unnormalized filter density on a rectangular grid plus its dual-grid cache."""

    axes: tuple                 # per-dimension cell-center coordinates
    density: np.ndarray         # (N, ...) mass per unit volume, >= 0
    multiplier: np.ndarray      # complex transition factor exp(eps*l(-theta)) per dual node
    cell_volume: float
    points: np.ndarray          # (cells, d) cell centers, flattened in C order
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
) -> GridFilter:
    """Discretize the initial law on a power-of-two grid centred on the origin and cache the
    transition multiplier."""
    if domain_halfwidth <= 0.0:
        raise ValueError("domain halfwidth must be positive")
    if points_per_axis < 64 or points_per_axis & (points_per_axis - 1):
        raise ValueError("points_per_axis must be a power of two, at least 64")
    d = signal.dimension
    delta = 2.0 * domain_halfwidth / points_per_axis
    axes = tuple(-domain_halfwidth + (np.arange(points_per_axis) + 0.5) * delta for _ in range(d))
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
        cell_volume=cell_volume,
        points=points,
    )


def predict_step(grid: GridFilter) -> GridFilter:
    """One transition of duration epsilon by dual-grid multiplication.

    The multiplier equals 1 at theta = 0, so total mass is preserved up to
    transform round-off; small negative lobes from band-limited inversion are
    clamped to zero and the clamped mass is tracked in ``last_clamped``.
    """
    spectrum = np.fft.fftn(grid.density)
    new = np.fft.ifftn(spectrum * grid.multiplier).real
    negative = new < 0.0
    clamped = float(-new[negative].sum() * grid.cell_volume)
    return replace(
        grid,
        density=np.where(negative, 0.0, new),
        clamped_mass=grid.clamped_mass + clamped,
        last_clamped=clamped,
    )


def update_step(grid: GridFilter, dy, obs: ObservationModel) -> GridFilter:
    """Pointwise Bayes update: multiply the density by 1 + rho(x) > 0."""
    factor = 1.0 + weight(grid.points, dy, obs)
    new = grid.density * factor.reshape(grid.shape)
    return replace(grid, density=new, last_clamped=0.0)


def grid_transform(grid: GridFilter, thetas) -> np.ndarray:
    """Transform of the grid measure (cell-center atoms) on nodes or a ``FrequencyGrid``."""
    return fourier(grid.points, grid.density.reshape(-1) * grid.cell_volume, thetas)


@dataclass
class OracleSummary:
    """One epoch (at time epoch * epsilon) of a reference posterior; the grid diagnostics
    are nan for the Kalman one."""

    epoch: int
    mean: np.ndarray
    variance: np.ndarray        # per axis
    transform: np.ndarray | None = None
    total_mass: float = math.nan
    boundary_mass: float = math.nan
    clamped_mass: float = math.nan


def run_reference(
    signal: SignalModel,
    obs: ObservationModel,
    record: ObservationRecord,
    *,
    domain_halfwidth: float,
    points_per_axis: int,
    theta_grid=None,
) -> tuple[list, GridFilter]:
    """Alternate predict and update over the record; per-epoch summaries (with the transform
    on ``theta_grid``, nodes or a ``FrequencyGrid``, if given) plus the final grid.

    Each predicted grid is held to the ``_ACCURACY_TESTS`` thresholds; a threshold that
    any epoch crosses gives one GridAccuracyWarning after the run, with its worst epoch.
    """
    grid = build_grid(signal, obs.epsilon, domain_halfwidth, points_per_axis)
    summaries = [_summarize(grid, 0, theta_grid)]
    fractions = []  # per epoch: clamped and boundary-cell fraction of the predicted mass
    for k in range(1, record.count + 1):
        grid = predict_step(grid)
        total = grid.total_mass
        clamped = grid.last_clamped / total if total > 0.0 else 0.0
        fractions.append((clamped, grid.boundary_mass_fraction()))
        grid = update_step(grid, record.increments[k - 1], obs)
        summaries.append(_summarize(grid, k, theta_grid))
    for column, (what, limit, why) in zip(np.reshape(fractions, (-1, 2)).T, _ACCURACY_TESTS):
        over = int(np.sum(column > limit))
        if over:
            worst = int(np.argmax(column))  # the first of equally bad epochs
            warnings.warn(
                f"{what} fraction {column[worst]:.3e} of the mass at epoch {worst + 1} "
                f"(worst of {over} of {record.count} epochs over {limit:.0e}); {why}",
                GridAccuracyWarning,
            )
    return summaries, grid


def _summarize(grid: GridFilter, epoch: int, theta_grid) -> OracleSummary:
    return OracleSummary(
        epoch=epoch,
        total_mass=grid.total_mass,
        mean=grid.mean.copy(),
        variance=grid.variance.copy(),
        boundary_mass=grid.boundary_mass_fraction(),
        clamped_mass=grid.clamped_mass,
        transform=None if theta_grid is None else grid_transform(grid, theta_grid),
    )


def oracle_summaries(
    signal: SignalModel,
    obs: ObservationModel,
    record: ObservationRecord,
    kind: str,
    *,
    grid_points: int = 512,
    grid_halfwidth: float = 10.0,
    metric=None,
) -> list:
    """The reference posterior every command compares against: one summary per epoch 0..K.

    ``kind`` "grid" runs the unnormalized grid filter (``run_reference``, which judges its
    accuracy); "kalman" gives the exact normalized Gaussian posterior once
    ``kalman_sensor`` accepts the scenario.  With ``metric`` each summary carries the
    transform on its nodes.
    """
    if kind == "grid":
        return run_reference(
            signal,
            obs,
            record,
            domain_halfwidth=grid_halfwidth,
            points_per_axis=grid_points,
            theta_grid=metric,
        )[0]
    if kind != "kalman":
        raise ValueError(f"no reference posterior for oracle kind {kind!r}")
    law, d = signal.initial_law, signal.dimension
    cov0 = np.diag(law.scale**2) if law.kind == "gaussian" else np.zeros((d, d))
    matrix, rate = kalman_sensor(signal, obs).matrix, covariance_rate(signal.spectral)
    means, covs = kalman_reference(record, matrix, law.center, cov0, rate)
    summaries = []
    for k, (mean, cov) in enumerate(zip([law.center, *means], [cov0, *covs])):
        transform = None
        if metric is not None:
            th = metric.nodes
            transform = np.exp(-1j * (th @ mean) - 0.5 * np.einsum("mi,ij,mj->m", th, cov, th))
        summaries.append(OracleSummary(k, mean, np.diag(cov).copy(), transform))
    return summaries


def kalman_sensor(signal: SignalModel, obs: ObservationModel) -> ClippedLinearSensor:
    """The sensor, once the scenario is one the Kalman posterior solves exactly."""
    gaussian_prior = signal.initial_law.kind in ("point", "gaussian")
    if not (isinstance(obs.sensor, ClippedLinearSensor) and signal.alpha == 2.0 and gaussian_prior):
        raise ValueError(
            "kalman needs observation.sensor = clipped_linear, "
            "signal.alpha = 2 and signal.initial_law = point or gaussian"
        )
    return obs.sensor


class ClipRegionError(RuntimeError):
    """The truth or a particle left the sensor's linear region, where Kalman is exact."""


def clip_margin(sensor: ClippedLinearSensor, point_sets) -> float:
    """Clip bound minus the largest |Bx| over the point sets (the truth, the particles);
    ClipRegionError when it is not positive."""
    projections = [np.abs(points @ sensor.matrix.T).max() for points in point_sets if len(points)]
    largest = float(max(projections, default=0.0))
    if largest >= sensor.clip:
        raise ClipRegionError(
            f"observation.linear_clip: clip region violated (|Bx| reached {largest:.2f} "
            f">= {sensor.clip}); scenario invalid for the kalman oracle"
        )
    return sensor.clip - largest


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
