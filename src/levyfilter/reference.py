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
reads its reference posterior, of either kind, and its clip check (``clip_reach``,
``clip_margin``) from one ``Oracle`` value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .metrics import fourier
from .observation import ClippedLinearSensor, ObservationModel, Scenario, weight
from .stable import InitialLaw, SignalModel, covariance_rate, increment_cf

__all__ = [
    "GridAccuracyWarning",
    "GridDomainError",
    "GridFilter",
    "MAX_GRID_CELLS",
    "build_grid",
    "predict_step",
    "update_step",
    "grid_transform",
    "OracleSummary",
    "run_reference",
    "Oracle",
    "kalman_sensor",
    "ClipRegionError",
    "kalman_reference",
]


class GridAccuracyWarning(UserWarning):
    """Discretization diagnostics exceeded their comfort thresholds."""


class GridDomainError(ValueError):
    """The spatial domain is too small for the requested initial law."""


# The accuracy tests on each predicted grid: (what, largest fraction of its mass, why, and
# the config key to change).
_ACCURACY_TESTS = (
    ("clamped mass", 1e-3, "negative lobes of the band-limited inversion were set to zero; "
     "raise oracle.grid_points"),
    ("boundary cells hold", 1e-4, "periodic wrap-around may bite; widen oracle.grid_halfwidth"),
)
_INITIAL_MASS_OUTSIDE_TOL = 1e-6

# Most cells a grid oracle may hold, checked before anything is allocated: the grid filter
# keeps about 140 bytes per cell, so 2**22 cells take about 0.6 GB.
MAX_GRID_CELLS = 2**22


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
        flat = self.density.reshape(-1)
        return (flat @ (self.points - self.mean) ** 2) / self.density.sum()

    def boundary_mass_fraction(self) -> float:
        total = self.density.sum()
        if total <= 0.0:
            return 0.0
        inner = self.density
        for axis in range(self.dimension):
            inner = np.take(inner, np.arange(1, inner.shape[axis] - 1), axis=axis)
        return float(1.0 - inner.sum() / total)


def _mesh(axes) -> np.ndarray:
    """The (cells, d) rows of the grid spanned by ``axes``, in C order."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def _grid_axes(domain_halfwidth: float, points_per_axis: int, d: int) -> tuple:
    """The cell centres of each axis of the grid on [-domain_halfwidth, domain_halfwidth]^d."""
    delta = 2.0 * domain_halfwidth / points_per_axis
    return tuple(-domain_halfwidth + (np.arange(points_per_axis) + 0.5) * delta for _ in range(d))


def _check_domain(law: InitialLaw, axes: tuple) -> None:
    """GridDomainError unless the grid spanned by ``axes`` holds the initial law: a point
    mass inside the domain, or all but 1e-6 of a density's mass."""
    edges_lo = np.array([a[0] - 0.5 * (a[1] - a[0]) for a in axes])
    edges_hi = np.array([a[-1] + 0.5 * (a[1] - a[0]) for a in axes])
    if law.kind == "point":
        if np.any(law.center < edges_lo) or np.any(law.center > edges_hi):
            raise GridDomainError("point mass lies outside the grid domain")
        return
    coverage = 1.0
    for lo, hi, mu, scale in zip(edges_lo, edges_hi, law.center, law.scale):
        if law.kind == "gaussian":
            coverage *= _norm_cdf((hi - mu) / scale) - _norm_cdf((lo - mu) / scale)
        else:  # uniform, of halfwidth ``scale``
            coverage *= max(0.0, min(hi, mu + scale) - max(lo, mu - scale)) / (2.0 * scale)
    if 1.0 - coverage > _INITIAL_MASS_OUTSIDE_TOL:
        raise GridDomainError(
            f"initial mass outside the domain is {1.0 - coverage:.3e} (> 1e-06); enlarge the grid"
        )


def _initial_density(signal: SignalModel, axes: tuple, points, cell_volume: float) -> np.ndarray:
    law = signal.initial_law
    _check_domain(law, axes)
    shape = tuple(a.size for a in axes)
    if law.kind == "point":
        density = np.zeros(shape)
        idx = tuple(int(np.argmin(np.abs(a - c))) for a, c in zip(axes, law.center))
        density[idx] = 1.0 / cell_volume
        return density
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
    if points_per_axis**d > MAX_GRID_CELLS:
        raise ValueError(f"{points_per_axis}**{d} grid cells exceed the cap {MAX_GRID_CELLS}")
    delta = 2.0 * domain_halfwidth / points_per_axis
    axes = _grid_axes(domain_halfwidth, points_per_axis, d)
    cell_volume = float(delta**d)
    points = _mesh(axes)
    density = _initial_density(signal, axes, points, cell_volume)
    thetas = _mesh([2.0 * np.pi * np.fft.fftfreq(points_per_axis, d=delta) for _ in range(d)])
    multiplier = increment_cf(signal, epsilon, thetas).reshape(density.shape)
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
    scenario: Scenario,
    *,
    domain_halfwidth: float,
    points_per_axis: int,
    theta_grid=None,
) -> tuple[list, GridFilter]:
    """Alternate predict and update over the scenario's record; per-epoch summaries (with the
    transform on ``theta_grid``, nodes or a ``FrequencyGrid``, if given) plus the final grid.

    Each predicted grid is held to the ``_ACCURACY_TESTS`` thresholds; a threshold that
    any epoch crosses gives one GridAccuracyWarning after the run, with its worst epoch.
    """
    grid = build_grid(scenario.signal, scenario.obs.epsilon, domain_halfwidth, points_per_axis)
    summaries = [_summarize(grid, 0, theta_grid)]
    fractions = []  # per epoch: clamped and boundary-cell fraction of the predicted mass
    for k in range(1, scenario.count + 1):
        grid = predict_step(grid)
        total = grid.total_mass
        clamped = grid.last_clamped / total if total > 0.0 else 0.0
        fractions.append((clamped, grid.boundary_mass_fraction()))
        grid = update_step(grid, scenario.increments[k - 1], scenario.obs)
        summaries.append(_summarize(grid, k, theta_grid))
    for column, (what, limit, why) in zip(np.reshape(fractions, (-1, 2)).T, _ACCURACY_TESTS):
        over = int(np.sum(column > limit))
        if over:
            worst = int(np.argmax(column))  # the first of equally bad epochs
            warnings.warn(
                f"{what} fraction {column[worst]:.3e} of the mass at epoch {worst + 1} "
                f"(worst of {over} of {scenario.count} epochs over {limit:.0e}); {why}",
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


@dataclass(frozen=True)
class Oracle:
    """The reference posterior every command compares against.

    ``kind`` "grid" is the unnormalized grid filter (``run_reference``, which judges its
    accuracy) on ``grid_points`` cells per axis over [-grid_halfwidth, grid_halfwidth];
    "kalman" is the exact normalized Gaussian posterior, which carries no grid size and is
    the filter only while the truth and every particle stay inside the sensor's linear
    region.  Any other kind, or grid sizes that do not match the kind, raise ValueError.
    """

    kind: str
    grid_points: int | None = None
    grid_halfwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("grid", "kalman"):
            raise ValueError(f"no reference posterior for oracle kind {self.kind!r}")
        if (self.grid_points, self.grid_halfwidth).count(None) != (0 if self.kind == "grid" else 2):
            raise ValueError("the grid oracle takes grid_points and grid_halfwidth, kalman neither")

    @property
    def normalized(self) -> bool:
        """Whether the posterior is a probability (kalman) rather than the filter's mass."""
        return self.kind == "kalman"

    def summaries(self, scenario: Scenario, metric=None) -> list:
        """One summary per epoch 0..K of the scenario's record; with ``metric`` each carries
        the transform on its nodes.  The kalman posterior needs a scenario ``kalman_sensor``
        accepts.
        """
        if self.kind == "grid":
            return run_reference(
                scenario,
                domain_halfwidth=self.grid_halfwidth,
                points_per_axis=self.grid_points,
                theta_grid=metric,
            )[0]
        signal, obs = scenario.signal, scenario.obs
        law = signal.initial_law
        cov0 = np.diag(law.scale**2)  # a point law's scale is zero
        matrix, rate = kalman_sensor(signal, obs).matrix, covariance_rate(signal.spectral)
        dy, eps = scenario.increments, obs.epsilon
        means, covs = kalman_reference(dy, eps, matrix, law.center, cov0, rate)
        summaries = []
        for k, (mean, cov) in enumerate(zip([law.center, *means], [cov0, *covs])):
            transform = None
            if metric is not None:
                th = metric.nodes
                transform = np.exp(-1j * (th @ mean) - 0.5 * np.einsum("mi,ij,mj->m", th, cov, th))
            summaries.append(OracleSummary(k, mean, np.diag(cov).copy(), transform))
        return summaries

    def clip_reach(self, sensor, points) -> float:
        """The largest |Bx| over the rows of ``points``, the map the sensor clips, 0.0 for
        no rows; always 0.0 for the grid, which has no clip region."""
        if self.kind != "kalman" or not len(points):
            return 0.0
        return float(np.abs(sensor.linear(points)).max())

    def clip_margin(self, sensor, reach: float) -> float:
        """The clip bound minus ``reach``, the largest ``clip_reach`` of a run; ClipRegionError
        when it is not positive.  inf for the grid, which has no such region."""
        if self.kind != "kalman":
            return math.inf
        if reach >= sensor.clip:
            raise ClipRegionError(
                f"observation.linear_clip: clip region violated (|Bx| reached {reach:.2f} "
                f">= {sensor.clip}); scenario invalid for the kalman oracle"
            )
        return sensor.clip - reach


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
    """The truth or a weighed particle left the sensor's linear region, where Kalman is exact."""


def kalman_reference(
    increments,
    epsilon: float,
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
    K = len(increments)
    means = np.empty((K, d1))
    covs = np.empty((K, d1, d1))
    eye = np.eye(d1)
    for k in range(K):
        P = P + epsilon * Q
        z = increments[k] / epsilon
        S = H @ P @ H.T + np.eye(d2) / epsilon
        gain = P @ H.T @ np.linalg.inv(S)
        m = m + gain @ (z - H @ m)
        P = (eye - gain @ H) @ P
        means[k] = m
        covs[k] = P
    return means, covs
