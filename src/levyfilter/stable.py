"""Exact simulation and analytic characterization of multivariate stable processes.

A stable law on R^d is parameterized by an index ``alpha`` in (0, 2] and a
finite measure on the unit sphere.  This module restricts the sphere measure
to finitely many atoms, which makes increment sampling exact: every increment
is a weighted sum of independent one-dimensional totally skewed stable draws,
one per atom, with no time discretization.

Conventions
-----------
``characteristic_exponent`` returns l(theta) with

    E exp(i theta' (X_t - X_s)) = exp((t - s) * l(theta)),

so the standard one-dimensional variate (unit weight at z = +1) has
characteristic function exp(-|u|^alpha (1 - i sign(u) tan(alpha pi / 2)))
for alpha != 1; for alpha = 2 this is a centered Gaussian with variance 2.
``empirical_cf`` uses the opposite kernel exp(-i theta' x), matching the
Fourier-Stieltjes transform used by the spectral error metrics; its exact
counterpart is therefore ``increment_cf``, which evaluates
exp(dt * l(-theta)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import fourier

__all__ = [
    "SpectralMeasure",
    "InitialLaw",
    "SignalModel",
    "characteristic_exponent",
    "increment_cf",
    "sample_standard_stable_1d",
    "sample_increment",
    "empirical_cf",
    "directional_moment",
    "covariance_rate",
    "quadratic_variation_paths",
    "quadratic_variation_estimate",
]

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic measure on the unit sphere: rows of unit directions and positive weights."""

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if directions.shape[0] != weights.shape[0]:
            raise ValueError("number of directions and weights must match")
        if weights.shape[0] == 0:
            raise ValueError("spectral measure needs at least one atom")
        norms = np.linalg.norm(directions, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
            raise ValueError("directions must be unit vectors (tolerance 1e-12)")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive and finite")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "weights", weights)

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def to_records(self) -> list[dict]:
        return [
            {"direction": list(map(float, z)), "weight": float(w)}
            for z, w in zip(self.directions, self.weights)
        ]

    @classmethod
    def from_records(cls, records) -> "SpectralMeasure":
        directions = np.array([r["direction"] for r in records], dtype=float)
        weights = np.array([r["weight"] for r in records], dtype=float)
        return cls(directions, weights)


@dataclass(frozen=True)
class InitialLaw:
    """Initial distribution: point mass, product Gaussian, or product uniform."""

    kind: str
    center: np.ndarray
    scale: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.kind not in ("point", "gaussian", "uniform"):
            raise ValueError(f"unknown initial law kind {self.kind!r}")
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        if self.kind == "point":
            object.__setattr__(self, "scale", np.zeros_like(center))
        else:
            scale = np.atleast_1d(np.asarray(self.scale, dtype=float))
            if scale.shape != center.shape:
                raise ValueError("scale and center must have the same shape")
            if np.any(scale <= 0.0):
                raise ValueError("scale entries must be positive")
            object.__setattr__(self, "scale", scale)

    @classmethod
    def point(cls, x) -> "InitialLaw":
        return cls("point", x)

    @classmethod
    def gaussian(cls, mean, std) -> "InitialLaw":
        return cls("gaussian", mean, std)

    @classmethod
    def uniform(cls, center, halfwidth) -> "InitialLaw":
        return cls("uniform", center, halfwidth)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        d = self.dimension
        if self.kind == "point":
            return np.tile(self.center, (count, 1))
        if self.kind == "gaussian":
            return self.center + self.scale * rng.standard_normal((count, d))
        return self.center + self.scale * rng.uniform(-1.0, 1.0, size=(count, d))

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """Density at ``points`` of shape (m, d); undefined for a point mass."""
        if self.kind == "point":
            raise ValueError("point mass has no density")
        x = (np.atleast_2d(points) - self.center) / self.scale
        if self.kind == "gaussian":
            vals = np.exp(-0.5 * np.sum(x * x, axis=1))
            vals /= (2.0 * np.pi) ** (self.dimension / 2.0) * np.prod(self.scale)
            return vals
        inside = np.all(np.abs(x) <= 1.0, axis=1)
        return inside / np.prod(2.0 * self.scale)


@dataclass(frozen=True)
class SignalModel:
    """Stable signal law: index alpha, atomic sphere measure, initial distribution."""

    alpha: float
    spectral: SpectralMeasure
    initial_law: InitialLaw

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if self.initial_law.dimension != self.spectral.dimension:
            raise ValueError("initial law dimension must match spectral measure dimension")

    @property
    def dimension(self) -> int:
        return self.spectral.dimension


def _as_theta_matrix(theta, dimension: int) -> tuple[np.ndarray, bool]:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 0:
        theta = theta.reshape(1, 1)
        return theta, True
    if theta.ndim == 1:
        if dimension == 1 and theta.shape[0] != 1:
            # a flat list of scalar frequencies for a 1-d model
            return theta.reshape(-1, 1), False
        return theta.reshape(1, -1), True
    return theta, False


def characteristic_exponent(theta, model: SignalModel):
    """Exponent l(theta) with E exp(i theta'(X_t - X_s)) = exp((t-s) l(theta)).

    Accepts a single frequency vector or a (k, d) batch.  The real part is
    always <= 0, l(0) = 0, and l(-theta) = conj(l(theta)); for alpha = 2 the
    imaginary part vanishes identically.
    """
    th, single = _as_theta_matrix(theta, model.dimension)
    proj = th @ model.spectral.directions.T  # (k, atoms)
    mag = np.abs(proj)
    alpha = model.alpha
    if alpha == 1.0:
        safe = np.where(mag > 0.0, mag, 1.0)
        integrand = mag * (1.0 + 1j * (2.0 / np.pi) * np.sign(proj) * np.log(safe))
    else:
        # tan(pi) is exactly 0 for alpha = 2; avoid the 1e-16 residue of np.tan
        skew = 0.0 if alpha == 2.0 else np.tan(np.pi * alpha / 2.0)
        integrand = mag**alpha * (1.0 - 1j * np.sign(proj) * skew)
    out = -(integrand @ model.spectral.weights)
    return complex(out[0]) if single else out


def increment_cf(model: SignalModel, dt: float, theta):
    """Exact E exp(-i theta' Delta) for an increment of duration dt.

    This is the analytic counterpart of ``empirical_cf`` (which also uses the
    exp(-i theta' x) kernel) and equals exp(dt * l(-theta)).
    """
    th, single = _as_theta_matrix(theta, model.dimension)
    vals = np.exp(dt * characteristic_exponent(-th, model))
    return complex(vals[0]) if single else vals


def sample_standard_stable_1d(alpha: float, rng: np.random.Generator, size=None):
    """Draw the standard totally skewed stable variate of index alpha.

    The returned W satisfies E exp(iuW) = exp(-|u|^alpha (1 - i sign(u)
    tan(alpha pi/2))) for alpha != 1; alpha = 1 uses the logarithmic form
    exp(-|u| (1 + i (2/pi) sign(u) ln|u|)); alpha = 2 is N(0, 2).
    Uses the Chambers-Mallows-Stuck transform.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if alpha == 2.0:
        return rng.normal(scale=np.sqrt(2.0), size=size)
    shape = () if size is None else size
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=shape)
    w = rng.standard_exponential(size=shape)
    if alpha == 1.0:
        half_pi = np.pi / 2.0
        return (2.0 / np.pi) * (
            (half_pi + v) * np.tan(v)
            - np.log((half_pi * w * np.cos(v)) / (half_pi + v))
        )
    skew = np.tan(np.pi * alpha / 2.0)
    b = np.arctan(skew) / alpha
    scale = (1.0 + skew * skew) ** (1.0 / (2.0 * alpha))
    return (
        scale
        * np.sin(alpha * (v + b))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_increment(model: SignalModel, dt: float, rng: np.random.Generator, size=None):
    """Exact increment draw(s) over duration dt > 0.

    Decomposes the increment as sum_j c_j(dt) W_j z_j over the atoms, with the
    per-atom scales chosen so the characteristic function is exp(dt*l(theta));
    alpha = 1 carries the deterministic per-atom logarithmic drift correction
    that the scaling of the alpha = 1 law requires.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    count = 1 if size is None else int(size)
    alpha = model.alpha
    weights = model.spectral.weights
    directions = model.spectral.directions
    scales = dt * weights if alpha == 1.0 else (dt * weights) ** (1.0 / alpha)
    draws = sample_standard_stable_1d(alpha, rng, size=(count, weights.shape[0]))
    draws *= scales
    # one atom: a product, bit-equal to the matmul and ~7x faster on (count, 1) arrays
    out = draws * directions if weights.shape[0] == 1 else draws @ directions
    if alpha == 1.0:
        out += (2.0 / np.pi) * (scales * np.log(scales)) @ directions
    return out[0] if size is None else out


def empirical_cf(samples, theta):
    """(1/N) sum_j exp(-i theta' x_j) over the sample list.

    Modulus is at most 1 and the value at theta = 0 is exactly 1.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empirical_cf requires a nonempty sample list")
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    th, single = _as_theta_matrix(theta, x.shape[1])
    vals = fourier(x, None, th) / x.shape[0]
    return complex(vals[0]) if single else vals


def directional_moment(spectral: SpectralMeasure, theta, power: float) -> float:
    """Integral of |theta' z|^power against the sphere measure."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    proj = spectral.directions @ theta
    return float(np.abs(proj) ** power @ spectral.weights)


def covariance_rate(spectral: SpectralMeasure) -> np.ndarray:
    """Per-unit-time covariance 2 * integral of z z' for the alpha = 2 case."""
    z = spectral.directions
    return 2.0 * (z.T * spectral.weights) @ z


def quadratic_variation_paths(
    model: SignalModel,
    theta,
    t: float,
    partition_count: int,
    replication_count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-path summed squared increments of exp(-i theta' Z) over [0, t].

    Each path is simulated exactly on a uniform partition; the sum converges
    to 2t * integral |theta' z|^alpha as the partition refines, and for
    alpha = 2 the limit is deterministic.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if partition_count < 100:
        raise ValueError("partition_count must be at least 100")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    dt = t / partition_count
    out = np.empty(replication_count)
    for r in range(replication_count):
        increments = sample_increment(model, dt, rng, size=partition_count)
        phases = increments @ theta
        out[r] = float(np.sum(np.abs(np.exp(-1j * phases) - 1.0) ** 2))
    return out


def quadratic_variation_estimate(
    model: SignalModel,
    theta,
    t: float,
    partition_count: int,
    replication_count: int,
    rng: np.random.Generator,
) -> float:
    """Replication average of ``quadratic_variation_paths``."""
    return float(
        quadratic_variation_paths(
            model, theta, t, partition_count, replication_count, rng
        ).mean()
    )
