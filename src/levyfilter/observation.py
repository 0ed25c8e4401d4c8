"""Observation channel, branching weights, and scenario generation.

Observations arrive on the regular schedule t_k = k * epsilon as increments

    dY_k = h(X_{t_k}) * epsilon + (V_{t_k} - V_{t_{k-1}}),

with V a standard Brownian motion independent of the signal.  The centered
likelihood ratio

    rho_k(x) = exp(dY_k' h(x) - epsilon (h'h)(x) / 2) - 1

drives the branching rule: a particle with rho >= 0 is replaced by
floor(rho) + 1 copies plus one more with probability rho - floor(rho), and a
particle with rho < 0 is killed with probability |rho|.  Expected offspring is
1 + rho in both branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .metrics import _rows
from .stable import SignalModel, sample_increment

__all__ = [
    "GaussianBumpSensor",
    "ClippedLinearSensor",
    "ZeroSensor",
    "Sensor",
    "ObservationModel",
    "ObservationRecord",
    "simulate_scenario",
    "weight",
    "offspring_parameters",
]


@dataclass(frozen=True)
class GaussianBumpSensor:
    """h_i(x) = a_i * exp(-|x - c_i|^2 / (2 s_i^2)); rapidly decreasing and bounded."""

    amplitudes: np.ndarray  # (d2,)
    centers: np.ndarray     # (d2, d1)
    widths: np.ndarray      # (d2,)

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        s = np.atleast_1d(np.asarray(self.widths, dtype=float))
        if not (a.shape[0] == c.shape[0] == s.shape[0]):
            raise ValueError("amplitudes, centers and widths must have one entry per output")
        if np.any(s <= 0.0):
            raise ValueError("widths must be positive")
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "widths", s)

    @property
    def observation_dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def signal_dim(self) -> int:
        return self.centers.shape[1]

    def __call__(self, x) -> np.ndarray:
        pts = _rows(x, self.signal_dim)
        if pts.shape[1] == 1:  # |x - c|^2 is one square: no sum over a length-1 axis
            sq = pts - self.centers[:, 0]
            sq *= sq
        else:
            diff = pts[:, None, :] - self.centers[None, :, :]
            diff *= diff
            sq = np.sum(diff, axis=2)
        sq *= -0.5
        sq /= self.widths**2
        np.exp(sq, out=sq)
        sq *= self.amplitudes
        return sq


@dataclass(frozen=True)
class ClippedLinearSensor:
    """h(x) = clamp(B x, -clip, clip) elementwise; linear inside the clip region."""

    matrix: np.ndarray  # (d2, d1)
    clip: float

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if self.clip <= 0.0:
            raise ValueError("clip bound must be positive")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "clip", float(self.clip))

    @property
    def observation_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def signal_dim(self) -> int:
        return self.matrix.shape[1]

    def __call__(self, x) -> np.ndarray:
        return np.clip(_rows(x, self.signal_dim) @ self.matrix.T, -self.clip, self.clip)


@dataclass(frozen=True)
class ZeroSensor:
    """h identically zero: the pure-noise channel."""

    d2: int
    d1: int

    @property
    def observation_dim(self) -> int:
        return self.d2

    @property
    def signal_dim(self) -> int:
        return self.d1

    def __call__(self, x) -> np.ndarray:
        return np.zeros((_rows(x, self.d1).shape[0], self.d2))


Sensor = Union[GaussianBumpSensor, ClippedLinearSensor, ZeroSensor]

@dataclass(frozen=True)
class ObservationModel:
    """Sensor plus the inter-observation interval epsilon in (0, 1]."""

    sensor: Sensor
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")

    @property
    def observation_dim(self) -> int:
        return self.sensor.observation_dim


@dataclass
class ObservationRecord:
    """Observation increments dY_k for k = 1..K, taken at t_k = k * epsilon.

    The increments are rows (``metrics._rows``): a flat array is consecutive epochs of width 1.
    """

    increments: np.ndarray  # (K, d2)
    epsilon: float

    def __post_init__(self):
        self.increments = _rows(self.increments)

    @property
    def count(self) -> int:
        return self.increments.shape[0]

    @property
    def observation_dim(self) -> int:
        return self.increments.shape[1]


def _check_record(obs: ObservationModel, record: ObservationRecord) -> float:
    """The interval epsilon that the model and the record must share; ValueError if the
    epsilons differ or the record's increments are not as wide as the sensor's output."""
    if record.epsilon != obs.epsilon:
        raise ValueError(
            f"the record's epsilon {record.epsilon!r} differs from the observation model's "
            f"epsilon {obs.epsilon!r}"
        )
    if record.observation_dim != obs.observation_dim:
        raise ValueError(
            f"the record's increments have width {record.observation_dim} but the sensor "
            f"gives {obs.observation_dim}-d observations"
        )
    return obs.epsilon


def epoch_count(horizon: float, epsilon: float) -> int:
    """K = floor(horizon / epsilon), robust to floating division of exact multiples."""
    return int(np.floor(horizon / epsilon + 1e-9))


def simulate_scenario(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ObservationRecord]:
    """Sample a truth path at the observation epochs and its observation record.

    Returns (path, record): path has K+1 rows, the initial state first and then
    the states at t_1..t_K; record holds the K increments observed along it.
    """
    eps = obs.epsilon
    if horizon < eps:
        raise ValueError("horizon must be at least one observation interval")
    K = epoch_count(horizon, eps)
    x0 = signal.initial_law.sample(1, rng)[0]
    steps = sample_increment(signal, eps, rng, size=K)
    path = np.vstack([x0, x0 + np.cumsum(steps, axis=0)])
    noise = np.sqrt(eps) * rng.standard_normal((K, obs.observation_dim))
    increments = obs.sensor(path[1:]) * eps + noise
    return path, ObservationRecord(increments=increments, epsilon=eps)


def weight(x, dy, obs: ObservationModel):
    """Centered likelihood ratio rho = exp(dy' h(x) - eps (h'h)(x)/2) - 1 > -1, one per row of x.

    ``dy`` is one row of width ``obs.observation_dim`` (ValueError otherwise).
    """
    h = obs.sensor(x)
    rows = _rows(dy, obs.observation_dim)
    if rows.shape[0] != 1:
        raise ValueError(
            f"expected one row of width {obs.observation_dim}, got an array of shape {np.shape(dy)}"
        )
    dy = rows[0]
    if h.shape[1] == 1:  # one output: dy'h and h'h are single products, no matmul or sum
        h = h[:, 0]
        hh = h * h
        exponent = h  # the sensor's output is fresh: reuse it
        exponent *= dy[0]
    else:
        hh = np.sum(h * h, axis=1)
        exponent = h @ dy
    hh *= 0.5 * obs.epsilon
    exponent -= hh
    np.exp(exponent, out=exponent)
    exponent -= 1.0
    return exponent


def offspring_parameters(rho):
    """Branching rule parameters (base_count, extra_prob, kill_prob) for weight rho > -1.

    rho >= 0: floor(rho) + 1 certain copies plus one extra with probability
    rho - floor(rho); rho < 0: one copy killed with probability |rho|.  The
    expected offspring count is exactly 1 + rho (drawn by ``branching._offspring_counts``).
    """
    r = np.asarray(rho, dtype=float)
    if np.any(r <= -1.0):
        raise ValueError("branching weight must exceed -1")
    neg = r < 0.0
    fl = np.floor(r)
    base = np.where(neg, 1, fl + 1).astype(int)
    extra = np.where(neg, 0.0, r - fl)
    kill = np.where(neg, -r, 0.0)
    if r.ndim == 0:
        return int(base), float(extra), float(kill)
    return base, extra, kill
