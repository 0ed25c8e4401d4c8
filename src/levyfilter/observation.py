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

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .metrics import _model_array, _rows
from .stable import SignalModel, lag_scales, sample_increment

__all__ = [
    "GaussianBumpSensor",
    "ClippedLinearSensor",
    "ZeroSensor",
    "Sensor",
    "ObservationModel",
    "Scenario",
    "MAX_EPOCHS",
    "simulate_scenario",
    "weight",
    "weight_bounds",
    "WEIGHT_BOUND_MARGIN",
    "offspring_parameters",
]


@dataclass(frozen=True)
class GaussianBumpSensor:
    """h_i(x) = a_i * exp(-|x - c_i|^2 / (2 s_i^2)); rapidly decreasing and bounded."""

    amplitudes: np.ndarray  # (d2,)
    centers: np.ndarray     # (d2, d1)
    widths: np.ndarray      # (d2,)

    def __post_init__(self):
        a = _model_array(self.amplitudes, 1, "amplitudes")
        c = _model_array(self.centers, 2, "centers")
        s = _model_array(self.widths, 1, "widths")
        if not (a.shape[0] == c.shape[0] == s.shape[0]):
            raise ValueError("amplitudes, centers and widths must have one entry per output")
        if np.any(s <= 0.0) or np.any(s**2 == 0.0):
            raise ValueError("widths must be positive, with a positive square")
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "widths", s)

    @property
    def observation_dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def signal_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def output_box(self) -> tuple:
        """(low, high) per output: h_i lies between 0 and a_i."""
        return np.minimum(self.amplitudes, 0.0), np.maximum(self.amplitudes, 0.0)

    def __call__(self, x) -> np.ndarray:
        pts = _rows(x, self.signal_dim)
        sq = pts[:, :1] - self.centers[:, 0]  # |x - c|^2, summed coordinate by coordinate
        sq *= sq
        for j in range(1, pts.shape[1]):
            term = pts[:, j, None] - self.centers[:, j]
            term *= term
            sq += term
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
        m = _model_array(self.matrix, 2, "matrix")
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

    @property
    def output_box(self) -> tuple:
        """(low, high) per output: [-clip, clip]."""
        clip = np.full(self.observation_dim, self.clip)
        return -clip, clip

    def linear(self, x) -> np.ndarray:
        """The unclipped map B x, one row per row of ``x``."""
        pts = _rows(x, self.signal_dim)
        # one input: single products, bit-equal to the matmul and ~4x faster on (n, 1) arrays
        return pts * self.matrix.T if self.signal_dim == 1 else pts @ self.matrix.T

    def __call__(self, x) -> np.ndarray:
        return np.clip(self.linear(x), -self.clip, self.clip)


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

    @property
    def output_box(self) -> tuple:
        """(low, high) per output: h is 0."""
        return np.zeros(self.d2), np.zeros(self.d2)

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


@dataclass(frozen=True)
class Scenario:
    """One observation record: the increments dY_k of epochs k = 1..K, observed at
    t_k = k * obs.epsilon through the models, and the ``truth`` path (K+1 rows, the initial
    state first) when it was simulated.

    The increments are rows (``metrics._rows``): a flat array is consecutive epochs of width 1.
    The one object that holds a record and the one place that checks it: ValueError unless
    the sensor takes the signal's points and gives the increments' width.  It holds what
    every run on the record reads, built once: ``bounds``, each epoch's thinning bound
    (``weight_bounds``), and ``table``, the increment ``lag_scales`` up to lag K when a bound
    of epochs 1..K-1 is below 1 (a run without a reducer thins there), else up to lag 1.
    """

    signal: SignalModel
    obs: ObservationModel
    increments: np.ndarray  # (K, d2)
    truth: np.ndarray | None = None
    bounds: np.ndarray = field(init=False, repr=False)
    table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _check_sensor_input(self.signal, self.obs)
        object.__setattr__(self, "increments", _rows(self.increments))
        bounds = weight_bounds(self.obs, self.increments)  # checks the width against obs
        lags = self.count if np.any(bounds[:-1] < 1.0) else 1
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "table", lag_scales(self.signal, self.obs.epsilon, lags))

    @property
    def count(self) -> int:
        return self.increments.shape[0]


def _check_sensor_input(signal: SignalModel, obs: ObservationModel) -> None:
    """ValueError, naming both dimensions, unless the sensor takes the signal's points."""
    takes, dimension = obs.sensor.signal_dim, signal.dimension
    if takes != dimension:
        raise ValueError(f"sensor takes {takes}-d points but the signal is {dimension}-d")


# The most observation epochs a record may have: its increments, its truth and its lag table
# then take at most 8 MiB per column.
MAX_EPOCHS = 2**20


def epoch_count(horizon: float, epsilon: float) -> int:
    """K = floor(horizon / epsilon), robust to floating division of exact multiples; any K
    past MAX_EPOCHS, even one too large for an integer, reads MAX_EPOCHS + 1."""
    return int(min(np.floor(horizon / epsilon + 1e-9), MAX_EPOCHS + 1))


def simulate_scenario(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    rng: np.random.Generator,
) -> Scenario:
    """Sample a truth path at the observation epochs and its observation record.

    Returns their ``Scenario``: ``truth`` has K+1 rows, the initial state first and then
    the states at t_1..t_K; ``increments`` holds the K increments observed along it.
    """
    eps = obs.epsilon
    if horizon < eps:
        raise ValueError("horizon must be at least one observation interval")
    _check_sensor_input(signal, obs)  # before the truth's draws
    K = epoch_count(horizon, eps)
    if K > MAX_EPOCHS:
        raise ValueError(f"horizon / epsilon gives more than MAX_EPOCHS = {MAX_EPOCHS} epochs")
    x0 = signal.initial_law.sample(1, rng)[0]
    steps = sample_increment(signal, eps, rng, size=K)
    path = np.vstack([x0, x0 + np.cumsum(steps, axis=0)])
    noise = np.sqrt(eps) * rng.standard_normal((K, obs.observation_dim))
    increments = obs.sensor(path[1:]) * eps + noise
    return Scenario(signal, obs, increments, truth=path)


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


# weight() returns 1 + rho from exp() and subtracts 1, so its rounding is a few units in the
# last place of 1 + rho; the bound adds this share of 1 + rho (~1e-9), far above that.
WEIGHT_BOUND_MARGIN = 2.0**-30


def weight_bounds(obs: ObservationModel, increments) -> np.ndarray:
    """Per epoch k, one row of ``increments``, a bound p_k >= |rho_k(x)| for every x, from
    the sensor's output box, capped at 1 (a weight of 1 or more leaves no uniform untouched).

    The exponent dY'h - eps h'h / 2 is concave and separable in h, so over the box its
    largest value G+ is at h_i = clamp(dY_i / eps) and its smallest G- at a corner, per
    coordinate.  p_k = s + WEIGHT_BOUND_MARGIN * (1 + s) for s = max(e^G+ - 1, 1 - e^G-) > 0,
    which covers ``weight``'s rounding; s = 0 (a box of zero width) gives 0.  ValueError
    unless the increments have ``obs``'s observation width."""
    dy, eps = _rows(increments), obs.epsilon
    if dy.shape[1] != obs.observation_dim:
        raise ValueError(
            f"the record's increments have width {dy.shape[1]} but the sensor "
            f"gives {obs.observation_dim}-d observations"
        )
    low, high = obs.sensor.output_box

    def exponent(h):
        return dy * h - 0.5 * eps * h * h

    with np.errstate(over="ignore"):
        top = exponent(np.clip(dy / eps, low, high)).sum(axis=1)
        bottom = np.minimum(exponent(low), exponent(high)).sum(axis=1)
        s = np.maximum(np.expm1(top), -np.expm1(bottom))
    bound = np.where(s > 0.0, s + WEIGHT_BOUND_MARGIN * (1.0 + s), 0.0)
    return np.minimum(bound, 1.0)


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
