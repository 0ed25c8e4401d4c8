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

import csv
import io
from dataclasses import dataclass
from typing import Union

import numpy as np

from .stable import SignalModel, sample_increment

__all__ = [
    "GaussianBumpSensor",
    "ClippedLinearSensor",
    "ZeroSensor",
    "Sensor",
    "ObservationModel",
    "ObservationRecord",
    "csv_text",
    "simulate_scenario",
    "weight",
    "branch_residual",
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
        pts = np.asarray(x, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] == 1:  # |x - c|^2 is one square: no sum over a length-1 axis
            diff = pts - self.centers[:, 0]
            sq = diff * diff
        else:
            diff = pts[:, None, :] - self.centers[None, :, :]
            sq = np.sum(diff * diff, axis=2)
        vals = self.amplitudes * np.exp(-0.5 * sq / (self.widths**2))
        return vals[0] if squeeze else vals

    def hh_sup_bound(self) -> float:
        return float(np.sum(self.amplitudes**2))


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
        pts = np.asarray(x, dtype=float)
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if self.matrix.shape == (1, 1):  # one output of one coordinate: no matmul
            vals = np.clip(pts * self.matrix[:, 0], -self.clip, self.clip)
        else:
            vals = np.clip(pts @ self.matrix.T, -self.clip, self.clip)
        return vals[0] if squeeze else vals

    def hh_sup_bound(self) -> float:
        return float(self.observation_dim) * self.clip**2


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
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            return np.zeros(self.d2)
        return np.zeros((pts.shape[0], self.d2))

    def hh_sup_bound(self) -> float:
        return 0.0


Sensor = Union[GaussianBumpSensor, ClippedLinearSensor, ZeroSensor]

_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d"}
_CSV_BLOCK_ROWS = 4096  # rows per `%`: bounds the size of the value tuple and the template


def csv_text(header, columns) -> str:
    """CSV text of equal-length columns: floats as %.17g (lossless), integers in decimal, else str.

    Each block of rows is formatted by one ``%`` on a template of the block's
    rows, with the values interleaved row by row into one tuple.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join(_CSV_FORMATS.get(c.dtype.kind, "%s") for c in columns) + "\n"
    width = len(columns)
    rows = len(columns[0]) if columns else 0
    parts = [",".join(header) + "\n"]
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, rows)
        values = [None] * ((stop - start) * width)
        for j, column in enumerate(columns):
            values[j::width] = column[start:stop].tolist()
        parts.append(row * (stop - start) % tuple(values))
    return "".join(parts)


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
    """Observation increments dY_k for k = 1..K, with optional synthetic truth."""

    increments: np.ndarray          # (K, d2)
    epsilon: float
    truth: np.ndarray | None = None  # (K, d1) signal states at t_1..t_K

    def __post_init__(self):
        self.increments = np.atleast_2d(np.asarray(self.increments, dtype=float))
        if self.truth is not None:
            self.truth = np.atleast_2d(np.asarray(self.truth, dtype=float))
            if self.truth.shape[0] != self.increments.shape[0]:
                raise ValueError("truth and increments must have the same number of epochs")

    @property
    def count(self) -> int:
        return self.increments.shape[0]

    @property
    def observation_dim(self) -> int:
        return self.increments.shape[1]

    def times(self) -> np.ndarray:
        return self.epsilon * np.arange(1, self.count + 1)

    def to_csv_text(self) -> str:
        """Rows (k, t_k, dY components, truth components) after an epsilon row; lossless."""
        header = ["k", "t"] + [f"dy{i}" for i in range(self.observation_dim)]
        columns = [np.arange(1, self.count + 1), self.times(), *self.increments.T]
        if self.truth is not None:
            header += [f"x{i}" for i in range(self.truth.shape[1])]
            columns += list(self.truth.T)
        return f"epsilon,{self.epsilon:.17g}\n" + csv_text(header, columns)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def from_csv_text(cls, text: str) -> "ObservationRecord":
        reader = csv.reader(io.StringIO(text))
        tag, eps = next(reader)
        if tag != "epsilon":
            raise ValueError("malformed observation CSV: missing epsilon row")
        header = next(reader)
        dy_cols = [i for i, name in enumerate(header) if name.startswith("dy")]
        x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
        increments, truth = [], []
        for row in reader:
            increments.append([float(row[i]) for i in dy_cols])
            if x_cols:
                truth.append([float(row[i]) for i in x_cols])
        return cls(
            increments=np.array(increments, dtype=float),
            epsilon=float(eps),
            truth=np.array(truth, dtype=float) if truth else None,
        )

    @classmethod
    def from_csv(cls, path) -> "ObservationRecord":
        with open(path, newline="") as fh:
            return cls.from_csv_text(fh.read())


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

    Returns (path, record) where path has K+1 rows (the initial state first)
    and record.truth keeps the K states at t_1..t_K.
    """
    eps = obs.epsilon
    if horizon < eps:
        raise ValueError("horizon must be at least one observation interval")
    K = epoch_count(horizon, eps)
    d1 = signal.dimension
    x0 = signal.initial_law.sample(1, rng)[0]
    steps = sample_increment(signal, eps, rng, size=K)
    path = np.vstack([x0, x0 + np.cumsum(steps, axis=0)])
    h_vals = np.atleast_2d(obs.sensor(path[1:]))
    noise = np.sqrt(eps) * rng.standard_normal((K, obs.observation_dim))
    increments = h_vals * eps + noise
    record = ObservationRecord(increments=increments, epsilon=eps, truth=path[1:].copy())
    assert path.shape == (K + 1, d1)
    return path, record


def weight(x, dy, obs: ObservationModel):
    """Centered likelihood ratio rho = exp(dy' h(x) - eps (h'h)(x)/2) - 1; always > -1."""
    h = np.atleast_1d(obs.sensor(x))
    dy = np.asarray(dy, dtype=float)
    if h.shape[-1] == 1:  # one output: dy'h and h'h are single products, no matmul or sum
        h = h[..., 0]
        return np.exp(h * dy[0] - 0.5 * obs.epsilon * (h * h)) - 1.0
    return np.exp(h @ dy - 0.5 * obs.epsilon * np.sum(h * h, axis=-1)) - 1.0


def branch_residual(rho):
    """Residual xi: rho itself when negative, else its fractional part; lies in (-1, 1)."""
    rho = np.asarray(rho, dtype=float)
    out = np.where(rho < 0.0, rho, rho - np.floor(rho))
    return float(out) if out.ndim == 0 else out


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
