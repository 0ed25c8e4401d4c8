"""Branching particle system: evolve, branch, estimate.

Particles move as independent copies of the signal between observation
epochs (exact stable increments, one per segment) and are independently
replaced by offspring at each epoch according to the centered likelihood
ratio at their own site.  The empirical measure assigns mass
``mass_factor / initial_count`` to every alive particle; ``mass_factor``
stays 1 unless population control is switched on.

Branching decisions consume one uniform per particle per epoch, compared
against the residual with the half-open convention (the event fires iff
U < threshold).  All randomness flows through explicit numpy Generators;
identical (parameters, stream state) gives bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .observation import ObservationModel, ObservationRecord, weight
from .stable import SignalModel, sample_increment

__all__ = [
    "ExtinctionError",
    "WeightOverflowError",
    "MAX_RHO",
    "ParticleEnsemble",
    "PopulationControl",
    "FilterStep",
    "FilterRun",
    "init_ensemble",
    "evolve_segment",
    "branch_step",
    "run_filter",
    "estimate",
    "empirical_fourier",
    "multinomial_baseline_step",
    "run_baseline",
    "population_control",
]


class ExtinctionError(RuntimeError):
    """All particles died; normalized estimates are undefined."""

    def __init__(self, time: float):
        super().__init__(f"particle system extinct at time {time:g}")
        self.time = time


# Largest branching weight a run accepts: beyond it one particle would get over
# a million offspring at once, and rho = inf casts to INT64_MIN offspring.
MAX_RHO = float(2**20)


class WeightOverflowError(RuntimeError):
    """A branching weight was non-finite or above MAX_RHO."""

    def __init__(self, epoch: int, max_rho: float):
        super().__init__(
            f"branching weight overflow at observation epoch {epoch}: "
            f"max rho {max_rho:g} (cap {MAX_RHO:g})"
        )
        self.epoch = epoch
        self.max_rho = max_rho


def _risky_epochs(record: ObservationRecord, obs: ObservationModel) -> np.ndarray:
    """Per epoch, whether the bound rho <= exp(|dY_k| sqrt(sup h'h)) - 1 exceeds MAX_RHO."""
    h_sup = np.sqrt(obs.sensor.hh_sup_bound())
    return np.linalg.norm(record.increments, axis=1) * h_sup > np.log1p(MAX_RHO)


def _epoch_weights(
    positions: np.ndarray, record: ObservationRecord, obs: ObservationModel, k: int, risky: bool
) -> np.ndarray:
    """rho at epoch k.  On a risky epoch exp() may overflow: it does so silently and
    WeightOverflowError reports it; elsewhere the bound rules overflow out."""
    if not risky:
        return np.atleast_1d(weight(positions, record.increments[k - 1], obs))
    with np.errstate(over="ignore"):
        rho = np.atleast_1d(weight(positions, record.increments[k - 1], obs))
    top = float(np.max(rho))
    if not top <= MAX_RHO:  # also true for NaN
        raise WeightOverflowError(k, top)
    return rho


@dataclass
class ParticleEnsemble:
    """Alive particles: positions (count, d), mass factor, time stamp."""

    positions: np.ndarray
    initial_count: int
    mass_factor: float = 1.0
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.positions.size == 0:
            self.positions = self.positions.reshape(0, max(1, self.positions.shape[-1]))
        if self.mass_factor <= 0.0:
            raise ValueError("mass_factor must be positive")

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        """<mu, 1> = mass_factor * count / initial_count."""
        return self.mass_factor * self.count / self.initial_count


@dataclass(frozen=True)
class PopulationControl:
    """Unbiased birth/death control keeping the count near a target band."""

    target: int
    low_ratio: float = 0.5
    high_ratio: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.low_ratio < 1.0 < self.high_ratio:
            raise ValueError("bounds must satisfy 0 < low_ratio < 1 < high_ratio")


def init_ensemble(n: int, signal: SignalModel, rng: np.random.Generator) -> ParticleEnsemble:
    """n iid particles from the initial law; total mass exactly 1."""
    if n < 1:
        raise ValueError("initial particle count must be at least 1")
    return ParticleEnsemble(signal.initial_law.sample(n, rng), initial_count=n)


def evolve_segment(
    ensemble: ParticleEnsemble,
    signal: SignalModel,
    dt: float,
    rng: np.random.Generator,
) -> ParticleEnsemble:
    """Displace every particle by an independent exact stable increment of duration dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if ensemble.count == 0:
        return replace(ensemble, time=ensemble.time + dt)
    steps = sample_increment(signal, dt, rng, size=ensemble.count)
    return replace(ensemble, positions=ensemble.positions + steps, time=ensemble.time + dt)


def _offspring_counts(rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle offspring counts from one uniform each, plus the branch/death events.

    rho >= 0: floor(rho)+1 copies, one more iff U < frac(rho);
    rho <  0: killed iff U < |rho|.  An event is a death or a branch
    (U < |residual| or rho >= 1)."""
    neg = rho < 0.0
    frac = np.where(neg, 0.0, rho - np.floor(rho))
    counts = np.where(
        neg,
        (u >= -rho).astype(np.int64),
        (np.floor(rho) + 1.0).astype(np.int64) + (u < frac),
    )
    residual = np.where(neg, rho, frac)
    events = (rho >= 1.0) | (u < np.abs(residual))
    return counts, events


def branch_step(
    ensemble: ParticleEnsemble,
    dy,
    obs: ObservationModel,
    rng: np.random.Generator,
) -> ParticleEnsemble:
    """Replace each particle by its offspring at the same site, one uniform per particle.

    Offspring inherit the parent position exactly and sit in parent order.
    The conditional expected contribution of a particle to any estimate is
    (1 + rho) times its own, so the step is unbiased.  An empty result
    (extinction) is legal.
    """
    if ensemble.count == 0:
        return ensemble
    rho = np.atleast_1d(weight(ensemble.positions, dy, obs))
    u = rng.uniform(size=ensemble.count)
    counts, _ = _offspring_counts(rho, u)
    return _apply_offspring(ensemble, counts)[0]


def _apply_offspring(
    ensemble: ParticleEnsemble, counts: np.ndarray
) -> tuple[ParticleEnsemble, np.ndarray]:
    """Offspring ensemble plus, for each of its rows, the parent's row in ``ensemble``."""
    parent_index = np.repeat(np.arange(ensemble.count), counts)
    return replace(ensemble, positions=ensemble.positions[parent_index]), parent_index


@dataclass
class FilterStep:
    """One observation epoch: the ensemble just before and just after branching.

    Row i of ``post`` descends from row ``parents[i]`` of ``pre`` (non-decreasing).
    """

    epoch: int
    time: float
    pre: ParticleEnsemble
    post: ParticleEnsemble
    parents: np.ndarray
    branch_events: int


@dataclass
class FilterRun:
    """Full filter trajectory; ``extinct_epoch`` reports termination by extinction."""

    initial: ParticleEnsemble
    steps: list
    extinct_epoch: int | None = None

    @property
    def final(self) -> ParticleEnsemble:
        return self.steps[-1].post if self.steps else self.initial

    @property
    def extinct(self) -> bool:
        return self.extinct_epoch is not None


def run_filter(
    signal: SignalModel,
    obs: ObservationModel,
    record: ObservationRecord,
    n: int,
    rng: np.random.Generator,
    *,
    control: PopulationControl | None = None,
) -> FilterRun:
    """Alternate evolve and branch over the record; keep pre/post snapshots per epoch.

    Terminates early with an extinction report if every particle dies; raises
    WeightOverflowError if a branching weight exceeds MAX_RHO.
    """
    eps = record.epsilon
    initial = ensemble = init_ensemble(n, signal, rng)
    steps: list[FilterStep] = []
    risky = _risky_epochs(record, obs)
    for k in range(1, record.count + 1):
        pre = evolve_segment(ensemble, signal, eps, rng)
        rho = _epoch_weights(pre.positions, record, obs, k, risky[k - 1])
        u = rng.uniform(size=pre.count)
        counts, events = _offspring_counts(rho, u)
        ensemble, parents = _apply_offspring(pre, counts)
        if control is not None and ensemble.count > 0:
            ensemble, rows = population_control(
                ensemble, control.target, (control.low_ratio, control.high_ratio), rng
            )
            if rows is not None:
                parents = parents[rows]
        steps.append(
            FilterStep(
                epoch=k,
                time=k * eps,
                pre=pre,
                post=ensemble,
                parents=parents,
                branch_events=int(events.sum()),
            )
        )
        if ensemble.count == 0:
            return FilterRun(initial=initial, steps=steps, extinct_epoch=k)
    return FilterRun(initial=initial, steps=steps)


def estimate(ensemble: ParticleEnsemble, phi) -> tuple:
    """(unnormalized, normalized) estimates of a test function.

    ``phi`` maps a (count, d) position array to per-particle values (real or
    complex).  Unnormalized is mass_factor * sum / initial_count; normalized
    is the plain average over alive particles and requires a nonempty ensemble.
    """
    if ensemble.count == 0:
        raise ExtinctionError(ensemble.time)
    values = np.asarray(phi(ensemble.positions))
    total = values.sum()
    unnormalized = ensemble.mass_factor * total / ensemble.initial_count
    normalized = total / ensemble.count
    return unnormalized, normalized


def empirical_fourier(ensemble: ParticleEnsemble, thetas, chunk: int = 256) -> np.ndarray:
    """Fourier transform of the empirical measure on a frequency list.

    Returns mass_factor * (1/n) * sum_i exp(-i theta' X_i) per node; an empty
    ensemble transforms to zero everywhere.
    """
    th = np.asarray(thetas, dtype=float)
    if th.ndim == 1 and ensemble.dimension == 1:
        th = th.reshape(-1, 1)
    th = np.atleast_2d(th)
    out = np.zeros(th.shape[0], dtype=complex)
    if ensemble.count == 0:
        return out
    scale = ensemble.mass_factor / ensemble.initial_count
    for lo in range(0, th.shape[0], chunk):
        block = th[lo : lo + chunk]
        out[lo : lo + block.shape[0]] = np.exp(
            -1j * (ensemble.positions @ block.T)
        ).sum(axis=0)
    return scale * out


def multinomial_baseline_step(
    ensemble: ParticleEnsemble,
    dy,
    obs: ObservationModel,
    rng: np.random.Generator,
) -> tuple[ParticleEnsemble, int]:
    """Constant-population multinomial resampling with weights 1 + rho.

    Every particle independently picks a parent site with probability
    proportional to the parent weight.  Returns the new ensemble and the
    relocation count (particles whose site differs from their own old one).
    """
    if ensemble.count == 0:
        raise ValueError("multinomial step requires a nonempty ensemble")
    rho = np.atleast_1d(weight(ensemble.positions, dy, obs))
    return _multinomial_resample(ensemble, rho, rng)


def _multinomial_resample(
    ensemble: ParticleEnsemble, rho: np.ndarray, rng: np.random.Generator
) -> tuple[ParticleEnsemble, int]:
    w = 1.0 + rho
    parents = rng.choice(ensemble.count, size=ensemble.count, p=w / w.sum())
    relocations = int(np.sum(parents != np.arange(ensemble.count)))
    return replace(ensemble, positions=ensemble.positions[parents]), relocations


@dataclass
class BaselineStep:
    epoch: int
    time: float
    post: ParticleEnsemble
    relocations: int


def run_baseline(
    signal: SignalModel,
    obs: ObservationModel,
    record: ObservationRecord,
    n: int,
    rng: np.random.Generator,
) -> list:
    """Multinomial-resampling filter on the same record; population stays n.

    Raises WeightOverflowError if a weight exceeds MAX_RHO.
    """
    eps = record.epsilon
    ensemble = init_ensemble(n, signal, rng)
    steps: list[BaselineStep] = []
    risky = _risky_epochs(record, obs)
    for k in range(1, record.count + 1):
        ensemble = evolve_segment(ensemble, signal, eps, rng)
        rho = _epoch_weights(ensemble.positions, record, obs, k, risky[k - 1])
        ensemble, moved = _multinomial_resample(ensemble, rho, rng)
        steps.append(BaselineStep(epoch=k, time=k * eps, post=ensemble, relocations=moved))
    return steps


def population_control(
    ensemble: ParticleEnsemble,
    n_target: int,
    bounds: tuple,
    rng: np.random.Generator,
) -> tuple[ParticleEnsemble, np.ndarray | None]:
    """Halve or double the population outside the band, preserving estimates exactly.

    Above high_ratio * n_target each particle survives with probability 1/2
    and the mass factor doubles; below low_ratio * n_target every particle is
    duplicated and the mass factor halves.  Conditional expectations of all
    estimates are unchanged.  Also returns the index (a mask when halving) that
    picks each output row's input row, or None when nothing changed.
    """
    lo_ratio, hi_ratio = bounds
    if not 0.0 < lo_ratio < 1.0 < hi_ratio:
        raise ValueError("bounds must satisfy 0 < lo_ratio < 1 < hi_ratio")
    count = ensemble.count
    if count > hi_ratio * n_target:
        keep = rng.uniform(size=count) < 0.5
        thinned = replace(
            ensemble,
            positions=ensemble.positions[keep],
            mass_factor=ensemble.mass_factor * 2.0,
        )
        return thinned, keep
    if count < lo_ratio * n_target and count > 0:
        doubled, rows = _apply_offspring(ensemble, np.full(count, 2))
        return replace(doubled, mass_factor=ensemble.mass_factor * 0.5), rows
    return ensemble, None
