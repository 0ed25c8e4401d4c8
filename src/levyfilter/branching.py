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

from dataclasses import dataclass

import numpy as np

from .metrics import fourier
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

    def _with(self, positions, mass_factor=None) -> "ParticleEnsemble":
        """New rows under the same bookkeeping (cheaper than ``dataclasses.replace``)."""
        factor = self.mass_factor if mass_factor is None else mass_factor
        return ParticleEnsemble(positions, self.initial_count, factor, self.time)


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
    moved = ensemble.positions
    if ensemble.count:
        moved = moved + sample_increment(signal, dt, rng, size=ensemble.count)
    return ParticleEnsemble(moved, ensemble.initial_count, ensemble.mass_factor, ensemble.time + dt)


def _offspring_counts(rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle offspring counts from one uniform each, plus the branch/death events.

    The rule of ``offspring_parameters`` in one pass: with fl = floor(rho),
    rho >= 0 leaves fl + 1 copies plus one iff U < rho - fl, and rho < 0
    (fl = -1) leaves one copy iff U >= -rho.  An event (a death or a branch)
    is exactly a count other than 1."""
    fl = np.floor(rho)
    counts = np.where(rho < 0.0, u >= -rho, u < rho - fl) + (fl + 1.0).astype(np.int64)
    return counts, counts != 1


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
    counts, _ = _offspring_counts(rho, rng.random(ensemble.count))
    return _apply_offspring(ensemble, counts)[0]


def _apply_offspring(
    ensemble: ParticleEnsemble, counts: np.ndarray
) -> tuple[ParticleEnsemble, np.ndarray]:
    """Offspring ensemble plus, for each of its rows, the parent's row in ``ensemble``."""
    offspring = ensemble._with(np.repeat(ensemble.positions, counts, axis=0))
    return offspring, np.repeat(np.arange(ensemble.count), counts)


@dataclass
class FilterStep:
    """One observation epoch: the ensemble just before and just after branching.

    Row i of ``pre`` left ``counts[i]`` offspring (``branch_events`` of them not 1);
    ``control_rows`` is the mask or index population control applied, or None.
    """

    epoch: int
    time: float
    pre: ParticleEnsemble
    post: ParticleEnsemble
    counts: np.ndarray
    branch_events: int
    control_rows: np.ndarray | None = None

    @property
    def parents(self) -> np.ndarray:
        """Row i of ``post`` descends from row ``parents[i]`` of ``pre`` (non-decreasing)."""
        rows = np.repeat(np.arange(self.pre.count), self.counts)
        return rows if self.control_rows is None else rows[self.control_rows]


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

    def branch(k, pre, rho):
        counts, events = _offspring_counts(rho, rng.random(pre.count))
        post, rows = pre._with(np.repeat(pre.positions, counts, axis=0)), None
        if control is not None and post.count > 0:
            band = (control.low_ratio, control.high_ratio)
            post, rows = population_control(post, control.target, band, rng)
        return FilterStep(
            k, k * record.epsilon, pre, post, counts, int(np.count_nonzero(events)), rows
        )

    initial, steps = _run_epochs(signal, obs, record, n, rng, branch)
    extinct = steps[-1].epoch if steps and steps[-1].post.count == 0 else None
    return FilterRun(initial=initial, steps=steps, extinct_epoch=extinct)


def _run_epochs(signal, obs, record, n, rng, resample) -> tuple[ParticleEnsemble, list]:
    """The epoch loop of both filters: evolve, weigh, then ``resample(k, pre, rho)``, which
    returns the epoch's step; its ``post`` enters the next interval.  Stops at extinction.
    On a risky epoch exp() may overflow: silently, and WeightOverflowError reports it;
    elsewhere the bound rules overflow out.
    """
    initial = ensemble = init_ensemble(n, signal, rng)
    risky = _risky_epochs(record, obs)
    steps = []
    for k in range(1, record.count + 1):
        pre = evolve_segment(ensemble, signal, record.epsilon, rng)
        if risky[k - 1]:
            with np.errstate(over="ignore"):
                rho = weight(pre.positions, record.increments[k - 1], obs)
            if not float(np.max(rho)) <= MAX_RHO:  # also true for NaN
                raise WeightOverflowError(k, float(np.max(rho)))
        else:
            rho = weight(pre.positions, record.increments[k - 1], obs)
        steps.append(resample(k, pre, rho))
        ensemble = steps[-1].post
        if ensemble.count == 0:
            break
    return initial, steps


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


def empirical_fourier(ensemble: ParticleEnsemble, thetas) -> np.ndarray:
    """Fourier transform of the empirical measure on a frequency list.

    Returns mass_factor * (1/n) * sum_i exp(-i theta' X_i) per node; an empty
    ensemble transforms to zero everywhere.
    """
    return ensemble.mass_factor * fourier(ensemble.positions, None, thetas) / ensemble.initial_count


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
    relocations = int(np.count_nonzero(parents != np.arange(ensemble.count)))
    return ensemble._with(ensemble.positions[parents]), relocations


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

    def resample(k, pre, rho):
        return BaselineStep(k, k * record.epsilon, *_multinomial_resample(pre, rho, rng))

    return _run_epochs(signal, obs, record, n, rng, resample)[1]


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
        keep = rng.random(count) < 0.5
        return ensemble._with(ensemble.positions[keep], ensemble.mass_factor * 2.0), keep
    if count < lo_ratio * n_target and count > 0:
        rows = np.repeat(np.arange(count), 2)
        return ensemble._with(ensemble.positions[rows], ensemble.mass_factor * 0.5), rows
    return ensemble, None
