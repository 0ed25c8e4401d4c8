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
    "PopulationGrowthError",
    "MAX_RHO",
    "MAX_GROWTH",
    "ParticleEnsemble",
    "FilterStep",
    "FilterRun",
    "init_ensemble",
    "evolve_segment",
    "run_filter",
    "estimate",
    "empirical_fourier",
    "run_baseline",
    "population_control",
]


class ExtinctionError(RuntimeError):
    """All particles died; normalized estimates are undefined."""


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


# Largest population, as a multiple of the initial count n, that a run accepts.
# The population follows the filter's unnormalized mass, which can grow without
# bound; the cap stops such a run before it exhausts memory, far above the
# peaks of the shipped workloads (under 20 n).
MAX_GROWTH = 1024


class PopulationGrowthError(RuntimeError):
    """A population grew past MAX_GROWTH times its initial count."""

    def __init__(self, epoch: int, count: int, cap: int):
        super().__init__(
            f"population growth at observation epoch {epoch}: "
            f"{count} particles exceed the cap {cap} ({MAX_GROWTH} times the initial count)"
        )
        self.epoch = epoch
        self.count = count
        self.cap = cap


def _risky_epochs(record: ObservationRecord, obs: ObservationModel) -> np.ndarray:
    """Per epoch, whether the bound rho <= exp(|dY_k| sqrt(sup h'h)) - 1 exceeds MAX_RHO."""
    h_sup = np.sqrt(obs.sensor.hh_sup_bound())
    return np.linalg.norm(record.increments, axis=1) * h_sup > np.log1p(MAX_RHO)


@dataclass
class ParticleEnsemble:
    """Alive particles: positions (count, d) and mass factor."""

    positions: np.ndarray
    initial_count: int
    mass_factor: float = 1.0

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
        return ParticleEnsemble(positions, self.initial_count, factor)


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
    return ensemble._with(moved)


def _offspring_counts(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-particle offspring counts from one uniform each.

    The rule of ``offspring_parameters`` in one pass: with fl = floor(rho),
    rho >= 0 leaves fl + 1 copies plus one iff U < rho - fl, and rho < 0
    (fl = -1) leaves one copy iff U >= -rho."""
    fl = np.floor(rho)
    return np.where(rho < 0.0, u >= -rho, u < rho - fl) + (fl + 1.0).astype(np.int64)


@dataclass
class FilterStep:
    """One observation epoch (at t = epoch * epsilon): the ensemble just before and just
    after branching, and what branching drew.

    Row i of ``pre`` left ``counts[i]`` offspring; ``control_rows`` is the mask or
    index population control applied, or None.
    """

    epoch: int
    pre: ParticleEnsemble
    post: ParticleEnsemble
    counts: np.ndarray
    control_rows: np.ndarray | None = None

    @property
    def branch_events(self) -> int:
        """Deaths and branches: the rows of ``pre`` that left a count other than 1."""
        return int(np.count_nonzero(self.counts != 1))

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
    control: tuple | None = None,
) -> FilterRun:
    """Alternate evolve and branch over the record; keep pre/post snapshots per epoch.

    ``control``, a band ``(low_ratio, high_ratio)``, switches on
    ``population_control`` around n after each branching.  Terminates early
    with an extinction report if every particle dies; raises
    WeightOverflowError if a branching weight exceeds MAX_RHO, and
    PopulationGrowthError if the population exceeds MAX_GROWTH * n.
    """

    def branch(k, pre, rho):
        counts = _offspring_counts(rho, rng.random(pre.count))
        post, rows = pre._with(np.repeat(pre.positions, counts, axis=0)), None
        if control is not None:
            post, rows = population_control(post, n, control, rng)
        return FilterStep(k, pre, post, counts, rows)

    initial, steps = _run_epochs(signal, obs, record, n, rng, branch)
    extinct = steps[-1].epoch if steps and steps[-1].post.count == 0 else None
    return FilterRun(initial=initial, steps=steps, extinct_epoch=extinct)


def _run_epochs(signal, obs, record, n, rng, resample) -> tuple[ParticleEnsemble, list]:
    """The epoch loop of both filters: evolve, weigh, then ``resample(k, pre, rho)``, which
    returns the epoch's step; its ``post`` enters the next interval.  Stops at extinction;
    raises PopulationGrowthError when ``post`` holds more than MAX_GROWTH * n particles.
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
        if ensemble.count > MAX_GROWTH * n:
            raise PopulationGrowthError(k, ensemble.count, MAX_GROWTH * n)
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
        raise ExtinctionError("particle system extinct: no particle to average over")
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


def _multinomial_resample(
    ensemble: ParticleEnsemble, rho: np.ndarray, rng: np.random.Generator
) -> tuple[ParticleEnsemble, int]:
    """Constant-population multinomial resampling with weights 1 + rho.

    Every particle independently picks a parent site with probability
    proportional to the parent weight.  Returns the new ensemble and the
    relocation count (particles whose site differs from their own old one).
    """
    w = 1.0 + rho
    parents = rng.choice(ensemble.count, size=ensemble.count, p=w / w.sum())
    relocations = int(np.count_nonzero(parents != np.arange(ensemble.count)))
    return ensemble._with(ensemble.positions[parents]), relocations


@dataclass
class BaselineStep:
    epoch: int
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
        return BaselineStep(k, *_multinomial_resample(pre, rho, rng))

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
    estimates are unchanged.  An empty ensemble is left alone.  Also returns the
    index (a mask when halving) that picks each output row's input row, or None
    when nothing changed.
    """
    lo_ratio, hi_ratio = bounds
    if not 0.0 < lo_ratio < 1.0 < hi_ratio:
        raise ValueError(
            f"population control bounds ({lo_ratio:g}, {hi_ratio:g}) "
            "must satisfy 0 < low_ratio < 1 < high_ratio"
        )
    count = ensemble.count
    if count > hi_ratio * n_target:
        keep = rng.random(count) < 0.5
        return ensemble._with(ensemble.positions[keep], ensemble.mass_factor * 2.0), keep
    if count < lo_ratio * n_target and count > 0:
        rows = np.repeat(np.arange(count), 2)
        return ensemble._with(ensemble.positions[rows], ensemble.mass_factor * 0.5), rows
    return ensemble, None
