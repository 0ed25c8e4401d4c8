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
from typing import NamedTuple

import numpy as np

from .metrics import _rows, fourier
from .observation import ObservationModel, ObservationRecord, _check_record, weight
from .stable import SignalModel, sample_increment

__all__ = [
    "ExtinctionError",
    "WeightOverflowError",
    "PopulationGrowthError",
    "MAX_RHO",
    "MAX_GROWTH",
    "ParticleEnsemble",
    "EnsembleSize",
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


@dataclass
class ParticleEnsemble:
    """Alive particles: positions (count, d) and mass factor."""

    positions: np.ndarray
    initial_count: int
    mass_factor: float = 1.0

    def __post_init__(self):
        self.positions = _rows(self.positions)
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
        return self.size.total_mass

    @property
    def size(self) -> "EnsembleSize":
        """The bookkeeping without the positions."""
        return EnsembleSize(self.count, self.initial_count, self.mass_factor)

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
        moved = sample_increment(signal, dt, rng, size=ensemble.count)
        moved += ensemble.positions
    return ensemble._with(moved)


def _offspring_counts(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-particle int32 offspring counts from one uniform each.

    The rule of ``offspring_parameters`` in one pass: with fl = floor(rho),
    rho >= 0 leaves fl + 1 copies plus one iff U < rho - fl, and rho < 0
    (fl = -1) leaves one copy iff U >= -rho.  A run caps rho at MAX_RHO = 2**20,
    so every count fits in 4 bytes."""
    threshold = np.floor(rho)
    counts = threshold.astype(np.int32)
    counts += 1
    negative = rho < 0.0
    np.subtract(rho, threshold, out=threshold)
    np.negative(rho, out=threshold, where=negative)
    extra = np.less(u, threshold)
    extra ^= negative  # rho < 0: the copy survives iff U >= -rho
    counts += extra
    return counts


def _parent_rows(counts: np.ndarray, control_rows: np.ndarray | None = None) -> np.ndarray:
    """Row i of an epoch's ``post`` descends from row ``parents[i]`` of its ``pre``
    (non-decreasing), given the offspring ``counts`` and population control's rows."""
    rows = np.repeat(np.arange(counts.shape[0]), counts)
    return rows if control_rows is None else rows[control_rows]


class EnsembleSize(NamedTuple):
    """The bookkeeping of an ensemble without its positions: what a run keeps per epoch."""

    count: int
    initial_count: int
    mass_factor: float

    @property
    def total_mass(self) -> float:
        """<mu, 1> = mass_factor * count / initial_count."""
        return self.mass_factor * self.count / self.initial_count


class FilterStep(NamedTuple):
    """What a branching run keeps of one observation epoch (at t = epoch * epsilon): the
    sizes just before and just after branching (and population control), and the deaths
    plus branches, the rows of ``pre`` that left a count other than 1."""

    epoch: int
    pre: EnsembleSize
    post: EnsembleSize
    branch_events: int


@dataclass
class FilterRun:
    """A run's per-epoch records, its first and last ensembles, and the extinction epoch."""

    initial: ParticleEnsemble
    final: ParticleEnsemble
    steps: list
    extinct_epoch: int | None = None

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
    reduce=None,
) -> FilterRun:
    """Alternate evolve and branch over the record; keep one ``FilterStep`` per epoch.

    ``control``, a band ``(low_ratio, high_ratio)``, switches on
    ``population_control`` around n after each branching.  ``reduce`` is the
    per-epoch reducer of ``_run_epochs``; ``counts`` are the int32 offspring counts
    of the rows of ``pre`` and ``control_rows`` the mask or index that population control
    applied to the offspring, or None.  Terminates early with an extinction report
    if every particle dies; raises WeightOverflowError if a branching weight is NaN or
    exceeds MAX_RHO, and PopulationGrowthError if the population exceeds MAX_GROWTH * n.
    """

    def branch(k, pre, rho):
        counts = _offspring_counts(rho, rng.random(pre.count))
        post, rows = pre._with(np.repeat(pre.positions, counts, axis=0)), None
        if control is not None:
            post, rows = population_control(post, n, control, rng)
        events = int(np.count_nonzero(counts != 1))
        return post, counts, rows, FilterStep(k, pre.size, post.size, events)

    initial, final, steps = _run_epochs(signal, obs, record, n, rng, branch, reduce)
    extinct = steps[-1].epoch if final.count == 0 else None
    return FilterRun(initial, final, steps, extinct)


def _run_epochs(signal, obs, record, n, rng, resample, reduce) -> tuple:
    """The epoch loop of both filters: evolve by the epsilon that the record and ``obs``
    share (ValueError if they differ, or if their observation widths do), weigh, then
    ``resample(k, pre, rho)``, which returns ``(post, counts, control_rows, step)``; ``post``
    enters the next interval and ``step`` is the epoch's record.  Stops at extinction;
    raises PopulationGrowthError when ``post`` holds more than MAX_GROWTH * n particles.
    Every epoch's weights are checked: exp() may overflow silently, and WeightOverflowError
    reports any weight above MAX_RHO or NaN before it reaches ``resample``.

    A ``reduce`` callable, when given, is called once per epoch as
    ``reduce(k, pre, rho, counts, control_rows, post)`` with the live arrays, after resampling:
    it must not change them and should keep only what it needs, because nothing else
    of them outlives the epoch.  Returns (initial ensemble, final ensemble, records).
    """
    eps = _check_record(obs, record)
    initial = ensemble = init_ensemble(n, signal, rng)
    steps = []
    for k in range(1, record.count + 1):
        pre = evolve_segment(ensemble, signal, eps, rng)
        with np.errstate(over="ignore"):
            rho = weight(pre.positions, record.increments[k - 1], obs)
        if not float(np.max(rho)) <= MAX_RHO:  # also true for NaN
            raise WeightOverflowError(k, float(np.max(rho)))
        ensemble, counts, control_rows, step = resample(k, pre, rho)
        if ensemble.count > MAX_GROWTH * n:
            raise PopulationGrowthError(k, ensemble.count, MAX_GROWTH * n)
        if reduce is not None:
            reduce(k, pre, rho, counts, control_rows, ensemble)
        steps.append(step)
        if ensemble.count == 0:
            break
    return initial, ensemble, steps


def estimate(ensemble: ParticleEnsemble, phi) -> tuple:
    """(unnormalized, normalized) estimates of a test function.

    ``phi`` maps a (count, d) position array to one value, or one row of
    values, per particle (real or complex); the sum runs over rows, so a
    vector-valued phi gives one estimate per component.  Unnormalized is
    mass_factor * sum / initial_count; normalized is the plain average over
    alive particles and requires a nonempty ensemble.
    """
    if ensemble.count == 0:
        raise ExtinctionError("particle system extinct: no particle to average over")
    total = np.asarray(phi(ensemble.positions)).sum(axis=0)
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
    The draw is ``Generator.choice(count, size=count, p=w / w.sum())`` bit for bit:
    the same cdf, inverted at the same uniforms.  Non-finite or negative
    weights, or a zero total, raise ValueError as ``choice`` does.
    """
    w = 1.0 + rho
    total = w.sum()
    if not (np.isfinite(total) and total > 0.0 and w.min() >= 0.0):
        raise ValueError(
            f"multinomial weights must be finite and non-negative with a positive sum; "
            f"got sum {total:g}, min {w.min():g}"
        )
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    parents = _inverse_cdf(cdf, rng.random(ensemble.count))
    relocations = int(np.count_nonzero(parents != np.arange(ensemble.count)))
    return ensemble._with(ensemble.positions[parents]), relocations


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` by guide-table inversion (Chen & Asau 1974;
    Devroye 1986, sec. III.2.4), in expected O(1) work per key.

    ``cdf`` is non-decreasing with ``cdf[-1] == 1`` and every ``u`` lies in [0, 1).  With
    m = len(cdf) and f(x) = floor(x * m) in floating point, ``guide[j]`` counts the rows
    with f(cdf) < j.  Rounding is monotone, so a key's answer lies in
    [guide[f(u)], guide[f(u) + 1]] exactly; the key probes the bracket's start, then
    halves what is left.  Ties (zero-weight rows) need no care, and a bracket of many
    rows costs log2 of its length in passes.
    """
    m = cdf.shape[0]
    guide = np.zeros(m + 2, dtype=np.int64)
    np.cumsum(np.bincount((cdf * m).astype(np.int64), minlength=m + 1), out=guide[1:])
    bucket = (u * m).astype(np.int64)
    idx = guide[bucket]
    keys = np.flatnonzero(cdf[idx] <= u)
    idx[keys] += 1
    lo, hi, uk = idx[keys], guide[bucket[keys] + 1], u[keys]
    while (open_ := np.flatnonzero(lo < hi)).size:
        keys, lo, hi, uk = keys[open_], lo[open_], hi[open_], uk[open_]
        mid = (lo + hi) >> 1
        above = cdf[mid] > uk
        lo = np.where(above, lo, mid + 1)
        hi = np.where(above, mid, hi)
        idx[keys] = lo
    return idx


class BaselineStep(NamedTuple):
    """What a multinomial run keeps of one epoch: the size after resampling and the
    number of particles whose site differs from their own old one."""

    epoch: int
    post: EnsembleSize
    relocations: int


def run_baseline(
    signal: SignalModel,
    obs: ObservationModel,
    record: ObservationRecord,
    n: int,
    rng: np.random.Generator,
    *,
    reduce=None,
) -> list:
    """Multinomial-resampling filter on the same record; population stays n.  Returns one
    ``BaselineStep`` per epoch; ``reduce`` is the per-epoch reducer of ``_run_epochs``,
    called with ``counts`` and ``control_rows`` None.

    Raises WeightOverflowError if a weight is NaN or exceeds MAX_RHO.
    """

    def resample(k, pre, rho):
        post, relocations = _multinomial_resample(pre, rho, rng)
        return post, None, None, BaselineStep(k, post.size, relocations)

    return _run_epochs(signal, obs, record, n, rng, resample, reduce)[2]


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
