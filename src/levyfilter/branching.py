"""Branching particle system: evolve and branch, epoch by epoch; the multinomial baseline.

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

from .metrics import _rows
from .observation import Scenario, weight
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
    "run_filter",
    "run_baseline",
    "population_control",
]


class ExtinctionError(RuntimeError):
    """All particles died; normalized estimates are undefined."""


# Largest branching weight a run accepts: beyond it one particle would get over
# a million offspring at once, and rho = inf casts to INT64_MIN offspring.
MAX_RHO = float(2**20)


class WeightOverflowError(RuntimeError):
    """A branching weight was NaN or outside its epoch's bound: MAX_RHO at an eager epoch,
    the thinning bound p_k at a thinned one."""

    def __init__(self, epoch: int, max_rho: float, bound: float = MAX_RHO):
        super().__init__(
            f"branching weight overflow at observation epoch {epoch}: "
            f"max |rho| {max_rho:g} not within the bound {bound:g}"
        )
        self.epoch = epoch
        self.max_rho = max_rho
        self.bound = bound


def _check_weights(k: int, rho: np.ndarray, bound: float) -> None:
    """Raise WeightOverflowError unless every |rho| is at most ``bound`` (NaN included):
    exp() may overflow silently, and the branching rule must never see such a weight."""
    if rho.size and not (rho.max() <= bound and -rho.min() <= bound):
        raise WeightOverflowError(k, float(np.abs(rho).max()), bound)


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
    """Alive particles and their mass factor.  Three columns are per-row: ``positions``
    (count, d); ``eve``, the int32 index of the initial row each row descends from (a fresh
    ensemble is its own eves); and ``last``, the int32 epoch each row last moved to, None
    while every row is current.  ``take`` and ``_refill`` move them together."""

    positions: np.ndarray
    initial_count: int
    mass_factor: float = 1.0
    eve: np.ndarray | None = None
    last: np.ndarray | None = None

    def __post_init__(self):
        self.positions = _rows(self.positions)
        if self.eve is None:
            self.eve = np.arange(self.count, dtype=np.int32)
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
        """<mu, 1>."""
        return self.size.total_mass

    @property
    def size(self) -> "EnsembleSize":
        """The bookkeeping without the positions."""
        return EnsembleSize(self.count, self.initial_count, self.mass_factor)

    def estimate(self, total):
        """``EnsembleSize.estimate``."""
        return self.size.estimate(total)

    def take(self, rows, factor=1.0) -> "ParticleEnsemble":
        """Every per-row column gathered by ``rows``; the mass factor times ``factor``."""
        return self._map(lambda column: column[rows], factor)

    def _map(self, move, factor=1.0) -> "ParticleEnsemble":
        """``move`` applied to each per-row column (positions ``_flat``; None stays None)."""
        x, eve = move(_flat(self.positions)), move(self.eve)
        last = None if self.last is None else move(self.last)
        return ParticleEnsemble(x, self.initial_count, self.mass_factor * factor, eve, last)


def init_ensemble(n: int, signal: SignalModel, rng: np.random.Generator) -> ParticleEnsemble:
    """n iid particles from the initial law; total mass exactly 1."""
    if n < 1:
        raise ValueError("initial particle count must be at least 1")
    return ParticleEnsemble(signal.initial_law.sample(n, rng), initial_count=n)


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


def _branch(rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int]:
    """The branching rule as a parent map: row i of the offspring is a copy of row
    ``parents[i]`` (non-decreasing, each parent's copies contiguous), with the deaths plus
    branches, the rows whose count is not 1."""
    counts = _offspring_counts(rho, u)
    return np.repeat(np.arange(counts.shape[0]), counts), int(np.count_nonzero(counts != 1))


class EnsembleSize(NamedTuple):
    """The bookkeeping of an ensemble without its positions: what a run keeps per epoch."""

    count: int
    initial_count: int
    mass_factor: float

    @property
    def total_mass(self) -> float:
        """<mu, 1>."""
        return self.estimate(self.count)

    def estimate(self, total):
        """<mu, f> from ``total``, f summed over the alive particles (a float, complex or row):
        the one place that knows a particle's mass, mass_factor / initial_count."""
        return self.mass_factor * total / self.initial_count


class FilterStep(NamedTuple):
    """What a run keeps of one observation epoch (at t = epoch * epsilon): the sizes just
    before and just after resampling and population control (``pre`` is the whole
    population, moved or not), the rule's own tally (branching: the deaths plus branches,
    the rows whose count is not 1; multinomial: the relocations), and the rows the epoch
    moved (increment draws) and weighed (weight evaluations)."""

    epoch: int
    pre: EnsembleSize
    post: EnsembleSize
    branch_events: int
    moved: int
    weighed: int


@dataclass
class FilterRun:
    """A run's per-epoch records, its first and last ensembles (``final.eve`` holds each
    final row's initial row, thinned or eager), and the extinction epoch."""

    initial: ParticleEnsemble
    final: ParticleEnsemble
    steps: list
    extinct_epoch: int | None = None

    @property
    def extinct(self) -> bool:
        return self.extinct_epoch is not None


def run_filter(
    scenario: Scenario,
    n: int,
    rng: np.random.Generator,
    *,
    control: tuple | None = None,
    reduce=None,
) -> FilterRun:
    """Alternate evolve and branch over the scenario's record; keep one ``FilterStep`` per epoch.

    ``control``, a band ``(low_ratio, high_ratio)``, switches on
    ``population_control`` around n after each branching.  ``reduce`` is the
    per-epoch reducer of ``_run_epochs``; its ``parents`` are non-decreasing unless
    population control halved the offspring.  A run with a reducer is eager at every epoch;
    a run without one reads only its sizes and ``final``, so every epoch but the last thins.
    Terminates early with an extinction report if every particle dies; raises
    WeightOverflowError if a branching weight is NaN or outside its epoch's bound (MAX_RHO,
    or the thinning bound), and PopulationGrowthError if the population exceeds
    MAX_GROWTH * n.
    """
    return _run_epochs(scenario, n, rng, _branch, reduce, control=control, thin=reduce is None)


def _run_epochs(scenario, n, rng, resample, reduce, control=None, thin=False):
    """The epoch loop of both filters over the scenario's record: evolve by its epsilon,
    weigh, draw one uniform per row, then ``resample(rho, u)``, a resampling rule that
    returns ``(parents, tally)``: row i of ``post`` is row ``parents[i]`` of ``pre``,
    gathered once, and the tally is the rule's own count (branch events, or relocations).
    ``control`` applies ``population_control``, the third parent-map rule, to ``post``,
    which enters the next interval: its rows gather ``post`` and compose into ``parents``.
    Stops at extinction; raises PopulationGrowthError when ``post`` holds more than
    MAX_GROWTH * n particles.

    Without ``thin`` every epoch is eager: every row moves, is weighed and draws its
    uniform.  With it (for a run without a reducer) every epoch but the last thins with the
    branching uniform (Lewis & Shedler 1979) unless its bound p_k (``Scenario.bounds``)
    reaches 1.  It draws every row's u first, and only the candidates, the rows with
    u < p_k, move to epoch k (by one exact draw over the epochs since they last moved), are
    weighed and branch.  Any other row has u >= p_k >= |rho|, so
    ``_offspring_counts`` would leave it exactly one copy wherever it is.  A candidate has
    |rho| <= p_k < 1, where that rule is the sign rule: it splits iff u < rho, dies iff
    u < -rho, and stays otherwise.  Each split's second copy takes a dead row's place (row
    order is not kept), and every row moves before population control doubles, so copies
    share their past.  Every epoch's weights are checked by ``_check_weights`` against
    MAX_RHO, or p_k at a thinned epoch.  A thinning run writes its rows in place, so it
    starts from a copy of the initial ensemble, which the caller keeps.

    A ``reduce`` callable, when given, is called at every epoch as
    ``reduce(k, pre, rho, parents, post)`` with the live arrays, after resampling and
    population control: it must not change them and should keep only what it needs,
    because nothing else of them outlives the epoch.  Returns the ``FilterRun``, one
    ``FilterStep(k, pre size, post size, tally, moved, weighed)`` per epoch.
    """
    signal, obs, table = scenario.signal, scenario.obs, scenario.table
    eps = obs.epsilon
    initial = ensemble = init_ensemble(n, signal, rng)
    bounds = [1.0] * scenario.count
    if thin:
        bounds[:-1] = scenario.bounds[:-1].tolist()
        ensemble = initial._map(np.copy)
    steps = []

    def catch_up(ens, rows, k):
        """Move the ``rows`` of ``ens`` from their last epoch to epoch k, in place; return them."""
        x = _flat(ens.positions)
        moved = x[rows]
        moved += _flat(sample_increment(signal, eps, rng, rows.size, k - ens.last[rows], table))
        x[rows] = moved
        ens.last[rows] = k
        return moved

    def thinned(k, pre, bound, dy):
        """Epoch k of ``pre`` by thinning; returns (post, tally, candidates).  Its arrays die
        with the call, before the next epoch makes its own."""
        u = rng.random(pre.count)
        rows = (u < bound).nonzero()[0]
        if pre.last is None:
            pre.last = np.full(pre.count, k - 1, dtype=np.int32)
        rho = weight(catch_up(pre, rows, k), dy, obs)
        _check_weights(k, rho, bound)
        u = u[rows]
        born, dead = rows[u < rho], rows[u < -rho]  # |rho| < 1: split, die or stay
        return _refill(pre, dead, born), born.size + dead.size, rows.size

    with np.errstate(over="ignore"):
        for k in range(1, scenario.count + 1):
            bound, dy, count = bounds[k - 1], scenario.increments[k - 1], ensemble.count
            parents = None
            if bound < 1.0:
                pre = ensemble
                ensemble, tally, moved = thinned(k, pre, bound, dy)
                weighed = moved
            else:
                lags = None if ensemble.last is None else k - ensemble.last
                x = sample_increment(signal, eps, rng, count, lags, table)
                lags = None  # freed before the epoch's largest arrays are made
                x += ensemble.positions
                # drops the last post, its lags too, before rho, u, parents
                pre = ensemble = ParticleEnsemble(x, n, ensemble.mass_factor, ensemble.eve)
                rho = weight(x, dy, obs)
                _check_weights(k, rho, MAX_RHO)
                parents, tally = resample(rho, rng.random(count))
                ensemble = pre.take(parents)
                moved = weighed = count
            kept = None if control is None else population_control(ensemble.count, n, control, rng)
            if kept is not None:
                rows, factor = kept
                if ensemble.last is not None and factor == 0.5:  # copies share their past
                    moved += len(catch_up(ensemble, (ensemble.last < k).nonzero()[0], k))
                    ensemble.last = None
                ensemble = ensemble.take(rows, factor)
                parents = None if parents is None else parents[rows]
            if ensemble.count > MAX_GROWTH * n:
                raise PopulationGrowthError(k, ensemble.count, MAX_GROWTH * n)
            if reduce is not None:
                reduce(k, pre, rho, parents, ensemble)
            steps.append(FilterStep(k, pre.size, ensemble.size, tally, moved, weighed))
            if ensemble.count == 0:
                return FilterRun(initial, ensemble, steps, k)
    return FilterRun(initial, ensemble, steps)


def _flat(x):
    """x, or for one column the column as a view: 1-d gathers and scatters are ~2.5x faster."""
    return x[:, 0] if x.shape[1] == 1 else x


def _refill(ensemble, slots, sources):
    """``ensemble`` with the rows at ``slots`` replaced by copies of the rows ``sources`` (read
    before any write), in place where it can: the first copies take the slots, the rest are
    appended, and slots left over take the last rows, which are dropped.  Row order is lost."""
    filled = min(slots.size, sources.size)
    head, holes = slots[:filled], slots[filled:]
    keep = ensemble.count - holes.size
    if holes.size:
        alive = np.ones(holes.size, dtype=bool)  # rows keep.. of each column
        alive[holes[holes >= keep] - keep] = False
        movers, fill = keep + alive.nonzero()[0], holes[holes < keep]

    def move(column):
        copies = column[sources]
        column[head] = copies[:filled]
        if sources.size > filled:
            return np.concatenate((column, copies[filled:]))
        if holes.size:
            column[fill] = column[movers]
        return column[:keep]

    return ensemble._map(move)


def _multinomial_resample(rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int]:
    """Constant-population multinomial resampling with weights 1 + rho, as a parent map.

    Every particle independently picks a parent row with probability
    proportional to the parent weight.  Returns the parents and the
    relocation count (particles whose parent is not their own old row).
    With ``u`` = ``rng.random(count)`` the parents are
    ``rng.choice(count, size=count, p=w / w.sum())`` bit for bit: the same cdf, inverted at
    the same uniforms.  Non-finite or negative
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
    parents = _inverse_cdf(cdf, u)
    return parents, int(np.count_nonzero(parents != np.arange(parents.shape[0])))


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
    scenario: Scenario,
    n: int,
    rng: np.random.Generator,
    *,
    reduce=None,
) -> list:
    """Multinomial-resampling filter (``_multinomial_resample``) on the scenario's record;
    population stays n.  Returns one ``BaselineStep`` per epoch; ``reduce`` is the per-epoch
    reducer of ``_run_epochs``, whose ``parents`` are the rows each particle resampled.

    Raises WeightOverflowError if a weight is NaN or exceeds MAX_RHO.
    """
    run = _run_epochs(scenario, n, rng, _multinomial_resample, reduce)
    return [BaselineStep(step.epoch, step.post, step.branch_events) for step in run.steps]


def population_control(
    count: int, n_target: int, bounds: tuple, rng: np.random.Generator
) -> tuple[np.ndarray, float] | None:
    """The loop's third parent-map rule, and the one place that decides when a run halves
    or doubles: ``(rows, factor)``, output row i being input row ``rows[i]`` with its mass
    times ``factor``, or None inside the band (no draw).  Above high_ratio * n_target each
    row survives iff its uniform is below 1/2 (factor 2); below low_ratio * n_target a
    non-empty population repeats every row twice (factor 1/2).  Every estimate keeps its
    conditional expectation exactly.
    """
    lo_ratio, hi_ratio = bounds
    if not 0.0 < lo_ratio < 1.0 < hi_ratio:
        raise ValueError(
            f"population control bounds ({lo_ratio:g}, {hi_ratio:g}) "
            "must satisfy 0 < low_ratio < 1 < high_ratio"
        )
    if count > hi_ratio * n_target:
        return (rng.random(count) < 0.5).nonzero()[0], 2.0
    if 0 < count < lo_ratio * n_target:
        return np.repeat(np.arange(count), 2), 0.5
    return None
