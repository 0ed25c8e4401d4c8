"""Rate sweeps and the baseline comparison.

These compose the particle filter, the reference filters, and the spectral
metrics into the experiments the command line runs.  Every experiment derives
all randomness from (master seed, tags), so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branching import ExtinctionError, run_baseline, run_filter
from .metrics import FrequencyGrid, RateFit, _log_line, filter_error, fourier, rate_fit
from .observation import ObservationModel, simulate_scenario
from .reference import Oracle
from .seeding import substream
from .stable import SignalModel

__all__ = [
    "ensemble_transform",
    "replicates",
    "RateSweepResult",
    "rate_sweep",
    "BaselineComparison",
    "baseline_comparison",
]


def ensemble_transform(ensemble, nodes) -> np.ndarray:
    """The transform of the particle measure, mass_factor / n * sum_i exp(-i theta' X_i), on
    a metric grid (a 1-d lattice takes the NUFFT path) or a node array (summed directly);
    an empty ensemble transforms to zero everywhere."""
    return ensemble.estimate(fourier(ensemble.positions, None, nodes))


def replicates(scenario, oracle, n, rngs, *, keep=None, control=None, multinomial=False):
    """Yield ``(run, kept, margin)`` for one ``n``-particle run on ``scenario`` per generator in
    ``rngs``, one alive at a time: the ``FilterRun`` (``run_baseline``'s steps if ``multinomial``),
    ``keep(k, post)`` of each epoch k with survivors, and the clip margin of the truth and every
    particle the run weighed (inf without an oracle); ClipRegionError when it is not positive.
    The one place that decides how a branching run reads its epochs: eager only to feed ``keep``
    or the Kalman clip check, which reads every ``pre``; any other run thins."""
    sensor = scenario.obs.sensor
    truth = 0.0 if oracle is None else oracle.clip_reach(sensor, scenario.truth)
    eager = keep is not None or (oracle is not None and oracle.kind == "kalman")
    for rng in rngs:
        reach, kept = truth, []

        def reduce(k, pre, rho, parents, post):
            nonlocal reach
            if oracle is not None:
                reach = max(reach, oracle.clip_reach(sensor, pre.positions))
            if keep is not None and post.count:
                kept.append(keep(k, post))

        if multinomial:
            run = run_baseline(scenario, n, rng, reduce=reduce)
        else:
            run = run_filter(scenario, n, rng, control=control, reduce=reduce if eager else None)
        yield run, kept, math.inf if oracle is None else oracle.clip_margin(sensor, reach)


def _post_mean(k, post):
    """The mean position of ``post``, what a normalized-mean comparison keeps per epoch."""
    return post.positions.mean(axis=0)


@dataclass
class RateSweepResult:
    rows: list                 # (n, replication, epoch, error)
    per_n_error: list          # (n, rms error at the final epoch)
    fit: RateFit
    extinct_runs: int
    total_runs: int
    particle_epochs: int       # summed over the runs' epochs: population, moves, weighings
    moves: int
    weighings: int

    @property
    def extinction_fraction(self) -> float:
        return self.extinct_runs / self.total_runs if self.total_runs else 0.0


def rate_sweep(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    ns,
    replications: int,
    seed: int,
    metric: FrequencyGrid,
    oracle: Oracle,
    *,
    error_epochs: str = "final",
    control: tuple | None = None,
) -> RateSweepResult:
    """Sobolev filter error against ``oracle`` (ValueError without one), per n and replication.

    One observation record (drawn from the seed) is shared by the oracle and all particle
    runs; replications vary only the particle randomness, so the measured decay in n is the
    Monte Carlo rate.  ``error_epochs`` is ``"final"`` (error at the terminal epoch only) or
    ``"all"``.  ``control`` is ``run_filter``'s population control band
    ``(low_ratio, high_ratio)``, held around each run's n.  ``replicates`` runs them, each kept
    to the clip margin.  A repeated n is a ValueError: its runs would share their seeds and
    repeat a point.  The final error is the last one kept under ``"all"``, else ``run.final``'s.
    """
    if oracle is None:
        raise ValueError("rate_sweep needs an oracle (grid or kalman)")
    if len(set(ns)) < len(ns):
        raise ValueError(f"rate_sweep needs distinct particle counts, got {list(ns)}")
    scenario = simulate_scenario(signal, obs, horizon, substream(seed, "sweep-record"))
    K = scenario.count
    targets = oracle.summaries(scenario, metric)

    def error(k, post):
        values = ensemble_transform(post, metric)
        if oracle.normalized:
            values = values / post.total_mass
        return k, filter_error(values, targets[k].transform, metric)

    rows = []
    per_n_error = []
    extinct_runs = 0
    total_runs = 0
    particle_epochs = moves = weighings = 0
    keep = error if error_epochs == "all" else None
    for n in ns:
        final_sq = []
        rngs = (substream(seed, "sweep-run", n, rep) for rep in range(replications))
        runs = replicates(scenario, oracle, n, rngs, keep=keep, control=control)
        for rep, (run, errors, _) in enumerate(runs):
            total_runs += 1
            particle_epochs += sum(s.pre.count for s in run.steps)
            moves += sum(s.moved for s in run.steps)
            weighings += sum(s.weighed for s in run.steps)
            if run.extinct:
                extinct_runs += 1
                continue
            errors = errors or [error(K, run.final)]
            rows.extend((n, rep, k, e) for k, e in errors)
            err = errors[-1][1]
            final_sq.append(err * err)
        if final_sq:
            per_n_error.append((n, float(np.sqrt(np.mean(final_sq)))))
    return RateSweepResult(
        rows=rows,
        per_n_error=per_n_error,
        fit=rate_fit(per_n_error) if len(per_n_error) >= 3 else None,
        extinct_runs=extinct_runs,
        total_runs=total_runs,
        particle_epochs=particle_epochs,
        moves=moves,
        weighings=weighings,
    )


@dataclass
class BaselineComparison:
    epsilons: list
    branching_fractions: list      # mean per-epoch branch/death fraction per eps, all records
    multinomial_fractions: list    # mean per-epoch relocation fraction per eps
    branching_errors: list         # mean |normalized mean - oracle mean| per eps (nan without one)
    multinomial_errors: list
    slope: float                   # log-log slope of the fraction in eps; nan for one eps or a 0


def _epsilon_tag(eps) -> int:
    """The seed tag of one epsilon's records and runs: epsilons closer than 5e-7 share one."""
    return int(round(1e6 * eps))


def baseline_comparison(
    signal: SignalModel,
    sensor,
    horizon: float,
    n: int,
    seed: int,
    oracle: Oracle | None,
    *,
    epsilons,
    records: int = 1,
) -> BaselineComparison:
    """Branching versus multinomial resampling on identical records, per eps; the errors are
    against ``oracle`` (every particle kept to its clip margin), nan without one.

    Each of ``records`` records per eps adds one branching run to the pooled branching
    fraction; the multinomial rule, which relocates about 1 - 1/n of the rows on any record,
    and the errors read record 0 alone.  Raises ExtinctionError if a branching run dies out:
    its fractions and errors would cover only the epochs before extinction.  Runs keep only
    their sizes and, through ``replicates`` with an oracle, their means (without, they thin).
    """
    keep = None if oracle is None else _post_mean
    b_fracs, m_fracs, b_errs, m_errs = [], [], [], []
    for eps in epsilons:
        obs, tag, fracs = ObservationModel(sensor, eps), _epsilon_tag(eps), []
        for r in range(records):
            key = (tag, r) if r else (tag,)  # record 0 keeps the tags of a single record
            record = simulate_scenario(signal, obs, horizon, substream(seed, "baseline-record", *key))
            [(run, means, _)] = replicates(
                record, oracle, n, [substream(seed, "baseline-branch", *key)], keep=keep
            )
            if run.extinct:
                raise ExtinctionError(
                    f"branching particle system of {n} extinct at observation epoch "
                    f"{run.extinct_epoch} of {record.count} (epsilon {eps:g})"
                )
            fracs.extend(s.branch_events / s.pre.count for s in run.steps)
            if not r:
                scenario, b_means = record, means
        b_fracs.append(float(np.mean(fracs)))
        [(steps, m_means, _)] = replicates(
            scenario, oracle, n, [substream(seed, "baseline-multi", tag)], keep=keep,
            multinomial=True,
        )
        m_fracs.append(float(np.mean([s.relocations / n for s in steps])))
        if oracle is None:  # no means kept: nan errors
            b_errs.append(math.nan)
            m_errs.append(math.nan)
            continue
        oracle_means = np.array([s.mean for s in oracle.summaries(scenario)[1:]])
        for errs, means in ((b_errs, b_means), (m_errs, m_means)):
            errs.append(float(np.mean(np.abs(np.array(means) - oracle_means))))
    slope = np.nan  # no line through fewer than two distinct epsilons
    if len(set(epsilons)) > 1:
        slope = _log_line(epsilons, b_fracs)[0]
    return BaselineComparison(
        epsilons=list(epsilons),
        branching_fractions=b_fracs,
        multinomial_fractions=m_fracs,
        branching_errors=b_errs,
        multinomial_errors=m_errs,
        slope=slope,
    )
