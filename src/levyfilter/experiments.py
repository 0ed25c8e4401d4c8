"""Rate sweeps, the Kalman cross-check, and the baseline comparison.

These compose the particle filter, the reference filters, and the spectral
metrics into the experiments the harness exposes.  Every experiment derives
all randomness from (master seed, tags), so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branching import ExtinctionError, run_baseline, run_filter
from .metrics import FrequencyGrid, RateFit, filter_error, fourier, rate_fit, slope_confidence
from .observation import ObservationModel, simulate_scenario
from .reference import Oracle
from .seeding import substream
from .stable import SignalModel

__all__ = [
    "ensemble_transform",
    "RateSweepResult",
    "rate_sweep",
    "KalmanCrosscheckResult",
    "kalman_crosscheck",
    "BaselineComparison",
    "baseline_comparison",
    "PostMeans",
]


def ensemble_transform(ensemble, grid: FrequencyGrid) -> np.ndarray:
    """``empirical_fourier`` on a metric grid; a 1-d lattice takes the NUFFT path."""
    return ensemble.mass_factor * fourier(ensemble.positions, None, grid) / ensemble.initial_count


@dataclass
class RateSweepResult:
    rows: list                 # (n, replication, epoch, error)
    per_n_error: list          # (n, rms error at the final epoch)
    fit: RateFit
    slope_ci: tuple            # (slope, lo, hi)
    extinct_runs: int
    total_runs: int

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

    One observation record (drawn from the seed) is shared by the oracle and
    all particle runs; replications vary only the particle randomness, so the
    measured decay in n is the Monte Carlo rate.  ``error_epochs`` is
    ``"final"`` (error at the terminal epoch only) or ``"all"``.  ``control``
    is ``run_filter``'s population control band ``(low_ratio, high_ratio)``,
    held around each run's n.  Every run must keep to the oracle's clip margin.
    """
    if oracle is None:
        raise ValueError("rate_sweep needs an oracle (grid or kalman)")
    truth, record = simulate_scenario(signal, obs, horizon, substream(seed, "sweep-record"))
    targets = oracle.summaries(signal, obs, record, metric)
    epochs = (
        range(1, record.count + 1) if error_epochs == "all" else (record.count,)
    )
    rows = []
    per_n_error = []
    extinct_runs = 0
    total_runs = 0
    for n in ns:
        final_sq = []
        for rep in range(replications):
            total_runs += 1
            reaches, errors = [], []

            def reduce(k, pre, rho, counts, control_rows, post):
                reaches.extend(oracle.clip_reaches(obs.sensor, [post.positions]))
                if k in epochs and post.count:
                    values = ensemble_transform(post, metric)
                    if oracle.normalized:
                        values = values / post.total_mass
                    errors.append((k, filter_error(values, targets[k].transform, metric)))

            run = run_filter(
                signal, obs, record, n, substream(seed, "sweep-run", n, rep),
                control=control, reduce=reduce,
            )
            oracle.clip_margin(obs.sensor, [truth], reaches)
            if run.extinct:
                extinct_runs += 1
                continue
            for k, err in errors:
                rows.append((n, rep, k, err))
                if k == record.count:
                    final_sq.append(err * err)
        if final_sq:
            per_n_error.append((n, float(np.sqrt(np.mean(final_sq)))))
    fit = rate_fit(per_n_error) if len(per_n_error) >= 3 else None
    ci = slope_confidence(per_n_error) if len(per_n_error) >= 3 else None
    return RateSweepResult(
        rows=rows,
        per_n_error=per_n_error,
        fit=fit,
        slope_ci=ci,
        extinct_runs=extinct_runs,
        total_runs=total_runs,
    )


@dataclass
class KalmanCrosscheckResult:
    per_n_rms: list            # (n, pooled rms of the normalized-mean error)
    reference_n: int
    reference_rms: float
    tolerance: float
    fit: RateFit
    posterior_std: float
    clip_margin: float         # clip bound minus the largest |Bx| seen

    @property
    def within_tolerance(self) -> bool:
        return self.reference_rms < self.tolerance


def kalman_crosscheck(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    *,
    ns=(1000, 4000, 16000),
    reference_n: int = 10_000,
    replications: int = 24,
) -> KalmanCrosscheckResult:
    """Particle normalized mean against the exact Gaussian posterior mean.

    Pools the squared error over replications and epochs per particle count;
    the tolerance at the reference count is five posterior standard
    deviations over sqrt(n).  After each run, checks that the truth and every
    particle stayed inside the sensor's linear region (``ClipRegionError``).
    """
    truth, record = simulate_scenario(
        signal, obs, horizon, substream(seed, "kalman-record")
    )
    oracle = Oracle("kalman")
    posterior = oracle.summaries(signal, obs, record)
    posterior_std = float(np.sqrt(np.mean([s.variance.sum() for s in posterior[1:]])))
    margin = float("inf")
    per_n_rms = []
    reference_rms = np.nan
    for n in sorted(set(list(ns) + [reference_n])):
        sq = []
        for rep in range(replications):
            posts = PostMeans(oracle, obs.sensor)
            run = run_filter(
                signal, obs, record, n, substream(seed, "kalman-run", n, rep), reduce=posts
            )
            if run.extinct:
                raise ExtinctionError(
                    f"kalman cross-check: particle system extinct at observation epoch "
                    f"{run.extinct_epoch} (n {n}, replication {rep})"
                )
            margin = min(margin, oracle.clip_margin(obs.sensor, [truth], posts.reaches))
            for step, mean in zip(run.steps, posts.means):
                gap = mean - posterior[step.epoch].mean
                sq.append(float(gap @ gap))
        rms = float(np.sqrt(np.mean(sq)))
        if n == reference_n:
            reference_rms = rms
        if n in ns:
            per_n_rms.append((n, rms))
    return KalmanCrosscheckResult(
        per_n_rms=per_n_rms,
        reference_n=reference_n,
        reference_rms=reference_rms,
        tolerance=5.0 * posterior_std / np.sqrt(reference_n),
        fit=rate_fit(per_n_rms) if len(per_n_rms) >= 3 else None,
        posterior_std=posterior_std,
        clip_margin=margin,
    )


@dataclass
class BaselineComparison:
    epsilons: list
    branching_fractions: list      # mean per-epoch branch/death fraction per eps
    multinomial_fractions: list    # mean per-epoch relocation fraction per eps
    branching_errors: list         # mean |normalized mean - oracle mean| per eps (nan without one)
    multinomial_errors: list
    slope: float                   # log-log slope of the branching fraction in eps, nan for one eps


class PostMeans:
    """A per-epoch reducer for ``run_filter`` and ``run_baseline``: the mean position of
    every nonempty ``post`` (``means``) and the ``oracle``'s clip reaches of them under
    ``sensor`` (``reaches``; none without an oracle)."""

    def __init__(self, oracle: Oracle | None, sensor):
        self.oracle, self.sensor = oracle, sensor
        self.means, self.reaches = [], []

    def __call__(self, k, pre, rho, counts, control_rows, post):
        if post.count:
            self.means.append(post.positions.mean(axis=0))
        if self.oracle is not None:
            self.reaches += self.oracle.clip_reaches(self.sensor, [post.positions])


def baseline_comparison(
    signal: SignalModel,
    sensor,
    horizon: float,
    n: int,
    seed: int,
    oracle: Oracle | None,
    *,
    epsilons=(0.1, 0.05, 0.025, 0.0125),
) -> BaselineComparison:
    """Branching versus multinomial resampling on identical records, per eps; the errors are
    against ``oracle`` (every particle kept to its clip margin), nan without one.

    Raises ExtinctionError if a branching run dies out: its fractions and errors would
    cover only the epochs before extinction.  Each run keeps only its per-epoch sizes;
    ``PostMeans`` reduces it to the means and clip reaches the comparison reads.
    """
    b_fracs, m_fracs, b_errs, m_errs = [], [], [], []
    for eps in epsilons:
        obs = ObservationModel(sensor, eps)
        tag = int(round(1e6 * eps))
        truth, record = simulate_scenario(
            signal, obs, horizon, substream(seed, "baseline-record", tag)
        )
        branch = PostMeans(oracle, sensor)
        run = run_filter(
            signal, obs, record, n, substream(seed, "baseline-branch", tag), reduce=branch
        )
        if run.extinct:
            raise ExtinctionError(
                f"compare-baseline: branching particle system of {n} extinct at "
                f"observation epoch {run.extinct_epoch} of {record.count} (epsilon {eps:g})"
            )
        b_fracs.append(float(np.mean([s.branch_events / s.pre.count for s in run.steps])))
        multi = PostMeans(oracle, sensor)
        steps = run_baseline(
            signal, obs, record, n, substream(seed, "baseline-multi", tag), reduce=multi
        )
        m_fracs.append(float(np.mean([s.relocations / n for s in steps])))
        oracle_means = np.nan  # no oracle: nan errors
        if oracle is not None:
            summaries = oracle.summaries(signal, obs, record)
            oracle.clip_margin(sensor, [truth], branch.reaches + multi.reaches)
            oracle_means = np.array([s.mean for s in summaries[1:]])
        for errs, posts in ((b_errs, branch), (m_errs, multi)):
            errs.append(float(np.mean(np.abs(np.array(posts.means) - oracle_means))))
    slope = np.nan  # no line through fewer than two distinct epsilons
    if len(set(epsilons)) > 1:
        slope = float(np.polyfit(np.log(epsilons), np.log(b_fracs), 1)[0])
    return BaselineComparison(
        epsilons=list(epsilons),
        branching_fractions=b_fracs,
        multinomial_fractions=m_fracs,
        branching_errors=b_errs,
        multinomial_errors=m_errs,
        slope=slope,
    )
