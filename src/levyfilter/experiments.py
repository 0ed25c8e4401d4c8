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
from .reference import clip_margin, oracle_summaries
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
    *,
    oracle: str = "grid",
    grid_points: int = 512,
    grid_halfwidth: float = 10.0,
    error_epochs: str = "final",
    control: tuple | None = None,
) -> RateSweepResult:
    """Sobolev filter error against the configured oracle, per n and replication.

    One observation record (drawn from the seed) is shared by the oracle and
    all particle runs; replications vary only the particle randomness, so the
    measured decay in n is the Monte Carlo rate.  ``error_epochs`` is
    ``"final"`` (error at the terminal epoch only) or ``"all"``.  ``control``
    is ``run_filter``'s population control band ``(low_ratio, high_ratio)``,
    held around each run's n.  Under the kalman oracle every run must keep to
    the sensor's clip region.
    """
    truth, record = simulate_scenario(signal, obs, horizon, substream(seed, "sweep-record"))
    targets = oracle_summaries(
        signal,
        obs,
        record,
        oracle,
        grid_points=grid_points,
        grid_halfwidth=grid_halfwidth,
        metric=metric,
    )
    epochs = (
        range(1, record.count + 1) if error_epochs == "all" else (record.count,)
    )
    kalman = oracle == "kalman"  # a normalized posterior, exact only inside the clip region
    rows = []
    per_n_error = []
    extinct_runs = 0
    total_runs = 0
    for n in ns:
        final_sq = []
        for rep in range(replications):
            total_runs += 1
            run = run_filter(
                signal, obs, record, n, substream(seed, "sweep-run", n, rep), control=control
            )
            if kalman:
                clip_margin(obs.sensor, [truth] + [step.post.positions for step in run.steps])
            if run.extinct:
                extinct_runs += 1
                continue
            for k in epochs:
                ensemble = run.steps[k - 1].post
                values = ensemble_transform(ensemble, metric)
                if kalman and ensemble.total_mass > 0.0:
                    values = values / ensemble.total_mass
                err = filter_error(values, targets[k].transform, metric)
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
    posterior = oracle_summaries(signal, obs, record, "kalman")
    posterior_std = float(np.sqrt(np.mean([s.variance.sum() for s in posterior[1:]])))
    margin = float("inf")
    per_n_rms = []
    reference_rms = np.nan
    for n in sorted(set(list(ns) + [reference_n])):
        sq = []
        for rep in range(replications):
            run = run_filter(
                signal, obs, record, n, substream(seed, "kalman-run", n, rep)
            )
            if run.extinct:
                raise ExtinctionError(
                    f"kalman cross-check: particle system extinct at observation epoch "
                    f"{run.extinct_epoch} (n {n}, replication {rep})"
                )
            posts = [step.post.positions for step in run.steps]
            margin = min(margin, clip_margin(obs.sensor, [truth] + posts))
            for step in run.steps:
                gap = step.post.positions.mean(axis=0) - posterior[step.epoch].mean
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
    slope: float                   # log-log slope of the branching fraction in eps


def baseline_comparison(
    signal: SignalModel,
    sensor,
    horizon: float,
    n: int,
    seed: int,
    *,
    epsilons=(0.1, 0.05, 0.025, 0.0125),
    oracle: str = "grid",
    grid_points: int = 512,
    grid_halfwidth: float = 10.0,
) -> BaselineComparison:
    """Branching versus multinomial resampling on identical records, per eps; the errors are
    against the grid or kalman oracle (every particle kept to the kalman clip region).

    Raises ExtinctionError if a branching run dies out: its fractions and errors would
    cover only the epochs before extinction.
    """
    b_fracs, m_fracs, b_errs, m_errs = [], [], [], []
    for eps in epsilons:
        obs = ObservationModel(sensor, eps)
        tag = int(round(1e6 * eps))
        truth, record = simulate_scenario(
            signal, obs, horizon, substream(seed, "baseline-record", tag)
        )
        run = run_filter(signal, obs, record, n, substream(seed, "baseline-branch", tag))
        if run.extinct:
            raise ExtinctionError(
                f"compare-baseline: branching particle system of {n} extinct at "
                f"observation epoch {run.extinct_epoch} of {record.count} (epsilon {eps:g})"
            )
        b_fracs.append(
            float(np.mean([s.branch_events / s.pre.count for s in run.steps]))
        )
        steps = run_baseline(
            signal, obs, record, n, substream(seed, "baseline-multi", tag)
        )
        m_fracs.append(float(np.mean([s.relocations / n for s in steps])))
        oracle_means = np.nan  # no oracle: nan errors
        if oracle != "none":
            summaries = oracle_summaries(
                signal,
                obs,
                record,
                oracle,
                grid_points=grid_points,
                grid_halfwidth=grid_halfwidth,
            )
            if oracle == "kalman":
                clip_margin(sensor, [truth] + [s.post.positions for s in run.steps + steps])
            oracle_means = np.array([s.mean for s in summaries[1:]])
        for errs, filter_steps in ((b_errs, run.steps), (m_errs, steps)):
            means = np.array([s.post.positions.mean(axis=0) for s in filter_steps])
            errs.append(float(np.mean(np.abs(means - oracle_means))))
    slope = float(np.polyfit(np.log(epsilons), np.log(b_fracs), 1)[0])
    return BaselineComparison(
        epsilons=list(epsilons),
        branching_fractions=b_fracs,
        multinomial_fractions=m_fracs,
        branching_errors=b_errs,
        multinomial_errors=m_errs,
        slope=slope,
    )
