"""Rate sweeps, the Kalman cross-check, and the baseline comparison.

These compose the particle filter, the reference filters, and the spectral
metrics into the experiments the harness exposes.  Every experiment derives
all randomness from (master seed, tags), so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branching import PopulationControl, empirical_fourier, run_baseline, run_filter
from .metrics import FrequencyGrid, RateFit, filter_error, rate_fit, slope_confidence
from .observation import ClippedLinearSensor, ObservationModel, simulate_scenario
from .reference import _kalman_from_law, run_reference
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
    """Exact per-node transform of the empirical measure on a metric grid.

    Direct summation over particles at every node; on a uniform 1-d axis the
    node phases advance geometrically, which evaluates the same sums without
    per-node transcendentals.  Agrees with ``empirical_fourier`` to roundoff.
    """
    if grid.dimension != 1 or ensemble.count == 0:
        return empirical_fourier(ensemble, grid.nodes)
    x = ensemble.positions[:, 0]
    nodes = grid.nodes[:, 0]
    current = np.exp(-1j * nodes[0] * x)
    step = np.exp(-1j * grid.spacing * x)
    out = np.empty(nodes.size, dtype=complex)
    out[0] = current.sum()
    for j in range(1, nodes.size):
        current *= step
        out[j] = current.sum()
    return ensemble.mass_factor * out / ensemble.initial_count


@dataclass
class RateSweepResult:
    rows: list                 # (n, replication, epoch, error)
    per_n_error: list          # (n, rms error at the final epoch)
    fit: RateFit
    slope_ci: tuple            # (slope, lo, hi)
    extinct_runs: int
    total_runs: int
    epsilon: float

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
    is a band ``(low_ratio, high_ratio)``: each run of n particles then runs
    under ``PopulationControl(n, low_ratio, high_ratio)``.
    """
    if oracle not in ("grid", "kalman"):
        raise ValueError("rate sweep needs a grid or kalman oracle")
    _, record = simulate_scenario(signal, obs, horizon, substream(seed, "sweep-record"))
    targets = _oracle_transforms(signal, obs, record, metric, oracle, grid_points, grid_halfwidth)
    epochs = (
        range(1, record.count + 1) if error_epochs == "all" else (record.count,)
    )
    normalized = oracle == "kalman"
    rows = []
    per_n_error = []
    extinct_runs = 0
    total_runs = 0
    for n in ns:
        final_sq = []
        n_control = PopulationControl(n, *control) if control else None
        for rep in range(replications):
            total_runs += 1
            run = run_filter(
                signal, obs, record, n, substream(seed, "sweep-run", n, rep), control=n_control
            )
            if run.extinct:
                extinct_runs += 1
                continue
            for k in epochs:
                ensemble = run.steps[k - 1].post
                values = ensemble_transform(ensemble, metric)
                if normalized and ensemble.total_mass > 0.0:
                    values = values / ensemble.total_mass
                err = filter_error(values, targets[k], metric)
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
        epsilon=obs.epsilon,
    )


def _oracle_transforms(signal, obs, record, metric, oracle, grid_points, grid_halfwidth):
    """Per-epoch transform of the reference filter on the metric nodes."""
    targets = {}
    if oracle == "grid":
        summaries, _ = run_reference(
            signal,
            obs,
            record,
            domain_halfwidth=grid_halfwidth,
            points_per_axis=grid_points,
            theta_grid=metric.nodes,
        )
        for s in summaries:
            targets[s.epoch] = s.transform
        return targets
    sensor = obs.sensor
    if not isinstance(sensor, ClippedLinearSensor):
        raise ValueError("kalman oracle requires the clipped-linear sensor")
    if signal.alpha != 2.0:
        raise ValueError("kalman oracle requires alpha = 2")
    cov0, means, covs = _kalman_from_law(signal, sensor.matrix, record)
    th, mean0 = metric.nodes, signal.initial_law.center
    targets[0] = np.exp(-1j * (th @ mean0) - 0.5 * np.einsum("mi,ij,mj->m", th, cov0, th))
    for k in range(1, record.count + 1):
        quad = np.einsum("mi,ij,mj->m", th, covs[k - 1], th)
        targets[k] = np.exp(-1j * (th @ means[k - 1]) - 0.5 * quad)
    return targets


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
    deviations over sqrt(n).  Verifies post hoc that the truth and every
    particle stayed inside the sensor's linear region.
    """
    sensor = obs.sensor
    if not isinstance(sensor, ClippedLinearSensor):
        raise ValueError("kalman cross-check requires the clipped-linear sensor")
    if signal.alpha != 2.0:
        raise ValueError("kalman cross-check requires alpha = 2")
    truth, record = simulate_scenario(
        signal, obs, horizon, substream(seed, "kalman-record")
    )
    _, means, covs = _kalman_from_law(signal, sensor.matrix, record)
    posterior_std = float(np.sqrt(np.mean([np.trace(c) for c in covs])))
    largest_projection = float(np.abs(truth @ sensor.matrix.T).max())
    per_n_rms = []
    reference_rms = np.nan
    for n in sorted(set(list(ns) + [reference_n])):
        sq = []
        for rep in range(replications):
            run = run_filter(
                signal, obs, record, n, substream(seed, "kalman-run", n, rep)
            )
            if run.extinct:
                raise RuntimeError("extinction in the kalman cross-check scenario")
            for step in run.steps:
                largest_projection = max(
                    largest_projection,
                    float(np.abs(step.post.positions @ sensor.matrix.T).max()),
                )
                gap = step.post.positions.mean(axis=0) - means[step.epoch - 1]
                sq.append(float(gap @ gap))
        rms = float(np.sqrt(np.mean(sq)))
        if n == reference_n:
            reference_rms = rms
        if n in ns:
            per_n_rms.append((n, rms))
    clip_margin = sensor.clip - largest_projection
    if clip_margin <= 0.0:
        raise RuntimeError(
            "clip region violated; scenario invalid for the kalman oracle"
        )
    return KalmanCrosscheckResult(
        per_n_rms=per_n_rms,
        reference_n=reference_n,
        reference_rms=reference_rms,
        tolerance=5.0 * posterior_std / np.sqrt(reference_n),
        fit=rate_fit(per_n_rms) if len(per_n_rms) >= 3 else None,
        posterior_std=posterior_std,
        clip_margin=clip_margin,
    )


@dataclass
class BaselineComparison:
    epsilons: list
    branching_fractions: list      # mean per-epoch branch/death fraction per eps
    multinomial_fractions: list    # mean per-epoch relocation fraction per eps
    branching_errors: list         # mean |normalized mean - oracle mean| per eps (nan without oracle)
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
    """Branching versus multinomial resampling on identical records, per eps."""
    b_fracs, m_fracs, b_errs, m_errs = [], [], [], []
    for eps in epsilons:
        obs = ObservationModel(sensor, eps)
        tag = int(round(1e6 * eps))
        _, record = simulate_scenario(
            signal, obs, horizon, substream(seed, "baseline-record", tag)
        )
        run = run_filter(signal, obs, record, n, substream(seed, "baseline-branch", tag))
        b_fracs.append(
            float(np.mean([s.branch_events / s.pre.count for s in run.steps]))
        )
        steps = run_baseline(
            signal, obs, record, n, substream(seed, "baseline-multi", tag)
        )
        m_fracs.append(float(np.mean([s.relocations / n for s in steps])))
        if oracle == "grid":
            summaries, _ = run_reference(
                signal,
                obs,
                record,
                domain_halfwidth=grid_halfwidth,
                points_per_axis=grid_points,
            )
            oracle_means = np.array([s.mean for s in summaries[1:]])
            b_means = np.array([s.post.positions.mean(axis=0) for s in run.steps])
            m_means = np.array([s.post.positions.mean(axis=0) for s in steps])
            b_errs.append(float(np.mean(np.abs(b_means - oracle_means))))
            m_errs.append(float(np.mean(np.abs(m_means - oracle_means))))
        else:
            b_errs.append(float("nan"))
            m_errs.append(float("nan"))
    slope = float(np.polyfit(np.log(epsilons), np.log(b_fracs), 1)[0])
    return BaselineComparison(
        epsilons=list(epsilons),
        branching_fractions=b_fracs,
        multinomial_fractions=m_fracs,
        branching_errors=b_errs,
        multinomial_errors=m_errs,
        slope=slope,
    )
