"""Statistical validation suite.

Each check returns a CheckResult carrying PASS/FAIL (or SKIPPED), a one-line
detail, and the numbers behind the verdict.  Monte Carlo assertions run at
five standard errors; analytic identities at tight floating tolerances.
``scale`` shrinks the sample sizes for quick smoke runs; 1.0 is the full
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .branching import _offspring_counts, empirical_fourier, run_baseline, run_filter
from .metrics import fourier
from .observation import (
    GaussianBumpSensor,
    ObservationModel,
    offspring_parameters,
    simulate_scenario,
    weight,
)
from .reference import ClipRegionError, clip_margin, oracle_summaries
from .seeding import substream
from .stable import (
    InitialLaw,
    SignalModel,
    SpectralMeasure,
    characteristic_exponent,
    directional_moment,
    empirical_cf,
    increment_cf,
    quadratic_variation_paths,
    sample_increment,
)

__all__ = [
    "CheckResult",
    "check_characteristic_function",
    "check_offspring_unbiasedness",
    "check_weight_moment_scaling",
    "check_quadratic_variation",
    "check_compensator",
    "check_mass_moments",
    "check_branch_sparsity",
    "check_oracle_agreement",
    "default_validation_suite",
]


@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIPPED
    detail: str
    values: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status != "FAIL"


def _count(base: int, scale: float, floor: int) -> int:
    """A check's size at ``validate.scale``: base * scale rounded, but at least floor."""
    return max(floor, int(round(base * scale)))


def _two_atom_model(alpha: float) -> SignalModel:
    return SignalModel(
        alpha,
        SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
        InitialLaw.point([0.0, 0.0]),
    )


def check_characteristic_function(seed: int, scale: float = 1.0) -> CheckResult:
    """Empirical increment transforms match exp(dt * l(-theta)) on a 20-node grid."""
    draws_per_alpha = _count(100_000, scale, 2000)
    dt = 1.0
    angles = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    thetas = np.concatenate(
        [
            r * np.column_stack([np.cos(angles), np.sin(angles)])
            for r in (0.5, 1.5)
        ]
    )
    tol = 5.0 * 2.0 / np.sqrt(draws_per_alpha)
    gaps = {}
    for alpha in (0.8, 1.0, 1.5, 2.0):
        model = _two_atom_model(alpha)
        rng = substream(seed, "cf", int(alpha * 10))
        increments = sample_increment(model, dt, rng, size=draws_per_alpha)
        gap = np.abs(
            empirical_cf(increments, thetas) - increment_cf(model, dt, thetas)
        )
        gaps[alpha] = float(gap.max())
    worst = max(gaps.values())
    status = "PASS" if worst < tol else "FAIL"
    detail = (
        f"max CF gap {worst:.2e} (tol {tol:.2e}) over alphas "
        + ", ".join(f"{a}:{g:.2e}" for a, g in gaps.items())
    )
    values = {f"gap_alpha_{a}": g for a, g in gaps.items()}
    values["tolerance"] = tol
    return CheckResult("characteristic_function", status, detail, values)


def check_offspring_unbiasedness(seed: int, scale: float = 1.0) -> CheckResult:
    """Expected offspring equals 1 + rho: exactly, and in Monte Carlo at 5 sigma."""
    rho_grid = np.linspace(-0.99, 5.0, 50)
    base, extra, kill = offspring_parameters(rho_grid)
    analytic = np.where(kill > 0.0, 1.0 - kill, base + extra)
    defect = float(np.max(np.abs(analytic - (1.0 + rho_grid))))
    draws = _count(100_000, scale, 5000)
    rng = substream(seed, "offspring")
    worst_z = 0.0
    for rho, e, q in zip(rho_grid, extra, kill):
        counts = _offspring_counts(np.full(draws, rho), rng.uniform(size=draws))
        var = q * (1.0 - q) if q > 0.0 else e * (1.0 - e)
        se = np.sqrt(max(var, 1e-300) / draws)
        gap = abs(counts.mean() - (1.0 + rho))
        worst_z = max(worst_z, gap / se if var > 0.0 else (0.0 if gap == 0.0 else np.inf))
    status = "PASS" if defect < 1e-14 and worst_z < 5.0 else "FAIL"
    detail = f"analytic defect {defect:.2e} (tol 1e-14), worst MC z-score {worst_z:.2f} (tol 5)"
    return CheckResult(
        "offspring_unbiasedness",
        status,
        detail,
        {"analytic_defect": defect, "worst_z": worst_z},
    )


def check_weight_moment_scaling(seed: int, scale: float = 1.0) -> CheckResult:
    """log E|rho|^r scales in log eps with slope near r/2 for r = 1, 2."""
    rng = substream(seed, "moment-scaling")
    sensor = GaussianBumpSensor([1.0], [[0.0]], [1.0])
    x = np.array([0.0])
    epsilons = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    draws = _count(100_000, scale, 5000)
    m1, m2 = [], []
    for eps in epsilons:
        obs = ObservationModel(sensor, eps)
        h = obs.sensor(x)
        dys = np.sqrt(eps) * rng.standard_normal((draws, 1))
        rho = np.exp(dys @ h - 0.5 * eps * float(h @ h)) - 1.0
        assert rho[0] == weight(x, dys[0], obs)  # vectorized path == the operation
        m1.append(np.mean(np.abs(rho)))
        m2.append(np.mean(rho**2))
    slope1 = float(np.polyfit(np.log(epsilons), np.log(m1), 1)[0])
    slope2 = float(np.polyfit(np.log(epsilons), np.log(m2), 1)[0])
    ok = 0.35 <= slope1 <= 0.65 and 0.85 <= slope2 <= 1.15
    detail = (
        f"first-moment slope {slope1:.3f} (window [0.35, 0.65]); "
        f"second-moment slope {slope2:.3f} (window [0.85, 1.15])"
    )
    return CheckResult(
        "weight_moment_scaling",
        "PASS" if ok else "FAIL",
        detail,
        {"slope_r1": slope1, "slope_r2": slope2},
    )


def check_quadratic_variation(seed: int, scale: float = 1.0) -> CheckResult:
    """Summed squared transform increments match 2t * integral |theta'z|^alpha."""
    gamma = SpectralMeasure([[1.0]], [1.0])
    law = InitialLaw.point([0.0])
    # alpha = 2: the limit is deterministic, value 2 t |theta|^2
    model2 = SignalModel(2.0, gamma, law)
    reps2 = _count(16, scale, 4)
    est2 = quadratic_variation_paths(
        model2, [1.0], 1.0, 10_000, reps2, substream(seed, "qv2")
    ).mean()
    gap2 = abs(est2 - 2.0)
    ok2 = gap2 < 0.02 * 2.0
    # alpha = 1.5: statistical match at 5 sigma over replications
    model15 = SignalModel(1.5, gamma, law)
    target = 2.0 * 0.5 * directional_moment(gamma, [2.0], 1.5)
    reps15 = _count(200, scale, 40)
    paths = quadratic_variation_paths(
        model15, [2.0], 0.5, 10_000, reps15, substream(seed, "qv15")
    )
    se = paths.std(ddof=1) / np.sqrt(paths.size)
    z15 = abs(paths.mean() - target) / se
    ok15 = z15 < 5.0
    detail = (
        f"alpha=2 estimate {est2:.4f} vs 2.0 (tol 2%); "
        f"alpha=1.5 estimate {paths.mean():.4f} vs {target:.4f}, z={z15:.2f}"
    )
    return CheckResult(
        "quadratic_variation",
        "PASS" if ok2 and ok15 else "FAIL",
        detail,
        {"alpha2_estimate": float(est2), "alpha15_z": float(z15), "alpha15_target": target},
    )


def check_compensator(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    scale: float = 1.0,
    n: int = 1000,
    replications: int = 200,
    thetas=(0.5, 1.0),
) -> CheckResult:
    """The compensated transform estimate has mean zero across replications.

    For each run the statistic subtracts, from the terminal transform, the
    initial transform, the per-segment closed-form drift (the transform
    evolves by exp(eps * l(-theta)) in conditional expectation between
    epochs), and the branching jump compensator; over independent runs the
    mean must vanish at 5 standard errors, separately in both components.
    """
    reps = _count(replications, scale, 40)
    d = signal.dimension
    theta_vecs = np.array([[t] + [0.0] * (d - 1) for t in thetas])
    ell = np.array(
        [characteristic_exponent(-tv, signal) for tv in theta_vecs]
    )
    drift_factor = np.exp(obs.epsilon * ell) - 1.0
    _, record = simulate_scenario(signal, obs, horizon, substream(seed, "comp-record"))
    stats = np.empty((reps, len(thetas)), dtype=complex)
    extinct = 0
    for r in range(reps):
        run = run_filter(signal, obs, record, n, substream(seed, "comp-rep", r))
        if run.extinct:
            extinct += 1
            stats[r] = np.nan
            continue
        initial = empirical_fourier(run.initial, theta_vecs)
        segment_sum = initial * drift_factor  # segment starting at t_0
        jump_sum = np.zeros(len(thetas), dtype=complex)
        for step in run.steps:
            rho = weight(step.pre.positions, record.increments[step.epoch - 1], obs)
            jump_sum += step.pre.mass_factor * fourier(step.pre.positions, rho, theta_vecs) / step.pre.initial_count
            post_vals = empirical_fourier(step.post, theta_vecs)
            if step.epoch < record.count:
                segment_sum += post_vals * drift_factor
        final = empirical_fourier(run.steps[-1].post, theta_vecs)
        stats[r] = final - initial - segment_sum - jump_sum
    valid = stats[~np.isnan(stats[:, 0].real)]
    worst_z = 0.0
    for j in range(len(thetas)):
        for part in (valid[:, j].real, valid[:, j].imag):
            se = part.std(ddof=1) / np.sqrt(part.size)
            if se > 0.0:
                worst_z = max(worst_z, abs(part.mean()) / se)
    status = "PASS" if worst_z < 5.0 and extinct == 0 else "FAIL"
    detail = f"worst |mean|/se {worst_z:.2f} over thetas {tuple(thetas)} (tol 5), {reps} runs"
    return CheckResult(
        "martingale_compensator",
        status,
        detail,
        {"worst_z": float(worst_z), "replications": reps, "extinct": extinct},
    )


def check_mass_moments(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    scale: float = 1.0,
    ns=(500, 2000, 8000),
    replications: int = 200,
    xi_threshold: float = 1.0,
) -> CheckResult:
    """Second and fourth moments of the running-sup total mass do not grow with n."""
    if np.sqrt(obs.epsilon) * min(ns) < xi_threshold:
        return CheckResult(
            "mass_moment_stability",
            "FAIL",
            f"hypothesis sqrt(eps)*n >= {xi_threshold} violated for n={min(ns)}",
        )
    reps = _count(replications, scale, 40)
    sups = np.empty((reps, len(ns)))
    for r in range(reps):
        _, record = simulate_scenario(
            signal, obs, horizon, substream(seed, "mass-record", r)
        )
        for j, n in enumerate(ns):
            run = run_filter(signal, obs, record, n, substream(seed, "mass-rep", r, n))
            masses = [1.0] + [s.post.total_mass for s in run.steps]
            sups[r, j] = max(masses)
    log_n = np.log(np.asarray(ns, dtype=float))
    boot = substream(seed, "mass-boot")

    def moment_slopes(sample_idx):
        m2 = (sups[sample_idx] ** 2).mean(axis=0)
        m4 = (sups[sample_idx] ** 4).mean(axis=0)
        return (
            np.polyfit(log_n, np.log(m2), 1)[0],
            np.polyfit(log_n, np.log(m4), 1)[0],
        )

    slope2, slope4 = moment_slopes(np.arange(reps))
    resamples = np.array(
        [moment_slopes(boot.integers(0, reps, size=reps)) for _ in range(1000)]
    )
    lo2, hi2 = np.percentile(resamples[:, 0], [2.5, 97.5])
    lo4, hi4 = np.percentile(resamples[:, 1], [2.5, 97.5])
    ok = lo2 <= 0.0 and lo4 <= 0.0  # no significantly increasing trend
    detail = (
        f"2nd-moment slope {slope2:.4f} CI [{lo2:.4f}, {hi2:.4f}]; "
        f"4th-moment slope {slope4:.4f} CI [{lo4:.4f}, {hi4:.4f}]"
    )
    return CheckResult(
        "mass_moment_stability",
        "PASS" if ok else "FAIL",
        detail,
        {
            "slope_m2": float(slope2),
            "slope_m2_ci_low": float(lo2),
            "slope_m2_ci_high": float(hi2),
            "slope_m4": float(slope4),
            "slope_m4_ci_low": float(lo4),
            "slope_m4_ci_high": float(hi4),
        },
    )


def check_branch_sparsity(
    signal: SignalModel,
    sensor,
    seed: int,
    scale: float = 1.0,
    epsilons=(0.1, 0.05, 0.025, 0.0125),
    n: int = 2000,
    horizon: float = 2.0,
    replications: int = 6,
) -> CheckResult:
    """Branch/death fraction scales like sqrt(eps); the multinomial baseline does not.

    At each observation the branching filter disturbs the particles with
    probability comparable to the weight residual, so the per-epoch fraction
    of branched-or-killed particles follows a log-log slope near 1/2 in eps
    and is small at the smallest eps, while multinomial resampling relocates
    nearly every particle regardless of eps.
    """
    reps = _count(replications, scale, 2)
    n_eff = _count(n, scale, 500)
    fractions = []
    for eps in epsilons:
        obs = ObservationModel(sensor, eps)
        vals = []
        for r in range(reps):
            _, record = simulate_scenario(
                signal, obs, horizon, substream(seed, "sparsity-record", r, int(1e6 * eps))
            )
            run = run_filter(
                signal, obs, record, n_eff, substream(seed, "sparsity-run", r, int(1e6 * eps))
            )
            vals.extend(s.branch_events / s.pre.count for s in run.steps if s.pre.count)
        fractions.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log(epsilons), np.log(fractions), 1)[0])
    smallest = fractions[int(np.argmin(epsilons))]
    eps_min = float(min(epsilons))
    obs = ObservationModel(sensor, eps_min)
    _, record = simulate_scenario(
        signal, obs, horizon, substream(seed, "sparsity-base-record")
    )
    baseline_steps = run_baseline(
        signal, obs, record, n_eff, substream(seed, "sparsity-baseline")
    )
    baseline_fraction = float(
        np.mean([s.relocations / n_eff for s in baseline_steps])
    )
    ok = 0.35 <= slope <= 0.65 and smallest < 0.1 and baseline_fraction > 0.9
    detail = (
        f"branch fraction slope {slope:.3f} (window [0.35, 0.65]); "
        f"fraction at eps={eps_min} is {smallest:.4f} (< 0.1); "
        f"multinomial relocation fraction {baseline_fraction:.4f} (> 0.9)"
    )
    return CheckResult(
        "branch_sparsity",
        "PASS" if ok else "FAIL",
        detail,
        {
            "slope": slope,
            "smallest_fraction": smallest,
            "baseline_fraction": baseline_fraction,
            **{f"fraction_eps_{e}": f for e, f in zip(epsilons, fractions)},
        },
    )


def check_oracle_agreement(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    scale: float = 1.0,
    oracle: str = "grid",
    n: int = 2000,
    grid_points: int = 512,
    grid_halfwidth: float = 10.0,
) -> CheckResult:
    """Particle normalized mean tracks the configured particle-free reference.

    SKIPPED when no oracle is configured.
    FAIL when, under the kalman oracle, the truth or a particle left the clip region.
    """
    if oracle == "none":
        return CheckResult(
            "oracle_agreement", "SKIPPED", "no oracle configured; nothing to compare"
        )
    n_eff = _count(n, scale, 500)
    truth, record = simulate_scenario(
        signal, obs, horizon, substream(seed, "oracle-record")
    )
    run = run_filter(signal, obs, record, n_eff, substream(seed, "oracle-run"))
    if run.extinct:
        return CheckResult("oracle_agreement", "FAIL", "particle system went extinct")
    summaries = oracle_summaries(
        signal,
        obs,
        record,
        oracle,
        grid_points=grid_points,
        grid_halfwidth=grid_halfwidth,
    )
    if oracle == "kalman":
        try:
            clip_margin(obs.sensor, [truth] + [s.post.positions for s in run.steps])
        except ClipRegionError as exc:
            return CheckResult("oracle_agreement", "FAIL", str(exc))
    particle_means = np.array([s.post.positions.mean(axis=0) for s in run.steps])
    means = np.array([s.mean for s in summaries[1:]])
    spread = float(np.sqrt(np.mean([s.variance.sum() for s in summaries[1:]])))
    rms = float(np.sqrt(np.mean(np.sum((particle_means - means) ** 2, axis=1))))
    bound = 8.0 * spread / np.sqrt(n_eff)
    ok = rms < bound
    detail = f"normalized-mean RMS {rms:.4f} vs bound {bound:.4f} ({oracle} oracle, n={n_eff})"
    return CheckResult(
        "oracle_agreement",
        "PASS" if ok else "FAIL",
        detail,
        {"rms": rms, "bound": bound},
    )


def default_validation_suite(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    scale: float = 1.0,
    oracle: str = "grid",
    grid_points: int = 512,
    grid_halfwidth: float = 10.0,
) -> list:
    """The validate command's checks, in print order.  A check's RuntimeError (a run that
    outgrew the population cap or overflowed a weight) stops the suite naming the check."""
    checks = {
        "characteristic_function": lambda: check_characteristic_function(seed, scale),
        "offspring_unbiasedness": lambda: check_offspring_unbiasedness(seed, scale),
        "weight_moment_scaling": lambda: check_weight_moment_scaling(seed, scale),
        "quadratic_variation": lambda: check_quadratic_variation(seed, scale),
        "martingale_compensator": lambda: check_compensator(signal, obs, horizon, seed, scale),
        "mass_moment_stability": lambda: check_mass_moments(signal, obs, horizon, seed, scale),
        "branch_sparsity": lambda: check_branch_sparsity(signal, obs.sensor, seed, scale),
        "oracle_agreement": lambda: check_oracle_agreement(
            signal, obs, horizon, seed, scale, oracle,
            grid_points=grid_points, grid_halfwidth=grid_halfwidth,
        ),
    }
    results = []
    for name, check in checks.items():
        try:
            results.append(check())
        except RuntimeError as exc:
            raise RuntimeError(f"{name}: {exc}") from exc
    return results
