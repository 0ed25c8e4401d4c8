"""Statistical validation suite, and the Kalman cross-check that ``validate`` leaves out.

Each check returns a CheckResult carrying PASS/FAIL (or SKIPPED) and a one-line
detail that reports the numbers behind the verdict; only the oracle agreement and
Kalman cross-checks, whose callers read them, also fill ``values``.  Monte Carlo
assertions run at five standard errors; analytic identities at tight floating
tolerances.  ``scale`` shrinks the sample sizes for quick smoke runs; 1.0 is the
full suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .branching import ExtinctionError, _offspring_counts, run_baseline, run_filter
from .experiments import _epsilon_tag, _post_mean, replicates
from .metrics import RateFit, _log_line, rate_fit, running_total, unit_terms
from .observation import (
    GaussianBumpSensor,
    ObservationModel,
    offspring_parameters,
    simulate_scenario,
    weight,
)
from .reference import ClipRegionError, Oracle
from .seeding import substream
from .stable import (
    InitialLaw,
    SignalModel,
    SpectralMeasure,
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
    "check_kalman_crosscheck",
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
    return CheckResult("characteristic_function", status, detail)


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
    return CheckResult("offspring_unbiasedness", status, detail)


def check_weight_moment_scaling(seed: int, scale: float = 1.0) -> CheckResult:
    """log E|rho|^r scales in log eps with slope near r/2 for r = 1, 2, with rho computed
    directly; ``weight`` must give the same rho bit for bit."""
    rng = substream(seed, "moment-scaling")
    sensor = GaussianBumpSensor([1.0], [[0.0]], [1.0])
    x = np.array([0.0])
    epsilons = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    draws = _count(100_000, scale, 5000)
    m1, m2, mismatched = [], [], []
    for eps in epsilons:
        obs = ObservationModel(sensor, eps)
        h = obs.sensor(x)[0]
        dys = np.sqrt(eps) * rng.standard_normal((draws, 1))
        rho = np.exp(dys @ h - 0.5 * eps * float(h @ h)) - 1.0
        if rho[0] != weight(x, dys[0], obs)[0]:
            mismatched.append(f"{eps:g}")
        m1.append(np.mean(np.abs(rho)))
        m2.append(np.mean(rho**2))
    slope1, slope2 = _log_line(epsilons, np.column_stack([m1, m2]))[0]
    ok = 0.35 <= slope1 <= 0.65 and 0.85 <= slope2 <= 1.15 and not mismatched
    detail = (
        f"first-moment slope {slope1:.3f} (window [0.35, 0.65]); "
        f"second-moment slope {slope2:.3f} (window [0.85, 1.15])"
    )
    if mismatched:
        detail += f"; weight() differs from the direct rho at eps {', '.join(mismatched)}"
    return CheckResult("weight_moment_scaling", "PASS" if ok else "FAIL", detail)


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
    return CheckResult("quadratic_variation", "PASS" if ok2 and ok15 else "FAIL", detail)


def check_compensator(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    scale: float = 1.0,
    n: int = 1000,
    replications: int = 200,
) -> CheckResult:
    """The compensated transform estimate has mean zero across replications.

    For each run the statistic subtracts, from the terminal transform, the
    initial transform, the per-segment closed-form drift (the transform
    evolves by exp(eps * l(-theta)) in conditional expectation between
    epochs), and the branching jump compensator; over independent runs the
    mean must vanish at 5 standard errors, separately in both components.
    Each epoch's jump and post transforms come from one set of unit terms.
    """
    reps = _count(replications, scale, 40)
    thetas, d = (0.5, 1.0), signal.dimension
    theta_vecs = np.array([[t] + [0.0] * (d - 1) for t in thetas])
    drift_factor = increment_cf(signal, obs.epsilon, theta_vecs) - 1.0
    scenario = simulate_scenario(signal, obs, horizon, substream(seed, "comp-record"))
    stats = np.empty((reps, len(thetas)), dtype=complex)
    extinct = 0
    for r in range(reps):
        jumps, posts = [], []  # per epoch: the branching jump and the post transform

        def reduce(k, pre, rho, parents, post):
            terms = unit_terms(pre.positions, theta_vecs)  # post's terms are these, gathered
            jumps.append(pre.estimate(running_total(terms * rho)))
            posts.append(post.estimate(running_total(terms[:, parents])))

        run = run_filter(scenario, n, substream(seed, "comp-rep", r), reduce=reduce)
        if run.extinct:
            extinct += 1
            stats[r] = np.nan
            continue
        initial = run.initial.estimate(running_total(unit_terms(run.initial.positions, theta_vecs)))
        segment_sum = initial * drift_factor  # segment starting at t_0
        jump_sum = np.zeros(len(thetas), dtype=complex)
        for step, jump, post_vals in zip(run.steps, jumps, posts):
            jump_sum += jump
            if step.epoch < scenario.count:
                segment_sum += post_vals * drift_factor
        stats[r] = posts[-1] - initial - segment_sum - jump_sum
    valid = stats[~np.isnan(stats[:, 0].real)]
    worst_z = 0.0
    for j in range(len(thetas)):
        for part in (valid[:, j].real, valid[:, j].imag):
            se = part.std(ddof=1) / np.sqrt(part.size)
            if se > 0.0:
                worst_z = max(worst_z, abs(part.mean()) / se)
    status = "PASS" if worst_z < 5.0 and extinct == 0 else "FAIL"
    detail = f"worst |mean|/se {worst_z:.2f} over thetas {tuple(thetas)} (tol 5), {reps} runs"
    if extinct:
        detail += f", {extinct} extinct"
    return CheckResult("martingale_compensator", status, detail)


def check_mass_moments(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    scale: float = 1.0,
    ns=(500, 2000, 8000),
    replications: int = 200,
) -> CheckResult:
    """Second and fourth moments of the running-sup total mass do not grow with n."""
    if np.sqrt(obs.epsilon) * min(ns) < 1.0:
        return CheckResult(
            "mass_moment_stability",
            "FAIL",
            f"hypothesis sqrt(eps)*n >= 1.0 violated for n={min(ns)}",
        )
    reps = _count(replications, scale, 40)
    sups = np.empty((reps, len(ns)))
    for r in range(reps):
        scenario = simulate_scenario(signal, obs, horizon, substream(seed, "mass-record", r))
        for j, n in enumerate(ns):
            run = run_filter(scenario, n, substream(seed, "mass-rep", r, n))
            masses = [1.0] + [s.post.total_mass for s in run.steps]
            sups[r, j] = max(masses)
    boot = substream(seed, "mass-boot")
    # row 0 is the sample itself, rows 1.. its 1,000 bootstrap resamples, one draw call each:
    # one batched call need not draw the same rows. Each moment fits its 1,001 series at once.
    rows = [np.arange(reps)] + [boot.integers(0, reps, size=reps) for _ in range(1000)]
    (slope2, *boot2), (slope4, *boot4) = (
        _log_line(ns, np.array([(sups[i] ** p).mean(axis=0) for i in rows]).T)[0] for p in (2, 4)
    )
    lo2, hi2 = np.percentile(boot2, [2.5, 97.5])
    lo4, hi4 = np.percentile(boot4, [2.5, 97.5])
    ok = lo2 <= 0.0 and lo4 <= 0.0  # no significantly increasing trend
    detail = (
        f"2nd-moment slope {slope2:.4f} CI [{lo2:.4f}, {hi2:.4f}]; "
        f"4th-moment slope {slope4:.4f} CI [{lo4:.4f}, {hi4:.4f}]"
    )
    return CheckResult("mass_moment_stability", "PASS" if ok else "FAIL", detail)


def check_branch_sparsity(
    signal: SignalModel,
    sensor,
    seed: int,
    scale: float = 1.0,
    epsilons=(0.1, 0.05, 0.025, 0.0125),
    n: int = 2000,
) -> CheckResult:
    """Branch/death fraction scales like sqrt(eps); the multinomial baseline does not.

    At each observation the branching filter disturbs the particles with
    probability comparable to the weight residual, so the per-epoch fraction
    of branched-or-killed particles follows a log-log slope near 1/2 in eps
    and is small at the smallest eps, while multinomial resampling relocates
    nearly every particle regardless of eps.
    """
    reps, horizon = _count(6, scale, 2), 2.0
    n_eff = _count(n, scale, 500)
    fractions = []
    for eps in epsilons:
        obs, tag = ObservationModel(sensor, eps), _epsilon_tag(eps)
        vals = []
        for r in range(reps):
            scenario = simulate_scenario(
                signal, obs, horizon, substream(seed, "sparsity-record", r, tag)
            )
            run = run_filter(scenario, n_eff, substream(seed, "sparsity-run", r, tag))
            vals.extend(s.branch_events / s.pre.count for s in run.steps)
        fractions.append(float(np.mean(vals)))
    slope = _log_line(epsilons, fractions)[0]
    smallest = fractions[int(np.argmin(epsilons))]
    eps_min = float(min(epsilons))
    obs = ObservationModel(sensor, eps_min)
    scenario = simulate_scenario(signal, obs, horizon, substream(seed, "sparsity-base-record"))
    baseline_steps = run_baseline(scenario, n_eff, substream(seed, "sparsity-baseline"))
    baseline_fraction = float(
        np.mean([s.relocations / n_eff for s in baseline_steps])
    )
    ok = 0.35 <= slope <= 0.65 and smallest < 0.1 and baseline_fraction > 0.9
    detail = (
        f"branch fraction slope {slope:.3f} (window [0.35, 0.65]); "
        f"fraction at eps={eps_min} is {smallest:.4f} (< 0.1); "
        f"multinomial relocation fraction {baseline_fraction:.4f} (> 0.9)"
    )
    return CheckResult("branch_sparsity", "PASS" if ok else "FAIL", detail)


def _mean_agreement(scenario, oracle, summaries, n, rngs):
    """(rms, spread, margin) of the ``replicates`` of ``n`` particles on ``scenario``, one per
    generator in ``rngs``: the rms over runs and epochs of the gap between the particle
    normalized mean and the oracle's mean, the oracle's posterior spread sqrt(mean trace) and
    the smallest clip margin of a run.  Raises ExtinctionError when a run dies out."""
    means, margins = [], []
    for r, (run, kept, margin) in enumerate(replicates(scenario, oracle, n, rngs, keep=_post_mean)):
        if run.extinct:
            where = f"observation epoch {run.extinct_epoch} (n {n}, replication {r})"
            raise ExtinctionError(f"particle system extinct at {where}")
        means.extend(kept)
        margins.append(margin)
    gaps = np.array(means) - np.tile([s.mean for s in summaries[1:]], (len(rngs), 1))
    spread = float(np.sqrt(np.mean([s.variance.sum() for s in summaries[1:]])))
    return float(np.sqrt(np.mean(np.sum(gaps**2, axis=1)))), spread, min(margins)


def check_oracle_agreement(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    oracle: Oracle | None,
    scale: float = 1.0,
) -> CheckResult:
    """Particle normalized mean tracks the particle-free reference ``oracle``.

    SKIPPED without an oracle.
    FAIL when the particle system died out, or the truth or a weighed particle left the
    oracle's clip region.
    """
    if oracle is None:
        return CheckResult(
            "oracle_agreement", "SKIPPED", "no oracle configured; nothing to compare"
        )
    n_eff = _count(2000, scale, 500)
    scenario = simulate_scenario(signal, obs, horizon, substream(seed, "oracle-record"))
    summaries = oracle.summaries(scenario)  # first: it checks the Kalman sensor
    try:
        rms, spread, _ = _mean_agreement(
            scenario, oracle, summaries, n_eff, [substream(seed, "oracle-run")]
        )
    except (ExtinctionError, ClipRegionError) as exc:
        return CheckResult("oracle_agreement", "FAIL", str(exc))
    bound = 8.0 * spread / np.sqrt(n_eff)
    detail = f"normalized-mean RMS {rms:.4f} vs bound {bound:.4f} ({oracle.kind} oracle, n={n_eff})"
    status = "PASS" if rms < bound else "FAIL"
    return CheckResult("oracle_agreement", status, detail, {"rms": rms, "bound": bound})


def check_kalman_crosscheck(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    *,
    ns=(1000, 4000, 16000),
    reference_n: int = 10_000,
    replications: int = 24,
) -> CheckResult:
    """Particle normalized mean against the exact Gaussian posterior mean (criterion c07).

    Pools the squared error over replications and epochs per particle count.  PASS when
    the rms at ``reference_n`` is below five posterior standard deviations over
    sqrt(reference_n) and the n-slope over ``ns`` (nan for fewer than three) lies in
    [-0.65, -0.35].  Raises ClipRegionError when the truth or a weighed particle left the
    sensor's linear region, and ExtinctionError when a run dies out.
    """
    oracle = Oracle("kalman")
    scenario = simulate_scenario(signal, obs, horizon, substream(seed, "kalman-record"))
    summaries = oracle.summaries(scenario)
    rms, margin = {}, np.inf
    for n in sorted(set(ns) | {reference_n}):
        rngs = [substream(seed, "kalman-run", n, rep) for rep in range(replications)]
        rms[n], spread, run_margin = _mean_agreement(scenario, oracle, summaries, n, rngs)
        margin = min(margin, run_margin)
    per_n_rms = [(n, rms[n]) for n in sorted(set(ns))]
    fit = rate_fit(per_n_rms) if len(per_n_rms) >= 3 else RateFit(*[np.nan] * 5)
    tolerance = float(5.0 * spread / np.sqrt(reference_n))
    ok = rms[reference_n] < tolerance and -0.65 <= fit.slope <= -0.35
    detail = (
        f"rms at n={reference_n} {rms[reference_n]:.5f} vs tolerance {tolerance:.5f}; "
        f"slope {fit.slope:.4f} (window [-0.65, -0.35]); clip margin {margin:.1f}"
    )
    return CheckResult(
        "kalman_crosscheck",
        "PASS" if ok else "FAIL",
        detail,
        {
            **{f"rms_n_{n}": r for n, r in per_n_rms},
            "reference_n": reference_n,
            "reference_rms": rms[reference_n],
            "tolerance": tolerance,
            **{f"fit_{k}": v for k, v in fit._asdict().items()},
            "posterior_std": spread,
            "clip_margin": margin,
        },
    )


def default_validation_suite(
    signal: SignalModel,
    obs: ObservationModel,
    horizon: float,
    seed: int,
    oracle: Oracle | None,
    scale: float = 1.0,
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
            signal, obs, horizon, seed, oracle, scale
        ),
    }
    results = []
    for name, check in checks.items():
        try:
            results.append(check())
        except RuntimeError as exc:
            raise RuntimeError(f"{name}: {exc}") from exc
    return results
