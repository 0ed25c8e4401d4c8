"""The one oracle path against a frozen copy of the per-caller reference code it replaced.

Before the one ``reference.Oracle`` every consumer ran its own grid filter
or Kalman recursion: the rate sweep's ``_oracle_transforms``, the baseline
comparison's grid branch, ``check_oracle_agreement``'s two private branches
and the Kalman cross-check's own recursion.  The copies below keep them
verbatim in behaviour, and every number the consumers report must stay
bit-equal to them.  One change is made on purpose: their clip checks measure
every epoch's ``pre``, the points the sensor weighed, not ``post``.
"""

import math

import numpy as np
import pytest

from levyfilter import (
    ClippedLinearSensor,
    FrequencyGrid,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    Scenario,
    SignalModel,
    SpectralMeasure,
    covariance_rate,
    kalman_reference,
    run_baseline,
    run_filter,
    run_reference,
    simulate_scenario,
)
from levyfilter.checks import check_kalman_crosscheck, check_oracle_agreement
from levyfilter.experiments import baseline_comparison, ensemble_transform, rate_sweep
from levyfilter.metrics import filter_error, rate_fit
from levyfilter.reference import ClipRegionError, Oracle, kalman_sensor
from levyfilter.seeding import substream

# ---- frozen reference: each consumer's own oracle code, as it was


def keep(posts, pres=None):
    """A reducer that appends every epoch's post ensemble to ``posts`` and, given ``pres``,
    its pre ensemble (the points the sensor weighed) to ``pres``."""

    def reduce(k, pre, rho, parents, post):
        posts.append(post)
        if pres is not None:
            pres.append(pre)

    return reduce


def ref_kalman_from_law(scenario, matrix):
    signal, eps = scenario.signal, scenario.obs.epsilon
    law = signal.initial_law
    d = signal.dimension
    cov0 = np.diag(law.scale**2) if law.kind == "gaussian" else np.zeros((d, d))
    means, covs = kalman_reference(
        scenario.increments, eps, matrix, law.center, cov0, covariance_rate(signal.spectral)
    )
    return cov0, means, covs


def ref_oracle_transforms(scenario, metric, oracle, grid_points, grid_halfwidth):
    signal, obs = scenario.signal, scenario.obs
    targets = {}
    if oracle == "grid":
        summaries, _ = run_reference(
            scenario,
            domain_halfwidth=grid_halfwidth,
            points_per_axis=grid_points,
            theta_grid=metric,
        )
        for s in summaries:
            targets[s.epoch] = s.transform
        return targets
    cov0, means, covs = ref_kalman_from_law(scenario, obs.sensor.matrix)
    th, mean0 = metric.nodes, signal.initial_law.center
    targets[0] = np.exp(-1j * (th @ mean0) - 0.5 * np.einsum("mi,ij,mj->m", th, cov0, th))
    for k in range(1, scenario.count + 1):
        quad = np.einsum("mi,ij,mj->m", th, covs[k - 1], th)
        targets[k] = np.exp(-1j * (th @ means[k - 1]) - 0.5 * quad)
    return targets


def ref_rate_sweep_rows(signal, obs, horizon, ns, replications, seed, metric, oracle):
    scenario = simulate_scenario(signal, obs, horizon, substream(seed, "sweep-record"))
    targets = ref_oracle_transforms(scenario, metric, oracle, 256, 10.0)
    K = scenario.count
    rows = []
    # under the grid oracle the sweep passes no reducer, so its runs thin; under the Kalman
    # oracle its reducer, the clip reach over every weighed particle, makes them eager
    reduce = None if oracle == "grid" else (lambda *epoch: None)
    for n in ns:
        for rep in range(replications):
            run = run_filter(scenario, n, substream(seed, "sweep-run", n, rep), reduce=reduce)
            if run.extinct:
                continue
            ensemble = run.final
            values = ensemble_transform(ensemble, metric)
            if oracle == "kalman" and ensemble.total_mass > 0.0:
                values = values / ensemble.total_mass
            rows.append((n, rep, K, filter_error(values, targets[K], metric)))
    return rows


def ref_baseline_errors(signal, sensor, horizon, n, seed, epsilons):
    b_errs, m_errs = [], []
    for eps in epsilons:
        obs = ObservationModel(sensor, eps)
        tag = int(round(1e6 * eps))
        scenario = simulate_scenario(signal, obs, horizon, substream(seed, "baseline-record", tag))
        b_posts, m_posts = [], []
        run_filter(scenario, n, substream(seed, "baseline-branch", tag), reduce=keep(b_posts))
        run_baseline(scenario, n, substream(seed, "baseline-multi", tag), reduce=keep(m_posts))
        summaries, _ = run_reference(scenario, domain_halfwidth=10.0, points_per_axis=256)
        oracle_means = np.array([s.mean for s in summaries[1:]])
        b_means = np.array([post.positions.mean(axis=0) for post in b_posts])
        m_means = np.array([post.positions.mean(axis=0) for post in m_posts])
        b_errs.append(float(np.mean(np.abs(b_means - oracle_means))))
        m_errs.append(float(np.mean(np.abs(m_means - oracle_means))))
    return b_errs, m_errs


def ref_oracle_agreement(signal, obs, horizon, seed, scale, oracle, n, grid_points):
    """(rms, bound), or the clip-region failure text."""
    n_eff = max(500, int(round(n * scale)))
    scenario = simulate_scenario(signal, obs, horizon, substream(seed, "oracle-record"))
    truth = scenario.truth
    posts, pres = [], []
    run_filter(scenario, n_eff, substream(seed, "oracle-run"), reduce=keep(posts, pres))
    particle_means = np.array([post.positions.mean(axis=0) for post in posts])
    if oracle == "kalman":
        sensor = obs.sensor
        worst = max(
            float(np.abs(truth @ sensor.matrix.T).max()),
            max(float(np.abs(pre.positions @ sensor.matrix.T).max()) for pre in pres),
        )
        if worst >= sensor.clip:
            return f"clip region violated (|Bx| reached {worst:.2f} >= {sensor.clip})"
        _, means, covs = ref_kalman_from_law(scenario, sensor.matrix)
        spread = float(np.sqrt(np.mean([np.trace(c) for c in covs])))
    else:
        summaries, _ = run_reference(
            scenario, domain_halfwidth=10.0, points_per_axis=grid_points
        )
        means = np.array([s.mean for s in summaries[1:]])
        spread = float(np.sqrt(np.mean([s.variance.sum() for s in summaries[1:]])))
    rms = float(np.sqrt(np.mean(np.sum((particle_means - means) ** 2, axis=1))))
    return rms, 8.0 * spread / np.sqrt(n_eff)


def ref_kalman_crosscheck(signal, obs, horizon, seed, ns, reference_n, replications):
    sensor = obs.sensor
    scenario = simulate_scenario(signal, obs, horizon, substream(seed, "kalman-record"))
    truth = scenario.truth
    _, means, covs = ref_kalman_from_law(scenario, sensor.matrix)
    posterior_std = float(np.sqrt(np.mean([np.trace(c) for c in covs])))
    largest_projection = float(np.abs(truth @ sensor.matrix.T).max())
    per_n_rms = []
    reference_rms = np.nan
    for n in sorted(set(list(ns) + [reference_n])):
        sq = []
        for rep in range(replications):
            posts, pres = [], []
            rng = substream(seed, "kalman-run", n, rep)
            run_filter(scenario, n, rng, reduce=keep(posts, pres))
            for epoch, (pre, post) in enumerate(zip(pres, posts), start=1):
                largest_projection = max(
                    largest_projection,
                    float(np.abs(pre.positions @ sensor.matrix.T).max()),
                )
                gap = post.positions.mean(axis=0) - means[epoch - 1]
                sq.append(float(gap @ gap))
        rms = float(np.sqrt(np.mean(sq)))
        if n == reference_n:
            reference_rms = rms
        if n in ns:
            per_n_rms.append((n, rms))
    return {
        "per_n_rms": per_n_rms,
        "reference_rms": reference_rms,
        "tolerance": 5.0 * posterior_std / np.sqrt(reference_n),
        "fit": rate_fit(per_n_rms) if len(per_n_rms) >= 3 else None,
        "posterior_std": posterior_std,
        "clip_margin": sensor.clip - largest_projection,
    }


# ---- scenarios


def gaussian_signal(d=1, law="gaussian"):
    directions = [[1.0]] if d == 1 else [[0.8, 0.6], [-0.6, 0.8]]
    weights = [0.5] if d == 1 else [0.3, 0.4]
    initial = InitialLaw(law, np.full(d, 0.2), None if law == "point" else np.full(d, 0.9))
    return SignalModel(2.0, SpectralMeasure(directions, weights), initial)


def linear_obs(d=1, clip=20.0, eps=0.1):
    matrix = [[0.9]] if d == 1 else [[0.8, 0.3], [-0.2, 1.1]]
    return ObservationModel(ClippedLinearSensor(matrix, clip=clip), eps)


def bump_obs(eps=0.1):
    return ObservationModel(GaussianBumpSensor([1.3], [[0.5]], [0.7]), eps)


def scenario_for(signal, obs, seed=3):
    return simulate_scenario(signal, obs, 0.8, np.random.default_rng(seed))


def make_oracle(kind, grid_points):
    return Oracle("grid", grid_points, 10.0) if kind == "grid" else Oracle(kind)


# ---- comparison


@pytest.mark.parametrize(
    "kind, d, law",
    [("grid", 1, "gaussian"), ("kalman", 1, "gaussian"), ("kalman", 1, "point"), ("kalman", 2, "gaussian")],
)
def test_summaries_bit_equal_to_per_caller_code(kind, d, law):
    signal = gaussian_signal(d, law)
    obs = linear_obs(d)
    scenario = scenario_for(signal, obs)
    metric = FrequencyGrid.build(d, alpha=2.0, cutoff=5.0 if d == 1 else 2.0, spacing=0.1 if d == 1 else 0.5)
    summaries = make_oracle(kind, 128).summaries(scenario, metric)
    targets = ref_oracle_transforms(scenario, metric, kind, 128, 10.0)
    assert [s.epoch for s in summaries] == list(range(scenario.count + 1))
    for s in summaries:
        assert s.transform.dtype == targets[s.epoch].dtype
        assert np.array_equal(s.transform, targets[s.epoch])
    if kind == "kalman":
        cov0, means, covs = ref_kalman_from_law(scenario, obs.sensor.matrix)
        assert np.array_equal([s.mean for s in summaries[1:]], means)
        assert np.array_equal(summaries[0].variance, np.diag(cov0))
        assert [float(s.variance.sum()) for s in summaries[1:]] == [np.trace(c) for c in covs]
        assert np.isnan(summaries[1].total_mass) and np.isnan(summaries[1].boundary_mass)


@pytest.mark.parametrize("oracle, obs", [("grid", bump_obs()), ("kalman", linear_obs())])
def test_rate_sweep_bit_equal(oracle, obs):
    signal = gaussian_signal()
    metric = FrequencyGrid.build(1, alpha=2.0, cutoff=5.0, spacing=0.1)
    result = rate_sweep(
        signal, obs, 0.8, [100, 200, 400], 2, 11, metric, make_oracle(oracle, 256)
    )
    expected = ref_rate_sweep_rows(signal, obs, 0.8, [100, 200, 400], 2, 11, metric, oracle)
    assert result.rows == expected


def test_baseline_grid_errors_bit_equal():
    sensor = GaussianBumpSensor([1.3], [[0.5]], [0.7])
    result = baseline_comparison(
        gaussian_signal(), sensor, 0.5, 200, 23, Oracle("grid", 256, 10.0), epsilons=(0.1, 0.05)
    )
    b_errs, m_errs = ref_baseline_errors(gaussian_signal(), sensor, 0.5, 200, 23, (0.1, 0.05))
    assert result.branching_errors == b_errs
    assert result.multinomial_errors == m_errs


@pytest.mark.parametrize("oracle, obs", [("grid", bump_obs()), ("kalman", linear_obs())])
def test_oracle_agreement_bit_equal(oracle, obs):
    signal = gaussian_signal()
    result = check_oracle_agreement(signal, obs, 0.8, 5, scale=0.1, oracle=make_oracle(oracle, 256))
    rms, bound = ref_oracle_agreement(signal, obs, 0.8, 5, 0.1, oracle, 2000, 256)
    assert result.values == {"rms": rms, "bound": bound}


def test_oracle_agreement_clip_failure_unchanged():
    signal, obs = gaussian_signal(), linear_obs(clip=0.5)
    result = check_oracle_agreement(signal, obs, 0.8, 5, scale=0.1, oracle=Oracle("kalman"))
    expected = ref_oracle_agreement(signal, obs, 0.8, 5, 0.1, "kalman", 2000, 512)
    assert result.status == "FAIL"
    assert expected in result.detail


def test_kalman_crosscheck_bit_equal():
    signal, obs = gaussian_signal(), linear_obs()
    result = check_kalman_crosscheck(
        signal, obs, 0.8, 19, ns=(200, 400, 800), reference_n=400, replications=3
    )
    expected = ref_kalman_crosscheck(signal, obs, 0.8, 19, (200, 400, 800), 400, 3)
    assert result.values == {
        **{f"rms_n_{n}": rms for n, rms in expected["per_n_rms"]},
        "reference_n": 400,
        "reference_rms": expected["reference_rms"],
        "tolerance": expected["tolerance"],
        **{f"fit_{k}": v for k, v in expected["fit"]._asdict().items()},
        "posterior_std": expected["posterior_std"],
        "clip_margin": expected["clip_margin"],
    }


# ---- the shared checks


@pytest.mark.parametrize(
    "signal, obs",
    [
        (gaussian_signal(), bump_obs()),
        (SignalModel(1.5, SpectralMeasure([[1.0]], [0.5]), InitialLaw.point([0.0])), linear_obs()),
        (gaussian_signal(law="uniform"), linear_obs()),
    ],
)
def test_kalman_preconditions_checked_once_for_every_consumer(signal, obs):
    with pytest.raises(ValueError, match="kalman needs observation.sensor = clipped_linear"):
        kalman_sensor(signal, obs)
    scenario = scenario_for(signal, obs)
    with pytest.raises(ValueError, match="kalman needs"):
        Oracle("kalman").summaries(scenario)
    with pytest.raises(ValueError, match="kalman needs"):
        check_oracle_agreement(signal, obs, 0.5, 5, scale=0.1, oracle=Oracle("kalman"))


def test_unknown_oracle_kind_rejected():
    with pytest.raises(ValueError, match="oracle kind 'none'"):
        Oracle("none")


@pytest.mark.parametrize("args", [("grid",), ("grid", 64), ("kalman", 64, 10.0)])
def test_grid_sizes_must_match_the_oracle_kind(args):
    with pytest.raises(ValueError, match="grid oracle takes grid_points and grid_halfwidth"):
        Oracle(*args)


def test_clip_margin():
    sensor = ClippedLinearSensor([[2.0]], clip=5.0)
    points = np.array([[1.0], [-2.0], [0.5]])
    kalman, grid = Oracle("kalman"), make_oracle("grid", 64)
    assert kalman.clip_reach(sensor, points) == 4.0
    assert kalman.clip_reach(sensor, np.empty((0, 1))) == 0.0
    assert kalman.clip_margin(sensor, kalman.clip_reach(sensor, points)) == 1.0
    assert kalman.clip_margin(sensor, 0.0) == 5.0
    with pytest.raises(ClipRegionError, match=r"\|Bx\| reached 5.00 >= 5.0"):
        kalman.clip_margin(sensor, kalman.clip_reach(sensor, np.array([[2.5]])))
    # the grid oracle has no clip region
    assert grid.clip_reach(sensor, points) == 0.0
    assert grid.clip_margin(sensor, 7.0) == math.inf


@pytest.mark.parametrize("kind", ["grid", "kalman"])
def test_oracle_needs_the_record_width(kind):
    signal = SignalModel(2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [1.0]))
    record = np.zeros((5, 2))
    obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1)
    oracle = make_oracle(kind, 64)
    with pytest.raises(ValueError, match=r"width 2 but the sensor gives 1-d"):
        oracle.summaries(Scenario(signal, obs, record))
