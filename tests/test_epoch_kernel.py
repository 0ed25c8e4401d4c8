"""The shared epoch loop against a frozen copy of the loops it replaced.

``run_filter`` and ``run_baseline`` must give bit-equal output to the older
per-stage loops below: same random draws in the same order, same arithmetic.
The frozen copy keeps the older kernels too (matrix products over atoms and
sensor outputs, the two-``where`` branching rule, index gathers and
``dataclasses.replace`` at every stage), and the weights are compared
directly: a change to the increment, weight, branching or offspring
arithmetic that moves a single bit fails here.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from levyfilter import (
    ClippedLinearSensor,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    Scenario,
    SignalModel,
    SpectralMeasure,
    init_ensemble,
    run_baseline,
    run_filter,
    simulate_scenario,
    weight,
)
from levyfilter.branching import MAX_RHO, WeightOverflowError
from levyfilter.stable import sample_standard_stable_1d

# ---- frozen reference: the loops and kernels as they were before the shared loop


def ref_sample_increment(model, dt, rng, count):
    alpha = model.alpha
    weights = model.spectral.weights
    directions = model.spectral.directions
    if alpha == 1.0:
        scales = dt * weights
        drift = (2.0 / np.pi) * (scales * np.log(scales)) @ directions
        draws = sample_standard_stable_1d(1.0, rng, size=(count, weights.shape[0]))
        return (draws * scales) @ directions + drift
    scales = (dt * weights) ** (1.0 / alpha)
    draws = sample_standard_stable_1d(alpha, rng, size=(count, weights.shape[0]))
    return (draws * scales) @ directions


def ref_sensor(sensor, pts):
    if isinstance(sensor, GaussianBumpSensor):
        diff = pts[:, None, :] - sensor.centers[None, :, :]
        sq = np.sum(diff * diff, axis=2)
        return sensor.amplitudes * np.exp(-0.5 * sq / (sensor.widths**2))
    return np.clip(pts @ sensor.matrix.T, -sensor.clip, sensor.clip)


def ref_weight(x, dy, obs):
    h = ref_sensor(obs.sensor, x)
    expo = h @ dy - 0.5 * obs.epsilon * np.sum(np.atleast_1d(h) ** 2, axis=-1)
    return np.exp(expo) - 1.0


def ref_risky_epochs(increments, obs):
    """Per epoch, whether the bound rho <= exp(|dY_k| sqrt(sup h'h)) - 1 exceeds MAX_RHO."""
    sensor = obs.sensor
    if isinstance(sensor, GaussianBumpSensor):
        hh_sup = float(np.sum(sensor.amplitudes**2))
    else:
        hh_sup = float(sensor.observation_dim) * sensor.clip**2
    return np.linalg.norm(increments, axis=1) * np.sqrt(hh_sup) > np.log1p(MAX_RHO)


def ref_epoch_weights(positions, increments, obs, k, risky):
    if not risky:
        return np.atleast_1d(ref_weight(positions, increments[k - 1], obs))
    with np.errstate(over="ignore"):
        rho = np.atleast_1d(ref_weight(positions, increments[k - 1], obs))
    top = float(np.max(rho))
    if not top <= MAX_RHO:
        raise WeightOverflowError(k, top)
    return rho


def ref_evolve(ensemble, signal, dt, rng):
    steps = ref_sample_increment(signal, dt, rng, ensemble.count)
    return replace(ensemble, positions=ensemble.positions + steps)


def ref_offspring_counts(rho, u):
    neg = rho < 0.0
    frac = np.where(neg, 0.0, rho - np.floor(rho))
    counts = np.where(
        neg,
        (u >= -rho).astype(np.int64),
        (np.floor(rho) + 1.0).astype(np.int64) + (u < frac),
    )
    residual = np.where(neg, rho, frac)
    events = (rho >= 1.0) | (u < np.abs(residual))
    return counts, events


def ref_apply_offspring(ensemble, counts):
    parent_index = np.repeat(np.arange(ensemble.count), counts)
    return replace(ensemble, positions=ensemble.positions[parent_index]), parent_index


def ref_population_control(ensemble, n_target, bounds, rng):
    lo_ratio, hi_ratio = bounds
    count = ensemble.count
    if count > hi_ratio * n_target:
        keep = rng.uniform(size=count) < 0.5
        thinned = replace(
            ensemble, positions=ensemble.positions[keep], mass_factor=ensemble.mass_factor * 2.0
        )
        return thinned, keep
    if count < lo_ratio * n_target and count > 0:
        doubled, rows = ref_apply_offspring(ensemble, np.full(count, 2))
        return replace(doubled, mass_factor=ensemble.mass_factor * 0.5), rows
    return ensemble, None


def ref_run_filter(signal, obs, increments, n, rng, control=None):
    """Per epoch (pre, post, parents, branch_events); then the extinction epoch."""
    ensemble = init_ensemble(n, signal, rng)
    steps = []
    risky = ref_risky_epochs(increments, obs)
    for k in range(1, len(increments) + 1):
        pre = ref_evolve(ensemble, signal, obs.epsilon, rng)
        rho = ref_epoch_weights(pre.positions, increments, obs, k, risky[k - 1])
        u = rng.uniform(size=pre.count)
        counts, events = ref_offspring_counts(rho, u)
        ensemble, parents = ref_apply_offspring(pre, counts)
        if control is not None and ensemble.count > 0:
            ensemble, rows = ref_population_control(ensemble, n, control, rng)
            if rows is not None:
                parents = parents[rows]
        steps.append((pre, ensemble, parents, int(events.sum())))
        if ensemble.count == 0:
            return steps, k
    return steps, None


def ref_run_baseline(signal, obs, increments, n, rng):
    """Per epoch (post, parents, relocations)."""
    ensemble = init_ensemble(n, signal, rng)
    steps = []
    risky = ref_risky_epochs(increments, obs)
    for k in range(1, len(increments) + 1):
        ensemble = ref_evolve(ensemble, signal, obs.epsilon, rng)
        rho = ref_epoch_weights(ensemble.positions, increments, obs, k, risky[k - 1])
        w = 1.0 + rho
        parents = rng.choice(ensemble.count, size=ensemble.count, p=w / w.sum())
        moved = int(np.sum(parents != np.arange(ensemble.count)))
        ensemble = replace(ensemble, positions=ensemble.positions[parents])
        steps.append((ensemble, parents, moved))
    return steps


# ---- comparison


class LiveSteps(list):
    """A reducer that keeps every epoch as the run saw it, parent rows included."""

    def __call__(self, k, pre, rho, parents, post):
        self.append(SimpleNamespace(epoch=k, pre=pre, post=post, parents=parents))


def assert_same_ensemble(new, old):
    assert new.positions.dtype == old.positions.dtype
    assert np.array_equal(new.positions, old.positions)
    assert new.mass_factor == old.mass_factor
    assert new.initial_count == old.initial_count


def assert_filter_bit_equal(scenario, n, seed, control=None):
    signal, obs, increments = scenario.signal, scenario.obs, scenario.increments
    live = LiveSteps()
    run = run_filter(scenario, n, np.random.default_rng(seed), control=control, reduce=live)
    steps, extinct_epoch = ref_run_filter(
        signal, obs, increments, n, np.random.default_rng(seed), control
    )
    assert run.extinct_epoch == extinct_epoch
    assert len(run.steps) == len(live) == len(steps)
    for kept, step, (pre, post, parents, events) in zip(run.steps, live, steps):
        assert_same_ensemble(step.pre, pre)
        # weights reach the output only through comparisons with uniforms,
        # so compare them directly
        dy = increments[step.epoch - 1]
        rho = weight(step.pre.positions, dy, obs)
        assert np.array_equal(rho, ref_weight(pre.positions, dy, obs))
        assert_same_ensemble(step.post, post)
        assert step.parents.dtype == parents.dtype
        assert np.array_equal(step.parents, parents)
        assert kept.branch_events == events
    return run


def assert_baseline_bit_equal(scenario, n, seed):
    live = LiveSteps()
    steps = run_baseline(scenario, n, np.random.default_rng(seed), reduce=live)
    ref = ref_run_baseline(
        scenario.signal, scenario.obs, scenario.increments, n, np.random.default_rng(seed)
    )
    assert len(steps) == len(live) == len(ref)
    for kept, step, (post, parents, moved) in zip(steps, live, ref):
        assert_same_ensemble(step.post, post)
        assert step.parents.dtype == parents.dtype
        assert np.array_equal(step.parents, parents)
        assert kept.relocations == moved


def make_signal(alpha, d, atoms):
    rng = np.random.default_rng(5)
    if d == 1:
        directions = [[1.0], [-1.0], [1.0]][:atoms]
    else:
        angles = rng.uniform(0.0, 2.0 * np.pi, atoms)
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
    weights = [0.5, 0.3, 0.2][:atoms]
    return SignalModel(
        alpha,
        SpectralMeasure(directions, weights),
        InitialLaw.gaussian(np.zeros(d), np.ones(d)),
    )


def make_obs(sensor, d, eps=0.1):
    # d outputs: the one-output and the several-output weight paths; no unit
    # widths, amplitudes or matrices, so every multiplication rounds
    if sensor == "bump":
        centers = np.eye(d) * 0.5
        return ObservationModel(GaussianBumpSensor(np.full(d, 1.3), centers, np.full(d, 0.7)), eps)
    matrix = [[0.9]] if d == 1 else [[0.8, 0.3], [-0.2, 1.1]]
    return ObservationModel(ClippedLinearSensor(matrix, clip=5.0), eps)


@pytest.mark.parametrize("sensor", ["bump", "linear"])
@pytest.mark.parametrize("atoms", [1, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
def test_filter_and_baseline_bit_equal(alpha, d, atoms, sensor):
    signal = make_signal(alpha, d, atoms)
    obs = make_obs(sensor, d)
    scenario = simulate_scenario(signal, obs, 0.8, np.random.default_rng(17))
    assert_filter_bit_equal(scenario, 120, seed=23)
    assert_baseline_bit_equal(scenario, 120, seed=29)


def test_baseline_bit_equal_at_the_benchmark_size():
    # the count and epsilon of the compare-baseline workload: a cdf of 16000 rows
    signal = make_signal(1.5, 1, 1)
    obs = make_obs("bump", 1, eps=0.0125)
    scenario = simulate_scenario(signal, obs, 0.05, np.random.default_rng(19))
    assert scenario.count == 4
    assert_baseline_bit_equal(scenario, 16000, seed=47)


def test_population_control_bit_equal():
    signal = make_signal(2.0, 1, 1)
    obs = make_obs("linear", 1)
    # growth then decay, so control both halves and doubles the population
    increments = np.array([[1.5]] * 4 + [[-1.5]] * 6)
    control = (0.5, 1.5)
    run = assert_filter_bit_equal(Scenario(signal, obs, increments), 100, seed=31, control=control)
    factors = {step.post.mass_factor / step.pre.mass_factor for step in run.steps}
    assert {2.0, 0.5} <= factors


def test_risky_epoch_bit_equal():
    # clip 20 makes every epoch with |dY| > log1p(MAX_RHO) / 20 risky, so the frozen
    # loop takes both of its weighting paths; particles near the origin keep rho far
    # below the cap
    signal = make_signal(1.5, 1, 1)
    obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1)
    increments = np.array([[1.0], [0.1], [-1.0]])
    assert ref_risky_epochs(increments, obs).tolist() == [True, False, True]
    scenario = Scenario(signal, obs, increments)
    assert_filter_bit_equal(scenario, 80, seed=37)
    assert_baseline_bit_equal(scenario, 80, seed=41)


def test_extinct_run_bit_equal():
    signal = SignalModel(2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.point([1.0]))
    obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=50.0), 0.9)
    increments = np.full((30, 1), -5.0)
    run = assert_filter_bit_equal(Scenario(signal, obs, increments), 3, seed=43)
    assert run.extinct and run.extinct_epoch < len(increments)
