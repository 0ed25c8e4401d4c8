"""Observation channel, weights, residuals, offspring rule, records."""

import sys
from collections import Counter

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
    ZeroSensor,
    offspring_parameters,
    run_filter,
    simulate_scenario,
    weight,
)
from levyfilter import checks, observation, stable
from levyfilter.experiments import rate_sweep
from levyfilter.harness import (
    build_metric,
    build_observation,
    build_oracle,
    build_signal,
    default_config_text,
    parse_config,
)


def bump_obs(epsilon=0.1):
    return ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), epsilon)


class TestSensors:
    def test_gaussian_bump_values(self):
        sensor = GaussianBumpSensor([2.0], [[1.0]], [0.5])
        assert sensor(np.array([1.0]))[0] == pytest.approx(2.0)
        assert sensor(np.array([2.0]))[0] == pytest.approx(2.0 * np.exp(-2.0))

    @pytest.mark.parametrize("d, outputs", [(1, 3), (2, 1), (3, 2)])
    def test_gaussian_bump_is_the_summed_square_bit_for_bit(self, d, outputs):
        rng = np.random.default_rng(d * 10 + outputs)
        amplitudes, widths = rng.uniform(0.5, 2.0, outputs), rng.uniform(0.3, 2.0, outputs)
        centers, pts = rng.normal(size=(outputs, d)), 3.0 * rng.normal(size=(500, d))
        diff = pts[:, None, :] - centers[None, :, :]
        expected = amplitudes * np.exp(-0.5 * np.sum(diff * diff, axis=2) / widths**2)
        assert np.array_equal(GaussianBumpSensor(amplitudes, centers, widths)(pts), expected)

    def test_clipped_linear_clamps(self):
        sensor = ClippedLinearSensor([[2.0]], clip=3.0)
        assert sensor(np.array([1.0]))[0] == pytest.approx(2.0)
        assert sensor(np.array([10.0]))[0] == pytest.approx(3.0)
        assert sensor(np.array([-10.0]))[0] == pytest.approx(-3.0)

    def test_clipped_linear_clips_its_linear_map(self):
        # the Kalman oracle's clip check reads ``linear``: it must be the B x the sensor clips
        sensor = ClippedLinearSensor([[0.8, 0.3], [-0.2, 1.1]], clip=1.0)
        pts = np.random.default_rng(5).normal(size=(50, 2))
        assert np.array_equal(sensor.linear(pts), pts @ sensor.matrix.T)
        assert np.abs(sensor.linear(pts)).max() > 1.0
        assert np.array_equal(sensor(pts), np.clip(sensor.linear(pts), -1.0, 1.0))

    def test_zero_sensor(self):
        sensor = ZeroSensor(d2=2, d1=1)
        assert np.array_equal(sensor(np.zeros((5, 1))), np.zeros((5, 2)))

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            ObservationModel(ZeroSensor(1, 1), 1.5)
        with pytest.raises(ValueError):
            ObservationModel(ZeroSensor(1, 1), 0.0)


class TestWeight:
    def test_zero_sensor_gives_zero(self):
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        assert weight(np.array([3.0]), np.array([0.7]), obs) == 0.0

    def test_hand_value(self):
        # h(x) = 0.5, dy = 0.2, eps = 0.1: exp(0.1 - 0.0125) - 1 = exp(0.0875) - 1
        obs = ObservationModel(ClippedLinearSensor([[0.5]], clip=10.0), 0.1)
        val = weight(np.array([1.0]), np.array([0.2]), obs)
        assert val == pytest.approx(np.expm1(0.0875), rel=1e-14)
        assert val == pytest.approx(0.0914422644429517, rel=1e-12)

    def test_cancelling_exponent(self):
        # dy' h == eps (h'h) / 2 makes the weight vanish
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=10.0), 0.4)
        x = np.array([2.0])  # h = 2
        dy = np.array([0.4 * 2.0 / 2.0])  # dy*2 = 0.8 = eps*4/2
        assert weight(x, dy, obs) == pytest.approx(0.0, abs=1e-15)

    def test_always_above_minus_one(self):
        rng = np.random.default_rng(43)
        obs = bump_obs(0.5)
        x = rng.normal(size=(200, 1))
        for _ in range(20):
            dy = rng.normal(size=1)
            assert np.all(weight(x, dy, obs) > -1.0)


def branch_residual(rho):
    """The residual xi of the offspring rule: the extra-copy chance less the kill chance."""
    _, extra, kill = offspring_parameters(rho)
    return extra - kill


class TestResidual:
    def test_definition(self):
        assert branch_residual(-0.4) == pytest.approx(-0.4)
        assert branch_residual(2.3) == pytest.approx(0.3)
        assert branch_residual(0.0) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(47)
        rho = np.exp(rng.normal(scale=1.5, size=5000)) - 1.0
        xi = branch_residual(rho)
        assert np.all(np.abs(xi) <= np.maximum(np.abs(rho), 1.0))
        assert np.all(xi > -1.0) and np.all(xi < 1.0)


class TestOffspring:
    def test_examples(self):
        base, extra, kill = offspring_parameters(2.3)
        assert base == 3 and kill == 0.0
        assert extra == pytest.approx(0.3)
        assert offspring_parameters(-0.4) == (1, 0.0, pytest.approx(0.4))
        assert offspring_parameters(0.0) == (1, 0.0, 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            offspring_parameters(-1.0)

    def test_expected_offspring_identity(self):
        rho = np.linspace(-0.99, 5.0, 50)
        base, extra, kill = offspring_parameters(rho)
        expected = np.where(kill > 0.0, 1.0 - kill, base + extra)
        assert np.max(np.abs(expected - (1.0 + rho))) < 1e-14

    def test_monte_carlo_offspring_mean(self):
        rng = np.random.default_rng(53)
        n = 100_000
        u = rng.uniform(size=n)
        for rho in (-0.7, -0.2, 0.4, 1.0, 2.3, 4.9):
            base, extra, kill = offspring_parameters(rho)
            if kill > 0.0:
                counts = (u >= kill).astype(float)
                var = kill * (1.0 - kill)
            else:
                counts = base + (u < extra)
                var = extra * (1.0 - extra)
            se = np.sqrt(var / n)
            assert abs(counts.mean() - (1.0 + rho)) <= 5.0 * se + 1e-12


class TestMomentScaling:
    def test_weight_moments_scale_with_epsilon(self):
        # at a site with h = 1 the r-th absolute moment scales like eps^(r/2)
        rng = np.random.default_rng(61)
        x = np.array([0.0])
        epsilons = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        m1, m2 = [], []
        for eps in epsilons:
            obs = bump_obs(eps)
            h = obs.sensor(x)
            dys = np.sqrt(eps) * rng.standard_normal((100_000, 1))
            rho = np.exp(dys @ h - 0.5 * eps * np.sum(h * h)) - 1.0
            for j in range(3):  # vectorized path agrees with the scalar op
                assert rho[j] == pytest.approx(weight(x, dys[j], obs), rel=1e-14)
            m1.append(np.mean(np.abs(rho)))
            m2.append(np.mean(rho**2))
        slope1 = np.polyfit(np.log(epsilons), np.log(m1), 1)[0]
        slope2 = np.polyfit(np.log(epsilons), np.log(m2), 1)[0]
        assert 0.35 <= slope1 <= 0.65
        assert 0.85 <= slope2 <= 1.15


    def test_check_reports_a_weight_mismatch_as_fail(self, monkeypatch):
        # the weight of a mutant with 0.55 eps h'h in place of eps h'h / 2
        def mutant(x, dy, obs):
            h = obs.sensor(x)
            return np.exp(h @ dy - 0.55 * obs.epsilon * np.sum(h * h, axis=1)) - 1.0

        monkeypatch.setattr(checks, "weight", mutant)
        result = checks.check_weight_moment_scaling(5, scale=0.05)
        assert result.status == "FAIL"
        assert "weight() differs from the direct rho at eps 0.2, 0.1, 0.05" in result.detail


class TestShapeRule:
    """Sensors and weights read rows of width d and give one value, or one row, per row."""

    def test_flat_points_are_rows_of_the_sensor_width(self):
        values = GaussianBumpSensor([1.0], [[0.0]], [1.0])(np.array([1.0, 2.0]))
        assert values.shape == (2, 1)
        assert values[:, 0] == pytest.approx([np.exp(-0.5), np.exp(-2.0)], rel=1e-15)

    def test_flat_points_of_a_planar_sensor(self):
        sensor = ClippedLinearSensor([[1.0, 2.0]], clip=100.0)
        assert sensor(np.array([1.0, 1.0, 2.0, 0.0])).tolist() == [[3.0], [2.0]]
        with pytest.raises(ValueError, match="width 2"):
            sensor(np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "sensor",
        [
            GaussianBumpSensor([1.0], [[0.0]], [1.0]),
            ClippedLinearSensor([[1.0]], clip=5.0),
            ZeroSensor(d2=2, d1=1),
        ],
    )
    def test_wrong_width_names_the_expected_width(self, sensor):
        with pytest.raises(ValueError, match="width 1"):
            sensor(np.zeros((3, 2)))
        assert sensor(np.zeros(3)).shape == (3, sensor.observation_dim)

    def test_weight_gives_one_value_per_row(self):
        one = ObservationModel(ClippedLinearSensor([[0.5]], clip=10.0), 0.1)
        two = ObservationModel(ClippedLinearSensor([[0.5], [1.0]], clip=10.0), 0.1)
        assert weight(np.array([1.0]), np.array([0.2]), one).shape == (1,)
        assert weight(np.zeros((4, 1)), np.array([0.2]), one).shape == (4,)
        assert weight(np.array([1.0, 2.0]), np.array([0.2, 0.1]), two).shape == (2,)

    def test_weight_reads_one_row_of_the_observation_width(self):
        one = ObservationModel(ClippedLinearSensor([[0.5]], clip=10.0), 0.1)
        two = ObservationModel(ClippedLinearSensor([[0.5], [1.0]], clip=10.0), 0.1)
        x = np.zeros((4, 1))
        for obs, dy in [(one, [0.1, 0.2]), (one, [[0.1], [0.2]]), (two, [0.1]), (two, [[0.1] * 3])]:
            with pytest.raises(ValueError, match=f"width {obs.observation_dim}"):
                weight(x, np.array(dy), obs)

    def test_flat_record_is_epochs_of_width_one(self):
        signal = SignalModel(2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.point([0.0]))
        scenario = Scenario(signal, bump_obs(), np.array([0.1, 0.2, 0.3]))
        assert scenario.increments.shape == (3, 1) and scenario.count == 3
        run = run_filter(scenario, 20, np.random.default_rng(5))
        assert [step.epoch for step in run.steps] == [1, 2, 3]

    def test_line_sensor_on_a_planar_signal_is_rejected(self):
        planar = SignalModel(
            2.0,
            SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
            InitialLaw.point([0.0, 0.0]),
        )
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sensor takes 1-d points but the signal is 2-d"):
            simulate_scenario(planar, bump_obs(), 1.0, rng)
        assert rng.bit_generator.state == state  # rejected before the truth's draws
        # a record built by hand stops at its Scenario, before any run draws
        increments = np.zeros((20, 1))
        with pytest.raises(ValueError, match="sensor takes 1-d points but the signal is 2-d"):
            Scenario(planar, bump_obs(), increments)
        line = SignalModel(2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.point([0.0]))
        plane_obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0, 0.0]], [1.0]), 0.1)
        with pytest.raises(ValueError, match="sensor takes 2-d points but the signal is 1-d"):
            Scenario(line, plane_obs, increments)


class TestScenario:
    def signal(self, alpha=2.0, weight_=0.5):
        return SignalModel(
            alpha, SpectralMeasure([[1.0]], [weight_]), InitialLaw.gaussian([0.0], [1.0])
        )

    def test_pure_noise_channel(self):
        rng = np.random.default_rng(67)
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        increments = simulate_scenario(self.signal(), obs, horizon=1000.0, rng=rng).increments
        z = increments[:, 0] / np.sqrt(obs.epsilon)
        n = z.size
        assert n == 10_000
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)

    def test_single_epoch_horizon(self):
        rng = np.random.default_rng(71)
        assert simulate_scenario(self.signal(), bump_obs(0.25), 0.25, rng).count == 1

    def test_exact_multiple_horizon(self):
        rng = np.random.default_rng(72)
        assert simulate_scenario(self.signal(), bump_obs(0.1), 2.0, rng).count == 20

    def test_channel_mean_tracks_sensor(self):
        # near-frozen truth: tiny spectral weight pins X near its start
        rng = np.random.default_rng(73)
        signal = SignalModel(
            2.0, SpectralMeasure([[1.0]], [1e-12]), InitialLaw.point([1.5])
        )
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=10.0), 0.1)
        increments = simulate_scenario(signal, obs, horizon=1000.0, rng=rng).increments
        ratio = increments[:, 0] / obs.epsilon
        se = np.sqrt(1.0 / obs.epsilon / len(increments))
        assert abs(ratio.mean() - 1.5) < 5.0 * se

    def test_epochs_past_the_cap_raise_before_any_draw(self):
        obs = ObservationModel(ZeroSensor(1, 1), 0.5)
        rng = np.random.default_rng(83)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"more than MAX_EPOCHS = {observation.MAX_EPOCHS} "):
            simulate_scenario(self.signal(), obs, (observation.MAX_EPOCHS + 1) * 0.5, rng)
        assert rng.bit_generator.state == state

    def test_truth_shapes(self):
        rng = np.random.default_rng(79)
        scenario = simulate_scenario(self.signal(), bump_obs(0.5), 2.0, rng)
        assert scenario.truth.shape == (5, 1)
        assert scenario.count == 4


class TestOncePerRecord:
    """A record's check, thinning bounds and lag table are built by its Scenario, once, and
    every run and oracle on the record reads them."""

    CONFIG = parse_config(default_config_text())

    @staticmethod
    def count_builds(monkeypatch):
        """Count the calls to weight_bounds and lag_scales through every module's binding."""
        calls = Counter()
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("levyfilter")]
        for original in (observation.weight_bounds, stable.lag_scales):

            def counting(*args, _original=original, **kwargs):
                calls[_original.__name__] += 1
                return _original(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    def test_a_sweep_builds_them_once(self, monkeypatch):
        calls, cfg = self.count_builds(monkeypatch), self.CONFIG
        signal, obs = build_signal(cfg), build_observation(cfg)
        result = rate_sweep(
            signal, obs, cfg.horizon, [250, 500, 1000], 2, cfg.seed, build_metric(cfg),
            build_oracle(cfg),
        )
        assert result.total_runs == 6
        # the truth's draws (no lag table given) make the other lag_scales call
        assert calls == {"weight_bounds": 1, "lag_scales": 2}

    def test_mass_moments_build_them_once_per_record(self, monkeypatch):
        calls, cfg = self.count_builds(monkeypatch), self.CONFIG
        signal, obs = build_signal(cfg), build_observation(cfg)
        records = 40  # the check's smallest replication count; each record runs both ns
        checks.check_mass_moments(
            signal, obs, cfg.horizon, cfg.seed, ns=(100, 200), replications=records
        )
        assert calls == {"weight_bounds": records, "lag_scales": 2 * records}
