"""Observation channel, weights, residuals, offspring rule, records."""

import numpy as np
import pytest

from levyfilter import (
    ClippedLinearSensor,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    ObservationRecord,
    SignalModel,
    SpectralMeasure,
    ZeroSensor,
    offspring_parameters,
    run_filter,
    simulate_scenario,
    weight,
)
from levyfilter import checks


def bump_obs(epsilon=0.1):
    return ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), epsilon)


class TestSensors:
    def test_gaussian_bump_values(self):
        sensor = GaussianBumpSensor([2.0], [[1.0]], [0.5])
        assert sensor(np.array([1.0]))[0] == pytest.approx(2.0)
        assert sensor(np.array([2.0]))[0] == pytest.approx(2.0 * np.exp(-2.0))

    def test_clipped_linear_clamps(self):
        sensor = ClippedLinearSensor([[2.0]], clip=3.0)
        assert sensor(np.array([1.0]))[0] == pytest.approx(2.0)
        assert sensor(np.array([10.0]))[0] == pytest.approx(3.0)
        assert sensor(np.array([-10.0]))[0] == pytest.approx(-3.0)

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
        record = ObservationRecord(increments=np.array([0.1, 0.2, 0.3]), epsilon=0.1)
        assert (record.count, record.observation_dim) == (3, 1)
        signal = SignalModel(2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.point([0.0]))
        run = run_filter(signal, bump_obs(), record, 20, np.random.default_rng(5))
        assert [step.epoch for step in run.steps] == [1, 2, 3]

    def test_line_sensor_on_a_planar_signal_is_rejected(self):
        planar = SignalModel(
            2.0,
            SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
            InitialLaw.point([0.0, 0.0]),
        )
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="width 1"):
            simulate_scenario(planar, bump_obs(), 1.0, rng)
        record = ObservationRecord(increments=np.zeros((20, 1)), epsilon=0.1)
        with pytest.raises(ValueError, match="width 1"):
            run_filter(planar, bump_obs(), record, 50, rng)


class TestScenario:
    def signal(self, alpha=2.0, weight_=0.5):
        return SignalModel(
            alpha, SpectralMeasure([[1.0]], [weight_]), InitialLaw.gaussian([0.0], [1.0])
        )

    def test_pure_noise_channel(self):
        rng = np.random.default_rng(67)
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        _, record = simulate_scenario(self.signal(), obs, horizon=1000.0, rng=rng)
        z = record.increments[:, 0] / np.sqrt(obs.epsilon)
        n = z.size
        assert n == 10_000
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)

    def test_single_epoch_horizon(self):
        rng = np.random.default_rng(71)
        _, record = simulate_scenario(self.signal(), bump_obs(0.25), 0.25, rng)
        assert record.count == 1

    def test_exact_multiple_horizon(self):
        rng = np.random.default_rng(72)
        _, record = simulate_scenario(self.signal(), bump_obs(0.1), 2.0, rng)
        assert record.count == 20

    def test_channel_mean_tracks_sensor(self):
        # near-frozen truth: tiny spectral weight pins X near its start
        rng = np.random.default_rng(73)
        signal = SignalModel(
            2.0, SpectralMeasure([[1.0]], [1e-12]), InitialLaw.point([1.5])
        )
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=10.0), 0.1)
        _, record = simulate_scenario(signal, obs, horizon=1000.0, rng=rng)
        ratio = record.increments[:, 0] / obs.epsilon
        se = np.sqrt(1.0 / obs.epsilon / record.count)
        assert abs(ratio.mean() - 1.5) < 5.0 * se

    def test_truth_shapes(self):
        rng = np.random.default_rng(79)
        path, record = simulate_scenario(self.signal(), bump_obs(0.5), 2.0, rng)
        assert path.shape == (5, 1)
        assert record.count == 4
