"""Grid reference filter and Kalman recursion."""

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
    build_grid,
    increment_cf,
    kalman_reference,
    predict_step,
    run_reference,
    sample_increment,
    update_step,
    weight,
)
from levyfilter import reference
from levyfilter.reference import MAX_GRID_CELLS, GridAccuracyWarning, GridDomainError


def signal(alpha=2.0, w=0.5, law=None):
    return SignalModel(
        alpha,
        SpectralMeasure([[1.0]], [w]),
        law if law is not None else InitialLaw.gaussian([0.0], [1.0]),
    )


def nearest_center(grid, x):
    return float(grid.axes[0][np.argmin(np.abs(grid.axes[0] - x))])


class TestBuildGrid:
    @pytest.mark.parametrize("dimension, points", [(1, 2 * MAX_GRID_CELLS), (3, 512)])
    def test_cell_bound_checked_before_allocating(self, monkeypatch, dimension, points):
        def no_mesh(axes):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(reference, "_mesh", no_mesh)
        sig = SignalModel(
            2.0, SpectralMeasure([[1.0] + [0.0] * (dimension - 1)], [0.5]),
            InitialLaw.gaussian([0.0] * dimension, [1.0] * dimension),
        )
        with pytest.raises(ValueError, match="grid cells exceed the cap"):
            build_grid(sig, 0.1, 10.0, points)

    def test_point_mass_single_cell(self):
        grid = build_grid(signal(law=InitialLaw.point([0.12])), 0.1, 10.0, 512)
        assert np.count_nonzero(grid.density) == 1
        assert grid.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_mass_one(self):
        grid = build_grid(signal(), 0.1, 10.0, 512)
        assert grid.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_multiplier_at_zero_frequency(self):
        grid = build_grid(signal(), 0.1, 10.0, 64)
        assert grid.multiplier.reshape(-1)[0] == 1.0 + 0.0j

    def test_domain_too_small(self):
        with pytest.raises(GridDomainError):
            build_grid(signal(law=InitialLaw.gaussian([0.0], [5.0])), 0.1, 6.0, 64)
        with pytest.raises(GridDomainError):
            build_grid(signal(law=InitialLaw.point([20.0])), 0.1, 10.0, 64)
        # a quarter of the uniform support [8.5, 10.5] lies beyond the edge at 10
        with pytest.raises(GridDomainError, match=r"outside the domain is 2\.500e-01 "):
            build_grid(signal(law=InitialLaw.uniform([9.5], [1.0])), 0.1, 10.0, 64)

    def test_uniform_law_density(self):
        # support [1.25, 3.75] on cell edges of the 512-cell grid on [-10, 10] (step 2**-5 * 1.25)
        grid = build_grid(signal(law=InitialLaw.uniform([2.5], [1.25])), 0.1, 10.0, 512)
        inside = np.abs(grid.axes[0] - 2.5) < 1.25
        assert np.count_nonzero(inside) == 64
        assert grid.density[inside] == pytest.approx(1.0 / 2.5, rel=1e-12)
        assert not grid.density[~inside].any()
        assert grid.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_points_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            build_grid(signal(), 0.1, 10.0, 100)
        with pytest.raises(ValueError):
            build_grid(signal(), 0.1, 10.0, 32)


class TestPredict:
    def test_mass_conserved_up_to_clamping(self):
        grid = build_grid(signal(), 0.1, 10.0, 512)
        before = grid.total_mass
        out = predict_step(grid)
        assert abs(out.total_mass - before - out.last_clamped) < 1e-9 * before

    def test_point_mass_becomes_gaussian(self):
        # one transition of the alpha=2 signal is N(x0, 2 * eps * weight)
        eps, w = 0.1, 0.5
        probe = build_grid(signal(law=InitialLaw.point([0.0])), eps, 10.0, 512)
        x0 = nearest_center(probe, 0.0)
        grid = build_grid(signal(law=InitialLaw.point([x0])), eps, 10.0, 512)
        out = predict_step(grid)
        var = 2.0 * eps * w
        exact = np.exp(-0.5 * (grid.points[:, 0] - x0) ** 2 / var) / np.sqrt(
            2.0 * np.pi * var
        )
        gap = np.abs(out.density.reshape(-1) - exact)
        assert gap.max() / exact.max() < 1e-3

    def test_two_half_steps_equal_one_double_step(self):
        sig = signal()
        twice = predict_step(predict_step(build_grid(sig, 0.1, 10.0, 512)))
        once = predict_step(build_grid(sig, 0.2, 10.0, 512))
        assert np.max(np.abs(twice.density - once.density)) < 1e-10

    def test_skewed_kernel_orientation(self):
        # totally skewed alpha=1.5 spreads right: grid tail mass must match a
        # Monte Carlo tail from the CF-verified increment sampler
        eps = 1.0
        sig = SignalModel(
            1.5, SpectralMeasure([[1.0]], [1.0]), InitialLaw.gaussian([0.0], [0.3])
        )
        out = predict_step(build_grid(sig, eps, 60.0, 2048))
        grid_tail = float(
            out.density.reshape(-1)[out.points[:, 0] > 2.0].sum() * out.cell_volume
        )
        rng = np.random.default_rng(7)
        n = 100_000
        draws = 0.3 * rng.standard_normal(n) + sample_increment(
            sig, eps, rng, size=n
        )[:, 0]
        mc_tail = float(np.mean(draws > 2.0))
        se = np.sqrt(mc_tail * (1.0 - mc_tail) / n)
        assert abs(grid_tail - mc_tail) < 5.0 * se + 2e-3
        # far out the heavy right tail dominates; a flipped kernel would swap tails
        far_right = float(
            out.density.reshape(-1)[out.points[:, 0] > 5.0].sum() * out.cell_volume
        )
        far_left = float(
            out.density.reshape(-1)[out.points[:, 0] < -5.0].sum() * out.cell_volume
        )
        assert far_right > 10.0 * max(far_left, 1e-9)
        assert abs(far_right - float(np.mean(draws > 5.0))) < 5.0 * se + 2e-3


class TestUpdate:
    def bump_obs(self, eps=0.1):
        return ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), eps)

    def test_zero_sensor_identity(self):
        grid = build_grid(signal(), 0.1, 10.0, 64)
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        out = update_step(grid, np.array([0.4]), obs)
        assert np.array_equal(out.density, grid.density)

    def test_near_constant_likelihood_keeps_normalized_filter(self):
        grid = build_grid(signal(), 0.1, 10.0, 256)
        # a bump this wide is constant over the domain to within 1e-4
        obs = ObservationModel(GaussianBumpSensor([0.7], [[0.0]], [1e3]), 0.1)
        out = update_step(grid, np.array([0.2]), obs)
        normalized_before = grid.density / grid.total_mass
        normalized_after = out.density / out.total_mass
        assert np.max(np.abs(normalized_after - normalized_before)) < 1e-6

    def test_single_cell_mass_factor(self):
        # the point update multiplies the lone cell by exactly 1 + rho(x0)
        obs = ObservationModel(ClippedLinearSensor([[0.5]], clip=10.0), 0.1)
        grid = build_grid(signal(law=InitialLaw.point([1.0])), 0.1, 10.0, 64)
        x0 = grid.points[np.argmax(grid.density), 0]
        dy = np.array([0.2])
        out = update_step(grid, dy, obs)
        factor = 1.0 + weight(np.array([x0]), dy, obs)
        assert out.total_mass == pytest.approx(grid.total_mass * factor, rel=1e-12)

    def test_update_commutes_with_scaling(self):
        # scaling by a power of two is exact in floating point
        grid = build_grid(signal(), 0.1, 10.0, 128)
        obs = self.bump_obs()
        dy = np.array([0.3])
        scaled_first = update_step(
            type(grid)(**{**grid.__dict__, "density": 2.0 * grid.density}), dy, obs
        )
        scaled_after = update_step(grid, dy, obs)
        assert np.array_equal(scaled_first.density, 2.0 * scaled_after.density)

    def test_update_is_frequency_convolution(self):
        # fft(d * (1 + rho)) = fft(d) + circconv(fft(rho), fft(d)) / N
        grid = build_grid(signal(), 0.1, 10.0, 64)
        obs = self.bump_obs()
        dy = np.array([0.25])
        rho = weight(grid.points, dy, obs)
        n = grid.density.size
        d_hat = np.fft.fft(grid.density)
        rho_hat = np.fft.fft(rho)
        conv = np.array(
            [np.sum(rho_hat * d_hat[(k - np.arange(n)) % n]) for k in range(n)]
        )
        lhs = np.fft.fft(update_step(grid, dy, obs).density)
        rhs = d_hat + conv / n
        scale = np.max(np.abs(d_hat))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-8


class TestRunReference:
    def test_pure_prediction_cf_evolution(self):
        # without a sensor the transform just picks up the transition factor
        eps, K = 0.1, 8
        sig = signal()
        obs = ObservationModel(ZeroSensor(1, 1), eps)
        increments = np.zeros((K, 1))
        thetas = np.array([0.5, 1.0, 2.0])
        summaries, grid = run_reference(
            Scenario(sig, obs, increments), domain_halfwidth=10.0, points_per_axis=512,
            theta_grid=thetas,
        )
        start = summaries[0].transform
        final = summaries[-1].transform
        factor = increment_cf(sig, K * eps, thetas)
        assert np.max(np.abs(final - start * factor)) < 1e-6

    def test_empty_record_initial_summary_only(self):
        increments = np.empty((0, 1))
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        summaries, _ = run_reference(
            Scenario(signal(), obs, increments), domain_halfwidth=10.0, points_per_axis=64
        )
        assert len(summaries) == 1
        assert summaries[0].total_mass == pytest.approx(1.0, abs=1e-9)

    def test_zero_sensor_mass_constant(self):
        increments = np.zeros((5, 1))
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        summaries, _ = run_reference(
            Scenario(signal(), obs, increments), domain_halfwidth=10.0, points_per_axis=256
        )
        for s in summaries:
            assert s.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_accuracy_warns_once_with_worst_epoch_and_count(self):
        # a half-width of 5 lets the alpha = 1.5 law reach the boundary cells; with no
        # sensor the update keeps the predicted grid, so the summaries hold its fractions
        K = 10
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        scenario = Scenario(signal(alpha=1.5), obs, np.zeros((K, 1)))
        with pytest.warns(GridAccuracyWarning) as caught:
            summaries, _ = run_reference(scenario, domain_halfwidth=5.0, points_per_axis=64)
        messages = [str(w.message) for w in caught if w.category is GridAccuracyWarning]
        fractions = np.array([s.boundary_mass for s in summaries[1:]])
        over = int(np.sum(fractions > 1e-4))
        assert over > 1 and len(messages) == 1
        worst = int(np.argmax(fractions)) + 1
        assert messages[0].startswith(
            f"boundary cells hold fraction {fractions.max():.3e} of the mass at epoch {worst} "
            f"(worst of {over} of {K} epochs"
        )

    def test_clamped_mass_warns_once(self):
        # a Cauchy kernel much narrower than a cell rings below zero around a point mass
        obs = ObservationModel(ZeroSensor(1, 1), 0.001)
        law = InitialLaw.point([0.0])
        scenario = Scenario(signal(alpha=1.0, law=law), obs, np.zeros((5, 1)))
        with pytest.warns(GridAccuracyWarning) as caught:
            run_reference(scenario, domain_halfwidth=10.0, points_per_axis=64)
        messages = [str(w.message) for w in caught if w.category is GridAccuracyWarning]
        assert len(messages) == 1
        assert messages[0].startswith("clamped mass fraction ")
        assert "(worst of 5 of 5 epochs over 1e-03)" in messages[0]


class TestKalman:
    def test_no_channel_covariance_growth(self):
        increments = np.zeros((5, 1))
        means, covs = kalman_reference(increments, 0.5, [[0.0]], [1.3], [[1.0]], [[2.0]])
        assert np.allclose(means[:, 0], 1.3)
        expected = 1.0 + 0.5 * 2.0 * np.arange(1, 6)
        assert np.allclose(covs[:, 0, 0], expected, rtol=1e-12)

    def test_hand_computed_gain(self):
        # P0=1, Q=0, eps=1, H=1: gain 1/2, posterior variance 1/2
        increments = np.array([[0.8]])
        means, covs = kalman_reference(increments, 1.0, [[1.0]], [0.0], [[1.0]], [[0.0]])
        assert covs[0, 0, 0] == pytest.approx(0.5, rel=1e-12)
        assert means[0, 0] == pytest.approx(0.5 * 0.8, rel=1e-12)

    def test_grid_cross_check_known_start(self):
        # exact Gaussian recursion against the grid filter on the same record
        rng = np.random.default_rng(117)
        eps, K, w = 0.1, 10, 0.5
        x0 = 0.3
        sig = signal(w=w, law=InitialLaw.point([x0]))
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=30.0), eps)
        truth = [x0]
        for _ in range(K):
            truth.append(truth[-1] + float(np.sqrt(2.0 * w * eps)) * rng.standard_normal())
        truth = np.array(truth[1:]).reshape(-1, 1)
        increments = truth * eps + np.sqrt(eps) * rng.standard_normal((K, 1))
        means, _ = kalman_reference(increments, eps, [[1.0]], [x0], [[0.0]], [[2.0 * w]])
        summaries, _ = run_reference(
            Scenario(sig, obs, increments), domain_halfwidth=10.0, points_per_axis=512
        )
        grid_means = np.array([s.mean[0] for s in summaries[1:]])
        coarse, _ = run_reference(
            Scenario(sig, obs, increments), domain_halfwidth=10.0, points_per_axis=256
        )
        coarse_means = np.array([s.mean[0] for s in coarse[1:]])
        discretization = max(np.max(np.abs(grid_means - coarse_means)), 1e-6)
        assert np.max(np.abs(grid_means - means[:, 0])) < 3.0 * discretization

    def test_grid_kalman_agreement_gaussian_prior(self):
        rng = np.random.default_rng(131)
        eps, K, w = 0.1, 12, 0.5
        sig = signal(w=w)
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=30.0), eps)
        x = rng.standard_normal()
        rows = []
        for _ in range(K):
            x = x + np.sqrt(2.0 * w * eps) * rng.standard_normal()
            rows.append(x * eps + np.sqrt(eps) * rng.standard_normal())
        increments = np.array(rows).reshape(-1, 1)
        means, _ = kalman_reference(increments, eps, [[1.0]], [0.0], [[1.0]], [[1.0]])
        summaries, _ = run_reference(
            Scenario(sig, obs, increments), domain_halfwidth=10.0, points_per_axis=512
        )
        grid_means = np.array([s.mean[0] for s in summaries[1:]])
        coarse, _ = run_reference(
            Scenario(sig, obs, increments), domain_halfwidth=10.0, points_per_axis=256
        )
        coarse_means = np.array([s.mean[0] for s in coarse[1:]])
        discretization = max(np.max(np.abs(grid_means - coarse_means)), 1e-6)
        assert np.max(np.abs(grid_means - means[:, 0])) < 3.0 * discretization
