"""Stable process simulation: exact values, CF oracles, quadratic variation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter import (
    InitialLaw,
    SignalModel,
    SpectralMeasure,
    characteristic_exponent,
    covariance_rate,
    directional_moment,
    empirical_cf,
    increment_cf,
    sample_increment,
    sample_standard_stable_1d,
)
from levyfilter.stable import quadratic_variation_paths


def model_1d(alpha, weight=1.0):
    return SignalModel(
        alpha, SpectralMeasure([[1.0]], [weight]), InitialLaw.point([0.0])
    )


def model_2d(alpha):
    return SignalModel(
        alpha,
        SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
        InitialLaw.point([0.0, 0.0]),
    )


class TestSpectralMeasure:
    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            SpectralMeasure([[1.0, 1.0]], [1.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            SpectralMeasure([[1.0]], [0.0])

    def test_from_records(self):
        gamma = SpectralMeasure.from_records(
            [{"direction": [0.6, 0.8], "weight": 0.25}, {"direction": [0.0, -1.0], "weight": 1.5}]
        )
        assert gamma.directions.tolist() == [[0.6, 0.8], [0.0, -1.0]]
        assert gamma.weights.tolist() == [0.25, 1.5]


class TestCharacteristicExponent:
    def test_zero_frequency(self):
        assert characteristic_exponent(np.zeros(1), model_1d(1.5)) == 0.0

    def test_hand_value_alpha_three_halves(self):
        # unit atom at +1, theta = 1: tan(3 pi / 4) = -1 gives -1 - 1i
        val = characteristic_exponent(np.array([1.0]), model_1d(1.5))
        assert val == pytest.approx(-1.0 - 1.0j, rel=1e-10)

    def test_hand_value_alpha_two(self):
        val = characteristic_exponent(np.array([2.0]), model_1d(2.0))
        assert val.real == pytest.approx(-4.0, rel=1e-12)
        assert val.imag == 0.0

    def test_hand_value_alpha_one_log_branch(self):
        # unit atom at +1, theta = 2: -(2)(1 + i (2/pi) ln 2)
        val = characteristic_exponent(np.array([2.0]), model_1d(1.0))
        expected = -2.0 * (1.0 + 1j * (2.0 / np.pi) * np.log(2.0))
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
    def test_hermitian_and_dissipative(self, alpha):
        model = model_2d(alpha)
        thetas = np.array(
            [[0.3, -1.2], [1.0, 0.0], [-0.7, 0.4], [2.0, 2.0], [0.0, -3.0]]
        )
        vals = characteristic_exponent(thetas, model)
        mirrored = characteristic_exponent(-thetas, model)
        assert np.all(vals.real <= 1e-15)
        assert np.allclose(mirrored, np.conj(vals), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0])
    def test_positive_homogeneity(self, alpha):
        model = model_2d(alpha)
        theta = np.array([0.7, -0.3])
        base = characteristic_exponent(theta, model)
        for c in (0.5, 2.0, 7.0):
            scaled = characteristic_exponent(c * theta, model)
            assert scaled == pytest.approx(c**alpha * base, rel=1e-10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    alpha=st.one_of(
        st.floats(0.01, 2.0), st.floats(1.0 - 1e-3, 1.0 + 1e-3), st.sampled_from([1.0, 2.0])
    ),
    angle=st.floats(0.0, 2.0 * np.pi),
    weight=st.floats(0.01, 10.0),
    theta=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
)
def test_exponent_is_hermitian_across_alpha(alpha, angle, weight, theta):
    model = SignalModel(
        alpha,
        SpectralMeasure([[np.cos(angle), np.sin(angle)], [1.0, 0.0]], [weight, 1.0]),
        InitialLaw.point([0.0, 0.0]),
    )
    th = np.array(theta)
    value = characteristic_exponent(th, model)
    assert abs(characteristic_exponent(-th, model) - np.conj(value)) <= 1e-12 * (1.0 + abs(value))


class TestStandardStable:
    def test_alpha_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_standard_stable_1d(0.0, rng)
        with pytest.raises(ValueError):
            sample_standard_stable_1d(2.5, rng)

    def test_alpha_two_variance(self):
        rng = np.random.default_rng(11)
        draws = sample_standard_stable_1d(2.0, rng, size=100_000)
        # sample variance of N(0,2): standard error sqrt(2 * 4 / N)
        tol = 5.0 * np.sqrt(8.0 / draws.size)
        assert abs(draws.var() - 2.0) < tol

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
    def test_cf_matches_skewed_standard_form(self, alpha):
        rng = np.random.default_rng(23)
        n = 100_000
        draws = sample_standard_stable_1d(alpha, rng, size=n)
        for u in (0.5, 1.0, 2.0):
            emp = np.exp(1j * u * draws).mean()
            if alpha == 1.0:
                exact = np.exp(-abs(u) * (1.0 + 1j * (2.0 / np.pi) * np.log(abs(u))))
            else:
                exact = np.exp(
                    -abs(u) ** alpha * (1.0 - 1j * np.tan(np.pi * alpha / 2.0))
                )
            assert abs(emp - exact) < 5.0 / np.sqrt(n)

    def test_cf_at_zero_is_one(self):
        rng = np.random.default_rng(3)
        draws = sample_standard_stable_1d(1.5, rng, size=1000)
        assert empirical_cf(draws, 0.0) == 1.0 + 0.0j


class TestIncrements:
    def test_rejects_nonpositive_dt(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_increment(model_1d(1.5), 0.0, rng, size=1)

    def test_small_dt_cf_near_one(self):
        rng = np.random.default_rng(5)
        draws = sample_increment(model_1d(1.5), 1e-6, rng, size=20_000)
        assert abs(empirical_cf(draws, 1.0) - 1.0) < 1e-3

    def test_gaussian_covariance_two_dims(self):
        # atoms (1,0) and (0,1), weight 0.5 each: covariance dt * identity
        rng = np.random.default_rng(7)
        n, dt = 100_000, 1.0
        draws = sample_increment(model_2d(2.0), dt, rng, size=n)
        cov = np.cov(draws.T)
        assert abs(cov[0, 0] - dt) < 5.0 * np.sqrt(2.0 / n) * dt
        assert abs(cov[1, 1] - dt) < 5.0 * np.sqrt(2.0 / n) * dt
        assert abs(cov[0, 1]) < 5.0 * dt / np.sqrt(n)
        assert np.allclose(covariance_rate(model_2d(2.0).spectral), np.eye(2))

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
    def test_cf_consistency_on_grid(self, alpha):
        # empirical transform against exp(dt * l(-theta)) on a 20-node grid
        rng = np.random.default_rng(29)
        model = model_2d(alpha)
        n, dt = 100_000, 1.0
        draws = sample_increment(model, dt, rng, size=n)
        angles = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
        radii = np.array([0.5, 1.5])
        thetas = np.concatenate(
            [r * np.column_stack([np.cos(angles), np.sin(angles)]) for r in radii]
        )
        gap = np.abs(empirical_cf(draws, thetas) - increment_cf(model, dt, thetas))
        assert gap.max() < 5.0 / np.sqrt(n)

    def test_alpha_one_drift_correction(self):
        # unequal weights make the per-atom log drift nontrivial
        rng = np.random.default_rng(31)
        model = SignalModel(
            1.0,
            SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [0.3, 1.4]),
            InitialLaw.point([0.0, 0.0]),
        )
        n, dt = 100_000, 0.5
        draws = sample_increment(model, dt, rng, size=n)
        thetas = np.array([[0.5, 0.0], [0.0, 1.0], [1.0, 1.0], [-2.0, 0.5]])
        gap = np.abs(empirical_cf(draws, thetas) - increment_cf(model, dt, thetas))
        assert gap.max() < 5.0 / np.sqrt(n)

    def test_additivity_in_law(self):
        rng = np.random.default_rng(37)
        model = model_1d(1.5)
        n = 100_000
        whole = sample_increment(model, 1.0, rng, size=n)
        halves = sample_increment(model, 0.5, rng, size=n) + sample_increment(
            model, 0.5, rng, size=n
        )
        for theta in (0.5, 1.0, 2.0):
            gap = abs(empirical_cf(whole, theta) - empirical_cf(halves, theta))
            assert gap < 5.0 * np.sqrt(2.0 / n)


class TestShapeRule:
    """Frequencies are rows of width d; every function gives one value per row."""

    @pytest.mark.parametrize(
        "transform",
        [
            lambda theta: characteristic_exponent(theta, model_2d(1.5)),
            lambda theta: increment_cf(model_2d(1.5), 1.0, theta),
            lambda theta: empirical_cf(np.zeros((4, 2)), theta),
        ],
    )
    def test_wrong_width_names_the_expected_width(self, transform):
        with pytest.raises(ValueError, match="width 2"):
            transform(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="width 2"):
            transform(np.array([1.0, 2.0, 3.0]))
        assert transform(np.array([1.0, 0.0])).shape == (1,)
        assert transform(np.array([1.0, 0.0, 0.0, 1.0])).shape == (2,)

    def test_flat_frequencies_of_a_line_model(self):
        assert characteristic_exponent(0.5, model_1d(1.5)).shape == (1,)
        assert increment_cf(model_1d(1.5), 1.0, [0.5, 1.0, 2.0]).shape == (3,)

    def test_increments_are_rows(self):
        rng = np.random.default_rng(5)
        assert sample_increment(model_2d(1.5), 1.0, rng, size=1).shape == (1, 2)
        assert sample_increment(model_1d(0.8), 1.0, rng, size=3).shape == (3, 1)


class TestEmpiricalCf:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cf(np.empty((0, 1)), 1.0)

    def test_zero_sample(self):
        assert empirical_cf(np.array([[0.0]]), 3.7) == 1.0 + 0.0j

    def test_single_atom_at_pi(self):
        val = empirical_cf(np.array([np.pi]), 1.0)
        assert val == pytest.approx(-1.0 + 0.0j, abs=1e-12)

    def test_modulus_bounded(self):
        rng = np.random.default_rng(41)
        samples = rng.normal(size=(500, 2))
        thetas = rng.normal(size=(15, 2))
        assert np.all(np.abs(empirical_cf(samples, thetas)) <= 1.0 + 1e-12)


class TestQuadraticVariation:
    def test_zero_theta_gives_zero(self):
        rng = np.random.default_rng(2)
        val = quadratic_variation_paths(model_1d(1.5), [0.0], 1.0, 200, 3, rng).mean()
        assert val == 0.0

    def test_alpha_two_deterministic_value(self):
        # expected quadratic variation 2 t |theta|^2 for the Gaussian case
        rng = np.random.default_rng(13)
        val = quadratic_variation_paths(model_1d(2.0), [1.0], 1.0, 10_000, 16, rng).mean()
        assert abs(val - 2.0) < 0.02 * 2.0

    def test_alpha_three_halves_value(self):
        # 2 t integral |theta z|^1.5 = 2 * 0.5 * 2^1.5
        rng = np.random.default_rng(17)
        model = model_1d(1.5)
        target = 2.0 * 0.5 * directional_moment(model.spectral, [2.0], 1.5)
        assert target == pytest.approx(2.0 * 0.5 * 2.0**1.5)
        paths = quadratic_variation_paths(model, [2.0], 0.5, 2_000, 200, rng)
        se = paths.std(ddof=1) / np.sqrt(paths.size)
        assert abs(paths.mean() - target) < 5.0 * se

    def test_linear_in_time(self):
        rng = np.random.default_rng(19)
        model = model_1d(1.2)
        one = quadratic_variation_paths(model, [1.0], 1.0, 1_000, 150, rng)
        two = quadratic_variation_paths(model, [1.0], 2.0, 2_000, 150, rng)
        se = np.hypot(
            2.0 * one.std(ddof=1) / np.sqrt(one.size),
            two.std(ddof=1) / np.sqrt(two.size),
        )
        assert abs(two.mean() - 2.0 * one.mean()) < 5.0 * se

    def test_partition_floor(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            quadratic_variation_paths(model_1d(1.5), [1.0], 1.0, 50, 1, rng).mean()
