"""Branching particle system: mechanics, unbiasedness, baseline, control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter import (
    ClippedLinearSensor,
    ExtinctionError,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    ObservationRecord,
    PopulationControl,
    SignalModel,
    SpectralMeasure,
    WeightOverflowError,
    ZeroSensor,
    branch_residual,
    branch_step,
    empirical_fourier,
    estimate,
    evolve_segment,
    init_ensemble,
    multinomial_baseline_step,
    offspring_parameters,
    population_control,
    run_baseline,
    run_filter,
    weight,
)
from levyfilter.branching import MAX_RHO, _apply_offspring, _offspring_counts


class FixedUniform:
    """Stub random stream handing out preset uniforms (branching tests only)."""

    def __init__(self, values):
        self.values = np.atleast_1d(np.asarray(values, dtype=float))

    def random(self, size=None):
        assert size == self.values.size
        return self.values.copy()


class RecordingRng:
    """A real Generator that also keeps every ``uniform`` and ``random`` draw, in call order."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.uniforms = []

    def uniform(self, *args, **kwargs):
        out = self.rng.uniform(*args, **kwargs)
        self.uniforms.append(out)
        return out

    def random(self, *args, **kwargs):
        out = self.rng.random(*args, **kwargs)
        self.uniforms.append(out)
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def assert_parent_rows(step):
    """post is pre gathered at parents, with each parent's offspring contiguous."""
    assert step.parents.shape == (step.post.count,)
    assert np.array_equal(step.post.positions, step.pre.positions[step.parents])
    assert np.all(np.diff(step.parents) >= 0)


def gaussian_signal(alpha=2.0, w=0.5):
    return SignalModel(
        alpha, SpectralMeasure([[1.0]], [w]), InitialLaw.gaussian([0.0], [1.0])
    )


def point_signal(x=0.0, alpha=2.0, w=0.5):
    return SignalModel(alpha, SpectralMeasure([[1.0]], [w]), InitialLaw.point([x]))


def linear_obs(eps=0.1, clip=50.0):
    return ObservationModel(ClippedLinearSensor([[1.0]], clip=clip), eps)


def dy_for_rho(rho, x, obs):
    """Observation increment making weight(x) equal rho for the scalar linear sensor."""
    h = float(obs.sensor(np.atleast_1d(x))[0])
    return np.array([(np.log1p(rho) + 0.5 * obs.epsilon * h * h) / h])


class TestInit:
    def test_point_mass_single_particle(self):
        rng = np.random.default_rng(1)
        ens = init_ensemble(1, point_signal(2.5), rng)
        assert ens.count == 1
        assert ens.positions[0, 0] == 2.5
        assert ens.total_mass == 1.0

    def test_rejects_zero_particles(self):
        with pytest.raises(ValueError):
            init_ensemble(0, gaussian_signal(), np.random.default_rng(1))

    def test_initial_mean_clt(self):
        rng = np.random.default_rng(2)
        ens = init_ensemble(10_000, gaussian_signal(), rng)
        assert abs(ens.positions.mean()) < 5.0 / np.sqrt(ens.count)
        assert ens.total_mass == 1.0


class TestEvolve:
    def test_counts_and_time(self):
        rng = np.random.default_rng(5)
        ens = init_ensemble(100, gaussian_signal(), rng)
        out = evolve_segment(ens, gaussian_signal(), 0.3, rng)
        assert out.count == ens.count
        assert out.mass_factor == ens.mass_factor
        assert out.time == pytest.approx(0.3)

    def test_single_step_matches_two_half_steps_in_law(self):
        rng = np.random.default_rng(7)
        signal = point_signal(0.0, alpha=1.5, w=1.0)
        n = 100_000
        whole = evolve_segment(init_ensemble(n, signal, rng), signal, 0.5, rng)
        half = init_ensemble(n, signal, rng)
        half = evolve_segment(half, signal, 0.25, rng)
        half = evolve_segment(half, signal, 0.25, rng)
        for theta in (0.5, 1.0, 2.0):
            a = np.exp(-1j * theta * whole.positions[:, 0]).mean()
            b = np.exp(-1j * theta * half.positions[:, 0]).mean()
            assert abs(a - b) < 5.0 * np.sqrt(2.0 / n)

    def test_alpha_two_displacement_variance(self):
        rng = np.random.default_rng(11)
        signal = point_signal(0.0, alpha=2.0, w=0.5)
        n = 100_000
        out = evolve_segment(init_ensemble(n, signal, rng), signal, 1.0, rng)
        # variance of one displacement over dt=1 is 2 * weight
        assert abs(out.positions[:, 0].var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


class TestBranchStep:
    def test_zero_weights_relabel_only(self):
        rng = np.random.default_rng(13)
        ens = init_ensemble(50, gaussian_signal(), rng)
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        out = branch_step(ens, np.array([0.3]), obs, rng)
        assert out.count == ens.count
        assert np.array_equal(out.positions, ens.positions)

    def test_branch_with_fraction(self):
        obs = linear_obs()
        ens = init_ensemble(1, point_signal(1.0), np.random.default_rng(17))
        dy = dy_for_rho(2.3, 1.0, obs)
        out = branch_step(ens, dy, obs, FixedUniform([0.25]))
        assert out.count == 4  # 3 certain copies plus the extra (0.25 < 0.3)
        assert np.all(out.positions == ens.positions[0])
        out2 = branch_step(ens, dy, obs, FixedUniform([0.35]))
        assert out2.count == 3  # half-open rule: 0.35 >= 0.3 adds nothing

    def test_kill_is_half_open(self):
        obs = linear_obs()
        ens = init_ensemble(1, point_signal(1.0), np.random.default_rng(19))
        dy = dy_for_rho(-0.4, 1.0, obs)
        dead = branch_step(ens, dy, obs, FixedUniform([0.25]))
        assert dead.count == 0
        alive = branch_step(ens, dy, obs, FixedUniform([0.45]))
        assert alive.count == 1

    def test_offspring_rows_follow_counts(self):
        ens = init_ensemble(6, gaussian_signal(), np.random.default_rng(3))
        counts = np.array([0, 3, 1, 0, 2, 1])
        out, parents = _apply_offspring(ens, counts)
        assert np.array_equal(parents, [1, 1, 1, 2, 4, 4, 5])
        assert np.array_equal(np.bincount(parents, minlength=ens.count), counts)
        assert np.array_equal(out.positions, ens.positions[parents])
        empty, none = _apply_offspring(ens, np.zeros(6, dtype=np.int64))
        assert empty.count == 0 and none.size == 0
        assert empty.positions.shape == (0, 1)

    def test_positions_preserved(self):
        rng = np.random.default_rng(23)
        ens = init_ensemble(200, gaussian_signal(), rng)
        obs = linear_obs(0.5)
        out = branch_step(ens, np.array([0.8]), obs, rng)
        parents = {float(x) for x in ens.positions[:, 0]}
        assert {float(x) for x in out.positions[:, 0]} <= parents

    def test_one_step_unbiasedness(self):
        # fixed pre-branch ensemble and dy: E_U <mu_post, phi> = <mu_pre, (1+rho) phi>
        rng = np.random.default_rng(29)
        ens = init_ensemble(100, gaussian_signal(), rng)
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.1)
        dy = np.array([0.4])
        rho = weight(ens.positions, dy, obs)
        theta = 0.7
        for phi, target in [
            (lambda x: np.ones(x.shape[0]), np.sum(1.0 + rho) / ens.count),
            (
                lambda x: np.exp(-1j * theta * x[:, 0]),
                np.sum((1.0 + rho) * np.exp(-1j * theta * ens.positions[:, 0]))
                / ens.count,
            ),
        ]:
            reps = 3000
            vals = np.empty(reps, dtype=complex)
            for r in range(reps):
                out = branch_step(ens, dy, obs, rng)
                vals[r] = estimate(out, phi)[0] if out.count else 0.0
            se = vals.std(ddof=1) / np.sqrt(reps)
            assert abs(vals.mean() - target) < 5.0 * max(se, 1e-12)


class TestEstimates:
    def test_constant_function(self):
        ens = init_ensemble(7, gaussian_signal(), np.random.default_rng(31))
        unnorm, norm = estimate(ens, lambda x: np.ones(x.shape[0]))
        assert norm == 1.0
        assert unnorm == pytest.approx(ens.total_mass)

    def test_two_particle_mean(self):
        ens = init_ensemble(2, gaussian_signal(), np.random.default_rng(37))
        ens.positions = np.array([[0.0], [2.0]])
        _, norm = estimate(ens, lambda x: x[:, 0])
        assert norm == 1.0

    def test_empty_raises(self):
        ens = init_ensemble(1, gaussian_signal(), np.random.default_rng(41))
        ens.positions = np.empty((0, 1))
        with pytest.raises(ExtinctionError):
            estimate(ens, lambda x: np.ones(x.shape[0]))

    def test_empty_reports_time_not_epoch(self):
        ens = init_ensemble(1, gaussian_signal(), np.random.default_rng(42))
        ens.positions = np.empty((0, 1))
        ens.time = 0.3
        with pytest.raises(ExtinctionError) as err:
            estimate(ens, lambda x: np.ones(x.shape[0]))
        assert err.value.time == 0.3
        assert "time 0.3" in str(err.value)

    def test_fourier_trivialities(self):
        ens = init_ensemble(1, point_signal(0.0), np.random.default_rng(43))
        vals = empirical_fourier(ens, np.array([0.0, 0.5, 2.0]))
        assert np.allclose(vals, 1.0)
        ens.positions = np.empty((0, 1))
        assert np.array_equal(
            empirical_fourier(ens, np.array([0.0, 1.0])), np.zeros(2, dtype=complex)
        )

    def test_fourier_at_zero_is_mass(self):
        ens = init_ensemble(64, gaussian_signal(), np.random.default_rng(47))
        vals = empirical_fourier(ens, np.array([0.0]))
        assert vals[0] == pytest.approx(ens.total_mass)


class TestRunFilter:
    def make_record(self, h_zero=False, K=5, eps=0.1, seed=49):
        rng = np.random.default_rng(seed)
        if h_zero:
            increments = np.sqrt(eps) * rng.standard_normal((K, 1))
        else:
            increments = eps * 0.5 + np.sqrt(eps) * rng.standard_normal((K, 1))
        return ObservationRecord(increments=increments, epsilon=eps)

    def test_empty_record(self):
        record = ObservationRecord(increments=np.empty((0, 1)), epsilon=0.1)
        run = run_filter(
            gaussian_signal(),
            linear_obs(),
            record,
            50,
            np.random.default_rng(53),
        )
        assert run.steps == [] and not run.extinct
        assert run.final.count == 50

    def test_zero_sensor_keeps_mass_one(self):
        record = self.make_record(h_zero=True, K=8)
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        run = run_filter(gaussian_signal(), obs, record, 40, np.random.default_rng(59))
        for step in run.steps:
            assert step.post.total_mass == 1.0
            assert step.branch_events == 0

    def test_extinction_reported(self):
        # one particle, strongly negative weights: extinction almost surely
        eps = 0.9
        obs = linear_obs(eps)
        record = ObservationRecord(
            increments=np.full((30, 1), -5.0), epsilon=eps
        )
        run = run_filter(point_signal(1.0), obs, record, 1, np.random.default_rng(61))
        assert run.extinct
        assert run.steps[-1].post.count == 0
        assert run.extinct_epoch == run.steps[-1].epoch

    def test_determinism_bit_identical(self):
        record = self.make_record(K=6)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(67)
            runs.append(
                run_filter(gaussian_signal(), linear_obs(), record, 300, rng)
            )
        a, b = runs
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.post.positions, sb.post.positions)
            assert sa.parents.dtype == sb.parents.dtype
            assert np.array_equal(sa.parents, sb.parents)

    def test_parent_rows_match_offspring_counts(self):
        record = self.make_record(K=10)
        obs = linear_obs()
        rng = RecordingRng(71)  # alpha = 2: the branching rule is the only uniform draw
        run = run_filter(gaussian_signal(), obs, record, 500, rng)
        assert len(rng.uniforms) == len(run.steps) == 10
        for step, u in zip(run.steps, rng.uniforms):
            assert_parent_rows(step)
            rho = weight(step.pre.positions, record.increments[step.epoch - 1], obs)
            counts, _ = _offspring_counts(rho, u)
            assert np.array_equal(np.bincount(step.parents, minlength=step.pre.count), counts)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_overflow_is_an_error_not_extinction(self):
        # the linear sensor clips at 20, so rho = exp(100 * 20 - ...) - 1 = inf
        obs = linear_obs(0.5, clip=20.0)
        record = ObservationRecord(increments=np.full((3, 1), 100.0), epsilon=0.5)
        signal = point_signal(25.0, w=1e-12)
        with pytest.raises(WeightOverflowError) as err:
            run_filter(signal, obs, record, 10, np.random.default_rng(72))
        assert err.value.epoch == 1 and err.value.max_rho == np.inf
        with pytest.raises(WeightOverflowError):
            run_baseline(signal, obs, record, 10, np.random.default_rng(72))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_weight_above_cap_rejected(self):
        obs = linear_obs(0.1)
        dy = dy_for_rho(100.0 * MAX_RHO, 1.0, obs)
        record = ObservationRecord(increments=np.vstack([dy, dy]), epsilon=0.1)
        with pytest.raises(WeightOverflowError) as err:
            run_filter(point_signal(1.0, w=1e-12), obs, record, 3, np.random.default_rng(75))
        assert err.value.epoch == 1
        assert MAX_RHO < err.value.max_rho < np.inf
        assert "epoch 1" in str(err.value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rho=st.floats(min_value=-1.0, max_value=1e6, exclude_min=True),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_offspring_count_has_mean_one_plus_rho(rho, u):
    base, extra, kill = offspring_parameters(rho)
    counts, events = _offspring_counts(np.array([rho]), np.array([u]))
    # count = base + 1{U < extra} - 1{U < kill}, so E_U[count] = base + extra - kill
    assert counts[0] == base + (u < extra) - (u < kill)
    assert base + extra - kill == pytest.approx(1.0 + rho, rel=1e-12, abs=1e-12)
    # an event is a branch (rho >= 1 or U below the fractional part) or a death
    # (U below |rho|), i.e. exactly a count other than 1
    assert events[0] == (counts[0] != 1)
    assert events[0] == ((rho >= 1.0) or (u < abs(branch_residual(rho))))


class TestMultinomialBaseline:
    def test_single_particle_never_relocates(self):
        ens = init_ensemble(1, point_signal(0.7), np.random.default_rng(73))
        obs = linear_obs()
        out, moved = multinomial_baseline_step(
            ens, np.array([0.1]), obs, np.random.default_rng(74)
        )
        assert out.count == 1 and moved == 0
        assert out.positions[0, 0] == 0.7

    def test_uniform_weights_relocation_fraction(self):
        # equal weights: expected relocation fraction 1 - 1/count
        n = 400
        ens = init_ensemble(n, gaussian_signal(), np.random.default_rng(79))
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        reps = 200
        fracs = np.empty(reps)
        rng = np.random.default_rng(80)
        for r in range(reps):
            _, moved = multinomial_baseline_step(ens, np.array([0.0]), obs, rng)
            fracs[r] = moved / n
        target = 1.0 - 1.0 / n
        se = fracs.std(ddof=1) / np.sqrt(reps)
        assert abs(fracs.mean() - target) < 5.0 * max(se, 1e-6)

    def test_count_preserved_and_unbiased(self):
        rng = np.random.default_rng(83)
        ens = init_ensemble(50, gaussian_signal(), rng)
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.2)
        dy = np.array([0.3])
        w = 1.0 + weight(ens.positions, dy, obs)
        target = float((w / w.sum()) @ ens.positions[:, 0]) * ens.count / ens.count
        reps = 5000
        vals = np.empty(reps)
        for r in range(reps):
            out, _ = multinomial_baseline_step(ens, dy, obs, rng)
            assert out.count == ens.count
            vals[r] = out.positions[:, 0].mean()
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - target) < 5.0 * se

    def test_run_baseline_counts(self):
        record = ObservationRecord(
            increments=0.1 * np.ones((4, 1)), epsilon=0.1
        )
        steps = run_baseline(
            gaussian_signal(), linear_obs(), record, 100, np.random.default_rng(89)
        )
        assert [s.post.count for s in steps] == [100] * 4


class TestPopulationControl:
    def test_identity_inside_band(self):
        ens = init_ensemble(100, gaussian_signal(), np.random.default_rng(97))
        out, rows = population_control(ens, 100, (0.5, 2.0), np.random.default_rng(98))
        assert out is ens and rows is None

    def test_duplication_preserves_estimates_exactly(self):
        ens = init_ensemble(20, gaussian_signal(), np.random.default_rng(101))
        before = estimate(ens, lambda x: x[:, 0] ** 2)[0]
        out, rows = population_control(ens, 100, (0.5, 2.0), np.random.default_rng(102))
        assert out.count == 40
        assert np.array_equal(rows, np.repeat(np.arange(20), 2))
        assert out.mass_factor == 0.5
        assert estimate(out, lambda x: x[:, 0] ** 2)[0] == pytest.approx(
            before, rel=1e-15
        )

    def test_thinning_unbiased_mass(self):
        ens = init_ensemble(300, gaussian_signal(), np.random.default_rng(103))
        rng = np.random.default_rng(104)
        reps = 10_000
        masses = np.empty(reps)
        for r in range(reps):
            out, _ = population_control(ens, 100, (0.5, 2.0), rng)
            masses[r] = out.total_mass
        se = masses.std(ddof=1) / np.sqrt(reps)
        assert abs(masses.mean() - ens.total_mass) < 5.0 * se

    def test_run_filter_with_control_keeps_band(self):
        record = ObservationRecord(
            increments=0.3 * np.ones((12, 1)), epsilon=0.25
        )
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.25)
        run = run_filter(
            gaussian_signal(),
            obs,
            record,
            100,
            np.random.default_rng(107),
            control=PopulationControl(target=100, low_ratio=0.5, high_ratio=1.5),
        )
        for step in run.steps:
            # one control application halves or doubles at most once per epoch
            assert step.post.count <= 2 * int(1.5 * 100)
            assert step.post.total_mass > 0.0

    def test_parent_rows_survive_halving_and_doubling(self):
        obs = linear_obs(0.1)
        grow, shrink = dy_for_rho(2.0, 1.0, obs), dy_for_rho(-0.6, 1.0, obs)
        record = ObservationRecord(
            increments=np.vstack([grow] * 3 + [shrink] * 4), epsilon=0.1
        )
        run = run_filter(
            point_signal(1.0, w=1e-12),
            obs,
            record,
            100,
            np.random.default_rng(109),
            control=PopulationControl(target=100, low_ratio=0.5, high_ratio=2.0),
        )
        factors = [step.post.mass_factor / step.pre.mass_factor for step in run.steps]
        assert 2.0 in factors and 0.5 in factors
        for step in run.steps:
            assert_parent_rows(step)
