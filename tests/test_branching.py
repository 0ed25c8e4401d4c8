"""Branching particle system: mechanics, unbiasedness, baseline, control."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyfilter import (
    ClippedLinearSensor,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    Scenario,
    SignalModel,
    SpectralMeasure,
    PopulationGrowthError,
    WeightOverflowError,
    ZeroSensor,
    init_ensemble,
    offspring_parameters,
    population_control,
    run_baseline,
    run_filter,
    simulate_scenario,
    weight,
)
from levyfilter.branching import (
    MAX_GROWTH,
    MAX_RHO,
    EnsembleSize,
    ParticleEnsemble,
    _branch,
    _inverse_cdf,
    _multinomial_resample,
    _offspring_counts,
)
from levyfilter.experiments import ensemble_transform


class LiveSteps(list):
    """A reducer that keeps every epoch as the run saw it, parent rows included."""

    def __call__(self, k, pre, rho, parents, post):
        self.append(SimpleNamespace(epoch=k, pre=pre, rho=rho, post=post, parents=parents))


class FixedUniform:
    """A real Generator whose ``random``, the branching draw, hands out preset uniforms."""

    def __init__(self, values, seed=0):
        self.values = np.atleast_1d(np.asarray(values, dtype=float))
        self.rng = np.random.default_rng(seed)

    def random(self, size=None):
        assert size == self.values.size
        return self.values.copy()

    def __getattr__(self, name):
        return getattr(self.rng, name)


class RecordingRng:
    """A real Generator that also keeps every ``uniform`` and ``random`` draw, in call order,
    and the generator's state before each ``random`` draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.uniforms = []
        self.states = []

    def uniform(self, *args, **kwargs):
        out = self.rng.uniform(*args, **kwargs)
        self.uniforms.append(out)
        return out

    def random(self, *args, **kwargs):
        self.states.append(self.rng.bit_generator.state)
        out = self.rng.random(*args, **kwargs)
        self.uniforms.append(out)
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def assert_gathered(step):
    """post is pre gathered at parents, bit for bit."""
    assert step.parents.shape == (step.post.count,)
    assert np.array_equal(step.post.positions, step.pre.positions[step.parents])


def assert_parent_rows(step):
    """post is pre gathered at parents, with each parent's offspring contiguous."""
    assert_gathered(step)
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
    h = float(obs.sensor(np.atleast_1d(x))[0, 0])
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
    """The loop's evolution step, seen through runs whose zero sensor never branches."""

    def evolve(self, signal, n, eps, epochs, rng):
        increments = np.zeros((epochs, 1))
        obs = ObservationModel(ZeroSensor(1, 1), eps)
        return run_filter(Scenario(signal, obs, increments), n, rng).final

    def test_counts_and_mass_factor(self):
        # population control halves and doubles around the moves: each epoch's evolved
        # ensemble keeps the count and mass factor of the one that entered the interval
        increments = np.full((6, 1), 0.4)
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.25)
        steps = LiveSteps()
        run = run_filter(
            Scenario(gaussian_signal(), obs, increments), 100, np.random.default_rng(5),
            control=(0.9, 1.1), reduce=steps,
        )
        entering = [run.initial] + [step.post for step in steps[:-1]]
        assert {step.post.mass_factor for step in steps} != {1.0}
        for before, step in zip(entering, steps):
            assert step.pre.count == before.count
            assert step.pre.mass_factor == before.mass_factor
            assert not np.array_equal(step.pre.positions, before.positions)

    def test_single_step_matches_two_half_steps_in_law(self):
        rng = np.random.default_rng(7)
        signal = point_signal(0.0, alpha=1.5, w=1.0)
        n = 100_000
        whole = self.evolve(signal, n, 0.5, 1, rng)
        half = self.evolve(signal, n, 0.25, 2, rng)
        for theta in (0.5, 1.0, 2.0):
            a = np.exp(-1j * theta * whole.positions[:, 0]).mean()
            b = np.exp(-1j * theta * half.positions[:, 0]).mean()
            assert abs(a - b) < 5.0 * np.sqrt(2.0 / n)

    def test_alpha_two_displacement_variance(self):
        rng = np.random.default_rng(11)
        signal = point_signal(0.0, alpha=2.0, w=0.5)
        n = 100_000
        out = self.evolve(signal, n, 1.0, 1, rng)
        # variance of one displacement over dt=1 is 2 * weight
        assert abs(out.positions[:, 0].var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


class TestBranchStep:
    """One branching epoch, driven through ``run_filter`` or the rule ``_offspring_counts``."""

    def branch_once(self, rho, u):
        """One epoch of ``run_filter`` on one near-static particle whose weight is rho."""
        obs = linear_obs()
        increments = np.atleast_2d(dy_for_rho(rho, 1.0, obs))
        steps = LiveSteps()
        scenario = Scenario(point_signal(1.0, w=1e-12), obs, increments)
        run_filter(scenario, 1, FixedUniform([u]), reduce=steps)
        return steps[0]

    def test_zero_weights_relabel_only(self):
        increments = np.array([[0.3]])
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        steps = LiveSteps()
        scenario = Scenario(gaussian_signal(), obs, increments)
        run_filter(scenario, 50, np.random.default_rng(13), reduce=steps)
        step = steps[0]
        assert step.post.count == step.pre.count
        assert np.array_equal(step.post.positions, step.pre.positions)
        assert np.array_equal(step.parents, np.arange(50))

    def test_branch_with_fraction(self):
        step = self.branch_once(2.3, 0.25)
        assert step.post.count == 4  # 3 certain copies plus the extra (0.25 < 0.3)
        assert np.all(step.post.positions == step.pre.positions[0])
        assert self.branch_once(2.3, 0.35).post.count == 3  # half-open rule: 0.35 >= 0.3 adds nothing

    def test_kill_is_half_open(self):
        dead = self.branch_once(-0.4, 0.25)
        assert dead.post.count == 0
        assert self.branch_once(-0.4, 0.45).post.count == 1
        counts = _offspring_counts(np.array([-0.4, -0.4]), np.array([0.4, 0.3999]))
        assert counts.tolist() == [1, 0]

    def test_counts_are_int32_and_exact_at_the_cap(self):
        rho = np.array([MAX_RHO, MAX_RHO, MAX_RHO - 0.5, MAX_RHO - 0.5, -0.5, 0.0])
        counts = _offspring_counts(rho, np.array([0.0, 0.999, 0.25, 0.75, 0.5, 0.999]))
        assert counts.dtype == np.int32
        assert counts.tolist() == [2**20 + 1, 2**20 + 1, 2**20 + 1, 2**20, 1, 1]

    def test_offspring_rows_follow_counts(self):
        ens = init_ensemble(6, gaussian_signal(), np.random.default_rng(3))
        rho = np.array([-0.5, 2.0, 0.0, -0.5, 1.0, 0.0])
        u = np.array([0.25, 0.5, 0.5, 0.25, 0.5, 0.5])
        counts = _offspring_counts(rho, u)
        assert counts.tolist() == [0, 3, 1, 0, 2, 1]
        parents, events = _branch(rho, u)
        assert np.array_equal(parents, [1, 1, 1, 2, 4, 4, 5]) and events == 4
        assert np.array_equal(np.bincount(parents, minlength=ens.count), counts)
        post = ens.take(parents)
        assert np.array_equal(post.positions, np.repeat(ens.positions, counts, axis=0))
        assert np.array_equal(post.eve, np.repeat(ens.eve, counts))
        none, events = _branch(np.full(6, -1.0), u)
        assert none.size == 0 and events == 6
        empty = ens.take(none)
        assert empty.count == 0 and empty.positions.shape == (0, 1)

    def test_positions_preserved(self):
        increments = np.array([[0.8]])
        steps = LiveSteps()
        scenario = Scenario(gaussian_signal(), linear_obs(0.5), increments)
        run_filter(scenario, 200, np.random.default_rng(23), reduce=steps)
        step = steps[0]
        assert_parent_rows(step)
        parents = {float(x) for x in step.pre.positions[:, 0]}
        assert {float(x) for x in step.post.positions[:, 0]} <= parents

    def test_one_step_unbiasedness(self):
        # fixed pre-branch ensemble and dy: E_U <mu_post, phi> = <mu_pre, (1+rho) phi>
        rng = np.random.default_rng(29)
        ens = init_ensemble(100, gaussian_signal(), rng)
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.1)
        rho = weight(ens.positions, np.array([0.4]), obs)
        theta = 0.7
        for phi in (lambda x: np.ones(x.shape[0]), lambda x: np.exp(-1j * theta * x[:, 0])):
            values = phi(ens.positions)
            target = np.sum((1.0 + rho) * values) / ens.count
            reps = 3000
            vals = np.empty(reps, dtype=complex)
            for r in range(reps):
                counts = _offspring_counts(rho, rng.random(ens.count))
                vals[r] = np.sum(counts * values) / ens.count  # <mu_post, phi>
            se = vals.std(ddof=1) / np.sqrt(reps)
            assert abs(vals.mean() - target) < 5.0 * max(se, 1e-12)


class TestEstimates:
    def test_fourier_trivialities(self):
        ens = init_ensemble(1, point_signal(0.0), np.random.default_rng(43))
        vals = ensemble_transform(ens, np.array([0.0, 0.5, 2.0]))
        assert np.allclose(vals, 1.0)
        ens.positions = np.empty((0, 1))
        assert np.array_equal(
            ensemble_transform(ens, np.array([0.0, 1.0])), np.zeros(2, dtype=complex)
        )

    def test_fourier_at_zero_is_mass(self):
        ens = init_ensemble(64, gaussian_signal(), np.random.default_rng(47))
        vals = ensemble_transform(ens, np.array([0.0]))
        assert vals[0] == pytest.approx(ens.total_mass)

    @pytest.mark.parametrize("total", [0.7, 0.7 - 0.3j, np.array([0.7, -0.3, 1e-300])])
    def test_estimate_is_mass_factor_times_total_over_n(self, total):
        # bit for bit, in this evaluation order: every caller's <mu, f> goes through it
        size = EnsembleSize(count=5, initial_count=3, mass_factor=0.1)
        expected = 0.1 * total / 3
        assert np.array_equal(size.estimate(total), expected)
        ens = ParticleEnsemble(np.zeros(5), initial_count=3, mass_factor=0.1)
        assert np.array_equal(ens.estimate(total), expected)
        assert size.total_mass == ens.total_mass == 0.1 * 5 / 3

    @pytest.mark.parametrize("width", [1, 2])
    def test_take_gathers_every_per_row_column(self, width):
        x = np.arange(5.0 * width).reshape(5, width)
        eve, last = np.array([4, 3, 2, 1, 0], dtype=np.int32), np.arange(5, dtype=np.int32)
        ens = ParticleEnsemble(x, initial_count=3, mass_factor=0.25, eve=eve, last=last)
        rows = np.array([3, 3, 0, 4])
        out = ens.take(rows, 0.5)
        assert np.array_equal(out.positions, x[rows]) and out.positions.shape == (4, width)
        assert np.array_equal(out.eve, eve[rows]) and np.array_equal(out.last, last[rows])
        assert out.mass_factor == 0.125 and out.initial_count == 3
        assert ens.take(rows).mass_factor == 0.25  # the factor defaults to 1
        ens.last = None  # every row current: no lags to gather
        assert ens.take(rows).last is None


class TestRunFilter:
    def make_increments(self, h_zero=False, K=5, eps=0.1, seed=49):
        rng = np.random.default_rng(seed)
        if h_zero:
            increments = np.sqrt(eps) * rng.standard_normal((K, 1))
        else:
            increments = eps * 0.5 + np.sqrt(eps) * rng.standard_normal((K, 1))
        return increments

    def test_record_and_model_must_share_observation_width(self):
        increments = np.zeros((5, 2))
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.1)
        with pytest.raises(ValueError, match=r"width 2 but the sensor gives 1-d"):
            Scenario(gaussian_signal(), obs, increments)

    def test_empty_record(self):
        increments = np.empty((0, 1))
        scenario = Scenario(gaussian_signal(), linear_obs(), increments)
        run = run_filter(scenario, 50, np.random.default_rng(53))
        assert run.steps == [] and not run.extinct
        assert run.final.count == 50

    def test_zero_sensor_keeps_mass_one(self):
        increments = self.make_increments(h_zero=True, K=8)
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        scenario = Scenario(gaussian_signal(), obs, increments)
        run = run_filter(scenario, 40, np.random.default_rng(59))
        for step in run.steps:
            assert step.post.total_mass == 1.0
            assert step.branch_events == 0

    def test_extinction_reported(self):
        # one particle, strongly negative weights: extinction almost surely
        eps = 0.9
        obs = linear_obs(eps)
        increments = np.full((30, 1), -5.0)
        run = run_filter(Scenario(point_signal(1.0), obs, increments), 1, np.random.default_rng(61))
        assert run.extinct
        assert run.steps[-1].post.count == 0
        assert run.extinct_epoch == run.steps[-1].epoch

    @pytest.mark.parametrize("runner", [run_filter, run_baseline])
    def test_a_run_keeps_its_end_ensembles_and_o_k_bytes(self, runner):
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.0125)
        increments = self.make_increments(K=160, eps=0.0125)
        scenario = Scenario(gaussian_signal(), obs, increments)
        runner(scenario, 50, np.random.default_rng(78))  # first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = runner(scenario, 2000, np.random.default_rng(79))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a filter run keeps its initial and final ensembles, a baseline run its records
        kept = 0
        if runner is run_filter:
            kept = result.initial.positions.nbytes + result.final.positions.nbytes
        # one record per epoch costs a few hundred bytes; one epoch's arrays cost 48 kB
        assert retained < kept + 1000 * len(increments), (retained, kept)

    def test_determinism_bit_identical(self):
        increments = self.make_increments(K=6)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(67)
            runs.append(LiveSteps())
            scenario = Scenario(gaussian_signal(), linear_obs(), increments)
            run_filter(scenario, 300, rng, reduce=runs[-1])
        a, b = runs
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.post.positions, sb.post.positions)
            assert sa.parents.dtype == sb.parents.dtype
            assert np.array_equal(sa.parents, sb.parents)

    def test_parent_rows_match_offspring_counts(self):
        increments = self.make_increments(K=10)
        obs = linear_obs()
        rng = RecordingRng(71)  # alpha = 2: the branching rule is the only uniform draw
        steps = LiveSteps()
        run_filter(Scenario(gaussian_signal(), obs, increments), 500, rng, reduce=steps)
        assert len(rng.uniforms) == len(steps) == 10
        for step, u in zip(steps, rng.uniforms):
            assert_parent_rows(step)
            rho = weight(step.pre.positions, increments[step.epoch - 1], obs)
            counts = _offspring_counts(rho, u)
            assert np.array_equal(np.bincount(step.parents, minlength=step.pre.count), counts)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_overflow_is_an_error_not_extinction(self):
        # the linear sensor clips at 20, so rho = exp(100 * 20 - ...) - 1 = inf
        obs = linear_obs(0.5, clip=20.0)
        increments = np.full((3, 1), 100.0)
        signal = point_signal(25.0, w=1e-12)
        scenario = Scenario(signal, obs, increments)
        with pytest.raises(WeightOverflowError) as err:
            run_filter(scenario, 10, np.random.default_rng(72))
        assert err.value.epoch == 1 and err.value.max_rho == np.inf
        with pytest.raises(WeightOverflowError):
            run_baseline(scenario, 10, np.random.default_rng(72))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_weight_above_cap_rejected(self):
        obs = linear_obs(0.1)
        dy = dy_for_rho(100.0 * MAX_RHO, 1.0, obs)
        increments = np.vstack([dy, dy])
        scenario = Scenario(point_signal(1.0, w=1e-12), obs, increments)
        with pytest.raises(WeightOverflowError) as err:
            run_filter(scenario, 3, np.random.default_rng(75))
        assert err.value.epoch == 1
        assert MAX_RHO < err.value.max_rho < np.inf
        assert "epoch 1" in str(err.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_weight_is_an_overflow_error(self):
        # a NaN initial scale puts every particle at NaN, so every weight is NaN
        obs = linear_obs(0.1)
        simulated = simulate_scenario(gaussian_signal(), obs, 0.5, np.random.default_rng(78))
        signal = SignalModel(
            2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [np.nan])
        )
        scenario = Scenario(signal, obs, simulated.increments)
        with pytest.raises(WeightOverflowError) as err:
            run_filter(scenario, 10, np.random.default_rng(79))
        assert err.value.epoch == 1 and np.isnan(err.value.max_rho)
        with pytest.raises(WeightOverflowError) as err:
            run_baseline(scenario, 10, np.random.default_rng(79))
        assert err.value.epoch == 1 and np.isnan(err.value.max_rho)

    def test_population_growth_is_capped(self):
        # one near-static particle with rho = 2.5 leaves 3 or 4 copies at every
        # epoch, and 3^7 > 1024: the cap of MAX_GROWTH * 1 trips within 7 epochs
        obs = linear_obs(0.1)
        increments = np.vstack([dy_for_rho(2.5, 1.0, obs)] * 10)
        scenario = Scenario(point_signal(1.0, w=1e-12), obs, increments)
        with pytest.raises(PopulationGrowthError) as err:
            run_filter(scenario, 1, np.random.default_rng(77))
        assert 5 <= err.value.epoch <= 7
        assert err.value.cap == MAX_GROWTH < err.value.count <= 4 * MAX_GROWTH
        assert f"epoch {err.value.epoch}" in str(err.value)
        assert f"cap {MAX_GROWTH}" in str(err.value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rho=st.floats(min_value=-1.0, max_value=1e6, exclude_min=True),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_offspring_count_has_mean_one_plus_rho(rho, u):
    base, extra, kill = offspring_parameters(rho)
    counts = _offspring_counts(np.array([rho]), np.array([u]))
    # count = base + 1{U < extra} - 1{U < kill}, so E_U[count] = base + extra - kill
    assert counts[0] == base + (u < extra) - (u < kill)
    assert base + extra - kill == pytest.approx(1.0 + rho, rel=1e-12, abs=1e-12)
    # a branch event (rho >= 1 or U below the fractional part) or a death
    # (U below |rho|) is exactly a count other than 1
    assert (counts[0] != 1) == ((rho >= 1.0) or (u < extra + kill))


BELOW_ONE = float(np.nextafter(1.0, 0.0))
SUBNORMAL = 5e-324


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rho=st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example(rho=0.0, u=0.0)
@example(rho=-0.0, u=0.0)
@example(rho=BELOW_ONE, u=BELOW_ONE)
@example(rho=-BELOW_ONE, u=BELOW_ONE)
@example(rho=SUBNORMAL, u=0.0)
@example(rho=-SUBNORMAL, u=0.0)
@example(rho=SUBNORMAL, u=BELOW_ONE)
@example(rho=0.375, u=0.125)
@example(rho=-0.375, u=0.125)
def test_sign_rule_is_the_offspring_rule_below_one(rho, u):
    # a thinned epoch's rule for |rho| < 1: split iff U < rho, die iff U < -rho; each draw is
    # also tried at U = |rho|, where both comparisons must stay strict
    for draw in (u, abs(rho)):
        counts = _offspring_counts(np.array([rho]), np.array([draw]))
        assert counts[0] == 1 + (draw < rho) - (draw < -rho), draw


class TestMultinomialBaseline:
    def test_single_particle_never_relocates(self):
        ens = init_ensemble(1, point_signal(0.7), np.random.default_rng(73))
        rho = weight(ens.positions, np.array([0.1]), linear_obs())
        parents, moved = _multinomial_resample(rho, np.random.default_rng(74).random(1))
        out = ens.take(parents)
        assert out.count == 1 and moved == 0
        assert out.positions[0, 0] == 0.7

    def test_uniform_weights_relocation_fraction(self):
        # equal weights: expected relocation fraction 1 - 1/count
        n = 400
        ens = init_ensemble(n, gaussian_signal(), np.random.default_rng(79))
        reps = 200
        fracs = np.empty(reps)
        rng = np.random.default_rng(80)
        for r in range(reps):
            _, moved = _multinomial_resample(np.zeros(n), rng.random(n))
            fracs[r] = moved / n
        target = 1.0 - 1.0 / n
        se = fracs.std(ddof=1) / np.sqrt(reps)
        assert abs(fracs.mean() - target) < 5.0 * max(se, 1e-6)

    def test_count_preserved_and_unbiased(self):
        rng = np.random.default_rng(83)
        ens = init_ensemble(50, gaussian_signal(), rng)
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.2)
        rho = weight(ens.positions, np.array([0.3]), obs)
        w = 1.0 + rho
        target = float((w / w.sum()) @ ens.positions[:, 0])
        reps = 5000
        vals = np.empty(reps)
        for r in range(reps):
            parents, _ = _multinomial_resample(rho, rng.random(ens.count))
            out = ens.take(parents)
            assert out.count == ens.count
            vals[r] = out.positions[:, 0].mean()
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - target) < 5.0 * se

    def test_run_baseline_counts(self):
        increments = 0.1 * np.ones((4, 1))
        steps = run_baseline(
            Scenario(gaussian_signal(), linear_obs(), increments), 100, np.random.default_rng(89)
        )
        assert [s.post.count for s in steps] == [100] * 4

    def test_run_baseline_parents_are_generator_choice(self):
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.1)
        scenario = simulate_scenario(gaussian_signal(), obs, 0.5, np.random.default_rng(117))
        rng, steps = RecordingRng(119), LiveSteps()  # alpha = 2: resampling alone calls random
        run_baseline(scenario, 300, rng, reduce=steps)
        assert len(rng.states) == len(steps) == scenario.count
        for step, state in zip(steps, rng.states):
            assert_gathered(step)
            w = 1.0 + step.rho
            choice = np.random.default_rng(0)
            choice.bit_generator.state = state
            assert np.array_equal(step.parents, choice.choice(300, size=300, p=w / w.sum()))

    @pytest.mark.parametrize(
        "rho",
        [[-1.0, -1.0, -1.0], [0.0, np.nan, 0.0], [0.0, np.inf, 0.0], [0.0, -1.5, 0.5]],
        ids=["zero-total", "nan", "inf", "negative"],
    )
    def test_rejects_the_weights_choice_rejects(self, rho):
        with pytest.raises(ValueError, match="multinomial weights must be finite"):
            _multinomial_resample(np.array(rho), np.random.default_rng(0).random(3))


def spiky_rho(count, sigma, zero_share, seed):
    """Log-normal weights 1 + rho, a share of them exactly 0 (rho = -1), one kept positive."""
    rng = np.random.default_rng(seed)
    rho = np.expm1(sigma * rng.standard_normal(count))
    rho[rng.random(count) < zero_share] = -1.0
    rho[rng.integers(count)] = 0.0
    return rho


WEIGHT_CASES = dict(
    count=st.integers(min_value=1, max_value=70_000),
    sigma=st.sampled_from([0.05, 3.0]),
    zero_share=st.sampled_from([0.0, 0.3, 0.999]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**WEIGHT_CASES)
def test_inverse_cdf_is_searchsorted_right(count, sigma, zero_share, seed):
    w = 1.0 + spiky_rho(count, sigma, zero_share, seed)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed + 1)
    # the extreme uniforms, keys equal to cdf values (ties go right), then random keys
    u = np.concatenate(
        [[0.0, np.nextafter(1.0, 0.0)], cdf[cdf < 1.0][:50], rng.random(count)]
    )
    assert np.array_equal(_inverse_cdf(cdf, u), cdf.searchsorted(u, side="right"))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**WEIGHT_CASES)
def test_multinomial_resample_is_generator_choice(count, sigma, zero_share, seed):
    rho = spiky_rho(count, sigma, zero_share, seed)
    parents, moved = _multinomial_resample(rho, np.random.default_rng(seed).random(count))
    w = 1.0 + rho
    chosen = np.random.default_rng(seed).choice(count, size=count, p=w / w.sum())
    assert parents.dtype == chosen.dtype
    assert np.array_equal(parents, chosen)
    assert moved == np.count_nonzero(chosen != np.arange(count))


class TestPopulationControl:
    def test_identity_inside_band(self):
        for count in (100, 0):  # an empty population is left alone too
            rng = np.random.default_rng(98)
            state = rng.bit_generator.state
            assert population_control(count, 100, (0.5, 2.0), rng) is None
            assert rng.bit_generator.state == state  # nothing drawn

    def test_duplication_preserves_estimates_exactly(self):
        ens = init_ensemble(20, gaussian_signal(), np.random.default_rng(101))
        before = ens.mass_factor * np.sum(ens.positions[:, 0] ** 2) / ens.initial_count
        rows, factor = population_control(ens.count, 100, (0.5, 2.0), np.random.default_rng(102))
        assert rows.size == 40
        assert np.array_equal(rows, np.repeat(np.arange(20), 2))
        assert factor == 0.5
        after = ens.mass_factor * factor * np.sum(ens.positions[rows, 0] ** 2) / ens.initial_count
        assert after == pytest.approx(before, rel=1e-15)

    def test_thinning_unbiased_mass(self):
        ens = init_ensemble(300, gaussian_signal(), np.random.default_rng(103))
        rng = np.random.default_rng(104)
        reps = 10_000
        masses = np.empty(reps)
        for r in range(reps):
            rows, factor = population_control(ens.count, 100, (0.5, 2.0), rng)
            masses[r] = ens.estimate(factor * rows.size)  # the kept rows' total mass
        se = masses.std(ddof=1) / np.sqrt(reps)
        assert abs(masses.mean() - ens.total_mass) < 5.0 * se

    def test_run_filter_with_control_keeps_band(self):
        increments = 0.3 * np.ones((12, 1))
        obs = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.25)
        run = run_filter(
            Scenario(gaussian_signal(), obs, increments),
            100,
            np.random.default_rng(107),
            control=(0.5, 1.5),
        )
        for step in run.steps:
            # one control application halves or doubles at most once per epoch
            assert step.post.count <= 2 * int(1.5 * 100)
            assert step.post.total_mass > 0.0

    def test_parent_rows_survive_halving_and_doubling(self):
        obs = linear_obs(0.1)
        grow, shrink = dy_for_rho(2.0, 1.0, obs), dy_for_rho(-0.6, 1.0, obs)
        increments = np.vstack([grow] * 3 + [shrink] * 4)
        steps = LiveSteps()
        run = run_filter(
            Scenario(point_signal(1.0, w=1e-12), obs, increments),
            100,
            np.random.default_rng(109),
            control=(0.5, 2.0),
            reduce=steps,
        )
        factors = [step.post.mass_factor / step.pre.mass_factor for step in run.steps]
        assert 2.0 in factors and 0.5 in factors
        for step in steps:
            assert_parent_rows(step)

    def test_halving_returns_an_index(self):
        rows, factor = population_control(300, 100, (0.5, 2.0), np.random.default_rng(106))
        assert rows.dtype.kind == "i" and np.all(np.diff(rows) > 0)
        keep = np.random.default_rng(106).random(300) < 0.5
        assert np.array_equal(rows, keep.nonzero()[0])
        assert factor == 2.0

    def test_run_filter_rejects_band_outside_one(self):
        increments = np.zeros((2, 1))
        with pytest.raises(ValueError, match=r"bounds \(1\.5, 2\) must satisfy"):
            run_filter(
                Scenario(gaussian_signal(), linear_obs(0.1), increments),
                50,
                np.random.default_rng(113),
                control=(1.5, 2.0),
            )
