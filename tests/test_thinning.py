"""Lazy evolution by exact thinning: a run without a reducer reads only its sizes and its
final ensemble, so at every other epoch it moves and weighs only the candidates, the rows
whose branching uniform falls below the epoch's weight bound, and keeps the law of the
particle system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter import (
    ClippedLinearSensor,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    Scenario,
    SignalModel,
    SpectralMeasure,
    ZeroSensor,
    run_filter,
    simulate_scenario,
    weight,
)
from levyfilter import branching, checks, observation
from levyfilter.branching import ParticleEnsemble, WeightOverflowError, _refill
from levyfilter.cli import main as cli_main
from levyfilter.experiments import ensemble_transform
from levyfilter.harness import (
    build_metric,
    build_observation,
    build_oracle,
    build_signal,
    default_config_text,
    parse_config,
)
from levyfilter.metrics import filter_error
from levyfilter.observation import weight_bounds
from levyfilter.seeding import substream
from levyfilter.stable import lag_scales, sample_increment

CONFIG = parse_config(default_config_text())
SIGNAL = build_signal(CONFIG)


def default_scenario(epsilon=None):
    obs = build_observation(CONFIG)
    if epsilon is not None:
        obs = ObservationModel(obs.sensor, epsilon)
    return simulate_scenario(SIGNAL, obs, CONFIG.horizon, substream(CONFIG.seed, "sweep-record"))


def noop(*epoch):
    """A reducer that reads nothing: it makes a run eager at every epoch."""


class StillRng:
    """A Generator for alpha = 2 runs whose normal draws are zero, so particles stand still,
    and whose ``random`` calls hand out the given uniforms, one value per call."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def standard_normal(self, size=None):
        return np.zeros(size)

    def random(self, size=None):
        return np.full(size, self.uniforms.pop(0))


class StillPaths:
    """A real Generator whose normal draws are zero, so alpha = 2 particles stand still, while
    the initial, branching and control uniforms are real."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_normal(self, size=None):
        return np.zeros(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def eve_statistics(run):
    """The share of the n eves with a survivor, and the sum of squared cluster sizes over n."""
    sizes = np.bincount(run.final.eve, minlength=run.initial.count)
    return np.count_nonzero(sizes) / sizes.size, (sizes * sizes).sum() / sizes.size


class TestWeightBounds:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sensor=st.sampled_from(["bump", "bump2", "linear", "linear2"]),
        scale=st.sampled_from([0.01, 0.3, 3.0]),
        eps=st.sampled_from([0.0125, 0.1, 0.5]),
        seed=st.integers(0, 2**31),
    )
    def test_bound_covers_every_weight(self, sensor, scale, eps, seed):
        rng = np.random.default_rng(seed)
        sensors = {
            "bump": GaussianBumpSensor([1.3], [[0.5]], [0.7]),
            "bump2": GaussianBumpSensor([1.3, -0.8], [[0.5], [-1.0]], [0.7, 0.4]),
            "linear": ClippedLinearSensor([[0.9]], clip=1.5),
            "linear2": ClippedLinearSensor([[0.9], [-0.4]], clip=0.7),
        }
        obs = ObservationModel(sensors[sensor], eps)
        increments = scale * rng.standard_normal((6, obs.observation_dim))
        bounds = weight_bounds(obs, increments)
        assert bounds.shape == (6,) and np.all((0.0 <= bounds) & (bounds <= 1.0))
        # a dense line of sites reaches every output value of a one-output sensor, where
        # the bound is tight up to its margin and the grid
        x = np.linspace(-8.0, 8.0, 20001)
        for k in range(len(increments)):
            top = np.abs(weight(x, increments[k], obs)).max()
            if bounds[k] < 1.0:
                assert top <= bounds[k]
                assert obs.observation_dim > 1 or top > 0.99 * bounds[k]

    def test_zero_sensor_bound_is_zero(self):
        obs = ObservationModel(ZeroSensor(2, 1), 0.1)
        increments = np.random.default_rng(1).standard_normal((5, 2))
        assert np.array_equal(weight_bounds(obs, increments), np.zeros(5))

    def test_clipped_linear_box_is_the_clip(self):
        low, high = ClippedLinearSensor([[1.0], [2.0]], clip=3.0).output_box
        assert low.tolist() == [-3.0, -3.0] and high.tolist() == [3.0, 3.0]


class TestLinearSensor:
    @pytest.mark.parametrize("outputs", [1, 2])
    def test_one_input_is_bit_equal_to_the_matmul(self, outputs):
        sensor = ClippedLinearSensor(np.array([[0.9], [-1.7]])[:outputs], clip=5.0)
        x = np.random.default_rng(3).standard_normal((16000, 1)) * np.exp(
            np.random.default_rng(4).normal(0.0, 5.0, (16000, 1))
        )
        assert np.array_equal(sensor.linear(x), x @ sensor.matrix.T)


class TestLagScales:
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
    def test_a_lag_of_m_is_one_draw_over_m_intervals(self, alpha):
        signal = SignalModel(
            alpha, SpectralMeasure([[1.0], [-1.0], [1.0]], [0.5, 0.3, 0.2]), InitialLaw.point([0.0])
        )
        table = lag_scales(signal, 0.1, 7)
        lags = np.array([1, 3, 7, 3, 1])
        lagged = sample_increment(signal, 0.1, np.random.default_rng(9), 5, lags, table)
        rng = np.random.default_rng(9)
        # the same stream row by row: five single draws over m * dt
        direct = sample_increment(signal, 0.1, rng, 5)
        assert np.array_equal(lagged[lags == 1], direct[lags == 1])
        for m in (3, 7):
            again = sample_increment(signal, m * 0.1, np.random.default_rng(9), 5)
            assert np.allclose(lagged[lags == m], again[lags == m], rtol=1e-12, atol=0.0)

    def test_zero_lag_row_is_zero(self):
        scales, drift = lag_scales(SIGNAL, 0.1, 3)
        assert scales.shape == (4, 1) and scales[0, 0] == 0.0 and drift is None


class TestRefill:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        count=st.integers(1, 40),
        width=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**31),
        share=st.sampled_from([0.1, 0.5, 1.0]),
        thinned=st.booleans(),
    )
    def test_population_is_the_repeat_up_to_order(self, count, width, seed, share, thinned):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((count, width))
        last = rng.integers(0, 9, count).astype(np.int32)
        eve = rng.permutation(count).astype(np.int32)
        rows = np.flatnonzero(rng.random(count) < share)
        counts = rng.integers(0, 3 if thinned else 4, rows.size).astype(np.int32)
        full = np.ones(count, dtype=np.int64)
        full[rows] = counts
        repeat = np.repeat(x, full, axis=0), np.repeat(last, full), np.repeat(eve, full)
        expected = sorted(zip(map(tuple, repeat[0]), *repeat[1:]))
        if thinned:  # a thinned epoch's call: the dead rows are the holes, each split a source
            slots, sources = rows[counts == 0], rows[counts == 2]
        else:
            slots = rows[counts != 1]
            sources = slots.repeat(counts[counts != 1])
        ens = ParticleEnsemble(x.copy(), count, 0.5, eve.copy(), last.copy())
        out = _refill(ens, slots, sources)
        assert out.positions.shape == (full.sum(), width)
        assert out.last.shape == out.eve.shape == (full.sum(),)
        assert (out.initial_count, out.mass_factor) == (count, 0.5)
        assert sorted(zip(map(tuple, out.positions), out.last, out.eve)) == expected


class TestThinnedRuns:
    def test_a_run_thins_iff_it_has_no_reducer(self):
        scenario = default_scenario()
        assert scenario.obs.epsilon == 0.1
        bare = run_filter(scenario, 1000, np.random.default_rng(4))
        read = run_filter(scenario, 1000, np.random.default_rng(4), reduce=noop)
        assert sum(s.moved for s in bare.steps) < sum(s.pre.count for s in bare.steps)
        assert sum(s.moved for s in read.steps) == sum(s.pre.count for s in read.steps)

    def test_population_epochs_are_counted_whole(self):
        run = run_filter(default_scenario(), 1000, np.random.default_rng(6))
        for step, nxt in zip(run.steps, run.steps[1:]):
            assert nxt.pre == step.post
        assert run.steps[-1].moved == run.steps[-1].weighed == run.steps[-1].pre.count
        assert sum(s.moved for s in run.steps[:-1]) < 0.5 * sum(s.pre.count for s in run.steps)

    def test_law_of_final_read_runs_matches_every_epoch_runs(self):
        # n = 2000 on the default record: mean final mass, mean squared error at the final
        # epoch and the two eve statistics agree within 3 standard errors of the
        # difference, over 400 runs each
        scenario = default_scenario()
        metric, oracle = build_metric(CONFIG), build_oracle(CONFIG)
        target = oracle.summaries(scenario, metric)[scenario.count].transform
        out = {}
        for mode, reduce in (("every", noop), ("final", None)):
            mass, err2, eves = [], [], []
            for rep in range(400):
                run = run_filter(scenario, 2000, substream(11, "law", mode, rep), reduce=reduce)
                mass.append(run.final.total_mass)
                err = filter_error(ensemble_transform(run.final, metric), target, metric)
                err2.append(err * err)
                eves.append(eve_statistics(run))
            out[mode] = (np.array(mass), np.array(err2), *np.array(eves).T)
        for i in range(4):
            a, b = out["every"][i], out["final"][i]
            se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert abs(a.mean() - b.mean()) < 3.0 * se, (i, a.mean(), b.mean(), se)

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_law_in_two_dimensions_under_population_control(self, alpha):
        # two atoms, a two-output sensor and a control band that halves and doubles with
        # stale rows: mean mass, the transform at two frequencies (a bounded stand-in for
        # the heavy-tailed positions) and the two eve statistics agree within 3 standard
        # errors over 300 runs each
        signal = SignalModel(
            alpha,
            SpectralMeasure([[1.0, 0.0], [0.6, 0.8]], [0.5, 0.3]),
            InitialLaw.gaussian([0.0, 0.0], [1.0, 1.0]),
        )
        sensor = GaussianBumpSensor([1.0, -0.7], [[0.0, 0.0], [1.0, -0.5]], [1.0, 0.8])
        obs = ObservationModel(sensor, 0.05)
        scenario = simulate_scenario(signal, obs, 1.0, np.random.default_rng(5))
        theta = np.array([[0.7, 0.0], [0.0, 0.7]])
        out = {}
        for mode, reduce in (("every", noop), ("final", None)):
            stats = []
            for rep in range(300):
                run = run_filter(
                    scenario, 400, substream(3, "law2d", alpha, mode, rep),
                    control=(0.8, 1.25), reduce=reduce,
                )
                transform = ensemble_transform(run.final, theta)
                stats.append(
                    [run.final.total_mass, *transform.real, *transform.imag, *eve_statistics(run)]
                )
            out[mode] = np.array(stats)
        a, b = out["every"], out["final"]
        se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
        gap = np.abs(a.mean(axis=0) - b.mean(axis=0))
        assert np.all(gap < 3.0 * se), (gap, se)

    def test_zero_sensor_moves_each_particle_once(self, monkeypatch):
        # p = 0 at every epoch but the read one: each particle draws one increment over
        # the whole horizon, and its final variance is 1 + 2 w T = 3
        obs = ObservationModel(ZeroSensor(1, 1), 0.1)
        increments = np.random.default_rng(7).standard_normal((20, 1)) * 0.3
        drawn = []

        def counting(*args, **kwargs):
            out = sample_increment(*args, **kwargs)
            drawn.append(out.shape[0])
            return out

        monkeypatch.setattr(branching, "sample_increment", counting)
        n = 20000
        run = run_filter(Scenario(SIGNAL, obs, increments), n, np.random.default_rng(8))
        assert sum(drawn) == max(drawn) == n
        assert [s.moved for s in run.steps] == [0] * 19 + [n]
        x = run.final.positions[:, 0]
        se = 3.0 * np.sqrt(2.0 / (n - 1))  # of a normal sample variance
        assert abs(x.var(ddof=1) - 3.0) < 3.0 * se

    def test_small_epsilon_moves_under_a_quarter(self):
        # at epsilon 0.0125 the bound averages about 0.09
        scenario = default_scenario(0.0125)
        assert scenario.count == 160
        every = run_filter(scenario, 2000, np.random.default_rng(12), reduce=noop)
        final = run_filter(scenario, 2000, np.random.default_rng(12))
        assert np.mean(scenario.bounds) < 0.12
        moves = [sum(s.moved for s in run.steps) for run in (every, final)]
        assert moves[0] == sum(s.pre.count for s in every.steps)
        assert moves[1] < 0.25 * moves[0], moves

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_candidate_whose_uniform_is_its_weight_stays(self, sign):
        # one still particle at x = 1 (h = 1) whose uniform at a thinned epoch is exactly
        # |rho|: the half-open rule neither splits it (rho > 0) nor kills it (rho < 0)
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=2.0), 0.1)
        signal = SignalModel(2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.point([1.0]))
        increments = np.array([[np.log1p(0.3 * sign) + 0.05], [0.0]])
        rho = weight(np.array([1.0]), increments[0], obs)[0]
        assert weight_bounds(obs, increments)[0] < 1.0 and rho == pytest.approx(0.3 * sign)
        run = run_filter(Scenario(signal, obs, increments), 1, StillRng([abs(rho), 0.5]))
        assert run.steps[0].weighed == 1 and run.steps[0].post.count == 1

    def test_doubling_first_moves_every_stale_row(self, monkeypatch):
        # a band just under n doubles at the first death, at a thinned epoch: every row must
        # reach that epoch first, so no row's last move is older at the final epoch
        lags = []

        def recording(signal, dt, rng, size, lags_=None, table=None):
            lags.append(lags_)
            return sample_increment(signal, dt, rng, size, lags_, table)

        monkeypatch.setattr(branching, "sample_increment", recording)
        scenario = default_scenario()
        run = run_filter(scenario, 400, np.random.default_rng(13), control=(0.999, 4.0))
        doubled = [s for s in run.steps[:-1] if s.post.mass_factor < s.pre.mass_factor]
        assert doubled and all(s.moved > s.weighed for s in doubled)
        assert lags[-1].max() <= scenario.count - doubled[-1].epoch


class TestGenealogy:
    """Particles that stand still keep their initial sites, so a row's site names its eve:
    ``eve`` is exact iff every row sits where its eve started."""

    SIGNAL = SignalModel(2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.uniform([0.0], [3.0]))
    OBS = ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), 0.1)

    @pytest.mark.parametrize("control", [None, (0.9, 1.1)], ids=["uncontrolled", "band"])
    @pytest.mark.parametrize("thin", [True, False], ids=["thinned", "eager"])
    def test_every_row_sits_where_its_eve_started(self, thin, control):
        scenario = simulate_scenario(self.SIGNAL, self.OBS, 2.0, np.random.default_rng(5))
        seen = []

        def reduce(k, pre, rho, parents, post):
            seen.append((post.positions.copy(), post.eve.copy()))

        run = run_filter(
            scenario, 500, StillPaths(3), control=control,
            reduce=None if thin else reduce,
        )
        x0 = run.initial.positions
        assert np.unique(x0).size == 500 and np.array_equal(run.initial.eve, np.arange(500))
        assert run.final.eve.dtype == np.int32
        assert np.array_equal(run.final.positions, x0[run.final.eve])
        assert len(seen) == (0 if thin else scenario.count)
        for x, eve in seen:
            assert np.array_equal(x, x0[eve])
        # not vacuous: eves die and split, the thinned run thins, the band halves and doubles
        assert 0 < np.unique(run.final.eve).size < min(500, run.final.count)
        assert thin == (sum(s.moved for s in run.steps) < sum(s.pre.count for s in run.steps))
        factors = {s.post.mass_factor / s.pre.mass_factor for s in run.steps}
        assert factors == ({0.5, 1.0, 2.0} if control else {1.0})


class TestSizeOnlyChecks:
    """c08 and c09 read only a run's sizes, so their runs thin."""

    def test_mass_moments_move_fewer_rows_than_particle_epochs(self, monkeypatch):
        runs = []

        def recording(*args, **kwargs):
            runs.append(run_filter(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(checks, "run_filter", recording)
        obs = build_observation(CONFIG)
        checks.check_mass_moments(SIGNAL, obs, CONFIG.horizon, CONFIG.seed, scale=0.2)
        steps = [s for run in runs for s in run.steps]
        assert runs and sum(s.moved for s in steps) < sum(s.pre.count for s in steps)

    def test_branch_sparsity_seeds_take_the_epsilon_tag(self, monkeypatch):
        # 1e6 * 0.00397 is 3969.9999999999995 in floating point: truncation would tag 3969
        class Stop(Exception):
            pass

        tags = []

        def recording(seed, *path):
            tags.append(path)
            if path[0] == "sparsity-run":
                raise Stop
            return substream(seed, *path)

        monkeypatch.setattr(checks, "substream", recording)
        with pytest.raises(Stop):
            checks.check_branch_sparsity(
                SIGNAL, build_observation(CONFIG).sensor, CONFIG.seed, epsilons=(0.00397,)
            )
        assert tags == [("sparsity-record", 0, 3970), ("sparsity-run", 0, 3970)]


def scaled_bounds(obs, increments):
    """A bound 10% too small."""
    return 0.9 * weight_bounds(obs, increments)


class TestMutants:
    """A thinning loop that trusts a wrong bound, or a NaN weight, must stop."""

    def test_a_bound_scaled_down_raises(self, monkeypatch):
        monkeypatch.setattr(observation, "weight_bounds", scaled_bounds)
        scenario = default_scenario()  # its bounds come from the patched function
        with pytest.raises(WeightOverflowError, match=r"observation epoch \d+"):
            run_filter(scenario, 1000, np.random.default_rng(3))

    def test_a_nan_weight_at_a_thinned_epoch_raises(self, monkeypatch):
        def nan_weight(x, dy, obs):
            rho = weight(x, dy, obs)
            rho[:] = np.nan
            return rho

        monkeypatch.setattr(branching, "weight", nan_weight)
        scenario = default_scenario()
        with pytest.raises(WeightOverflowError, match="observation epoch 1:") as err:
            run_filter(scenario, 100, np.random.default_rng(1))
        assert np.isnan(err.value.max_rho)
        assert err.value.bound == weight_bounds(scenario.obs, scenario.increments)[0] < 1.0

    @pytest.mark.parametrize("mutant", ["bound", "nan"])
    def test_cli_exits_3_naming_the_epoch(self, mutant, monkeypatch, tmp_path, capsys):
        if mutant == "bound":
            monkeypatch.setattr(observation, "weight_bounds", scaled_bounds)
        else:
            monkeypatch.setattr(branching, "weight", lambda x, dy, obs: np.full(len(x), np.nan))
        text = default_config_text().replace(
            "particle_counts = [250, 500, 1000, 2000, 4000, 8000, 16000]",
            "particle_counts = [2000, 4000, 8000]",
        ).replace("replications = 100", "replications = 5")
        path = tmp_path / "sweep.ini"
        path.write_text(text)
        rc = cli_main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "branching weight overflow at observation epoch " in err
