"""Rate sweep, Kalman cross-check, baseline comparison (small sizes)."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from levyfilter import (
    ClippedLinearSensor,
    FilterRun,
    FrequencyGrid,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    ParticleEnsemble,
    SignalModel,
    SpectralMeasure,
)
from levyfilter import experiments
from levyfilter.branching import BaselineStep, FilterStep, init_ensemble, run_filter
from levyfilter.checks import check_kalman_crosscheck, check_oracle_agreement
from levyfilter.experiments import baseline_comparison, ensemble_transform, rate_sweep
from levyfilter.observation import Scenario, simulate_scenario
from levyfilter.reference import ClipRegionError, Oracle
from levyfilter.seeding import substream


def default_signal():
    return SignalModel(
        2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [1.0])
    )


def bump_obs(eps=0.1):
    return ObservationModel(GaussianBumpSensor([1.0], [[0.0]], [1.0]), eps)


class TestEnsembleTransform:
    def test_matches_direct_summation(self):
        metric = FrequencyGrid.build(1, alpha=2.0, cutoff=10.0, spacing=0.05)
        ens = init_ensemble(2000, default_signal(), np.random.default_rng(3))
        fast = ensemble_transform(ens, metric)
        direct = ensemble_transform(ens, metric.nodes)
        assert np.max(np.abs(fast - direct)) < 1e-12

    def test_two_dimensional_fallback(self):
        sig = SignalModel(
            2.0,
            SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
            InitialLaw.gaussian([0.0, 0.0], [1.0, 1.0]),
        )
        metric = FrequencyGrid.build(2, alpha=2.0, cutoff=2.0, spacing=0.5)
        ens = init_ensemble(500, sig, np.random.default_rng(5))
        fast = ensemble_transform(ens, metric)
        direct = ensemble_transform(ens, metric.nodes)
        assert np.max(np.abs(fast - direct)) == 0.0


class TestRateSweep:
    def test_small_sweep_structure(self):
        metric = FrequencyGrid.build(1, alpha=2.0, cutoff=10.0, spacing=0.1)
        res = rate_sweep(
            default_signal(),
            bump_obs(),
            1.0,
            [200, 400, 800],
            4,
            11,
            metric,
            Oracle("grid", 256, 10.0),
        )
        assert res.total_runs == 12
        assert res.extinct_runs == 0
        assert len(res.per_n_error) == 3
        assert res.fit is not None
        # errors decrease with n on average
        errs = [e for _, e in res.per_n_error]
        assert errs[0] > errs[-1]
        final_rows = [r for r in res.rows if r[2] == 10]
        assert len(final_rows) == 12

    def test_all_epoch_errors(self):
        metric = FrequencyGrid.build(1, alpha=2.0, cutoff=5.0, spacing=0.2)
        res = rate_sweep(
            default_signal(),
            bump_obs(0.25),
            1.0,
            [100, 200, 400],
            2,
            13,
            metric,
            Oracle("grid", 128, 10.0),
            error_epochs="all",
        )
        epochs = {r[2] for r in res.rows}
        assert epochs == {1, 2, 3, 4}

    def test_requires_oracle(self):
        metric = FrequencyGrid.build(1, alpha=2.0, cutoff=5.0, spacing=0.2)
        with pytest.raises(ValueError):
            rate_sweep(
                default_signal(), bump_obs(), 1.0, [100], 1, 1, metric, None
            )

    def test_repeated_count_rejected(self):
        # replications of one n share their seeds, so a repeated n repeats its runs
        metric = FrequencyGrid.build(1, alpha=2.0, cutoff=5.0, spacing=0.2)
        with pytest.raises(ValueError, match="distinct particle counts"):
            rate_sweep(
                default_signal(), bump_obs(0.25), 1.0, [100, 100, 200], 1, 13, metric,
                Oracle("grid", 128, 10.0),
            )

    def test_kalman_oracle_route(self):
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1)
        metric = FrequencyGrid.build(1, alpha=2.0, cutoff=10.0, spacing=0.1)
        res = rate_sweep(
            default_signal(),
            obs,
            1.0,
            [200, 400, 800],
            4,
            17,
            metric,
            Oracle("kalman"),
        )
        errs = [e for _, e in res.per_n_error]
        assert errs[0] > errs[-1]

    def test_kalman_oracle_outside_clip_region_raises(self):
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=0.5), 0.1)
        metric = FrequencyGrid.build(1, alpha=2.0, cutoff=5.0, spacing=0.2)
        with pytest.raises(ClipRegionError, match="observation.linear_clip"):
            rate_sweep(default_signal(), obs, 1.0, [100], 1, 17, metric, Oracle("kalman"))


class TestReplicates:
    """``replicates`` alone decides whether a branching run reads every epoch."""

    scenario = simulate_scenario(
        default_signal(),
        ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1),
        0.5,
        np.random.default_rng(1),
    )

    @pytest.mark.parametrize(
        "kind, keep, eager",
        [
            ("grid", None, False),
            ("none", None, False),
            ("kalman", None, True),
            ("grid", "epoch", True),
            ("kalman", "epoch", True),
            ("none", "epoch", True),
        ],
    )
    def test_a_run_is_eager_only_to_keep_or_to_check_the_clip(
        self, monkeypatch, kind, keep, eager
    ):
        reducers = []

        def recording(*args, reduce, **kwargs):
            reducers.append(reduce)
            return run_filter(*args, reduce=reduce, **kwargs)

        monkeypatch.setattr(experiments, "run_filter", recording)
        oracle = {"grid": Oracle("grid", 128, 10.0), "kalman": Oracle("kalman"), "none": None}[kind]
        keep = {None: None, "epoch": lambda k, post: k}[keep]
        rngs = [np.random.default_rng(rep) for rep in range(2)]
        runs = list(experiments.replicates(self.scenario, oracle, 50, rngs, keep=keep))
        assert [reduce is not None for reduce in reducers] == [eager, eager]
        for run, kept, margin in runs:
            assert not run.extinct
            assert kept == ([] if keep is None else [1, 2, 3, 4, 5])
            assert (margin == math.inf) == (kind != "kalman")


class TestClipReachOverWeighedPoints:
    """A particle weighed outside the clip region that dies in the same epoch still
    invalidates the Kalman oracle: the reach is taken over ``pre``, not ``post``."""

    sensor = ClippedLinearSensor([[1.0]], clip=2.0)
    # a near-still truth from the origin stays well inside |x| < 2
    signal = SignalModel(2.0, SpectralMeasure([[1.0]], [0.01]), InitialLaw.point([0.0]))

    @staticmethod
    def one_epoch(name, far):
        """A stand-in for ``name``: one epoch that weighs particles at 0 and ``far``, and the
        one at ``far`` leaves no offspring."""
        pre = ParticleEnsemble(np.array([[0.0], [far]]), initial_count=2)
        post = ParticleEnsemble(np.array([[0.0]]), initial_count=2)

        def run(scenario, n, rng, *, control=None, reduce=None):
            assert reduce is not None  # the Kalman oracle's reach reads every epoch
            reduce(1, pre, np.array([0.0, -1.0]), np.array([0]), post)
            if name == "run_baseline":
                return [BaselineStep(1, post.size, 1)]
            return FilterRun(pre, post, [FilterStep(1, pre.size, post.size, 1, 2, 2)])

        return run

    @pytest.mark.parametrize(
        "caller, weighs_far",
        [
            ("rate_sweep", "run_filter"),
            ("baseline_comparison", "run_filter"),
            ("baseline_comparison", "run_baseline"),
            ("check_oracle_agreement", "run_filter"),
        ],
        ids=["rate_sweep", "baseline_branching", "baseline_multinomial", "check_oracle_agreement"],
    )
    def test_reach_counts_a_particle_that_dies(self, monkeypatch, caller, weighs_far):
        for name in ("run_filter", "run_baseline"):
            far = 3.0 if name == weighs_far else 0.0
            monkeypatch.setattr(experiments, name, self.one_epoch(name, far))
        obs, oracle = ObservationModel(self.sensor, 0.1), Oracle("kalman")
        metric = FrequencyGrid.build(1, alpha=2.0, cutoff=5.0, spacing=0.2)
        message = r"\|Bx\| reached 3.00 >= 2.0"
        if caller == "check_oracle_agreement":
            result = check_oracle_agreement(self.signal, obs, 0.2, 5, oracle, scale=0.1)
            assert result.status == "FAIL"
            assert re.search(message, result.detail)
            return
        with pytest.raises(ClipRegionError, match=message):
            if caller == "rate_sweep":
                rate_sweep(self.signal, obs, 0.2, [2], 1, 5, metric, oracle)
            else:
                baseline_comparison(self.signal, self.sensor, 0.2, 2, 5, oracle, epsilons=(0.1,))

    def test_reach_starts_at_the_truth(self, monkeypatch):
        # every weighed particle sits at 0; the truth's last state is at 3
        monkeypatch.setattr(experiments, "run_filter", self.one_epoch("run_filter", 0.0))
        obs = ObservationModel(self.sensor, 0.1)
        scenario = Scenario(self.signal, obs, np.zeros((1, 1)), truth=np.array([[0.0], [3.0]]))
        runs = experiments.replicates(scenario, Oracle("kalman"), 2, [np.random.default_rng(0)])
        with pytest.raises(ClipRegionError, match=r"\|Bx\| reached 3.00 >= 2.0"):
            next(runs)


class TestKalmanCrosscheck:
    obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1)

    def check(self):
        return check_kalman_crosscheck(
            default_signal(), self.obs, 1.0, 19, ns=(300, 1200, 4800), reference_n=1200, replications=4
        )

    @staticmethod
    def distort(monkeypatch, mean_shift=0.0, variance_scale=1.0):
        """Every Kalman posterior summary from here on, its mean shifted and its variance scaled."""
        summaries = Oracle.summaries

        def distorted(self, *args):
            return [
                dataclasses.replace(s, mean=s.mean + mean_shift, variance=s.variance * variance_scale)
                for s in summaries(self, *args)
            ]

        monkeypatch.setattr(Oracle, "summaries", distorted)

    def test_small_run(self):
        res = check_kalman_crosscheck(
            default_signal(),
            self.obs,
            1.0,
            19,
            ns=(300, 1200),
            reference_n=1200,
            replications=4,
        )
        assert res.values["clip_margin"] > 0.0
        assert res.values["reference_rms"] < res.values["tolerance"]
        assert res.values["rms_n_300"] > res.values["rms_n_1200"]
        # two counts fit no slope, so the check cannot pass
        assert np.isnan(res.values["fit_slope"]) and res.status == "FAIL"

    def test_passes_at_small_sizes(self):
        res = self.check()
        assert res.status == "PASS", res.detail
        assert set(res.values) == {
            "rms_n_300", "rms_n_1200", "rms_n_4800", "reference_n", "reference_rms", "tolerance",
            "fit_slope", "fit_intercept", "fit_residual", "fit_ci_low", "fit_ci_high",
            "posterior_std", "clip_margin",
        }
        assert res.values["reference_rms"] == res.values["rms_n_1200"]

    def test_fails_above_the_tolerance(self, monkeypatch):
        # a posterior spread 100 times too small shrinks the tolerance; the slope is untouched
        slope = self.check().values["fit_slope"]
        self.distort(monkeypatch, variance_scale=1e-4)
        res = self.check()
        assert res.status == "FAIL"
        assert res.values["reference_rms"] > res.values["tolerance"]
        assert res.values["fit_slope"] == slope and -0.65 <= slope <= -0.35

    def test_fails_outside_the_slope_window(self, monkeypatch):
        # a posterior mean off by 0.1 adds a bias that does not fall with n
        self.distort(monkeypatch, mean_shift=0.1)
        res = self.check()
        assert res.status == "FAIL"
        assert res.values["reference_rms"] < res.values["tolerance"]
        assert res.values["fit_slope"] > -0.35

    def test_outside_clip_region_raises(self):
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=0.5), 0.1)
        with pytest.raises(ClipRegionError, match="observation.linear_clip"):
            check_kalman_crosscheck(default_signal(), obs, 1.0, 19, ns=(300,), reference_n=300)

    def test_rejects_wrong_sensor(self):
        with pytest.raises(ValueError):
            check_kalman_crosscheck(default_signal(), bump_obs(), 1.0, 19)

    def test_rejects_non_gaussian_signal(self):
        sig = SignalModel(
            1.5, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [1.0])
        )
        with pytest.raises(ValueError):
            check_kalman_crosscheck(sig, self.obs, 1.0, 19)

    def test_rejects_uniform_initial_law(self):
        # a point-mass prior in its place would give a wrong posterior
        sig = SignalModel(
            2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw("uniform", [0.0], [1.0])
        )
        with pytest.raises(ValueError, match="point or gaussian"):
            check_kalman_crosscheck(sig, self.obs, 1.0, 19, ns=(300,), reference_n=300, replications=1)


class TestBaselineComparison:
    def test_fractions_and_errors(self):
        res = baseline_comparison(
            default_signal(),
            GaussianBumpSensor([1.0], [[0.0]], [1.0]),
            1.0,
            400,
            23,
            Oracle("grid", 256, 10.0),
            epsilons=(0.1, 0.05),
        )
        assert all(f > 0.9 for f in res.multinomial_fractions)
        assert all(f < 0.3 for f in res.branching_fractions)
        assert res.branching_fractions[1] < res.branching_fractions[0]
        assert all(np.isfinite(res.branching_errors))

    def test_without_an_oracle_the_branching_runs_thin(self, monkeypatch):
        # no oracle: no means to keep, so no reducer, and each run moves only its candidates
        runs = []

        def recording_run_filter(*args, **kwargs):
            runs.append(run_filter(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(experiments, "run_filter", recording_run_filter)
        sensor = GaussianBumpSensor([1.0], [[0.0]], [1.0])
        res = baseline_comparison(default_signal(), sensor, 1.0, 400, 23, None, epsilons=(0.1, 0.05))
        assert len(runs) == 2 and all(np.isnan(res.branching_errors + res.multinomial_errors))
        for run in runs:
            assert sum(s.moved for s in run.steps) < sum(s.pre.count for s in run.steps)

    def test_records_take_the_epsilon_tags_with_the_record_appended(self, monkeypatch):
        # record 0 keeps the single-record tags; one multinomial run per eps, on record 0
        paths, calls = [], []

        def recording_substream(seed, *path):
            paths.append(path)
            return substream(seed, *path)

        def counting(name, original):
            def run(scenario, *args, **kwargs):
                calls.append((name, scenario.obs.epsilon))
                return original(scenario, *args, **kwargs)

            return run

        monkeypatch.setattr(experiments, "substream", recording_substream)
        for name in ("run_filter", "run_baseline"):
            monkeypatch.setattr(experiments, name, counting(name, getattr(experiments, name)))
        sensor = GaussianBumpSensor([1.0], [[0.0]], [1.0])
        signal = default_signal()
        baseline_comparison(signal, sensor, 0.5, 100, 23, None, epsilons=(0.1, 0.05), records=3)
        expected_paths, expected_calls = [], []
        for tag, eps in ((100000, 0.1), (50000, 0.05)):
            for key in ((tag,), (tag, 1), (tag, 2)):
                expected_paths += [("baseline-record", *key), ("baseline-branch", *key)]
            expected_paths.append(("baseline-multi", tag))
            expected_calls += [("run_filter", eps)] * 3 + [("run_baseline", eps)]
        assert paths == expected_paths
        assert calls == expected_calls

    def test_the_branching_fraction_pools_every_epoch_of_every_record(self, monkeypatch):
        runs = []

        def recording_run_filter(*args, **kwargs):
            runs.append(run_filter(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(experiments, "run_filter", recording_run_filter)
        sensor = GaussianBumpSensor([1.0], [[0.0]], [1.0])
        signal, epsilons = default_signal(), (0.1, 0.05)
        res = baseline_comparison(signal, sensor, 1.0, 200, 23, None, epsilons=epsilons, records=3)
        single = baseline_comparison(signal, sensor, 1.0, 200, 23, None, epsilons=epsilons)
        for i in range(2):  # the first call's runs: three records of each eps
            fractions = [[s.branch_events / s.pre.count for s in r.steps] for r in runs[3 * i :][:3]]
            pooled = res.branching_fractions[i]
            assert pooled == np.mean(np.concatenate(fractions))
            assert single.branching_fractions[i] == np.mean(fractions[0]) != pooled
        assert single.multinomial_fractions == res.multinomial_fractions

    def test_kalman_oracle_errors_are_finite(self):
        res = baseline_comparison(
            default_signal(),
            ClippedLinearSensor([[1.0]], clip=20.0),
            0.5,
            200,
            29,
            Oracle("kalman"),
            epsilons=(0.25, 0.125),
        )
        assert all(np.isfinite(res.branching_errors))
        assert all(np.isfinite(res.multinomial_errors))

    def test_kalman_oracle_outside_clip_region_raises(self):
        with pytest.raises(ClipRegionError, match="observation.linear_clip"):
            baseline_comparison(
                default_signal(),
                ClippedLinearSensor([[1.0]], clip=0.5),
                0.5,
                200,
                29,
                Oracle("kalman"),
                epsilons=(0.25,),
            )

    def test_no_oracle_errors_are_nan(self):
        res = baseline_comparison(
            default_signal(),
            GaussianBumpSensor([1.0], [[0.0]], [1.0]),
            0.5,
            200,
            29,
            None,
            epsilons=(0.25, 0.125),
        )
        assert all(np.isnan(e) for e in res.branching_errors)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("epsilons", [(0.25,), (0.25, 0.25)])
    def test_one_distinct_epsilon_has_no_slope(self, epsilons):
        res = baseline_comparison(
            default_signal(),
            GaussianBumpSensor([1.0], [[0.0]], [1.0]),
            0.5,
            200,
            29,
            None,
            epsilons=epsilons,
        )
        assert np.isnan(res.slope)
        assert len(res.branching_fractions) == len(epsilons)

    def test_holds_one_run_at_a_time(self, monkeypatch):
        signal, sensor = default_signal(), GaussianBumpSensor([1.0], [[0.0]], [1.0])
        oracle = Oracle("grid", 64, 10.0)  # its means keep every branching run eager
        # first-call allocations (caches, lazily built objects) are not what is measured
        baseline_comparison(signal, sensor, 0.5, 100, 23, oracle, epsilons=(0.1, 0.05))
        # per branching epoch: its pre and post positions and the int32 offspring counts
        # (4 bytes a row of pre) that the branching rule makes
        epoch_bytes = []
        run_filter = experiments.run_filter

        def recording_run_filter(*args, reduce, **kwargs):
            def recording(k, pre, rho, parents, post):
                epoch_bytes.append(pre.positions.nbytes + post.positions.nbytes + 4 * pre.count)
                reduce(k, pre, rho, parents, post)

            return run_filter(*args, reduce=recording, **kwargs)

        monkeypatch.setattr(experiments, "run_filter", recording_run_filter)
        # twice the epochs in the second pair: no epoch's arrays outlive it, so the peak is
        # one epoch's temporaries (about 3.7 times its largest arrays) either way
        for epsilons in ((0.1, 0.05), (0.05, 0.025)):
            epoch_bytes.clear()
            tracemalloc.start()
            try:
                baseline_comparison(signal, sensor, 2.0, 2000, 23, oracle, epsilons=epsilons)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(epoch_bytes) == 2.0 / epsilons[0] + 2.0 / epsilons[1]
            assert peak < 6 * max(epoch_bytes), (epsilons, peak, max(epoch_bytes))
