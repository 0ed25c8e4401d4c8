"""Rate sweep, Kalman cross-check, baseline comparison (small sizes)."""

import tracemalloc

import numpy as np
import pytest

from levyfilter import (
    ClippedLinearSensor,
    FrequencyGrid,
    GaussianBumpSensor,
    InitialLaw,
    ObservationModel,
    SignalModel,
    SpectralMeasure,
)
from levyfilter import experiments
from levyfilter.branching import empirical_fourier, init_ensemble
from levyfilter.experiments import (
    baseline_comparison,
    ensemble_transform,
    kalman_crosscheck,
    rate_sweep,
)
from levyfilter.reference import ClipRegionError, Oracle


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
        direct = empirical_fourier(ens, metric.nodes)
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
        direct = empirical_fourier(ens, metric.nodes)
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


class TestKalmanCrosscheck:
    def test_small_run(self):
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1)
        res = kalman_crosscheck(
            default_signal(),
            obs,
            1.0,
            19,
            ns=(300, 1200),
            reference_n=1200,
            replications=4,
        )
        assert res.clip_margin > 0.0
        assert res.reference_rms < res.tolerance
        assert res.per_n_rms[0][1] > res.per_n_rms[-1][1]

    def test_rejects_wrong_sensor(self):
        with pytest.raises(ValueError):
            kalman_crosscheck(default_signal(), bump_obs(), 1.0, 19)

    def test_rejects_non_gaussian_signal(self):
        sig = SignalModel(
            1.5, SpectralMeasure([[1.0]], [0.5]), InitialLaw.gaussian([0.0], [1.0])
        )
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1)
        with pytest.raises(ValueError):
            kalman_crosscheck(sig, obs, 1.0, 19)

    def test_rejects_uniform_initial_law(self):
        # a point-mass prior in its place would give a wrong posterior
        sig = SignalModel(
            2.0, SpectralMeasure([[1.0]], [0.5]), InitialLaw("uniform", [0.0], [1.0])
        )
        obs = ObservationModel(ClippedLinearSensor([[1.0]], clip=20.0), 0.1)
        with pytest.raises(ValueError, match="point or gaussian"):
            kalman_crosscheck(sig, obs, 1.0, 19, ns=(300,), reference_n=300, replications=1)


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
        # first-call allocations (caches, lazily built objects) are not what is measured
        baseline_comparison(signal, sensor, 0.5, 100, 23, None, epsilons=(0.1, 0.05))
        epoch_bytes = []  # per branching epoch: its pre and post positions and its counts
        run_filter = experiments.run_filter

        def recording_run_filter(*args, reduce, **kwargs):
            def recording(k, pre, rho, counts, control_rows, post):
                epoch_bytes.append(pre.positions.nbytes + post.positions.nbytes + counts.nbytes)
                reduce(k, pre, rho, counts, control_rows, post)

            return run_filter(*args, reduce=recording, **kwargs)

        monkeypatch.setattr(experiments, "run_filter", recording_run_filter)
        # twice the epochs in the second pair: no epoch's arrays outlive it, so the peak is
        # one epoch's temporaries (about 3.7 times its largest arrays) either way
        for epsilons in ((0.1, 0.05), (0.05, 0.025)):
            epoch_bytes.clear()
            tracemalloc.start()
            try:
                baseline_comparison(signal, sensor, 2.0, 2000, 23, None, epsilons=epsilons)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(epoch_bytes) == 2.0 / epsilons[0] + 2.0 / epsilons[1]
            assert peak < 6 * max(epoch_bytes), (epsilons, peak, max(epoch_bytes))
