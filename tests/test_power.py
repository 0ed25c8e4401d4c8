"""The power of the tests: hand mutants of the filter and its oracle, each caught by a named test.

A mutant is one plausible slip put in at one seam with ``monkeypatch``.  Each test below
runs the existing tests that must catch its mutant, under the mutant, and asserts that
they fail.  A mutant that no test catches is a blind spot; the README lists those.
"""

import dataclasses

import numpy as np
import pytest

import test_branching
import test_experiments
import test_harness
import test_reference
import test_thinning
from levyfilter import GaussianBumpSensor, branching, checks, experiments, observation, reference
from levyfilter.branching import ParticleEnsemble, _flat
from levyfilter.reference import GridDomainError


def example(test):
    """A Hypothesis test's body, to run on one given example without a search."""
    return test.hypothesis.inner_test


def replace_everywhere(monkeypatch, original, mutant, *modules):
    """Put ``mutant`` in place of ``original`` at each of its bindings in ``modules``."""
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, mutant)


def map_leaving_eve(self, move, factor=1.0):
    """``ParticleEnsemble._map`` that moves positions and ``last`` but leaves ``eve`` unmoved."""
    x = move(_flat(self.positions))
    last = None if self.last is None else move(self.last)
    return ParticleEnsemble(x, self.initial_count, self.mass_factor * factor, self.eve, last)


def map_dropping_last(self, move, factor=1.0):
    """``ParticleEnsemble._map`` that drops the ``last`` column: every row looks current."""
    x, eve = move(_flat(self.positions)), move(self.eve)
    return ParticleEnsemble(x, self.initial_count, self.mass_factor * factor, eve, None)


def offspring_counts_closed(rho, u):
    """``branching._offspring_counts`` with ``u <= threshold``: a uniform equal to the
    fractional part adds a copy, and one equal to |rho| kills."""
    threshold = np.floor(rho)
    counts = threshold.astype(np.int32)
    counts += 1
    negative = rho < 0.0
    np.subtract(rho, threshold, out=threshold)
    np.negative(rho, out=threshold, where=negative)
    extra = np.less_equal(u, threshold)
    extra ^= negative
    counts += extra
    return counts


def refill_appending(ensemble, slots, sources):
    """``branching._refill`` that appends the copies and leaves the dead rows in their slots."""
    return ensemble._map(lambda column: np.concatenate((column, column[sources])))


def resample_in_place(rho, u):
    """``branching._multinomial_resample`` that keeps every row as its own parent."""
    return np.arange(len(rho)), 0


def replicates_pooling_record_zero(original):
    """``experiments.replicates`` that hides the epochs of every branching run after an eps's
    first, so ``baseline_comparison`` pools the fraction of record 0 alone."""
    seen = set()

    def replicates(scenario, *args, multinomial=False, **kwargs):
        eps = scenario.obs.epsilon
        for run, kept, margin in original(scenario, *args, multinomial=multinomial, **kwargs):
            if multinomial:
                seen.discard(eps)  # the eps is done: its next call starts at record 0
            elif eps in seen:
                run = dataclasses.replace(run, steps=[])
            else:
                seen.add(eps)
            yield run, kept, margin

    return replicates


def weight_m1(x, dy, obs):
    """M1: ``observation.weight`` with 0.55 * eps * h'h in its exponent in place of 0.5."""
    hh = np.sum(obs.sensor(x) ** 2, axis=1)
    return (observation.weight(x, dy, obs) + 1.0) * np.exp(-0.05 * obs.epsilon * hh) - 1.0


def check_domain_passing(rule):
    """``reference._check_domain`` with the rule whose violation names ``rule`` dropped."""
    original = reference._check_domain

    def check(law, axes):
        try:
            original(law, axes)
        except GridDomainError as exc:
            if rule not in exc.keys:
                raise

    return check


def test_eve_left_unmoved(monkeypatch):
    monkeypatch.setattr(ParticleEnsemble, "_map", map_leaving_eve)
    with pytest.raises(AssertionError):
        test_branching.TestEstimates().test_take_gathers_every_per_row_column(width=1)
    for thin in (True, False):
        with pytest.raises(AssertionError):
            test_thinning.TestGenealogy().test_every_row_sits_where_its_eve_started(thin, None)


def test_last_dropped(monkeypatch):
    # a stale row then skips its catch-up: the zero-sensor run ends with one epoch's variance
    monkeypatch.setattr(ParticleEnsemble, "_map", map_dropping_last)
    with pytest.raises(AssertionError):
        test_branching.TestEstimates().test_take_gathers_every_per_row_column(width=1)
    with pytest.raises(AssertionError):
        test_thinning.TestThinnedRuns().test_zero_sensor_moves_each_particle_once(monkeypatch)


def test_offspring_rule_closed_at_the_threshold(monkeypatch):
    original = branching._offspring_counts
    replace_everywhere(monkeypatch, original, offspring_counts_closed, branching, test_branching)
    with pytest.raises(AssertionError):
        test_branching.TestBranchStep().test_kill_is_half_open()
    with pytest.raises(AssertionError):  # one of its explicit examples
        example(test_branching.test_sign_rule_is_the_offspring_rule_below_one)(rho=0.375, u=0.125)


def test_refill_appends_without_filling_the_holes(monkeypatch):
    replace_everywhere(monkeypatch, branching._refill, refill_appending, branching, test_thinning)
    with pytest.raises(AssertionError):
        test_thinning.TestGenealogy().test_every_row_sits_where_its_eve_started(True, None)
    with pytest.raises(AssertionError):  # ten rows, each dead, kept or split
        example(test_thinning.TestRefill.test_population_is_the_repeat_up_to_order)(
            test_thinning.TestRefill(), count=10, width=1, seed=3, share=1.0, thinned=True
        )


def test_multinomial_rule_relocates_nothing(monkeypatch):
    monkeypatch.setattr(branching, "_multinomial_resample", resample_in_place)
    sensor = GaussianBumpSensor([1.0], [[0.0]], [1.0])
    result = checks.check_branch_sparsity(test_experiments.default_signal(), sensor, 1, 0.05)  # c08
    assert result.status == "FAIL" and "multinomial relocation fraction 0.0000" in result.detail
    with pytest.raises(AssertionError):
        test_experiments.TestBaselineComparison().test_fractions_and_errors()


def test_baseline_pools_record_zero_alone(monkeypatch):
    mutant = replicates_pooling_record_zero(experiments.replicates)
    monkeypatch.setattr(experiments, "replicates", mutant)
    test = test_experiments.TestBaselineComparison()
    with pytest.raises(AssertionError):
        test.test_the_branching_fraction_pools_every_epoch_of_every_record(monkeypatch)


def test_weight_exponent_off_by_a_tenth(monkeypatch):
    # M1; the grid oracle shares ``weight``, so only c03's identity and c07 see it
    monkeypatch.setattr(checks, "weight", weight_m1)
    result = checks.check_weight_moment_scaling(1, scale=0.05)  # c03
    assert result.status == "FAIL" and "weight() differs from the direct rho" in result.detail


def test_grid_resolution_rule_dropped(monkeypatch):
    # the grid would normalize 0 / 0 into a nan oracle
    monkeypatch.setattr(reference, "_check_domain", check_domain_passing("initial_scale"))
    with pytest.raises(pytest.fail.Exception):  # no ConfigError raised
        test_harness.TestParseConfig().test_initial_law_the_grid_cannot_sample(
            "[signal]\ninitial_scale = [1e-9]\n"
        )


def test_grid_coverage_check_dropped(monkeypatch):
    monkeypatch.setattr(reference, "_check_domain", check_domain_passing("initial_center"))
    with pytest.raises(pytest.fail.Exception):  # no GridDomainError raised
        test_reference.TestBuildGrid().test_domain_too_small()


def test_grid_transition_conjugated(monkeypatch):
    # M4: exp(eps * l(theta)) in place of exp(eps * l(-theta)) moves the grid's skewed
    # kernel the wrong way; no acceptance check runs a skewed signal against the grid
    original = reference.increment_cf
    monkeypatch.setattr(reference, "increment_cf", lambda *args: np.conj(original(*args)))
    with pytest.raises(AssertionError):
        test_reference.TestPredict().test_skewed_kernel_orientation()
