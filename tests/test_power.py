"""The power of the tests: hand mutants of the filter, each caught by a named test.

A mutant is one plausible slip put in at one seam with ``monkeypatch``.  Each test below
runs the existing tests that must catch its mutant, under the mutant, and asserts that
they fail.  A mutant that no test catches is a blind spot; the README lists those.
"""

import numpy as np
import pytest

import test_branching
import test_thinning
from levyfilter import branching
from levyfilter.branching import ParticleEnsemble, _flat


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
