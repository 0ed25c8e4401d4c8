"""Frequency grids, Sobolev norms, and rate fitting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levyfilter import (
    FrequencyGrid,
    default_gamma,
    filter_error,
    rate_fit,
    slope_confidence,
    sobolev_norm_sq,
)
from levyfilter.metrics import _DIRECT_CHUNK, _DIRECT_TERMS, fourier


def atom_transform(grid, sites, masses):
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    masses = np.asarray(masses, dtype=float)
    return (np.exp(-1j * (grid.nodes @ sites.T)) @ masses).astype(complex)


class TestFrequencyGrid:
    def test_mirror_is_exact_negation_1d(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=5.0, spacing=0.25)
        assert np.array_equal(grid.nodes[::-1], -grid.nodes)

    def test_mirror_is_exact_negation_2d(self):
        grid = FrequencyGrid.build(2, gamma=-2.0, cutoff=3.0, spacing=0.5)
        assert np.array_equal(grid.nodes[::-1], -grid.nodes)
        assert np.all(np.linalg.norm(grid.nodes, axis=1) <= 3.0)

    @settings(max_examples=60, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        cutoff=st.floats(0.1, 40.0),
        spacing=st.floats(0.05, 0.5),
    )
    def test_nodes_reverse_to_their_negation(self, dimension, cutoff, spacing):
        assume(round(cutoff / spacing) >= 1)
        grid = FrequencyGrid.build(dimension, gamma=-2.0, cutoff=cutoff, spacing=spacing)
        assert np.array_equal(grid.nodes[::-1], -grid.nodes)

    def test_default_gamma_rule(self):
        assert default_gamma(1, 2.0) == pytest.approx(-5.0)
        assert default_gamma(2, 0.8) == pytest.approx(-3.1)

    def test_gamma_must_be_integrable(self):
        with pytest.raises(ValueError):
            FrequencyGrid.build(1, gamma=-0.4)

    def test_positive_weights(self):
        grid = FrequencyGrid.build(1, alpha=2.0)
        assert np.all(grid.sobolev_weights > 0.0)


def lattice(theta0, spacing, count):
    """A 1-d FrequencyGrid on theta_m = theta0 + m * spacing (weights unused here)."""
    nodes = (theta0 + spacing * np.arange(count)).reshape(-1, 1)
    return FrequencyGrid(nodes, -1.0, float(np.abs(nodes).max()), spacing, np.ones(count))


def fourier_bound(grid, sites, masses):
    """1e-12 sum|m| plus the roundoff of the phases theta x, 8 eps max|theta| max|x| sum|m|."""
    reach = float(np.abs(grid.nodes).max()) * float(np.abs(sites).max(initial=0.0))
    return (1e-12 + 8.0 * np.finfo(float).eps * reach) * float(np.abs(masses).sum())


atoms = st.lists(
    st.tuples(st.floats(-100.0, 100.0), st.floats(-10.0, 10.0)), max_size=40
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    atoms=atoms,
    theta0=st.floats(-50.0, 50.0),
    spacing=st.floats(0.01, 2.0),
    count=st.integers(1, 400),
)
@example(atoms=[], theta0=-0.5, spacing=0.1, count=10)
@example(atoms=[(99.97, 1.0)], theta0=-39.975, spacing=0.05, count=1600)
@example(atoms=[(-3.3, 2.0), (7.1, -0.5)], theta0=-2.0, spacing=0.25, count=17)
def test_lattice_fourier_matches_direct_summation(atoms, theta0, spacing, count):
    sites = np.array([[x] for x, _ in atoms]).reshape(-1, 1)
    masses = np.array([m for _, m in atoms])
    grid = lattice(theta0, spacing, count)
    gap = np.abs(fourier(sites, masses, grid) - atom_transform(grid, sites, masses))
    assert np.max(gap) <= fourier_bound(grid, sites, masses)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    atoms=atoms.filter(len),
    cutoff=st.floats(1.0, 50.0),
    spacing=st.floats(0.02, 0.5),
)
def test_lattice_fourier_is_hermitian_for_real_masses(atoms, cutoff, spacing):
    sites = np.array([[x] for x, _ in atoms])
    masses = np.array([m for _, m in atoms])
    grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=cutoff, spacing=spacing)
    values = fourier(sites, masses, grid)
    assert np.max(np.abs(values[::-1] - np.conj(values))) <= fourier_bound(grid, sites, masses)


def test_lattice_fourier_is_hermitian_for_a_subnormal_mass():
    sites, masses = np.array([[0.0]]), np.array([2.225073858507203e-309])
    grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=41.375, spacing=0.03125)
    values = fourier(sites, masses, grid)
    assert np.max(np.abs(values[::-1] - np.conj(values))) <= fourier_bound(grid, sites, masses)


class TestFourier:
    def test_nodes_of_another_width_are_rejected(self):
        with pytest.raises(ValueError, match="width 2"):
            fourier(np.zeros((5, 2)), None, np.zeros((4, 3)))
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=2.0, spacing=0.5)
        with pytest.raises(ValueError, match="width 1"):
            fourier(np.zeros((5, 2)), None, grid)

    def test_single_atom_anywhere_on_default_metric(self):
        grid = FrequencyGrid.build(1, alpha=2.0)
        for x in np.linspace(-100.0, 100.0, 801):
            gap = np.abs(fourier([[x]], None, grid) - atom_transform(grid, [[x]], [1.0]))
            assert np.max(gap) <= 1e-11

    def test_plain_sum_equals_unit_masses(self):
        rng = np.random.default_rng(2)
        sites = rng.normal(size=(300, 1))
        grid = FrequencyGrid.build(1, alpha=2.0, cutoff=10.0, spacing=0.1)
        for nodes in (grid, grid.nodes):
            plain = fourier(sites, None, nodes)
            assert np.max(np.abs(plain - fourier(sites, np.ones(300), nodes))) <= 1e-12 * 300

    def test_two_dimensional_grid_sums_directly(self):
        rng = np.random.default_rng(4)
        sites, masses = rng.normal(size=(50, 2)), rng.uniform(size=50)
        grid = FrequencyGrid.build(2, gamma=-2.0, cutoff=3.0, spacing=0.5)
        assert np.array_equal(fourier(sites, masses, grid), fourier(sites, masses, grid.nodes))

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("node_count", [2, 20, 256, 257, 300])
    def test_blocked_direct_sum_is_bit_equal_to_one_shot(self, dimension, node_count):
        rng = np.random.default_rng(node_count + dimension)
        nodes = 4.0 * rng.normal(size=(node_count, dimension))
        chunks = -(-node_count // _DIRECT_CHUNK)
        block = _DIRECT_TERMS // (node_count // chunks)  # atoms per block of the last chunk
        for count in (0, 1, block - 1, block, block + 1, 3 * block + 7):
            sites = 3.0 * rng.normal(size=(count, dimension))
            masses = rng.uniform(size=count)
            phase = np.zeros((count, node_count))  # elementwise, so no BLAS rounding
            for j in range(dimension):
                phase += np.multiply.outer(sites[:, j], nodes[:, j])
            terms = np.exp(-1j * phase)
            for given_masses, one_shot in ((None, terms), (masses, masses[:, None] * terms)):
                got = fourier(sites, given_masses, nodes)
                assert got.tobytes() == one_shot.sum(axis=0).tobytes(), count

    def test_direct_sum_holds_one_block_at_a_time(self):
        rng = np.random.default_rng(5)
        sites, masses = rng.normal(size=(100_000, 2)), rng.uniform(size=100_000)
        nodes = rng.normal(size=(20, 2))
        fourier(sites, masses, nodes)  # first-call allocations are not what is measured
        tracemalloc.start()
        try:
            fourier(sites, masses, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's float phases and two complex arrays of at most _DIRECT_TERMS terms,
        # with 8 bytes a term to spare; the (100000, 20) phases alone would be 16 MB
        assert peak < 48 * _DIRECT_TERMS, peak


class TestSobolevNorm:
    def test_zero_transform(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=10.0, spacing=0.1)
        assert sobolev_norm_sq(np.zeros(grid.node_count, complex), grid) == 0.0

    def test_point_mass_reproduces_pi(self):
        # delta at 0 transforms to 1; integral of (1+t^2)^-1 is pi, tail 2/R
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=200.0, spacing=0.01)
        val = sobolev_norm_sq(np.ones(grid.node_count, complex), grid)
        assert abs(val - np.pi) < 0.02

    def test_cancelling_atoms(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=10.0, spacing=0.1)
        vals = atom_transform(grid, [[0.7], [0.7]], [1.0, -1.0])
        assert sobolev_norm_sq(vals, grid) == 0.0

    def test_quadratic_scaling(self):
        grid = FrequencyGrid.build(1, gamma=-1.5, cutoff=10.0, spacing=0.1)
        vals = atom_transform(grid, [[0.3], [-1.1]], [0.5, 0.25])
        base = sobolev_norm_sq(vals, grid)
        assert sobolev_norm_sq(3.0 * vals, grid) == pytest.approx(9.0 * base, rel=1e-12)

    def test_tail_control_when_doubling_cutoff(self):
        gamma = -1.0
        small = FrequencyGrid.build(1, gamma=gamma, cutoff=50.0, spacing=0.01)
        large = FrequencyGrid.build(1, gamma=gamma, cutoff=100.0, spacing=0.01)
        v_small = sobolev_norm_sq(np.ones(small.node_count, complex), small)
        v_large = sobolev_norm_sq(np.ones(large.node_count, complex), large)
        tail_bound = np.pi - 2.0 * np.arctan(50.0)
        assert 0.0 < v_large - v_small < tail_bound

    def test_rejects_non_hermitian(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=5.0, spacing=0.5)
        vals = np.zeros(grid.node_count, complex)
        vals[0] = 1.0j  # lone imaginary spike cannot be Hermitian
        with pytest.raises(ValueError):
            sobolev_norm_sq(vals, grid)

    def test_monotone_under_domination(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=5.0, spacing=0.1)
        small = atom_transform(grid, [[0.4]], [0.5])
        big = atom_transform(grid, [[0.4]], [1.0])
        assert sobolev_norm_sq(small, grid) < sobolev_norm_sq(big, grid)


class TestFilterError:
    def test_identical_transforms(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=5.0, spacing=0.1)
        vals = atom_transform(grid, [[0.2]], [1.0])
        assert filter_error(vals, vals, grid) == 0.0

    def test_constant_offset(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=5.0, spacing=0.1)
        vals = atom_transform(grid, [[0.2]], [1.0])
        c = 0.35
        err = filter_error(vals + c, vals, grid)
        assert err == pytest.approx(c * np.sqrt(grid.sobolev_weights.sum()), rel=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=5.0, spacing=0.1)
        a = atom_transform(grid, rng.normal(size=(3, 1)), rng.uniform(0.2, 1.0, 3))
        b = atom_transform(grid, rng.normal(size=(3, 1)), rng.uniform(0.2, 1.0, 3))
        c = atom_transform(grid, rng.normal(size=(3, 1)), rng.uniform(0.2, 1.0, 3))
        assert filter_error(a, b, grid) == filter_error(b, a, grid)
        assert filter_error(a, c, grid) <= filter_error(a, b, grid) + filter_error(
            b, c, grid
        ) + 1e-12

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(11)
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=5.0, spacing=0.1)
        a = atom_transform(grid, rng.normal(size=(2, 1)), [0.5, 0.5])
        b = atom_transform(grid, rng.normal(size=(2, 1)), [0.7, 0.1])
        direct = filter_error(a, b, grid)
        flipped = filter_error(np.conj(a[::-1]), np.conj(b[::-1]), grid)
        assert flipped == pytest.approx(direct, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=5.0, spacing=0.1)
        with pytest.raises(ValueError):
            filter_error(np.ones(3, complex), np.ones(3, complex), grid)


class TestRateFit:
    def test_exact_inverse_square_root(self):
        ns = np.array([100.0, 400.0, 1600.0, 6400.0])
        fit = rate_fit(np.column_stack([ns, ns**-0.5]))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_constant_errors(self):
        ns = np.array([10.0, 100.0, 1000.0])
        fit = rate_fit(np.column_stack([ns, np.full(3, 0.37)]))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_jittered_slope(self):
        rng = np.random.default_rng(13)
        ns = np.array([100.0, 400.0, 1600.0, 6400.0, 25600.0])
        errs = 3.0 * ns**-0.5 * (1.0 + 0.01 * rng.standard_normal(ns.size))
        fit = rate_fit(np.column_stack([ns, errs]))
        assert -0.55 <= fit.slope <= -0.45
        lo_slope, lo, hi = slope_confidence(np.column_stack([ns, errs]))
        assert lo <= lo_slope <= hi

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rate_fit([(10.0, 1.0), (20.0, 0.5)])
        with pytest.raises(ValueError):
            rate_fit([(10.0, 1.0), (20.0, 0.5), (30.0, -0.1)])
