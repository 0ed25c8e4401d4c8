"""Frequency grids, Sobolev norms, and rate fitting."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levyfilter import (
    FrequencyGrid,
    default_gamma,
    filter_error,
    rate_fit,
    run_filter,
    simulate_scenario,
    sobolev_norm_sq,
)
from levyfilter.experiments import ensemble_transform
from levyfilter.harness import build_observation, build_signal, default_config_text, parse_config
from levyfilter.metrics import (
    _DIRECT_CHUNK,
    _DIRECT_TERMS,
    _SPREAD_WIDTH,
    MAX_METRIC_NODES,
    _deconvolution,
    _log_line,
    _spread_kernel,
    fourier,
    running_total,
    unit_terms,
)


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

    @pytest.mark.parametrize("offset", [0.5, 1e-12])
    def test_off_centre_nodes_are_rejected(self, offset):
        nodes = (np.arange(4) - 1.5 + offset).reshape(-1, 1)
        with pytest.raises(ValueError, match="reverse to their negation"):
            FrequencyGrid(nodes, -1.0, 2.0, 1.0, np.ones(4))

    @pytest.mark.parametrize(
        "dimension, cutoff, spacing",
        [(1, 1e9, 0.05), (1, 2**21 + 1, 1.0), (2, 1025.0, 1.0), (1, 1e300, 1e-300)],
    )
    def test_grids_above_the_node_cap_are_rejected(self, dimension, cutoff, spacing):
        # checked before the axis is allocated, so no case asks numpy for its nodes
        with pytest.raises(ValueError, match=f"gives over {MAX_METRIC_NODES} nodes"):
            FrequencyGrid.build(dimension, gamma=-2.0, cutoff=cutoff, spacing=spacing)

    def test_a_grid_at_the_node_cap_is_built(self):
        grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=2.0**21, spacing=1.0)
        assert grid.node_count == MAX_METRIC_NODES

    def test_the_default_square_in_two_dimensions_is_built(self):
        # 1600**2 nodes before the disc is cut: the largest metric a shipped config builds
        grid = FrequencyGrid.build(2, alpha=2.0)
        assert np.all(np.hypot(*grid.nodes.T) <= 40.0) and grid.node_count > 2 * 10**6

    def test_default_gamma_rule(self):
        assert default_gamma(1, 2.0) == pytest.approx(-5.0)
        assert default_gamma(2, 0.8) == pytest.approx(-3.1)

    def test_gamma_must_be_integrable(self):
        with pytest.raises(ValueError):
            FrequencyGrid.build(1, gamma=-0.4)

    def test_positive_weights(self):
        grid = FrequencyGrid.build(1, alpha=2.0)
        assert np.all(grid.sobolev_weights > 0.0)


def lattice(spacing, count):
    """A 1-d FrequencyGrid on theta_m = (m - (count - 1) / 2) * spacing, exactly antisymmetric
    (weights unused here)."""
    nodes = ((np.arange(count) - (count - 1) / 2) * spacing).reshape(-1, 1)
    return FrequencyGrid(nodes, -1.0, float(np.abs(nodes).max()), spacing, np.ones(count))


def fourier_bound(grid, sites, masses):
    """1e-12 sum|m| plus the roundoff of the phases theta x, 8 eps max|theta| max|x| sum|m|."""
    reach = float(np.abs(grid.nodes).max()) * float(np.abs(sites).max(initial=0.0))
    return (1e-12 + 8.0 * np.finfo(float).eps * reach) * float(np.abs(masses).sum())


atoms = st.lists(
    st.tuples(st.floats(-100.0, 100.0), st.floats(-10.0, 10.0)), max_size=40
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(atoms=atoms, spacing=st.floats(0.01, 2.0), count=st.integers(1, 1600))
@example(atoms=[(-0.001, 1.0)], spacing=0.05, count=1600)
@example(atoms=[(99.97, 1.0), (-99.97, -2.5)], spacing=0.05, count=1599)
@example(atoms=[(-3.3, 2.0), (7.1, -0.5)], spacing=0.25, count=1)
@example(atoms=[], spacing=0.1, count=10)
@example(atoms=[(99.97, 1.0)], spacing=0.05, count=1600)
@example(atoms=[(-3.3, 2.0), (7.1, -0.5)], spacing=0.25, count=17)
def test_centred_lattice_fourier_matches_direct_summation_and_is_hermitian(atoms, spacing, count):
    sites = np.array([[x] for x, _ in atoms]).reshape(-1, 1)
    masses = np.array([m for _, m in atoms])
    grid = lattice(spacing, count)
    values = fourier(sites, masses, grid)
    gap = np.abs(values - atom_transform(grid, sites, masses))
    assert np.max(gap) <= fourier_bound(grid, sites, masses)
    assert np.array_equal(values[::-1], np.conj(values))


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


def conjugate_mismatch(values):
    """Rows whose (re, im) bits are not those of the mirrored row's conjugate: -0.0 is not 0.0."""
    pairs = np.ascontiguousarray(values).view(np.uint64).reshape(-1, 2)
    return np.any(pairs != pairs[::-1] ^ np.array([0, 1 << 63], dtype=np.uint64), axis=1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(atoms=atoms, cutoff=st.floats(1.0, 50.0), spacing=st.floats(0.02, 0.5), plain=st.booleans())
@example(atoms=[(0.0, 1.0)], cutoff=2.0, spacing=0.5, plain=False)
@example(atoms=[(1.0, 0.0), (-1.0, -0.0)], cutoff=2.0, spacing=0.5, plain=False)
@example(atoms=[], cutoff=2.0, spacing=0.5, plain=True)
def test_lattice_fourier_is_conjugate_symmetric_bit_for_bit(atoms, cutoff, spacing, plain):
    sites = np.array([[x] for x, _ in atoms]).reshape(-1, 1)
    masses = None if plain else np.array([m for _, m in atoms])
    grid = FrequencyGrid.build(1, gamma=-1.0, cutoff=cutoff, spacing=spacing)
    assert not conjugate_mismatch(fourier(sites, masses, grid)).any()


# The direct sum negates each phase exactly at -theta, so every partial sum of re is equal
# and every partial sum of im is negated, or both are zeros: a node is exact unless a part is 0.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    atoms=st.lists(
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-10.0, 10.0)),
        max_size=20,
    ),
    cutoff=st.floats(0.5, 10.0),
    spacing=st.floats(0.2, 1.0),
)
@example(atoms=[(0.0, 0.0, 1.0)], cutoff=2.0, spacing=0.5)
@example(atoms=[(1.0, -1.0, 1.0), (3.0, 2.0, 0.5)], cutoff=2.0, spacing=0.5)
@example(atoms=[(1.5, 2.5, 1.0), (-1.5, -2.5, 1.0)], cutoff=2.0, spacing=0.5)
def test_plane_fourier_is_conjugate_symmetric_bit_for_bit_where_nonzero(atoms, cutoff, spacing):
    sites = np.array([[x, y] for x, y, _ in atoms]).reshape(-1, 2)
    masses = np.array([m for _, _, m in atoms])
    grid = FrequencyGrid.build(2, gamma=-2.0, cutoff=cutoff, spacing=spacing)
    values = fourier(sites, masses, grid)
    zero_part = (values.real == 0) | (values.imag == 0)
    assert not (conjugate_mismatch(values) & ~zero_part).any()
    assert np.array_equal(values[::-1], np.conj(values))


@pytest.mark.parametrize(
    "dimension, cutoff, spacing", [(1, 40.0, 0.05), (2, 2.0, 0.5), (2, 10.0, 0.5)]
)
def test_fourier_of_a_spread_measure_is_conjugate_symmetric_bit_for_bit(dimension, cutoff, spacing):
    rng = np.random.default_rng(dimension * 100 + int(cutoff))
    grid = FrequencyGrid.build(dimension, gamma=-2.0, cutoff=cutoff, spacing=spacing)
    for _ in range(20):
        count = int(rng.integers(1, 200))
        sites = rng.uniform(-10.0, 10.0, size=(count, dimension))
        masses = rng.uniform(size=count)
        assert not conjugate_mismatch(fourier(sites, masses, grid)).any()


def one_table_deconvolution(count):
    """The deconvolution factors from one (ceil(count / 2), 100) cosine table."""
    step = 0.5 * np.pi / count
    half_width = 0.5 * _SPREAD_WIDTH * step
    bins = np.arange(1 - count % 2, count, 2)
    z = (np.arange(100) + 0.5) / 50.0 - 1.0
    terms = np.cos(np.outer(bins * half_width, z))
    terms *= _spread_kernel(z)
    return bins, step / (half_width / 50.0 * terms.sum(axis=1))


@pytest.mark.parametrize("count", [1, 2, 3, 1600, 1601, 2**13 + 1, 2**16, 2**16 + 1])
def test_deconvolution_in_blocks_is_the_one_table_bit_for_bit(count):
    bins, factors = _deconvolution(count)
    expected_bins, expected = one_table_deconvolution(count)
    assert np.array_equal(bins, expected_bins)
    assert np.array_equal(factors, expected)


def test_deconvolution_memory_is_bounded_by_its_blocks():
    # one table of 2**15 rows would peak near 50 MB
    _deconvolution.cache_clear()
    tracemalloc.start()
    try:
        _deconvolution(2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


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
    @pytest.mark.parametrize("node_count", [1, 2, 3, 20, 256, 257, 300])
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


class TestSharedUnitTerms:
    """The compensator check's jump and post transforms, from one set of unit terms."""

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_jump_and_post_are_fourier_bits(self, dimension):
        rng = np.random.default_rng(6 + dimension)
        pre, rho = 3.0 * rng.normal(size=(40_000, dimension)), rng.normal(size=40_000)
        counts = rng.choice(4, size=40_000, p=[0.1, 0.2, 0.3, 0.4])
        parents = np.repeat(np.arange(40_000), counts)
        post = pre[parents]
        assert post.shape[0] > _DIRECT_TERMS // 2  # past one 2-node block
        thetas = np.array([[0.5] + [0.0] * (dimension - 1), [1.0] + [0.3] * (dimension - 1)])
        terms = unit_terms(pre, thetas)
        assert running_total(terms * rho).tobytes() == fourier(pre, rho, thetas).tobytes()
        gathered = running_total(terms[:, parents])
        assert gathered.tobytes() == fourier(post, None, thetas).tobytes()

    def test_every_epoch_of_a_default_run(self):
        cfg = parse_config(default_config_text())
        signal, obs = build_signal(cfg), build_observation(cfg)
        scenario = simulate_scenario(signal, obs, cfg.horizon, np.random.default_rng(9))
        thetas, epochs = np.array([[0.5], [1.0]]), []

        def reduce(k, pre, rho, parents, post):
            terms = unit_terms(pre.positions, thetas)
            jump = pre.mass_factor * running_total(terms * rho) / pre.initial_count
            old_jump = pre.mass_factor * fourier(pre.positions, rho, thetas) / pre.initial_count
            assert jump.tobytes() == old_jump.tobytes(), k
            post_sum = running_total(terms[:, parents])
            post_values = post.mass_factor * post_sum / post.initial_count
            assert post_values.tobytes() == ensemble_transform(post, thetas).tobytes(), k
            epochs.append(k)

        run_filter(scenario, 300, np.random.default_rng(10), reduce=reduce)
        assert len(epochs) == scenario.count


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
        assert fit.ci_low <= fit.slope <= fit.ci_high

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rate_fit([(10.0, 1.0), (20.0, 0.5)])
        with pytest.raises(ValueError):
            rate_fit([(10.0, 1.0), (20.0, 0.5), (30.0, -0.1)])

    @pytest.mark.parametrize("errors", [[0.1, 0.1, 0.1], [0.1, 0.2, 0.3]])
    def test_equal_sizes_rejected(self, errors):
        # one size fixes no slope: a fit would report one with an infinite interval
        with pytest.raises(ValueError, match="two distinct sizes"):
            rate_fit([(250.0, e) for e in errors])

    @pytest.mark.parametrize(
        "x, y",
        [([1.0, 2.0, 4.0], [1.0, 0.0, 2.0]), ([1.0, 2.0, 4.0], [1.0, -1.0, 2.0]),
         ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])],
        ids=["y0", "y1", "flat-x"],
    )
    def test_log_line_nonpositive_is_a_quiet_nan(self, x, y):
        # x with no spread fixes no slope
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope, intercept = _log_line(x, y)
        assert np.isnan(slope) and np.isnan(intercept)

    @pytest.mark.parametrize(
        "x, bad",
        # three log 6 do not sum to 3 log 6: a plain mean leaves dx nonzero, a finite slope
        [([1.0, 2.0, 4.0], (1, 3)), ([1.0, 0.0, 4.0], None), ([6.0, 6.0, 6.0], None)],
        ids=["y", "x", "flat-x"],
    )
    def test_log_line_columns_nonpositive_are_quiet_nans(self, x, bad):
        y = np.arange(1.0, 16.0).reshape(3, 5)
        if bad is not None:
            y[bad] = -1.0  # one entry of one column spoils every column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slopes, intercepts = _log_line(x, y)
        assert slopes.shape == intercepts.shape == (5,)
        assert np.all(np.isnan(slopes)) and np.all(np.isnan(intercepts))


@given(
    st.lists(st.integers(1, 10**6), min_size=2, max_size=40, unique=True).flatmap(
        lambda x: st.tuples(
            st.just(x),
            st.lists(
                st.lists(st.floats(1e-6, 1e3), min_size=len(x), max_size=len(x)),
                min_size=1,
                max_size=4,
            ),
        )
    ),
    st.integers(0, 1000),
)
@settings(max_examples=200, deadline=None)
def test_log_line_columns_are_the_one_column_fits_bit_for_bit(case, copies):
    # c03 fits 5 points and c09 3, c09 in 1,001 columns: tile the columns up to that width.
    # Point-order sums, with no BLAS solve, keep every column exact at any point count.
    x, columns = case
    y = np.tile(np.array(columns, dtype=float).T, (1, 1 + copies))
    slopes, intercepts = _log_line(x, y)
    assert slopes.shape == intercepts.shape == (y.shape[1],)
    for j in range(y.shape[1]):
        assert (slopes[j], intercepts[j]) == _log_line(x, y[:, j])


def frozen_slope_confidence(pairs, z=1.96):
    """The retired ``slope_confidence``, its ``rate_fit`` call inlined: (slope, lo, hi)."""
    arr = np.asarray(pairs, dtype=float)
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    slope, intercept = (float(v) for v in np.polyfit(x, y, 1))
    resid = y - (slope * x + intercept)
    dof = max(1, x.size - 2)
    se = float(np.sqrt(np.sum(resid**2) / dof / np.sum((x - x.mean()) ** 2)))
    return slope, slope - z * se, slope + z * se


def frozen_polyfit_slope(x, y):
    """The log-log slope as c03, c08, c09 and ``baseline_comparison`` once wrote it out."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@given(
    st.lists(st.integers(1, 10**6), min_size=3, max_size=8, unique=True).flatmap(
        lambda ns: st.tuples(
            st.just(ns),
            st.lists(st.floats(1e-6, 1e3), min_size=len(ns), max_size=len(ns)),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_merged_fit_is_the_old_fit_within_tolerance(case):
    # the closed form rounds apart from np.polyfit's solve: over 17,600 random cases of 3 to
    # 40 points the largest gap in slope, ci_low or ci_high was 6.6e-13 (1 + |value|)
    ns, errs = (np.array(v, dtype=float) for v in case)
    pairs = np.column_stack([ns, errs])
    fit = rate_fit(pairs)
    old = (*frozen_slope_confidence(pairs), frozen_polyfit_slope(ns, errs))
    new = (fit.slope, fit.ci_low, fit.ci_high, _log_line(ns, errs)[0])
    for value, reference in zip(new, old):
        assert abs(value - reference) <= 1e-9 * (1.0 + abs(reference))
