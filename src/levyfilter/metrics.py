"""Sobolev-norm distances between measures via truncated Fourier quadrature.

The squared norm of a signed measure lambda is the integral of
|lambda_hat(theta)|^2 (1 + |theta|^2)^gamma over R^d, with gamma < -d/2 so the
weight is integrable; here it is approximated by tensor-product midpoint
quadrature on the ball |theta| <= cutoff.  Transforms use the
exp(-i theta' x) kernel throughout, so valid inputs are Hermitian:
value(-theta) = conj(value(theta)).  ``fourier`` is the one transform of a
discrete measure that the package uses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_METRIC_NODES",
    "FrequencyGrid",
    "fourier",
    "default_gamma",
    "sobolev_norm_sq",
    "filter_error",
    "RateFit",
    "rate_fit",
]


def default_gamma(dimension: int, alpha: float) -> float:
    """Exponent strictly inside the admissible range for the convergence-rate bounds."""
    return -(dimension / 2.0 + 2.0 * alpha) - 0.5


# Nodes of a metric grid, at most: the bound MAX_GRID_CELLS puts on the grid oracle
MAX_METRIC_NODES = 2**22


@dataclass(frozen=True)
class FrequencyGrid:
    """Midpoint quadrature nodes on |theta| <= cutoff with the Sobolev weight baked in.

    Every quadrature weight is ``spacing**d``, and ``nodes[::-1] == -nodes`` (else a ValueError).
    """

    nodes: np.ndarray            # (M, d)
    gamma: float
    cutoff: float
    spacing: float
    sobolev_weights: np.ndarray  # (M,) quad weight times (1+|theta|^2)^gamma

    def __post_init__(self):
        if not np.array_equal(self.nodes[::-1], -self.nodes):
            raise ValueError("frequency nodes must reverse to their negation")

    @classmethod
    def build(
        cls,
        dimension: int,
        *,
        alpha: float | None = None,
        gamma: float | None = None,
        cutoff: float = 40.0,
        spacing: float = 0.05,
    ) -> "FrequencyGrid":
        if gamma is None:
            if alpha is None:
                raise ValueError("provide either gamma or alpha for the default rule")
            gamma = default_gamma(dimension, alpha)
        if gamma >= -dimension / 2.0:
            raise ValueError("gamma must be < -d/2 for an integrable weight")
        if dimension not in (1, 2):
            raise ValueError("metric grids support dimensions 1 and 2 only")
        ratio = cutoff / spacing
        half = round(min(ratio, MAX_METRIC_NODES))  # an infinite ratio does not round
        if half < 1:
            raise ValueError("cutoff must exceed spacing")
        if (2 * half) ** dimension > MAX_METRIC_NODES:
            raise ValueError(f"cutoff/spacing = {ratio:g} gives over {MAX_METRIC_NODES} nodes")
        # midpoints on [-cutoff, cutoff], exactly symmetric under negation
        positive = (np.arange(half) + 0.5) * spacing
        axis = np.concatenate([-positive[::-1], positive])
        if dimension == 1:
            nodes = axis.reshape(-1, 1)
        else:
            # the disc is symmetric under negation, so its rows in ij order reverse to -nodes
            full = np.column_stack([np.repeat(axis, axis.size), np.tile(axis, axis.size)])
            nodes = full[np.einsum("ij,ij->i", full, full) <= cutoff**2]
        sob = spacing**dimension * (1.0 + np.einsum("ij,ij->i", nodes, nodes)) ** gamma
        return cls(
            nodes=nodes,
            gamma=float(gamma),
            cutoff=float(cutoff),
            spacing=float(spacing),
            sobolev_weights=sob,
        )

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


# Type-1 NUFFT: spread with the "exponential of semicircle" kernel of Barnett, Magland &
# af Klinteberg, SISC 41 (2019), 16 points wide on a grid of half the node spacing and four
# times the node count, twice the span of the node frequencies.
_SPREAD_WIDTH = 16
_SPREAD_BETA = 2.3 * _SPREAD_WIDTH
_KERNEL_SHIFTS = (np.arange(_SPREAD_WIDTH) - (_SPREAD_WIDTH // 2 - 1)) * (2.0 / _SPREAD_WIDTH)
_SPREAD_BLOCK = 1024  # atoms per block, bounding the (atoms, width) temporaries
_DIRECT_CHUNK = 256  # nodes per chunk, at most: keeps a huge node set's blocks to _DIRECT_TERMS
_DIRECT_TERMS = 2**17  # (atom, node) terms per block of the direct sum, at most
_DECONVOLUTION_BLOCK = 4096  # rows per block of the deconvolution's (bins, 100) cosine table


def _spread_kernel(z):
    return np.exp(_SPREAD_BETA * (np.sqrt(1.0 - z * z) - 1.0))


@functools.lru_cache(maxsize=16)
def _deconvolution(count: int) -> tuple:
    """(rfft bins, factors) of the nodes k = 2m - count + 1 >= 0 half-steps from 0:
    bin k of the spread grid's rfft divided by the kernel's Fourier transform over the grid
    step (a 100-point midpoint rule: the kernel and its derivatives are ~exp(-beta) at the
    ends of [-1, 1])."""
    step = 0.5 * np.pi / count
    half_width = 0.5 * _SPREAD_WIDTH * step
    bins = np.arange(1 - count % 2, count, 2)
    z = (np.arange(100) + 0.5) / 50.0 - 1.0
    kernel = _spread_kernel(z)
    factors = np.empty(bins.size)
    for lo in range(0, bins.size, _DECONVOLUTION_BLOCK):
        part = slice(lo, lo + _DECONVOLUTION_BLOCK)
        terms = np.cos(np.outer(bins[part] * half_width, z))
        terms *= kernel
        # row sums, not a matrix product, whose rounding depends on the BLAS
        factors[part] = step / (half_width / 50.0 * terms.sum(axis=1))
    bins.flags.writeable = factors.flags.writeable = False
    return bins, factors


def _lattice_sum(x: np.ndarray, masses, grid: FrequencyGrid) -> np.ndarray:
    """Type-1 NUFFT of the atoms ``x`` onto the 1-d lattice theta_m = k s/2,
    k = 2m - M + 1, spread at step s/2 onto 4M points.  The real masses spread as one real
    array, one ``rfft`` gives the nodes with k >= 0, and the node at -k is the conjugate of
    the one at k: the values are exactly Hermitian."""
    count, size = grid.node_count, 4 * grid.node_count
    # spread at unit scale: a power-of-two rescale is exact and keeps subnormal masses accurate
    exponent = 0 if masses is None else int(np.frexp(np.max(np.abs(masses), initial=0.0))[1])
    weights = None if masses is None else np.ldexp(masses, -exponent)
    # s x / 2 in grid steps, reduced mod the 4M-point period only once it is an integer:
    # reducing s x / 2 mod 2 pi first would cost up to (M - 1) ulp(2 pi) / 2 of phase
    u = x * (grid.spacing * count / np.pi)
    base = np.floor(u)
    first = np.mod(base - (_SPREAD_WIDTH // 2 - 1), size).astype(np.int64)
    shift = (u - base) * (2.0 / _SPREAD_WIDTH)
    spread = np.zeros(size * -(-(size + _SPREAD_WIDTH - 1) // size))  # whole periods
    for part in (slice(lo, lo + _SPREAD_BLOCK) for lo in range(0, x.size, _SPREAD_BLOCK)):
        # atom j reaches grid points base_j + 1 - w/2 .. base_j + w/2, kernel abscissae in [-1, 1]
        kernel = _spread_kernel(shift[part, None] - _KERNEL_SHIFTS)
        cells = (first[part, None] + np.arange(_SPREAD_WIDTH)).ravel()
        values = kernel if weights is None else weights[part, None] * kernel
        spread += np.bincount(cells, values.ravel(), spread.size)
    bins, factors = _deconvolution(count)
    upper = np.fft.rfft(spread.reshape(-1, size).sum(axis=0))[bins] * factors
    out = np.concatenate([np.conj(upper[count % 2 :][::-1]), upper])
    if exponent:
        out.real, out.imag = np.ldexp(out.real, exponent), np.ldexp(out.imag, exponent)
    return out


def _rows(array, width: int | None = None) -> np.ndarray:
    """The one shape rule for points and frequencies: ``array`` as float rows of width d.

    A 0-d or 1-d array is consecutive rows; any other width is a ValueError naming d.
    ``width`` None lets the array fix d: its own width when 2-d, else 1.  Every function
    that takes rows returns one value, or one row of values, per row.
    """
    a = np.asarray(array, dtype=float)
    if width is None:
        width = a.shape[1] if a.ndim == 2 else 1
    if a.ndim < 2 and a.size % width == 0:
        return a.reshape(-1, width)
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"expected rows of width {width}, got an array of shape {a.shape}")
    return a


def _model_array(values, ndim: int, name: str) -> np.ndarray:
    """A model parameter as a float array of ``ndim`` (1 or 2) dimensions, fewer promoted as
    ``np.atleast_1d`` or ``np.atleast_2d`` do; more is a ValueError naming ``name``."""
    a = (np.atleast_1d, np.atleast_2d)[ndim - 1](np.asarray(values, dtype=float))
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got an array of shape {a.shape}")
    return a


def unit_terms(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """exp(-i theta' x_j) as a (nodes, atoms) array.  The phases start from +0 and add
    theta[:, j] * x[:, j] for each j in turn: a matrix product would round by the BLAS."""
    phase = np.zeros((nodes.shape[0], x.shape[0]))
    for j in range(x.shape[1]):
        phase += nodes[:, j, None] * x[:, j]
    terms = -1j * phase
    return np.exp(terms, out=terms)


def running_total(terms: np.ndarray) -> np.ndarray:
    """Each node's row summed in atom order, overwriting ``terms``; one node sums pairwise."""
    if terms.shape[0] == 1 or terms.shape[1] == 0:
        return terms.sum(axis=1)
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()


def _direct_sum(x: np.ndarray, masses, nodes: np.ndarray) -> np.ndarray:
    """sum_j masses_j exp(-i theta' x_j) at ``nodes`` in blocks of at most ``_DIRECT_TERMS``
    terms (one block for one node), each node's total carried across blocks in atom order."""
    rows = _DIRECT_TERMS // nodes.shape[0] if nodes.shape[0] > 1 else max(1, x.shape[0])
    total = None
    for start in range(0, max(1, x.shape[0]), rows):
        terms = unit_terms(x[start : start + rows], nodes)
        if masses is not None:
            terms *= masses[start : start + rows]
        if total is not None:
            terms[:, 0] += total
        total = running_total(terms)
        del terms  # one block alive at a time
    return total


def fourier(points, masses, nodes) -> np.ndarray:
    """sum_j masses_j exp(-i theta' x_j) for atoms ``points`` at every node.

    ``points`` and ``nodes`` are rows of width d (``_rows``), where d is the
    ``FrequencyGrid``'s dimension or else the width of ``points``.  ``masses``
    is an (n,) array, or None for plain terms.  A node array is summed
    directly: the reference for the other path.  It takes the nodes in
    near-equal chunks of at most 256 and the atoms in blocks of at most 2**17
    (atom, node) terms; each node sums its terms in atom order across blocks,
    and one node pairwise in one block.  This gives the bits of
    ``(masses[:, None] * np.exp(-1j * phase)).sum(axis=0)`` for any node
    count, where ``phase`` is the (n, M) zero array plus
    ``np.multiply.outer(x[:, j], theta[:, j])`` for each j in turn.
    A 1-d ``FrequencyGrid`` takes a type-1 NUFFT (Greengard & Lee, SIAM Rev. 46
    (2004)) in O(n + M log M) that agrees with direct summation within
    1e-12 * sum|masses| plus the roundoff of the phases theta x.
    """
    if isinstance(nodes, FrequencyGrid):
        x = _rows(points, nodes.dimension)
        if nodes.dimension == 1:
            return _lattice_sum(x[:, 0], masses, nodes)
        th = nodes.nodes
    else:
        x = _rows(points)
        th = _rows(nodes, x.shape[1])
    # near-equal chunks: none is a single node (summed pairwise) unless the whole set is
    chunks = np.array_split(th, max(1, -(-th.shape[0] // _DIRECT_CHUNK)))
    return np.concatenate([_direct_sum(x, masses, chunk) for chunk in chunks])


def sobolev_norm_sq(values, grid: FrequencyGrid) -> float:
    """Quadrature of |values|^2 against the Sobolev weight.

    ``values`` are transform samples on ``grid.nodes`` and must satisfy
    value(-theta) = conj(value(theta)) within 1e-8 of their largest modulus (at least 1).
    """
    v = np.asarray(values, dtype=complex)
    if v.shape != (grid.node_count,):
        raise ValueError("transform values must match the grid nodes")
    defect = float(np.max(np.abs(v[::-1] - np.conj(v)))) if v.size else 0.0
    if defect > 1e-8 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError(f"transform is not Hermitian within tolerance ({defect:.3e})")
    return float(np.sum(grid.sobolev_weights * np.abs(v) ** 2))


def filter_error(values_a, values_b, grid: FrequencyGrid) -> float:
    """Sobolev distance between two transforms sampled on the same grid."""
    a = np.asarray(values_a, dtype=complex)
    b = np.asarray(values_b, dtype=complex)
    if a.shape != b.shape or a.shape != (grid.node_count,):
        raise ValueError("both transforms must be sampled on the identical grid")
    return float(np.sqrt(sobolev_norm_sq(a - b, grid)))


class RateFit(NamedTuple):
    slope: float
    intercept: float
    residual: float
    ci_low: float   # slope -/+ 1.96 OLS standard errors of the slope
    ci_high: float


def _log_line(x, y):
    """(slope, intercept) of the least-squares line of log y on log x: the one log-log fit.
    A 2-d ``y`` (one series per column) gives one array of slopes and one of intercepts. The
    closed form sum(dx dy) / sum(dx^2), log x centred about its first value and every sum in
    point order (no BLAS call), gives each column its 1-d fit's bits at any number of points.
    nan, with no numpy warning, unless every value is positive and log x has spread (dx != 0)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(x > 0.0) and np.all(y > 0.0)):
        return (np.nan, np.nan) if y.ndim == 1 else np.full((2, y.shape[1]), np.nan)
    total = lambda a: np.add.accumulate(a, axis=0)[-1]  # in point order, never pairwise
    lx, ly = np.log(x) if y.ndim == 1 else np.log(x)[:, None], np.log(y)
    x_mean, y_mean = lx[0] + total(lx - lx[0]) / len(x), total(ly) / len(x)
    with np.errstate(invalid="ignore"):  # no spread: 0 / 0
        slope = total((lx - x_mean) * (ly - y_mean)) / total((lx - x_mean) ** 2)
    intercept = y_mean - slope * x_mean
    return (float(slope), float(intercept)) if y.ndim == 1 else (slope, intercept)


def rate_fit(pairs) -> RateFit:
    """Ordinary least squares of log(error) on log(n) over (n, error) pairs."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("rate_fit needs at least 3 (n, error) pairs")
    if np.any(arr <= 0.0):
        raise ValueError("rate_fit requires positive sizes and errors")
    if np.all(arr[:, 0] == arr[0, 0]):
        raise ValueError("rate_fit needs at least two distinct sizes")
    slope, intercept = _log_line(arr[:, 0], arr[:, 1])
    x = np.log(arr[:, 0])
    resid = np.log(arr[:, 1]) - (slope * x + intercept)
    se = float(np.sqrt(np.sum(resid**2) / (x.size - 2) / np.sum((x - x.mean()) ** 2)))
    return RateFit(
        slope, intercept, float(np.sqrt(np.mean(resid**2))), slope - 1.96 * se, slope + 1.96 * se
    )
