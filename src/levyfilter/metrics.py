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
    "FrequencyGrid",
    "fourier",
    "default_gamma",
    "sobolev_norm_sq",
    "filter_error",
    "RateFit",
    "rate_fit",
    "slope_confidence",
]


def default_gamma(dimension: int, alpha: float) -> float:
    """Exponent strictly inside the admissible range for the convergence-rate bounds."""
    return -(dimension / 2.0 + 2.0 * alpha) - 0.5


def _symmetric_axis(cutoff: float, spacing: float) -> np.ndarray:
    """Midpoint nodes on [-cutoff, cutoff], exactly symmetric under negation."""
    half = int(round(cutoff / spacing))
    if half < 1:
        raise ValueError("cutoff must exceed spacing")
    positive = (np.arange(half) + 0.5) * spacing
    return np.concatenate([-positive[::-1], positive])


@dataclass(frozen=True)
class FrequencyGrid:
    """Midpoint quadrature nodes on |theta| <= cutoff with the Sobolev weight baked in.

    Every quadrature weight is ``spacing**d``, and ``nodes[::-1] == -nodes``.
    """

    nodes: np.ndarray            # (M, d)
    gamma: float
    cutoff: float
    spacing: float
    sobolev_weights: np.ndarray  # (M,) quad weight times (1+|theta|^2)^gamma

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
        axis = _symmetric_axis(cutoff, spacing)
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
# af Klinteberg, SISC 41 (2019), 16 points wide on a grid of twice the node count.
_SPREAD_WIDTH = 16
_SPREAD_BETA = 2.3 * _SPREAD_WIDTH
_KERNEL_SHIFTS = (np.arange(_SPREAD_WIDTH) - (_SPREAD_WIDTH // 2 - 1)) * (2.0 / _SPREAD_WIDTH)
_SPREAD_BLOCK = 1024  # atoms per block, bounding the (atoms, width) temporaries
_DIRECT_CHUNK = 256  # nodes per chunk, at most: keeps a huge node set's blocks to _DIRECT_TERMS
_DIRECT_TERMS = 2**17  # (atom, node) terms per block of the direct sum, at most


def _spread_kernel(z):
    return np.exp(_SPREAD_BETA * (np.sqrt(1.0 - z * z) - 1.0))


@functools.lru_cache(maxsize=16)
def _deconvolution(count: int) -> tuple:
    """(FFT bins, factors): node m = count//2 + k is bin k mod 2*count of the spread grid's
    FFT divided by the kernel's Fourier transform over the grid step (a 100-point midpoint
    rule: the kernel and its derivatives are ~exp(-beta) at the ends of [-1, 1])."""
    step = np.pi / count
    half_width = 0.5 * _SPREAD_WIDTH * step
    k = np.arange(count) - count // 2
    z = (np.arange(100) + 0.5) / 50.0 - 1.0
    kernel_hat = half_width / 50.0 * (np.cos(np.outer(k * half_width, z)) @ _spread_kernel(z))
    bins, factors = k % (2 * count), step / kernel_hat
    bins.flags.writeable = factors.flags.writeable = False
    return bins, factors


def _lattice_sum(x: np.ndarray, masses, grid: FrequencyGrid) -> np.ndarray:
    """Type-1 NUFFT of the atoms ``x`` onto the 1-d lattice theta_m = theta_0 + m s."""
    count, size = grid.node_count, 2 * grid.node_count
    # spread at unit scale: a power-of-two rescale is exact and keeps subnormal masses accurate
    exponent = 0 if masses is None else int(np.frexp(np.max(np.abs(masses), initial=0.0))[1])
    # exp(-i theta_m x) = exp(-i theta_c x) exp(-i k u) with u = s x mod 2 pi
    weights = np.exp(-1j * grid.nodes[count // 2, 0] * x)
    if masses is not None:
        weights *= np.ldexp(masses, -exponent)
    u = np.mod(grid.spacing * x, 2.0 * np.pi) * (size / (2.0 * np.pi))
    base = np.floor(u)
    first = (base.astype(np.int64) - (_SPREAD_WIDTH // 2 - 1)) % size
    shift = (u - base) * (2.0 / _SPREAD_WIDTH)
    spread = np.zeros(size * -(-(size + _SPREAD_WIDTH - 1) // size), dtype=complex)  # whole periods
    for part in (slice(lo, lo + _SPREAD_BLOCK) for lo in range(0, x.size, _SPREAD_BLOCK)):
        # atom j reaches grid points base_j + 1 - w/2 .. base_j + w/2, kernel abscissae in [-1, 1]
        kernel = _spread_kernel(shift[part, None] - _KERNEL_SHIFTS)
        cells = (first[part, None] + np.arange(_SPREAD_WIDTH)).ravel()
        spread += np.bincount(cells, (weights.real[part, None] * kernel).ravel(), spread.size)
        spread += 1j * np.bincount(cells, (weights.imag[part, None] * kernel).ravel(), spread.size)
    bins, factors = _deconvolution(count)
    out = np.fft.fft(spread.reshape(-1, size).sum(axis=0))[bins] * factors
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


def _direct_sum(x: np.ndarray, masses, nodes: np.ndarray) -> np.ndarray:
    """sum_j masses_j exp(-i theta' x_j) at ``nodes``, over blocks of rows of ``x`` that
    hold at most ``_DIRECT_TERMS`` terms (all rows for a single node).

    A block's phases start from +0 and add x[:, j] * theta[:, j] for each coordinate j in
    turn, with numpy's elementwise products and sums: a matrix product would round by the
    BLAS build and the block's shape.  numpy sums two or more columns row by row, so
    carrying the running sum into the next block's first row gives the bits of one
    ``sum(axis=0)`` over all rows; a single column it sums pairwise, all in one block.
    """
    rows = _DIRECT_TERMS // nodes.shape[0] if nodes.shape[0] > 1 else max(1, x.shape[0])
    total = None
    for start in range(0, max(1, x.shape[0]), rows):
        block = x[start : start + rows]
        phase = np.zeros((block.shape[0], nodes.shape[0]))
        for j in range(x.shape[1]):
            phase += block[:, j, None] * nodes[:, j]
        terms = np.exp(-1j * phase)
        del phase
        if masses is not None:
            terms = masses[start : start + rows, None] * terms
        if total is not None:
            terms[0] += total
        total = terms.sum(axis=0)
        del terms  # one block alive at a time
    return total


def fourier(points, masses, nodes) -> np.ndarray:
    """sum_j masses_j exp(-i theta' x_j) for atoms ``points`` at every node.

    ``points`` and ``nodes`` are rows of width d (``_rows``), where d is the
    ``FrequencyGrid``'s dimension or else the width of ``points``.  ``masses``
    is an (n,) array, or None for plain terms.  A node array is summed
    directly: the reference for the other path.  It takes the nodes in
    near-equal chunks of at most 256 and the atoms in blocks of at most 2**17
    (atom, node) terms, and gives the bits of
    ``(masses[:, None] * np.exp(-1j * phase)).sum(axis=0)`` for any node
    count, where ``phase`` is the (n, M) zero array plus
    ``np.multiply.outer(x[:, j], theta[:, j])`` for each j in turn.  A single
    node takes its atoms in one block.
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


def sobolev_norm_sq(values, grid: FrequencyGrid, hermitian_tol: float = 1e-8) -> float:
    """Quadrature of |values|^2 against the Sobolev weight.

    ``values`` are transform samples on ``grid.nodes`` and must satisfy
    value(-theta) = conj(value(theta)) within ``hermitian_tol``.
    """
    v = np.asarray(values, dtype=complex)
    if v.shape != (grid.node_count,):
        raise ValueError("transform values must match the grid nodes")
    defect = float(np.max(np.abs(v[::-1] - np.conj(v)))) if v.size else 0.0
    if defect > hermitian_tol * max(1.0, float(np.max(np.abs(v)))):
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


def rate_fit(pairs) -> RateFit:
    """Ordinary least squares of log(error) on log(n) over (n, error) pairs."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("rate_fit needs at least 3 (n, error) pairs")
    if np.any(arr <= 0.0):
        raise ValueError("rate_fit requires positive sizes and errors")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))


def slope_confidence(pairs, z: float = 1.96) -> tuple[float, float, float]:
    """(slope, ci_low, ci_high) from the OLS standard error of the slope."""
    arr = np.asarray(pairs, dtype=float)
    fit = rate_fit(arr)
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    resid = y - (fit.slope * x + fit.intercept)
    dof = max(1, x.size - 2)
    se = float(np.sqrt(np.sum(resid**2) / dof / np.sum((x - x.mean()) ** 2)))
    return fit.slope, fit.slope - z * se, fit.slope + z * se
