"""Measure symbols and their Berezin transforms.

A symbol is one of four variants: finite point masses, a sampled density on
a disk, a constant density on a disk about the origin (which unlocks exact
cell geometry), or a Gaussian density.  All Berezin work reduces to the
heat-kernel smoothing
(alpha/pi) * integral of e^{-alpha |z - w|^2} d mu(w).
"""

import math
from typing import Callable

import numpy as np

from .errors import FocklabError, GridExtentError, PositivityError
from .fock import FockParams
from .numerics import (PolarGrid, check_budget, complex_fsum, log_poisson,
                       min_angular_nodes, node_count, polar_grid, real_fsum,
                       regularized_gamma)

_DROP = 1e-15
_ENTRY_SECONDS = 1.8e-8  # a kernel entry (2e5 points x 2,000 masses: 17.4 ns)
_DENSITY_NODE_BYTES = 73  # a density's quadrature node (1.6e6 nodes: 73.0)
# bytes of one complex kernel chunk; a chunk also stays at most 512 rows,
# so every chunk that fits keeps the row grouping BLAS rounds by
_CHUNK_BYTES = 2 ** 26
_TERM_SECONDS = 6e-8  # a Poisson term at a point (2,000 x 1.5e5 terms: 66 ns)
_DIAGONAL_BYTES = 81  # a term of the diagonal a disk mixes (1e7 terms: 81.0)
# Poisson terms one block of a disk's transform holds: 1 MiB of floats
_TERM_BLOCK = 2 ** 17
_FLOAT_MAX = float(np.finfo(float).max)


class PointMasses:
    """Finite atomic measure: sum of weight * delta_location."""

    __slots__ = ("points",)

    def __init__(self, points: tuple):
        self.points = tuple((complex(w), complex(c)) for w, c in points)

    @property
    def locations(self) -> np.ndarray:
        return np.array([w for w, _ in self.points], dtype=complex)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c for _, c in self.points], dtype=complex)


class Density:
    """Absolutely continuous measure func(w) dA(w) on |w - center| <= support_radius.

    ``func`` is sampled on demand at absolute coordinates and must be smooth
    on the support disk, whose radius must be finite; ``positive`` is a caller
    declaration (samples cannot prove positivity of a callable).
    """

    __slots__ = ("func", "support_radius", "center", "positive")

    def __init__(self, func: Callable, support_radius: float,
                 center: complex = 0j, positive: bool = False):
        if not 0.0 < support_radius < math.inf:
            raise ValueError("support radius must be positive and finite")
        self.func, self.support_radius = func, support_radius
        self.center, self.positive = complex(center), positive


class UniformDisk:
    """Constant density amplitude * 1_{|w| <= radius} dA(w).

    Downstream code integrates it by closed-form geometry where it can.
    """

    __slots__ = ("amplitude", "radius")

    def __init__(self, amplitude: complex, radius: float):
        if not 0.0 < radius < math.inf:
            raise ValueError("disk radius must be positive and finite")
        self.amplitude, self.radius = complex(amplitude), float(radius)


class GaussianDensity:
    """Gaussian density amplitude * e^{-beta |w - center|^2} dA(w)."""

    __slots__ = ("amplitude", "beta", "center")

    def __init__(self, amplitude: complex, beta: float, center: complex = 0j):
        if not beta > 0.0:
            raise ValueError("beta must be positive")
        self.amplitude, self.beta = complex(amplitude), beta
        self.center = complex(center)

    def effective_radius(self, tol: float = _DROP) -> float:
        """Radius past which the remaining mass fraction drops below tol."""
        return math.sqrt(-math.log(tol) / self.beta)


MeasureSymbol = PointMasses | Density | UniformDisk | GaussianDensity


def is_positive(mu: MeasureSymbol) -> bool:
    """Whether the measure is known to be positive."""
    if isinstance(mu, PointMasses):
        w = mu.weights
        return bool(np.all(w.imag == 0.0) and np.all(w.real >= 0.0))
    if isinstance(mu, (GaussianDensity, UniformDisk)):
        return mu.amplitude.imag == 0.0 and mu.amplitude.real >= 0.0
    return bool(mu.positive)


def require_positive(mu: MeasureSymbol, operation: str):
    if not is_positive(mu):
        raise PositivityError(f"{operation} requires a positive measure")


def support_radius_of(mu: MeasureSymbol) -> float:
    """Radius of a disk about the origin that carries (almost) all the mass."""
    if isinstance(mu, PointMasses):
        locs = mu.locations
        return float(np.abs(locs).max()) if locs.size else 0.0
    if isinstance(mu, Density):
        return abs(mu.center) + mu.support_radius
    if isinstance(mu, UniformDisk):
        return mu.radius
    return math.hypot(mu.center.real, mu.center.imag) + mu.effective_radius()


def total_mass(mu: MeasureSymbol) -> complex:
    """mu(C): the (signed/complex) total mass."""
    if isinstance(mu, PointMasses):
        return complex_fsum(mu.weights)
    if isinstance(mu, GaussianDensity):
        return mu.amplitude * math.pi / mu.beta
    if isinstance(mu, UniformDisk):
        return mu.amplitude * math.pi * mu.radius ** 2
    nodes, weights, values = density_samples(mu)
    return complex_fsum(weights * values)


def total_variation(mu: MeasureSymbol) -> float:
    """|mu|(C): total variation mass."""
    if isinstance(mu, PointMasses):
        return real_fsum(np.abs(mu.weights))
    if isinstance(mu, GaussianDensity):
        return abs(mu.amplitude) * math.pi / mu.beta
    if isinstance(mu, UniformDisk):
        return abs(mu.amplitude) * math.pi * mu.radius ** 2
    nodes, weights, values = density_samples(mu)
    return real_fsum(weights * np.abs(values))


def density_samples(mu: Density, radial_nodes: int = 96,
                    angular_nodes: int | None = None):
    """Quadrature view (nodes, weights, density values) of a sampled density.

    Nodes are absolute complex coordinates; weights carry the area Jacobian.
    """
    grid = polar_grid(mu.support_radius, radial_nodes,
                      angular_nodes or max(128, min_angular_nodes(radial_nodes)))
    nodes = mu.center + grid.nodes
    return nodes, grid.weights, density_values(mu, nodes)


def density_values(mu: MeasureSymbol, nodes) -> np.ndarray:
    """Density values at absolute complex coordinates.

    Sampling a disk or declared-support density outside its support returns
    zero, so callers must keep quadrature domains inside the support to avoid
    integrating across the cutoff jump.
    """
    if isinstance(mu, PointMasses):
        raise FocklabError("point masses have no density values")
    nodes = np.asarray(nodes, dtype=complex)
    if isinstance(mu, Density):
        values = np.where(np.abs(nodes - mu.center) <= mu.support_radius,
                          np.asarray(mu.func(nodes), dtype=complex), 0j)
    elif isinstance(mu, UniformDisk):
        values = np.where(np.abs(nodes) <= mu.radius, mu.amplitude, 0j)
    else:
        values = mu.amplitude * np.exp(-mu.beta * np.abs(nodes - mu.center) ** 2)
    return values


def disk_diagonal(mu: UniformDisk, size: int, alpha: float) -> np.ndarray:
    """P(n + 1, X) for n < size, X = alpha R^2: the disk's Toeplitz diagonal
    over its amplitude.

    P(a, X) = sum_{m >= a} Pois(m; X) is summed up from P(size, X) where
    X < a, and 1 - P = sum_{m < a} Pois(m; X) up from m = 0 elsewhere, so
    each tail is added from its small end, as regularized_gamma does.
    """
    x = min(alpha * mu.radius * mu.radius, _FLOAT_MAX)
    pois = np.exp(log_poisson(np.arange(size), x))
    top = float(regularized_gamma(size, x)[0])
    upper = np.cumsum(np.concatenate(([top], pois[:0:-1])))[::-1]
    return np.where(x < np.arange(1, size + 1), upper, 1.0 - np.cumsum(pois))


def _disk_transform(mu: UniformDisk, z: np.ndarray, alpha: float):
    """a sum_j Pois(j; x) P(j + 1, X), x = alpha|z|^2: a disk's heat transform.

    The angular mean of e^{2 alpha Re(z conj w)} is I_0(2 alpha |z||w|),
    whose power series integrates term by term over the disk (Zhu, GTM
    263), so the transform is the 2-dof noncentral chi-square CDF: a
    Poisson mixture of disk_diagonal.  Every term is positive.  Past the
    Poisson mode both factors fall, the terms by x / (j + 1) a step at
    least, and from j = x + 10 sqrt(x) + 40 on they sum below
    e^{-50} (1 + sqrt(x)) times the term at the mode; the sum stops there
    for every point.
    The term count is checked against the budget before anything is
    allocated, and the terms are summed in blocks of _TERM_BLOCK.
    """
    with np.errstate(over="ignore"):
        x = np.minimum(alpha * np.abs(z) ** 2, _FLOAT_MAX)
    x_max = float(x.max(initial=0.0))
    terms = x_max + 10.0 * math.sqrt(x_max) + 40.0
    check_budget(f"disk transform at {z.size} points of {terms:.3g} Poisson "
                 f"terms", [(terms, _DIAGONAL_BYTES)],
                 [(z.size * terms, _TERM_SECONDS)])
    terms = math.ceil(terms)
    weights = disk_diagonal(mu, terms, alpha)
    j = np.arange(terms)
    width = min(terms, _TERM_BLOCK)
    rows = max(1, _TERM_BLOCK // width)
    out = np.zeros(z.size)
    for start in range(0, z.size, rows):
        block = x[start:start + rows, None]
        for lo in range(0, terms, width):
            pois = np.exp(log_poisson(j[lo:lo + width], block))
            out[start:start + rows] += pois @ weights[lo:lo + width]
    return mu.amplitude * out


def berezin_measure(mu: MeasureSymbol, z, params: FockParams):
    """Heat-kernel transform (alpha/pi) integral e^{-alpha|z-w|^2} d mu(w).

    ``z`` may be a complex scalar or array; the result matches its shape.
    Gaussians and disks are closed forms; point masses and sampled
    densities sum the kernel over their atoms or quadrature nodes.
    """
    alpha = params.alpha
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if isinstance(mu, GaussianDensity):
        s = alpha * mu.beta / (alpha + mu.beta)
        out = (mu.amplitude * alpha / (alpha + mu.beta)
               * np.exp(-s * np.abs(z_arr - mu.center) ** 2))
    elif isinstance(mu, UniformDisk):
        out = _disk_transform(mu, z_arr.ravel(), alpha).reshape(z_arr.shape)
    else:
        if isinstance(mu, PointMasses):
            nodes, node_bytes = len(mu.points), 0
        else:  # nodes resolving e^{-alpha|z-w|^2} over the density's support
            s = support_radius_of(mu)
            freq = node_count(2.0 * alpha * s * float(np.abs(z_arr).max()))
            shape = (max(96, node_count(12.0 * s * math.sqrt(alpha))),
                     max(192, min_angular_nodes(freq + 16)))
            nodes, node_bytes = shape[0] * shape[1], _DENSITY_NODE_BYTES
        check_budget(f"Berezin transform at {z_arr.size} points against "
                     f"{nodes} measure nodes", [(nodes, node_bytes)],
                     [(z_arr.size * nodes, _ENTRY_SECONDS)])
        if isinstance(mu, PointMasses):
            w, c = mu.locations, mu.weights
        else:
            w, wt, values = density_samples(mu, *shape)
            c = wt * values
        rows = min(512, max(1, _CHUNK_BYTES // (16 * max(1, w.size))))
        chunks = []
        for start in range(0, z_arr.size, rows):
            blk = z_arr.ravel()[start:start + rows]
            ker = np.exp(-alpha * np.abs(blk[:, None] - w[None, :]) ** 2)
            chunks.append(ker @ c)
        out = (alpha / math.pi) * np.concatenate(chunks).reshape(z_arr.shape)
    return complex(out[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


_PAD_NATS = 28.1  # e^{-28.1} < 1e-12, so the boundary check clears its budget
# a node berezin_lr_norm takes the transform at (2.6e5, 5 masses: 64.4 bytes)
_LR_NODE_BYTES = 64


def berezin_grid(mu: MeasureSymbol, params: FockParams) -> PolarGrid:
    """Grid over which the Berezin transform carries essentially all its mass.

    The cutoff pads the support by sqrt(28.1 / alpha), a shade over the
    5 / sqrt(alpha) heat-kernel width, so boundary values sit below 1e-12
    of the peak even for mass at the support edge.  A disk's transform is
    radial, so its grid has the fewest angles.
    """
    alpha = params.alpha
    s = support_radius_of(mu)
    radius = s + math.sqrt(_PAD_NATS / alpha)
    radial_nodes = max(128, node_count(12.0 * radius * math.sqrt(alpha)))
    freq = node_count(2.0 * alpha * s * radius, math.floor) + 16
    angular = (4 if isinstance(mu, UniformDisk)
               else max(128, min_angular_nodes(freq)))
    return polar_grid(radius, radial_nodes, angular, _LR_NODE_BYTES)


def berezin_lr_norm(mu: MeasureSymbol, r: float, params: FockParams) -> float:
    """L^r(dA) norm of the Berezin transform of mu over ``berezin_grid``.

    GridExtentError if the grid's boundary ring still sees the transform.
    For r = inf the supremum also probes the natural peak candidates
    (origin, atoms, centers), since polar nodes never sit exactly there.
    """
    grid = berezin_grid(mu, params)
    if isinstance(mu, UniformDisk):
        # a radial symbol has a radial transform, so one ray of samples
        # plus the exact angular factor replaces the full grid sweep
        mags = np.abs(berezin_measure(mu, grid.radii.astype(complex), params))
        weights = 2.0 * math.pi * grid.radial_weights * grid.radii
        ring = float(mags[-1])
    else:
        mags = np.abs(berezin_measure(mu, grid.nodes, params))
        weights = grid.weights
        ring = float(mags[-grid.n_angular:].max())
    peak = float(mags.max())
    if peak > 0.0 and ring > 1e-12 * peak:
        raise GridExtentError(
            f"berezin grid cutoff {grid.cutoff_radius:g} too small: boundary "
            f"magnitude {ring:.3g} vs peak {peak:.3g}")
    if r == math.inf:
        probes = [0j]
        if isinstance(mu, PointMasses):
            probes.extend(mu.locations.tolist())
        elif not isinstance(mu, UniformDisk):
            probes.append(mu.center)
        extra = [abs(berezin_measure(mu, p, params)) for p in probes]
        return max([peak] + extra)
    if not r >= 1.0:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {r!r}")
    return real_fsum(weights * mags ** r) ** (1.0 / r)


def disk_cell_area(x0: float, x1: float, y0: float, y1: float,
                   radius: float, cx: float = 0.0, cy: float = 0.0) -> float:
    """Area of [x0,x1] x [y0,y1] intersected with a disk, in closed form.

    Evaluated by inclusion-exclusion over corner survival areas, each reduced
    to closed-form circular-segment integrals.  The corner areas are of
    order pi R^2, so the error is absolute, not relative: at most
    6.5e-16 R^2 against 40-digit references on the cells of side 1/16 and
    1/64 that the circles of radius 0.6, 1 and 1.85 cross, where a thin
    sliver's relative error reaches 6.6e-6.

    The rectangle is evaluated at its canonical image under the eight
    symmetries of the square about the disk's centre: the image whose
    centre lies in the octant 0 <= x <= y, where those errors are smallest
    (up to 9.6e-15 R^2 at the image with y <= x).  Negations and the swap
    of the axes are exact, so all eight images get the same value to the
    bit.
    """
    x0, x1 = x0 - cx, x1 - cx
    y0, y1 = y0 - cy, y1 - cy
    if x0 + x1 < 0.0:
        x0, x1 = -x1, -x0
    if y0 + y1 < 0.0:
        y0, y1 = -y1, -y0
    if (x0 + x1, x0, x1) > (y0 + y1, y0, y1):
        x0, x1, y0, y1 = y0, y1, x0, x1
    R = radius

    def half_plane(a: float) -> float:
        # area of disk with X >= a
        if a <= -R:
            return math.pi * R * R
        if a >= R:
            return 0.0
        s = math.sqrt(R * R - a * a)
        return 0.5 * math.pi * R * R - a * s - R * R * math.asin(a / R)

    def corner(a: float, b: float) -> float:
        # area of disk with X >= a, Y >= b
        if a <= -R:
            return half_plane(b)
        if b <= -R:
            return half_plane(a)
        if a < 0.0:
            return half_plane(b) - corner(-a, b)
        if b < 0.0:
            return half_plane(a) - corner(a, -b)
        if a * a + b * b >= R * R:
            return 0.0
        t = math.sqrt(R * R - b * b)

        def antiderivative(x: float) -> float:
            return 0.5 * (x * math.sqrt(R * R - x * x)
                          + R * R * math.asin(x / R)) - b * x

        return antiderivative(t) - antiderivative(a)

    area = (corner(x0, y0) - corner(x1, y0) - corner(x0, y1) + corner(x1, y1))
    return max(0.0, area)
