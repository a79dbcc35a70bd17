"""Log-scale special functions and polar quadrature over the complex plane.

Everything downstream (basis sampling, operator assembly, lacunary series)
routes magnitude bookkeeping through log-scale values so that factorials and
Gaussian weights never materialize as overflowing floats.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammainccinv, gammaln

from .errors import QuadratureError, ResourceError

TWO_PI = 2.0 * math.pi
# leggauss(n) holds two n x n float arrays (16 n^2 bytes) and a grid takes
# about 24 bytes a node; each budget is where that reaches 8 GB of RAM
_RADIAL_BUDGET = 23_000
_NODE_BUDGET = 3.5e8


def complex_fsum(values) -> complex:
    """Correctly rounded sum of complex samples, real and imaginary parts apart."""
    return complex(math.fsum(values.real), math.fsum(values.imag))


def log_basis_coeff(n, alpha: float):
    """Log magnitude of the monomial basis normalization sqrt(alpha^n / n!).

    Returns (n ln alpha - ln n!) / 2; vectorized over n.
    """
    if not alpha > 0.0:
        raise ValueError(f"weight parameter must be positive, got {alpha!r}")
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("basis index must be nonnegative")
    out = 0.5 * (n * math.log(alpha) - gammaln(n + 1.0))
    return float(out) if out.ndim == 0 else out


def tail_radius(alpha: float, power: float, tol: float = 1e-14) -> float:
    """Cutoff radius R making the Gaussian moment tail negligible.

    Smallest R with  integral_{|z|>R} |z|^power e^{-alpha |z|^2} dA
    below ``tol`` times the full-plane value.  The tail is an upper
    incomplete gamma function, so R comes from its inverse.
    """
    if not alpha > 0.0:
        raise ValueError(f"weight parameter must be positive, got {alpha!r}")
    if power < 0 or not 0.0 < tol < 1.0:
        raise ValueError("tail_radius needs power >= 0 and tol in (0, 1)")
    a = 0.5 * power + 1.0
    return math.sqrt(float(gammainccinv(a, tol)) / alpha)


def gaussian_tail_fraction(alpha: float, power: float, radius: float) -> float:
    """Fraction of the moment integral of |z|^power e^{-alpha|z|^2} beyond radius."""
    return float(gammaincc(0.5 * power + 1.0, alpha * radius * radius))


def node_count(x: float, rounding=math.ceil):
    """rounding(x) as an int while that is exact; past 2^53 (where a float is
    whole), or when x is not finite, x itself for polar_grid to refuse."""
    return rounding(x) if x <= 2.0 ** 53 else x


def min_angular_nodes(max_degree: int) -> int:
    """Angular node count that resolves polynomial degree ``max_degree`` exactly."""
    return 2 * max_degree + 2


@dataclass(frozen=True)
class PolarGrid:
    """Tensor quadrature grid: Gauss-Legendre radii times equispaced angles.

    ``nodes`` is the flattened complex array (radius-major order) and
    ``weights`` carries the full t dt dtheta Jacobian, so a plain weighted
    sum of samples approximates the area integral over |z| <= cutoff_radius.
    """

    radii: np.ndarray
    radial_weights: np.ndarray
    angles: np.ndarray
    cutoff_radius: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_radial(self) -> int:
        return self.radii.size

    @property
    def n_angular(self) -> int:
        return self.angles.size


def polar_grid(cutoff_radius: float, radial_nodes: int,
               angular_nodes: int) -> PolarGrid:
    """Build a PolarGrid over the disk |z| <= cutoff_radius.

    Node counts over the budget raise ResourceError before any allocation.
    """
    # one count at a time, so a huge int is never converted to a float
    if not (radial_nodes <= _RADIAL_BUDGET and angular_nodes <= _NODE_BUDGET
            and radial_nodes * angular_nodes <= _NODE_BUDGET):
        raise ResourceError(
            f"polar grid of {radial_nodes} x {angular_nodes} nodes exceeds "
            f"the budget of {_RADIAL_BUDGET} radial and {_NODE_BUDGET:.3g} "
            f"total nodes")
    if not cutoff_radius > 0.0:
        raise ValueError(f"cutoff radius must be positive, got {cutoff_radius!r}")
    if radial_nodes < 1 or angular_nodes < 4:
        raise ValueError("need radial_nodes >= 1 and angular_nodes >= 4")
    x, w = np.polynomial.legendre.leggauss(int(radial_nodes))
    radii = 0.5 * cutoff_radius * (x + 1.0)
    radial_weights = 0.5 * cutoff_radius * w
    angles = TWO_PI * np.arange(int(angular_nodes)) / angular_nodes
    nodes = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    # Jacobian t dt dtheta; all weights strictly positive.
    weights = ((radial_weights * radii)[:, None]
               * np.full(angular_nodes, TWO_PI / angular_nodes)[None, :]).ravel()
    return PolarGrid(radii=radii, radial_weights=radial_weights, angles=angles,
                     cutoff_radius=float(cutoff_radius), nodes=nodes,
                     weights=weights)


def _samples(f, grid: PolarGrid) -> np.ndarray:
    values = f(grid.nodes) if callable(f) else np.asarray(f)
    values = np.broadcast_to(np.asarray(values, dtype=complex), grid.nodes.shape)
    finite = np.isfinite(values.real) & np.isfinite(values.imag)
    if not finite.all():
        i = int(np.argmin(finite))
        raise QuadratureError(
            f"non-finite sample {values[i]!r} at node {grid.nodes[i]!r}")
    return values


def integrate_plane(f, grid: PolarGrid) -> complex:
    """Area integral of ``f`` over the grid's disk.

    ``f`` is either a callable applied to ``grid.nodes`` or a sample array
    in node order.  The reduction is an exact compensated sum in fixed node
    order, so the result does not depend on how samples were produced.
    """
    values = _samples(f, grid)
    return complex_fsum(grid.weights * values)


def lr_norm(f, grid: PolarGrid, r: float, extra_samples=()) -> float:
    """L^r(dA) norm of ``f`` over the grid; r = inf takes the node supremum.

    ``extra_samples`` lets callers fold in probe values at points the polar
    grid cannot hit (its radii exclude the origin).
    """
    values = _samples(f, grid)
    mags = np.abs(values)
    extras = [abs(complex(v)) for v in extra_samples]
    if r == math.inf:
        peak = float(mags.max()) if mags.size else 0.0
        return max([peak] + extras) if extras else peak
    if not r >= 1.0:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {r!r}")
    return math.fsum(grid.weights * mags ** r) ** (1.0 / r)
