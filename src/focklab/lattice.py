"""Square-lattice discretization of measures into rank-one kernel sums.

A measure is replaced by its cell masses on the grid of side r, each cell by
the normalized-kernel projection at its center.  The discretized operator
converges to the original in trace norm as r shrinks, with the summed cell
masses certifying a nuclear-norm upper bound throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FocklabError, ResourceError
from .fock import FockParams, conjugate_exponent, kernel_grid, norm
from .measure import (GaussianDensity, MeasureSymbol, PointMasses,
                      UniformDisk, berezin_lr_norm, disk_cell_area,
                      require_positive, total_variation)
from .numerics import check_budget, erf, real_fsum
from .toeplitz import (TruncatedOperator, _pairing_matrix, build_from_measure,
                       schatten_norm, singular_values)

_CELL_DROP = 1e-15
# a square the partition visits, and the cell it may become paired at
# truncation N, per N^2 (unit disk at side 1e-3: 101 bytes, 0.33 us, 0.54 ns).
# The pairing cost is the unfolded sum's: a partition folded by its quarter
# turns pays less, down to a sixteenth for a disk or a centred Gaussian, so
# the budget over-counts it
_SQUARE_BYTES = 100
_SQUARE_SECONDS = 3.3e-7
_PAIRING_SECONDS = 5.5e-10
# i^-q for the quarter turn q
_TURNED_BACK = np.array([1.0, -1j, -1.0, 1j])
# below about a hundred cells the fold's own bookkeeping (50-100 us) costs
# what it saves; at N = 64 a disk's 69 cells take 700 us folded against
# 620 us unfolded, its 241 cells 850 us against 1,120 us
_FOLD_MIN_CELLS = 128


class LatticePartition:
    """Cell masses of a measure on the square lattice of side r.

    ``cells`` holds one (center, mass) row per cell, in the order the
    partition's builder emits them.  Cells of mass under 1e-15 |mu|(C) are
    left out, so over S squares the listed masses sum to mu(C) within
    S x 1e-15 |mu|(C).
    """

    __slots__ = ("r", "cells")

    def __init__(self, r: float, cells: np.ndarray):
        self.r, self.cells = r, cells


def _cell_index(x, y, r: float):
    """Lattice indices, as whole floats, of the cells holding the points.

    Half-open convention: the cell around 0 is -r/2 <= x < r/2.
    """
    with np.errstate(over="ignore"):
        i, j = np.asarray(x) / r + 0.5, np.asarray(y) / r + 0.5
    finite = np.isfinite(i) & np.isfinite(j)
    if not np.all(finite):
        first = np.argmin(finite.ravel())
        point = complex(np.ravel(x)[first], np.ravel(y)[first])
        raise ResourceError(f"lattice side {r!r} cannot index the point "
                            f"{point!r}; use a larger r")
    return np.floor(i), np.floor(j)


def _block(ci, cj, reach: int):
    """Indices of the squares within reach of cell (ci, cj), row-major."""
    offsets = np.arange(-reach, reach + 1.0)
    i, j = np.meshgrid(ci + offsets, cj + offsets, indexing="ij")
    return i.ravel(), j.ravel()


def _point_cells(mu: PointMasses, r: float):
    """Point masses summed per cell, each cell in order of its points."""
    locations = mu.locations
    ij = np.stack(_cell_index(locations.real, locations.imag, r))
    cells, owner = np.unique(ij, axis=1, return_inverse=True)
    masses = np.zeros(cells.shape[1], dtype=complex)
    np.add.at(masses, owner.ravel(), mu.weights)
    return cells[0], cells[1], masses


def _disk_cells(mu: UniformDisk, r: float, reach: int):
    """Cells inside the disk get constant r^2; only the cells its circle
    crosses need the geometry of disk_cell_area, which gives the eight
    images of a cell under the square's symmetries one value, so it is
    evaluated once for each, at the image (a, b) with a >= b >= 0."""
    radius = mu.radius
    i, j = _block(0, 0, reach)
    far = np.hypot((np.abs(i) + 0.5) * r, (np.abs(j) + 0.5) * r)
    near = np.hypot(np.maximum(np.abs(i) - 0.5, 0.0) * r,
                    np.maximum(np.abs(j) - 0.5, 0.0) * r)
    area = np.where(far <= radius, r * r, 0.0)
    crossed = np.flatnonzero((far > radius) & (near < radius))
    a = np.maximum(np.abs(i[crossed]), np.abs(j[crossed]))
    b = np.minimum(np.abs(i[crossed]), np.abs(j[crossed]))
    image = ((a + reach) * (2 * reach + 1) + b + reach).astype(int)
    evaluated = np.zeros(area.size, dtype=bool)
    evaluated[image] = True
    for c in np.flatnonzero(evaluated).tolist():
        area[c] = disk_cell_area((i[c] - 0.5) * r, (i[c] + 0.5) * r,
                                 (j[c] - 0.5) * r, (j[c] + 0.5) * r, radius)
    area[crossed] = area[image]
    inside = area > 0.0
    return i[inside], j[inside], mu.amplitude * area[inside]


def _gaussian_cells(mu: GaussianDensity, r: float, reach: int):
    """Cell masses as the outer product of the two erf differences, times
    the amplitude: the real product commutes and erf is odd, so a centred
    Gaussian's cell masses are invariant under the square's symmetries to
    the bit."""
    s = math.sqrt(mu.beta)
    i, j = _block(*_cell_index(mu.center.real, mu.center.imag, r), reach)
    width = 2 * reach + 1

    def side(k: np.ndarray, x: float) -> np.ndarray:
        return erf(s * ((k + 0.5) * r - x)) - erf(s * ((k - 0.5) * r - x))

    scale_2d = mu.amplitude * math.pi / (4.0 * mu.beta)
    masses = np.outer(side(i[::width], mu.center.real).astype(complex),
                      side(j[:width], mu.center.imag))
    masses *= scale_2d
    return i, j, masses.ravel()


def _squares(mu: MeasureSymbol, r: float) -> tuple[float, float]:
    """(reach, square count) of a disk's or a Gaussian's partition at side r:
    the squares within reach of the centre cell, reach still a float so
    that a side too small shows as a huge count.  Point masses visit no
    squares."""
    if isinstance(mu, UniformDisk):
        reach = 1.0 + np.floor(mu.radius / r + 0.5)
    elif isinstance(mu, GaussianDensity):
        reach = 1.0 + np.ceil(mu.effective_radius(1e-18) / r)
    else:
        return 0.0, 0.0
    return reach, (2.0 * reach + 1.0) * (2.0 * reach + 1.0)


def _check_squares(what: str, squares, truncation: int):
    """Budget for partitions visiting these square counts one after another,
    each cell paired at truncation N (0 for none): time adds up over the
    partitions, memory is the largest one's."""
    check_budget(what, [(max(squares, default=0.0), _SQUARE_BYTES)],
                 [(sum(squares), _SQUARE_SECONDS
                   + _PAIRING_SECONDS * truncation * truncation)])


def lattice_partition(mu: MeasureSymbol, r: float) -> LatticePartition:
    """Cell masses of point masses, a uniform disk or a Gaussian on the
    lattice of side r.

    A disk's or a Gaussian's squares are checked against the budget before
    any is visited.  Cells come in builder order, row-major over the squares
    (_block) or, for point masses, by index (np.unique); those under
    1e-15 |mu|(C) are left out, as LatticePartition bounds.
    """
    if not r > 0.0:
        raise ValueError("lattice side must be positive")
    if isinstance(mu, PointMasses):
        i, j, masses = _point_cells(mu, r)
    elif isinstance(mu, (UniformDisk, GaussianDensity)):
        reach, squares = _squares(mu, r)
        _check_squares(f"lattice side {r!r} over {squares:.3e} squares",
                       [squares], 0)
        cells = _disk_cells if isinstance(mu, UniformDisk) else _gaussian_cells
        i, j, masses = cells(mu, r, int(reach))
    else:
        raise FocklabError("lattice partitions take point masses, uniform "
                           "disks and Gaussians")
    kept = np.abs(masses) >= _CELL_DROP * total_variation(mu)
    centers = np.empty(np.count_nonzero(kept), dtype=complex)
    centers.real, centers.imag = i[kept] * r, j[kept] * r
    cells = np.column_stack((centers, masses[kept]))
    cells.setflags(write=False)
    return LatticePartition(r, cells)


def _quarter_fold(part: LatticePartition):
    """The cells folded onto the quarter plane {Re > 0, Im >= 0} by the
    lattice's quarter turns: (nodes, classes, mass) over the orbits.

    Since e_n(iz) = i^n e_n(z), a cell at i^q w pairs like a cell at w whose
    mass is multiplied by i^{q(n - m)}.  So node w carries the phase
    classes C_rho(w) = sum_q i^{q rho} c(i^q w), the 4-point DFT of the
    masses at its quarter turns, and ``mass`` holds sum_q |c(i^q w)|.  The
    origin meets entry (0, 0) alone, where e_m(0) e_n(0) does not vanish,
    so its mass is class 0's whole.
    """
    centers, masses = part.cells[:, 0], part.cells[:, 1]
    x, y = centers.real, centers.imag
    # the quarter turn q taking the cell's node w to it, w = i^-q x cell
    # (exact: the centres are multiples of r and the turns swap and negate)
    q = (((x <= 0) & (y > 0)) + 2 * ((x < 0) & (y <= 0))
         + 3 * ((x >= 0) & (y < 0)))
    folded = centers * _TURNED_BACK[q]
    order = np.lexsort((folded.imag, folded.real))
    folded, q = folded[order], q[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = folded[1:] != folded[:-1]
    nodes = folded[first]
    by_quarter = np.zeros((4, nodes.size), dtype=complex)
    by_quarter[q, np.cumsum(first) - 1] = masses[order]
    c0, c1, c2, c3 = by_quarter
    even, odd = c0 + c2, c1 + c3
    diff, turned = c0 - c2, 1j * (c1 - c3)
    classes = np.stack((even + odd, diff + turned, even - odd, diff - turned))
    if nodes.size and nodes[0] == 0.0:
        classes[1:, 0] = 0.0
    return nodes, classes, np.abs(by_quarter).sum(axis=0)


def lattice_operator(part: LatticePartition, size: int,
                     params: FockParams) -> TruncatedOperator:
    """Matrix of the discretized operator: cell masses on kernel projections.

    Where two cells share an orbit of the quarter turns, the cells are
    folded onto the quarter plane (_quarter_fold) and paired by phase
    class.  The masses of a disk's or a centred Gaussian's cells are the
    same at all four quarter turns, so classes 1-3 vanish: a quarter of the
    basis samples and a sixteenth of the products.  Cells that share no
    orbit, as most point clouds', are paired as they are, and so are
    partitions of fewer than _FOLD_MIN_CELLS cells, where the fold's own
    bookkeeping costs about what it saves.
    """
    cells = part.cells
    nodes, masses, weights = cells[:, 0], cells[:, 1], None
    if len(cells) >= _FOLD_MIN_CELLS:
        fold = _quarter_fold(part)
        if fold[0].size < len(cells):
            nodes, masses, weights = fold
    entries = _pairing_matrix(nodes, masses, size, params.alpha, mass=weights)
    return TruncatedOperator(entries, size, params,
                             provenance=f"lattice(r={part.r!r},"
                                        f"cells={len(part.cells)})")


def lattice_nuclear_bound(part: LatticePartition, params: FockParams) -> float:
    """Nuclear bound of the discretized operator, using exact unit kernel norms.

    Normalized kernels have weighted p-norm exactly 1 for every exponent, so
    the rank-one cross norms collapse to the scaled summed cell masses; no
    quadrature enters.
    """
    return (params.alpha / math.pi) * real_fsum(
        np.abs(part.cells[:, 1]))


def convergence_study(mu: MeasureSymbol, r_values, size: int,
                      params: FockParams) -> list[dict]:
    """Trace-norm distance of the lattice approximant for each cell size:
    one record of r, s1_error, op_error and nuclear_bound per side.

    Every side's squares, each cell paired at truncation ``size``, are
    checked against the budget together, before the reference is built.
    """
    squares = [_squares(mu, r)[1] for r in r_values if r > 0.0]
    _check_squares(f"lattice sides {', '.join(map(repr, r_values))} over "
                   f"{sum(squares):.3e} squares", squares, size)
    reference = build_from_measure(mu, size, params)
    rows = []
    for r in r_values:
        part = lattice_partition(mu, r)
        approx = lattice_operator(part, size, params)
        diff = TruncatedOperator(approx.entries - reference.entries, size,
                                 params, provenance="difference")
        sigma = singular_values(diff)
        rows.append({"r": float(r),
                     "s1_error": schatten_norm(sigma, 1.0),
                     "op_error": schatten_norm(sigma, math.inf),
                     "nuclear_bound": lattice_nuclear_bound(part, params)})
    return rows


def rigidity_experiment(mu: MeasureSymbol, p: float, q: float,
                        params: FockParams, r: float = 1.0 / 16.0) -> dict:
    """Bracket the nuclear norm of a positive-measure operator at (p, q):
    the record of p, q, lower, upper and kernel_norm_residual.

    The lower witness is the transform's mass, the upper the finest lattice
    rep's nuclear bound; neither depends on (p, q).  What does vary is the
    quadrature residual of the unit-kernel-norm identity at the exponents in
    play, reported as evidence the bracket is exponent-independent.  On a
    grid laid about the kernel's centre c, log |k_c(w)| e^{-alpha|w|^2/2}
    is -alpha |w - c|^2 / 2 at every node whatever c is, so one grid and one
    norm per exponent serve every cell of the partition.
    """
    require_positive(mu, "nuclear-norm rigidity bracketing")
    if not q <= p:
        raise FocklabError("rigidity expects q <= p")
    part = lattice_partition(mu, r)
    upper = lattice_nuclear_bound(part, params)
    lower = (params.alpha / math.pi) * berezin_lr_norm(mu, 1.0, params)
    grid = kernel_grid(params.alpha, 0.0)
    weighted_logs = -0.5 * params.alpha * np.abs(grid.nodes) ** 2
    residual = max(abs(norm(weighted_logs, exponent, params, grid) - 1.0)
                   for exponent in (conjugate_exponent(p), q))
    return {"p": float(p), "q": float(q), "lower": float(lower),
            "upper": float(upper), "kernel_norm_residual": float(residual)}
