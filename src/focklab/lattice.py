"""Square-lattice discretization of measures into rank-one kernel sums.

A measure is replaced by its cell masses on the grid of side r, each cell by
the normalized-kernel projection at its center.  The discretized operator
converges to the original in trace norm as r shrinks, with the summed cell
masses certifying a nuclear-norm upper bound throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import FocklabError, ResourceError
from .fock import FockParams, default_degree, norm, norm_grid
from .measure import (Density, GaussianDensity, MeasureSymbol, PointMasses,
                      RadialDensity, berezin_lr_norm, density_values,
                      disk_cell_area, require_positive, support_radius_of,
                      total_variation)
from .numerics import complex_fsum
from .toeplitz import (TruncatedOperator, _pairing_matrix, build_from_measure,
                       schatten_norm)

_CELL_DROP = 1e-15
_CELL_QUAD_NODES = 8
_CELL_BUDGET = 2 * 10 ** 6  # squares one partition may visit


@dataclass(frozen=True)
class LatticePartition:
    """Cell masses of a measure on the square lattice of side r.

    Cells are enumerated ring-major: increasing Chebyshev ring, then
    counterclockwise within the ring.  Cells whose mass fell below the drop
    threshold are accounted in dropped_mass rather than listed.
    """

    r: float
    cells: tuple[tuple[complex, complex], ...]
    dropped_mass: complex = 0j

    def centers(self) -> np.ndarray:
        return np.array([c for c, _ in self.cells], dtype=complex)

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.cells], dtype=complex)


def _ring_major(indexed: dict[tuple[int, int], complex], r: float):
    def key(item):
        (i, j), _ = item
        ring = max(abs(i), abs(j))
        angle = math.atan2(j, i) % (2.0 * math.pi)
        return (ring, angle, i, j)

    return tuple((complex(i * r, j * r), w)
                 for (i, j), w in sorted(indexed.items(), key=key))


def _cell_index(x: float, y: float, r: float) -> tuple[int, int]:
    # Half-open convention: the cell around 0 is -r/2 <= x < r/2.
    i, j = x / r + 0.5, y / r + 0.5
    if not (math.isfinite(i) and math.isfinite(j)):
        raise ResourceError(f"lattice side {r!r} cannot index the point "
                            f"{complex(x, y)!r}; use a larger r")
    return int(math.floor(i)), int(math.floor(j))


def _budget_reach(reach: float, r: float) -> int:
    """The block half-width, once its (2 reach + 1)^2 squares fit the budget.

    reach arrives as a float so that a side too small for the support shows
    up as a huge or infinite count here, before any square is visited.
    """
    side = 2.0 * float(reach) + 1.0
    if not side * side <= _CELL_BUDGET:
        raise ResourceError(
            f"lattice side {r!r} would visit {side * side:.3e} squares, over "
            f"the budget of {_CELL_BUDGET:.0e}; use a larger r")
    return int(reach)


def lattice_partition(mu: MeasureSymbol, r: float) -> LatticePartition:
    """Cell masses of the measure on the lattice of side r."""
    if not r > 0.0:
        raise ValueError("lattice side must be positive")
    indexed: dict[tuple[int, int], complex] = {}
    if isinstance(mu, PointMasses):
        for loc, weight in mu.points:
            ij = _cell_index(loc.real, loc.imag, r)
            indexed[ij] = indexed.get(ij, 0j) + weight
    elif isinstance(mu, RadialDensity) and mu.constant_value is not None:
        radius = mu.support_radius
        reach = _budget_reach(np.floor(radius / r + 0.5) + 1.0, r)
        for i in range(-reach, reach + 1):
            for j in range(-reach, reach + 1):
                area = disk_cell_area((i - 0.5) * r, (i + 0.5) * r,
                                      (j - 0.5) * r, (j + 0.5) * r, radius)
                if area > 0.0:
                    indexed[(i, j)] = mu.constant_value * area
    elif isinstance(mu, GaussianDensity):
        radius = mu.effective_radius(1e-18)
        s = math.sqrt(mu.beta)
        reach = _budget_reach(np.ceil(radius / r) + 1.0, r)
        ci, cj = _cell_index(mu.center.real, mu.center.imag, r)
        scale_2d = mu.amplitude * math.pi / (4.0 * mu.beta)
        for i in range(ci - reach, ci + reach + 1):
            fx = (erf(s * ((i + 0.5) * r - mu.center.real))
                  - erf(s * ((i - 0.5) * r - mu.center.real)))
            for j in range(cj - reach, cj + reach + 1):
                fy = (erf(s * ((j + 0.5) * r - mu.center.imag))
                      - erf(s * ((j - 0.5) * r - mu.center.imag)))
                indexed[(i, j)] = scale_2d * fx * fy
    else:
        radius = support_radius_of(mu)
        center = mu.center if isinstance(mu, Density) else 0j
        reach = _budget_reach(np.floor(radius / r + 0.5) + 1.0, r)
        ci, cj = _cell_index(center.real, center.imag, r)
        x, w = np.polynomial.legendre.leggauss(_CELL_QUAD_NODES)
        offset = 0.5 * r * x
        cell_w = np.outer(0.5 * r * w, 0.5 * r * w).ravel()
        for i in range(ci - reach, ci + reach + 1):
            for j in range(cj - reach, cj + reach + 1):
                nodes = ((i * r + offset)[:, None]
                         + 1j * (j * r + offset)[None, :]).ravel()
                values = density_values(mu, nodes)
                mass = complex_fsum(cell_w * values)
                if mass != 0j:
                    indexed[(i, j)] = mass
    floor_mass = _CELL_DROP * total_variation(mu)
    dropped = 0j
    kept: dict[tuple[int, int], complex] = {}
    for ij, weight in indexed.items():
        if abs(weight) < floor_mass:
            dropped += weight
        else:
            kept[ij] = weight
    return LatticePartition(r, _ring_major(kept, r), dropped_mass=dropped)


def lattice_operator(part: LatticePartition, size: int,
                     params: FockParams) -> TruncatedOperator:
    """Matrix of the discretized operator: cell masses on kernel projections."""
    entries = _pairing_matrix(part.centers(), part.weights(), size,
                              params.alpha)
    return TruncatedOperator(entries, size, params,
                             provenance=f"lattice(r={part.r!r},"
                                        f"cells={len(part.cells)})")


def lattice_nuclear_bound(part: LatticePartition, params: FockParams) -> float:
    """Nuclear bound of the discretized operator, using exact unit kernel norms.

    Normalized kernels have weighted p-norm exactly 1 for every exponent, so
    the rank-one cross norms collapse to the scaled summed cell masses; no
    quadrature enters.
    """
    return (params.alpha / math.pi) * math.fsum(
        abs(w) for _, w in part.cells)


@dataclass(frozen=True)
class ConvergenceRow:
    r: float
    s1_error: float
    op_error: float
    nuclear_bound: float


def convergence_study(mu: MeasureSymbol, r_values, size: int,
                      params: FockParams) -> list[ConvergenceRow]:
    """Trace-norm distance of the lattice approximant for each cell size."""
    reference = build_from_measure(mu, size, params)
    rows = []
    for r in r_values:
        part = lattice_partition(mu, r)
        approx = lattice_operator(part, size, params)
        diff = TruncatedOperator(approx.entries - reference.entries, size,
                                 params, provenance="difference")
        rows.append(ConvergenceRow(
            r=float(r),
            s1_error=schatten_norm(diff, 1.0),
            op_error=schatten_norm(diff, math.inf),
            nuclear_bound=lattice_nuclear_bound(part, params)))
    return rows


@dataclass(frozen=True)
class RigidityRow:
    p: float
    q: float
    lower: float
    upper: float
    kernel_norm_residual: float


@dataclass(frozen=True)
class RigidityReport:
    rows: tuple[RigidityRow, ...]
    lower: float
    upper: float
    slack: float
    within_slack: bool


def rigidity_experiment(mu: MeasureSymbol, pq_grid, params: FockParams,
                        r: float = 1.0 / 16.0,
                        slack: float = 0.05) -> RigidityReport:
    """Bracket the nuclear norm of a positive-measure operator, per (p, q).

    The lower witness is the transform's mass, the upper the finest lattice
    rep's nuclear bound; neither depends on (p, q).  What does vary is the
    quadrature residual of the unit-kernel-norm identity at the exponents in
    play, reported per row as evidence the bracket is exponent-independent.
    """
    require_positive(mu, "nuclear-norm rigidity bracketing")
    part = lattice_partition(mu, r)
    upper = lattice_nuclear_bound(part, params)
    lower = (params.alpha / math.pi) * berezin_lr_norm(mu, 1.0, params)
    probes = list(dict.fromkeys(
        [c for c, _ in part.cells[:4]] + [c for c, _ in part.cells[-4:]]))
    rows = []
    for p, q in pq_grid:
        if not q <= p:
            raise FocklabError("rigidity grid expects q <= p")
        run = FockParams(alpha=params.alpha, p=p, q=q)
        residual = 0.0
        for center in probes:
            grid = norm_grid(run, default_degree(run.alpha, abs(center)))
            # log |k_c(w)| e^{-alpha |w|^2 / 2} in closed form
            weighted_logs = -0.5 * run.alpha * np.abs(grid.nodes - center) ** 2
            for exponent in (run.p_conjugate, run.q):
                residual = max(residual, abs(
                    norm(weighted_logs, exponent, run, grid) - 1.0))
        rows.append(RigidityRow(p=float(p), q=float(q), lower=lower,
                                upper=upper, kernel_norm_residual=residual))
    within = upper <= lower * (1.0 + slack) + 1e-12
    return RigidityReport(rows=tuple(rows), lower=lower, upper=upper,
                          slack=slack, within_slack=within)
