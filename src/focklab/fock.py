"""Fock-space primitives: parameters, kernel grids, weighted norms.

The weighted space carries the Gaussian weight e^{-alpha |z|^2 / 2} inside
the L^p integrand and the probability normalization pulls a factor
p*alpha/(2*pi) in front; that prefactor is kept verbatim so closed-form
norms match the quadrature path digit for digit.
"""

import math

import numpy as np

from .errors import GridExtentError
from .numerics import PolarGrid, node_count, polar_grid, real_fsum

# In u = sqrt(alpha)(w - c) a unit kernel's weighted modulus is e^{-|u|^2/2};
# past |u| = 8.5 the widest integrand (p = 1) keeps e^{-36}, 2e-16 of its mass
_KERNEL_MARGIN = 8.5
# the continuity probe evaluates blocks of nodes, a node at each offset in
# 0.3 us (alpha 1000, 4.5e5 nodes at 7 offsets: 0.30 us)
_PROBE_BLOCK = 1 << 13
_PROBE_SECONDS = 3e-7


def conjugate_exponent(p: float) -> float:
    """Holder conjugate with the endpoints mapped explicitly."""
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    if not p > 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {p!r}")
    return p / (p - 1.0)


def _check_exponent(p: float) -> float:
    p = float(p)
    if p != math.inf and not p >= 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {p!r}")
    return p


class FockParams:
    """Weight parameter alpha of the Gaussian weight e^{-alpha |z|^2}."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        self.alpha = alpha
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")


def _boundary_decay_check(scaled_logs: np.ndarray, grid: PolarGrid,
                          nats: float = math.log(1e12)):
    """Reject a grid whose outermost ring still carries integrand mass;
    return the peak.

    ``scaled_logs`` are log magnitudes of the quantity being integrated (or
    maximized), in node order.  An all-zero integrand passes trivially.
    """
    peak = float(scaled_logs.max())
    ring = float(scaled_logs[-grid.n_angular:].max())
    if peak > -math.inf and ring > peak - nats:
        raise GridExtentError(
            f"grid cutoff {grid.cutoff_radius:g} too small: boundary integrand "
            f"is within {peak - ring:.3g} nats of its peak")
    return peak


def kernel_grid(alpha: float, separation: float, **node_costs) -> PolarGrid:
    """Grid of offsets from the midpoint of two kernels ``separation`` apart.

    In u the kernels are unit Gaussians a = sqrt(alpha) separation / 2 from
    the centre, so a grid of radius R = a + margin in u costs the same at
    every alpha.  24 radial nodes per unit of u and 256 angles hold the p < 2
    kink where the kernels cancel to about 1e-7 (p = 4/3); 2 a R angles sample
    each kernel's phase e^{+-i a Im u} at the Nyquist rate out to radius R.
    """
    scale = math.sqrt(alpha)
    half = 0.5 * scale * separation
    radius = half + _KERNEL_MARGIN
    return polar_grid(radius / scale, node_count(24.0 * radius),
                      max(256, node_count(2.0 * half * radius)), **node_costs)


def norm(weighted_logs: np.ndarray, p: float, params: FockParams,
         grid: PolarGrid) -> float:
    """Weighted p-norm of f from ``weighted_logs`` = log|f(w)| - alpha|w|^2/2
    at ``grid.nodes``.

    For finite p this is ( (p alpha / (2 pi)) * integral of
    |f(z) e^{-alpha |z|^2 / 2}|^p dA )^{1/p} over the grid; for p = inf the
    supremum of the weighted magnitude over the grid nodes (a lower bound
    of the true essential sup).
    """
    p = _check_exponent(p)
    if p == math.inf:
        top = _boundary_decay_check(weighted_logs, grid, nats=1e-9)
        return 0.0 if top == -math.inf else math.exp(top)
    scaled = p * weighted_logs
    ref = _boundary_decay_check(scaled, grid)
    if ref == -math.inf:
        return 0.0
    # integrate relative to the peak so norms survive far outside float
    # range; in place, so a large grid holds one temporary
    scaled -= ref
    np.exp(scaled, out=scaled)
    scaled *= grid.weights
    total = real_fsum(scaled)
    log_norm = (ref + math.log(p * params.alpha / (2.0 * math.pi) * total)) / p
    return math.exp(log_norm)


def kernel_continuity_probe(z0: complex, deltas, p: float,
                            params: FockParams) -> list:
    """Distances ||k_{z0 + delta} - k_{z0}|| in the weighted p-norm.

    ``deltas`` are real offsets applied along the real axis; the returned
    list decays to zero as the offsets do, witnessing norm-continuity of
    the normalized kernel field.  ``kernel_grid`` lays one grid for the
    largest delta, of offsets g from each pair's midpoint z0 + delta/2.
    There the kernels' ratio is k_{z0+delta}/k_{z0} = e^x with
    x = alpha delta (g + i Im z0), so the difference is the larger
    kernel times |expm1(-|Re x| +- i Im x)|, which neither cancels at small
    delta nor overflows at large x.  A grid and offsets over the budget
    raise ResourceError before the grid is built.
    """
    z0 = complex(z0)
    deltas = [float(d) for d in deltas]
    alpha = params.alpha
    grid = kernel_grid(alpha, max(deltas),
                       node_seconds=_PROBE_SECONDS * len(deltas))
    logs = np.empty(grid.nodes.size)
    out = []
    for d in deltas:
        for start in range(0, logs.size, _PROBE_BLOCK):
            g = grid.nodes[start:start + _PROBE_BLOCK]
            x = alpha * d * (g + 1j * z0.imag)
            # log of the larger kernel: -alpha |g -+ delta/2|^2 / 2
            big = 0.5 * (np.abs(x.real) - alpha * (np.abs(g) ** 2
                                                   + 0.25 * d * d))
            with np.errstate(divide="ignore"):
                logs[start:start + _PROBE_BLOCK] = big + np.log(np.abs(
                    np.expm1(np.where(x.real > 0.0, -x, x))))
        out.append(norm(logs, p, params, grid))
    return out
