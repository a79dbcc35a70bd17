"""Fock-space primitives: parameters, closed-form kernels, norms.

The weighted space carries the Gaussian weight e^{-alpha |z|^2 / 2} inside
the L^p integrand and the probability normalization pulls a factor
p*alpha/(2*pi) in front; that prefactor is kept verbatim so closed-form
norms match the quadrature path digit for digit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import GridExtentError
from .numerics import (PolarGrid, log_basis_coeff, min_angular_nodes,
                       node_count, polar_grid, tail_radius)


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


@dataclass(frozen=True)
class FockParams:
    """Weight parameter alpha plus the exponent pair (p, q) of a run."""

    alpha: float
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        object.__setattr__(self, "p", _check_exponent(self.p))
        object.__setattr__(self, "q", _check_exponent(self.q))

    @property
    def p_conjugate(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def q_conjugate(self) -> float:
        return conjugate_exponent(self.q)


def default_degree(alpha: float, max_radius: float) -> int:
    """Degree past which the Taylor tail of a kernel centred within
    max_radius is negligible; ``norm_grid`` sizes kernel grids by it."""
    return max(64, node_count(4.0 * alpha * max_radius ** 2))


def _boundary_decay_check(scaled_logs: np.ndarray, grid: PolarGrid,
                          nats: float = math.log(1e12)):
    """Reject a grid whose outermost ring still carries integrand mass.

    ``scaled_logs`` are log magnitudes of the quantity being integrated (or
    maximized), in node order.  An all-zero integrand passes trivially.
    """
    peak = float(scaled_logs.max())
    if peak == -math.inf:
        return
    ring = float(scaled_logs[-grid.n_angular:].max())
    if ring > peak - nats:
        raise GridExtentError(
            f"grid cutoff {grid.cutoff_radius:g} too small: boundary integrand "
            f"is within {peak - ring:.3g} nats of its peak")


def norm_grid(params: FockParams, degree: int, radial_nodes: int | None = None,
              angular_nodes: int | None = None) -> PolarGrid:
    """Grid sized so weighted p-norms up to ``degree`` pass the tail check.

    The cutoff covers the widest integrand (p = 1, Gaussian e^{-alpha t^2/2}),
    which dominates every other exponent for the same degree.
    """
    radius = tail_radius(0.5 * params.alpha, degree, 1e-13)
    return polar_grid(radius,
                      radial_nodes or max(64, 2 * degree),
                      angular_nodes or max(64, min_angular_nodes(degree)))


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
        _boundary_decay_check(weighted_logs, grid, nats=1e-9)
        top = float(weighted_logs.max())
        return 0.0 if top == -math.inf else math.exp(top)
    _boundary_decay_check(p * weighted_logs, grid)
    ref = float((p * weighted_logs).max())
    if ref == -math.inf:
        return 0.0
    # integrate relative to the peak so norms survive far outside float range
    total = math.fsum(grid.weights * np.exp(p * weighted_logs - ref))
    log_norm = (ref + math.log(p * params.alpha / (2.0 * math.pi) * total)) / p
    return math.exp(log_norm)


def basis_norm_exact(n: int, p: float, params: FockParams) -> float:
    """Closed-form weighted p-norm of the normalized monomial e_n."""
    p = _check_exponent(p)
    alpha = params.alpha
    if p == math.inf:
        # peak of t^n e^{-alpha t^2 / 2} at t = sqrt(n / alpha)
        log_peak = log_basis_coeff(n, alpha) + (
            0.5 * n * (math.log(n / alpha) - 1.0) if n > 0 else 0.0)
        return math.exp(log_peak)
    log_val = (math.log(p * alpha) + 0.5 * p * (n * math.log(alpha)
                                                - float(gammaln(n + 1.0)))
               + float(gammaln(0.5 * n * p + 1.0)) - math.log(2.0)
               - (0.5 * n * p + 1.0) * math.log(0.5 * p * alpha))
    return math.exp(log_val / p)


def weighted_kernel(z: complex, w, alpha: float) -> np.ndarray:
    """Unit-norm kernel times the weight, k_z(w) e^{-alpha |w|^2 / 2}.

    In closed form exp(-alpha |w - z|^2 / 2 + i alpha Im(w conj(z))), which
    underflows to zero far from z instead of overflowing.
    """
    z = complex(z)
    w = np.asarray(w, dtype=complex)
    return np.exp(-0.5 * alpha * np.abs(w - z) ** 2
                  + 1j * alpha * (w * z.conjugate()).imag)


def kernel_distance_hilbert(z: complex, w: complex, alpha: float) -> float:
    """Closed-form ||k_z - k_w|| in the Hilbert space."""
    zc, wc = complex(z), complex(w)
    ip = np.exp(-0.5 * alpha * (abs(zc) ** 2 + abs(wc) ** 2)
                + alpha * wc * np.conj(zc))
    return math.sqrt(max(0.0, 2.0 - 2.0 * float(np.real(ip))))


def kernel_continuity_probe(z0: complex, deltas, p: float, params: FockParams,
                            grid: PolarGrid) -> list:
    """Distances ||k_{z0 + delta} - k_{z0}|| in the weighted p-norm.

    ``deltas`` are real offsets applied along the real axis; the returned
    list decays to zero as the offsets do, witnessing norm-continuity of
    the normalized kernel field.  The difference is taken node by node.
    """
    base = weighted_kernel(z0, grid.nodes, params.alpha)
    out = []
    for d in deltas:
        shifted = weighted_kernel(complex(z0) + float(d), grid.nodes,
                                  params.alpha)
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(shifted - base))
        out.append(norm(logs, p, params, grid))
    return out
