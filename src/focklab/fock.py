"""Fock-space primitives: parameters, entire functions, kernels, norms.

The weighted space carries the Gaussian weight e^{-alpha |z|^2 / 2} inside
the L^p integrand and the probability normalization pulls a factor
p*alpha/(2*pi) in front; that prefactor is kept verbatim so closed-form
norms match the quadrature path digit for digit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import GridExtentError, TruncationError
from .numerics import (PolarGrid, complex_fsum, log_basis_coeff,
                       min_angular_nodes, node_count, polar_grid, tail_radius,
                       wrap_phase)

_EVAL_CHUNK = 2048
_LOG_OVERFLOW = 709.0


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


@dataclass(frozen=True)
class EntireFunction:
    """Polynomial (truncated entire function) with log-scale coefficients.

    ``log_mags[n]`` and ``phases[n]`` encode the Taylor coefficient of z^n
    as (ln|c_n|, arg c_n); absent coefficients are -inf entries.
    """

    log_mags: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        lm = np.atleast_1d(np.asarray(self.log_mags, dtype=float))
        ph = np.atleast_1d(np.asarray(self.phases, dtype=float))
        if lm.shape != ph.shape or lm.ndim != 1 or lm.size == 0:
            raise ValueError("coefficient arrays must be equal-length 1-d")
        ph = np.where(np.isneginf(lm), 0.0,
                      np.mod(ph + math.pi, 2.0 * math.pi) - math.pi)
        object.__setattr__(self, "log_mags", lm)
        object.__setattr__(self, "phases", ph)

    @property
    def degree(self) -> int:
        return self.log_mags.size - 1

    def is_zero(self) -> bool:
        return bool(np.isneginf(self.log_mags).all())

    @staticmethod
    def from_coefficients(coeffs) -> "EntireFunction":
        """Build from plain complex Taylor coefficients c_0 .. c_D."""
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        with np.errstate(divide="ignore"):
            lm = np.where(coeffs == 0, -math.inf, np.log(np.abs(coeffs)))
        ph = np.where(coeffs == 0, 0.0, np.angle(coeffs))
        return EntireFunction(lm, ph)


def zero_function(degree: int = 0) -> EntireFunction:
    return EntireFunction(np.full(degree + 1, -math.inf), np.zeros(degree + 1))


def basis_function(n: int, params: FockParams) -> EntireFunction:
    """The normalized monomial e_n(z) = sqrt(alpha^n / n!) z^n."""
    lm = np.full(n + 1, -math.inf)
    lm[n] = log_basis_coeff(n, params.alpha)
    return EntireFunction(lm, np.zeros(n + 1))


def subtract(f: EntireFunction, g: EntireFunction) -> EntireFunction:
    """Coefficientwise f - g with max-log factoring per coefficient."""
    size = max(f.log_mags.size, g.log_mags.size)

    def padded(h):
        lm = np.full(size, -math.inf)
        ph = np.zeros(size)
        lm[: h.log_mags.size] = h.log_mags
        ph[: h.phases.size] = h.phases
        return lm, ph

    lmf, phf = padded(f)
    lmg, phg = padded(g)
    ref = np.maximum(lmf, lmg)
    ref_safe = np.where(np.isneginf(ref), 0.0, ref)
    diff = (np.exp(lmf - ref_safe) * np.exp(1j * phf)
            - np.exp(lmg - ref_safe) * np.exp(1j * phg))
    diff[np.isneginf(ref)] = 0.0
    with np.errstate(divide="ignore"):
        lm = np.where(diff == 0, -math.inf, ref_safe + np.log(np.abs(diff)))
    return EntireFunction(lm, np.where(diff == 0, 0.0, np.angle(diff)))


def _eval_block(f: EntireFunction, nodes: np.ndarray):
    """Per-node (log magnitude, phase angle) of f; log-sum-exp compensated."""
    finite = ~np.isneginf(f.log_mags)
    if not finite.any():
        return np.full(nodes.shape, -math.inf), np.zeros(nodes.shape)
    n = np.nonzero(finite)[0]
    lm = f.log_mags[finite]
    ph = f.phases[finite]
    t = np.abs(nodes)
    with np.errstate(divide="ignore"):
        log_t = np.where(t == 0, -math.inf, np.log(t))
    theta = np.angle(nodes)
    # term log magnitudes: coeff log + n log|z|; n=0 at z=0 contributes 0*log0,
    # which must read as 0, not nan
    with np.errstate(invalid="ignore"):
        term_logs = lm[:, None] + np.where(
            n[:, None] == 0, 0.0, n[:, None] * log_t[None, :])
    ref = term_logs.max(axis=0)
    ref_safe = np.where(np.isneginf(ref), 0.0, ref)
    contrib = np.exp(term_logs - ref_safe[None, :]) * np.exp(
        1j * (ph[:, None] + n[:, None] * theta[None, :]))
    total = contrib.sum(axis=0)
    with np.errstate(divide="ignore"):
        out_log = np.where(total == 0, -math.inf,
                           ref_safe + np.log(np.abs(total)))
    out_log = np.where(np.isneginf(ref), -math.inf, out_log)
    return out_log, np.angle(total)


def eval_log(f: EntireFunction, nodes) -> tuple:
    """Evaluate f on complex nodes, returning (log magnitudes, phases)."""
    nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
    logs = np.empty(nodes.shape)
    phases = np.empty(nodes.shape)
    for start in range(0, nodes.size, _EVAL_CHUNK):
        sl = slice(start, min(start + _EVAL_CHUNK, nodes.size))
        logs[sl], phases[sl] = _eval_block(f, nodes[sl])
    return logs, phases


def evaluate(f: EntireFunction, z: complex) -> complex:
    """Value of f at a point; raises if the value overflows a float."""
    logs, phases = eval_log(f, z)
    lv, pv = float(logs[0]), float(phases[0])
    if lv == -math.inf:
        return 0j
    if lv > _LOG_OVERFLOW:
        raise OverflowError(
            f"value of degree-{f.degree} function overflows at |z| = {abs(z):g}"
            f" (log magnitude {lv:.3g})")
    mag = math.exp(lv)
    return complex(mag * math.cos(pv), mag * math.sin(pv))


def default_degree(alpha: float, max_radius: float) -> int:
    """Truncation degree that keeps kernel tails negligible up to max_radius."""
    return max(64, node_count(4.0 * alpha * max_radius ** 2))


def kernel(z: complex, params: FockParams, degree: int) -> EntireFunction:
    """Truncated reproducing kernel w -> e^{alpha w conj(z)} as a polynomial.

    Coefficients are (alpha conj(z))^n / n!.  The requested degree must push
    the first dropped term below 1e-16 of the kernel's own scale e^{alpha|z|^2/2}.
    """
    z = complex(z)
    alpha = params.alpha
    a = alpha * abs(z)
    if a > 0.0:
        drop_log = (degree + 1) * math.log(a) - float(gammaln(degree + 2))
        budget = math.log(1e-16) + 0.5 * alpha * abs(z) ** 2
        if drop_log >= budget:
            raise TruncationError(
                f"degree {degree} too small for kernel at |z| = {abs(z):g}: "
                f"first dropped term has log magnitude {drop_log:.3g}, "
                f"budget {budget:.3g}")
    n = np.arange(degree + 1)
    if a == 0.0:
        lm = np.full(degree + 1, -math.inf)
        lm[0] = 0.0
        return EntireFunction(lm, np.zeros(degree + 1))
    lm = n * math.log(a) - gammaln(n + 1.0)
    ph = n * wrap_phase(-math.atan2(z.imag, z.real))
    return EntireFunction(lm, ph)


def normalized_kernel(z: complex, params: FockParams, degree: int) -> EntireFunction:
    """Unit-norm kernel k_z = e^{-alpha |z|^2 / 2} K_z, truncated."""
    raw = kernel(z, params, degree)
    return EntireFunction(raw.log_mags - 0.5 * params.alpha * abs(z) ** 2,
                          raw.phases)


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


def norm(f: EntireFunction, p: float, params: FockParams,
         grid: PolarGrid) -> float:
    """Weighted p-norm of f.

    For finite p this is ( (p alpha / (2 pi)) * integral of
    |f(z) e^{-alpha |z|^2 / 2}|^p dA )^{1/p} over the grid; for p = inf the
    supremum of the weighted magnitude over the grid nodes (a lower bound
    of the true essential sup).
    """
    p = _check_exponent(p)
    logs, _ = eval_log(f, grid.nodes)
    weighted_logs = logs - 0.5 * params.alpha * np.abs(grid.nodes) ** 2
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


def inner_product(f: EntireFunction, g: EntireFunction,
                  params: FockParams) -> complex:
    """Exact Hilbert pairing <f, g> via orthonormal-basis coefficients."""
    bf = basis_coefficients(f, params, f.degree + 1)
    bg = basis_coefficients(g, params, g.degree + 1)
    size = max(bf.size, bg.size)
    bf = np.pad(bf, (0, size - bf.size))
    bg = np.pad(bg, (0, size - bg.size))
    return complex_fsum(bf * np.conj(bg))


def inner_product_quadrature(f: EntireFunction, g: EntireFunction,
                             params: FockParams, grid: PolarGrid) -> complex:
    """Hilbert pairing (alpha/pi) * integral of f conj(g) e^{-alpha|z|^2} dA."""
    lf, pf = eval_log(f, grid.nodes)
    lg, pg = eval_log(g, grid.nodes)
    log_mag = lf + lg - params.alpha * np.abs(grid.nodes) ** 2
    _boundary_decay_check(log_mag, grid)
    vals = np.where(np.isneginf(log_mag), 0.0,
                    np.exp(log_mag) * np.exp(1j * (pf - pg)))
    return params.alpha / math.pi * complex_fsum(grid.weights * vals)


def basis_coefficients(f: EntireFunction, params: FockParams,
                       count: int) -> np.ndarray:
    """First ``count`` coefficients of f in the orthonormal basis (e_n)."""
    n = np.arange(count)
    lm = np.full(count, -math.inf)
    ph = np.zeros(count)
    upto = min(count, f.log_mags.size)
    lm[:upto] = f.log_mags[:upto]
    ph[:upto] = f.phases[:upto]
    logs = lm - log_basis_coeff(n, params.alpha)
    out = np.where(np.isneginf(lm), 0.0, np.exp(logs) * np.exp(1j * ph))
    if not np.isfinite(out).all():
        raise OverflowError("basis coefficient overflows a float")
    return out


def kernel_distance_hilbert(z: complex, w: complex, alpha: float) -> float:
    """Closed-form ||k_z - k_w|| in the Hilbert space."""
    zc, wc = complex(z), complex(w)
    ip = np.exp(-0.5 * alpha * (abs(zc) ** 2 + abs(wc) ** 2)
                + alpha * wc * np.conj(zc))
    return math.sqrt(max(0.0, 2.0 - 2.0 * float(np.real(ip))))


def kernel_continuity_probe(z0: complex, deltas, p: float, params: FockParams,
                            grid: PolarGrid, degree: int | None = None) -> list:
    """Distances ||k_{z0 + delta} - k_{z0}|| in the weighted p-norm.

    ``deltas`` are real offsets applied along the real axis; the returned
    list decays to zero as the offsets do, witnessing norm-continuity of
    the normalized kernel field.
    """
    if degree is None:
        # degree only needs to make the kernels truncation-valid at their
        # centers; the Gaussian weight kills the far field, and norm() checks
        # grid adequacy itself.  Sizing by the grid cutoff instead would feed
        # back quadratically (bigger grid, bigger degree, bigger grid).
        radius = abs(complex(z0)) + max(abs(d) for d in deltas)
        degree = default_degree(params.alpha, radius)
    base = normalized_kernel(z0, params, degree)
    out = []
    for d in deltas:
        shifted = normalized_kernel(complex(z0) + float(d), params, degree)
        out.append(norm(subtract(shifted, base), p, params, grid))
    return out
