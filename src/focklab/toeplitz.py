"""Truncated matrix realizations of Toeplitz and Hankel operators.

Matrices act on the span of the first N normalized monomials.  Entry (m, n)
is the pairing of the operator applied to basis input n against basis output
m, so composition of operators is the matrix product in natural order.
"""

from __future__ import annotations

import math

import numpy as np
# numpy loads its fft package on first attribute access; importing it here
# keeps that cost out of every report's compute time
from numpy.fft import fft, ifft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FocklabError, QuadratureError, TruncationError
from .fock import FockParams
from .measure import (GaussianDensity, MeasureSymbol, PointMasses,
                      UniformDisk, density_values, disk_diagonal,
                      support_radius_of)
from .numerics import (TWO_PI, PolarGrid, check_budget, complex_fsum,
                       log_factorial, log_poisson, polar_grid, real_fsum,
                       regularized_gamma, tail_radius)

_TAIL_TOL = 1e-12
# a Gaussian's tail is the share of its trace past N, held to the trace
# tolerance; beta 0.6 at distance 1.5, the widest and farthest Gaussian the
# benchmark draws, reaches 3.7e-10 at N = 64
_GAUSSIAN_TAIL_TOL = 1e-9
_REFINE_TOL = 1e-8
_FLOAT_MAX = float(np.finfo(float).max)
# a ring block's scale factors stay within e^{+-_BLOCK_SPAN}; half the
# float range's exponent leaves room for the products and their sums
_BLOCK_SPAN = 0.5 * math.log(_FLOAT_MAX)
# basis samples one block of a point or cell pairing holds; a folded one
# holds them and their weighted copy in the same bytes
_PAIRING_CHUNK_BYTES = 4 * 2 ** 20
# rows of an operator transform's ring spectrum, DFT bins and samples one
# block holds: a point-cloud schatten report at N = 128 peaks at 37.0 MiB
# RSS with blocks of 1 MiB, 36.6 with 256 KiB, 36.4 with 64 KiB and 36.5
# with 32 KiB (39.8 holding every ring of the grid)
_RING_BLOCK_BYTES = 64 * 2 ** 10
# basis samples of ring radii one call takes, in multiples of 8 radii: a
# call costs about N numpy steps however few radii it samples (at N = 2048,
# 4,096 radii took 73 ms in one call, 99 ms in calls of 512 radii, 16 MiB,
# and 214 ms in calls of 128, 4 MiB)
_SAMPLE_BYTES = 16 * 2 ** 20
# what a transform on the covering grid holds besides its N x N terms: a
# radius, weights and sums a ring, and a block's spectrum, bins, samples
# and their temporaries
_RING_BYTES = 56
_RING_HELD_BYTES = 8 * _RING_BLOCK_BYTES


class TruncatedOperator:
    """N x N matrix of an operator against the normalized monomial basis.

    Row index is the output coefficient, column index the input.  Entries are
    immutable once assembled; provenance records which builder produced them.
    """

    __slots__ = ("entries", "truncation", "params", "provenance")

    def __init__(self, entries: np.ndarray, truncation: int,
                 params: FockParams, provenance: str = ""):
        entries = np.ascontiguousarray(entries, dtype=complex)
        entries.setflags(write=False)
        if entries.shape != (truncation, truncation):
            raise ValueError("entries must be truncation x truncation")
        self.entries, self.truncation = entries, truncation
        self.params, self.provenance = params, provenance


class HankelMatrix(TruncatedOperator):
    """Complex symmetric (not Hermitian) N x N bilinear-pairing matrix."""

    __slots__ = ()

    def __init__(self, entries: np.ndarray, truncation: int,
                 params: FockParams, provenance: str = ""):
        super().__init__(entries, truncation, params, provenance)
        if not np.array_equal(self.entries, self.entries.T):
            raise ValueError("hankel entries must be symmetric")


def _unit_power(z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(z / |z|)^k by repeated squaring of z itself (1 at z = 0).

    The input is exact, where the rounding of z / |z| or of arg z would be
    multiplied k-fold.  Each square is first scaled by a power of two
    (exact) to modulus in [1/2, 1), so no partial power overflows or
    underflows whatever k is.
    """
    base = np.where(z == 0, 1.0, z)
    power = np.ones_like(base)
    k = k.copy()
    while np.any(k):
        base *= np.ldexp(1.0, -np.frexp(np.abs(base))[1])
        np.multiply(power, base, out=power, where=(k & 1) == 1)
        base *= base
        k >>= 1
    return power / np.abs(power)


def basis_matrix(nodes, size: int, alpha: float) -> np.ndarray:
    """Weighted basis samples e_n(z_i) e^{-alpha |z_i|^2 / 2} as E[n, i].

    |E[n, i]|^2 is the Poisson weight x^n e^{-x} / n! with x = alpha|z_i|^2,
    so column i peaks at k = min(N - 1, floor(x)).  That entry is seeded in
    log space and the recurrence e_n = e_{n-1} z sqrt(alpha / n) runs up and
    down from it.  Every step moves away from the peak, so no entry
    overflows and none is computed from an underflowed value.
    """
    z = np.asarray(nodes, dtype=complex).ravel()
    with np.errstate(over="ignore"):
        x = np.minimum(alpha * np.abs(z) ** 2, np.finfo(float).max)
    k = np.minimum(size - 1, np.floor(x)).astype(int)
    log_peak = 0.5 * log_poisson(k, x)
    e = np.zeros((size, z.size), dtype=complex)
    e[k, np.arange(z.size)] = np.exp(log_peak) * _unit_power(z, k)
    below_peak = np.arange(size)[:, None] <= k
    above_peak = ~below_peak
    down = np.divide(1.0, z, out=np.zeros_like(z), where=z != 0)
    for n in range(k.max(initial=0), 0, -1):
        np.multiply(e[n], down * math.sqrt(n / alpha), out=e[n - 1],
                    where=below_peak[n])
    for n in range(k.min(initial=size) + 1, size):
        np.multiply(e[n - 1], z * math.sqrt(alpha / n), out=e[n],
                    where=above_peak[n])
    return e


def _quadrature_grid(size: int, params: FockParams, support: float,
                     radial: bool = False) -> PolarGrid:
    """Polar grid resolving products of the first `size` basis functions;
    a radial one has the fewest angles, for sums that read only its radii."""
    cutoff = min(support, tail_radius(params.alpha, 2 * size, 1e-15))
    return polar_grid(cutoff, max(96, 2 * size),
                      4 if radial else max(192, 4 * size))


def _refuse_tail(tail: float, size: int, over: str, remedy: str,
                 tol: float = _TAIL_TOL):
    """TruncationError when the kernel basis tail past N reaches tol."""
    if tail >= tol:
        raise TruncationError(f"kernel basis tail {tail:.3e}{over} exceeds "
                              f"{tol:g} at truncation {size}; {remedy}")


def _density_support(mu) -> float:
    """Radius of a disk about the origin carrying the density."""
    if isinstance(mu, GaussianDensity):
        return (math.hypot(mu.center.real, mu.center.imag)
                + mu.effective_radius(1e-18))
    return support_radius_of(mu)


def _pairing_matrix(nodes, c: np.ndarray, size: int, alpha: float,
                    conjugate_output: bool = True,
                    mass: np.ndarray | None = None) -> np.ndarray:
    """Entries (alpha/pi) sum_i c_i L[m, i] E[n, i], E = basis_matrix(nodes).

    L is conj(E) for the sesquilinear (Toeplitz) pairing and E for the
    bilinear (Hankel) one; c holds point masses or lattice cell masses.
    A c of shape (4, nodes) holds four phase classes instead (a lattice
    folded by its quarter turns, Toeplitz pairing only): entry (m, n) then
    sums class (n - m) mod 4 alone.  Each class is multiplied only in
    the residue blocks it reaches, rows m = a mod 4 against columns
    n = a + rho mod 4, as one batched product of the four blocks, and not
    at all where it is zero.

    The sum runs over blocks of nodes whose basis samples take
    _PAIRING_CHUNK_BYTES (with their weighted copy, for phase classes), so
    memory does not grow with the node count.
    TruncationError when the basis tail past N, weighted by ``mass``
    (|c| unless given), reaches 1e-12: the truncation cannot represent
    mass that far out.
    """
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if mass is None:
        mass = np.abs(c)
    total = real_fsum(mass)
    if total > 0.0:
        _refuse_tail(float(mass @ basis_tail_mass(size, alpha, nodes)) / total,
                     size, f", weighted by mass over {nodes.size} points,",
                     "enlarge N or move the mass nearer the origin")
    folded = c.ndim == 2
    # a folded sum samples the basis up to a multiple of 4 rows, so that its
    # residue blocks are equal; the rows past N are cut off at the end
    rows = -(-size // 4) * 4 if folded else size
    entries = np.zeros((rows, rows), dtype=complex)
    step = max(1, _PAIRING_CHUNK_BYTES // (16 * rows * (1 + folded)))
    for start in range(0, nodes.size, step):
        e = basis_matrix(nodes[start:start + step], rows, alpha)
        if folded:
            _add_residue_blocks(entries, e, c[:, start:start + step])
        else:
            left = np.conj(e) if conjugate_output else e
            entries += left @ (c[start:start + step, None] * e.T)
            del left
        del e
    return (alpha / math.pi) * entries[:size, :size]


def _add_residue_blocks(entries: np.ndarray, e: np.ndarray, c: np.ndarray):
    """Add the phase classes c over one block of nodes to entries:
    conj(E_a) (c_rho E_b).T to the residue block of rows a mod 4 and
    columns b = a + rho mod 4, X_a being the rows X[a::4].  That is one
    product of the four blocks a class, and none for a class that is zero
    on these nodes.

    Each block is summed as the conjugate of E_a conj(c_rho E_b).T, the
    same sum, so that no conjugate copy of e is held beside it.
    """
    blocks = entries.shape[0] // 4
    # entries[4p + a, 4q + b] is by_residue[p, a, q, b]
    by_residue = entries.reshape(blocks, 4, blocks, 4)
    e4 = e.reshape(blocks, 4, -1).swapaxes(0, 1)
    right = np.empty_like(e4)
    a = np.arange(4)
    for rho in range(4):
        if not c[rho].any():
            continue
        # right[a] = conj(c_rho E_{a + rho mod 4})
        np.multiply(e4[rho:], c[rho], out=right[:4 - rho])
        np.multiply(e4[:rho], c[rho], out=right[4 - rho:])
        np.conjugate(right, out=right)
        by_residue[:, a, :, (a + rho) % 4] += np.conj(
            e4 @ right.swapaxes(1, 2))


def _ring_bands(rho: np.ndarray, bilinear: bool = False):
    """Yield (k, m, n, rho_m rho_n) for each band of index pairs sharing k.

    On a ring of radius t, e_n(z) e^{-alpha|z|^2/2} = rho_n(t) e^{i n theta},
    so conj(e_m) e_n carries e^{-i k theta} with k = m - n and e_m e_n
    carries it with k = -(m + n) (bilinear).  Reduced mod the angular node
    count, k is the DFT bin a band meets, and a grid with fewer angles than
    frequencies aliases exactly as the node sum does.
    """
    size = rho.shape[0]
    for s in range(2 * size - 1):
        m = np.arange(max(0, s - size + 1), min(s, size - 1) + 1)
        n = s - m if bilinear else m + size - 1 - s
        yield (-s if bilinear else s + 1 - size), m, n, rho[m] * rho[n]


def _ring_pairing(mu, grid: PolarGrid, size: int, alpha: float,
                  bilinear: bool = False) -> np.ndarray:
    """_pairing_matrix over the grid nodes with c = weights x density.

    Each ring's angular sums come from one FFT of c along that ring.
    """
    with np.errstate(invalid="ignore"):  # inf x 0 parts; refused below
        c = grid.weights * density_values(mu, grid.nodes)
    if not np.all(np.isfinite(c)):
        raise QuadratureError(f"density is not finite on the grid of radius "
                              f"{grid.cutoff_radius:g}")
    c_hat = fft(c.reshape(grid.n_radial, grid.n_angular), axis=1)
    rho = basis_matrix(grid.radii, size, alpha).real
    entries = np.empty((size, size), dtype=complex)
    for k, m, n, prod in _ring_bands(rho, bilinear):
        entries[m, n] = prod @ c_hat[:, k % grid.n_angular]
    return (alpha / math.pi) * entries


def _band_layout(entries: np.ndarray, scale: int) -> np.ndarray:
    """B[m, k + N - 1] = 2^-scale M[m, m - k], zero where m - k leaves
    0..N-1.

    The rows of M, reversed, fill a zeroed buffer with rows of 2N, scaled
    there; read back with rows of 2N - 1, row m moves m columns right, and
    the wrapped zeros fill the rest.
    """
    size = entries.shape[0]
    buffer = np.zeros((size, 2 * size), dtype=complex)
    buffer[:, :size] = entries[:, ::-1]
    flat = buffer.view(float)
    np.ldexp(flat, -scale, out=flat)
    return buffer.ravel()[:size * (2 * size - 1)].reshape(size, -1)


def _ring_spectrum(entries: np.ndarray, radii: np.ndarray, alpha: float,
                   width: int = 0):
    """(k, blocks): blocks yields (start, j0, S) for consecutive rings, with
    S[t - start, j - j0] = sum_m M[m, m - k_j] rho_m(t) rho_{m-k_j}(t); the
    bands past those S holds are zero on its rings.

    k runs over the bands of M from its lowest nonzero one to its highest.
    Rings are taken in span blocks, each about a reference ring b of its
    own.  With x = alpha t^2, rho_m(t)^2 = rho_m(b)^2 (x_t/x_b)^m e^{x_b - x_t},
    so the block's sums are one real matrix product
    (rho_m(t) / rho_m(b))^2 @ P, P[m, k] = rho_m(b) rho_{m-k}(b) M[m, m-k],
    then a factor (t / t_b)^{-k} per column.  The two factors are
    e^{+-((N - 1) ln(x_t/x_b) + x_t - x_b)} at most, so a block spans at
    most _BLOCK_SPAN of g = (N - 1) ln x + x on each side of b, and neither
    factor, the products nor their sums leave the float range.  Rows where
    rho_m(b) underflows hold nothing the block's rings can see and are
    left out, and so are the bands no two kept rows reach.  M is scaled by
    a power of two to modulus at most sqrt(2).

    A span block's product is one call, whose rounding depends on its
    shape; its factors and power of two are applied, and its rows yielded,
    _RING_BLOCK_BYTES of rows of max(width, k.size) complex values at a
    time.  Basis samples are taken _radius_step radii at a time.
    """
    rows, cols = np.nonzero(entries)
    k = np.arange(np.min(rows - cols, initial=0),
                  np.max(rows - cols, initial=-1) + 1)
    return k, _spectrum_blocks(entries, radii, alpha, k, width)


def _spectrum_blocks(entries, radii, alpha, k, width):
    """The blocks of _ring_spectrum."""
    size = entries.shape[0]
    block_rings = max(1, _RING_BLOCK_BYTES // (16 * max(width, k.size, 1)))
    if not k.size:
        yield from _empty_blocks(0, radii.size, block_rings)
        return
    scale = math.frexp(max(np.max(np.abs(entries.real)),
                           np.max(np.abs(entries.imag))))[1]
    low = int(k[0])
    layout = _band_layout(entries, scale)[:, low + size - 1:
                                          low + size - 1 + k.size]
    g = ((size - 1) * (math.log(alpha) + 2.0 * np.log(radii))
         + alpha * radii ** 2)
    padded = np.zeros(3 * size)
    step = _radius_step(size)
    chunk, first, last = None, 0, 0  # basis samples of radii [first, last)
    start = 0
    while start < radii.size:
        b = int(np.searchsorted(g, g[start] + _BLOCK_SPAN, "right")) - 1
        stop = int(np.searchsorted(g, g[b] + _BLOCK_SPAN, "right"))
        rho = np.empty((size, stop - start))
        t = start
        while t < stop:
            if t >= last:
                chunk = None  # freed before the next is sampled
                first, last = t, min(radii.size, t + step)
                chunk = basis_matrix(radii[first:last], size, alpha).real
            u = min(stop, last)
            rho[:, t - start:u - start] = chunk[:, t - first:u - first]
            t = u
        if stop >= last:
            chunk = None
        live = np.flatnonzero(rho[:, b - start])
        lo, hi = int(live[0]), int(live[-1]) + 1
        # the bands k_j, j in [j0, j1), that pair two kept rows
        j0, j1 = max(0, lo - hi + 1 - low), min(k.size, hi - lo - low)
        if j0 >= j1:
            yield from _empty_blocks(start, stop, block_rings)
            start = stop
            continue
        # rho_{m - k_j}(b) for m in [lo, hi) is constant along diagonals:
        # a window view of rho(b) between zeros, reversed
        padded[size:2 * size] = rho[:, b - start]
        column = padded[size + lo - low - j1 + 1:size + hi - low - j0]
        shifted = sliding_window_view(column, j1 - j0)[:, ::-1]
        ref = rho[lo:hi, b - start]
        bands = np.multiply(ref[:, None], layout[lo:hi, j0:j1])
        bands *= shifted
        ratio = rho[lo:hi].T / ref
        del rho, ref
        np.multiply(ratio, ratio, out=ratio)
        block = (ratio @ bands.view(float)).view(complex)
        del ratio, bands
        shrink = np.log(radii[b] / radii[start:stop])
        for s in range(0, stop - start, block_rings):
            part = block[s:s + block_rings]
            part *= np.exp(np.multiply.outer(shrink[s:s + block_rings],
                                             k[j0:j1]))
            flat = part.view(float)
            np.ldexp(flat, scale, out=flat)
            yield start + s, j0, part
        start = stop


def _empty_blocks(start: int, stop: int, block_rings: int):
    """Spectrum blocks of rings start..stop on which every band is zero."""
    for s in range(start, stop, block_rings):
        yield s, 0, np.zeros((min(block_rings, stop - s), 0), dtype=complex)


def _ring_transform(entries: np.ndarray, grid: PolarGrid, alpha: float):
    """Yield (start, F) for consecutive blocks of rings, F[t - start, a] the
    operator transform sum M[m, n] E[m, i] conj(E[n, i]) at node a of
    ring t.

    Band k = m - n of each ring's spectrum meets DFT bin k mod A; bins are
    filled A bands at a time, so a grid with fewer angles than bands
    aliases exactly as the node sum does.  One inverse FFT per ring puts
    back the angular factors e^{i k theta}.
    """
    angular = grid.n_angular
    k, blocks = _ring_spectrum(entries, grid.radii, alpha, angular)
    bins = k % angular
    for start, j0, bands in blocks:
        j1 = j0 + bands.shape[1]
        spectrum = np.zeros((bands.shape[0], angular), dtype=complex)
        for lo in range(j0 - j0 % angular, j1, angular):
            a, b = max(lo, j0), min(lo + angular, j1)
            spectrum[:, bins[a:b]] += bands[:, a - j0:b - j0]
        yield start, ifft(spectrum, axis=1, norm="forward")


def build_from_point_masses(mu: PointMasses, size: int,
                            params: FockParams) -> TruncatedOperator:
    """Matrix of the Toeplitz operator with a finite point-mass symbol."""
    entries = _pairing_matrix(mu.locations, mu.weights, size, params.alpha)
    return TruncatedOperator(entries, size, params,
                             provenance=f"point-masses({len(mu.points)})")


def build_from_density(mu, size: int, params: FockParams) -> TruncatedOperator:
    """Matrix of a Toeplitz operator with a density symbol by 2D quadrature.

    A refined companion grid estimates the quadrature error; disagreement
    beyond 1e-8 is recorded as a warning in the provenance rather than raised.
    """
    if isinstance(mu, PointMasses):
        raise FocklabError("use build_from_point_masses for point masses")
    grid = _quadrature_grid(size, params, _density_support(mu))
    refined = polar_grid(grid.cutoff_radius, (3 * grid.n_radial) // 2,
                         2 * grid.n_angular)
    entries, check = (_ring_pairing(mu, g, size, params.alpha)
                      for g in (grid, refined))
    gap = float(np.max(np.abs(entries - check)))
    provenance = (f"2d-quadrature(radial={grid.n_radial},"
                  f"angular={grid.n_angular})")
    if gap > _REFINE_TOL:
        provenance += f" warning: refinement disagreement {gap:.3e}"
    return TruncatedOperator(entries, size, params, provenance=provenance)


def _gaussian_moments(mu: GaussianDensity, alpha: float):
    """(alpha/g, d scaled by a power of two, x, s) for a e^{-beta|w - c|^2}.

    With g = alpha + beta and d = beta c / g, completing the square gives
    e^{-alpha|w|^2 - beta|w - c|^2} = e^{-g|w - d|^2 - alpha beta|c|^2/g},
    so every pairing integral is a Gaussian mean about d.  x = alpha|d|^2
    and s = alpha^2 beta|c|^2 / g^2, taken as alpha|d| |c| (alpha/g) so
    that no product of an overflow and an underflow meets.  The power of
    two keeps |d| finite for _unit_power and leaves its phase exact.
    """
    c = mu.center
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.float64(mu.beta) / alpha
        share = float(1.0 / (1.0 + ratio))
        d = c / float(1.0 + 1.0 / ratio)
    modulus = math.hypot(d.real, d.imag)
    x = min(alpha * modulus * modulus, _FLOAT_MAX)
    s = alpha * modulus * (math.hypot(c.real, c.imag) * share)
    exponent = math.frexp(max(abs(d.real), abs(d.imag)))[1]
    unit = complex(math.ldexp(d.real, -exponent),
                   math.ldexp(d.imag, -exponent))
    return share, unit, x, s


def _gaussian_toeplitz(mu: GaussianDensity, size: int,
                       alpha: float) -> tuple[np.ndarray, float]:
    """Toeplitz matrix of a e^{-beta|w - c|^2}, T = a conj(B) B^T, and its
    mass-weighted basis tail past N.

    Expanding conj(w)^m w^n about d leaves the lower triangular
    B[n, k] = sqrt(alpha e^{-alpha beta|c|^2/g} alpha^n n! / (k! g^{k+1}))
    d^{n-k} / (n - k)!, whose modulus squared is
    (alpha/g)^{k+1} C(n, k) Pois(n - k; x) e^{-s}.  Each is a term of the
    positive sum T[n, n] / a <= 1, so none overflows in log space.  The
    phases of conj(B[m, k]) B[n, k] multiply to (d/|d|)^{n-m} whatever k
    is, so T = a (M M^T) (d/|d|)^{n-m} with M = |B| real.

    The tail is the mean of P(N, alpha|w|^2) over the normalized Gaussian,
    the share of the whole trace a alpha/beta that rows N and up would
    hold: 1 - (beta/alpha) ||M||_F^2.  It is the Poisson mixture
    sum_j Pois(j; beta|c|^2) I_{alpha/g}(N, j + 1), and (alpha/g)^N for a
    centred Gaussian.  Where alpha/g underflows, the Gaussian is a point
    mass on the kernel's scale, with tail P(N, x).
    """
    share, unit, x, s = _gaussian_moments(mu, alpha)
    n = np.arange(size)
    below = n[:, None] - n[None, :]
    lower = below >= 0
    j = np.where(lower, below, 0)
    log_fact = log_factorial(n)
    with np.errstate(divide="ignore"):
        log_share = np.log(share)
    log_b2 = ((n[None, :] + 1) * log_share + log_fact[:, None]
              - log_fact[None, :] - log_fact[j] + log_poisson(n, x)[j] - s)
    moduli = np.where(lower, np.exp(0.5 * log_b2), 0.0)
    if share > 0.0:
        kept = np.sum(moduli * moduli) * (mu.beta / alpha)
        tail = max(0.0, 1.0 - float(kept))
    else:
        tail = float(regularized_gamma(size, x)[0])
    phase = _unit_power(np.full(size, unit), n)
    phase = np.concatenate((np.conj(phase[:0:-1]), phase))
    return mu.amplitude * ((moduli @ moduli.T) * phase[size - 1 - below]), tail


def _gaussian_hankel(mu: GaussianDensity, size: int,
                     alpha: float) -> np.ndarray:
    """Hankel matrix of a e^{-beta|w - c|^2}: the rank one a (alpha/g) u u^T.

    The Gaussian mean of the holomorphic w^{m+n} about d is d^{m+n}, so
    u_n = sqrt(Pois(n; x) e^{-s}) (d/|d|)^n.  Moduli and phases are each
    indexed symmetrically in (m, n), so the matrix is exactly symmetric;
    at d = 0 it is exactly a (alpha/g) e_0 e_0^T.
    """
    share, unit, x, s = _gaussian_moments(mu, alpha)
    n = np.arange(size)
    moduli = np.exp(0.5 * (log_poisson(n, x) - s))
    phase = _unit_power(np.full(2 * size - 1, unit), np.arange(2 * size - 1))
    outer = np.multiply.outer(moduli, moduli)
    return (mu.amplitude * share) * (outer * phase[n[:, None] + n[None, :]])


def _disk_basis_tail(size: int, x: float) -> float:
    """Mass-weighted basis tail of a disk, X = alpha R^2: the mean of
    P(N, alpha|w|^2) over the disk, (1/X) int_0^X P(N, s) ds.

    That is (X P(N, X) - N P(N + 1, X)) / X
    = Pois(N; X) + (1 - N/X) P(N + 1, X), two nonnegative terms from
    X = N up.  Below N the second is negative and cancels the first, so
    there the tail is taken as the positive sum (1/X) sum_{j >= 1}
    j Pois(N + j; X), whose terms fall by N/(N + j) a step at least and
    sum to less than e^{-90} of the first past j = 20 sqrt(N) + 40.
    """
    if not x > 0.0:
        return 0.0
    if x >= size:
        return float(np.exp(log_poisson(size, x)) + (1.0 - size / x)
                     * regularized_gamma(size + 1, x)[0])
    j = np.arange(1, math.ceil(20.0 * math.sqrt(size)) + 41)
    return float(j @ np.exp(log_poisson(size + j, x))) / x


def build_from_measure(mu: MeasureSymbol, size: int,
                       params: FockParams) -> TruncatedOperator:
    """Toeplitz matrix for any measure.

    Point masses and the Gaussian and disk densities are exact; any other
    density goes through build_from_density's quadrature.  A disk whose
    mass-weighted basis tail past N reaches 1e-12 is refused with
    TruncationError, as point masses are, and so is a Gaussian whose tail
    reaches the trace tolerance 1e-9.
    """
    alpha = params.alpha
    if isinstance(mu, PointMasses):
        return build_from_point_masses(mu, size, params)
    if isinstance(mu, GaussianDensity):
        entries, tail = _gaussian_toeplitz(mu, size, alpha)
        _refuse_tail(tail, size, f", weighted by mass over the Gaussian of "
                     f"beta {mu.beta:g},", "enlarge N, or narrow or centre "
                     "the Gaussian", _GAUSSIAN_TAIL_TOL)
        return TruncatedOperator(entries, size, params,
                                 provenance="closed-form(gaussian)")
    if isinstance(mu, UniformDisk):
        tail = _disk_basis_tail(size, min(alpha * mu.radius ** 2, _FLOAT_MAX))
        _refuse_tail(tail, size, f", weighted by mass over the disk of radius "
                     f"{mu.radius:g},", "enlarge N or shrink the disk")
        entries = np.diag(mu.amplitude * disk_diagonal(mu, size, alpha))
        return TruncatedOperator(entries, size, params,
                                 provenance="closed-form(disk)")
    return build_from_density(mu, size, params)


def build_hankel(mu: MeasureSymbol, size: int,
                 params: FockParams) -> HankelMatrix:
    """Bilinear (small Hankel) pairing matrix of the measure.

    A disk a 1_{|w| <= R} pairs z^{m+n} to zero on every circle unless
    m = n = 0, which leaves a (1 - e^{-alpha R^2}).
    """
    alpha = params.alpha
    if isinstance(mu, GaussianDensity):
        return HankelMatrix(_gaussian_hankel(mu, size, alpha), size, params)
    if isinstance(mu, UniformDisk):
        entries = np.zeros((size, size), dtype=complex)
        x = alpha * mu.radius * mu.radius
        entries[0, 0] = -mu.amplitude * math.expm1(-x)
        return HankelMatrix(entries, size, params)
    if isinstance(mu, PointMasses):
        entries = _pairing_matrix(mu.locations, mu.weights, size, alpha,
                                  conjugate_output=False)
    else:
        grid = _quadrature_grid(size, params, _density_support(mu))
        entries = _ring_pairing(mu, grid, size, alpha, bilinear=True)
    return HankelMatrix(0.5 * (entries + entries.T), size, params)


def basis_tail_mass(size: int, alpha: float, z) -> np.ndarray:
    """Squared-coefficient mass of the normalized kernel at z past index size."""
    return regularized_gamma(size, alpha * np.abs(np.asarray(z)) ** 2)[0]


def trace(op) -> complex:
    """Sum of diagonal entries, compensated."""
    return complex_fsum(np.diagonal(op.entries))


def _covering_grid(op: TruncatedOperator) -> PolarGrid:
    """Grid extending past the support of every retained basis function.

    Its cutoff puts Q(N + 1, alpha R^2) below 1e-13 (tail_radius), and the
    top mode's Gaussian tail Q(N, alpha R^2) lies below that, so truncating
    a plane integral of the transform to the grid loses nothing the matrix
    can see.

    Its nodes are never held: the transforms on it keep a few floats a
    ring and one block of rings (_RING_HELD_BYTES), and the budget counts
    those.  What grows with N^2 is the truncation's own budget.
    """
    size = op.truncation
    cutoff = tail_radius(op.params.alpha, 2 * size, 1e-13)
    if not cutoff * cutoff < _FLOAT_MAX:
        raise QuadratureError(
            f"covering grid at alpha {op.params.alpha:g} needs cutoff "
            f"radius {cutoff:.3g}, whose square is not a finite float")
    radial, angular = max(96, 2 * size), max(64, 2 * size)
    check_budget(f"polar grid of {radial} x {angular} nodes",
                 [(radial, _RING_BYTES), (1, _RING_HELD_BYTES)])
    return polar_grid(cutoff, radial, angular, 0)


def _radius_step(size: int) -> int:
    """Radii one basis_matrix call samples for a transform: _SAMPLE_BYTES
    of them, in multiples of 8.  The products of their samples then round
    each ring's sum as one product over all the radii does, at least for
    an even N, where the radius count is a multiple of 4."""
    return max(8, _SAMPLE_BYTES // (16 * size) // 8 * 8)


def _ring_weights(grid: PolarGrid) -> np.ndarray:
    """Weight t dt dtheta of every node on each ring: PolarGrid.weights,
    which repeats it along the ring."""
    return grid.radial_weights * grid.radii * (TWO_PI / grid.n_angular)


def trace_via_berezin(op: TruncatedOperator) -> complex:
    """Trace recovered as the plane integral of the Berezin transform.

    The covering grid has A > N - 1 equispaced angles, so only the band
    k = 0 of the transform is left (_band_zero_integral).  The matrix
    trace itself is never read.
    """
    return _band_zero_integral(op, _covering_grid(op), 1.0)


def _band_zero_integral(op: TruncatedOperator, grid: PolarGrid,
                        ring_density) -> complex:
    """(alpha/pi) times the integral of the transform against a radial
    density over the grid's radii, from band k = 0 alone.

    Every e^{ik theta} with 0 < |k| <= N - 1 integrates to zero over a
    ring, as its sum over A > N - 1 equispaced angles does, so that is
    2 alpha sum_t w_t t phi(t) sum_m M[m, m] rho_m(t)^2 over the
    Gauss-Legendre radii; ring_density holds phi(t) there.  The radii are
    sampled _SAMPLE_BYTES at a time.
    """
    alpha = op.params.alpha
    size = op.truncation
    diagonal = np.diagonal(op.entries)
    step = _radius_step(size)
    rings = np.empty(grid.n_radial, dtype=complex)
    for start in range(0, grid.n_radial, step):
        # rho_m(t)^2 in place of the samples, as complex numbers: the
        # product takes them as it would take the real squares
        e = basis_matrix(grid.radii[start:start + step], size, alpha)
        np.multiply(e.real, e.real, out=e.real)
        e.imag = 0.0
        rings[start:start + step] = diagonal @ e
        del e
    rings = ring_density * rings
    return 2.0 * alpha * complex_fsum(grid.radial_weights * grid.radii * rings)


def transform_l1_norm(op: TruncatedOperator) -> float:
    """Plane integral of |transform|, scaled by alpha/pi.

    For any trace-class operator this lies below the Schatten 1-norm; no
    pointwise truncation-tail check applies because the integrand is the
    truncated operator's own transform.
    """
    grid = _covering_grid(op)
    alpha = op.params.alpha
    weights = _ring_weights(grid)
    rings = np.empty(grid.n_radial)
    for start, samples in _ring_transform(op.entries, grid, alpha):
        stop = start + samples.shape[0]
        rings[start:stop] = (weights[start:stop, None]
                             * np.abs(samples)).sum(axis=1)
    return (alpha / math.pi) * real_fsum(rings)


def identity_operator(size: int, params: FockParams) -> TruncatedOperator:
    """Truncation of the identity (projection onto the first N modes)."""
    return TruncatedOperator(np.eye(size, dtype=complex), size, params,
                             provenance="identity")


def singular_values(op) -> np.ndarray:
    try:
        return np.linalg.svd(op.entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise FocklabError(f"singular value decomposition failed: {exc}")


def schatten_norm(sigma: np.ndarray, s: float) -> float:
    """Schatten s-norm from descending singular values; s=inf is the operator
    norm."""
    if not s >= 1.0:
        raise ValueError("schatten order must be >= 1")
    if sigma.size == 0:
        return 0.0
    if math.isinf(s):
        return float(sigma[0])
    return real_fsum(sigma ** s) ** (1.0 / s)


def adjoint_isometry_check(op: TruncatedOperator,
                           sigma: np.ndarray | None = None
                           ) -> tuple[float, float]:
    """Trace norms of the operator and its adjoint (equal in exact arithmetic).

    ``sigma``, the operator's singular values if the caller has them, saves
    one decomposition; the adjoint's are always computed.
    """
    if sigma is None:
        sigma = singular_values(op)
    adj = TruncatedOperator(op.entries.conj().T, op.truncation, op.params,
                            provenance=f"adjoint[{op.provenance}]")
    return (schatten_norm(sigma, 1.0),
            schatten_norm(singular_values(adj), 1.0))


def trace_pairing(phi, op: TruncatedOperator) -> tuple[complex, complex]:
    """Trace of T_phi . S two ways: matrix trace and Berezin-transform integral.

    phi must be a density variant; the operator's Berezin transform must be
    truncation-valid over its support.  A disk or a centred Gaussian is
    constant on every ring, so its quadrature side takes band 0 alone on
    radii (_band_zero_integral); any other density is sampled at every node.
    """
    if isinstance(phi, PointMasses):
        raise FocklabError("trace pairing needs a density symbol")
    params = op.params
    size = op.truncation
    radial = isinstance(phi, UniformDisk) or (
        isinstance(phi, GaussianDensity) and phi.center == 0)
    grid = _quadrature_grid(size, params, _density_support(phi), radial)
    tail = float(basis_tail_mass(size, params.alpha, grid.cutoff_radius))
    _refuse_tail(tail, size, " over the symbol support", "enlarge N")
    left = build_from_measure(phi, size, params)
    matrix_side = complex_fsum(np.einsum("ij,ji->i", left.entries,
                                         op.entries))
    if radial:
        quad_side = _band_zero_integral(op, grid,
                                        density_values(phi, grid.radii))
        return matrix_side, quad_side
    weights = _ring_weights(grid)
    unit = np.exp(1j * grid.angles)
    rings = np.empty(grid.n_radial, dtype=complex)
    for start, transform in _ring_transform(op.entries, grid, params.alpha):
        stop = start + transform.shape[0]
        nodes = (grid.radii[start:stop, None] * unit[None, :]).ravel()
        values = density_values(phi, nodes).reshape(transform.shape)
        rings[start:stop] = (weights[start:stop, None] * values
                             * transform).sum(axis=1)
    quad_side = (params.alpha / math.pi) * complex_fsum(rings)
    return matrix_side, quad_side
