"""Log-scale special functions and polar quadrature over the complex plane.

Everything downstream (basis sampling, operator assembly, lacunary series)
routes magnitude bookkeeping through log-scale values so that factorials and
Gaussian weights never materialize as overflowing floats.  The special
functions are the few the toolkit needs, at the orders it needs them: ln Gamma
and erf elementwise from ``math``, the regularized incomplete gamma function
at integer order as a Poisson sum, and the Gauss-Legendre rule.  Grid
cutoffs come from a closed-form bound on the Gamma tail, not its inverse.
"""

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import QuadratureError, ResourceError

TWO_PI = 2.0 * math.pi
# What one site may hold: of the 3e9 bytes of address space CI gives a
# report, numpy and two BLAS threads map 0.19e9, and 0.8e9 is kept for what
# the caller holds besides (schatten at N = 4096: 2.5e9, 1.6e9 counted)
_MEMORY_BUDGET = 2e9
# and how long it may work: the largest transform the tests take (6.2 s)
# fits, the unit disk at lattice side 1e-3 and N = 64 (9.9 s) does not
_TIME_BUDGET = 8.0
_RULE_SECONDS = 1.1e-9  # a Gauss-Legendre radius squared (23,000: 0.58 s)
_NODE_BYTES = 24  # a node and its weight (1e7 nodes: 24.0 bytes)
_FLOAT_MAX = float(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)
# floats one list of real_fsum holds: 85,000 take 3.0 ms in lists of 2^9 to
# 2^16 or in one list, 4.5 ms over the array; short lists hold little
_FSUM_BLOCK = 2 ** 10
# s_n = ln(n^n e^{-n} / n!) below n = 16, where Stirling's series is too short
_SMALL_PEAK_OFFSETS = np.array(
    [0.0] + [k * math.log(k) - k - math.lgamma(k + 1.0) for k in range(1, 16)])


def real_fsum(values) -> float:
    """Correctly rounded sum of a float array.

    math.fsum reads it as lists of _FSUM_BLOCK Python floats: the same bits
    as over the array, where it would make a numpy scalar of every element,
    and no float object for every element held at once.
    """
    values = np.reshape(values, -1)  # a view of a strided vector
    return math.fsum(itertools.chain.from_iterable(
        values[k:k + _FSUM_BLOCK].tolist()
        for k in range(0, values.size, _FSUM_BLOCK)))


def complex_fsum(values) -> complex:
    """Correctly rounded sum of complex samples, real and imaginary parts apart."""
    return complex(real_fsum(values.real), real_fsum(values.imag))


def _elementwise(f, x):
    """f applied to every float of x; a float for a scalar x."""
    x = np.asarray(x, dtype=float)
    out = np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def log_factorial(n):
    """ln n! = ln Gamma(n + 1), elementwise."""
    return _elementwise(lambda v: math.lgamma(v + 1.0), n)


def erf(x):
    """The error function, elementwise."""
    return _elementwise(math.erf, x)


def log_peak_offset(n):
    """s_n = ln(n^n e^{-n} / n!) for integers n >= 0, elementwise.

    Past n = 15 it comes from Stirling's series, so that the nearly equal
    terms n ln n and ln n! never cancel in floating point.
    """
    n = np.asarray(n)
    k = np.maximum(n, 16).astype(float)
    inv2 = 1.0 / (k * k)
    stirling = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (
        1.0 / 1260.0 - inv2 * (1.0 / 1680.0 - inv2 / 1188.0)))) / k
    return np.where(n < 16, _SMALL_PEAK_OFFSETS[np.minimum(n, 15)],
                    -0.5 * np.log(TWO_PI * k) - stirling)


def log_poisson(n, x):
    """ln Pois(n; x) = ln(x^n e^{-x} / n!) for integers n >= 0 and x >= 0.

    Regrouped as n ln(x/n) + (n - x) + s_n, so that no two large terms
    cancel; ln(x/n) is taken as log1p((x - n)/n) from x = n/2 up, where
    x - n is exact or nearly so.  Elementwise; -inf where x = 0 < n.
    """
    n = np.asarray(n)
    x = np.asarray(x, dtype=float)
    scale = np.maximum(n, 1)
    with np.errstate(divide="ignore"):
        log_ratio = np.where(x < 0.5 * n, np.log(x / scale),
                             np.log1p((x - n) / scale))
    return n * log_ratio + (n - x) + log_peak_offset(n)


def _outward_sum(x: np.ndarray, ratio) -> np.ndarray:
    """1 + r_1 + r_1 r_2 + ... with r_j = ratio(j, x), elementwise.

    Every ratio lies in [0, 1) and falls with j, so once a term is t the
    rest sums below t r / (1 - r); each element stops when that is below
    an ulp of its sum.  Terms are added in blocks of eight between those
    tests, which keeps the per-call overhead of numpy off the inner loop.
    """
    total = np.ones_like(x)
    live = np.arange(x.size)
    term = np.ones(x.size)
    j = 0
    while live.size:
        t, s = x[live], total[live]
        for j in range(j + 1, j + 9):
            r = ratio(j, t)
            term *= r
            s += term
        total[live] = s
        keep = term * r > _EPS * (1.0 - r) * s
        live, term = live[keep], term[keep]
    return total


def regularized_gamma(a: int, x):
    """(P(a, x), Q(a, x)) at integer order a >= 1, elementwise over x >= 0.

    P(a, x) = sum_{n >= a} Pois(n; x) and Q = 1 - P = sum_{n < a} Pois(n; x).
    The smaller of the two is summed outward from its largest term: P for
    x < a, from Pois(a; x) up, and Q for x >= a, from Pois(a - 1; x) down.
    Either tail so keeps its relative accuracy until it underflows.
    """
    x = np.minimum(np.asarray(x, dtype=float), _FLOAT_MAX)
    lower = x < a
    lead = np.exp(log_poisson(a - 1, x))  # Pois(a - 1; x)
    small = np.empty_like(x)
    t = x[lower]
    small[lower] = (lead[lower] * (t / a)
                    * _outward_sum(t, lambda j, t: t / (a + j)))
    t = x[~lower]
    small[~lower] = lead[~lower] * _outward_sum(t, lambda j, t: (a - j) / t)
    return np.where(lower, small, 1.0 - small), np.where(lower, 1.0 - small,
                                                         small)


def tail_radius(alpha: float, power: float, tol: float = 1e-14) -> float:
    """Cutoff radius R making the Gaussian moment tail negligible.

    The tail  integral_{|z|>R} |z|^power e^{-alpha |z|^2} dA  over the
    full-plane value is Q(a, alpha R^2), with a = power / 2 + 1.  A Gamma(a)
    variable is sub-gamma on its right tail with variance factor a and
    scale 1, so Q(a, a + sqrt(2 a t) + t) <= e^{-t} (Boucheron, Lugosi and
    Massart, Concentration Inequalities, OUP 2013, section 2.4); t = ln(1/tol)
    puts the tail below ``tol``.  For tol <= 1e-13 the radius is at most
    1.14 times the exact root, and within 1.005 of it from a = 4097 up.
    """
    if not alpha > 0.0:
        raise ValueError(f"weight parameter must be positive, got {alpha!r}")
    if not (power >= 0 and 0.0 < tol < 1.0):
        raise ValueError("tail_radius needs a power >= 0 and tol in (0, 1)")
    a = 0.5 * power + 1.0
    t = -math.log(tol)
    return math.sqrt((a + math.sqrt(2.0 * a * t) + t) / alpha)


def check_budget(what: str, nbytes=(), seconds=()):
    """ResourceError, its message starting with ``what``, unless the bytes
    and seconds a site will take, sums of (count, unit cost) pairs, fit the
    budgets; a count past the float range (inf, nan, a huge int) is refused."""
    for pairs, budget, unit in ((nbytes, _MEMORY_BUDGET, "bytes"),
                                (seconds, _TIME_BUDGET, "s")):
        need = sum(count * cost if count <= _FLOAT_MAX else math.inf
                   for count, cost in pairs)
        if not need <= budget:
            raise ResourceError(f"{what} needs {need:.3g} {unit}, over the "
                                f"budget of {budget:.3g} {unit}")


def node_count(x: float, rounding=math.ceil):
    """rounding(x) as an int while that is exact; past 2^53 (where a float is
    whole), or when x is not finite, x itself for polar_grid to refuse."""
    return rounding(x) if x <= 2.0 ** 53 else x


def min_angular_nodes(max_degree: int) -> int:
    """Angular node count that resolves polynomial degree ``max_degree`` exactly."""
    return 2 * max_degree + 2


def _legendre_theta(n: int, theta: np.ndarray):
    """(P_n, dP_n/dtheta) at x = cos theta, for 0 < theta <= pi/2.

    The three-term recurrence is carried in the differences
    D_j = P_j - P_{j-1} against u = 1 - x = 2 sin^2(theta/2) (Reinsch's
    form), so no 1 - x cancels near x = 1.  There
    dP_n/dtheta = -sin(theta) P_n'(x) = -n (u P_n - D_n) / sin(theta).
    """
    u = 2.0 * np.sin(0.5 * theta) ** 2
    p, d = 1.0 - u, -u
    up = np.empty_like(u)
    for j in range(1, n):
        np.multiply(u, p, out=up)
        up *= (2.0 * j + 1.0) / (j + 1.0)
        d *= j / (j + 1.0)
        d -= up
        p += d
    return p, -n * (u * p - d) / np.sin(theta)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1].

    The upper half-rule is solved for theta, x = cos theta, with
    Halley's method from Olver's estimate
    theta_k = psi + (psi cot psi - 1) / (8 psi nu^2), psi = j_{0,k} / nu,
    nu = n + 1/2, with the Bessel zeros j_{0,k} from McMahon's series
    past the first two.  From n = 30 up the estimate is within 1e-6 / n,
    and one evaluation of the recurrence takes the nodes to rounding.
    Legendre's equation P'' = -cot(theta) P' - n (n + 1) P in theta gives
    the second derivative.  The weight 2 / (dP_n/dtheta)^2 takes the
    derivative carried to the final theta by its Taylor series, and
    neither it nor the node meets a 1 - x^2, so end weights keep their
    relative accuracy.  O(n^2) time, O(n) memory.  Asymptotic O(n) rules
    exist (Hale and Townsend, SIAM J. Sci. Comput. 35(2), A652-A674, 2013;
    Bogaert, SIAM J. Sci. Comput. 36(3), A1008-A1026, 2014); at the node
    counts used here the recurrence is shorter and fast enough.
    """
    nu = n + 0.5
    beta = (np.arange(1, (n + 1) // 2 + 1) - 0.25) * math.pi
    b2 = 1.0 / (8.0 * beta) ** 2
    zeros = beta + (1.0 - b2 * (124.0 / 3.0 - b2 * (
        120928.0 / 15.0 - b2 * 401743168.0 / 105.0))) / (8.0 * beta)
    zeros[:2] = (2.404825557695773, 5.520078110286311)[:zeros.size]
    psi = zeros / nu
    theta = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * nu * nu)
    order = n * (n + 1.0)
    for _ in range(8):
        p, dp = _legendre_theta(n, theta)
        cot = 1.0 / np.tan(theta)
        ddp = -cot * dp - order * p
        step = -2.0 * p * dp / (2.0 * dp * dp - p * ddp)
        # Halley's error cubes, so a step under 1e-6 / n ends at rounding
        if n * float(np.max(np.abs(step))) < 1e-6:
            break
        theta = theta + step
    else:
        raise ArithmeticError(f"{n}-node Gauss-Legendre rule did not converge")
    dddp = dp / np.sin(theta) ** 2 - cot * ddp - order * dp
    dp += step * (ddp + 0.5 * step * dddp)
    x = np.cos(theta + step)
    if n % 2:
        x[-1] = 0.0
    w = 2.0 / (dp * dp)
    return (np.concatenate((-x[:n // 2], x[::-1])),
            np.concatenate((w[:n // 2], w[::-1])))


class PolarGrid:
    """Tensor quadrature grid: Gauss-Legendre radii times equispaced angles.

    ``nodes`` is the flattened complex array (radius-major order) and
    ``weights`` carries the full t dt dtheta Jacobian, so a plain weighted
    sum of samples approximates the area integral over |z| <= cutoff_radius.
    Both are built on first use, so a radial integral never pays for them.
    """

    def __init__(self, radii: np.ndarray, radial_weights: np.ndarray,
                 angles: np.ndarray, cutoff_radius: float):
        self.radii, self.radial_weights = radii, radial_weights
        self.angles, self.cutoff_radius = angles, cutoff_radius

    @property
    def n_radial(self) -> int:
        return self.radii.size

    @property
    def n_angular(self) -> int:
        return self.angles.size

    @cached_property
    def nodes(self) -> np.ndarray:
        return (self.radii[:, None] * np.exp(1j * self.angles)[None, :]).ravel()

    @cached_property
    def weights(self) -> np.ndarray:
        # Jacobian t dt dtheta; all weights strictly positive.
        return ((self.radial_weights * self.radii)[:, None]
                * np.full(self.n_angular, TWO_PI / self.n_angular)[None, :]
                ).ravel()


def polar_grid(cutoff_radius: float, radial_nodes: int, angular_nodes: int,
               node_bytes: float = _NODE_BYTES,
               node_seconds: float = 0.0) -> PolarGrid:
    """Build a PolarGrid over the disk |z| <= cutoff_radius.

    Node counts over the budget raise ResourceError before any allocation;
    a caller whose work holds or takes more a node passes its own costs.
    """
    nodes = radial_nodes * angular_nodes
    check_budget(f"polar grid of {radial_nodes} x {angular_nodes} nodes",
                 [(nodes, node_bytes)],
                 [(radial_nodes * radial_nodes, _RULE_SECONDS),
                  (nodes, node_seconds)])
    if not cutoff_radius > 0.0:
        raise ValueError(f"cutoff radius must be positive, got {cutoff_radius!r}")
    if radial_nodes < 1 or angular_nodes < 4:
        raise ValueError("need radial_nodes >= 1 and angular_nodes >= 4")
    x, w = gauss_legendre(int(radial_nodes))
    radii = 0.5 * cutoff_radius * (x + 1.0)
    radial_weights = 0.5 * cutoff_radius * w
    angles = TWO_PI * np.arange(int(angular_nodes)) / angular_nodes
    return PolarGrid(radii=radii, radial_weights=radial_weights, angles=angles,
                     cutoff_radius=float(cutoff_radius))


def lr_norm(f, grid: PolarGrid, r: float) -> float:
    """L^r(dA) norm over the grid of ``f``, a callable on ``grid.nodes`` or
    samples in node order; r = inf takes the node supremum."""
    values = f(grid.nodes) if callable(f) else np.asarray(f)
    values = np.broadcast_to(np.asarray(values, dtype=complex), grid.nodes.shape)
    finite = np.isfinite(values.real) & np.isfinite(values.imag)
    if not finite.all():
        i = int(np.argmin(finite))
        raise QuadratureError(
            f"non-finite sample {values[i]!r} at node {grid.nodes[i]!r}")
    mags = np.abs(values)
    if r == math.inf:
        return float(mags.max()) if mags.size else 0.0
    if not r >= 1.0:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {r!r}")
    return real_fsum(grid.weights * mags ** r) ** (1.0 / r)
