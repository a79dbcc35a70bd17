import math
import random

import mpmath
import numpy as np
import pytest

from focklab import fock, numerics
from focklab.errors import GridExtentError, ResourceError
from focklab.fock import (FockParams, conjugate_exponent,
                          kernel_continuity_probe, kernel_grid, norm)
from focklab.numerics import (complex_fsum, log_factorial, polar_grid,
                              tail_radius)


def log_basis_coeff(n, alpha):
    """ln sqrt(alpha^n / n!), the log of e_n's normalization."""
    return 0.5 * (n * math.log(alpha) - log_factorial(n))


def basis_norm_exact(n, p, params):
    """Closed-form weighted p-norm of the normalized monomial e_n."""
    alpha = params.alpha
    if p == math.inf:
        # peak of t^n e^{-alpha t^2 / 2} at t = sqrt(n / alpha)
        log_peak = log_basis_coeff(n, alpha) + (
            0.5 * n * (math.log(n / alpha) - 1.0) if n > 0 else 0.0)
        return math.exp(log_peak)
    log_val = (math.log(p * alpha) + 0.5 * p * (n * math.log(alpha)
                                                - math.lgamma(n + 1.0))
               + math.lgamma(0.5 * n * p + 1.0) - math.log(2.0)
               - (0.5 * n * p + 1.0) * math.log(0.5 * p * alpha))
    return math.exp(log_val / p)


def weighted_kernel(z, w, alpha):
    """Unit-norm kernel times the weight, k_z(w) e^{-alpha |w|^2 / 2}, in
    closed form exp(-alpha |w - z|^2 / 2 + i alpha Im(w conj(z)))."""
    z = complex(z)
    w = np.asarray(w, dtype=complex)
    return np.exp(-0.5 * alpha * np.abs(w - z) ** 2
                  + 1j * alpha * (w * z.conjugate()).imag)


def poly_grid(params, degree):
    """Origin-centred grid on which weighted p-norms of polynomials up to
    ``degree`` pass the tail check; the cutoff covers the widest integrand,
    p = 1 (t^degree e^{-alpha t^2/2})."""
    radius = tail_radius(0.5 * params.alpha, degree, 1e-13)
    return polar_grid(radius, max(64, 2 * degree), max(64, 2 * degree + 2))


def monomial_logs(n, params, grid):
    """log|e_n(w)| - alpha|w|^2/2 at the grid nodes (which avoid w = 0)."""
    w = np.abs(grid.nodes)
    return (log_basis_coeff(n, params.alpha) + n * np.log(w)
            - 0.5 * params.alpha * w ** 2)


def polynomial_logs(coeffs, params, grid):
    """Weighted log magnitudes of sum_n coeffs[n] w^n at the grid nodes."""
    values = np.polyval(np.asarray(coeffs)[::-1], grid.nodes)
    with np.errstate(divide="ignore"):
        return (np.log(np.abs(values))
                - 0.5 * params.alpha * np.abs(grid.nodes) ** 2)


def kernel_logs(z, params, nodes):
    """log|k_z(w)| - alpha|w|^2/2 = -alpha|w - z|^2/2 at the nodes."""
    return -0.5 * params.alpha * np.abs(nodes - z) ** 2


class TestParams:

    def test_conjugate_endpoints(self):
        assert conjugate_exponent(1.0) == math.inf
        assert conjugate_exponent(math.inf) == 1.0
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FockParams(alpha=0.0)
        with pytest.raises(ValueError):
            FockParams(alpha=math.nan)


class TestKernel:

    def test_coefficients(self):
        # the closed form sums its Taylor series
        # sum_n e_n(w) conj(e_n(z)) e^{-alpha (|z|^2 + |w|^2) / 2}
        params = FockParams(alpha=0.5)
        n = np.arange(80)
        for z, w in [(2j, 1.0 - 0.5j), (1.5 + 1j, -0.7 + 2j)]:
            terms = np.exp(2.0 * log_basis_coeff(n, params.alpha)
                           - 0.25 * (abs(z) ** 2 + abs(w) ** 2)) * (
                               w * np.conj(z)) ** n
            series = complex(math.fsum(terms.real), math.fsum(terms.imag))
            closed = complex(weighted_kernel(z, w, params.alpha))
            assert closed == pytest.approx(series, rel=1e-13)

    def test_origin_kernel_is_constant_one(self):
        # k_0 = 1, so the weighted kernel is the weight itself
        w = np.array([1.7 - 0.4j, 0j, -3.0 + 2j])
        np.testing.assert_allclose(weighted_kernel(0j, w, 3.0),
                                   np.exp(-1.5 * np.abs(w) ** 2), rtol=1e-15)

    def test_hermitian_symmetry(self):
        # k_z(w) e^{-alpha|w|^2/2} = conj(k_w(z) e^{-alpha|z|^2/2})
        pairs = [(0.5, 1.5j), (1 + 1j, -0.5 + 0.25j), (2.0, 1.0 - 1.0j)]
        for z, w in pairs:
            lhs = complex(weighted_kernel(z, w, 1.0))
            rhs = np.conj(complex(weighted_kernel(w, z, 1.0)))
            assert lhs == pytest.approx(rhs, rel=1e-14)


class TestNormalizedKernel:

    def test_self_evaluation(self):
        # k_z(z) = e^{alpha |z|^2 / 2}, so the weighted value is exactly 1
        for z in (0j, 2.0, 1.5 - 3j):
            assert complex(weighted_kernel(z, z, 1.0)) == 1.0

    def test_unit_hilbert_norm(self):
        params = FockParams(alpha=1.0)
        for z in (0j, 1.0, 1 + 2j):
            # the kernel sits |z| off the centre, as in the continuity probe
            grid = kernel_grid(params.alpha, 2.0 * abs(z))
            assert norm(kernel_logs(z, params, grid.nodes), 2.0, params,
                        grid) == pytest.approx(1.0, rel=1e-10)


class TestNorm:

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0])
    def test_monomial_closed_form(self, p):
        params = FockParams(alpha=1.5)
        grid = poly_grid(params, 16)
        for n in (0, 1, 2, 5, 8):
            assert norm(monomial_logs(n, params, grid), p, params,
                        grid) == pytest.approx(
                basis_norm_exact(n, p, params), rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0])
    def test_kernel_norm_is_one(self, p):
        params = FockParams(alpha=1.0)
        for z in (0j, 1.0, 1 + 2j):
            grid = kernel_grid(params.alpha, 2.0 * abs(z))
            assert norm(kernel_logs(z, params, grid.nodes), p, params,
                        grid) == pytest.approx(1.0, rel=1e-9)

    def test_logs_left_unchanged(self):
        params = FockParams(alpha=1.0)
        grid = kernel_grid(params.alpha, 0.0)
        logs = kernel_logs(0j, params, grid.nodes)
        kept = logs.copy()
        for p in (1.0, 3.0):
            norm(logs, p, params, grid)
            assert np.array_equal(logs, kept)

    def test_zero_iff_zero_function(self):
        params = FockParams(alpha=1.0)
        grid = poly_grid(params, 8)
        assert norm(polynomial_logs([0.0] * 5, params, grid), 2.0, params,
                    grid) == 0.0
        tiny = polynomial_logs([1e-280], params, grid)
        assert norm(tiny, 2.0, params, grid) > 0.0

    def test_small_grid_rejected(self):
        params = FockParams(alpha=1.0)
        grid = polar_grid(2.0, 64, 64)
        with pytest.raises(GridExtentError):
            norm(monomial_logs(50, params, grid), 2.0, params, grid)

    def test_sup_norm_is_lower_bound(self):
        params = FockParams(alpha=1.0)
        grid = poly_grid(params, 12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            deg = int(rng.integers(0, 13))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            logs = polynomial_logs(coeffs, params, grid)
            sup = norm(logs, math.inf, params, grid)
            for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
                assert sup <= norm(logs, p, params, grid) * (1.0 + 1e-12)

    def test_monomial_sup_closed_form(self):
        params = FockParams(alpha=2.0)
        # dense grid so the node supremum approaches the true peak
        grid = polar_grid(6.0, 600, 16)
        approx = norm(monomial_logs(3, params, grid), math.inf, params, grid)
        exact = basis_norm_exact(3, math.inf, params)
        assert approx <= exact
        assert approx == pytest.approx(exact, rel=1e-4)


class TestReproducingProperty:

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_quadrature_pairing_reproduces_values(self, alpha):
        # (alpha/pi) int f(w) conj(k_z(w)) e^{-alpha|w|^2} dA = f(z) e^{-alpha|z|^2/2}
        params = FockParams(alpha=alpha)
        rng = np.random.default_rng(11)
        grid = poly_grid(params, 24)
        weight = np.exp(-0.5 * alpha * np.abs(grid.nodes) ** 2)
        for _ in range(6):
            deg = int(rng.integers(0, 25))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            poly = np.asarray(coeffs)[::-1]
            fnorm = norm(polynomial_logs(coeffs, params, grid), 2.0, params,
                         grid)
            samples = np.polyval(poly, grid.nodes) * weight
            for z in (0.3, -1 + 0.5j, 2 + 2j, 3.0):
                kz = weighted_kernel(z, grid.nodes, alpha)
                via_pairing = (alpha / math.pi) * complex_fsum(
                    grid.weights * (samples * np.conj(kz)))
                expected = np.polyval(poly, z) * math.exp(
                    -0.5 * alpha * abs(z) ** 2)
                assert abs(via_pairing - expected) <= 1e-9 * fnorm


class TestContinuityProbe:

    def test_probe_matches_hilbert_closed_form(self):
        params = FockParams(alpha=1.0)
        deltas = [0.1, 0.05, 0.01]
        out = kernel_continuity_probe(1.0, deltas, 2.0, params)
        assert all(a > b for a, b in zip(out, out[1:]))
        for d, val in zip(deltas, out):
            # ||k_{1+d} - k_1||^2 = 2 - 2 Re<k_{1+d}, k_1>
            #                     = 2 - 2 e^{-alpha d^2 / 2}
            expected = math.sqrt(2.0 - 2.0 * math.exp(-0.5 * params.alpha
                                                      * d * d))
            assert val == pytest.approx(expected, abs=1e-8)

    def test_probe_other_exponents_decrease(self):
        params = FockParams(alpha=1.0)
        out = kernel_continuity_probe(0.5, [0.2, 0.1, 0.02], 4.0 / 3.0, params)
        assert all(a > b for a, b in zip(out, out[1:]))
        assert out[-1] < 0.05

    @pytest.mark.parametrize("alpha", [1.0, 3.0, 1000.0])
    def test_matches_mpmath_reference(self, alpha):
        # ||k_{z1} - k_{z0}||_2 = sqrt(2 - 2 Re<k_{z1}, k_{z0}>) at 50 digits,
        # with <k_{z1}, k_{z0}> = exp(alpha (z1 conj(z0) - (|z1|^2 + |z0|^2) / 2))
        params = FockParams(alpha=alpha)
        z0 = complex(0.6, -0.8) / math.sqrt(alpha)
        deltas = [2.0 ** -k for k in range(0, 9)]
        out = kernel_continuity_probe(z0, deltas, 2.0, params)
        with mpmath.workdps(50):
            a, c0 = mpmath.mpf(alpha), mpmath.mpc(z0.real, z0.imag)
            for d, val in zip(deltas, out):
                c1 = c0 + mpmath.mpf(d)
                pairing = mpmath.exp(a * (c1 * mpmath.conj(c0)
                                          - (abs(c1) ** 2 + abs(c0) ** 2) / 2))
                exact = mpmath.sqrt(2 - 2 * mpmath.re(pairing))
                assert abs(val - exact) / exact < 2e-14, (d, val)

    def test_blocks_and_default_grid(self, monkeypatch):
        # 1000-node blocks (which do not divide the grid) and the default
        # 8,192-node blocks give the same distances to the bit
        params = FockParams(alpha=3.0)
        deltas = [0.5, 0.25, 0.125]
        out = kernel_continuity_probe(0.3 - 0.2j, deltas, 1.0, params)
        monkeypatch.setattr(fock, "_PROBE_BLOCK", 1000)
        assert kernel_continuity_probe(0.3 - 0.2j, deltas, 1.0,
                                       params) == out

    def test_work_budget(self, monkeypatch):
        # nodes x offsets over the time budget stop before the grid is built
        params = FockParams(alpha=1.0)
        nodes = kernel_grid(params.alpha, 1.0).nodes.size
        monkeypatch.setattr(numerics, "_TIME_BUDGET",
                            2.5 * nodes * fock._PROBE_SECONDS)
        assert len(kernel_continuity_probe(0.0, [1.0, 0.5], 2.0, params)) == 2

        def refuse(*args):
            raise AssertionError("grid built")
        monkeypatch.setattr(numerics, "gauss_legendre", refuse)
        with pytest.raises(ResourceError, match="^polar grid of .* s, over"):
            kernel_continuity_probe(0.0, [1.0, 0.5, 0.25], 2.0, params)

    def test_p43_against_kink_centred_quadrature(self):
        # For p < 2, |k_{z0+d} - k_{z0}|^p has a kink at the difference's
        # zero Re(z0) + d/2, off the midpoint the probe's grid is laid about.
        # A second grid laid about that zero resolves it: at the first angle
        # 300 x 300 nodes agree with a 2000 x 2000 midpoint grid to 7e-12,
        # and at the second, the CLI's default, with 1500 x 1500 to 1.2e-14.
        # The bound is the error of the 128 x 130 origin-centred grid that
        # polynomial-degree sizing gave the first angle, 6.34e-8.
        p, params = 4.0 / 3.0, FockParams(alpha=1.0)
        reference = polar_grid(12.0, 300, 300)
        deltas = [2.0 ** -k for k in range(7)]
        for angle in (4.002148315014479,
                      random.Random(0).uniform(0.0, 2.0 * math.pi)):
            z0 = complex(math.cos(angle), math.sin(angle))
            out = kernel_continuity_probe(z0, deltas, p, params)
            for d, val in zip(deltas, out):
                nodes = z0.real + 0.5 * d + reference.nodes
                with np.errstate(divide="ignore"):
                    logs = np.log(np.abs(weighted_kernel(z0 + d, nodes, 1.0)
                                         - weighted_kernel(z0, nodes, 1.0)))
                assert abs(val - norm(logs, p, params, reference)) < 6.4e-8, \
                    (angle, d)
