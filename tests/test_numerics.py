import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc, gammainccinv

from focklab import numerics
from focklab.errors import QuadratureError, ResourceError
from focklab.numerics import (check_budget, complex_fsum, erf,
                              gauss_legendre, log_factorial, log_poisson,
                              lr_norm, min_angular_nodes, node_count,
                              polar_grid, regularized_gamma, tail_radius)
from focklab.toeplitz import basis_tail_mass

mpmath.mp.dps = 50
FLOAT_MAX = float(np.finfo(float).max)


def mp_gamma_p(a, x):
    return mpmath.gammainc(a, 0, x, regularized=True)


def mp_gamma_q(a, x):
    return mpmath.gammainc(a, x, mpmath.inf, regularized=True)


def relative_error(got, exact):
    """|got - exact| / exact, or |got| when exact underflows a double."""
    if exact < mpmath.mpf(2.0 ** -1022):
        return abs(got)
    return float(abs(mpmath.mpf(got) - exact) / exact)


def plane_integral(values, grid):
    """Area integral over the grid's disk of samples in node order."""
    return complex_fsum(grid.weights * values)


class TestPolarGrid:

    def test_weights_positive_and_sum_to_disk_area(self):
        for radius, nr, na in ((3.0, 24, 16), (8.0, 64, 128), (1.5, 200, 30)):
            grid = polar_grid(radius, nr, na)
            assert (grid.weights > 0).all()
            area = math.fsum(grid.weights)
            assert area == pytest.approx(math.pi * radius ** 2, rel=1e-12)

    def test_constant_integrates_to_area(self):
        grid = polar_grid(3.0, 40, 16)
        val = plane_integral(np.ones_like(grid.nodes), grid)
        assert val.real == pytest.approx(9.0 * math.pi, rel=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_integrates_to_pi_over_alpha(self):
        grid = polar_grid(8.0, 80, 32)
        val = plane_integral(np.exp(-np.abs(grid.nodes) ** 2), grid)
        assert val.real == pytest.approx(math.pi, rel=1e-10)

    def test_odd_monomial_vanishes(self):
        grid = polar_grid(2.0, 30, 16)
        val = plane_integral(grid.nodes, grid)
        assert abs(val) < 1e-12

    def test_angular_selection(self):
        # e^{i j theta} times a radial profile integrates to zero for all
        # frequencies the angle count resolves.
        grid = polar_grid(2.0, 30, 32)
        profile = np.exp(-np.abs(grid.nodes) ** 2)
        budget = 1e-12 * 1.0 * grid.cutoff_radius ** 2
        for j in range(1, grid.n_angular // 2):
            phase = np.exp(1j * j * np.angle(grid.nodes))
            assert abs(plane_integral(profile * phase, grid)) < budget
            assert abs(plane_integral(profile * np.conj(phase), grid)) < budget

    def test_min_angular_nodes(self):
        assert min_angular_nodes(15) == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            polar_grid(0.0, 10, 8)
        with pytest.raises(ValueError):
            polar_grid(1.0, 0, 8)
        with pytest.raises(ValueError):
            polar_grid(1.0, 10, 2)

    @pytest.mark.parametrize("radial, angular", [
        # 200,000 radii take 44 s of Gauss-Legendre rule in 38 MB of nodes
        (200_000, 8), (100, 3_500_001), (8, 3.6e8), (math.inf, 8),
        (8, math.nan), (10 ** 400, 2 * 10 ** 400 + 2)])
    def test_node_budget(self, radial, angular):
        with pytest.raises(ResourceError):
            polar_grid(1.0, radial, angular)

    @pytest.mark.parametrize("count", [math.inf, math.nan, 10 ** 400])
    def test_budget_refuses_before_allocating(self, monkeypatch, count):
        # counts past the float range are refused, not converted; a grid
        # of them is refused before its rule is built
        for budget in ("nbytes", "seconds"):
            with pytest.raises(ResourceError, match=r"^site needs inf "):
                check_budget("site", **{budget: [(1, 1.0), (count, 8.0)]})

        def refuse(*args):
            raise AssertionError("rule built")
        monkeypatch.setattr(numerics, "gauss_legendre", refuse)
        with pytest.raises(ResourceError, match=r"^polar grid of .* needs"):
            polar_grid(1.0, count, 8)
        with pytest.raises(ResourceError, match=r"^polar grid of .* needs"):
            polar_grid(1.0, 8, count)

    def test_node_count_stays_float_past_exact_ints(self):
        assert node_count(2.5) == 3 and isinstance(node_count(2.5), int)
        assert node_count(2.5, math.floor) == 2
        assert node_count(1e300) == 1e300 and isinstance(node_count(1e300),
                                                         float)
        assert node_count(math.inf) == math.inf
        assert math.isnan(node_count(math.nan))

    def test_non_finite_sample_names_node(self):
        grid = polar_grid(1.0, 4, 4)
        bad = np.ones_like(grid.nodes)
        bad[3] = np.nan
        with pytest.raises(QuadratureError, match="non-finite"):
            lr_norm(bad, grid, 1.0)


FIXED_BITS = 256


def legendre_reference(n, start):
    """50-digit (node, weight) pairs of the n-point rule, one per start node.

    P_n and P_{n-1} at each float start come from the three-term recurrence
    in exact integers at scale 2^-256, all nodes at once; mpmath then takes
    one Newton step from the start, accurate to about (1e-16)^2, and carries
    P_n' to the root by its Taylor series with P_n'' from Legendre's
    equation.
    """
    one = 1 << FIXED_BITS
    x = np.array([int(mpmath.ldexp(mpmath.mpf(float(v)), FIXED_BITS))
                  for v in start], dtype=object)
    p_prev, p = np.full(x.size, one, dtype=object), x.copy()
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * ((x * p) >> FIXED_BITS)
                        - j * p_prev) // (j + 1)
    out = []
    for values in zip(x, p, p_prev):
        xm, pn, pm = (mpmath.ldexp(mpmath.mpf(v), -FIXED_BITS)
                      for v in values)
        dp = n * (xm * pn - pm) / (xm * xm - 1)
        ddp = (2 * xm * dp - n * (n + 1) * pn) / (1 - xm * xm)
        step = -pn / dp
        root, dp = xm + step, dp + ddp * step
        out.append((root, 2 / ((1 - root * root) * dp * dp)))
    return out


class TestGaussLegendre:

    @pytest.mark.parametrize("n", [8, 96, 128, 601, 2048])
    def test_against_mpmath(self, n):
        # numpy's leggauss errs by 1.4e-11 to 6.3e-8 in the end weights here
        x, w = gauss_legendre(n)
        assert np.array_equal(x[:n // 2], -x[::-1][:n // 2])
        assert np.array_equal(w, w[::-1])
        upper = slice(n // 2, n)
        for (node, weight), got_x, got_w in zip(
                legendre_reference(n, x[upper]), x[upper], w[upper]):
            assert abs(float(node - mpmath.mpf(float(got_x)))) <= 1e-15
            assert abs(float((weight - mpmath.mpf(float(got_w))) / weight)
                       ) <= 1e-13

    @pytest.mark.parametrize("n", list(range(1, 21)) + [97])
    def test_exact_to_degree_2n_minus_1(self, n):
        x, w = gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert (n % 2 == 0) or x[n // 2] == 0.0
        for degree in range(0, 2 * n, 2):
            exact = 2.0 / (degree + 1)
            assert math.fsum(w * x ** degree) == pytest.approx(exact,
                                                                rel=1e-13)
            assert abs(math.fsum(w * x ** (degree + 1))) <= 1e-15


class TestBasisNormalization:
    """Quadrature must reproduce the Gaussian moment pi/alpha behind every
    normalized monomial, across the degree range operators will use."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, math.pi])
    def test_monomial_norms(self, alpha):
        max_n = 200
        radius = tail_radius(alpha, 2 * max_n)
        grid = polar_grid(radius, max(64, 2 * max_n), 8)
        t = np.abs(grid.nodes)
        log_t = np.log(t)
        for n in range(max_n + 1):
            # |e_n(z)|^2 e^{-alpha|z|^2} assembled in log scale
            samples = np.exp(n * math.log(alpha) - log_factorial(n)
                             + 2.0 * n * log_t - alpha * t ** 2)
            val = plane_integral(samples, grid).real
            assert val == pytest.approx(math.pi / alpha, rel=1e-9), n


class TestTailRadius:
    """The cutoff comes from a tail bound, not the inverse of Q: it must put
    Q(a, alpha R^2) at or below tol, and lie within 1.14 times the exact
    root (1.005 from a = 4097 up)."""

    @staticmethod
    def check_bound(a, tol):
        def log_tail(x):
            return mpmath.log(mp_gamma_q(a, x)) - mpmath.log(tol)

        # the root in x = alpha R^2 does not depend on alpha
        exact = mpmath.findroot(log_tail, mpmath.mpf(gammainccinv(a, tol)))
        worst = 1.005 if a >= 4097 else 1.14
        for alpha in (1e-6, 1.0, 1e6):
            radius = tail_radius(alpha, 2.0 * (a - 1.0), tol)
            x = mpmath.mpf(alpha) * mpmath.mpf(radius) ** 2
            assert mp_gamma_q(a, x) <= tol, alpha
            assert 1.0 <= radius / mpmath.sqrt(exact / alpha) <= worst, alpha

    def test_tail_below_tolerance(self):
        for alpha, power in ((1.0, 0), (0.5, 128), (math.pi, 400)):
            radius = tail_radius(alpha, power, 1e-14)
            a = 0.5 * power + 1.0
            assert gammaincc(a, alpha * radius ** 2) <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_radius(-1.0, 4)
        with pytest.raises(ValueError):
            tail_radius(1.0, 4, tol=2.0)
        with pytest.raises(ValueError):
            tail_radius(1.0, -2)
        # odd powers answer: the bound holds at every order a >= 1
        radius = tail_radius(1.0, 3, 1e-14)
        assert gammaincc(2.5, radius ** 2) <= 1e-14

    @pytest.mark.parametrize("tol", [1e-13, 1e-15])
    @pytest.mark.parametrize("size", [8, 16, 64, 128, 512, 1024, 4096])
    def test_against_mpmath(self, size, tol):
        # the grid cutoffs: Q(N + 1, alpha R^2) <= tol with power 2N
        self.check_bound(size + 1, tol)

    @pytest.mark.parametrize("tol", [1e-13, 1e-14, 1e-15])
    @pytest.mark.parametrize("a", [1, 1.5, 9, 65, 129, 4097])
    def test_bound_against_mpmath(self, a, tol):
        self.check_bound(a, tol)


class TestIncompleteGamma:
    """ln n!, erf, P and Q against 50-digit mpmath values."""

    ORDERS = [1, 9, 65, 129, 4097]

    def test_log_factorial(self):
        n = np.concatenate([np.arange(0, 200), [1000, 4096, 65536, 2.0 ** 60,
                                                2.0 ** 1000]])
        got = log_factorial(n)
        assert got.shape == n.shape
        for value, k in zip(got, n):
            exact = mpmath.loggamma(mpmath.mpf(k) + 1)
            if exact == 0:
                assert value == 0.0
            else:
                # math.lgamma is off by up to 5.1e-16 (at 2!)
                assert relative_error(value, exact) < 1e-15, k
        assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)
        assert isinstance(log_factorial(5), float)

    def test_erf(self):
        x = np.linspace(-7.0, 7.0, 281)
        got = erf(x)
        for value, t in zip(got, x):
            assert abs(value - float(mpmath.erf(t))) <= 2.3e-16, t

    @pytest.mark.parametrize("a", ORDERS)
    def test_p_and_q(self, a):
        x = np.concatenate([np.linspace(0.0, 4.0 * a, 81),
                            [a - 1e-9 * a, a, 1e300, FLOAT_MAX, math.inf]])
        p, q = regularized_gamma(a, x)
        assert p.shape == q.shape == x.shape
        assert p[0] == 0.0 and q[0] == 1.0
        assert p[-1] == p[-2] == 1.0 and q[-1] == q[-2] == 0.0
        # rounding in ln Pois(a; x), whose terms reach the size of a, sets
        # the error; it is relative in the small tail and in the complement
        bound = 1e-14 * math.sqrt(a)
        for i, t in enumerate(x[:-1]):
            assert relative_error(p[i], mp_gamma_p(a, t)) < bound, t
            assert relative_error(q[i], mp_gamma_q(a, t)) < bound, t

    @pytest.mark.parametrize("size", [8, 24, 64, 128, 1024, 4096])
    def test_truncation_verdict_neighbourhood(self, size):
        # P(N, alpha|z|^2) against 1e-12 decides whether a Berezin or
        # point-mass report answers or exits 2
        lo = gammainccinv(size, 1.0 - 1e-13)
        hi = gammainccinv(size, 1.0 - 1e-11)
        z = np.sqrt(np.linspace(lo, hi, 41))
        alpha = 0.7
        z /= math.sqrt(alpha)
        got = basis_tail_mass(size, alpha, z)
        for value, t in zip(got, alpha * np.abs(z) ** 2):
            exact = mp_gamma_p(size, t)
            assert 9e-14 < exact < 1.1e-11
            assert relative_error(value, exact) < 1e-13, t
            if abs(exact / mpmath.mpf(1e-12) - 1) > 1e-13:
                assert (value >= 1e-12) == (exact >= 1e-12), t

    def test_scalar_and_log_poisson(self):
        p, q = regularized_gamma(3, 2.5)
        assert p.shape == () and p + q == pytest.approx(1.0, rel=1e-15)
        for n, t in ((0, 0.0), (0, 3.0), (5, 0.0), (40, 0.1), (40, 39.5),
                     (4096, 4100.25), (4096, 1e5)):
            exact = (n * mpmath.log(t) if t else 0 if n == 0 else -mpmath.inf)
            exact = exact - t - mpmath.loggamma(n + 1)
            got = float(log_poisson(n, t))
            if exact == -mpmath.inf:
                assert got == -math.inf
            else:
                assert abs(got - float(exact)) <= 1e-15 * max(1.0, abs(got))


class TestLrNorm:

    def test_gaussian_l2(self):
        grid = polar_grid(8.0, 80, 16)
        val = lr_norm(lambda z: np.exp(-np.abs(z) ** 2 / 2), grid, 2.0)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_exponent_domain(self):
        grid = polar_grid(1.0, 4, 4)
        with pytest.raises(ValueError):
            lr_norm(np.ones_like(grid.nodes), grid, 0.5)
