import cmath
import math

import numpy as np
import pytest

from focklab.errors import GridExtentError, TruncationError
from focklab.fock import (EntireFunction, FockParams, basis_coefficients,
                          basis_function, basis_norm_exact, conjugate_exponent,
                          default_degree, evaluate, inner_product,
                          inner_product_quadrature, kernel,
                          kernel_continuity_probe, kernel_distance_hilbert,
                          norm, norm_grid, normalized_kernel, subtract,
                          zero_function)
from focklab.numerics import polar_grid


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
            FockParams(alpha=1.0, p=0.5)
        params = FockParams(alpha=2.0, p=1.0, q=math.inf)
        assert params.p_conjugate == math.inf
        assert params.q_conjugate == 1.0


class TestEvaluate:

    def test_normalized_monomial(self):
        params = FockParams(alpha=1.0)
        e2 = basis_function(2, params)
        assert evaluate(e2, 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_truncated_kernel_hits_exponential(self):
        params = FockParams(alpha=1.0)
        K1 = kernel(1.0, params, 40)
        assert evaluate(K1, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_zero_function(self):
        assert evaluate(zero_function(5), 2.0 + 1j) == 0j

    def test_polynomial_matches_horner(self):
        coeffs = [1.5 - 2j, 0.0, 3j, -0.25]
        f = EntireFunction.from_coefficients(coeffs)
        for z in (0j, 0.5 + 0.5j, -2.0 + 1j):
            direct = coeffs[0] + coeffs[1] * z + coeffs[2] * z ** 2 + coeffs[3] * z ** 3
            assert evaluate(f, z) == pytest.approx(direct, rel=1e-13, abs=1e-13)

    def test_overflow_is_reported(self):
        f = EntireFunction.from_coefficients([1e300, 1e300])
        with pytest.raises(OverflowError, match="degree-1"):
            evaluate(f, 1e12)


class TestKernel:

    def test_coefficients(self):
        params = FockParams(alpha=0.5)
        K = kernel(2j, params, 20)
        # (alpha * conj(z))^3 / 3! = (-1j)^3 / 6 = 1j / 6
        c3 = cmath.rect(math.exp(K.log_mags[3]), K.phases[3])
        assert c3 == pytest.approx(1j / 6, rel=1e-13)

    def test_degree_precondition(self):
        params = FockParams(alpha=1.0)
        with pytest.raises(TruncationError, match="degree 10"):
            kernel(5.0, params, 10)

    def test_origin_kernel_is_constant_one(self):
        K = kernel(0j, FockParams(alpha=3.0), 8)
        assert evaluate(K, 1.7 - 0.4j) == 1.0 + 0j

    def test_hermitian_symmetry(self):
        params = FockParams(alpha=1.0)
        pairs = [(0.5, 1.5j), (1 + 1j, -0.5 + 0.25j), (2.0, 1.0 - 1.0j)]
        for z, w in pairs:
            lhs = evaluate(kernel(z, params, 60), w)
            rhs = np.conj(evaluate(kernel(w, params, 60), z))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_default_degree_floor(self):
        assert default_degree(1.0, 1.0) == 64
        assert default_degree(2.0, 5.0) == 200


class TestNormalizedKernel:

    def test_self_evaluation(self):
        params = FockParams(alpha=1.0)
        k2 = normalized_kernel(2.0, params, default_degree(1.0, 4.0))
        assert evaluate(k2, 2.0) == pytest.approx(math.e ** 2, rel=1e-12)

    def test_unit_hilbert_norm(self):
        params = FockParams(alpha=1.0)
        grid = norm_grid(params, 40)
        degree = default_degree(params.alpha, grid.cutoff_radius)
        for z in (0j, 1.0, 1 + 2j):
            kz = normalized_kernel(z, params, degree)
            assert norm(kz, 2.0, params, grid) == pytest.approx(1.0, rel=1e-10)


class TestNorm:

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0])
    def test_monomial_closed_form(self, p):
        params = FockParams(alpha=1.5)
        grid = norm_grid(params, 16)
        for n in (0, 1, 2, 5, 8):
            en = basis_function(n, params)
            assert norm(en, p, params, grid) == pytest.approx(
                basis_norm_exact(n, p, params), rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0])
    def test_kernel_norm_is_one(self, p):
        params = FockParams(alpha=1.0)
        grid = norm_grid(params, 40)
        degree = default_degree(params.alpha, grid.cutoff_radius)
        for z in (0j, 1.0, 1 + 2j):
            kz = normalized_kernel(z, params, degree)
            assert norm(kz, p, params, grid) == pytest.approx(1.0, rel=1e-9)

    def test_zero_iff_zero_function(self):
        params = FockParams(alpha=1.0)
        grid = norm_grid(params, 8)
        assert norm(zero_function(4), 2.0, params, grid) == 0.0
        tiny = EntireFunction.from_coefficients([1e-280])
        assert norm(tiny, 2.0, params, grid) > 0.0

    def test_small_grid_rejected(self):
        params = FockParams(alpha=1.0)
        grid = polar_grid(2.0, 64, 64)
        with pytest.raises(GridExtentError):
            norm(basis_function(50, params), 2.0, params, grid)

    def test_sup_norm_is_lower_bound(self):
        params = FockParams(alpha=1.0)
        grid = norm_grid(params, 12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            deg = int(rng.integers(0, 13))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            f = EntireFunction.from_coefficients(coeffs)
            sup = norm(f, math.inf, params, grid)
            for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
                assert sup <= norm(f, p, params, grid) * (1.0 + 1e-12)

    def test_monomial_sup_closed_form(self):
        params = FockParams(alpha=2.0)
        # dense grid so the node supremum approaches the true peak
        grid = polar_grid(6.0, 600, 16)
        approx = norm(basis_function(3, params), math.inf, params, grid)
        exact = basis_norm_exact(3, math.inf, params)
        assert approx <= exact
        assert approx == pytest.approx(exact, rel=1e-4)


class TestReproducingProperty:

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_quadrature_pairing_reproduces_values(self, alpha):
        params = FockParams(alpha=alpha)
        rng = np.random.default_rng(11)
        grid = norm_grid(params, 24)
        kernel_degree = default_degree(alpha, grid.cutoff_radius)
        hilbert = norm_grid(params, 24)
        for _ in range(6):
            deg = int(rng.integers(0, 25))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            f = EntireFunction.from_coefficients(coeffs)
            fnorm = norm(f, 2.0, params, hilbert)
            for z in (0.3, -1 + 0.5j, 2 + 2j, 3.0):
                Kz = kernel(z, params, kernel_degree)
                via_pairing = inner_product_quadrature(f, Kz, params, grid)
                budget = 1e-9 * fnorm * math.exp(0.5 * alpha * abs(z) ** 2)
                assert abs(via_pairing - evaluate(f, z)) <= budget

    def test_exact_pairing_matches_quadrature(self):
        params = FockParams(alpha=1.0)
        grid = norm_grid(params, 12)
        f = EntireFunction.from_coefficients([1.0, 0.5j, -2.0, 0.0, 1 + 1j])
        g = EntireFunction.from_coefficients([0.25, 1.0, 1j])
        exact = inner_product(f, g, params)
        quad = inner_product_quadrature(f, g, params, grid)
        assert quad == pytest.approx(exact, rel=1e-11)


class TestBasisCoefficients:

    def test_monomial_resolves_to_unit_vector(self):
        params = FockParams(alpha=1.3)
        out = basis_coefficients(basis_function(3, params), params, 6)
        expected = np.zeros(6, dtype=complex)
        expected[3] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_plain_monomial(self):
        params = FockParams(alpha=2.0)
        f = EntireFunction.from_coefficients([0.0, 0.0, 1.0])  # z^2
        out = basis_coefficients(f, params, 3)
        assert out[2] == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-13)


class TestArithmetic:

    def test_subtract_and_scale_round_trip(self):
        f = EntireFunction.from_coefficients([1 + 2j, 3.0, -0.5j])
        g = EntireFunction.from_coefficients([1.0, -1j])
        h = subtract(f, g)
        s = subtract(zero_function(), f)  # scaling by -1
        for z in (0j, 1.1 - 0.3j, -2.0):
            fv, gv = evaluate(f, z), evaluate(g, z)
            assert evaluate(h, z) == pytest.approx(fv - gv, rel=1e-13, abs=1e-13)
            assert evaluate(s, z) == pytest.approx(-fv, rel=1e-13, abs=1e-13)

    def test_subtract_cancels_exactly(self):
        f = EntireFunction.from_coefficients([2.0, 1j])
        assert subtract(f, f).is_zero()


class TestContinuityProbe:

    def test_probe_matches_hilbert_closed_form(self):
        params = FockParams(alpha=1.0)
        grid = norm_grid(params, 40)
        deltas = [0.1, 0.05, 0.01]
        out = kernel_continuity_probe(1.0, deltas, 2.0, params, grid)
        assert all(a > b for a, b in zip(out, out[1:]))
        for d, val in zip(deltas, out):
            expected = kernel_distance_hilbert(1.0 + d, 1.0, params.alpha)
            assert val == pytest.approx(expected, abs=1e-8)
        # explicit closed form at the smallest offset
        target = math.sqrt(2.0 - 2.0 * math.exp(-0.5 * 0.01 ** 2))
        assert out[-1] == pytest.approx(target, abs=1e-8)

    def test_probe_other_exponents_decrease(self):
        params = FockParams(alpha=1.0)
        grid = norm_grid(params, 40)
        out = kernel_continuity_probe(0.5, [0.2, 0.1, 0.02], 4.0 / 3.0, params,
                                      grid)
        assert all(a > b for a, b in zip(out, out[1:]))
        assert out[-1] < 0.05
