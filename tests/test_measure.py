import math

import mpmath
import numpy as np
import pytest

from focklab import measure
from focklab.errors import GridExtentError, PositivityError, ResourceError
from focklab.fock import FockParams
from focklab.measure import (Density, GaussianDensity, PointMasses,
                             UniformDisk, berezin_grid, berezin_lr_norm,
                             berezin_measure, disk_cell_area, is_positive,
                             require_positive, total_mass, total_variation)

PARAMS = FockParams(alpha=1.0)


def delta(w, weight=1.0):
    return PointMasses(((complex(w), complex(weight)),))


def berezin_lr_constant(alpha, r):
    """Sharp-order constant with ||berezin(mu)||_r <= C_r |mu|(C): the
    transform of a unit point mass, (alpha/pi) e^{-alpha|z - w|^2}, has
    L^r norm (alpha/pi) (pi / (r alpha))^{1/r}."""
    if r == math.inf:
        return alpha / math.pi
    return alpha / math.pi * (math.pi / (r * alpha)) ** (1.0 / r)


class TestVariants:

    def test_point_mass_accessors(self):
        mu = PointMasses(((1j, 2.0), (3.0, -0.5)))
        np.testing.assert_allclose(mu.locations, [1j, 3.0])
        np.testing.assert_allclose(mu.weights, [2.0, -0.5])

    def test_constant_disk_needs_finite_radius(self):
        for radius in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                UniformDisk(1.0, radius)

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            GaussianDensity(1.0, 0.0)

    def test_positivity_flags(self):
        assert is_positive(delta(0.5, 2.0))
        assert not is_positive(delta(0.5, -2.0))
        assert not is_positive(delta(0.5, 1j))
        assert is_positive(UniformDisk(1.0, 2.0))
        assert not is_positive(UniformDisk(-1.0, 2.0))
        assert is_positive(GaussianDensity(0.5, 1.0))
        smooth = Density(lambda w: np.ones_like(w), 1.0)
        assert not is_positive(smooth)  # callables are not trusted by default
        with pytest.raises(PositivityError):
            require_positive(smooth, "a mass identity")


class TestTotalVariation:

    def test_point_mass(self):
        assert total_variation(delta(0j)) == 1.0
        assert total_variation(PointMasses(((0j, -2.0), (1.0, 1j)))) == pytest.approx(3.0)

    def test_uniform_disk_exact(self):
        assert total_variation(UniformDisk(1.0, 1.0)) == pytest.approx(
            math.pi, rel=1e-12)

    def test_gaussian_closed_form(self):
        assert total_variation(GaussianDensity(1.0, 4.0)) == pytest.approx(
            math.pi / 4.0, rel=1e-14)

    def test_sampled_density(self):
        mu = Density(lambda w: np.exp(-np.abs(w) ** 2), 6.0)
        assert total_variation(mu) == pytest.approx(math.pi, rel=1e-10)
        assert total_mass(mu) == pytest.approx(math.pi, rel=1e-10)

    def test_infinite_radial_support_rejected(self):
        # Refused when the density is built, so no total variation is
        # ever summed over an unbounded support.
        with pytest.raises(ValueError):
            Density(lambda w: np.ones_like(w), math.inf)


class TestBerezinMeasure:

    def test_delta_origin(self):
        for z in (0j, 1.0, 1 - 2j):
            got = berezin_measure(delta(0j), z, PARAMS)
            assert got == pytest.approx(
                math.exp(-abs(z) ** 2) / math.pi, rel=1e-13)

    def test_gaussian_closed_form(self):
        beta = 2.0
        mu = GaussianDensity(1.0, beta)
        for z in (0j, 0.5 + 1j):
            expected = (1.0 / (1.0 + beta)) * math.exp(
                -beta / (1.0 + beta) * abs(z) ** 2)
            assert berezin_measure(mu, z, PARAMS) == pytest.approx(expected,
                                                                  rel=1e-13)

    def test_lebesgue_flattens_to_one(self):
        leb = Density(lambda w: np.ones_like(w, dtype=complex), 9.0)
        for z in (0j, 2 + 1j, -3.0):
            assert berezin_measure(leb, z, PARAMS) == pytest.approx(1.0,
                                                                    rel=1e-10)

    def test_vectorized_evaluation(self):
        mu = delta(1.0, 0.5)
        zs = np.array([0j, 1.0, 2j])
        out = berezin_measure(mu, zs, PARAMS)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5 / math.pi, rel=1e-13)

    def test_translation_covariance(self):
        offset = 0.7 - 0.4j
        z = 1.1 + 0.2j

        def smooth(w):
            return np.exp(-0.7 * np.abs(w) ** 2) * (1 + 0.3 * w.real)

        # each measure next to its pushforward under w -> w + offset
        pairs = [
            (PointMasses(((0j, 1.0), (2.0, 1.0))),
             PointMasses(((offset, 1.0), (2.0 + offset, 1.0)))),
            (Density(smooth, 4.0),
             Density(lambda w: smooth(w - offset), 4.0, center=offset)),
            (GaussianDensity(2.0, 1.5),
             GaussianDensity(2.0, 1.5, center=offset)),
            (UniformDisk(1.0, 1.0),
             Density(lambda w: np.ones(np.shape(w), dtype=complex), 1.0,
                     center=offset)),
        ]
        for mu, shifted in pairs:
            a = berezin_measure(shifted, z, PARAMS)
            b = berezin_measure(mu, z - offset, PARAMS)
            assert abs(a - b) < 1e-12


def mp_disk_transform(alpha, radius, rs):
    """sum_j Pois(j; alpha r^2) P(j + 1, alpha R^2) for each r, at 50 digits.

    P(j + 1, X) is summed down from P(J, X), so no term cancels.
    """
    with mpmath.workdps(50):
        big_x = mpmath.mpf(alpha) * mpmath.mpf(radius) ** 2
        xs = [mpmath.mpf(alpha) * mpmath.mpf(r) ** 2 for r in rs]
        top = int(max(xs) + 12 * mpmath.sqrt(max(xs)) + 60)
        upper = [mpmath.mpf(0)] * top  # upper[j] = P(j + 1, X)
        upper[-1] = mpmath.gammainc(top, 0, big_x, regularized=True)
        pois = mpmath.exp((top - 1) * mpmath.log(big_x) - big_x
                          - mpmath.loggamma(top))
        for j in range(top - 1, 0, -1):
            upper[j - 1] = upper[j] + pois  # + Pois(j; X)
            pois *= j / big_x
        out = []
        for x in xs:
            term, total = mpmath.exp(-x), mpmath.mpf(0)
            for j in range(top):
                total += term * upper[j]
                term *= x / (j + 1)
            out.append(float(total))
        return np.array(out)


class TestDiskTransform:
    """The disk's heat transform as a Poisson mixture of P(j + 1, X)."""

    @pytest.mark.parametrize("alpha", [1.0, 50.0, 2000.0])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 1.3, 3.0])
    def test_matches_mpmath(self, alpha, radius):
        params = FockParams(alpha=alpha)
        mu = UniformDisk(1.0, radius)
        cutoff = berezin_grid(mu, params).cutoff_radius
        rs = np.append(np.linspace(0.0, cutoff, 6), radius)
        got = berezin_measure(mu, rs.astype(complex), params)
        ref = mp_disk_transform(alpha, radius, rs)
        assert np.all(got.imag == 0.0)
        live = ref > 1e-300
        assert live.sum() >= 6
        assert np.all(np.abs(got.real - ref)[live] <= 1e-13 * ref[live])

    @pytest.mark.parametrize("alpha", [1.0, 50.0])
    @pytest.mark.parametrize("radius", [1.0, 1.3])
    def test_matches_nested_quadrature(self, alpha, radius):
        # the same disk as a sampled indicator takes the kernel route
        params = FockParams(alpha=alpha)
        mu = UniformDisk(0.8 - 0.3j, radius)
        indicator = Density(lambda w: np.full(w.shape, mu.amplitude), radius)
        cutoff = berezin_grid(mu, params).cutoff_radius
        z = np.linspace(0.0, cutoff, 9) * np.exp(0.7j)
        closed = berezin_measure(mu, z, params)
        nested = berezin_measure(indicator, z, params)
        assert np.max(np.abs(closed - nested)) <= 1e-13 * abs(mu.amplitude)

    def test_shape_and_scalar(self):
        mu = UniformDisk(2.0, 1.0)
        z = np.array([[0.0, 0.5j], [1.0, -2.0]])
        out = berezin_measure(mu, z, PARAMS)
        assert out.shape == (2, 2)
        assert berezin_measure(mu, 0.5j, PARAMS) == out[0, 1]
        # at the origin the transform is a P(1, R^2) = a (1 - e^{-R^2})
        assert out[0, 0] == pytest.approx(-2.0 * math.expm1(-1.0),
                                          rel=1e-15)

    def test_term_budget(self):
        # alpha |z|^2 = 1e10 Poisson terms, refused before any is taken
        with pytest.raises(ResourceError, match="^disk transform at 1 "):
            berezin_measure(UniformDisk(1.0, 1.0), 1e5, PARAMS)


class TestBerezinLrNorm:

    def test_delta_pair_l1(self):
        pair = PointMasses(((0j, 1.0), (2.0 + 0j, 1.0)))
        assert berezin_lr_norm(pair, 1.0, PARAMS) == pytest.approx(2.0,
                                                                   abs=1e-8)

    def test_delta_sup_probes_origin(self):
        assert berezin_lr_norm(delta(0j), math.inf, PARAMS) == pytest.approx(
            1.0 / math.pi, rel=1e-14)

    def test_mass_identity_corpus(self):
        corpus = [
            delta(0j),
            PointMasses(((0j, 1.0), (2.0, 1.0))),
            UniformDisk(1.0, 1.0),
            GaussianDensity(1.0, 2.0),
            PointMasses(((1 + 1j, 0.5), (-1j, 1.5), (0.25, 2.0))),
        ]
        for mu in corpus:
            require_positive(mu, "mass identity")
            lhs = berezin_lr_norm(mu, 1.0, PARAMS)
            rhs = total_variation(mu)
            assert lhs == pytest.approx(rhs, rel=1e-7), mu

    @pytest.mark.parametrize("r", [1.0, 2.0, 4.0, math.inf])
    def test_lr_bound_with_explicit_constant(self, r):
        for alpha in (0.5, 1.0, math.pi):
            params = FockParams(alpha=alpha)
            for mu in (delta(1.0, 0.8), GaussianDensity(1.0, 1.0)):
                lhs = berezin_lr_norm(mu, r, params)
                rhs = berezin_lr_constant(alpha, r) * total_variation(mu)
                assert lhs <= rhs * (1.0 + 1e-10)

    def test_lr_bound_for_disk_density(self):
        # r = 1 equality for this measure is the mass identity test above.
        mu = UniformDisk(0.5, 1.5)
        for r in (2.0, math.inf):
            lhs = berezin_lr_norm(mu, r, PARAMS)
            rhs = berezin_lr_constant(PARAMS.alpha, r) * total_variation(mu)
            assert lhs <= rhs * (1.0 + 1e-10)

    def test_small_grid_rejected(self, monkeypatch):
        # a pad of one nat leaves the boundary ring at e^{-1} of the peak
        monkeypatch.setattr(measure, "_PAD_NATS", 1.0)
        with pytest.raises(GridExtentError):
            berezin_lr_norm(delta(1.0), 1.0, PARAMS)


def square_kernel_integral(mu, z, params=PARAMS):
    """integral |K(z, w)|^2 e^{-alpha|w|^2} d mu(w), via the heat transform.

    The integrand is e^{alpha|z|^2} e^{-alpha|z - w|^2}, so the integral is
    e^{alpha|z|^2} (pi / alpha) times the Berezin transform of mu at z.
    """
    z = np.asarray(z, dtype=complex)
    return (np.exp(params.alpha * np.abs(z) ** 2) * math.pi / params.alpha
            * berezin_measure(mu, z, params))


class TestAdmissibility:

    def test_point_mass_value(self):
        w = 1.5 + 0.5j
        value = square_kernel_integral(delta(w), 0j)
        assert value == pytest.approx(math.exp(-abs(w) ** 2), rel=1e-13)

    def test_unit_disk_value_at_origin(self):
        value = square_kernel_integral(UniformDisk(1.0, 1.0), 0j)
        expected = math.pi * (1.0 - math.exp(-1.0))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_refinement_agreement_for_smooth_density(self):
        # the sampled density against its closed-form Gaussian twin
        zs = [0j, 1.0, 2j]
        sampled = square_kernel_integral(
            Density(lambda w: np.exp(-np.abs(w) ** 2), 6.0), zs)
        exact = square_kernel_integral(GaussianDensity(1.0, 1.0), zs)
        assert np.all(np.abs(sampled - exact) <= 1e-6 * (1.0 + np.abs(exact)))


class TestDiskCellArea:

    def test_full_cover(self):
        assert disk_cell_area(-3, 3, -3, 3, 1.0) == pytest.approx(math.pi,
                                                                  rel=1e-14)

    def test_quadrant(self):
        assert disk_cell_area(0, 2, 0, 2, 1.0) == pytest.approx(math.pi / 4,
                                                                rel=1e-14)

    def test_disjoint(self):
        assert disk_cell_area(2, 3, 2, 3, 1.0) == 0.0

    def test_tiling_recovers_disk_area(self):
        r, R = 0.25, 1.3
        ks = int(R / r) + 2
        total = math.fsum(
            disk_cell_area((i - 0.5) * r, (i + 0.5) * r,
                           (j - 0.5) * r, (j + 0.5) * r, R)
            for i in range(-ks, ks + 1) for j in range(-ks, ks + 1))
        assert total == pytest.approx(math.pi * R * R, rel=1e-13)

    def test_off_center(self):
        assert disk_cell_area(0, 2, 0, 2, 0.5, cx=1.0, cy=1.0) == pytest.approx(
            math.pi * 0.25, rel=1e-14)

    @staticmethod
    def boundary_cells(radius, r):
        """Lattice indices of the cells of side r the circle crosses."""
        reach = int(radius / r) + 2
        cells = []
        for i in range(-reach, reach + 1):
            for j in range(-reach, reach + 1):
                near = math.hypot(max(abs(i) - 0.5, 0.0) * r,
                                  max(abs(j) - 0.5, 0.0) * r)
                far = math.hypot((abs(i) + 0.5) * r, (abs(j) + 0.5) * r)
                if near < radius < far:
                    cells.append((i, j))
        return cells

    @pytest.mark.parametrize("r", [1.0 / 16.0, 1.0 / 64.0])
    @pytest.mark.parametrize("radius", [0.6, 1.0, 1.85])
    def test_boundary_cells_against_mpmath(self, radius, r):
        # the clipped chord length integrated piece by piece at 40 digits,
        # not the corner inclusion-exclusion of the code under test
        cells = self.boundary_cells(radius, r)
        assert len(cells) > 30
        worst = 0.0
        for i, j in cells:
            x0, x1, y0, y1 = ((i - 0.5) * r, (i + 0.5) * r,
                              (j - 0.5) * r, (j + 0.5) * r)
            got = disk_cell_area(x0, x1, y0, y1, radius)
            worst = max(worst, abs(got - float(mp_cell_area(x0, x1, y0, y1,
                                                            radius))))
        assert worst <= 1e-14 * radius * radius

    @pytest.mark.parametrize("radius, r", [(1.85, 1.0 / 64.0),
                                           (1.0, 1.0 / 16.0), (0.6, 0.25)])
    def test_square_symmetries_bitwise(self, radius, r):
        for i, j in self.boundary_cells(radius, r):
            x, y = ((i - 0.5) * r, (i + 0.5) * r), ((j - 0.5) * r,
                                                     (j + 0.5) * r)
            flips = [(x, y), ((-x[1], -x[0]), y), (x, (-y[1], -y[0])),
                     ((-x[1], -x[0]), (-y[1], -y[0]))]
            images = flips + [(v, u) for u, v in flips]
            values = {disk_cell_area(*u, *v, radius) for u, v in images}
            assert len(values) == 1, (i, j, values)

    def test_rectangle_symmetries_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            x0, x1 = sorted(rng.uniform(-1.3, 1.3, 2).tolist())
            y0, y1 = sorted(rng.uniform(-1.3, 1.3, 2).tolist())
            flips = [(x0, x1, y0, y1), (-x1, -x0, y0, y1),
                     (x0, x1, -y1, -y0), (-x1, -x0, -y1, -y0)]
            images = flips + [(c, d, a, b) for a, b, c, d in flips]
            assert len({disk_cell_area(*box, 1.1) for box in images}) == 1


def mp_cell_area(x0, x1, y0, y1, radius, dps=40):
    """Area of [x0, x1] x [y0, y1] within the centred disk: the chord
    length min(y1, s) - max(y0, -s), s = sqrt(R^2 - x^2), integrated in
    closed form between the x where it changes formula."""
    with mpmath.workdps(dps):
        R = mpmath.mpf(radius)
        x0, x1, y0, y1 = (mpmath.mpf(v) for v in (x0, x1, y0, y1))

        def chord(x):
            return mpmath.sqrt(R * R - x * x)

        def integral(x):  # of chord(x)
            return (x * chord(x) + R * R * mpmath.asin(x / R)) / 2

        cuts = {x0, x1}
        for y in (y0, y1):
            if abs(y) < R:
                cuts.update({-chord(y), chord(y)})
        cuts.update({-R, R})
        cuts = sorted(c for c in cuts if x0 <= c <= x1)
        area = mpmath.mpf(0)
        for u, v in zip(cuts, cuts[1:]):
            mid = (u + v) / 2
            if abs(mid) >= R:
                continue
            s = chord(mid)
            top, bottom = min(y1, s), max(y0, -s)
            if top <= bottom:
                continue
            area += ((integral(v) - integral(u)) if top == s
                     else y1 * (v - u))
            area -= (-(integral(v) - integral(u)) if bottom == -s
                     else y0 * (v - u))
        return area
