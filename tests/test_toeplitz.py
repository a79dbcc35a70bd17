import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from numpy.fft import ifft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammainc, gammaincc, gammaln

from focklab.errors import FocklabError, QuadratureError, TruncationError
from focklab import toeplitz
from focklab.fock import FockParams
from focklab.lattice import lattice_operator, lattice_partition
from focklab.measure import (Density, GaussianDensity, PointMasses,
                             UniformDisk, berezin_measure, density_values,
                             disk_diagonal, is_positive, total_mass)
from focklab.numerics import complex_fsum, polar_grid, real_fsum
from focklab.toeplitz import (_TAIL_TOL, HankelMatrix, TruncatedOperator,
                              _covering_grid, _pairing_matrix,
                              _quadrature_grid, _ring_bands, _ring_pairing,
                              _ring_spectrum, _ring_transform,
                              adjoint_isometry_check, basis_matrix,
                              build_from_density, build_from_measure,
                              build_from_point_masses, build_hankel,
                              identity_operator, schatten_norm,
                              singular_values, trace, trace_pairing,
                              trace_via_berezin, transform_l1_norm)

PARAMS = FockParams(alpha=1.0)


def delta(w, weight=1.0):
    return PointMasses(((complex(w), complex(weight)),))


def toeplitz_operator(mu, size, params=PARAMS):
    """build_from_measure's operator, except that a Gaussian's comes from
    its closed form directly: these tests take Gaussians at truncations
    whose basis tail build_from_measure refuses."""
    if not isinstance(mu, GaussianDensity):
        return build_from_measure(mu, size, params)
    entries, _ = toeplitz._gaussian_toeplitz(mu, size, params.alpha)
    return TruncatedOperator(entries, size, params,
                             provenance="closed-form(gaussian)")


def corpus():
    return [
        delta(0j),
        delta(1.5 + 0.5j),
        PointMasses(((0j, 1.0), (1.0, 1.0))),
        UniformDisk(1.0, 1.0),
        GaussianDensity(1.0, 2.0),
        GaussianDensity(0.5, 1.0, center=0.8j),
        Density(lambda w: np.exp(-np.abs(w) ** 2) * (1 + 0.4 * w.real), 5.0),
    ]


def joined_spectrum(entries, radii, alpha):
    """(k, S): _ring_spectrum's blocks joined into one rings x bands array."""
    k, blocks = _ring_spectrum(entries, radii, alpha)
    spectrum = np.zeros((radii.size, k.size), dtype=complex)
    for start, j0, block in blocks:
        spectrum[start:start + block.shape[0], j0:j0 + block.shape[1]] = block
    return k, spectrum


def joined_transform(entries, grid, alpha):
    """_ring_transform's blocks joined in node order (radius-major)."""
    return np.concatenate([samples.ravel() for _, samples
                           in _ring_transform(entries, grid, alpha)])


class TestPointMassBuilder:

    def test_delta_origin_single_entry(self):
        op = build_from_point_masses(delta(0j), 8, PARAMS)
        assert op.entries[0, 0] == pytest.approx(1.0 / math.pi, rel=1e-15)
        off = op.entries.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) == 0.0

    def test_empty_list_gives_zero_matrix(self):
        op = build_from_point_masses(PointMasses(()), 6, PARAMS)
        assert np.max(np.abs(op.entries)) == 0.0

    def test_trace_approaches_mass_identity(self):
        op = build_from_point_masses(delta(1.5), 64, PARAMS)
        assert trace(op).real == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_entries_immutable(self):
        op = build_from_point_masses(delta(0j), 4, PARAMS)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    @pytest.mark.parametrize("bilinear", [False, True])
    def test_far_mass_past_truncation_refused(self, bilinear):
        # unit mass at z = 20 keeps gammainc(64, 400) = 1 of its kernel
        # past N = 64; the matrix would be zero to 1e-98
        mu = PointMasses(((0j, 1e-6), (20.0, 1.0)))
        build = build_hankel if bilinear else build_from_point_masses
        with pytest.raises(TruncationError, match="kernel basis tail"):
            build(mu, 64, PARAMS)

    def test_far_mass_negligible_by_weight_passes(self):
        # the tail counts each point by its share of the mass
        mu = PointMasses(((0j, 1.0), (20.0, 1e-13)))
        op = build_from_point_masses(mu, 64, PARAMS)
        assert trace(op).real == pytest.approx(1.0 / math.pi, rel=1e-12)


def radial(profile, support_radius=100.0):
    return Density(lambda z: profile(np.abs(z)), support_radius)


class TestRadialBuilder:

    def test_full_plane_constant_is_identity(self):
        op = build_from_density(radial(lambda t: np.ones_like(t)), 64, PARAMS)
        assert np.max(np.abs(op.entries - np.eye(64))) < 1e-12

    def test_gaussian_profile_geometric_diagonal(self):
        beta = 2.0
        op = build_from_density(radial(lambda t: np.exp(-beta * t * t)), 64,
                                PARAMS)
        expected = (1.0 / (1.0 + beta)) ** (np.arange(64) + 1)
        assert np.max(np.abs(np.diagonal(op.entries) - expected)) < 1e-13

    def test_unit_interval_indicator_incomplete_gamma(self):
        op = build_from_density(radial(lambda t: np.ones_like(t), 1.0), 64,
                                PARAMS)
        expected = gammainc(np.arange(64) + 1, 1.0)
        assert np.max(np.abs(np.diagonal(op.entries) - expected)) < 1e-13

    def test_non_finite_profile_rejected(self):
        with pytest.raises(QuadratureError):
            build_from_density(
                radial(lambda t: np.where(t > 4.0, np.inf, 1.0)), 8, PARAMS)


class TestDensityBuilder:

    def test_radial_density_matches_dedicated_path(self):
        # the disk a 1_{|w| <= R} has diagonal a P(n + 1, alpha R^2) and no
        # other entries: every ring carries only angular frequency 0
        op = build_from_density(UniformDisk(0.7, 1.0), 48, PARAMS)
        expected = 0.7 * gammainc(np.arange(48) + 1, 1.0)
        assert np.max(np.abs(np.diagonal(op.entries) - expected)) < 4e-15
        assert np.array_equal(op.entries, np.diag(np.diagonal(op.entries)))
        assert "warning" not in op.provenance

    def test_non_finite_density_rejected(self):
        # infinite inside the support, so a node sum would be NaN
        mu = Density(lambda w: np.where(np.abs(w) > 1.0, np.inf, 1.0), 3.0)
        with pytest.raises(QuadratureError):
            build_from_measure(mu, 16, FockParams(1.0))
        with pytest.raises(QuadratureError):
            build_hankel(mu, 16, FockParams(1.0))

    def test_large_disk_diagonal_approaches_identity(self):
        # Basis mass outside radius 12 is below 1e-12 for the first 32 modes;
        # the disk's basis tail past N reaches 1e-12 below N = 228
        op = build_from_measure(UniformDisk(1.0, 12.0), 256, PARAMS)
        assert np.max(np.abs(np.diagonal(op.entries)[:32] - 1.0)) < 1e-12

    def test_angular_selection_single_band(self):
        op = build_from_density(Density(lambda w: w, 1.0), 24, PARAMS)
        m, n = np.indices((24, 24))
        off_band = np.where(m == n + 1, 0, op.entries)
        assert np.max(np.abs(off_band)) < 1e-14
        # 2 * integral of t^3 e^{-t^2} over [0, 1]
        assert op.entries[1, 0].real == pytest.approx(1.0 - 2.0 / math.e,
                                                      rel=1e-12)

    def test_point_masses_rejected(self):
        with pytest.raises(FocklabError):
            build_from_density(delta(0j), 8, PARAMS)


class TestHankelBuilder:

    def test_delta_origin(self):
        h = build_hankel(delta(0j), 8, PARAMS)
        assert h.entries[0, 0] == pytest.approx(1.0 / math.pi, rel=1e-15)
        rest = h.entries.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) == 0.0

    def test_delta_one_closed_form(self):
        h = build_hankel(delta(1.0), 16, PARAMS)
        m, n = np.indices((16, 16))
        expected = np.exp(-1.0 - 0.5 * gammaln(m + 1.0)
                          - 0.5 * gammaln(n + 1.0)) / math.pi
        assert np.max(np.abs(h.entries - expected)) < 1e-14

    def test_radial_measure_keeps_only_corner(self):
        h = build_hankel(UniformDisk(1.0, 1.0), 24, PARAMS)
        assert h.entries[0, 0].real == pytest.approx(1.0 - 1.0 / math.e,
                                                     rel=1e-12)
        rest = h.entries.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_exact_symmetry(self):
        h = build_hankel(Density(lambda w: np.exp(-np.abs(w) ** 2) * w.imag,
                                 4.0), 32, PARAMS)
        assert np.array_equal(h.entries, h.entries.T)
        with pytest.raises(ValueError):
            HankelMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                         2, PARAMS)


class TestBerezin:

    def test_consistency_with_measure_transform(self):
        # the operator's transform e(z)^T M conj(e(z)) against the measure's
        zs = np.array([0j, 0.7 - 0.3j, 1.5])
        for mu in corpus():
            op = build_from_measure(mu, 64, PARAMS)
            e = basis_matrix(zs, op.truncation, PARAMS.alpha)
            transform = np.sum(e * (op.entries @ np.conj(e)), axis=0)
            for z, a in zip(zs, transform):
                b = berezin_measure(mu, z, PARAMS)
                assert abs(a - b) <= 1e-8 * (1.0 + abs(b)), (mu, z)


class TestTrace:

    def test_gaussian_density_geometric_sum(self):
        op = build_from_measure(GaussianDensity(1.0, 1.0), 64, PARAMS)
        assert trace(op).real == pytest.approx(1.0, rel=1e-13)

    def test_zero_operator(self):
        op = build_from_point_masses(PointMasses(()), 16, PARAMS)
        assert trace(op) == 0.0
        assert trace_via_berezin(op) == 0.0

    def test_quadrature_route_agrees_on_corpus(self):
        for mu in corpus():
            op = build_from_measure(mu, 64, PARAMS)
            direct = trace(op)
            quad = trace_via_berezin(op)
            assert abs(direct - quad) <= 1e-7 * max(1e-30, abs(direct)), mu

    def test_covering_grid_holds_top_mode_tail(self, monkeypatch):
        # the cutoff puts Q(N + 1, alpha R^2) at 1e-13, and the top mode's
        # tail outside the grid, Q(N, alpha R^2), is smaller still; the stub
        # hands back the cutoff, so no 8,192-node rule or N x N matrix is built
        monkeypatch.setattr(toeplitz, "polar_grid",
                            lambda cutoff, *nodes: cutoff)
        for size in (8, 64, 128, 1024, 4096):
            for alpha in (1e-6, 1.0, 1e6):
                op = SimpleNamespace(truncation=size,
                                     params=FockParams(alpha=alpha))
                cutoff = toeplitz._covering_grid(op)
                rim = gammaincc(size, alpha * cutoff ** 2)
                assert rim <= 1.01e-13 < _TAIL_TOL, (size, alpha, rim)

    def test_truncation_monotonicity(self):
        for mu in (delta(0.25), UniformDisk(1.0, 1.5), GaussianDensity(1.0, 0.5)):
            assert is_positive(mu)
            bound = (PARAMS.alpha / math.pi) * total_mass(mu).real
            previous = 0.0
            # the disk's basis tail past N reaches 1e-12 below N = 19
            for size in (24, 32, 48, 64):
                value = trace(toeplitz_operator(mu, size)).real
                assert value >= previous - 1e-12
                assert value <= bound + 1e-12
                previous = value


class TestSchatten:

    def test_psd_trace_norm_is_trace(self):
        op = build_from_measure(UniformDisk(1.0, 1.0), 64, PARAMS)
        sigma = singular_values(op)
        assert schatten_norm(sigma, 1.0) == pytest.approx(trace(op).real,
                                                          abs=1e-9)

    def test_rank_one_kernel_projector_norm(self):
        for w in (0j, 1.0, 2j, 1.4 + 1.4j):
            op = build_from_point_masses(delta(w), 64, PARAMS)
            sigma = singular_values(op)
            assert schatten_norm(sigma, 1.0) == pytest.approx(1.0 / math.pi,
                                                              abs=1e-10)

    def test_identity_trace_norm_counts_modes(self):
        sigma = singular_values(identity_operator(48, PARAMS))
        assert schatten_norm(sigma, 1.0) == pytest.approx(48.0, rel=1e-12)
        assert schatten_norm(sigma, math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_order_below_one_rejected(self):
        op = identity_operator(4, PARAMS)
        with pytest.raises(ValueError):
            schatten_norm(singular_values(op), 0.5)

    def test_adjoint_pair_equal(self):
        for mu in corpus():
            lhs, rhs = adjoint_isometry_check(build_from_measure(mu, 48, PARAMS))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_adjoint_of_zero(self):
        op = build_from_point_masses(PointMasses(()), 8, PARAMS)
        assert adjoint_isometry_check(op) == (0.0, 0.0)


class TestPositivity:

    def test_hermitized_spectrum_nonnegative(self):
        for mu in corpus():
            if not is_positive(mu):
                continue
            op = build_from_measure(mu, 64, PARAMS)
            herm = 0.5 * (op.entries + op.entries.conj().T)
            smallest = float(np.linalg.eigvalsh(herm)[0])
            scale = float(np.linalg.norm(op.entries, 2))
            assert smallest >= -1e-10 * scale, mu


class TestTransformL1Bound:

    def test_below_trace_norm_on_corpus(self):
        for mu in corpus():
            op = build_from_measure(mu, 64, PARAMS)
            lhs = transform_l1_norm(op)
            rhs = schatten_norm(singular_values(op), 1.0)
            assert lhs <= rhs * (1.0 + 1e-10), mu


class TestTracePairing:

    def test_identity_against_unit_disk(self):
        matrix_side, quad_side = trace_pairing(UniformDisk(1.0, 1.0),
                                               identity_operator(64, PARAMS))
        assert matrix_side.real == pytest.approx(1.0, rel=1e-10)
        assert quad_side.real == pytest.approx(1.0, rel=1e-10)

    def test_zero_operator(self):
        zero = TruncatedOperator(np.zeros((32, 32), dtype=complex), 32, PARAMS)
        matrix_side, quad_side = trace_pairing(UniformDisk(1.0, 1.0), zero)
        assert matrix_side == 0.0
        assert quad_side == 0.0

    def test_delta_operator_against_disk(self):
        op = build_from_point_masses(delta(0j), 64, PARAMS)
        matrix_side, quad_side = trace_pairing(UniformDisk(1.0, 2.0), op)
        expected = (1.0 - math.exp(-4.0)) / math.pi
        assert matrix_side.real == pytest.approx(expected, rel=1e-10)
        assert quad_side.real == pytest.approx(expected, rel=1e-10)

    def test_pair_agreement_on_corpus(self):
        phi = Density(lambda w: np.exp(-0.5 * np.abs(w) ** 2), 4.0)
        for mu in corpus():
            op = build_from_measure(mu, 64, PARAMS)
            matrix_side, quad_side = trace_pairing(phi, op)
            assert abs(matrix_side - quad_side) <= 1e-6 * max(
                1e-30, abs(matrix_side)), mu

    def test_every_density_kind_answers(self):
        identity = identity_operator(64, PARAMS)
        for phi in (Density(lambda w: np.exp(-np.abs(w - 0.3) ** 2), 4.0,
                            center=0.3),
                    UniformDisk(1.0, 1.5),
                    GaussianDensity(1.0, 8.0)):
            matrix_side, quad_side = trace_pairing(phi, identity)
            expected = (PARAMS.alpha / math.pi) * total_mass(phi)
            assert matrix_side == pytest.approx(expected, rel=1e-6), phi
            assert quad_side == pytest.approx(matrix_side, rel=1e-6), phi

    @pytest.mark.parametrize("size", [256, 512])
    def test_identity_matrix_side_is_product_diagonal(self, size):
        # the diagonal of T_phi S is read without forming the product; for
        # the CLI's identity operator it is the product's, bit for bit
        identity = identity_operator(size, PARAMS)
        for phi in (UniformDisk(1.0, 1.0),
                    GaussianDensity(1.0, 0.6, center=1.2 - 0.9j)):
            left = build_from_measure(phi, size, PARAMS)
            matrix_side, _ = trace_pairing(phi, identity)
            assert matrix_side == complex_fsum(
                np.diagonal(left.entries @ identity.entries)), phi

    def test_basis_tail_over_support_refused(self):
        # the Gaussian's grid reaches radius 6.4, where the kernel keeps
        # all of its basis mass past N = 16
        with pytest.raises(TruncationError,
                           match="kernel basis tail .* over the symbol "
                                 "support"):
            trace_pairing(GaussianDensity(1.0, 1.0),
                          identity_operator(16, PARAMS))


class TestRadialTracePairing:
    """A disk or centred Gaussian pairs with band 0 of the transform alone."""

    @staticmethod
    def full_route(phi, op):
        grid = _quadrature_grid(op.truncation, PARAMS,
                                toeplitz._density_support(phi))
        values = density_values(phi, grid.nodes)
        transform = joined_transform(op.entries, grid, PARAMS.alpha)
        return (PARAMS.alpha / math.pi) * complex_fsum(
            grid.weights * values * transform)

    @pytest.mark.parametrize("size", [24, 64, 512])
    def test_matches_full_route(self, size):
        rng = np.random.default_rng(size)
        ops = [identity_operator(size, PARAMS), TruncatedOperator(
            rng.standard_normal((size, size))
            + 1j * rng.standard_normal((size, size)), size, PARAMS)]
        for phi in (UniformDisk(0.7 + 0.2j, 1.3), GaussianDensity(1.5, 16.0)):
            for op in ops:
                full = self.full_route(phi, op)
                _, quad_side = trace_pairing(phi, op)
                assert abs(quad_side - full) <= 1e-15 * abs(full), (phi, size)


def mp_disk_tail(size, x):
    """(X P(N, X) - N P(N + 1, X)) / X at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        p = [mpmath.gammainc(a, 0, x, regularized=True)
             for a in (size, size + 1)]
        return float((x * p[0] - size * p[1]) / x)


class TestDiskTruncation:
    """A disk whose basis tail past N reaches 1e-12 is refused."""

    @pytest.mark.parametrize("size", [8, 64, 512])
    def test_tail_matches_mpmath(self, size):
        for x in (1e-300, 1e-8, 0.5, 4.0, size / 2, size - 1e-9, size,
                  size + 1.0, 3.0 * size, 1e6):
            ref = mp_disk_tail(size, x)
            got = toeplitz._disk_basis_tail(size, x)
            assert abs(got - ref) <= 1e-12 * ref + 1e-300, (size, x)

    def test_benchmark_disks_pass(self):
        # radius up to 2 at N >= 64, alpha 1
        assert toeplitz._disk_basis_tail(64, 4.0) <= 8.6e-55
        op = build_from_measure(UniformDisk(2.0, 2.0), 64, PARAMS)
        assert op.provenance == "closed-form(disk)"


def mp_gaussian_tail(size, alpha, mu):
    """Mean of P(N, alpha|w|^2) over the normalized Gaussian, at 50 digits:
    alpha|w|^2 is Gamma(j + 1, alpha/beta) with j ~ Pois(beta|c|^2), and
    a Poisson count of Gamma(j + 1) mean is negative binomial, past N with
    probability I_{alpha/(alpha + beta)}(N, j + 1)."""
    with mpmath.workdps(50):
        alpha, beta = mpmath.mpf(alpha), mpmath.mpf(mu.beta)
        y = beta * abs(mpmath.mpc(mu.center.real, mu.center.imag)) ** 2
        q = alpha / (alpha + beta)
        top = int(y + 20 * mpmath.sqrt(y) + 60)
        return float(mpmath.fsum(
            mpmath.exp(-y) * y ** j / mpmath.factorial(j)
            * mpmath.betainc(size, j + 1, 0, q, regularized=True)
            for j in range(top + 1)))


class TestGaussianTruncation:
    """A Gaussian whose basis tail past N reaches the trace tolerance is
    refused."""

    @pytest.mark.parametrize("size, alpha, mu", [
        # centred: (alpha/(alpha + beta))^N
        (8, 1.0, GaussianDensity(1.0, 0.5)),
        (512, 1.0, GaussianDensity(1.0, 0.01)),
        (8, 1.0, GaussianDensity(1.0, 2.0, center=0.5j)),
        (16, 0.5, GaussianDensity(1.0, 5.0, center=3.0)),
        (64, 1.0, GaussianDensity(1.0, 0.01)),
        (64, 1.0, GaussianDensity(0.6, 0.6, center=1.2 - 0.9j)),
        (64, 1.0, GaussianDensity(1.0, 1.0)),
        (128, 2.0, GaussianDensity(1.0, 0.3, center=2.0 + 1.0j)),
        (256, 1.0, GaussianDensity(1.0, 0.2, center=4.0)),
        (512, 1.0, GaussianDensity(1.0, 0.1, center=5.0)),
    ])
    def test_tail_matches_mpmath(self, size, alpha, mu):
        _, tail = toeplitz._gaussian_toeplitz(mu, size, alpha)
        assert abs(tail - mp_gaussian_tail(size, alpha, mu)) <= 5e-15

    @pytest.mark.parametrize("mu", [
        GaussianDensity(1.0, 0.01), GaussianDensity(1.0, 1e-300),
        GaussianDensity(1.0, 0.6, center=3.0),
        GaussianDensity(1.0, 1.0, center=1.5e308 + 1.5e308j)])
    def test_wide_or_far_refused(self, mu):
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(TruncationError,
                               match="kernel basis tail .* Gaussian"):
                build_from_measure(mu, 64, PARAMS)

    def test_benchmark_gaussians_pass(self):
        # beta 0.6 at distance 1.5 from the origin, the widest and
        # farthest of the benchmark's range, has tail 3.7e-10 at N = 64
        mu = GaussianDensity(1.0, 0.6, center=1.5)
        _, tail = toeplitz._gaussian_toeplitz(mu, 64, 1.0)
        assert 3.6e-10 < tail < toeplitz._GAUSSIAN_TAIL_TOL
        op = build_from_measure(mu, 64, PARAMS)
        assert op.provenance == "closed-form(gaussian)"


def dense_transform(entries, nodes):
    e = basis_matrix(nodes, entries.shape[0], PARAMS.alpha)
    return np.sum(e * (entries @ np.conj(e)), axis=0)


def dense_pairing(nodes, c, size, bilinear=False):
    """(alpha/pi) sum_i c_i L[m, i] E[n, i] over all nodes at once."""
    e = basis_matrix(nodes, size, PARAMS.alpha)
    right = c[:, None] * e.T
    left = e if bilinear else np.conj(e, out=e)
    return (PARAMS.alpha / math.pi) * (left @ right)


def long_double_pairing(nodes, c, size, chunk=4096):
    """dense_pairing's sum with the products summed in long double, a chunk
    of nodes at a time.  Summed in double over 1e5 nodes, dense_pairing
    moves by 1e-15 of the norm with the order of the nodes."""
    total = np.zeros((size, size), dtype=np.clongdouble)
    for k in range(0, len(nodes), chunk):
        e = basis_matrix(nodes[k:k + chunk], size,
                         PARAMS.alpha).astype(np.clongdouble)
        total += np.conj(e) @ (c[k:k + chunk, None] * e.T)
    return ((PARAMS.alpha / math.pi) * total).astype(complex)


RING_SYMBOLS = [
    GaussianDensity(0.7, 1.3, center=1.1 - 0.4j),
    Density(lambda w: np.exp(-np.abs(w) ** 2) * (w.real - 0.3 * w.imag ** 2),
            4.0, center=0.2 + 0.1j),
]


class TestRingPath:
    """Ring-by-ring FFT sums against the dense node sums on the same grid."""

    @pytest.mark.parametrize("size", [24, 64])
    @pytest.mark.parametrize("which", ["default", "aliased"])
    @pytest.mark.parametrize("mu", RING_SYMBOLS, ids=["gaussian", "signed"])
    def test_matches_dense_node_sum(self, mu, size, which):
        if which == "default":
            grid = _quadrature_grid(size, PARAMS, 6.0)
        else:
            # fewer angles than the 2N - 1 frequencies: both sums alias
            grid = polar_grid(7.0, size + 8, 2 * size - 5)
        c = grid.weights * density_values(mu, grid.nodes)
        for bilinear in (False, True):
            dense = dense_pairing(grid.nodes, c, size, bilinear)
            ring = _ring_pairing(mu, grid, size, PARAMS.alpha, bilinear)
            assert np.max(np.abs(ring - dense)) < 1e-14
        entries = toeplitz_operator(mu, size).entries
        ring = joined_transform(entries, grid, PARAMS.alpha)
        dense = dense_transform(entries, grid.nodes)
        assert np.max(np.abs(ring - dense)) < 1e-14


def band_loop_spectrum(entries, radii, alpha):
    """Reference ring spectrum: the band-by-band loop over k = m - n.

    Column k + N - 1 of row t is sum_m M[m, m - k] rho_m(t) rho_{m-k}(t).
    """
    size = entries.shape[0]
    rho = basis_matrix(radii, size, alpha).real
    spectrum = np.zeros((radii.size, 2 * size - 1), dtype=complex)
    for k, m, n, prod in _ring_bands(rho):
        spectrum[:, k + size - 1] = entries[m, n] @ prod
    return spectrum


def edge_point_masses(size):
    """Two masses as far out as the truncation check lets them go."""
    lo, hi = 0.0, float(size)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if toeplitz.basis_tail_mass(size, 1.0, math.sqrt(mid)) < 5e-13:
            lo = mid
        else:
            hi = mid
    r = math.sqrt(lo)
    return PointMasses(((r, 1.0), (-0.6 * r + 0.8j * r, 0.5)))


class TestBlockedRingSpectrum:
    """Blocked matrix-product ring spectra against the band loop."""

    @pytest.mark.parametrize("size", [24, 64, 128, 512])
    @pytest.mark.parametrize("symbol", ["points", "disk", "gaussian",
                                        "random"])
    def test_matches_band_loop(self, size, symbol):
        if symbol == "random":
            rng = np.random.default_rng(size)
            entries = (rng.standard_normal((size, size))
                       + 1j * rng.standard_normal((size, size)))
        else:
            mu = {"points": edge_point_masses(size),
                  "disk": UniformDisk(1.3, 1.0),
                  "gaussian": GaussianDensity(0.6, 1.0, center=1.2 - 0.9j),
                  }[symbol]
            entries = toeplitz_operator(mu, size).entries
        op = TruncatedOperator(entries, size, PARAMS)
        radii = _covering_grid(op).radii
        if size == 512:
            radii = radii[::4]  # keeps the reference loop under a second
        with np.errstate(over="raise", invalid="raise"):
            k, blocked = joined_spectrum(entries, radii, PARAMS.alpha)
        reference = band_loop_spectrum(entries, radii, PARAMS.alpha)
        full = np.zeros_like(reference)
        full[:, k + size - 1] = blocked
        assert np.all(np.isfinite(blocked))
        scale = np.max(np.abs(entries))
        assert np.max(np.abs(full - reference)) <= 1e-14 * scale

    def test_only_nonzero_bands(self):
        entries = np.diag(np.arange(1.0, 9.0)).astype(complex)
        entries[5, 2] = 1j
        radii = _covering_grid(TruncatedOperator(entries, 8, PARAMS)).radii
        k, spectrum = joined_spectrum(entries, radii, PARAMS.alpha)
        assert k.tolist() == [0, 1, 2, 3]
        k, spectrum = joined_spectrum(np.zeros((8, 8)), radii,
                                      PARAMS.alpha)
        assert k.size == 0 and spectrum.shape == (radii.size, 0)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_entries_scale_exactly(self, scale):
        rng = np.random.default_rng(7)
        entries = (rng.standard_normal((64, 64))
                   + 1j * rng.standard_normal((64, 64)))
        radii = _covering_grid(TruncatedOperator(entries, 64, PARAMS)).radii
        with np.errstate(over="raise", invalid="raise"):
            _, unit = joined_spectrum(entries, radii, PARAMS.alpha)
            _, big = joined_spectrum(scale * entries, radii, PARAMS.alpha)
        assert np.max(np.abs(big / scale - unit)) <= 1e-14 * np.max(
            np.abs(entries))


class TestBandZeroTrace:
    """The k = 0 band alone gives the full transform's plane integral."""

    @pytest.mark.parametrize("size", [24, 64, 512])
    def test_matches_full_transform_route(self, size):
        rng = np.random.default_rng(size)
        ops = [toeplitz_operator(mu, size) for mu in (
            UniformDisk(1.3, 1.0), GaussianDensity(0.6, 1.0, center=1.2 - 0.9j),
            edge_point_masses(size))]
        ops.append(TruncatedOperator(
            rng.standard_normal((size, size))
            + 1j * rng.standard_normal((size, size)), size, PARAMS))
        for op in ops:
            grid = _covering_grid(op)
            transform = joined_transform(op.entries, grid, PARAMS.alpha)
            full = (PARAMS.alpha / math.pi) * complex_fsum(
                grid.weights * transform)
            assert abs(trace_via_berezin(op) - full) <= 1e-15 * abs(full)


def whole_band_layout(q):
    """B[m, k + N - 1] = q[m, m - k], zero where m - k leaves 0..N-1."""
    size = q.shape[0]
    buffer = np.zeros((size, 2 * size), dtype=q.dtype)
    buffer[:, :size] = q[:, ::-1]
    return buffer.ravel()[:size * (2 * size - 1)].reshape(size, -1)


def whole_grid_spectrum(entries, radii, alpha):
    """(k, S) for every ring at once, as the transforms were before they
    streamed: one basis sample of all radii and one rings x bands array."""
    size = entries.shape[0]
    rows, cols = np.nonzero(entries)
    k = np.arange(np.min(rows - cols, initial=0),
                  np.max(rows - cols, initial=-1) + 1)
    spectrum = np.zeros((radii.size, k.size), dtype=complex)
    if not k.size:
        return k, spectrum
    scale = math.frexp(max(np.max(np.abs(entries.real)),
                           np.max(np.abs(entries.imag))))[1]
    scaled = np.ldexp(np.ascontiguousarray(entries).view(float),
                      -scale).view(complex)
    low = int(k[0])
    layout = whole_band_layout(scaled)[:, low + size - 1:
                                       low + size - 1 + k.size]
    rho = basis_matrix(radii, size, alpha).real
    g = ((size - 1) * (math.log(alpha) + 2.0 * np.log(radii))
         + alpha * radii ** 2)
    padded = np.zeros(3 * size)
    start = 0
    while start < radii.size:
        b = int(np.searchsorted(g, g[start] + toeplitz._BLOCK_SPAN,
                                "right")) - 1
        stop = int(np.searchsorted(g, g[b] + toeplitz._BLOCK_SPAN, "right"))
        live = np.flatnonzero(rho[:, b])
        lo, hi = int(live[0]), int(live[-1]) + 1
        j0, j1 = max(0, lo - hi + 1 - low), min(k.size, hi - lo - low)
        if j0 < j1:
            padded[size:2 * size] = rho[:, b]
            column = padded[size + lo - low - j1 + 1:size + hi - low - j0]
            shifted = sliding_window_view(column, j1 - j0)[:, ::-1]
            ref = rho[lo:hi, b]
            bands = (ref[:, None] * layout[lo:hi, j0:j1]) * shifted
            ratio = rho[lo:hi, start:stop].T / ref
            block = ((ratio * ratio) @ bands.view(float)).view(complex)
            block *= np.exp(np.multiply.outer(
                np.log(radii[b] / radii[start:stop]), k[j0:j1]))
            spectrum[start:stop, j0:j1] = block
        start = stop
    return k, np.ldexp(spectrum.view(float), scale).view(complex)


def whole_grid_transform(entries, grid, alpha):
    """The transform at every node of the grid at once, radius-major."""
    k, bands = whole_grid_spectrum(entries, grid.radii, alpha)
    angular = grid.n_angular
    bins = k % angular
    spectrum = np.zeros((grid.n_radial, angular), dtype=complex)
    for lo in range(0, k.size, angular):
        spectrum[:, bins[lo:lo + angular]] += bands[:, lo:lo + angular]
    return ifft(spectrum, axis=1, norm="forward").ravel()


def whole_grid_ring_sums(weighted, grid):
    return weighted.reshape(grid.n_radial, grid.n_angular).sum(axis=1)


def whole_grid_l1_norm(op):
    grid = _covering_grid(op)
    samples = whole_grid_transform(op.entries, grid, PARAMS.alpha)
    rings = whole_grid_ring_sums(grid.weights * np.abs(samples), grid)
    return (PARAMS.alpha / math.pi) * real_fsum(rings)


def whole_grid_band_zero(op, grid, ring_density):
    rho = basis_matrix(grid.radii, op.truncation, PARAMS.alpha).real
    rings = ring_density * (np.diagonal(op.entries) @ (rho * rho))
    return 2.0 * PARAMS.alpha * complex_fsum(
        grid.radial_weights * grid.radii * rings)


def whole_grid_pairing(phi, op):
    """trace_pairing's quadrature side, every node of the grid at once."""
    radial = isinstance(phi, UniformDisk) or (
        isinstance(phi, GaussianDensity) and phi.center == 0)
    grid = _quadrature_grid(op.truncation, PARAMS,
                            toeplitz._density_support(phi), radial)
    if radial:
        return whole_grid_band_zero(op, grid,
                                    density_values(phi, grid.radii))
    values = density_values(phi, grid.nodes)
    transform = whole_grid_transform(op.entries, grid, PARAMS.alpha)
    rings = whole_grid_ring_sums(grid.weights * values * transform, grid)
    return (PARAMS.alpha / math.pi) * complex_fsum(rings)


def edge_radius(size):
    """The radius of edge_point_masses."""
    return abs(edge_point_masses(size).points[0][0])


def streamed_operators(size):
    """A five-point cloud with complex weights, a disk, an off-centre
    Gaussian and a random complex matrix at truncation N."""
    r = edge_radius(size)
    cloud = PointMasses(tuple(
        (f * r * np.exp(1j * a), w) for f, a, w in (
            (1.0, 0.3, 1.0), (0.8, 2.1, 0.5 - 1.0j), (0.55, -1.9, 1.2),
            (0.35, 4.0, -0.8 + 0.2j), (0.1, 1.0, 0.3j))))
    disk = UniformDisk(1.3, 1.0)
    rng = np.random.default_rng(size)
    return [
        build_from_measure(cloud, size, PARAMS),
        TruncatedOperator(np.diag(disk.amplitude * disk_diagonal(
            disk, size, PARAMS.alpha)), size, PARAMS),
        toeplitz_operator(GaussianDensity(0.6, 1.0, center=1.2 - 0.9j), size),
        TruncatedOperator(rng.standard_normal((size, size))
                          + 1j * rng.standard_normal((size, size)),
                          size, PARAMS)]


def pairing_symbols(size):
    """A disk (paired on band 0) and an off-centre Gaussian (paired at
    every node) inside the radius where the basis tail past N is 5e-13."""
    r = edge_radius(size)
    return [UniformDisk(0.7 + 0.2j, 0.9 * r),
            GaussianDensity(1.5, 50.0 / (0.6 * r) ** 2,
                            center=0.3 * r * np.exp(0.7j))]


class TestStreamedRings:
    """Transforms streamed a block of rings at a time give, bit for bit,
    the sums taken over the whole grid at once."""

    @pytest.mark.parametrize("size", [8, 24, 64, 128, 512])
    def test_bitwise_whole_grid(self, monkeypatch, size):
        ops = streamed_operators(size)
        phis = pairing_symbols(size)
        wanted = [(whole_grid_l1_norm(op),
                   whole_grid_band_zero(op, _covering_grid(op), 1.0),
                   [whole_grid_pairing(phi, op) for phi in phis])
                  for op in ops]
        # the default block, one ring a block, and blocks of seven rows of
        # the pairing grid's angles, which hold 14 or 21 of the covering
        # grid's narrower rows: no count that divides the grid's radii
        seven = 16 * 7 * max(192, 4 * size)
        for grid in (_covering_grid(ops[0]),
                     _quadrature_grid(size, PARAMS, 1.0)):
            assert grid.n_radial % (seven // (16 * grid.n_angular))
        for block in (toeplitz._RING_BLOCK_BYTES, 16, seven):
            monkeypatch.setattr(toeplitz, "_RING_BLOCK_BYTES", block)
            for op, (l1, band_zero, pairings) in zip(ops, wanted):
                assert np.array_equal(transform_l1_norm(op), l1)
                assert np.array_equal(trace_via_berezin(op), band_zero)
                for phi, want in zip(phis, pairings):
                    _, got = trace_pairing(phi, op)
                    assert np.array_equal(got, want), (block, phi)

    def test_sample_chunks(self, monkeypatch):
        # 40 radii a basis sample: a multiple of 8 that divides neither
        # grid's 1,024 radii
        monkeypatch.setattr(toeplitz, "_SAMPLE_BYTES", 16 * 512 * 40)
        assert toeplitz._radius_step(512) == 40
        ops = streamed_operators(512)
        phi = pairing_symbols(512)[0]
        for op in ops:
            assert np.array_equal(transform_l1_norm(op),
                                  whole_grid_l1_norm(op))
            assert np.array_equal(trace_via_berezin(op), whole_grid_band_zero(
                op, _covering_grid(op), 1.0))
            assert np.array_equal(trace_pairing(phi, op)[1],
                                  whole_grid_pairing(phi, op))

    def test_memory_stays_below_whole_grid(self):
        # on this cloud at N = 512 the whole-grid sums peaked at 69.3 MiB
        # (the norm) and 20.0 MiB (the trace) traced; streamed, 30.7 and
        # 9.1 MiB
        op = streamed_operators(512)[0]
        for transform, bound in ((transform_l1_norm, 40), (trace_via_berezin,
                                                           14)):
            tracemalloc.start()
            try:
                transform(op)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2 ** 20, transform.__name__


class TestCoveringGrid:

    @pytest.mark.parametrize("alpha", [1e-307, 1e-310, 5e-324])
    def test_cutoff_past_float_range_refused(self, alpha):
        op = identity_operator(16, FockParams(alpha=alpha))
        for transform in (trace_via_berezin, transform_l1_norm):
            with pytest.raises(QuadratureError, match="covering grid"):
                transform(op)

    def test_smallest_alpha_that_fits_answers(self):
        op = identity_operator(16, FockParams(alpha=1e-306))
        assert trace_via_berezin(op) == pytest.approx(16.0, rel=1e-12)


class TestBasisMatrix:

    def test_columns_have_unit_norm(self):
        nodes = np.array([0j, 1.0, 2j, 1.5 - 1.5j])
        e = basis_matrix(nodes, 96, 1.0)
        norms = np.sum(np.abs(e) ** 2, axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_origin_column(self):
        e = basis_matrix([0j], 8, 1.0)
        np.testing.assert_allclose(e[:, 0], np.eye(8)[:, 0])

    def test_empty_nodes(self):
        assert basis_matrix([], 8, 1.0).shape == (8, 0)


def mp_basis(nodes, size, alpha):
    """e_n(z) e^{-alpha |z|^2 / 2} at 50 digits, rounded to complex."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        out = np.empty((size, len(nodes)), dtype=complex)
        for i, z in enumerate(nodes):
            z = mpmath.mpc(z.real, z.imag)
            weight = mpmath.exp(-a * abs(z) ** 2 / 2)
            for n in range(size):
                out[n, i] = complex(mpmath.sqrt(a ** n / mpmath.factorial(n))
                                    * z ** n * weight)
    return out


class TestBasisRecurrence:
    """The peak-seeded recurrence against an mpmath reference."""

    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("alpha", [1.0, 1e4])
    def test_matches_mpmath(self, size, alpha):
        peak = math.sqrt(size / alpha)
        nodes = np.array([
            0j, peak * np.exp(0.3j), -peak * (1.0 - 1e-3) + 1e-4j,
            0.5 * peak * np.exp(2.9j), 1.4 * peak * np.exp(-1.2j),
            # past the underflow edge: alpha |z|^2 / 2 = 750 and 1100
            math.sqrt(1500.0 / alpha) * np.exp(0.7j),
            -1j * math.sqrt(2200.0 / alpha),
        ])
        e = basis_matrix(nodes, size, alpha)
        ref = mp_basis(nodes, size, alpha)
        assert np.max(np.abs(e - ref)) < 1e-14
        assert not np.any((e == 0) & (np.abs(ref) > 1e-300))

    def test_overflowing_modulus_gives_zero_column(self):
        e = basis_matrix([1e200, 3e153j], 16, 1.0)
        assert np.all(e == 0)


class TestChunkedPairing:
    """Blocks of nodes summed one at a time, against the one-block sum."""

    @pytest.mark.parametrize("count", [0, 3, 10, 23])
    @pytest.mark.parametrize("bilinear", [False, True])
    def test_chunk_boundaries(self, monkeypatch, count, bilinear):
        # five nodes a block at N = 32
        monkeypatch.setattr(toeplitz, "_PAIRING_CHUNK_BYTES", 16 * 32 * 5)
        rng = np.random.default_rng(count)
        nodes = 0.5 * (rng.normal(size=count) + 1j * rng.normal(size=count))
        c = rng.uniform(0.1, 1.0, count) + 0.3j * rng.normal(size=count)
        got = _pairing_matrix(nodes, c, 32, PARAMS.alpha,
                              conjugate_output=not bilinear)
        ref = dense_pairing(nodes, c, 32, bilinear)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.linalg.norm(ref)

    @pytest.mark.parametrize("count", [0, 3, 10, 23])
    @pytest.mark.parametrize("size", [13, 32])
    def test_phase_class_chunk_boundaries(self, monkeypatch, count, size):
        # five nodes a block at 32 rows, ten at 16 (13 padded to 16)
        monkeypatch.setattr(toeplitz, "_PAIRING_CHUNK_BYTES", 16 * 32 * 5)
        rng = np.random.default_rng(count)
        nodes = 0.2 * (rng.normal(size=count) + 1j * rng.normal(size=count))
        classes = (rng.normal(size=(4, count))
                   + 1j * rng.normal(size=(4, count)))
        classes[2] = 0.0  # a dead class is skipped
        got = _pairing_matrix(nodes, classes, size, PARAMS.alpha,
                              mass=np.abs(classes).sum(axis=0))
        n = np.arange(size)
        rho = (n[None, :] - n[:, None]) % 4
        ref = sum(np.where(rho == k, dense_pairing(nodes, classes[k], size),
                           0.0) for k in range(4))
        assert np.max(np.abs(got - ref)) <= 1e-15 * max(
            np.linalg.norm(ref), 1e-300)
        assert not got[rho == 2].any()

    def test_lattice_memory_stays_bounded(self):
        # about 1.1e5 cells: one unchunked basis matrix alone takes 110 MiB
        part = lattice_partition(GaussianDensity(1.0, 3.0), 1.0 / 64.0)
        assert len(part.cells) > 100_000
        tracemalloc.start()
        try:
            op = lattice_operator(part, 64, PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20
        ref = long_double_pairing(part.cells[:, 0], part.cells[:, 1], 64)
        assert np.max(np.abs(op.entries - ref)) <= 1e-15 * np.linalg.norm(ref)

    def test_far_lattice_cells_with_negligible_mass_pass(self):
        part = lattice_partition(GaussianDensity(1.0, 4.0), 0.25)
        tails = gammainc(24, np.abs(part.cells[:, 0]) ** 2)
        assert tails.max() > _TAIL_TOL
        op = lattice_operator(part, 24, PARAMS)
        discretized = sum(w for _, w in part.cells)
        assert trace(op).real == pytest.approx(discretized.real / math.pi,
                                               rel=1e-12)


def mp_gaussian_moments(mu, alpha):
    """(a, alpha/g, d, e^{-alpha beta |c|^2 / g}) at the working precision."""
    a = mpmath.mpc(mu.amplitude.real, mu.amplitude.imag)
    alpha, beta = mpmath.mpf(alpha), mpmath.mpf(mu.beta)
    c = mpmath.mpc(mu.center.real, mu.center.imag)
    g = alpha + beta
    return a, alpha / g, beta * c / g, mpmath.exp(-alpha * beta * abs(c) ** 2
                                                  / g)


def mp_gaussian_toeplitz(mu, alpha, size, rows):
    """Rows of T[m, n] = (alpha/pi) int conj(e_m) e_n e^{-alpha|w|^2} dmu.

    Expanding conj(w)^m w^n about d and integrating the Gaussian moments
    term by term gives T[m, n] = a alpha e^{-alpha beta|c|^2/g}
    sqrt(alpha^{m+n} m! n!) sum_k conj(d)^{m-k} d^{n-k}
    / ((m-k)! (n-k)! k! g^{k+1}), here at 50 digits.
    """
    with mpmath.workdps(50):
        a, share, d, damp = mp_gaussian_moments(mu, alpha)
        g = mpmath.mpf(alpha) / share
        fact = [mpmath.factorial(n) for n in range(size)]
        right = [d ** j / fact[j] for j in range(size)]
        left = [mpmath.conj(v) for v in right]
        inner = [1 / (fact[k] * g ** (k + 1)) for k in range(size)]
        coeff = [mpmath.sqrt(mpmath.mpf(alpha) ** n * fact[n])
                 for n in range(size)]
        out = {}
        for m in rows:
            for n in range(size):
                total = mpmath.fsum(left[m - k] * right[n - k] * inner[k]
                                    for k in range(min(m, n) + 1))
                out[m, n] = complex(a * alpha * damp * coeff[m] * coeff[n]
                                    * total)
    return out


def mp_gaussian_hankel(mu, alpha, size):
    """H[m, n] = a (alpha/g) e^{-alpha beta|c|^2/g} v_m v_n,
    v_n = sqrt(alpha^n / n!) d^n: the Gaussian mean of w^{m+n} about d."""
    with mpmath.workdps(50):
        a, share, d, damp = mp_gaussian_moments(mu, alpha)
        v = [mpmath.sqrt(mpmath.mpf(alpha) ** n / mpmath.factorial(n)) * d ** n
             for n in range(size)]
        return np.array([[complex(a * share * damp * v[m] * v[n])
                          for n in range(size)] for m in range(size)])


def mp_disk_diagonal(mu, alpha, size):
    """a P(n + 1, alpha R^2) for n < size, at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(alpha) * mpmath.mpf(mu.radius) ** 2
        return np.array([complex(mu.amplitude * mpmath.gammainc(
            n + 1, 0, x, regularized=True)) for n in range(size)])


def as_density(mu):
    """The same measure as a generic Density, for the quadrature route."""
    if isinstance(mu, UniformDisk):
        return Density(lambda w: np.full(w.shape, mu.amplitude), mu.radius)
    return Density(lambda w: mu.amplitude
                   * np.exp(-mu.beta * np.abs(w - mu.center) ** 2),
                   mu.effective_radius(1e-18), center=mu.center)


CLOSED_FORM_GAUSSIANS = [
    # d = 0: diagonal Toeplitz, Hankel e_0 e_0^T
    GaussianDensity(1.3, 2.0),
    # complex amplitude off the origin
    GaussianDensity(0.7 - 0.4j, 0.6, center=-0.9 + 1.2j),
    # far centre: alpha|d|^2 = 400 lies well past N; entries reach 1e-195
    GaussianDensity(1.0, 9.0, center=(16.0 + 12.0j) * 10.0 / 9.0),
]
CLOSED_FORM_DISKS = [UniformDisk(0.8, 1.3), UniformDisk(1.1 + 0.5j, 9.0)]


def assert_close(got, ref, rel):
    """Entrywise |got - ref| <= rel |ref|, with a floor at the subnormals."""
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref) <= rel * np.abs(ref) + 1e-300)


class TestClosedForms:
    """Gaussian and disk matrices against 50-digit references and against
    the quadrature route on the equivalent Density."""

    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("mu", CLOSED_FORM_GAUSSIANS,
                             ids=["centred", "complex", "far"])
    def test_gaussian_toeplitz_matches_mpmath(self, mu, size):
        op = toeplitz_operator(mu, size)
        rows = (0, 1, size // 3, size - 1)
        ref = mp_gaussian_toeplitz(mu, PARAMS.alpha, size, rows)
        for m in rows:
            assert_close(op.entries[m], [ref[m, n] for n in range(size)],
                         1e-12)

    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("mu", CLOSED_FORM_GAUSSIANS,
                             ids=["centred", "complex", "far"])
    def test_gaussian_hankel_matches_mpmath(self, mu, size):
        h = build_hankel(mu, size, PARAMS)
        assert_close(h.entries, mp_gaussian_hankel(mu, PARAMS.alpha, size),
                     1e-12)
        assert np.array_equal(h.entries, h.entries.T)

    @pytest.mark.parametrize("mu, size", [
        (CLOSED_FORM_DISKS[0], 64), (CLOSED_FORM_DISKS[0], 128),
        (CLOSED_FORM_DISKS[1], 192), (CLOSED_FORM_DISKS[1], 256)],
        ids=["small-64", "small-128", "wide-192", "wide-256"])
    def test_disk_matches_mpmath(self, mu, size):
        op = build_from_measure(mu, size, PARAMS)
        assert op.provenance == "closed-form(disk)"
        ref = mp_disk_diagonal(mu, PARAMS.alpha, size)
        assert_close(np.diagonal(op.entries), ref, 1e-13)
        assert np.array_equal(op.entries, np.diag(np.diagonal(op.entries)))
        h = build_hankel(mu, size, PARAMS)
        with mpmath.workdps(50):
            corner = complex(mu.amplitude * -mpmath.expm1(
                -mpmath.mpf(mu.radius) ** 2))
        assert_close(h.entries[0, 0], corner, 1e-15)
        rest = h.entries.copy()
        rest[0, 0] = 0.0
        assert not np.any(rest)

    def test_centred_gaussian_is_exactly_diagonal(self):
        mu = GaussianDensity(1.3, 2.0)
        op = build_from_measure(mu, 64, PARAMS)
        expected = 1.3 * (1.0 / 3.0) ** (np.arange(64) + 1)
        assert np.max(np.abs(np.diagonal(op.entries) - expected)
                      / expected) < 1e-13
        assert np.array_equal(op.entries, np.diag(np.diagonal(op.entries)))
        h = build_hankel(mu, 64, PARAMS)
        assert h.entries[0, 0] == pytest.approx(1.3 / 3.0, rel=1e-15)
        rest = h.entries.copy()
        rest[0, 0] = 0.0
        assert not np.any(rest)

    @pytest.mark.parametrize("mu, size", [
        (CLOSED_FORM_GAUSSIANS[0], 64), (CLOSED_FORM_GAUSSIANS[1], 64),
        (CLOSED_FORM_DISKS[0], 64), (CLOSED_FORM_DISKS[1], 192)],
        ids=["centred", "complex", "small", "wide"])
    def test_quadrature_route_agrees(self, mu, size):
        quad = build_from_density(as_density(mu), size, PARAMS)
        assert quad.provenance.startswith("2d-quadrature")
        exact = build_from_measure(mu, size, PARAMS)
        assert np.max(np.abs(exact.entries - quad.entries)) < 2e-14
        grid = _quadrature_grid(size, PARAMS, toeplitz._density_support(mu))
        ring = _ring_pairing(mu, grid, size, PARAMS.alpha, bilinear=True)
        exact = build_hankel(mu, size, PARAMS).entries
        assert np.max(np.abs(exact - ring)) < 2e-14

    @pytest.mark.parametrize("alpha, mu", [
        (1.0, GaussianDensity(1.0, 1.0, center=1e150 - 1e150j)),
        (1.0, GaussianDensity(1.0, 1.0, center=1.5e308 + 1.5e308j)),
        (1e-300, GaussianDensity(1.0, 1e300, center=3.0)),
        (1e300, GaussianDensity(1.0, 1e-300, center=3.0)),
        (1e300, GaussianDensity(1.0, 1e-300)),
    ])
    def test_extreme_parameters_stay_finite(self, alpha, mu):
        # the basis tail too: build_from_measure refuses all but the
        # narrowest Gaussian here without an overflow
        params = FockParams(alpha=alpha)
        with np.errstate(over="raise", invalid="raise"):
            op = toeplitz_operator(mu, 16, params)
            h = build_hankel(mu, 16, params)
            try:
                exact = build_from_measure(mu, 16, params)
            except TruncationError as exc:
                assert str(exc).startswith("kernel basis tail")
            else:
                assert np.array_equal(exact.entries, op.entries)
        assert np.all(np.isfinite(op.entries))
        assert np.all(np.isfinite(h.entries))

    def test_huge_disk_refused_without_overflow(self):
        # alpha R^2 overflows; the Toeplitz build refuses the truncation,
        # and the exact Hankel matrix stays finite
        mu = UniformDisk(1.0, 1e154)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(TruncationError, match="kernel basis tail"):
                build_from_measure(mu, 16, PARAMS)
            h = build_hankel(mu, 16, PARAMS)
        assert np.all(np.isfinite(h.entries))
