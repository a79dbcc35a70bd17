import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaln

from focklab.errors import (FocklabError, GridExtentError, QuadratureError,
                            TruncationError)
from focklab.fock import FockParams
from focklab.measure import (Density, GaussianDensity, PointMasses,
                             RadialDensity, berezin_measure, density_values,
                             is_positive, total_mass, uniform_disk)
from focklab.numerics import polar_grid
from focklab.toeplitz import (HankelMatrix, TruncatedOperator,
                              _pairing_matrix, _quadrature_grid,
                              _ring_pairing, _ring_transform,
                              adjoint_isometry_check, basis_matrix,
                              berezin_operator, build_from_density,
                              build_from_measure, build_from_point_masses,
                              build_hankel, identity_operator, schatten_norm,
                              trace, trace_pairing, trace_via_berezin,
                              transform_l1_norm)

PARAMS = FockParams(alpha=1.0)


def delta(w, weight=1.0):
    return PointMasses(((complex(w), complex(weight)),))


def corpus():
    return [
        delta(0j),
        delta(1.5 + 0.5j),
        PointMasses(((0j, 1.0), (1.0, 1.0))),
        uniform_disk(1.0, 1.0),
        GaussianDensity(1.0, 2.0),
        GaussianDensity(0.5, 1.0, center=0.8j),
        Density(lambda w: np.exp(-np.abs(w) ** 2) * (1 + 0.4 * w.real), 5.0),
    ]


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


def radial(profile, support_radius=math.inf):
    return RadialDensity(profile=profile, support_radius=support_radius)


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
        op = build_from_density(uniform_disk(0.7, 1.0), 48, PARAMS)
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
        # Basis mass outside radius 12 is below 1e-12 for the first 32 modes.
        op = build_from_measure(uniform_disk(1.0, 12.0), 32, PARAMS)
        assert np.max(np.abs(np.diagonal(op.entries) - 1.0)) < 1e-12

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
        h = build_hankel(delta(1.0), 12, PARAMS)
        m, n = np.indices((12, 12))
        expected = np.exp(-1.0 - 0.5 * gammaln(m + 1.0)
                          - 0.5 * gammaln(n + 1.0)) / math.pi
        assert np.max(np.abs(h.entries - expected)) < 1e-14

    def test_radial_measure_keeps_only_corner(self):
        h = build_hankel(uniform_disk(1.0, 1.0), 24, PARAMS)
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

    def test_delta_origin_gaussian_bump(self):
        op = build_from_point_masses(delta(0j), 64, PARAMS)
        for z in (0j, 1 + 1j, -2.0):
            expected = math.exp(-abs(z) ** 2) / math.pi
            assert berezin_operator(op, z) == pytest.approx(expected,
                                                            rel=1e-12)

    def test_identity_transform_is_one(self):
        op = identity_operator(64, PARAMS)
        for z in (0j, 1.0, 2j, 3.0):
            assert berezin_operator(op, z) == pytest.approx(1.0, rel=1e-12)

    def test_consistency_with_measure_transform(self):
        for mu in corpus():
            op = build_from_measure(mu, 64, PARAMS)
            for z in (0j, 0.7 - 0.3j, 1.5):
                a = berezin_operator(op, z)
                b = berezin_measure(mu, z, PARAMS)
                assert abs(a - b) <= 1e-8 * (1.0 + abs(b)), (mu, z)

    def test_tail_violation_raises(self):
        op = build_from_point_masses(delta(0j), 16, PARAMS)
        with pytest.raises(TruncationError):
            berezin_operator(op, 8.0)

    def test_vectorized(self):
        op = identity_operator(64, PARAMS)
        out = berezin_operator(op, np.array([0j, 1.0, 1j]))
        np.testing.assert_allclose(out, 1.0, rtol=1e-12)


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

    def test_undersized_grid_rejected(self):
        op = identity_operator(64, PARAMS)
        with pytest.raises(GridExtentError):
            trace_via_berezin(op, grid=polar_grid(3.0, 64, 64))

    def test_truncation_monotonicity(self):
        for mu in (delta(1.0), uniform_disk(1.0, 1.5), GaussianDensity(1.0, 0.5)):
            assert is_positive(mu)
            bound = (PARAMS.alpha / math.pi) * total_mass(mu).real
            previous = 0.0
            for size in (8, 16, 32, 64):
                value = trace(build_from_measure(mu, size, PARAMS)).real
                assert value >= previous - 1e-12
                assert value <= bound + 1e-12
                previous = value


class TestSchatten:

    def test_psd_trace_norm_is_trace(self):
        op = build_from_measure(uniform_disk(1.0, 1.0), 64, PARAMS)
        assert schatten_norm(op, 1.0) == pytest.approx(trace(op).real,
                                                       abs=1e-9)

    def test_rank_one_kernel_projector_norm(self):
        for w in (0j, 1.0, 2j, 1.4 + 1.4j):
            op = build_from_point_masses(delta(w), 64, PARAMS)
            assert schatten_norm(op, 1.0) == pytest.approx(1.0 / math.pi,
                                                           abs=1e-10)

    def test_identity_trace_norm_counts_modes(self):
        op = identity_operator(48, PARAMS)
        assert schatten_norm(op, 1.0) == pytest.approx(48.0, rel=1e-12)
        assert schatten_norm(op, math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_order_below_one_rejected(self):
        op = identity_operator(4, PARAMS)
        with pytest.raises(ValueError):
            schatten_norm(op, 0.5)

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
            rhs = schatten_norm(op, 1.0)
            assert lhs <= rhs * (1.0 + 1e-10), mu


class TestTracePairing:

    def test_identity_against_unit_disk(self):
        matrix_side, quad_side = trace_pairing(uniform_disk(1.0, 1.0),
                                               identity_operator(64, PARAMS))
        assert matrix_side.real == pytest.approx(1.0, rel=1e-10)
        assert quad_side.real == pytest.approx(1.0, rel=1e-10)

    def test_zero_operator(self):
        zero = TruncatedOperator(np.zeros((32, 32), dtype=complex), 32, PARAMS)
        matrix_side, quad_side = trace_pairing(uniform_disk(1.0, 1.0), zero)
        assert matrix_side == 0.0
        assert quad_side == 0.0

    def test_delta_operator_against_disk(self):
        op = build_from_point_masses(delta(0j), 64, PARAMS)
        matrix_side, quad_side = trace_pairing(uniform_disk(1.0, 2.0), op)
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

    def test_unbounded_support_rejected(self):
        with pytest.raises(FocklabError):
            trace_pairing(GaussianDensity(1.0, 1.0),
                          identity_operator(16, PARAMS))


def dense_transform(entries, nodes):
    e = basis_matrix(nodes, entries.shape[0], PARAMS.alpha)
    return np.sum(e * (entries @ np.conj(e)), axis=0)


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
            dense = _pairing_matrix(grid.nodes, c, size, PARAMS.alpha,
                                    conjugate_output=not bilinear)
            ring = _ring_pairing(mu, grid, size, PARAMS.alpha, bilinear)
            assert np.max(np.abs(ring - dense)) < 1e-14
        entries = build_from_measure(mu, size, PARAMS).entries
        ring = _ring_transform(entries, grid, PARAMS.alpha)
        dense = dense_transform(entries, grid.nodes)
        assert np.max(np.abs(ring - dense)) < 1e-14


class TestBasisMatrix:

    def test_columns_have_unit_norm(self):
        nodes = np.array([0j, 1.0, 2j, 1.5 - 1.5j])
        e = basis_matrix(nodes, 96, 1.0)
        norms = np.sum(np.abs(e) ** 2, axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_origin_column(self):
        e = basis_matrix([0j], 8, 1.0)
        np.testing.assert_allclose(e[:, 0], np.eye(8)[:, 0])
