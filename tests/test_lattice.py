import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, gammaln

from focklab import lattice
from focklab.cli import main
from focklab.errors import FocklabError, PositivityError
from focklab.fock import FockParams, conjugate_exponent, kernel_grid, norm
from focklab.lattice import (_FOLD_MIN_CELLS, LatticePartition,
                             _quarter_fold, convergence_study,
                             lattice_nuclear_bound, lattice_operator,
                             lattice_partition, rigidity_experiment)
from focklab.measure import (Density, GaussianDensity, PointMasses,
                             UniformDisk, berezin_measure, disk_cell_area,
                             total_mass, total_variation)
from focklab.toeplitz import (basis_matrix, build_from_point_masses,
                              schatten_norm, singular_values, trace)

PARAMS = FockParams(alpha=1.0)


def delta(w, weight=1.0):
    return PointMasses(((complex(w), complex(weight)),))


def lattice_deviation(part, mu, z_samples):
    """Largest gap between the transforms of the cell masses and of mu."""
    zs = np.asarray(z_samples, dtype=complex)
    discrete = berezin_measure(PointMasses(part.cells), zs, PARAMS)
    exact = berezin_measure(mu, zs, PARAMS)
    return float(np.max(np.abs(discrete - exact)))


class TestPartition:

    def test_origin_point_mass(self):
        part = lattice_partition(delta(0j), 1.0)
        assert part.cells.tolist() == [[0j, 1.0 + 0j]]

    def test_half_open_boundary_assignment(self):
        part = lattice_partition(delta(0.5), 1.0)
        assert part.cells.tolist() == [[1.0 + 0j, 1.0 + 0j]]

    def test_unit_disk_in_single_cell(self):
        part = lattice_partition(UniformDisk(1.0, 1.0), 2.0)
        assert len(part.cells) == 1
        center, weight = part.cells[0]
        assert center == 0j
        assert weight.real == pytest.approx(math.pi, rel=1e-15)

    def test_coincident_points_aggregate(self):
        mu = PointMasses(((0.1 + 0.1j, 1.0), (0.2, 2.0), (3.0, 0.5)))
        part = lattice_partition(mu, 1.0)
        assert len(part.cells) == 2
        assert part.cells[0][1] == pytest.approx(3.0)

    def test_mass_conservation_across_measures(self):
        corpus = [
            delta(0.7 - 0.2j, 1.5),
            PointMasses(((0j, 1.0), (1.3, -0.5j))),
            UniformDisk(2.0, 1.3),
            GaussianDensity(1.0, 2.0, center=0.3 + 0.2j),
        ]
        for mu in corpus:
            expected = total_mass(mu)
            ceiling = total_variation(mu)
            for r in (1.0, 0.5, 0.25):
                part = lattice_partition(mu, r)
                got = sum(w for _, w in part.cells)
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
                total_abs = math.fsum(abs(w) for _, w in part.cells)
                assert total_abs <= ceiling + 1e-10, (mu, r)

    def test_centers_distinct(self):
        part = lattice_partition(UniformDisk(1.0, 1.5), 0.25)
        centers = part.cells[:, 0]
        assert len(set(centers.tolist())) == len(centers)

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            lattice_partition(delta(0j), 0.0)

    def test_generic_density_refused(self):
        mu = Density(lambda w: np.exp(-np.abs(w) ** 2), 5.5)
        with pytest.raises(FocklabError, match="point masses, uniform disks "
                                               "and Gaussians"):
            lattice_partition(mu, 0.5)


def scalar_partition(mu, r):
    """Cell by cell, in Python scalars: the reference for lattice_partition.

    Returns the ((i, j), mass) list of cells the drop threshold keeps.
    """
    def index(x, y):
        return math.floor(x / r + 0.5), math.floor(y / r + 0.5)

    indexed = {}
    if isinstance(mu, PointMasses):
        for loc, weight in mu.points:
            ij = index(loc.real, loc.imag)
            indexed[ij] = indexed.get(ij, 0j) + weight
    elif isinstance(mu, GaussianDensity):
        s = math.sqrt(mu.beta)
        reach = int(math.ceil(mu.effective_radius(1e-18) / r) + 1.0)
        ci, cj = index(mu.center.real, mu.center.imag)
        scale_2d = mu.amplitude * math.pi / (4.0 * mu.beta)
        for i in range(ci - reach, ci + reach + 1):
            fx = (erf(s * ((i + 0.5) * r - mu.center.real))
                  - erf(s * ((i - 0.5) * r - mu.center.real)))
            for j in range(cj - reach, cj + reach + 1):
                fy = (erf(s * ((j + 0.5) * r - mu.center.imag))
                      - erf(s * ((j - 0.5) * r - mu.center.imag)))
                indexed[(i, j)] = scale_2d * fx * fy
    else:
        radius = mu.radius
        reach = int(math.floor(radius / r + 0.5) + 1.0)
        for i in range(-reach, reach + 1):
            for j in range(-reach, reach + 1):
                area = disk_cell_area((i - 0.5) * r, (i + 0.5) * r,
                                      (j - 0.5) * r, (j + 0.5) * r, radius)
                if area > 0.0:
                    indexed[(i, j)] = mu.amplitude * area
    floor_mass = 1e-15 * total_variation(mu)
    return [(ij, w) for ij, w in indexed.items() if abs(w) >= floor_mass]


EQUIVALENCE_CORPUS = [
    (UniformDisk(1.0, 1.0), 1.0 / 16.0),
    (UniformDisk(1.7, 0.784), 1.0 / 64.0),
    (UniformDisk(0.5 - 0.25j, 2.0), 0.3),
    (UniformDisk(1.0, 1.0), 2.0),
    (GaussianDensity(1.0, 4.0), 1.0 / 32.0),
    (GaussianDensity(1.3, 0.8, center=0.37 - 1.21j), 0.25),
    (GaussianDensity(0.5j, 6.0, center=-2.5 + 0.5j), 1.0 / 8.0),
    (PointMasses(((0.1 + 0.1j, 1.0), (0.2, 2.0), (3.0, 0.5),
                  (-0.5 - 0.5j, 0.25), (-1.3 + 0.7j, -1.0j),
                  (0.26, 1e-20))), 0.5),
]


def disk_interior(centers, r, radius):
    """Cells whose far corner lies inside the disk, with a rounding margin."""
    far = np.hypot(np.abs(centers.real) + 0.5 * r,
                   np.abs(centers.imag) + 0.5 * r)
    return far < radius * (1.0 - 1e-12)


class TestVectorisedPartition:
    """lattice_partition against the scalar loop it replaced."""

    @pytest.mark.parametrize("mu, r", EQUIVALENCE_CORPUS)
    def test_same_cells_same_order(self, mu, r):
        # cells matched by centre: they come in the order of their builder
        expected = {complex(i * r, j * r): w
                    for (i, j), w in scalar_partition(mu, r)}
        part = lattice_partition(mu, r)
        centers = part.cells[:, 0]
        assert len(centers) == len(expected)
        assert set(centers.tolist()) == expected.keys()
        got = part.cells[:, 1]
        ref = np.array([expected[c] for c in centers.tolist()])
        tol = 1e-12 * np.abs(ref)
        if isinstance(mu, UniformDisk):
            # the scalar loop takes an interior cell's area from corner
            # areas of order pi R^2 that cancel down to r^2
            inside = disk_interior(centers, r, mu.radius)
            tol[inside] = 1e-12 * total_variation(mu)
        assert np.all(np.abs(got - ref) <= tol)

    @pytest.mark.parametrize("radius, r", [(1.0, 1.0 / 16.0), (2.0, 0.3)])
    def test_disk_interior_cells_exact(self, radius, r):
        mu = UniformDisk(1.7, radius)
        part = lattice_partition(mu, r)
        inside = disk_interior(part.cells[:, 0], r, radius)
        assert inside.sum() > 0
        assert np.all(part.cells[:, 1][inside] == 1.7 * (r * r))


class TestLatticeOperator:

    def test_point_mass_matches_direct_builder(self):
        part = lattice_partition(delta(0j), 0.5)
        direct = build_from_point_masses(delta(0j), 32, PARAMS)
        assert np.array_equal(lattice_operator(part, 32, PARAMS).entries,
                              direct.entries)

    def test_single_cell_disk_is_scaled_kernel_projection(self):
        part = lattice_partition(UniformDisk(1.0, 1.0), 2.0)
        op = lattice_operator(part, 32, PARAMS)
        ref = build_from_point_masses(PointMasses(((0j, math.pi),)), 32,
                                      PARAMS)
        assert np.array_equal(op.entries, ref.entries)
        assert trace(op).real == pytest.approx(1.0, rel=1e-12)

    def test_trace_equals_discretized_mass(self):
        mu = GaussianDensity(1.0, 1.0)
        part = lattice_partition(mu, 0.5)
        op = lattice_operator(part, 64, PARAMS)
        discretized = sum(w for _, w in part.cells)
        assert trace(op).real == pytest.approx(
            discretized.real / math.pi, rel=1e-9)


# support radius each truncation represents within the 1e-12 basis tail
SCALE = {8: 0.25, 13: 0.6, 61: 3.0, 64: 3.0}
AMPLITUDES = st.builds(lambda m, t: m * cmath.exp(1j * t), st.floats(0.1, 2.0),
                       st.floats(-math.pi, math.pi))


def long_double_pairing(nodes, c, size):
    """(alpha/pi) sum_i c_i conj(E[m, i]) E[n, i] over the unfolded cells,
    the products summed in long double.  Summed in double (dense_pairing
    of test_toeplitz), the unfolded products are off by up to 1.4e-15 of
    the norm at a few thousand cells, the folded ones by 2.6e-16."""
    e = basis_matrix(nodes, size, PARAMS.alpha).astype(np.clongdouble)
    product = np.conj(e) @ (c[:, None] * e.T)
    return ((PARAMS.alpha / math.pi) * product).astype(complex)


@st.composite
def folded_cases(draw):
    """(partition, truncation): a disk, a centred or off-centre Gaussian, or
    a point cloud whose cells share orbits of the quarter turns, with an
    origin cell, cells on the axes and complex weights."""
    size = draw(st.sampled_from(sorted(SCALE)))
    scale = SCALE[size]
    kind = draw(st.sampled_from(["disk", "centred", "off-centre", "cloud"]))
    if kind == "disk":
        radius = scale * draw(st.floats(0.3, 1.0))
        mu = UniformDisk(draw(AMPLITUDES), radius)
        return lattice_partition(mu, radius / draw(st.floats(2.5, 12.0))), size
    if kind != "cloud":
        beta = (3.0 / scale) ** 2 * draw(st.floats(1.0, 4.0))
        centre = 0j
        if kind == "off-centre":
            centre = 0.25 * scale * complex(draw(st.floats(-1.0, 1.0)),
                                            draw(st.floats(-1.0, 1.0)))
        mu = GaussianDensity(draw(AMPLITUDES), beta, center=centre)
        r = mu.effective_radius(1e-18) / draw(st.floats(3.0, 10.0))
        return lattice_partition(mu, r), size
    r = scale / 8.0
    bases = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 6)),
                          min_size=8, max_size=12, unique=True))
    points = []
    for a, b in bases:
        turns = draw(st.sets(st.integers(0, 3), min_size=2))
        for q in sorted(turns):
            i, j = [(a, b), (-b, a), (-a, -b), (b, -a)][q]
            points.append((complex(i * r, j * r), draw(AMPLITUDES)))
    if draw(st.booleans()):
        points.append((0j, draw(AMPLITUDES)))
    return lattice_partition(PointMasses(tuple(points)), r), size


@st.composite
def symmetric_symbols(draw):
    """(symbol, side): a disk or a centred Gaussian and a lattice side."""
    if draw(st.booleans()):
        radius = draw(st.floats(0.2, 3.0))
        return (UniformDisk(draw(AMPLITUDES), radius),
                radius / draw(st.floats(2.0, 40.0)))
    mu = GaussianDensity(draw(AMPLITUDES), draw(st.floats(0.5, 50.0)))
    return mu, mu.effective_radius(1e-18) / draw(st.floats(2.0, 40.0))


class TestQuarterFold:
    """Cells folded by the lattice's quarter turns into phase classes."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(case=folded_cases())
    def test_matches_dense_sum(self, case):
        part, size = case
        nodes, _, _ = _quarter_fold(part)
        assert nodes.size < len(part.cells)
        with pytest.MonkeyPatch.context() as patch:
            # the fold does not depend on the cell count that pays for it
            patch.setattr(lattice, "_FOLD_MIN_CELLS", 1)
            op = lattice_operator(part, size, PARAMS)
        ref = long_double_pairing(part.cells[:, 0], part.cells[:, 1], size)
        assert np.max(np.abs(op.entries - ref)) <= 1e-15 * np.linalg.norm(ref)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(case=symmetric_symbols())
    def test_symmetric_masses_leave_class_zero(self, case):
        mu, r = case
        part = lattice_partition(mu, r)
        mass = {(round(c.real / r), round(c.imag / r)): w
                for c, w in part.cells}
        assert all(mass[(-j, i)] == w for (i, j), w in mass.items())
        nodes, classes, weights = _quarter_fold(part)
        assert not classes[1:].any()
        assert 4 * nodes.size - 3 == len(part.cells)
        assert weights.sum() == pytest.approx(
            np.abs(part.cells[:, 1]).sum(), rel=1e-13)

    def test_small_partition_paired_as_it_is(self):
        part = lattice_partition(UniformDisk(1.0, 1.0), 1.0)
        assert len(part.cells) < _FOLD_MIN_CELLS
        direct = build_from_point_masses(PointMasses(part.cells), 32, PARAMS)
        assert np.array_equal(lattice_operator(part, 32, PARAMS).entries,
                              direct.entries)


CLOUD = PointMasses(tuple(
    (complex(x, y), complex(u, v))
    for x, y, u, v in np.random.default_rng(3).uniform(-1.5, 1.5, (12, 4))))


class TestCellOrder:
    """Cells come in the order of their builder, which the operator does
    not see: folded it is the same to the bit, unfolded the pairing sums
    the cells in another order."""

    @staticmethod
    def permuted_operators(part, size=64):
        rng = np.random.default_rng(0)
        orders = [np.arange(len(part.cells))[::-1]]
        orders += [rng.permutation(len(part.cells)) for _ in range(2)]
        return lattice_operator(part, size, PARAMS), [
            lattice_operator(LatticePartition(part.r, part.cells[order]),
                             size, PARAMS) for order in orders]

    @pytest.mark.parametrize("mu, r", [
        (UniformDisk(1.0, 1.0), 1.0 / 8.0),
        (UniformDisk(1.0, 1.0), 1.0 / 16.0),
        (GaussianDensity(1.0, 4.0), 1.0 / 4.0),
        (GaussianDensity(1.0, 3.0, center=0.3 + 0.2j), 1.0 / 32.0),
        (GaussianDensity(0.5 - 1.0j, 3.0, center=0.3 + 0.2j), 0.5)])
    def test_folded_bitwise(self, mu, r):
        part = lattice_partition(mu, r)
        assert len(part.cells) >= _FOLD_MIN_CELLS
        assert _quarter_fold(part)[0].size < len(part.cells)
        op, permuted = self.permuted_operators(part)
        for each in permuted:
            assert np.array_equal(each.entries, op.entries)

    @pytest.mark.parametrize("mu, r", [
        (UniformDisk(1.0, 1.0), 0.25),
        (UniformDisk(1.0, 1.0), 0.5),
        (GaussianDensity(1.0, 4.0), 1.0),
        (CLOUD, 0.25)])
    def test_unfolded_within_rounding(self, mu, r):
        part = lattice_partition(mu, r)
        assert len(part.cells) < _FOLD_MIN_CELLS
        op, permuted = self.permuted_operators(part)
        scale = np.linalg.norm(op.entries)
        for each in permuted:
            assert np.max(np.abs(each.entries - op.entries)) <= 1e-15 * scale


class TestRankOneRep:

    def test_operator_rank_bounded_by_terms(self):
        # one kernel projection per kept cell
        pair = lattice_partition(PointMasses(((0j, 1.0), (1.0, 1.0))), 1.0)
        assert len(pair.cells) == 2
        for part in (pair, lattice_partition(UniformDisk(1.0, 1.0), 0.5)):
            op = lattice_operator(part, 48, PARAMS)
            sigma = np.linalg.svd(op.entries, compute_uv=False)
            assert int(np.sum(sigma > 1e-12)) <= len(part.cells)

    def test_rep_operator_matches_lattice_operator(self):
        # sum_j (alpha/pi) w_j k_j (x) k_j, with the basis coefficients
        # sqrt(alpha^n / n!) conj(c)^n e^{-alpha|c|^2/2} of the unit kernel k_c
        part = lattice_partition(UniformDisk(1.0, 1.0), 0.5)
        size = 32
        n = np.arange(size)
        log_norms = 0.5 * (n * math.log(PARAMS.alpha) - gammaln(n + 1.0))
        expected = np.zeros((size, size), dtype=complex)
        for center, weight in part.cells:
            k = np.exp(log_norms - 0.5 * PARAMS.alpha * abs(center) ** 2) * (
                np.conj(center) ** n)
            expected += (PARAMS.alpha / math.pi) * weight * np.outer(
                k, np.conj(k))
        op = lattice_operator(part, size, PARAMS)
        assert np.max(np.abs(op.entries - expected)) < 1e-14


def kernel_logs(center):
    """Grid laid about the origin and log|k_c(w)| - alpha|w|^2/2 =
    -alpha|w - c|^2/2 on it, so the kernel sits off the grid's centre."""
    grid = kernel_grid(PARAMS.alpha, 2.0 * abs(center))
    return grid, -0.5 * PARAMS.alpha * np.abs(grid.nodes - center) ** 2


class TestNuclearUpperBound:

    def test_single_normalized_kernel(self):
        # the unit cross norm that lets the bound skip quadrature
        grid, logs = kernel_logs(1.0)
        cross = (norm(logs, conjugate_exponent(2.0), PARAMS, grid)
                 * norm(logs, 2.0, PARAMS, grid))
        assert cross == pytest.approx(1.0, rel=1e-9)

    def test_two_kernels(self):
        # the bound equals the quadrature cross norms of the cell kernels
        part = lattice_partition(PointMasses(((0j, 1.0), (1.0, -2.0))), 1.0)
        summed = 0.0
        for center, weight in part.cells:
            grid, logs = kernel_logs(center)
            summed += abs(weight) * (
                norm(logs, conjugate_exponent(2.0), PARAMS, grid)
                * norm(logs, 2.0, PARAMS, grid))
        assert lattice_nuclear_bound(part, PARAMS) == pytest.approx(
            (PARAMS.alpha / math.pi) * summed, rel=1e-9)

    def test_empty_rep(self):
        part = lattice_partition(PointMasses(()), 0.5)
        assert lattice_nuclear_bound(part, PARAMS) == 0.0
        assert not lattice_operator(part, 8, PARAMS).entries.any()

    def test_lattice_bound_ceiling(self):
        pair = PointMasses(((0.3 + 0j, 1.0), (1.1j, -2.0)))
        for mu in (delta(1.0, -2.0), pair, UniformDisk(1.0, 1.0),
                   GaussianDensity(1.0, 2.0)):
            ceiling = (PARAMS.alpha / math.pi) * total_variation(mu)
            for r in (1.0, 0.25):
                part = lattice_partition(mu, r)
                bound = lattice_nuclear_bound(part, PARAMS)
                assert bound <= ceiling + 1e-9
                # the bound dominates the discretized operator's trace norm
                op = lattice_operator(part, 64, PARAMS)
                s1 = schatten_norm(singular_values(op), 1.0)
                assert s1 <= bound + 1e-9, (mu, r)


class TestConvergence:

    def test_point_mass_error_follows_kernel_distance(self):
        rows = convergence_study(delta(0.3), [1.0, 0.5, 0.25], 64, PARAMS)
        nearest = {1.0: 0.0, 0.5: 0.5, 0.25: 0.25}
        for row in rows:
            d = abs(0.3 - nearest[row["r"]])
            oracle = (2.0 / math.pi) * math.sqrt(1.0 - math.exp(-d * d))
            assert row["s1_error"] == pytest.approx(oracle, abs=1e-9)

    def test_point_mass_on_lattice_center_is_exact(self):
        rows = convergence_study(delta(1.0), [1.0, 0.5, 0.25], 48, PARAMS)
        for row in rows:
            assert row["s1_error"] < 1e-12

    def test_disk_errors_strictly_decrease(self):
        rows = convergence_study(UniformDisk(1.0, 1.0),
                                 [1.0, 0.5, 0.25, 0.125], 64, PARAMS)
        errors = [row["s1_error"] for row in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert all(row["nuclear_bound"] == pytest.approx(1.0, rel=1e-12)
                   for row in rows)

    def test_csv_layout(self, tmp_path, capsys):
        config = tmp_path / "pm.json"
        config.write_text(json.dumps({
            "truncation": 16, "r_values": [1.0, 0.5],
            "measure": {"type": "point_masses", "points": [{"x": 0, "y": 0}]},
        }), encoding="utf-8")
        assert main(["lattice-approx", "--config", str(config),
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "r,s1_error,op_error,nuclear_bound"
        assert len(lines) == 4
        assert float(lines[2].split(",")[0]) == 1.0


class TestBerezinLatticeCheck:

    def test_point_on_center_deviation_zero(self):
        mu = delta(0.5)
        part = lattice_partition(mu, 0.5)
        assert lattice_deviation(part, mu, [0j, 1.0, 0.3 + 0.2j]) == 0.0

    def test_zero_measure(self):
        mu = PointMasses(())
        part = lattice_partition(mu, 0.5)
        assert lattice_deviation(part, mu, [0j]) == 0.0

    def test_disk_deviation_below_continuity_bound(self):
        mu = UniformDisk(1.0, 1.0)
        r = 0.125
        part = lattice_partition(mu, r)
        dev = lattice_deviation(part, mu, [0j, 0.5, 1j, 1 + 1j])
        lipschitz = math.sqrt(2.0 * PARAMS.alpha / math.e)
        bound = (PARAMS.alpha / math.pi) * math.pi * lipschitz * r / math.sqrt(2)
        assert dev <= bound

    def test_deviation_shrinks_with_r(self):
        mu = UniformDisk(1.0, 1.0)
        samples = [0j, 0.7, 1.2j]
        devs = [lattice_deviation(lattice_partition(mu, r), mu, samples)
                for r in (0.5, 0.25, 0.125)]
        assert devs[2] < devs[1] < devs[0]


class TestRigidity:

    def test_origin_point_mass_bracket_collapses(self):
        report = rigidity_experiment(delta(0j), 2.0, 2.0, PARAMS, r=0.5)
        assert report["upper"] == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert report["lower"] == pytest.approx(1.0 / math.pi, rel=1e-7)
        assert report["upper"] <= report["lower"] * 1.05 + 1e-12

    def test_disk_bracket_tight_and_exponent_independent(self):
        reports = [rigidity_experiment(UniformDisk(1.0, 1.0), p, q, PARAMS,
                                       r=1.0 / 16.0)
                   for p, q in [(2.0, 2.0), (4.0, 2.0), (4.0, 4.0 / 3.0)]]
        report = reports[0]
        lower, upper = report["lower"], report["upper"]
        assert abs(upper - lower) <= 0.05 * lower
        values = {(each["lower"], each["upper"]) for each in reports}
        assert len(values) == 1
        for each in reports:
            assert each["kernel_norm_residual"] < 1e-8

    def test_separated_unit_masses(self):
        mu = PointMasses(((0j, 1.0), (2.0 + 0j, 1.0), (-2.0 + 2.0j, 1.0)))
        report = rigidity_experiment(mu, 2.0, 2.0, PARAMS, r=0.25)
        assert report["upper"] == pytest.approx(3.0 / math.pi, rel=1e-14)
        assert report["lower"] == pytest.approx(3.0 / math.pi, rel=1e-7)

    @pytest.mark.parametrize("alpha", [1.0, 64.0, 1e4])
    def test_kernel_norm_residual_at_rounding(self, alpha):
        # (p, q) pairs whose exponents p' and q are finite and span [1, 6].
        # The residual is taken on a grid about the kernel's centre and does
        # not depend on the measure; a mass at the origin keeps each call's
        # transform grid small at large alpha (3 s a call at 1e4 off centre)
        pq_grid = [(1.2, 1.0), (4.0 / 3.0, 4.0 / 3.0), (2.0, 2.0),
                   (4.0, 3.0), (6.0, 1.5), (6.0, 6.0)]
        for p, q in pq_grid:
            report = rigidity_experiment(delta(0j), p, q,
                                         FockParams(alpha=alpha), r=0.5)
            assert report["kernel_norm_residual"] <= 1e-14, (p, q)

    def test_non_positive_rejected(self):
        with pytest.raises(PositivityError):
            rigidity_experiment(delta(0j, -1.0), 2.0, 2.0, PARAMS)

    def test_wrong_exponent_order_rejected(self):
        with pytest.raises(FocklabError):
            rigidity_experiment(delta(0j), 2.0, 4.0, PARAMS, r=0.5)
