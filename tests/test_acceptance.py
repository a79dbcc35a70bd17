"""End-to-end acceptance battery: eleven release criteria, one test each.

Every criterion lives in its own cached builder parameterized by the
truncation size.  The builders run their structural checks (monotonicity,
interval membership, runtime caps) internally and hand back a dict of
named scalar observables with the tolerance each one must meet.  The last
test re-runs every truncation-dependent builder at a finer size and
requires each observable to move by less than its own tolerance, so a
criterion that only passes by accident of truncation fails loudly.

The mass-identity, lacunary-symbol, and transform-bound batteries do not
involve a truncation parameter at all; re-running them at another size
would be a no-op, so the final test leaves them out.
"""

import math
import time
from functools import lru_cache

import numpy as np

from focklab.counterexample import CounterexampleParams, full_report
from focklab.fock import FockParams
from focklab.lattice import convergence_study
from focklab.measure import (
    Density,
    GaussianDensity,
    PointMasses,
    UniformDisk,
    berezin_lr_norm,
    total_mass,
    total_variation,
)
from focklab.numerics import lr_norm, polar_grid, tail_radius
from focklab.toeplitz import (
    TruncatedOperator,
    adjoint_isometry_check,
    build_from_measure,
    build_hankel,
    identity_operator,
    schatten_norm,
    singular_values,
    trace,
    trace_pairing,
    trace_via_berezin,
)

PARAMS = FockParams(1.0)

BASE_SIZE = 64
FINE_SIZE = 96


# --- shared corpora -------------------------------------------------------

def _positive_measures():
    """Five positive symbols spanning every measure variant."""
    return (
        PointMasses(((0.4 + 0.3j, 1.0),)),
        PointMasses(((0.0j, 1.0), (1.1 - 0.2j, 0.5), (-0.8j, 2.0))),
        UniformDisk(0.7, 1.5),
        GaussianDensity(1.0, 2.0),
        Density(lambda z: np.exp(-2.0 * np.abs(z) ** 2),
                support_radius=3.5, positive=True),
    )


@lru_cache(maxsize=None)
def _operator_corpus(size):
    """Ten operators: point masses, disks, Gaussians, a non-radial
    density, an off-center density, and the truncated identity."""
    measures = (
        PointMasses(((0.0j, 1.0),)),
        PointMasses(((0.9 + 0.1j, 0.75), (-0.4 + 0.6j, 0.5j))),
        PointMasses(((0.3j, 1.0), (1.0 + 0j, -0.25),
                     (-1.2 + 0.5j, 0.5 + 0.5j))),
        UniformDisk(1.0, 1.0),
        UniformDisk(0.5, 2.0),
        GaussianDensity(1.0, 1.0),
        GaussianDensity(0.8, 3.0),
        GaussianDensity(0.6, 2.0, center=0.7 + 0.4j),
        Density(lambda z: (1.0 + 0.5 * np.real(z) ** 2)
                * np.exp(-2.0 * np.abs(z) ** 2),
                support_radius=3.5, positive=True),
    )
    ops = [build_from_measure(mu, size, PARAMS) for mu in measures]
    ops.append(identity_operator(size, PARAMS))
    return tuple(ops)


def _point_mass_corpus():
    return (
        PointMasses(((0.0j, 1.0),)),
        PointMasses(((0.8 + 0j, 0.8), (0.0 + 0.9j, 0.6j))),
        PointMasses(((0.5 + 0.5j, 1.0 - 0.5j), (-1.0 + 0j, -0.75),
                     (0.0 - 1.3j, 0.4))),
        PointMasses(((0.2 + 0j, 0.3), (-0.6 + 0.4j, 0.3), (1.4 + 0j, 0.3),
                     (0.0 + 1.8j, 0.3), (-1.1 - 1.1j, 0.3))),
    )


@lru_cache(maxsize=None)
def _random_psd(size):
    """Seeded random positive operator, scaled to unit operator norm."""
    rng = np.random.default_rng(1000 + size)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    entries = a @ a.conj().T
    entries /= np.linalg.svd(entries, compute_uv=False)[0]
    return TruncatedOperator(entries, size, PARAMS, provenance="random-psd")


def _rel(delta, scale):
    return abs(delta) / (1.0 + abs(scale))


# --- criterion builders ---------------------------------------------------

@lru_cache(maxsize=None)
def criterion_trace_formulas(size):
    """Gaussian symbol traces to 1, a point mass traces to alpha/pi."""
    start = time.perf_counter()
    gauss = build_from_measure(GaussianDensity(1.0, 1.0), size, PARAMS)
    gauss_residual = abs(trace(gauss) - 1.0)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    w = 1.2 - 0.7j
    assert abs(w) <= 2.0
    point = build_from_measure(PointMasses(((w, 1.0),)), size, PARAMS)
    point_residual = abs(trace(point) - 1.0 / math.pi)
    assert time.perf_counter() - start < 1.0
    return {
        "gaussian_trace_residual": (gauss_residual, 1e-9),
        "point_trace_residual": (point_residual, 1e-10),
    }


def criterion_mass_identity():
    """L1 norm of the heat transform equals the total variation."""
    start = time.perf_counter()
    worst = 0.0
    for mu in _positive_measures():
        tv = total_variation(mu)
        l1 = berezin_lr_norm(mu, 1.0, PARAMS)
        worst = max(worst, abs(l1 - tv) / tv)
    assert time.perf_counter() - start < 10.0
    return {"mass_identity_relative": (worst, 1e-7)}


@lru_cache(maxsize=None)
def criterion_positive_trace_norm(size):
    """Positive compact symbol: trace norm is the trace is the mass."""
    mu = UniformDisk(0.8, 2.0)
    ceiling = (PARAMS.alpha / math.pi) * total_mass(mu).real
    op = build_from_measure(mu, size, PARAMS)
    tr = trace(op)
    assert abs(tr.imag) < 1e-12 * ceiling
    s1 = schatten_norm(singular_values(op), 1.0)
    # quadrature roundoff may poke a hair past the exact supremum
    upper = ceiling * (1.0 + 1e-12)
    lower = ceiling * (1.0 - 1e-6)
    assert lower <= s1 <= upper
    assert lower <= tr.real <= upper
    return {
        "trace_norm_gap": (abs(s1 - tr.real) / ceiling, 1e-10),
        "mass_shortfall": ((ceiling - s1) / ceiling, 1e-6),
    }


@lru_cache(maxsize=None)
def criterion_lattice_convergence(size):
    """Halving the cell size keeps shrinking the trace-norm error."""
    start = time.perf_counter()
    mu = UniformDisk(1.0, 1.0)
    ceiling = (PARAMS.alpha / math.pi) * total_mass(mu).real
    r_values = [2.0 ** -k for k in range(7)]
    rows = convergence_study(mu, r_values, size, PARAMS)
    for before, after in zip(rows, rows[1:]):
        assert after["s1_error"] < before["s1_error"]
    excess = max(row["nuclear_bound"] - ceiling for row in rows)
    assert time.perf_counter() - start < 60.0
    return {
        "final_s1_error": (rows[-1]["s1_error"], 0.02 * ceiling),
        "nuclear_excess": (excess, 1e-9),
    }


@lru_cache(maxsize=None)
def criterion_trace_via_transform(size):
    """Matrix trace agrees with the transform integral across the corpus."""
    worst = 0.0
    for op in _operator_corpus(size):
        tr = trace(op)
        quad = trace_via_berezin(op)
        worst = max(worst, _rel(tr - quad, tr))
    return {"trace_transform_relative": (worst, 1e-7)}


@lru_cache(maxsize=None)
def criterion_trace_pairing(size):
    """Both evaluations of tr(T_phi S) agree for disks against three S."""
    operators = (
        identity_operator(size, PARAMS),
        build_from_measure(PointMasses(((0.0j, 1.0),)), size, PARAMS),
        _random_psd(size),
    )
    worst = 0.0
    for radius in (1.0, 2.0):
        phi = UniformDisk(1.0, radius)
        for op in operators:
            matrix_side, quad_side = trace_pairing(phi, op)
            worst = max(worst, _rel(matrix_side - quad_side, matrix_side))
    return {"pairing_relative": (worst, 1e-6)}


def criterion_lacunary_symbol():
    """The explicit unbounded-symbol example reproduces its closed forms."""
    params = CounterexampleParams()
    report = full_report(params)
    assert report["indices"] == [16 ** k for k in range(1, 9)]

    pairing_worst = max(report["pairing_identity_residuals"])

    target = params.b ** 2 / 2.0
    ratio_worst = max(abs(r - target) for r in report["divergence_ratios"])

    membership_ratios = [
        b / a for terms in (report["membership_f_terms"],
                            report["membership_g_terms"])
        for a, b in zip(terms, terms[1:])]
    assert all(r < 1.0 for r in membership_ratios)
    step = (params.b / 2.0) ** 4
    membership_worst = max(abs(r - step) for r in membership_ratios)

    assert report["growth_diverges"]
    log_b = math.log(params.b)
    growth_worst = max(
        abs(math.log(r) - k * log_b)
        for k, r in enumerate(report["growth_ratios"], start=1))

    return {
        "pairing_identity_relative": (pairing_worst, 1e-10),
        "divergence_ratio_deviation": (ratio_worst, 1e-12),
        "membership_ratio_deviation": (membership_worst, 1e-12),
        "growth_log_deviation": (growth_worst, 1e-12),
    }


def criterion_transform_bound():
    """Rank-one transform norms obey the two-factor product bound."""
    rng = np.random.default_rng(8151823)
    alpha = PARAMS.alpha
    # exponent triples with 1/m + 1/n = 1/r
    triples = ((1.0, 2.0, 2.0), (2.0, 4.0, 4.0), (1.0, 1.5, 3.0),
               (1.5, 3.0, 3.0), (2.0, 3.0, 6.0))
    # one grid for every norm: the discrete product bound then holds on
    # the same nodes, so any excess is pure roundoff.  Cutoff sized for
    # the slowest decay in play (exponent 1.5 against the half weight).
    cutoff = tail_radius(0.5 * alpha, 16.0, 1e-14)
    grid = polar_grid(cutoff, 96, 96)
    worst = -math.inf
    for k in range(20):
        r, m, n = triples[k % len(triples)]
        f = rng.standard_normal(int(rng.integers(1, 8))) * (1.0 + 0.0j)
        f += 1j * rng.standard_normal(f.size)
        g = rng.standard_normal(int(rng.integers(1, 8))) * (1.0 + 0.0j)
        g += 1j * rng.standard_normal(g.size)

        def f_half(z, c=f):
            return np.polynomial.polynomial.polyval(z, c) \
                * np.exp(-0.5 * alpha * np.abs(z) ** 2)

        def g_half(z, c=g):
            return np.polynomial.polynomial.polyval(z, c) \
                * np.exp(-0.5 * alpha * np.abs(z) ** 2)

        def transform(z):
            return np.conj(f_half(z)) * g_half(z)

        lhs = lr_norm(transform, grid, r)
        rhs = lr_norm(f_half, grid, m) * lr_norm(g_half, grid, n)
        worst = max(worst, lhs / rhs - 1.0)
    return {"transform_bound_excess": (worst, 1e-8)}


@lru_cache(maxsize=None)
def criterion_hankel_ceiling(size):
    """Hankel trace norms sit under the variation ceiling; radial symbols
    leave a single nonzero entry."""
    worst = -math.inf
    for mu in _point_mass_corpus():
        hankel = build_hankel(mu, size, PARAMS)
        ceiling = (PARAMS.alpha / math.pi) * total_variation(mu)
        worst = max(worst, schatten_norm(singular_values(hankel), 1.0)
                    - ceiling)

    radial = build_hankel(UniformDisk(1.0, 1.0), size, PARAMS)
    corner = abs(radial.entries[0, 0])
    assert corner > 0.1
    off = np.abs(radial.entries).copy()
    off[0, 0] = 0.0
    assert off.max() < 1e-12 * corner
    return {"hankel_excess": (worst, 1e-8)}


@lru_cache(maxsize=None)
def criterion_adjoint_isometry(size):
    """Taking adjoints preserves the trace norm across the corpus."""
    worst = 0.0
    for op in _operator_corpus(size):
        s1, s1_adj = adjoint_isometry_check(op)
        worst = max(worst, _rel(s1 - s1_adj, s1))
    return {"adjoint_relative": (worst, 1e-10)}


SIZED_CRITERIA = (
    criterion_trace_formulas,
    criterion_positive_trace_norm,
    criterion_lattice_convergence,
    criterion_trace_via_transform,
    criterion_trace_pairing,
    criterion_hankel_ceiling,
    criterion_adjoint_isometry,
)


def _assert_observables(observed):
    for name, (value, tol) in observed.items():
        assert value <= tol, f"{name}: {value:.3e} exceeds {tol:g}"


# --- one test per criterion ----------------------------------------------

def test_criterion_01_trace_formulas():
    _assert_observables(criterion_trace_formulas(BASE_SIZE))


def test_criterion_02_mass_identity():
    _assert_observables(criterion_mass_identity())


def test_criterion_03_positive_trace_norm():
    _assert_observables(criterion_positive_trace_norm(FINE_SIZE))


def test_criterion_04_lattice_convergence():
    _assert_observables(criterion_lattice_convergence(BASE_SIZE))


def test_criterion_05_trace_via_transform():
    _assert_observables(criterion_trace_via_transform(BASE_SIZE))


def test_criterion_06_trace_pairing():
    _assert_observables(criterion_trace_pairing(BASE_SIZE))


def test_criterion_07_lacunary_symbol():
    _assert_observables(criterion_lacunary_symbol())


def test_criterion_08_transform_bound():
    _assert_observables(criterion_transform_bound())


def test_criterion_09_hankel_ceiling():
    _assert_observables(criterion_hankel_ceiling(BASE_SIZE))


def test_criterion_10_adjoint_isometry():
    _assert_observables(criterion_adjoint_isometry(BASE_SIZE))


def test_criterion_11_truncation_stability():
    """Finer truncation moves every observable by less than its tolerance."""
    for builder in SIZED_CRITERIA:
        coarse = builder(BASE_SIZE)
        fine = builder(FINE_SIZE)
        for name in coarse:
            value, tol = coarse[name]
            moved = abs(value - fine[name][0])
            assert moved < tol, \
                f"{builder.__name__}/{name}: moved {moved:.3e} at size " \
                f"{FINE_SIZE}, tolerance {tol:g}"
