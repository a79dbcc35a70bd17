"""Lacunary pair witnessing failure of a finite-mass nuclearity pairing.

For exponents 1 < p < q a pair of entire functions is built, one in the
dual-index space but not the smaller one, the other conversely, whose
diagonal pairing series diverges geometrically.  Coefficient indices grow
like 2^(2k/|gap|), so every quantity lives in log space; shared log-gamma
and log-power intermediates make the advertised cancellations float-exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FocklabError
from .fock import conjugate_exponent
from .numerics import log_factorial

_SQRT3 = math.sqrt(3.0)
# log2 of the largest index: 2^1000 keeps n ln n and n |ln alpha| (ln n!
# and the power logs) below 1e304, where 2^1024 itself would overflow
_MAX_INDEX_LOG2 = 1000.0


class CounterexampleParams:
    """Exponent pair, growth base, term count, and weight parameter."""

    __slots__ = ("p", "q", "b", "terms", "alpha")

    def __init__(self, p: float = 4.0 / 3.0, q: float = 4.0, b: float = 1.9,
                 terms: int = 8, alpha: float = 1.0):
        self.p, self.q, self.b, self.terms, self.alpha = p, q, b, terms, alpha
        if not 1.0 < self.p < self.q < math.inf:
            raise ValueError("need 1 < p < q < inf")
        if not _SQRT3 < self.b < 2.0:
            raise ValueError("growth base must lie in (sqrt(3), 2)")
        if self.terms < 0:
            raise ValueError("term count must be nonnegative")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not 2.0 * self.terms / abs(self.exponent_gap) < _MAX_INDEX_LOG2:
            raise ValueError(
                f"the last index, 2^({2 * self.terms} / |1/q - 1/p|), is "
                f"past 2^{_MAX_INDEX_LOG2:g}; move p and q further apart")

    @property
    def exponent_gap(self) -> float:
        """1/q - 1/p, negative; half of it is the index decay rate."""
        return 1.0 / self.q - 1.0 / self.p

    @property
    def p_conjugate(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def q_conjugate(self) -> float:
        return conjugate_exponent(self.q)


def build_indices(params: CounterexampleParams) -> list[int]:
    """Minimal strictly increasing indices with decay weight in [3^-k, 2^-k].

    The decay weight of index n is n^(gap/2); the k-th index is the smallest
    n with weight at most 2^-k.  Thresholds are powers of two snapped to the
    nearest integer when within rounding of one, so exact-power cases do not
    drift off by one.
    """
    gap = params.exponent_gap
    indices: list[int] = []
    for k in range(1, params.terms + 1):
        target = 2.0 * k / abs(gap)
        threshold = 2.0 ** target
        nearest = round(threshold)
        if nearest >= 1 and abs(threshold - nearest) <= 4.0 * 2.220446049250313e-16 * nearest:
            n = int(nearest)
        else:
            n = int(math.ceil(threshold))
        log_weight = 0.5 * gap * math.log(n)
        if log_weight > -k * math.log(2.0) + 1e-9:
            raise FocklabError(f"index {n} misses the 2^-{k} decay target")
        if log_weight < -k * math.log(3.0) - 1e-9:
            raise FocklabError(f"index {n} decays past the 3^-{k} floor")
        if indices and n <= indices[-1]:
            raise FocklabError("indices failed to increase strictly")
        indices.append(n)
    return indices


def index_logs(params: CounterexampleParams,
               indices: list[int]) -> tuple[np.ndarray, ...]:
    """(ln n, ln n!, n ln alpha) over the indices n.

    The report and the pairing identity share these very floats, which
    keeps the identity's cancellation exact.
    """
    n = np.array(indices, dtype=float)
    return np.log(n), log_factorial(n), n * math.log(params.alpha)


def _partials(terms: np.ndarray) -> list[float]:
    return [math.fsum(terms[:k]) for k in range(1, len(terms) + 1)]


def pairing_term_identity(params: CounterexampleParams, logs: tuple,
                          k: int) -> tuple[float, float]:
    """k-th diagonal pairing term, two ways, from the ``index_logs``.

    Left: coefficient product times the exact Gaussian moment
    pi n! / alpha^(n+1), assembled from the shared log intermediates so the
    factorial and power logs cancel exactly.  Right: the closed form
    (pi / alpha) b^(2k) times the decay weight.
    """
    if not 1 <= k <= params.terms:
        raise ValueError("term number out of range")
    log_n, log_fact, log_pow = (float(v[k - 1]) for v in logs)
    half_gap = 0.5 * params.exponent_gap
    # One flat compensated sum: the two -log_fact/2 halves and the moment's
    # +log_fact sum to exactly zero in real arithmetic on these floats, and
    # fsum rounds the real sum once.  Summing the factors separately first
    # would absorb the small terms at the ulp of log_fact (~9e10).
    log_lhs = math.fsum([
        k * math.log(params.b), 0.5 * log_pow, -0.5 * log_fact,
        (0.25 - 0.5 / params.p_conjugate) * log_n, half_gap * log_n,
        k * math.log(params.b), 0.5 * log_pow, -0.5 * log_fact,
        (0.25 - 0.5 / params.q) * log_n, half_gap * log_n,
        math.log(math.pi), log_fact, -log_pow, -math.log(params.alpha),
    ])
    try:
        lhs = math.exp(log_lhs)
    except OverflowError:  # pi / alpha nears float max; the report refuses inf
        lhs = math.inf
    rhs = (math.pi / params.alpha) * math.exp(
        math.fsum([2.0 * k * math.log(params.b), half_gap * log_n]))
    return lhs, rhs


def full_report(params: CounterexampleParams) -> dict:
    """JSON-ready report of every check, for the command-line front end.

    Membership: f uses the conjugate exponent of p, g uses q, both in the
    weight form that telescopes to a geometric series.  The printed f terms
    follow the opposite-weight display at exponent p as printed; the gap
    between the two conventions is reported per term, not adjudicated.

    Divergence: the diagonal pairing series scaled by pi/alpha, b^(2k) times
    the k-th decay weight.  Its terms grow at least like (b^2/3)^k, so the
    partial sums increase without bound.

    Growth: the first function's coefficients over the membership envelope
    sqrt(alpha^n / n!) n^(1/4 - 1/(2 q')).  The ratio comes out as b^k,
    growing without bound, which certifies the first function escapes the
    smaller space.
    """
    indices = build_indices(params)
    logs = index_logs(params, indices)
    log_n = logs[0]
    k = np.arange(1, params.terms + 1, dtype=float)
    half_gap = 0.5 * params.exponent_gap
    # Log coefficients without their factorial half -(1/2)(ln n! - n ln
    # alpha), around -4.5e10 at the default term count, which would erase
    # the rest at its ulp.  The factorial halves of |c|^e and of the weight
    # carry coefficients -e/2 and +e/2 and cancel exactly, and so do those
    # of a coefficient and its envelope, so that half never enters.  Each
    # exponent of n is summed before it multiplies ln n; split, the sums
    # move the reported floats in their last bits.
    f_slow = (k * math.log(params.b)
              + (0.25 - 0.5 / params.p_conjugate + half_gap) * log_n)
    g_slow = (k * math.log(params.b)
              + (0.25 - 0.5 / params.q + half_gap) * log_n)

    def membership(slow: np.ndarray, exponent: float, weight_sign: float):
        # |c|^e (n! / alpha^n)^(e/2) n^(sign * (e/4 - 1/2))
        return np.exp(exponent * slow
                      + weight_sign * (0.25 * exponent - 0.5) * log_n)

    f = membership(f_slow, params.p_conjugate, -1.0)
    g = membership(g_slow, params.q, -1.0)
    printed = membership(f_slow, params.p, 1.0)
    divergence = (math.pi / params.alpha) * np.exp(
        2.0 * k * math.log(params.b) + half_gap * log_n)
    log_growth = f_slow - (0.25 - 0.5 / params.q_conjugate) * log_n
    residuals = []
    for term in range(1, params.terms + 1):
        lhs, rhs = pairing_term_identity(params, logs, term)
        residuals.append(abs(lhs - rhs) / rhs if rhs else 0.0)
    return {
        "params": {"p": params.p, "q": params.q, "b": params.b,
                   "terms": params.terms, "alpha": params.alpha},
        "indices": indices,
        "membership_f_terms": f.tolist(),
        "membership_g_terms": g.tolist(),
        "membership_f_partial_sums": _partials(f),
        "membership_g_partial_sums": _partials(g),
        "membership_printed_f_terms": printed.tolist(),
        "membership_printed_gap": np.abs(f - printed).tolist(),
        "divergence_terms": divergence.tolist(),
        "divergence_partial_sums": _partials(divergence),
        "divergence_ratios": (divergence[1:] / divergence[:-1]).tolist(),
        "pairing_identity_residuals": residuals,
        "growth_ratios": np.exp(log_growth).tolist(),
        "growth_diverges": bool(np.all(np.diff(log_growth) > 0.0)),
    }
