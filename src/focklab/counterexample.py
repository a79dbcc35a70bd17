"""Lacunary pair witnessing failure of a finite-mass nuclearity pairing.

For exponents 1 < p < q a pair of entire functions is built, one in the
dual-index space but not the smaller one, the other conversely, whose
diagonal pairing series diverges geometrically.  Coefficient indices grow
like 2^(2k/|gap|), so every quantity lives in log space; shared log-gamma
and log-power intermediates make the advertised cancellations float-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FocklabError
from .fock import conjugate_exponent
from .numerics import log_factorial

_SQRT3 = math.sqrt(3.0)
# log2 of the largest index: 2^1000 keeps n ln n and n |ln alpha| (ln n!
# and the power logs) below 1e304, where 2^1024 itself would overflow
_MAX_INDEX_LOG2 = 1000.0


@dataclass(frozen=True)
class CounterexampleParams:
    """Exponent pair, growth base, term count, and weight parameter."""

    p: float = 4.0 / 3.0
    q: float = 4.0
    b: float = 1.9
    terms: int = 8
    alpha: float = 1.0

    def __post_init__(self):
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


@dataclass(frozen=True)
class _IndexLogs:
    """Shared per-index intermediates; reusing them keeps cancellation exact."""

    k: np.ndarray            # 1-based term number
    log_n: np.ndarray        # ln n_k
    log_fact: np.ndarray     # ln n_k!
    log_pow: np.ndarray      # n_k ln alpha


def _index_logs(params: CounterexampleParams) -> _IndexLogs:
    n = np.array(build_indices(params), dtype=float)
    return _IndexLogs(
        k=np.arange(1, params.terms + 1, dtype=float),
        log_n=np.log(n),
        log_fact=log_factorial(n),
        log_pow=n * math.log(params.alpha),
    )


def _slow_part(params: CounterexampleParams, logs: _IndexLogs,
               deviation: float, include_decay: bool) -> np.ndarray:
    """log coefficient minus its factorial half: k ln b + exponent ln n.

    The factorial half is -(1/2)(ln n! - n ln alpha), around -4.5e10 at the
    default term count; adding it here would erase the slow part at the
    double-precision ulp of that magnitude, so the two halves stay separate
    until a consumer combines their exact coefficients.
    """
    exponent = deviation + (0.5 * params.exponent_gap if include_decay else 0.0)
    return logs.k * math.log(params.b) + exponent * logs.log_n


def _sum_terms(slow_part: np.ndarray, exponent: float, weight_sign: float,
               logs: _IndexLogs) -> np.ndarray:
    """Terms |c|^e (n! / alpha^n)^(e/2) n^(sign * (e/4 - 1/2)), log-evaluated.

    The factorial halves of |c|^e and of the weight carry coefficients -e/2
    and +e/2; both scalings by one half are exact, so their sum is exactly
    zero and the 9e10-sized factorial logs never touch the slow remainder.
    """
    fact_coeff = exponent * -0.5 + 0.5 * exponent
    log_terms = (exponent * slow_part
                 + fact_coeff * (logs.log_fact - logs.log_pow)
                 + weight_sign * (0.25 * exponent - 0.5) * logs.log_n)
    return np.exp(log_terms)


@dataclass(frozen=True)
class MembershipSums:
    """Terms, partial sums, and tail ratios of the two membership series.

    f uses the conjugate exponent of p, g uses q, both in the weight form
    that telescopes to a geometric series.  printed_f_terms follows the
    opposite-weight display at exponent p as printed; the gap between the
    two conventions is reported per term, not adjudicated.
    """

    f_exponent: float
    g_exponent: float
    f_terms: tuple[float, ...]
    g_terms: tuple[float, ...]
    f_partial_sums: tuple[float, ...]
    g_partial_sums: tuple[float, ...]
    f_ratios: tuple[float, ...]
    g_ratios: tuple[float, ...]
    printed_f_terms: tuple[float, ...]
    printed_gap: tuple[float, ...]


def _partials(terms: np.ndarray) -> tuple[float, ...]:
    return tuple(math.fsum(terms[:k]) for k in range(1, len(terms) + 1))


def _tail_ratios(terms: np.ndarray) -> tuple[float, ...]:
    return tuple(float(t1 / t0) for t0, t1 in zip(terms, terms[1:]))


def membership_sums(params: CounterexampleParams) -> MembershipSums:
    logs = _index_logs(params)
    f_slow = _slow_part(params, logs, 0.25 - 0.5 / params.p_conjugate, True)
    g_slow = _slow_part(params, logs, 0.25 - 0.5 / params.q, True)
    e_f = params.p_conjugate
    e_g = params.q
    f_terms = _sum_terms(f_slow, e_f, -1.0, logs)
    g_terms = _sum_terms(g_slow, e_g, -1.0, logs)
    printed = _sum_terms(f_slow, params.p, 1.0, logs)
    gap = np.abs(f_terms - printed)
    return MembershipSums(
        f_exponent=e_f, g_exponent=e_g,
        f_terms=tuple(float(v) for v in f_terms),
        g_terms=tuple(float(v) for v in g_terms),
        f_partial_sums=_partials(f_terms),
        g_partial_sums=_partials(g_terms),
        f_ratios=_tail_ratios(f_terms),
        g_ratios=_tail_ratios(g_terms),
        printed_f_terms=tuple(float(v) for v in printed),
        printed_gap=tuple(float(v) for v in gap))


@dataclass(frozen=True)
class DivergenceSums:
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    ratios: tuple[float, ...]


def divergence_sum(params: CounterexampleParams) -> DivergenceSums:
    """Partial sums of the diagonal pairing series, scaled by pi/alpha.

    Terms are b^(2k) times the k-th decay weight; they grow at least like
    (b^2/3)^k, so the partial sums increase without bound.
    """
    logs = _index_logs(params)
    log_terms = (2.0 * logs.k * math.log(params.b)
                 + 0.5 * params.exponent_gap * logs.log_n)
    terms = (math.pi / params.alpha) * np.exp(log_terms)
    return DivergenceSums(terms=tuple(float(v) for v in terms),
                          partial_sums=_partials(terms),
                          ratios=_tail_ratios(terms))


def pairing_term_identity(params: CounterexampleParams,
                          k: int) -> tuple[float, float]:
    """k-th diagonal pairing term, two ways.

    Left: coefficient product times the exact Gaussian moment
    pi n! / alpha^(n+1), assembled from the shared log intermediates so the
    factorial and power logs cancel exactly.  Right: the closed form
    (pi / alpha) b^(2k) times the decay weight.
    """
    if not 1 <= k <= params.terms:
        raise ValueError("term number out of range")
    logs = _index_logs(params)
    i = k - 1
    log_n = float(logs.log_n[i])
    log_fact = float(logs.log_fact[i])
    log_pow = float(logs.log_pow[i])
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


@dataclass(frozen=True)
class GrowthReport:
    ratios: tuple[float, ...]
    log_ratios: tuple[float, ...]
    diverges: bool


def growth_criterion_check(params: CounterexampleParams) -> GrowthReport:
    """Ratio of the first function's coefficients to the membership envelope.

    The envelope is sqrt(alpha^n / n!) n^(1/4 - 1/(2 q')); the ratio comes
    out as b^k, growing without bound, which certifies the first function
    escapes the smaller space.
    """
    logs = _index_logs(params)
    f_slow = _slow_part(params, logs, 0.25 - 0.5 / params.p_conjugate, True)
    # Coefficient and envelope share the factorial half exactly, so the
    # ratio reduces to the slow parts alone.
    log_ratios = f_slow - (0.25 - 0.5 / params.q_conjugate) * logs.log_n
    ratios = np.exp(log_ratios)
    diverges = params.terms == 0 or (params.b > 1.0 and bool(
        np.all(np.diff(log_ratios) > 0.0) if params.terms > 1 else True))
    return GrowthReport(ratios=tuple(float(v) for v in ratios),
                        log_ratios=tuple(float(v) for v in log_ratios),
                        diverges=diverges)


def full_report(params: CounterexampleParams) -> dict:
    """JSON-ready summary of every check, for the command-line front end."""
    membership = membership_sums(params)
    divergence = divergence_sum(params)
    growth = growth_criterion_check(params)
    residuals = []
    for k in range(1, params.terms + 1):
        lhs, rhs = pairing_term_identity(params, k)
        residuals.append(abs(lhs - rhs) / rhs if rhs else 0.0)
    return {
        "params": {"p": params.p, "q": params.q, "b": params.b,
                   "terms": params.terms, "alpha": params.alpha},
        "indices": list(build_indices(params)),
        "membership_f_terms": list(membership.f_terms),
        "membership_g_terms": list(membership.g_terms),
        "membership_f_partial_sums": list(membership.f_partial_sums),
        "membership_g_partial_sums": list(membership.g_partial_sums),
        "membership_printed_f_terms": list(membership.printed_f_terms),
        "membership_printed_gap": list(membership.printed_gap),
        "divergence_terms": list(divergence.terms),
        "divergence_partial_sums": list(divergence.partial_sums),
        "divergence_ratios": list(divergence.ratios),
        "pairing_identity_residuals": residuals,
        "growth_ratios": list(growth.ratios),
        "growth_diverges": growth.diverges,
    }
