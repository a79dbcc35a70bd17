"""Checks for the lacunary divergence pair.

Default parameters give indices 16^k with decay weight exactly 2^-k, so
most quantities have closed forms good to machine precision; a non-default
exponent pair exercises the index search away from exact powers.
"""

import math

import mpmath
import numpy as np
import pytest

from focklab.counterexample import (
    CounterexampleParams,
    build_indices,
    full_report,
    index_logs,
    pairing_term_identity,
)


DEFAULTS = CounterexampleParams()
OFFGRID = CounterexampleParams(p=1.5, q=2.5, terms=5)


def ratios(terms):
    """Successive term ratios of a report's term list."""
    return [b / a for a, b in zip(terms, terms[1:])]


def pairing_terms(params, k):
    return pairing_term_identity(
        params, index_logs(params, build_indices(params)), k)


class TestParams:

    def test_defaults(self):
        assert DEFAULTS.p == pytest.approx(4.0 / 3.0)
        assert DEFAULTS.q == 4.0
        assert DEFAULTS.exponent_gap == -0.5
        assert DEFAULTS.p_conjugate == pytest.approx(4.0)
        assert DEFAULTS.q_conjugate == pytest.approx(4.0 / 3.0)

    def test_exponent_order_enforced(self):
        with pytest.raises(ValueError):
            CounterexampleParams(p=4.0, q=4.0 / 3.0)
        with pytest.raises(ValueError):
            CounterexampleParams(p=1.0, q=4.0)

    def test_growth_base_gate(self):
        # bases at or below sqrt(3) would kill the divergence lower bound
        with pytest.raises(ValueError):
            CounterexampleParams(b=math.sqrt(3.0))
        with pytest.raises(ValueError):
            CounterexampleParams(b=2.0)

    def test_negative_term_count_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleParams(terms=-1)

    def test_last_index_stays_in_float_range(self):
        # the k-th index is about 2^(2k / |gap|); 16 / |gap| = 1824 here
        with pytest.raises(ValueError, match="further apart"):
            CounterexampleParams(p=1.5, q=1.52)
        # just inside the cap every reported number is finite at any alpha
        q = 1.0 / (1.0 / 1.5 - 16.0 / 999.0)
        for alpha in (1e-300, 1.0, 1e300):
            report = full_report(CounterexampleParams(p=1.5, q=q, alpha=alpha))
            for key, value in report.items():
                values = value if isinstance(value, list) else [value]
                assert all(math.isfinite(v) for v in values
                           if isinstance(v, float)), (alpha, key)


class TestIndices:

    def test_default_indices_are_powers_of_sixteen(self):
        assert build_indices(DEFAULTS) == [16 ** k for k in range(1, 9)]

    def test_zero_terms(self):
        assert build_indices(CounterexampleParams(terms=0)) == []

    def test_minimality_off_grid(self):
        # each index is the least n with n^(gap/2) <= 2^-k, and the decay
        # weight stays above the 3^-k floor
        gap = OFFGRID.exponent_gap
        idx = build_indices(OFFGRID)
        assert all(b > a for a, b in zip(idx, idx[1:]))
        for k, n in enumerate(idx, 1):
            assert n ** (gap / 2) <= 2.0 ** (-k) * (1 + 1e-12)
            assert (n - 1) ** (gap / 2) > 2.0 ** (-k) * (1 - 1e-12)
            assert n ** (gap / 2) >= 3.0 ** (-k) * (1 - 1e-12)


class TestCoefficients:

    def test_coefficient_product_nonnegative(self):
        # both sequences are positive reals, so every diagonal pairing term
        # a_n * conj(b_n) * (moment) is a nonnegative real
        for k in range(1, DEFAULTS.terms + 1):
            lhs, _ = pairing_terms(DEFAULTS, k)
            assert lhs >= 0.0


class TestMembership:

    def test_default_terms_close_geometric_form(self):
        rep = full_report(DEFAULTS)
        for k, (tf, tg) in enumerate(zip(rep["membership_f_terms"],
                                         rep["membership_g_terms"]), 1):
            assert tf == pytest.approx((1.9 / 2.0) ** (4 * k), rel=1e-12)
            assert tg == pytest.approx((1.9 / 2.0) ** (4 * k), rel=1e-12)

    def test_default_ratios(self):
        rep = full_report(DEFAULTS)
        cap = (1.9 / 2.0) ** 4
        assert cap == pytest.approx(0.81450625, rel=1e-12)
        for r in (ratios(rep["membership_f_terms"])
                  + ratios(rep["membership_g_terms"])):
            assert r == pytest.approx(cap, rel=1e-12)

    def test_ratio_caps(self):
        rep = full_report(DEFAULTS)
        assert all(r <= (1.9 / 2.0) ** DEFAULTS.p_conjugate + 1e-9
                   for r in ratios(rep["membership_f_terms"]))
        assert all(r <= (1.9 / 2.0) ** DEFAULTS.q + 1e-9
                   for r in ratios(rep["membership_g_terms"]))

    def test_terms_below_geometric_envelope_off_grid(self):
        # off exact powers the k-th decay weight is <= 2^-k, so each term
        # sits below the geometric envelope even though single ratios may
        # poke above it by an O(1/n_k) factor
        rep = full_report(OFFGRID)
        f, g = rep["membership_f_terms"], rep["membership_g_terms"]
        for k, (tf, tg) in enumerate(zip(f, g), 1):
            assert tf <= ((OFFGRID.b / 2.0) ** OFFGRID.p_conjugate) ** k \
                * (1 + 1e-9)
            assert tg <= ((OFFGRID.b / 2.0) ** OFFGRID.q) ** k * (1 + 1e-9)
        assert all(r < 1.0 for r in ratios(f) + ratios(g))

    def test_partial_sums_cauchy(self):
        rep = full_report(DEFAULTS)
        limit_f = rep["membership_f_terms"][0] / (1.0 - (1.9 / 2.0) ** 4)
        assert all(s < limit_f for s in rep["membership_f_partial_sums"])
        increments = np.diff(rep["membership_f_partial_sums"])
        assert np.all(increments[1:] < increments[:-1])

    def test_printed_variant_recorded(self):
        rep = full_report(DEFAULTS)
        printed = rep["membership_printed_f_terms"]
        for k, t in enumerate(printed, 1):
            assert t == pytest.approx((1.9 / 2.0) ** (DEFAULTS.p * k),
                                      rel=1e-12)
        for g, tf, tp in zip(rep["membership_printed_gap"],
                             rep["membership_f_terms"], printed):
            assert g == pytest.approx(abs(tf - tp), abs=1e-15)

    def test_single_term(self):
        rep = full_report(CounterexampleParams(terms=1))
        assert len(rep["membership_f_terms"]) == 1
        assert rep["membership_f_partial_sums"] == rep["membership_f_terms"]
        assert rep["divergence_ratios"] == []


class TestDivergence:

    def test_default_term_ratio(self):
        for r in full_report(DEFAULTS)["divergence_ratios"]:
            assert abs(r - 1.805) < 1e-12

    def test_partial_sums_strictly_increase(self):
        for params in (DEFAULTS, OFFGRID):
            partials = full_report(params)["divergence_partial_sums"]
            assert all(b > a for a, b in zip(partials, partials[1:]))

    def test_lower_bound_ratio(self):
        for params in (DEFAULTS, OFFGRID):
            rep = full_report(params)
            floor = params.b ** 2 / 3.0
            assert floor > 1.0
            assert all(r >= floor for r in rep["divergence_ratios"])
            assert rep["divergence_ratios"] == ratios(rep["divergence_terms"])

    def test_single_term_scaled_alpha(self):
        rep = full_report(CounterexampleParams(terms=1, alpha=math.pi))
        assert rep["divergence_partial_sums"][0] == pytest.approx(1.805,
                                                                  rel=1e-12)

    def test_first_term_closed_form(self):
        rep = full_report(DEFAULTS)
        assert rep["divergence_terms"][0] == pytest.approx(
            math.pi * 1.9 ** 2 / 2.0, rel=1e-14)


class TestPairingIdentity:

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_agreement_defaults(self, k):
        lhs, rhs = pairing_terms(DEFAULTS, k)
        assert abs(lhs - rhs) / rhs < 1e-10

    def test_agreement_off_grid(self):
        for k in range(1, OFFGRID.terms + 1):
            lhs, rhs = pairing_terms(OFFGRID, k)
            assert abs(lhs - rhs) / rhs < 1e-10

    def test_alpha_rescaling(self):
        # both sides carry the same explicit pi/alpha factor
        base = pairing_terms(DEFAULTS, 4)
        scaled = pairing_terms(CounterexampleParams(alpha=3.0), 4)
        assert scaled[0] == pytest.approx(base[0] / 3.0, rel=1e-10)
        assert scaled[1] == pytest.approx(base[1] / 3.0, rel=1e-12)

    def test_rhs_closed_form(self):
        lhs, rhs = pairing_terms(DEFAULTS, 2)
        assert rhs == pytest.approx(math.pi * 1.9 ** 4 / 4.0, rel=1e-13)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pairing_terms(DEFAULTS, 9)
        with pytest.raises(ValueError):
            pairing_terms(DEFAULTS, 0)


class TestGrowthCriterion:

    def test_ratios_are_powers_of_b(self):
        growth = full_report(DEFAULTS)["growth_ratios"]
        for k, r in enumerate(growth, 1):
            assert math.log(r) == pytest.approx(k * math.log(1.9), abs=1e-12)
            assert r == pytest.approx(1.9 ** k, rel=1e-12)
        assert growth[4] == pytest.approx(24.76099, rel=1e-5)

    def test_diverges_flag(self):
        assert full_report(DEFAULTS)["growth_diverges"] is True
        assert full_report(OFFGRID)["growth_diverges"] is True

    def test_off_grid_log_ratios(self):
        growth = full_report(OFFGRID)["growth_ratios"]
        for k, r in enumerate(growth, 1):
            assert math.log(r) == pytest.approx(k * math.log(OFFGRID.b),
                                                abs=1e-12)


class TestCoexistence:

    @pytest.mark.parametrize("params", [
        DEFAULTS,
        OFFGRID,
        CounterexampleParams(p=1.2, q=6.0, b=1.75, terms=4),
    ])
    def test_membership_converges_while_pairing_diverges(self, params):
        rep = full_report(params)
        assert all(r < 1.0 for r in ratios(rep["membership_f_terms"])
                   + ratios(rep["membership_g_terms"]))
        assert all(r > 1.0 for r in rep["divergence_ratios"])


class TestMpmathReference:
    """Report values off exact powers against the defining formulas at 50
    digits, ln n! included: the float route never forms ln n!, whose two
    halves cancel exactly, while this one computes it and lets it cancel."""

    @pytest.mark.parametrize("alpha", [1e-300, 3.0, 1e300])
    def test_offgrid_report(self, alpha):
        params = CounterexampleParams(p=OFFGRID.p, q=OFFGRID.q,
                                      terms=OFFGRID.terms, alpha=alpha)
        rep = full_report(params)
        with mpmath.workdps(50):
            p, q, b = (mpmath.mpf(v) for v in (params.p, params.q, params.b))
            a = mpmath.mpf(alpha)
            p_conj, q_conj = p / (p - 1), q / (q - 1)
            half_gap = (1 / q - 1 / p) / 2
            expected = {key: [] for key in (
                "membership_f_terms", "membership_g_terms",
                "membership_printed_f_terms", "divergence_terms",
                "growth_ratios")}
            for k, n in enumerate(rep["indices"], 1):
                n = mpmath.mpf(n)
                ln_n, ln_a = mpmath.log(n), mpmath.log(a)
                # ln of n! / alpha^n
                ln_moment = mpmath.loggamma(n + 1) - n * ln_a
                ln_f = (k * mpmath.log(b) + (mpmath.mpf(1) / 4
                        - 1 / (2 * p_conj) + half_gap) * ln_n - ln_moment / 2)
                ln_g = (k * mpmath.log(b) + (mpmath.mpf(1) / 4
                        - 1 / (2 * q) + half_gap) * ln_n - ln_moment / 2)

                def term(ln_c, e, sign):
                    # |c|^e (n! / alpha^n)^(e/2) n^(sign (e/4 - 1/2))
                    return mpmath.exp(e * ln_c + e / 2 * ln_moment
                                      + sign * (e / 4 - mpmath.mpf(1) / 2)
                                      * ln_n)

                expected["membership_f_terms"].append(term(ln_f, p_conj, -1))
                expected["membership_g_terms"].append(term(ln_g, q, -1))
                expected["membership_printed_f_terms"].append(
                    term(ln_f, p, 1))
                # coefficient product times the moment pi n! / alpha^(n+1)
                expected["divergence_terms"].append(mpmath.exp(
                    ln_f + ln_g + mpmath.log(mpmath.pi) + ln_moment - ln_a))
                # f's coefficient over sqrt(alpha^n / n!) n^(1/4 - 1/(2 q'))
                expected["growth_ratios"].append(mpmath.exp(
                    ln_f + ln_moment / 2
                    - (mpmath.mpf(1) / 4 - 1 / (2 * q_conj)) * ln_n))
            for key, values in expected.items():
                assert len(rep[key]) == params.terms
                for got, want in zip(rep[key], values):
                    assert abs(got - want) <= 1e-12 * abs(want), (key, got,
                                                                  want)


class TestReport:

    def test_report_contents(self):
        rep = full_report(DEFAULTS)
        assert rep["indices"] == [16 ** k for k in range(1, 9)]
        assert len(rep["membership_f_terms"]) == 8
        assert len(rep["divergence_partial_sums"]) == 8
        assert max(rep["pairing_identity_residuals"]) < 1e-10
        assert rep["growth_diverges"] is True
        assert rep["divergence_ratios"][0] == pytest.approx(1.805, abs=1e-12)

    def test_report_is_json_ready(self):
        import json
        json.dumps(full_report(DEFAULTS))

    def test_empty_report(self):
        rep = full_report(CounterexampleParams(terms=0))
        assert rep["indices"] == []
        assert rep["pairing_identity_residuals"] == []


class TestDecayWindow:

    def test_default_weights_sit_on_the_upper_edge(self):
        gap = DEFAULTS.exponent_gap
        for k, n in enumerate(build_indices(DEFAULTS), 1):
            log_weight = 0.5 * gap * math.log(n)
            assert log_weight == pytest.approx(-k * math.log(2.0), abs=1e-12)

    def test_large_term_count_stays_in_window(self):
        # indices grow to 2^48 at 12 terms; the search must neither miss the
        # 2^-k target nor fall through the 3^-k floor on the way up
        params = CounterexampleParams(terms=12)
        idx = build_indices(params)
        assert idx[-1] == 16 ** 12
        assert len(idx) == 12
