"""Closed-form evaluator checks.

Two independent oracles: adaptive quadrature of the defining probability
integrals (deterministic, used for a few parameter points) and the Monte
Carlo estimator (statistical, used broadly here and in the acceptance
suite).
"""

import math
import random
import sys
import threading
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate

from backsec import analytic
from backsec.config import apply_axis, loads_config, preset_names, preset_text
from backsec.errors import NumericalInstabilityWarning, ValidationError
from backsec.montecarlo import McConfig, estimate_all
from backsec.specfun import (
    bessel_k,
    compositions,
    multinomial_delta,
    reg_lower_inc_gamma,
    reg_upper_inc_gamma,
)
from backsec.system import ProtocolKind, SystemParams

from conftest import DB, make_params

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import closed_form_digest as pins  # noqa: E402

ALL = tuple(ProtocolKind)


def quad_sop(params, protocol):
    """Defining double integral of the powered-outage term, plus the
    dead-tag probability; single-tag forms are raised to the tag count for
    the capacity-optimal rule."""
    d = analytic._Derived(params)

    def f1_shift(v):
        return math.exp(d.ms * math.log(d.lam_s) + (d.ms - 1) * math.log(v + d.a)
                        - d.lam_s * (v + d.a) - math.lgamma(d.ms))

    def f3(w):
        return math.exp(d.me * math.log(d.lam_e) + (d.me - 1) * math.log(w)
                        - d.lam_e * w - math.lgamma(d.me))

    def f3_eff(w):
        if protocol is ProtocolKind.METS:
            sf = reg_upper_inc_gamma(d.me, d.lam_e * w)
            return d.n * sf ** (d.n - 1) * f3(w)
        return f3(w)

    def f2_cdf(t):
        base = reg_lower_inc_gamma(d.md, d.lam_d * t)
        return base ** d.n if protocol is ProtocolKind.SOTS else base

    p1v = analytic.p1(params)
    p2, _ = integrate.dblquad(
        lambda v, w3: f2_cdf(d.cap_a / v + d.cap_b * w3) * f1_shift(v) * f3_eff(w3),
        0, np.inf, lambda w3: 0, lambda w3: np.inf, epsabs=1e-11, epsrel=1e-11)
    single = p1v + p2
    return single ** params.n_tags if protocol is ProtocolKind.OTS else single


class TestStructuralIdentities:
    def test_zero_rate_equals_p1(self):
        # at R = 0 only a dead selected tag is an outage; OTS keeps tag 0
        # unless some tag's ratio exceeds 1, so it picks a dead tag when tag 0
        # is dead and every other tag is dead or intercepted
        p = make_params(rate=0.0)
        p1v = analytic.p1(p)
        ip_one = analytic.ip_exact(ProtocolKind.RTS, p).raw_value
        for proto in ALL:
            rep = analytic.sop_exact(proto, p)
            want = p1v * ip_one ** (p.n_tags - 1) if proto is ProtocolKind.OTS else p1v
            assert abs(rep.value - want) <= 1e-12 * want, proto
            assert rep.term_breakdown["p1"] == p1v
            assert rep.term_breakdown["p2"] == 0.0
        assert analytic.sop_exact(ProtocolKind.OTS, p).term_breakdown["single_tag"] == ip_one

    def test_rate_below_float_resolution_gives_intercept(self):
        # 0 < R with 2^R == 1.0: the outage event is the intercept event
        tiny = make_params(rate=1e-17)
        assert tiny.tau == 1.0
        for proto in ALL:
            sop = analytic.sop_exact(proto, tiny).raw_value
            assert sop == analytic.ip_exact(proto, tiny).raw_value
            assert sop != analytic.p1(tiny)
        zero = make_params(rate=0.0)
        for proto in (ProtocolKind.SOTS, ProtocolKind.METS, ProtocolKind.RTS):
            assert analytic.sop_exact(proto, zero).raw_value == analytic.p1(zero)

    def test_all_protocols_coincide_single_tag(self):
        p = make_params(n_tags=1, gamma_t_db=15.0)
        sops = [analytic.sop_exact(proto, p).value for proto in ALL]
        ips = [analytic.ip_exact(proto, p).value for proto in ALL]
        for v in sops[1:]:
            assert abs(v - sops[0]) <= 1e-12
        for v in ips[1:]:
            assert abs(v - ips[0]) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ots_power_structure(self, n):
        single = make_params(n_tags=1)
        multi = make_params(n_tags=n)
        assert abs(analytic.sop_exact(ProtocolKind.OTS, multi).value
                   - analytic.sop_exact(ProtocolKind.OTS, single).value ** n) <= 1e-12
        assert abs(analytic.ip_exact(ProtocolKind.OTS, multi).value
                   - analytic.ip_exact(ProtocolKind.OTS, single).value ** n) <= 1e-12

    def test_rts_equals_single_tag(self):
        single = make_params(n_tags=1)
        multi = make_params(n_tags=4)
        assert abs(analytic.sop_exact(ProtocolKind.RTS, multi).value
                   - analytic.sop_exact(ProtocolKind.RTS, single).value) <= 1e-12
        assert abs(analytic.ip_exact(ProtocolKind.RTS, multi).value
                   - analytic.ip_exact(ProtocolKind.RTS, single).value) <= 1e-12

    def test_sop_non_decreasing_in_rate(self):
        for proto in ALL:
            prev = -1.0
            for rate in [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]:
                v = analytic.sop_exact(proto, make_params(rate=rate)).value
                assert v >= prev - 1e-14
                prev = v


class TestQuadratureOracle:
    """Deterministic cross-check of the Bessel-sum assembly at mixed shapes."""

    @pytest.mark.parametrize("proto", ALL)
    def test_exact_sop_matches_defining_integral(self, proto):
        p = make_params(gamma_t_db=18.0, n_tags=3, m_s=3, m_d=2, m_e=1, rate=0.8)
        got = analytic.sop_exact(proto, p).raw_value
        ref = quad_sop(p, proto)
        assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_exact_ip_matches_defining_integral(self):
        p = make_params(gamma_t_db=12.0, n_tags=4, m_s=1, m_d=3, m_e=2)
        d = analytic._Derived(p)
        p1v = analytic.p1(p)

        def f3(w):
            return math.exp(d.me * math.log(d.lam_e) + (d.me - 1) * math.log(w)
                            - d.lam_e * w - math.lgamma(d.me))

        for proto, order in ((ProtocolKind.SOTS, "max"), (ProtocolKind.METS, "min"),
                             (ProtocolKind.RTS, "single")):
            def f3_eff(w):
                if order == "min":
                    sf = reg_upper_inc_gamma(d.me, d.lam_e * w)
                    return d.n * sf ** (d.n - 1) * f3(w)
                return f3(w)

            def f2_cdf(t):
                base = reg_lower_inc_gamma(d.md, d.lam_d * t)
                return base ** d.n if order == "max" else base

            cmp_ref, _ = integrate.quad(lambda w: f2_cdf(d.c * w) * f3_eff(w),
                                        0, np.inf, epsabs=1e-12, epsrel=1e-12)
            ref = p1v + (1.0 - p1v) * cmp_ref
            got = analytic.ip_exact(proto, p).raw_value
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-13)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("gamma_db,n,m", [(10.0, 3, 2), (25.0, 4, 1), (30.0, 2, 3)])
    def test_exact_within_three_sigma(self, gamma_db, n, m):
        p = make_params(gamma_t_db=gamma_db, n_tags=n, m=m)
        mc = McConfig(trials=400_000, seed=318)
        est = estimate_all(p, mc)
        for proto in ALL:
            for metric, fn in (("sop", analytic.sop_exact), ("ip", analytic.ip_exact)):
                e = est[(proto, metric)]
                tol = max(3.5 * e.stderr, 2e-4)
                assert abs(fn(proto, p).value - e.p_hat) <= tol, (proto, metric)

    @pytest.mark.parametrize("gamma_db,n", [(0.0, 3), (5.0, 2)])
    def test_zero_rate_sop_within_four_sigma(self, gamma_db, n):
        # only a dead selected tag is an outage at R = 0; the OTS value sits
        # far below p1 here (1.6e-3 against 0.089 at 0 dB), so the band tells
        # them apart
        p = make_params(gamma_t_db=gamma_db, n_tags=n, rate=0.0)
        est = estimate_all(p, McConfig(trials=400_000, seed=6))
        for proto in ALL:
            e = est[(proto, "sop")]
            assert e.n_case2 == 0
            assert abs(analytic.sop_exact(proto, p).value - e.p_hat) <= 4 * e.stderr, proto

    def test_high_resolution_reference_points(self):
        """1e7-trial checks at the reference geometry (deterministic seeds,
        verified once to sit inside 3 sigma and frozen)."""
        p30 = make_params(gamma_t_db=30.0, n_tags=3, m=2)
        e = estimate_all(p30, McConfig(trials=10_000_000, seed=424242))[
            (ProtocolKind.SOTS, "sop")]
        exact = analytic.sop_exact(ProtocolKind.SOTS, p30).value
        assert abs(e.p_hat - exact) <= 3 * e.stderr

        p20 = make_params(gamma_t_db=20.0, n_tags=3, m=2)
        r = estimate_all(p20, McConfig(trials=10_000_000, seed=515151))[
            (ProtocolKind.RTS, "sop")]
        p1v = analytic.p1(p20)
        se = math.sqrt(p1v * (1 - p1v) / r.trials)
        assert abs(r.n_case1 / r.trials - p1v) <= 3 * se

    def test_random_scenarios_agree_with_exact_forms(self):
        """The exact SOP and IP of all four rules against one 5e4-trial run in
        each of 40 derandomized i.i.d. scenarios: N <= 6, each m <= 4, R = 0 in
        every fourth, random distances, rates and gamma_t.  Each unflagged value
        must lie in the Wilson interval of its event count at the Bonferroni
        level 1e-3 / (number of comparisons), so a correct closed form fails
        this test for at most one MC seed in 1000."""
        rng = random.Random(16)
        comparisons = []
        for i in range(40):
            p = make_params(
                n_tags=rng.randint(1, 6), m_s=rng.randint(1, 4), m_d=rng.randint(1, 4),
                m_e=rng.randint(1, 4), d_s=rng.uniform(0.5, 2.0), d_d=rng.uniform(1.0, 4.0),
                d_e=rng.uniform(1.0, 8.0), gamma_t_db=rng.uniform(-10.0, 50.0),
                rate=0.0 if i % 4 == 0 else rng.uniform(0.1, 3.0))
            est = estimate_all(p, McConfig(trials=50_000, seed=3))
            for metric, fn in (("sop", analytic.sop_exact), ("ip", analytic.ip_exact)):
                for proto in ALL:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", NumericalInstabilityWarning)
                        value = fn(proto, p).value
                    if not caught:
                        e = est[(proto, metric)]
                        comparisons.append((value, e.n_case1 + e.n_case2, e.trials,
                                            (i, proto.value, metric)))
        assert len(comparisons) > 300
        z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(comparisons)))
        for value, k, n, where in comparisons:
            centre = (k + z * z / 2) / (n + z * z)
            half = z / (n + z * z) * math.sqrt(k * (n - k) / n + z * z / 4)
            assert centre - half <= value <= centre + half, (where, value, k / n)

    def test_mets_asymptote_against_high_snr_mc(self):
        p = make_params(gamma_t_db=80.0, n_tags=3, m=2)
        est = estimate_all(p, McConfig(trials=400_000, seed=99))
        asym = analytic.sop_asymptotic(ProtocolKind.METS, p).value
        e = est[(ProtocolKind.METS, "sop")]
        assert abs(asym - e.p_hat) <= max(3.5 * e.stderr, 2e-4)


class TestAsymptotics:
    def test_invariant_to_transmit_snr(self):
        lo = make_params(gamma_t_db=10.0)
        hi = make_params(gamma_t_db=45.0)
        for proto in ALL:
            assert (analytic.sop_asymptotic(proto, lo).value
                    == analytic.sop_asymptotic(proto, hi).value)
            assert (analytic.ip_asymptotic(proto, lo).value
                    == analytic.ip_asymptotic(proto, hi).value)

    def test_ots_asymptote_power_structure(self):
        single = make_params(n_tags=1)
        multi = make_params(n_tags=3)
        assert abs(analytic.sop_asymptotic(ProtocolKind.OTS, multi).value
                   - analytic.sop_asymptotic(ProtocolKind.OTS, single).value ** 3) <= 1e-12

    def test_exact_approaches_asymptote(self):
        for proto in ALL:
            p60 = make_params(gamma_t_db=60.0)
            asym = analytic.sop_asymptotic(proto, p60).raw_value
            exact = analytic.sop_exact(proto, p60).raw_value
            assert abs(exact - asym) / asym < 0.01


def _scaled_gaps(metric: str, proto, power: int, dbs, scenario: dict) -> list:
    """(exact - asymptote) / asymptote * gamma_t^power at each gamma_t in dB."""
    exact = getattr(analytic, f"{metric}_exact")
    asymptote = getattr(analytic, f"{metric}_asymptotic")
    gaps = []
    for db in dbs:
        p = make_params(gamma_t_db=db, **scenario)
        limit = asymptote(proto, p).raw_value
        gaps.append((exact(proto, p).raw_value - limit) / limit * DB(db) ** power)
    return gaps


# name -> (scenario, metric, power of gamma_t, window in dB, relative tolerance).
# The SOP gap falls as 1/gamma_t, the IP gap as gamma_t^-m_s.  Each window sits
# above the floor where exact - asymptote drowns in the exact form's rounding
# (about 100 dB for SOP and 80 dB for IP at N = 3, m = 2).  At N = 6, m = 4 the
# IP gap reaches that floor by 35 dB, so its window starts at 20 dB, where the
# next order (relative 1/gamma_t) still moves the scaled gap by 0.4%.
ORDER_CASES = {
    "n3m2-sop": ({}, "sop", 1, (60, 80, 100), 1e-3),
    "n3m2-ip": ({}, "ip", 2, (40, 50, 60), 1e-3),
    "ms1-ip": ({"m_s": 1}, "ip", 1, (40, 60, 80), 1e-3),
    "n6m4-sop": ({"n_tags": 6, "m": 4}, "sop", 1, (50, 60), 1e-3),
    "n6m4-ip": ({"n_tags": 6, "m": 4}, "ip", 4, (20, 30), 5e-3),
    "n6m4-sop-80db": ({"n_tags": 6, "m": 4}, "sop", 1, (60, 70, 80), 1e-3),
}
# At 80 dB the exact SOTS SOP of N = 6, m = 4 is 8.2229344e-06 with condition
# 7.3e6, so its rounding (eps * condition = 1.6e-9 of the value) is 1.5% of
# exact - asymptote (9.0e-8 of it): the scaled gap reads 8.8537, 8.8554, 8.9853
# at 60, 70, 80 dB.
ORDER_FLOOR = {("n6m4-sop-80db", ProtocolKind.SOTS)}


class TestAsymptoteOrder:
    @pytest.mark.parametrize("case, proto", [
        pytest.param(case, proto, marks=pytest.mark.xfail(
            strict=True, reason="exact SOTS SOP rounding is 1.5% of the gap at 80 dB"))
        if (case, proto) in ORDER_FLOOR else (case, proto)
        for case in ORDER_CASES for proto in ALL])
    def test_gap_falls_as_a_power_of_snr(self, case, proto):
        scenario, metric, power, dbs, rel = ORDER_CASES[case]
        gaps = _scaled_gaps(metric, proto, power, dbs, scenario)
        assert gaps[0] > 0.0
        assert max(gaps) - min(gaps) <= rel * gaps[0], gaps

    @pytest.mark.parametrize("proto", ALL)
    def test_sop_gap_at_unit_source_shape_is_affine_in_log_snr(self, proto):
        # K_1 brings a gamma_t^-1 ln(gamma_t) term: the scaled gap rises by
        # equal steps at equal dB steps (SOTS 1337.6, 1399.9, 1462.1 at 80, 90,
        # 100 dB)
        gaps = _scaled_gaps("sop", proto, 1, (80, 90, 100), {"m_s": 1})
        step = gaps[1] - gaps[0]
        assert step > 0.01 * gaps[0]
        assert gaps[2] - gaps[1] == pytest.approx(step, rel=1e-3)


class TestSum:
    """`_sum` is math.fsum with the cancellation ratio of its terms."""

    CASES = {
        "empty": [],
        "negative zero first": [-0.0, 0.0, -0.0, 1e-300, -1e-300],
        "subnormals": [5e-324, -2.5e-320, 1e-310, 4.9e-322, -1e-310, 2.2250738585072e-308],
        "1e16 cancellation": [1e16, 1.0, -1e16, 3.0, 1e16, -0.5, -1e16, 1e-3],
        "mixed": [math.pi * (-1.7) ** k * 10.0 ** (k % 7 - 3) for k in range(60)],
    }

    def test_recovers_cancelled_tail(self):
        value, condition = analytic._sum([1.0] + [1e-17] * 1000 + [-1.0])
        assert value == pytest.approx(1e-14, rel=1e-10)
        assert condition > 1e13

    @pytest.mark.parametrize("name", CASES)
    def test_independent_of_term_order(self, name):
        terms = self.CASES[name]
        value, condition = analytic._sum(terms)
        assert repr(value) == repr(math.fsum(terms))
        rng = random.Random(name)
        for _ in range(20):
            shuffled = rng.sample(terms, len(terms))
            assert tuple(map(repr, analytic._sum(shuffled))) == (repr(value), repr(condition))

    def test_zero_sums(self):
        assert analytic._sum([]) == (0.0, 1.0)
        assert analytic._sum([1.0, -1.0]) == (0.0, math.inf)

    def test_non_finite_terms(self):
        # inf - inf is nan, as a plain running sum gives; fsum itself raises
        assert all(map(math.isnan, analytic._sum([math.inf, -math.inf])))
        # a magnitude past the float range leaves a finite value flagged
        assert analytic._sum([1.5e308, -1.5e308, 1.0]) == (1.0, math.inf)


def exact_cmp_max(d, x):
    """P(max of N destination gains < x W3), the SOTS comparison sum, summed
    exactly in fractions from the float inputs: integer-factorial delta over
    `compositions`, and the W3 moment
    lam_e^me Gamma(me + q) / (Gamma(me) (lam_e + s)^(me + q))."""
    n, md, me = d.n, d.md, d.me
    lam_d, lam_e, x = Fraction(d.lam_d), Fraction(d.lam_e), Fraction(x)
    total = Fraction(0)
    for parts in compositions(n, md + 1):
        t1 = n - parts[0]
        t2 = sum((i - 1) * parts[i] for i in range(2, md + 1))
        denom = math.prod(map(math.factorial, parts)) * math.prod(
            math.factorial(i - 1) ** parts[i] for i in range(1, md + 1))
        delta = (-1) ** t1 * lam_d ** t2 * Fraction(math.factorial(n), denom)
        moment = (lam_e ** me * Fraction(math.factorial(me + t2 - 1), math.factorial(me - 1))
                  / (lam_e + lam_d * t1 * x) ** (me + t2))
        total += delta * x ** t2 * moment
    return total


class TestSotsComparisonOracle:
    """The SOTS comparison sum gives the IP asymptote (x = c) and the SOP
    asymptote (x = B).  Where its condition, sum |comp terms| / |value|, is
    below the cancellation threshold, its true relative error stays within a
    small multiple of eps times that condition."""

    @pytest.mark.parametrize("d_e", [4.0, 6.0])
    @pytest.mark.parametrize("n,m", [(3, 2), (8, 2), (8, 3), (8, 4)])
    def test_error_is_bounded_by_the_condition(self, n, m, d_e):
        p = make_params(gamma_t_db=30.0, n_tags=n, m=m, d_e=d_e)
        d = analytic._derived(p)
        for form, x in ((analytic.ip_asymptotic, d.c), (analytic.sop_asymptotic, d.cap_b)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericalInstabilityWarning)
                rep = form(ProtocolKind.SOTS, p)
            magnitude = sum(abs(v) for k, v in rep.term_breakdown.items() if k.startswith("comp"))
            condition = magnitude / abs(rep.raw_value)
            if condition >= analytic.CANCELLATION_THRESHOLD:
                continue  # flagged: the value is not vouched for
            exact = exact_cmp_max(d, x)
            error = float(abs(Fraction(rep.raw_value) - exact) / exact)
            bound = 4 * sys.float_info.epsilon * condition
            assert error <= bound, (form.__name__, error, condition)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="condition below the threshold still allows a 1e-4 error")
    @pytest.mark.parametrize("form, n, m", [("ip_asymptotic", 8, 2), ("sop_asymptotic", 8, 3)])
    def test_unflagged_asymptote_is_accurate(self, form, n, m):
        # an asymptote returned without a flag should hold about nine digits;
        # flagging these two, or summing them more accurately, passes this
        p = make_params(gamma_t_db=30.0, n_tags=n, m=m, d_e=6.0)
        d = analytic._derived(p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = getattr(analytic, form)(ProtocolKind.SOTS, p)
        if any(issubclass(w.category, NumericalInstabilityWarning) for w in caught):
            return
        exact = exact_cmp_max(d, d.c if form == "ip_asymptotic" else d.cap_b)
        error = float(abs(Fraction(rep.raw_value) - exact) / exact)
        assert error <= 1e-9, error


class TestMetsInterceptAsymptoteAtMe1:
    """At m_e = 1 the weakest of N exponential eavesdropper gains is
    exponential with rate N lam_e, so the METS IP asymptote P(W2 < c W3) is
    exactly r^m_d, r = lam_d c / (N lam_e + lam_d c), taken in rationals from
    the engine's float inputs."""

    @pytest.mark.parametrize("n, m_d", [
        (2, 1), (2, 2), (3, 1),
        *(pytest.param(n, m_d, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5"))
          for n, m_d in ((7, 6), (8, 4), (8, 6))),
    ])
    def test_flagged_or_exact_to_1e12(self, n, m_d):
        p = make_params(n_tags=n, m_s=2, m_d=m_d, m_e=1)
        d = analytic._derived(p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = analytic.ip_asymptotic(ProtocolKind.METS, p)
        if any(issubclass(w.category, NumericalInstabilityWarning) for w in caught):
            return
        rate = Fraction(d.lam_d) * Fraction(d.c)
        exact = (rate / (n * Fraction(d.lam_e) + rate)) ** m_d
        error = float(abs(Fraction(rep.raw_value) - exact) / exact)
        assert error <= 1e-12, error


class TestIntercept:
    def test_distant_eavesdropper_reduces_to_p1(self):
        p = make_params(gamma_t_db=10.0, d_e=5000.0)
        p1v = analytic.p1(p)
        with warnings.catch_warnings():
            # the comparison sum is pure cancellation at eta2 ~ 0; the
            # instability flag legitimately fires while the absolute error
            # stays far below this test's tolerance
            warnings.simplefilter("ignore", NumericalInstabilityWarning)
            for proto in ALL:
                v = analytic.ip_exact(proto, p).value
                if proto is ProtocolKind.OTS:
                    assert v == pytest.approx(p1v ** p.n_tags, abs=1e-9)
                else:
                    assert v == pytest.approx(p1v, abs=1e-9)

    def test_symmetric_links_give_half_for_rts(self):
        # identical destination/eavesdropper statistics, negligible dead-tag
        # probability: the intercept event is a coin flip
        p = make_params(gamma_t_db=80.0, lam_d_db=3.0, lam_e_db=3.0, d_d=2.0, d_e=2.0)
        v = analytic.ip_exact(ProtocolKind.RTS, p).value
        assert v == pytest.approx(0.5, abs=1e-6)


class TestRayleighReduction:
    def test_m1_matches_mc_and_uses_binomial_terms(self):
        p = make_params(gamma_t_db=20.0, n_tags=3, m=1)
        est = estimate_all(p, McConfig(trials=400_000, seed=77))
        for proto in ALL:
            rep = analytic.sop_exact(proto, p)
            e = est[(proto, "sop")]
            assert abs(rep.value - e.p_hat) <= max(3.5 * e.stderr, 2e-4)
        # with m=1 the composition machinery degenerates to n+1 binomial terms
        sots = analytic.sop_exact(ProtocolKind.SOTS, p)
        comp_terms = [k for k in sots.term_breakdown if k.startswith("p2.comp")]
        assert len(comp_terms) == p.n_tags + 1


class TestReportMechanics:
    def test_breakdown_names(self):
        p = make_params()
        rep = analytic.sop_exact(ProtocolKind.SOTS, p)
        assert "p1" in rep.term_breakdown and "p2" in rep.term_breakdown
        assert any(k.startswith("p2.comp") for k in rep.term_breakdown)
        assert rep.value == pytest.approx(
            rep.term_breakdown["p1"] + rep.term_breakdown["p2"], rel=1e-12)

    def test_raw_value_preserved_and_value_clamped(self):
        p = make_params()
        rep = analytic.ip_exact(ProtocolKind.METS, p)
        assert 0.0 <= rep.value <= 1.0
        assert rep.raw_value == pytest.approx(rep.value)

    def test_kind_and_protocol_recorded(self):
        p = make_params()
        assert analytic.sop_asymptotic(ProtocolKind.RTS, p).kind == "asymptotic_sop"
        assert analytic.ip_exact(ProtocolKind.OTS, p).protocol is ProtocolKind.OTS

    def test_heterogeneous_tags_rejected(self):
        p = make_params(n_tags=2)
        link = p.links_of("d")[0]
        other = replace(link, distance=link.distance * 2)
        het = SystemParams(p_tx=p.p_tx, gamma_t=p.gamma_t, gamma_p=p.gamma_p,
                           zeta=p.zeta, n_tags=2, rate_threshold=p.rate_threshold,
                           link_s=p.link_s, link_d=(link, other), link_e=p.link_e,
                           eh=p.eh)
        before = dict(vars(het))
        for _ in range(2):  # a failed call stashes nothing, so every call fails
            with pytest.raises(ValidationError):
                analytic.sop_exact(ProtocolKind.SOTS, het)
            with pytest.raises(ValidationError):
                analytic.p1(het)
        assert vars(het) == before

    @pytest.mark.parametrize("form", ["sop_exact", "sop_asymptotic", "ip_exact",
                                      "ip_asymptotic"])
    def test_overflow_is_a_validation_error(self, form):
        # 2^R = tau near 2^345 takes B^q past the largest float in every
        # SOP form; the IP forms do not read tau
        p = make_params(rate=345.0)
        for _ in range(2):  # a failed build publishes nothing, so it fails again
            if form.startswith("sop"):
                with pytest.raises(ValidationError, match=r"\(sots\).*1\.798e\+308"):
                    getattr(analytic, form)(ProtocolKind.SOTS, p)
            else:
                assert 0.0 <= getattr(analytic, form)(ProtocolKind.SOTS, p).value <= 1.0

    @pytest.mark.parametrize("form", ["sop_exact", "sop_asymptotic", "ip_exact",
                                      "ip_asymptotic"])
    def test_protocol_must_be_a_protocol_kind(self, form):
        # a protocol name is not a rule: no form may read "ots" as another rule
        with pytest.raises(ValidationError, match="ProtocolKind, got 'ots'"):
            getattr(analytic, form)("ots", make_params())

    @pytest.mark.parametrize("n, m", [(3, 2), (8, 4)], ids=["fig2", "n8m4"])
    def test_every_breakdown_names_the_same_parts(self, n, m):
        p = make_params(n_tags=n, m=m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalInstabilityWarning)
            for form in FORMS:
                for proto in ALL:
                    rep = getattr(analytic, form)(proto, p)
                    terms = rep.term_breakdown
                    single = terms["single_tag"]
                    assert "p1" in terms
                    assert rep.raw_value == (single ** n if proto is ProtocolKind.OTS
                                             else single), (form, proto)
                    if form == "ip_exact":
                        assert single == terms["p1"] + terms["p3"], proto
                    if form.endswith("asymptotic"):
                        assert terms["p1"] == 0.0

    def test_instability_warning_raised_at_tight_threshold(self, monkeypatch):
        p = make_params(n_tags=4, m=3)
        monkeypatch.setattr(analytic, "CANCELLATION_THRESHOLD", 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analytic.sop_exact(ProtocolKind.SOTS, p)
        assert any(issubclass(w.category, NumericalInstabilityWarning) for w in caught)

    @pytest.mark.parametrize("form", ["sop_exact", "sop_asymptotic", "ip_exact", "ip_asymptotic"])
    def test_instability_warning_names_the_caller(self, form, monkeypatch):
        # every sum has a condition of at least 1, so each check warns, and
        # each warning points at the line that called the closed form
        monkeypatch.setattr(analytic, "CANCELLATION_THRESHOLD", 0.5)
        for proto in ALL:
            with pytest.warns(NumericalInstabilityWarning) as record:
                getattr(analytic, form)(proto, make_params(n_tags=4, m=3))
            assert [w.filename for w in record] == [__file__] * len(record), proto

    @pytest.mark.parametrize("form, label, raw", [
        ("ip_exact", "comparison complement", "7.453198439577404e-13"),
        ("sop_exact", "outage complement", "9.72111280361787e-13"),
    ])
    def test_single_tag_complement_is_checked(self, form, label, raw):
        # 1 - x for the METS comparison sum and outage tail loses about 12
        # digits here; the flag names the complement and the value is as before
        base = replace(loads_config(preset_text("fig2")).base, n_tags=2)
        for axis, value in (("m_all", 3), ("gamma_t_db", 40.0), ("d_d", 0.5),
                            ("d_e", 50.0), ("rate", 0.1)):
            base = apply_axis(base, axis, value)
        with pytest.warns(NumericalInstabilityWarning, match=f"^{label}: "):
            report = getattr(analytic, form)(ProtocolKind.METS, base)
        assert repr(report.raw_value) == raw

    def test_no_warning_at_default_threshold(self):
        p = make_params(n_tags=4, m=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analytic.sop_exact(ProtocolKind.SOTS, p)
        assert not [w for w in caught if issubclass(w.category, NumericalInstabilityWarning)]


FORMS = ("sop_exact", "sop_asymptotic", "ip_exact", "ip_asymptotic")


def _evaluate_all(params):
    """{(form, protocol): report} for the 16 closed forms; instability warnings
    (the (16, 3) SOTS IP sum trips one) are silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericalInstabilityWarning)
        return {(form, proto): getattr(analytic, form)(proto, params)
                for form in FORMS for proto in ProtocolKind}


def _assert_pinned(points, parts):
    """The given parts of every record at points, a pins.pinned_points()
    slice, equal the committed file's exactly; a failure names each moved
    entry with its relative move."""
    def cut(records):
        return {key: {part: value for part, value in record.items()
                      if part in ("point", "form", "rule", *parts)}
                for key, record in records.items() if key[0] in points}

    pinned, fresh = cut(pins.read_pins()), cut(pins.pin_records(points))
    assert pins.dumps(fresh) == pins.dumps(pinned), "\n".join(pins.moves(pinned, fresh))


class TestBitIdentity:
    """tests/data/closed_forms.jsonl pins the raw value of every closed form
    at each point of tools/closed_form_digest.py's pinned_points, and the
    instability messages and breakdown terms at 46 of them.  The tool writes
    that file; each test here compares its slice of it."""

    # The sums must keep every term's arithmetic exactly: grouping
    # compositions by (theta1, theta2), say, moves the raw values by about
    # condition x eps.
    @pytest.mark.parametrize("n, m", sorted(pins.RAW_CELLS))
    def test_raw_values_frozen(self, n, m):
        kwargs = pins.RAW_CELLS[n, m]
        params = pins.reference(**kwargs)
        assert params == make_params(n_tags=n, m=m)
        _assert_pinned({pins.reference_name(kwargs): (params, False)}, ("raw",))
        # fsum gives the same value in any term order, so pin the term order
        # too: one term per composition, in compositions order
        order = [f"comp{c}" for c in compositions(n, m + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalInstabilityWarning)
            sop_terms = analytic.sop_exact(ProtocolKind.SOTS, params).term_breakdown
            ip_terms = analytic.ip_exact(ProtocolKind.SOTS, params).term_breakdown
        assert [k for k in sop_terms if k.startswith("p2.comp")] == ["p2." + k for k in order]
        assert [k for k in ip_terms if k.startswith("comp")] == order

    def test_preset_points_frozen(self):
        # at the reference seed the benchmark's presets_mc workload pins each
        # preset's whole sweep CSV, so a last-bit move at any of the 44 preset
        # points fails it: pin every raw value and instability message there
        points = pins.preset_points()
        built = [apply_axis(spec.base, spec.axis, v)
                 for spec in map(loads_config, map(preset_text, preset_names()))
                 for v in spec.axis_values]
        assert list(points.values()) == built
        _assert_pinned({name: (params, True) for name, params in points.items()},
                       ("raw", "messages"))

    def test_breakdowns_and_warnings_frozen(self):
        # the whole report, breakdown terms and instability messages in
        # order, at the preset points and at two cells whose sums cancel
        points = {name: point for name, point in pins.pinned_points().items() if point[1]}
        assert [params for params, _ in points.values()][:2] == [
            make_params(**METS_FLAGGED), make_params(n_tags=8, m=4)]
        _assert_pinned(points, ("raw", "messages", "terms"))

    @pytest.mark.parametrize("n, m_s, m_d, m_e", sorted(pins.MIXED_CELLS))
    def test_mixed_shape_raw_values_frozen(self, n, m_s, m_d, m_e):
        # each link has its own fading shape: the exact SOP's Bessel tables
        # are sized by m_s against (m_d - 1) theta1, which one m on all links
        # never separates
        kwargs = pins.MIXED_CELLS[n, m_s, m_d, m_e]
        params = pins.reference(**kwargs)
        assert params == make_params(n_tags=n, m_s=m_s, m_d=m_d, m_e=m_e)
        _assert_pinned({pins.reference_name(kwargs): (params, False)}, ("raw",))

    def test_value_file_covers_every_pin(self):
        records = pins.read_pins()
        points = pins.pinned_points()
        assert list(records) == [(name, form, proto.value) for name in points
                                 for form in FORMS for proto in ProtocolKind]
        whole = [r for r in records.values() if points[r["point"]][1]]
        assert len({r["point"] for r in whole}) == 46
        assert len(whole) == 736
        assert sum(len(r["terms"]) for r in whole) == 7520
        assert sum(len(r["messages"]) for r in whole) == 6
        cells = [pins.reference_name(kw)
                 for kw in (*pins.RAW_CELLS.values(), *pins.MIXED_CELLS.values())]
        assert len(set(cells)) == 10
        for name in cells:
            assert sum(r["point"] == name and "raw" in r for r in records.values()) == 16

    @pytest.mark.parametrize("n, m, lam", [(0, 1, 1.3), (0, 3, 2.0), (1, 1, 0.7),
                                           (5, 1, 2.7), (3, 2, 1.5), (8, 4, 1.995),
                                           (16, 3, 0.4), (6, 6, 3.1)])
    def test_expansion_table_equals_reference_loop(self, n, m, lam):
        d = analytic._Derived(make_params())
        ref = tuple((c, multinomial_delta(n, c, m, lam)) for c in compositions(n, m + 1))
        assert d.expansion(n, m, lam) == ref

    @pytest.mark.parametrize("x", [1e-3, 0.17, 1.3, 2.0, 2.0000001, 3.7, 25.0])
    def test_bessel_order_table_equals_bessel_k(self, x):
        # x <= 2 takes bessel_k's ascending series, x > 2 its continued fraction;
        # at m_d = 2 the table of theta1 = 41 runs to order (2 - 1) * 41 - 1 = 40
        d = analytic._Derived(make_params(m=2))
        table = analytic._bessel_table(d, 41, x)
        assert len(table) == 41
        for n in range(-40, 41):
            assert table[abs(n)] == bessel_k(n, x), n

    def test_expansion_table_built_once_per_evaluation(self):
        params = make_params(n_tags=8, m=4)
        d = analytic._Derived(params)
        first = d.expansion(8, 4, 1.995)
        assert d.expansion(8, 4, 1.995) is first
        # a new _Derived builds its own tables
        assert analytic._Derived(params).expansion(8, 4, 1.995) is not first


# The weakest-eavesdropper moment sums trip the instability flag in both METS
# SOP forms here, which share one set of those sums on one params object.
METS_FLAGGED = pins.METS_FLAGGED
ORDER = [(form, proto) for form in FORMS for proto in ProtocolKind]


def _seen(form, proto, params):
    """(raw_value repr, term_breakdown, instability messages in order) of one form."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = getattr(analytic, form)(proto, params)
    messages = tuple(str(w.message) for w in caught
                     if issubclass(w.category, NumericalInstabilityWarning))
    return repr(report.raw_value), dict(report.term_breakdown), messages


class TestSharedDerivedTerms:
    """The 16 closed forms of one params object share one _Derived; sharing
    must not change any result, breakdown or warning."""

    @pytest.mark.parametrize("kwargs", [dict(n_tags=3, m=2), dict(n_tags=8, m=4),
                                        dict(n_tags=16, m=3), METS_FLAGGED],
                             ids=["fig2", "n8m4", "n16m3", "mets_flagged"])
    def test_shared_equals_cold_in_any_order(self, kwargs):
        params = make_params(**kwargs)
        cold = {key: _seen(*key, replace(params)) for key in ORDER}
        forward = {key: _seen(*key, params) for key in ORDER}
        again = replace(params)
        backward = {key: _seen(*key, again) for key in reversed(ORDER)}
        # each evaluation repeats its messages, text and order, hit or miss
        assert forward == cold
        assert backward == cold
        if kwargs is METS_FLAGGED:
            for form in ("sop_exact", "sop_asymptotic"):
                messages = cold[form, ProtocolKind.METS][2]
                assert messages and messages[0].startswith("weakest-eavesdropper moment: ")

    @pytest.mark.parametrize("first, second, tight", [
        (("sop_exact", ProtocolKind.SOTS),) * 2 + (1.0,),
        (("sop_exact", ProtocolKind.METS),) * 2 + (1.0,),
        (("ip_asymptotic", ProtocolKind.METS),) * 2 + (1.0,),
        # one best-destination comparison sum serves both SOTS IP forms
        (("ip_exact", ProtocolKind.SOTS), ("ip_asymptotic", ProtocolKind.SOTS), 1.0),
        # one outage complement serves OTS and RTS; its condition is at least
        # 1, so a threshold of 0.5 trips it
        (("sop_exact", ProtocolKind.OTS), ("sop_exact", ProtocolKind.RTS), 0.5),
    ], ids=["sop_exact-ProtocolKind.SOTS", "sop_exact-ProtocolKind.METS",
            "ip_asymptotic-ProtocolKind.METS", "ip_exact-then-ip_asymptotic-ProtocolKind.SOTS",
            "sop_exact-ProtocolKind.OTS-then-RTS"])
    def test_threshold_applies_per_call(self, first, second, tight, monkeypatch):
        # the memo keeps values, never verdicts: each use reads the threshold anew
        default = analytic.CANCELLATION_THRESHOLD
        params = make_params(n_tags=4, m=3)
        assert len(_seen(*first, params)[2]) == 0
        monkeypatch.setattr(analytic, "CANCELLATION_THRESHOLD", tight)
        assert len(_seen(*second, params)[2]) > 0
        monkeypatch.setattr(analytic, "CANCELLATION_THRESHOLD", default)
        assert len(_seen(*second, params)[2]) == 0
        monkeypatch.setattr(analytic, "CANCELLATION_THRESHOLD", tight)
        assert len(_seen(*first, params)[2]) > 0

    def test_probe_premise_every_specfun_name_is_called(self, monkeypatch):
        # perfbench/probes.py times the specfun calls that the 16 forms make
        # through these analytic names at the (8, 4) cell, and has nothing to
        # time for a name that fresh params never call
        names = ("bessel_k", "compositions", "multinomial_delta",
                 "reg_lower_inc_gamma", "reg_upper_inc_gamma")
        calls = dict.fromkeys(names, 0)

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        for name in names:
            monkeypatch.setattr(analytic, name, counted(name, getattr(analytic, name)))
        _evaluate_all(make_params(gamma_t_db=30.0, n_tags=8, m=4))
        assert all(calls[name] >= 1 for name in names), calls

    def test_one_derived_per_params_object(self):
        params = make_params()
        assert analytic._derived(params) is analytic._derived(params)
        assert analytic._derived(replace(params)) is not analytic._derived(params)

    def test_fresh_params_rebuild_the_tables(self, monkeypatch):
        calls = []
        real = analytic.multinomial_delta
        monkeypatch.setattr(analytic, "multinomial_delta",
                            lambda *args: calls.append(args) or real(*args))
        params = make_params(n_tags=4, m=2)
        _evaluate_all(params)
        built = len(calls)
        assert built > 0
        _evaluate_all(params)
        assert len(calls) == built  # every table of this object is already built
        _evaluate_all(replace(params))
        assert len(calls) == 2 * built  # an equal fresh object builds its own

    def test_second_object_at_another_gamma_t_adds_no_leaf_cache_miss(self):
        # composition lists and deltas depend on (N, m, lambda_tilde) alone, so a
        # second object that differs only in gamma_t rebuilds its tables from
        # the process-wide caches of compositions and multinomial_delta
        _evaluate_all(make_params(gamma_t_db=10.0, n_tags=6, m=3))
        before = compositions.cache_info(), multinomial_delta.cache_info()
        _evaluate_all(make_params(gamma_t_db=40.0, n_tags=6, m=3))
        after = compositions.cache_info(), multinomial_delta.cache_info()
        for old, new in zip(before, after):
            assert new.misses == old.misses
            assert new.hits > old.hits

    @pytest.mark.parametrize("derive", [
        lambda p: replace(p, gamma_t=DB(60.0), p_tx=p.noise_power * DB(60.0)),
        lambda p: p.with_transmit_snr(DB(60.0)),
        lambda p: apply_axis(p, "gamma_t_db", 60.0),
    ], ids=["replace", "with_transmit_snr", "apply_axis"])
    def test_derived_params_start_cold(self, derive):
        low = make_params(gamma_t_db=0.0, n_tags=4, m=2)
        at_low = _evaluate_all(low)
        high = derive(low)
        reports = _evaluate_all(high)
        assert analytic._derived(high) is not analytic._derived(low)
        cold = _evaluate_all(replace(high))
        for key in ORDER:
            assert repr(reports[key].raw_value) == repr(cold[key].raw_value), key
            assert dict(reports[key].term_breakdown) == dict(cold[key].term_breakdown), key
        assert (reports["sop_exact", ProtocolKind.SOTS].raw_value
                != at_low["sop_exact", ProtocolKind.SOTS].raw_value)

    def test_stash_is_not_part_of_the_value(self):
        params = make_params()
        twin = replace(params)
        text, field_names = repr(params), [f.name for f in fields(params)]
        _evaluate_all(params)
        assert params == twin and hash(params) == hash(twin)
        assert repr(params) == text == repr(twin)
        assert [f.name for f in fields(params)] == field_names
        assert "_derived" not in repr(params) and "_derived" not in field_names

    def test_threads_racing_on_one_object_get_the_cold_values(self):
        # at (8, 4) the threads race on Bessel order tables past order 2
        for n, m in ((4, 3), (8, 4)):
            params = make_params(n_tags=n, m=m)
            cold = {key: repr(getattr(analytic, key[0])(key[1], replace(params)).raw_value)
                    for key in ORDER}
            results = []

            def evaluate(order):
                results.append({key: repr(getattr(analytic, key[0])(key[1], params).raw_value)
                                for key in order})

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=evaluate, args=(ORDER[i:] + ORDER[:i],))
                           for i in range(0, 16, 2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert results == [cold] * len(threads)
        store = analytic._derived(params)._memo
        assert max(len(v) for k, v in store.items() if k[0] == "bessel") > 3
