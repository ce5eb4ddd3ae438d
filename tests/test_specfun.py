"""Special-function and combinatorial machinery checks.

Frozen reference values were computed beforehand with independent oracles:
mpmath quadrature of the defining integrals at 30 significant digits, and
exact rational arithmetic for the multinomial coefficients.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from backsec.specfun import (
    bessel_k,
    compositions,
    multinomial_delta,
    reg_lower_inc_gamma,
    reg_upper_inc_gamma,
)


@pytest.mark.parametrize("call", [
    lambda: reg_lower_inc_gamma(2.0, math.nan),
    lambda: reg_upper_inc_gamma(2.0, math.nan),
    lambda: reg_lower_inc_gamma(math.nan, 1.0),
    lambda: reg_upper_inc_gamma(math.nan, 1.0),
    lambda: reg_upper_inc_gamma(3.7, math.nan),
    lambda: bessel_k(1, math.nan),
    lambda: multinomial_delta(2, (0, 1, 1), 2, math.nan),
], ids=["lower-x", "upper-x", "lower-m", "upper-m", "upper-x-fractional-m", "bessel-x",
        "delta-lambda"])
def test_nan_argument_rejected(call):
    # a NaN fails every comparison, so each domain check must be written to
    # fail on it rather than to pass it on to a series that cannot converge
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: reg_lower_inc_gamma(2.0, math.inf),
    lambda: reg_upper_inc_gamma(2.0, math.inf),
    lambda: bessel_k(0, math.inf),
], ids=["lower-x", "upper-x", "bessel-x"])
def test_infinite_argument_is_an_overflow(call):
    # an infinite argument is an intermediate that overflowed: name it so,
    # rather than run a continued fraction that cannot converge
    with pytest.raises(OverflowError):
        call()


class TestRegLowerIncGamma:
    def test_at_zero(self):
        assert reg_lower_inc_gamma(3.0, 0.0) == 0.0

    def test_exponential_cdf_reduction(self):
        for t in [0.1, 1.0, 4.0]:
            assert reg_lower_inc_gamma(1.0, t) == pytest.approx(-math.expm1(-t), abs=1e-14)

    def test_frozen_quadrature_value(self):
        # quadrature of t exp(-t) on [0, 2], normalized by Gamma(2)
        assert reg_lower_inc_gamma(2.0, 2.0) == pytest.approx(
            0.593994150290161924318, abs=1e-13)

    def test_against_quadrature_grid(self):
        for m in [0.5, 1.0, 2.0, 3.5, 6.0]:
            norm = math.gamma(m)
            for x in [0.2, 1.0, 3.0, 8.0]:
                ref, _ = integrate.quad(
                    lambda t: t ** (m - 1) * math.exp(-t), 0.0, x,
                    epsabs=1e-14, epsrel=1e-13)
                assert reg_lower_inc_gamma(m, x) == pytest.approx(ref / norm, abs=1e-12)

    def test_monotone_and_bounded(self):
        prev = 0.0
        for x in [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0]:
            v = reg_lower_inc_gamma(2.5, x)
            assert 0.0 <= v <= 1.0
            assert v >= prev
            prev = v
        assert prev > 1.0 - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(2.0, -0.5)


class TestUpperIncGamma:
    """The upper incomplete gamma Gamma(m, x), read through its regularized
    form Q(m, x) = Gamma(m, x) / Gamma(m)."""

    def test_at_zero_is_gamma(self):
        assert reg_upper_inc_gamma(3.7, 0.0) == pytest.approx(
            math.gamma(3.7) / math.gamma(3.7), rel=1e-14)

    def test_exponential_tail(self):
        for x in [0.3, 2.0, 9.0]:
            assert reg_upper_inc_gamma(1.0, x) == pytest.approx(
                math.exp(-x) / math.gamma(1.0), rel=1e-13)

    def test_frozen_quadrature_value(self):
        # quadrature of t exp(-t) on [1.5, inf)
        assert reg_upper_inc_gamma(2.0, 1.5) == pytest.approx(
            0.5578254003710745723332 / math.gamma(2.0), rel=1e-13)

    def test_complement_identity(self):
        # abs floor covers the tail, where 1 - P itself cancels in float64
        for m in [0.8, 2.0, 5.0]:
            for x in [0.1, 1.0, 4.0, 12.0]:
                lhs = reg_upper_inc_gamma(m, x)
                rhs = 1.0 - reg_lower_inc_gamma(m, x)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_regularized_complement_no_cancellation(self):
        q = reg_upper_inc_gamma(2.0, 60.0)
        assert 0.0 < q < 1e-20


class TestBesselK:
    def test_negative_order_symmetry(self):
        for x in [0.2, 1.7, 9.0]:
            assert bessel_k(-3, x) == bessel_k(3, x)
            assert bessel_k(-1, x) == bessel_k(1, x)

    def test_frozen_quadrature_values(self):
        # quadrature of exp(-x cosh t) [cosh(nu t)] dt on [0, inf)
        assert bessel_k(0, 1.0) == pytest.approx(0.4210244382407083333356, rel=1e-12)
        assert bessel_k(1, 2.5) == pytest.approx(0.07389081634774706364899, rel=1e-12)

    def test_against_quadrature_grid(self):
        # contract: rel err <= 1e-10 for x in [1e-3, 50], |order| <= 12
        for n in [0, 1, 2, 5, 9, 12]:
            for x in [1e-3, 0.05, 0.7, 2.0, 3.0, 10.0, 50.0]:
                upper = math.acosh(max(750.0 / x, 2.0)) + 1.0
                ref, _ = integrate.quad(
                    lambda t: math.exp(-x * math.cosh(t)) * math.cosh(n * t),
                    0.0, upper, epsabs=1e-300, epsrel=1e-13, limit=400)
                assert bessel_k(n, x) == pytest.approx(ref, rel=1e-10)

    def test_recurrence(self):
        for n in range(1, 12):
            for x in [0.01, 0.4, 2.0, 7.0, 30.0]:
                lhs = bessel_k(n + 1, x)
                rhs = bessel_k(n - 1, x) + (2.0 * n / x) * bessel_k(n, x)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(1, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1, -2.0)
        with pytest.raises(ValueError):
            bessel_k(1.5, 2.0)


class TestCompositions:
    def test_two_parts(self):
        assert compositions(1, 2) == ((0, 1), (1, 0))

    def test_zero_total(self):
        for parts in [1, 3, 5]:
            got = compositions(0, parts)
            assert len(got) == 1
            assert got[0] == (0,) * parts

    def test_count_3_3(self):
        got = compositions(3, 3)
        assert len(got) == 10  # C(5, 2), cross-checked by enumeration
        assert len(set(got)) == 10
        assert all(sum(c) == 3 for c in got)

    def test_lexicographic_and_deterministic(self):
        got = compositions(4, 3)
        assert list(got) == sorted(got)
        assert got == compositions(4, 3)

    @given(st.integers(0, 7), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_count_formula(self, total, parts):
        got = compositions(total, parts)
        assert len(got) == math.comb(total + parts - 1, parts - 1)

    def test_invalid_composition(self):
        with pytest.raises(ValueError):
            compositions(-1, 2)
        with pytest.raises(ValueError):
            compositions(3, 0)

    @pytest.mark.parametrize("total, parts", [(0, 1), (0, 4), (3, 1), (4, 3), (6, 4), (12, 5)])
    def test_generated_equal_public_compositions(self, total, parts):
        # compositions() builds its tuples level by level; they must equal
        # the brute-force enumeration of its definition, as plain int tuples
        got = compositions(total, parts)
        brute = sorted(p for p in itertools.product(range(total + 1), repeat=parts)
                       if sum(p) == total)
        assert list(got) == brute
        assert all(type(c) is tuple and all(type(p) is int for p in c) for c in got)


def _delta_exact(n_power, parts, m, lam):
    th1 = sum(parts[1:])
    th2 = sum((i - 1) * parts[i] for i in range(2, m + 1))
    den = Fraction(1)
    for ni in parts:
        den *= math.factorial(ni)
    for i in range(1, m + 1):
        den *= Fraction(math.factorial(i - 1)) ** parts[i]
    return Fraction(-1) ** th1 * Fraction(lam) ** th2 * Fraction(math.factorial(n_power)) / den


class TestMultinomialDelta:
    def test_all_mass_first_part(self):
        assert multinomial_delta(4, (4, 0, 0), 2, 1.3) == (1.0, 0, 0)

    def test_binomial_reduction_m1(self):
        n = 5
        for ell in range(n + 1):
            value, theta1, theta2 = multinomial_delta(n, (n - ell, ell), 1, 2.7)
            assert theta1 == ell and theta2 == 0
            assert value == pytest.approx((-1.0) ** ell * math.comb(n, ell), rel=1e-12)

    def test_frozen_exact_rational_value(self):
        # Fraction arithmetic gives exactly 12 for this composition
        value, theta1, theta2 = multinomial_delta(3, (1, 1, 1), 2, 2.0)
        assert value == pytest.approx(12.0, rel=1e-12)
        assert (theta1, theta2) == (2, 1)

    def test_matches_exact_rational_grid(self):
        lam = 1.5
        for n, m in [(2, 2), (3, 3), (4, 2)]:
            for comp in compositions(n, m + 1):
                value, _, _ = multinomial_delta(n, comp, m, lam)
                ref = _delta_exact(n, comp, m, Fraction(3, 2))
                assert value == pytest.approx(float(ref), rel=1e-11)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial_delta(3, (1, 1, 1), 3, 1.0)
        with pytest.raises(ValueError):
            multinomial_delta(4, (1, 1, 1), 2, 1.0)
        with pytest.raises(ValueError):
            multinomial_delta(1, (-1, 2), 1, 1.0)
        for lam in (0.0, -1.5):
            with pytest.raises(ValueError):
                multinomial_delta(3, (1, 1, 1), 2, lam)

    @pytest.mark.parametrize("n,m", [(0, 1), (1, 3), (5, 2), (9, 4), (40, 2), (300, 1)])
    @pytest.mark.parametrize("lam", [0.37, 2.9])
    def test_equals_docstring_formula_bit_for_bit(self, n, m, lam):
        # (300, 1) needs lgamma beyond the small-integer table
        for comp in compositions(n, m + 1):
            d = multinomial_delta(n, comp, m, lam)
            ref = _delta_transcribed(n, comp, m, lam)
            assert type(d) is tuple and d == ref
            assert repr(d[0]) == repr(ref[0])  # the sign of a zero too


def _delta_transcribed(n_power, parts, m, lam):
    """The docstring formula in floating point, one lgamma step per factor."""
    theta1 = sum(parts[1:])
    theta2 = sum((i - 1) * parts[i] for i in range(2, m + 1))
    log_mag = theta2 * math.log(lam) + math.lgamma(n_power + 1)
    for ni in parts:
        log_mag -= math.lgamma(ni + 1)
    for i in range(1, m + 1):
        log_mag -= parts[i] * math.lgamma(i)
    sign = -1.0 if theta1 % 2 else 1.0
    return sign * math.exp(log_mag), theta1, theta2


class TestExpansionIdentities:
    """Module-level invariants tying the pieces together."""

    def test_finite_sum_cdf_matches_reg_gamma(self):
        for m in range(1, 7):
            for x in [0.05, 0.3, 1.0, 2.5, 6.0, 15.0]:
                term, total = 1.0, 1.0
                for j in range(1, m):
                    term *= x / j
                    total += term
                finite = 1.0 - math.exp(-x) * total
                assert finite == pytest.approx(reg_lower_inc_gamma(m, x), abs=1e-10)

    def test_multinomial_expansion_equals_cdf_power(self):
        for n in range(1, 6):
            for m in range(1, 5):
                lam = 1.8
                for t in [0.2, 0.9, 2.4]:
                    f = reg_lower_inc_gamma(m, lam * t)
                    terms = []
                    for comp in compositions(n, m + 1):
                        value, theta1, theta2 = multinomial_delta(n, comp, m, lam)
                        terms.append(value * t ** theta2 * math.exp(-lam * theta1 * t))
                    assert math.fsum(terms) == pytest.approx(f ** n, abs=1e-9)

    def test_bessel_integral_identity(self):
        # int_0^inf v^(a-1) exp(-p v - q/v) dv == 2 (q/p)^(a/2) K_a(2 sqrt(pq))
        for a in range(-3, 5):
            for p in [0.5, 2.0, 10.0]:
                for q in [0.5, 2.0, 10.0]:
                    closed = 2.0 * (q / p) ** (a / 2.0) * bessel_k(a, 2.0 * math.sqrt(p * q))
                    ref, _ = integrate.quad(
                        lambda v: v ** (a - 1) * math.exp(-p * v - q / v),
                        0.0, 200.0, epsabs=1e-13, epsrel=1e-12, limit=400)
                    assert closed == pytest.approx(ref, rel=1e-8)



class TestLeafCaches:
    """compositions and multinomial_delta keep bounded process-wide caches;
    a cached entry must never change what a call returns or raises."""

    @pytest.mark.parametrize("call", [
        lambda: multinomial_delta(4, (1, 1, 1), 2, 1.0),
        lambda: multinomial_delta(3, (1, 1, 1), 3, 1.0),
        lambda: multinomial_delta(3, (1, 1, 1), 2, -1.5),
        # math.nan is one object, so both calls make the identical key
        lambda: multinomial_delta(2, (0, 1, 1), 2, math.nan),
        lambda: compositions(-1, 2),
        lambda: compositions(3, 0),
    ], ids=["delta-sum", "delta-length", "delta-lambda", "delta-nan", "comp-total",
            "comp-parts"])
    def test_bad_call_raises_every_time(self, call):
        sizes = compositions.cache_info().currsize, multinomial_delta.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                call()
        assert (compositions.cache_info().currsize,
                multinomial_delta.cache_info().currsize) == sizes

    def test_float_integer_argument_still_rejected_after_int_is_cached(self):
        assert multinomial_delta(2, (0, 1, 1), 2, 1.0)[1:] == (2, 1)
        with pytest.raises(TypeError):
            multinomial_delta(2.0, (0, 1, 1), 2, 1.0)
        assert compositions(2, 3)
        with pytest.raises(TypeError):
            compositions(2.0, 3)

    def test_list_parts_give_the_tuple_result(self):
        expected = multinomial_delta(3, (1, 1, 1), 2, 2.0)
        got = multinomial_delta(3, [1, 1, 1], 2, 2.0)
        assert type(got) is tuple and got == expected
        assert repr(got[0]) == repr(expected[0])

    @pytest.mark.parametrize("fn", [compositions, multinomial_delta],
                             ids=["compositions", "multinomial_delta"])
    def test_cache_is_bounded(self, fn):
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < math.inf
