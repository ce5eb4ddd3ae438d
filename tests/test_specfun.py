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
    CompensatedSum,
    Composition,
    bessel_k,
    compositions,
    ln_gamma,
    multinomial_delta,
    reg_lower_inc_gamma,
    reg_upper_inc_gamma,
    upper_inc_gamma,
)


class TestLnGamma:
    def test_gamma_one_is_zero(self):
        assert ln_gamma(1.0) == 0.0

    def test_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_frozen_oracle_value(self):
        # mpmath.loggamma(10.3) at 30 digits
        assert ln_gamma(10.3) == pytest.approx(13.48203678613835697062, rel=1e-13)

    def test_exp_matches_gamma_to_contract(self):
        for x in [0.5, 1.5, 3.0, 10.3, 50.0, 170.0]:
            assert math.exp(ln_gamma(x)) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-3.0)


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
    def test_at_zero_is_gamma(self):
        assert upper_inc_gamma(3.7, 0.0) == pytest.approx(math.gamma(3.7), rel=1e-14)

    def test_exponential_tail(self):
        for x in [0.3, 2.0, 9.0]:
            assert upper_inc_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_frozen_quadrature_value(self):
        # quadrature of t exp(-t) on [1.5, inf)
        assert upper_inc_gamma(2.0, 1.5) == pytest.approx(
            0.5578254003710745723332, rel=1e-13)

    def test_complement_identity(self):
        # abs floor covers the tail, where 1 - P itself cancels in float64
        for m in [0.8, 2.0, 5.0]:
            for x in [0.1, 1.0, 4.0, 12.0]:
                lhs = upper_inc_gamma(m, x)
                rhs = math.gamma(m) * (1.0 - reg_lower_inc_gamma(m, x))
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15 * math.gamma(m))

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
        got = [c.parts for c in compositions(1, 2)]
        assert got == [(0, 1), (1, 0)]

    def test_zero_total(self):
        for parts in [1, 3, 5]:
            got = compositions(0, parts)
            assert len(got) == 1
            assert got[0].parts == (0,) * parts

    def test_count_3_3(self):
        got = compositions(3, 3)
        assert len(got) == 10  # C(5, 2), cross-checked by enumeration
        assert len({c.parts for c in got}) == 10
        assert all(c.total == 3 for c in got)

    def test_lexicographic_and_deterministic(self):
        got = [c.parts for c in compositions(4, 3)]
        assert got == sorted(got)
        assert got == [c.parts for c in compositions(4, 3)]

    @given(st.integers(0, 7), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_count_formula(self, total, parts):
        got = compositions(total, parts)
        assert len(got) == math.comb(total + parts - 1, parts - 1)

    def test_invalid_composition(self):
        with pytest.raises(ValueError):
            Composition((1, 2), 4)
        with pytest.raises(ValueError):
            Composition((-1, 2), 1)

    @pytest.mark.parametrize("total, parts", [(0, 1), (0, 4), (3, 1), (4, 3), (6, 4), (12, 5)])
    def test_generated_equal_public_compositions(self, total, parts):
        # compositions() builds its values without re-running the checks of
        # Composition(...); each must still equal the checked public value
        got = compositions(total, parts)
        brute = sorted(p for p in itertools.product(range(total + 1), repeat=parts)
                       if sum(p) == total)
        assert [c.parts for c in got] == brute
        for c in got:
            public = Composition.of(c.parts)
            assert type(c) is Composition
            assert c == public and hash(c) == hash(public)
            assert c.total == total
        with pytest.raises(ValueError):
            Composition((1, 2), 4)


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
        d = multinomial_delta(4, Composition.of((4, 0, 0)), 2, 1.3)
        assert (d.value, d.theta1, d.theta2) == (1.0, 0, 0)

    def test_binomial_reduction_m1(self):
        n = 5
        for ell in range(n + 1):
            d = multinomial_delta(n, Composition.of((n - ell, ell)), 1, 2.7)
            assert d.theta1 == ell and d.theta2 == 0
            assert d.value == pytest.approx((-1.0) ** ell * math.comb(n, ell), rel=1e-12)

    def test_frozen_exact_rational_value(self):
        # Fraction arithmetic gives exactly 12 for this composition
        d = multinomial_delta(3, Composition.of((1, 1, 1)), 2, 2.0)
        assert d.value == pytest.approx(12.0, rel=1e-12)
        assert (d.theta1, d.theta2) == (2, 1)

    def test_matches_exact_rational_grid(self):
        lam = 1.5
        for n, m in [(2, 2), (3, 3), (4, 2)]:
            for comp in compositions(n, m + 1):
                d = multinomial_delta(n, comp, m, lam)
                ref = _delta_exact(n, comp.parts, m, Fraction(3, 2))
                assert d.value == pytest.approx(float(ref), rel=1e-11)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial_delta(3, Composition.of((1, 1, 1)), 3, 1.0)
        with pytest.raises(ValueError):
            multinomial_delta(4, Composition.of((1, 1, 1)), 2, 1.0)
        for lam in (0.0, -1.5):
            with pytest.raises(ValueError):
                multinomial_delta(3, Composition.of((1, 1, 1)), 2, lam)

    @pytest.mark.parametrize("n,m", [(0, 1), (1, 3), (5, 2), (9, 4), (40, 2), (300, 1)])
    @pytest.mark.parametrize("lam", [0.37, 2.9])
    def test_equals_docstring_formula_bit_for_bit(self, n, m, lam):
        # (300, 1) needs lgamma beyond the small-integer table
        for comp in compositions(n, m + 1):
            d = multinomial_delta(n, comp, m, lam)
            ref = _delta_transcribed(n, comp.parts, m, lam)
            assert (d.value, d.theta1, d.theta2) == ref
            assert repr(d.value) == repr(ref[0])  # the sign of a zero too


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
                    acc = CompensatedSum()
                    for comp in compositions(n, m + 1):
                        d = multinomial_delta(n, comp, m, lam)
                        acc.add(d.value * t ** d.theta2 * math.exp(-lam * d.theta1 * t))
                    assert acc.value == pytest.approx(f ** n, abs=1e-9)

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


class TestCompensatedSum:
    def test_recovers_cancelled_tail(self):
        acc = CompensatedSum()
        acc.add(1.0)
        for _ in range(1000):
            acc.add(1e-17)
        acc.add(-1.0)
        assert acc.value == pytest.approx(1e-14, rel=1e-10)
        assert acc.condition > 1e13


def _neumaier_state(terms):
    """(value, abs_sum) of the Neumaier recurrence, one plain step per term."""
    s = c = abs_sum = 0.0
    for term in terms:
        abs_sum += abs(term)
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
    return s + c, abs_sum


class TestAddAll:
    """`add_all` is `add` term by term, bit for bit."""

    CASES = {
        "empty": [],
        "negative zero first": [-0.0, 0.0, -0.0, 1e-300, -1e-300],
        "subnormals": [5e-324, -2.5e-320, 1e-310, 4.9e-322, -1e-310, 2.2250738585072e-308],
        "1e16 cancellation": [1e16, 1.0, -1e16, 3.0, 1e16, -0.5, -1e16, 1e-3],
        "mixed": [math.pi * (-1.7) ** k * 10.0 ** (k % 7 - 3) for k in range(60)],
    }

    @staticmethod
    def _state(acc):
        return repr(acc.value), repr(acc.abs_sum), repr(acc.condition)

    @pytest.mark.parametrize("name", CASES)
    def test_equals_one_add_per_term(self, name):
        terms = self.CASES[name]
        one_by_one = CompensatedSum()
        for term in terms:
            one_by_one.add(term)
        batch, from_iterator = CompensatedSum(), CompensatedSum()
        batch.add_all(terms)
        from_iterator.add_all(iter(terms))
        assert self._state(batch) == self._state(one_by_one) == self._state(from_iterator)
        value, abs_sum = _neumaier_state(terms)
        assert (repr(batch.value), repr(batch.abs_sum)) == (repr(value), repr(abs_sum))

    @pytest.mark.parametrize("name", CASES)
    def test_batch_after_earlier_adds(self, name):
        head = [1e16, -3.5, 2.0 ** -60]
        terms = self.CASES[name]
        one_by_one, batched = CompensatedSum(), CompensatedSum()
        for term in head + terms:
            one_by_one.add(term)
        for term in head:
            batched.add(term)
        batched.add_all(terms)
        assert self._state(batched) == self._state(one_by_one)
        value, abs_sum = _neumaier_state(head + terms)
        assert (repr(batched.value), repr(batched.abs_sum)) == (repr(value), repr(abs_sum))
