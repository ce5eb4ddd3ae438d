"""Link model checks: the Nakagami-m parametrization and its validation, and
the link-gain distributions as the closed forms expand them.

The closed forms never evaluate a gain CDF or PDF directly: they sum the
multinomial expansion of F^n (`_Derived.expansion`, n = 1 being the CDF of
one link) and the rows of the weakest-of-n density (`_w3_min_rows`).  These
tests sum those same tables and compare them against the distributions they
stand for.  Frozen reference values come from mpmath quadrature of the
defining integrals at 30 significant digits.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from backsec import analytic
from backsec.channel import NakagamiLink
from backsec.errors import ValidationError
from backsec.specfun import CompensatedSum, reg_lower_inc_gamma

from conftest import make_params


def cdf_power(n, m, lam, t):
    """F(t)^n for a gain of shape m and rate lam, summed from the expansion
    table the closed forms read."""
    acc = CompensatedSum()
    acc.add_all(value * t ** t2 * math.exp(-lam * t1 * t)
                for _, (value, t1, t2) in analytic._Derived(make_params()).expansion(n, m, lam))
    return acc.value


def gamma_pdf(m, lam, t):
    return math.exp(m * math.log(lam) + (m - 1) * math.log(t) - lam * t - math.lgamma(m))


def _weakest_of(n, m, lam):
    """The _Derived of a scenario whose n eavesdropper links have shape m and
    rate lam; its `_w3_min_rows` expand the weakest-of-n distribution."""
    d = analytic._Derived(make_params(n_tags=n, m_e=m, lam_e_db=10.0 * math.log10(lam)))
    assert d.lam_e == pytest.approx(lam, rel=1e-14)
    return d


def _min_cdf_from_rows(d, t):
    # the rows drop the constant term of each F^ell; with delta = 1 those
    # terms sum to sum_ell C(n, ell) (-1)^(ell+1) = 1
    acc = CompensatedSum()
    acc.add(1.0)
    pairs, coefs = analytic._w3_min_rows(d)
    acc.add_all(c * t ** t4 * math.exp(-d.lam_e * t3 * t) for (t3, t4), c in zip(pairs, coefs))
    return acc.value


def _min_pdf_from_rows(d, t):
    acc = CompensatedSum()
    pairs, coefs = analytic._w3_min_rows(d)
    for (t3, t4), c in zip(pairs, coefs):
        deriv = -d.lam_e * t3 * t ** t4
        if t4 > 0:
            deriv += t4 * t ** (t4 - 1)
        acc.add(c * deriv * math.exp(-d.lam_e * t3 * t))
    return acc.value


class TestNakagamiLink:
    def test_lambda_omega_relation(self):
        link = NakagamiLink(m=3, omega=1.5, distance=2.0, pathloss_exp=2.7)
        assert link.lambda_tilde * link.omega == pytest.approx(link.m, rel=1e-15)

    def test_path_gain(self):
        link = NakagamiLink.from_lambda_tilde(1, 1.0, distance=2.0, pathloss_exp=3.0)
        assert link.path_gain == pytest.approx(0.125)

    def test_non_integer_shape_rejected(self):
        with pytest.raises(ValidationError):
            NakagamiLink(m=1.5, omega=1.0, distance=1.0, pathloss_exp=2.0)
        with pytest.raises(ValidationError):
            NakagamiLink(m=0, omega=1.0, distance=1.0, pathloss_exp=2.0)

    def test_bad_scales_rejected(self):
        with pytest.raises(ValidationError):
            NakagamiLink(m=2, omega=-1.0, distance=1.0, pathloss_exp=2.0)
        with pytest.raises(ValidationError):
            NakagamiLink(m=2, omega=1.0, distance=0.0, pathloss_exp=2.0)

    @pytest.mark.parametrize("distance", [1e-300, 1e300])
    def test_path_gain_outside_float_range_rejected(self, distance):
        # d^-2 overflows at 1e-300 and underflows to 0 at 1e300
        with pytest.raises(ValidationError, match="path gain"):
            NakagamiLink(m=2, omega=1.0, distance=distance, pathloss_exp=2.0)


class TestPdf:
    """The weakest-of-1 density is the gain density itself."""

    def test_exponential_reduction(self):
        d = _weakest_of(1, 1, 1.0)
        for t in [0.1, 1.0, 3.3]:
            assert _min_pdf_from_rows(d, t) == pytest.approx(math.exp(-t), rel=1e-14)

    def test_direct_substitution(self):
        # m=2, lam=2, t=1: 2^2 * 1 * exp(-2) / 1!
        d = _weakest_of(1, 2, 2.0)
        assert _min_pdf_from_rows(d, 1.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-14)

    def test_normalization(self):
        d = _weakest_of(1, 3, 1.7)
        total, _ = integrate.quad(lambda t: _min_pdf_from_rows(d, t), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestCdf:
    """The single-link CDF is the n = 1 expansion table."""

    def test_at_zero(self):
        assert cdf_power(1, 3, 2.0, 0.0) == 0.0

    def test_rayleigh_reduction(self):
        for t in [0.2, 1.0, 4.0]:
            assert cdf_power(1, 1, 1.3, t) == pytest.approx(-math.expm1(-1.3 * t), abs=1e-14)

    def test_frozen_quadrature_value(self):
        # quadrature of the m=3, lam=1.5 density on [0, 2]
        assert cdf_power(1, 3, 1.5, 2.0) == pytest.approx(0.5768099188731564846756, abs=1e-13)

    def test_finite_sum_dual_route(self):
        # the expansion is the finite sum; reg_lower_inc_gamma takes the
        # series / continued-fraction route
        for m in range(1, 7):
            for t in [0.0, 0.05, 0.4, 1.5, 6.0, 20.0]:
                assert cdf_power(1, m, 1.9, t) == pytest.approx(
                    reg_lower_inc_gamma(m, 1.9 * t), abs=1e-10)

    def test_monotone_bounded(self):
        grid = np.linspace(0.0, 30.0, 400)
        vals = [cdf_power(1, 4, 0.8, t) for t in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cdf_power(1, 2, -1.0, 0.5)


class TestMaxOrderStat:
    def test_single_tag_reduction(self):
        for t in [0.3, 1.0, 2.8]:
            assert cdf_power(1, 2, 1.4, t) == pytest.approx(
                reg_lower_inc_gamma(2, 1.4 * t), rel=1e-14)

    def test_saturates_to_one(self):
        assert cdf_power(4, 2, 1.0, 200.0) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_oracle_value(self):
        # (P(2, 3))^3 computed with mpmath
        assert cdf_power(3, 2, 3.0, 1.0) == pytest.approx(0.5136370566040703973862, abs=1e-13)

    def test_expansion_agrees_with_power(self):
        for n in [1, 2, 3, 5]:
            for m in [1, 2, 4]:
                for t in [0.1, 0.7, 2.0, 5.0]:
                    assert cdf_power(n, m, 2.1, t) == pytest.approx(
                        reg_lower_inc_gamma(m, 2.1 * t) ** n, abs=1e-9)


class TestMinOrderStat:
    def test_single_tag_reduction(self):
        d = _weakest_of(1, 3, 0.9)
        for t in [0.2, 1.3, 4.0]:
            assert _min_cdf_from_rows(d, t) == pytest.approx(
                reg_lower_inc_gamma(3, d.lam_e * t), rel=1e-12)
            assert _min_pdf_from_rows(d, t) == pytest.approx(
                gamma_pdf(3, d.lam_e, t), rel=1e-12)

    def test_at_zero(self):
        # the deltas come from exp(lgamma), so the t^0 coefficients cancel to
        # rounding rather than exactly
        assert _min_cdf_from_rows(_weakest_of(4, 2, 1.0), 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_frozen_oracle_value(self):
        # 1 - (1 - P(2, 1.5))^4 computed with mpmath
        assert _min_cdf_from_rows(_weakest_of(4, 2, 5.0), 0.3) == pytest.approx(
            0.9031737430989703740998, abs=1e-13)

    def test_expansion_agrees_with_complement_power(self):
        for n in [1, 2, 4]:
            for m in [1, 2, 3]:
                d = _weakest_of(n, m, 1.6)
                for t in [0.05, 0.5, 1.4, 4.0]:
                    f = reg_lower_inc_gamma(m, d.lam_e * t)
                    assert _min_cdf_from_rows(d, t) == pytest.approx(
                        1.0 - (1.0 - f) ** n, abs=1e-9)

    def test_pdf_matches_central_difference(self):
        h = 1e-6
        for n in [2, 4]:
            d = _weakest_of(n, 2, 2.0)
            for t in [0.2, 0.8, 1.9]:
                cdf = [1.0 - (1.0 - reg_lower_inc_gamma(2, d.lam_e * x)) ** n
                       for x in (t + h, t - h)]
                num = (cdf[0] - cdf[1]) / (2 * h)
                assert _min_pdf_from_rows(d, t) == pytest.approx(num, abs=1e-6)
