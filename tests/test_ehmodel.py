"""Harvester model checks.

The activation threshold is pinned by its defining property (harvested
output equals the circuit draw), with a bisection root-finder as the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from backsec.channel import NakagamiLink
from backsec.ehmodel import EhParams, harvested_power, optimal_reflection
from backsec.errors import ValidationError

from conftest import EH_DEFAULT


class TestEhParams:
    def test_circuit_draw_must_be_below_saturation(self):
        with pytest.raises(ValidationError, match="phi2"):
            EhParams(p_max=200e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=200e-6)
        with pytest.raises(ValidationError, match="phi2"):
            EhParams(p_max=200e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=300e-6)

    def test_phi_positive(self):
        assert EH_DEFAULT.phi > 0.0

    def test_phi_outside_float_range_rejected(self):
        # exp(xi1 * xi0) overflows
        with pytest.raises(ValidationError, match="phi"):
            EhParams(p_max=200e-6, xi0=5e-6, xi1=1e300, xi2=2e-4, p_c=100e-6)

    def test_negative_constants_rejected(self):
        with pytest.raises(ValidationError):
            EhParams(p_max=-1e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=1e-7)
        for xi0 in (-5e-6, math.nan):
            with pytest.raises(ValidationError):
                EhParams(p_max=200e-6, xi0=xi0, xi1=5000.0, xi2=2e-4, p_c=100e-6)
        with pytest.raises(ValidationError):
            EhParams(p_max=200e-6, xi0=5e-6, xi1=0.0, xi2=2e-4, p_c=100e-6)


class TestHarvestedPower:
    def test_zero_at_sensitivity_threshold(self):
        assert harvested_power(EH_DEFAULT, EH_DEFAULT.xi0) == 0.0

    def test_clamped_below_threshold(self):
        assert harvested_power(EH_DEFAULT, 0.0) == 0.0
        assert harvested_power(EH_DEFAULT, EH_DEFAULT.xi0 / 2) == 0.0

    def test_saturates_at_p_max(self):
        assert harvested_power(EH_DEFAULT, 1.0) == pytest.approx(EH_DEFAULT.p_max, rel=1e-12)
        for p_in in np.linspace(0.0, 0.01, 200):
            assert harvested_power(EH_DEFAULT, p_in) <= EH_DEFAULT.p_max
        # strictly below saturation while the deficit is representable
        for p_in in np.linspace(0.0, 2.5e-3, 100):
            assert harvested_power(EH_DEFAULT, p_in) < EH_DEFAULT.p_max

    def test_monotone(self):
        grid = np.linspace(0.0, 2e-3, 400)
        vals = [harvested_power(EH_DEFAULT, p) for p in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p_in", [-1e-6, math.nan])
    def test_invalid_input_power_rejected(self, p_in):
        with pytest.raises(ValueError):
            harvested_power(EH_DEFAULT, p_in)

    def test_frozen_oracle_value(self):
        # direct evaluation at 30 digits with mpmath: 1.292805775853544e-05 W
        assert harvested_power(EH_DEFAULT, 50e-6) == pytest.approx(
            1.292805775853544234634e-05, rel=1e-12)


class TestPhiThreshold:
    def test_bisection_root_oracle(self):
        for p_c in [20e-6, 100e-6, 180e-6]:
            eh = EhParams(p_max=200e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=p_c)
            root = optimize.brentq(
                lambda p: harvested_power(eh, p) - eh.p_c, eh.xi0, 1.0, xtol=1e-18, rtol=1e-15)
            assert eh.phi == pytest.approx(root, rel=1e-9)
            assert harvested_power(eh, eh.phi) == pytest.approx(eh.p_c, rel=1e-9)

    def test_vanishing_circuit_draw_limit(self):
        # as p_c -> 0 the threshold approaches the sensitivity threshold xi0
        for p_c in [1e-8, 1e-10, 1e-12]:
            eh = EhParams(p_max=200e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=p_c)
            assert eh.phi > eh.xi0
        eh = EhParams(p_max=200e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=1e-14)
        assert eh.phi == pytest.approx(5e-6, rel=1e-6)

    def test_steepness_rescaling(self):
        # doubling xi1 moves phi exactly per the closed form
        eh1 = EhParams(p_max=200e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=100e-6)
        eh2 = EhParams(p_max=200e-6, xi0=5e-6, xi1=10000.0, xi2=2e-4, p_c=100e-6)
        expected = math.log(eh2.phi1 / eh2.phi2) / eh2.xi1
        assert eh2.phi == pytest.approx(expected, rel=1e-15)
        assert eh2.phi != pytest.approx(eh1.phi, rel=1e-3)


class TestOptimalReflection:
    LINK = NakagamiLink.from_lambda_tilde(2, 1.0, 1.0, 2.0)

    def test_zero_at_boundary(self):
        g_at_phi = EH_DEFAULT.phi / 1.0
        assert optimal_reflection(EH_DEFAULT, 1.0, self.LINK, g_at_phi) == 0.0
        assert optimal_reflection(EH_DEFAULT, 1.0, self.LINK, g_at_phi / 2) == 0.0

    def test_approaches_one(self):
        assert optimal_reflection(EH_DEFAULT, 1.0, self.LINK, 1e9) == pytest.approx(1.0, abs=1e-9)

    def test_half_split_case(self):
        eh = EhParams(p_max=200e-6, xi0=0.0, xi1=5000.0, xi2=2e-4, p_c=100e-6)
        # pick g^2 = 2 phi so 1 - phi / (P g^2) = 0.5 with P = 1 W, d = 1 m
        beta = optimal_reflection(eh, 1.0, self.LINK, 2.0 * eh.phi)
        assert beta == pytest.approx(0.5, rel=1e-12)

    @given(st.floats(1e-6, 1e3), st.floats(1e-8, 1e4))
    @settings(max_examples=80, deadline=None)
    def test_harvest_branch_receives_exactly_phi(self, p_tx, g):
        # whenever beta > 0: (1 - beta) P d^-u g^2 == phi, up to the rounding
        # of 1 - beta itself (absolute error ~eps * received)
        beta = optimal_reflection(EH_DEFAULT, p_tx, self.LINK, g)
        received = p_tx * self.LINK.path_gain * g
        if beta > 0.0:
            assert math.isclose((1.0 - beta) * received, EH_DEFAULT.phi,
                                rel_tol=1e-9, abs_tol=4e-16 * received)
        else:
            assert received <= EH_DEFAULT.phi

    def test_monotone_in_gain(self):
        gains = np.linspace(1e-5, 5e-3, 300)
        betas = [optimal_reflection(EH_DEFAULT, 1.0, self.LINK, g) for g in gains]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
