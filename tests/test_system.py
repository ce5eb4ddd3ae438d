"""Scenario parameters: validation, link families, link-budget constants,
and the SNRs the Monte Carlo kernel forms from them."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from backsec.analytic import _derived
from backsec.channel import NakagamiLink
from backsec.ehmodel import optimal_reflection
from backsec.errors import ValidationError
from backsec.montecarlo import McConfig, _kernel_args
from backsec.system import SystemParams

from conftest import EH_DEFAULT, make_params


def kernel_snrs(params, g_s, g_d, g_e, k=0):
    """(gamma_d, gamma_e) of tag k as the kernel forms them from its
    arguments: w1 g_x e_xg with the powered weight w1 = max(g_s - thr, 0)."""
    _, (thr, e1g, e2g, *_) = _kernel_args(params)
    w1 = max(g_s - thr[k], 0.0)
    return w1 * g_d * e1g[k], w1 * g_e * e2g[k]


class TestSystemParams:
    def test_tau(self):
        assert make_params(rate=1.0).tau == pytest.approx(2.0)
        assert make_params(rate=0.0).tau == 1.0

    def test_noise_power_fixed_under_snr_rescale(self):
        p = make_params(gamma_t_db=30.0)
        q = p.with_transmit_snr(1e6)
        assert q.noise_power == pytest.approx(p.noise_power, rel=1e-12)
        assert q.p_tx == pytest.approx(p.noise_power * 1e6, rel=1e-12)

    def test_eta_definitions(self):
        p = make_params()
        ls, ld, le = p.links_of("s")[0], p.links_of("d")[0], p.links_of("e")[0]
        d = _derived(p)
        assert d.eta1 == pytest.approx(p.zeta * ls.path_gain * ld.path_gain / p.gamma_p)
        assert d.eta2 == pytest.approx(p.zeta * ls.path_gain * le.path_gain / p.gamma_p)

    def test_gain_threshold(self):
        p = make_params()
        a = _derived(p).a
        assert a == pytest.approx(p.eh.phi / (p.p_tx * p.links_of("s")[0].path_gain))

    def test_per_tag_links_accepted_but_checked(self):
        p = make_params()
        link = p.links_of("d")[0]
        per_tag = (link,) * p.n_tags
        q = SystemParams(p_tx=p.p_tx, gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta,
                         n_tags=p.n_tags, rate_threshold=p.rate_threshold,
                         link_s=p.link_s, link_d=per_tag, link_e=p.link_e, eh=p.eh)
        q.require_homogeneous()
        with pytest.raises(ValidationError):
            SystemParams(p_tx=p.p_tx, gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta,
                         n_tags=p.n_tags, rate_threshold=p.rate_threshold,
                         link_s=p.link_s, link_d=(link,), link_e=p.link_e, eh=p.eh)

    def test_heterogeneous_tuple_fails_homogeneity(self):
        p = make_params(n_tags=2)
        link = p.links_of("e")[0]
        other = NakagamiLink(link.m, link.omega, link.distance * 2, link.pathloss_exp)
        fields = dict(p_tx=p.p_tx, gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta,
                      n_tags=2, rate_threshold=p.rate_threshold, link_s=p.link_s,
                      link_d=p.link_d, eh=p.eh)
        same = SystemParams(link_e=(link, NakagamiLink(link.m, link.omega, link.distance,
                                                       link.pathloss_exp)), **fields)
        same.require_homogeneous()
        assert _derived(same).eta2 == _derived(p).eta2
        het = SystemParams(link_e=(link, other), **fields)
        with pytest.raises(ValidationError, match="link_e"):
            het.require_homogeneous()
        with pytest.raises(ValidationError):
            _derived(het)

    @pytest.mark.parametrize("d_s", [1e10, 1e50], ids=["overflows", "received-underflows"])
    def test_infinite_activation_threshold_rejected(self, d_s):
        # at p_tx = 1e-300, tag 0 (d_s = 1) has a finite threshold; tag 1's
        # phi/(p_tx d_s^-2) overflows, or p_tx d_s^-2 underflows to 0
        p = make_params()
        near = p.links_of("s")[0]
        far = NakagamiLink(near.m, near.omega, d_s, near.pathloss_exp)
        fields = dict(gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta, n_tags=2,
                      rate_threshold=0.5, link_d=p.link_d, link_e=p.link_e, eh=p.eh)
        assert _derived(SystemParams(p_tx=1e-300, link_s=near, **fields)).a < math.inf
        with pytest.raises(ValidationError, match="activation threshold.*tag 1"):
            SystemParams(p_tx=1e-300, link_s=(near, far), **fields)

    def test_invalid_params_rejected(self):
        p = make_params()
        with pytest.raises(ValidationError):
            SystemParams(p_tx=0.0, gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta,
                         n_tags=3, rate_threshold=0.5, link_s=p.link_s, link_d=p.link_d,
                         link_e=p.link_e, eh=p.eh)
        for rate in (-0.5, math.nan, 1024.0):  # 2^1024 is past the float range
            with pytest.raises(ValidationError):
                SystemParams(p_tx=1.0, gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta,
                             n_tags=3, rate_threshold=rate, link_s=p.link_s, link_d=p.link_d,
                             link_e=p.link_e, eh=p.eh)

    @pytest.mark.parametrize("field", ["link_s", "eh"])
    def test_wrong_part_type_rejected(self, field):
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            replace(make_params(), **{field: "not a part"})


class TestSnr:
    def test_zero_when_unpowered(self):
        p = make_params()
        g_s = 1e-9
        assert optimal_reflection(p.eh, p.p_tx, p.links_of("s")[0], g_s) == 0.0
        assert kernel_snrs(p, g_s, 1.0, 1.0) == (0.0, 0.0)

    def test_identity_case(self):
        # unit distances, coefficients and destination gain: the SNR collapses
        # to beta* g_s
        link = NakagamiLink.from_lambda_tilde(1, 1.0, 1.0, 2.0)
        p = SystemParams(p_tx=1.0, gamma_t=1.0, gamma_p=1.0, zeta=1.0, n_tags=1,
                         rate_threshold=0.5, link_s=link, link_d=link, link_e=link,
                         eh=EH_DEFAULT)
        beta = optimal_reflection(p.eh, p.p_tx, link, 1.0)
        assert beta > 0.0
        assert kernel_snrs(p, 1.0, 1.0, 1.0)[0] == pytest.approx(beta, rel=1e-12)

    def test_independent_recomputation(self):
        # spreadsheet-style recomputation from raw fields
        p = make_params(gamma_t_db=20.0)
        g_s, g_d, g_e = 0.9, 1.4, 0.6
        ls, ld = p.links_of("s")[0], p.links_of("d")[0]
        beta = optimal_reflection(p.eh, p.p_tx, ls, g_s)
        assert beta > 0.0
        expected = (p.zeta * beta
                    * ls.distance ** -2 * ld.distance ** -2
                    * g_s * g_d * p.gamma_t / p.gamma_p)
        assert kernel_snrs(p, g_s, g_d, g_e)[0] == pytest.approx(expected, rel=1e-12)


class TestSecrecyCapacity:
    def test_tau_reformulation(self):
        # C < R  <=>  (1+gd)/(1+ge) < tau = 2^R for R > 0, with
        # C = max(log2(1+gd) - log2(1+ge), 0)
        rate = 0.7
        tau = make_params(rate=rate).tau
        for gd, ge in [(0.5, 0.1), (3.0, 1.0), (10.0, 9.0), (0.0, 0.0), (5.0, 0.2)]:
            capacity = max(math.log2(1 + gd) - math.log2(1 + ge), 0.0)
            assert (capacity < rate) == ((1 + gd) / (1 + ge) < tau)


class TestDrawRealizations:
    def test_beta_consistency(self):
        # on drawn source gains the kernel's powered weight is beta* g_s,
        # with beta* the harvester's optimal reflection
        p = make_params(gamma_t_db=0.0)  # a threshold inside the gain's bulk
        ls = p.links_of("s")[0]
        thr = _kernel_args(p)[1][0][0]  # point = (thr, ...), tag 0
        rng = np.random.default_rng(8)
        draws = rng.gamma(ls.m, 1.0 / ls.lambda_tilde, size=200)
        assert (draws < thr).any() and (draws > thr).any()
        for g_s in draws:
            beta = optimal_reflection(p.eh, p.p_tx, ls, g_s)
            assert max(g_s - thr, 0.0) == pytest.approx(beta * g_s, rel=1e-12)


# field -> (build an object with that field set to the value, the out-of-range
# values it must reject).  Every value above sys.maxsize fails before anything
# is sized by it; N or m between 1e6 and 1e12 could allocate gigabytes first.
INTEGER_FIELDS = {
    "trials": (lambda v: McConfig(trials=v), (0,)),
    "seed": (lambda v: McConfig(trials=1000, seed=v), (-1, 2 ** 64)),
    "batch_size": (lambda v: McConfig(trials=1000, batch_size=v), (0,)),
    "workers": (lambda v: McConfig(trials=1000, workers=v), (0,)),
    "n_tags": (lambda v: replace(make_params(), n_tags=v), (0, 1e300, sys.maxsize + 1)),
    "m": (lambda v: replace(make_params().link_s, m=v), (0, 1e300, sys.maxsize + 1)),
}
NOT_INTEGERS = (True, 1.5, math.nan, math.inf, "3")


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_rule(field):
    build, out_of_range = INTEGER_FIELDS[field]
    for value in NOT_INTEGERS + out_of_range:
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            build(value)
    built = build(3.0)
    assert type(getattr(built, field)) is int and getattr(built, field) == 3


# field -> (build an object from the value, a valid int, the out-of-range
# values it must reject).  The harvester builds move p_max or xi1 where the
# stock constants leave no valid int.
REAL_FIELDS = {
    **{name: (lambda v, name=name: replace(make_params(), **{name: v}), 3, (0, -1.0))
       for name in ("p_tx", "gamma_t", "gamma_p", "zeta")},
    "rate_threshold": (lambda v: replace(make_params(), rate_threshold=v), 3,
                       (-0.5, 1024, 1e300)),
    "with_transmit_snr.gamma_t": (lambda v: make_params().with_transmit_snr(v), 3, (0, -1.0)),
    **{name: (lambda v, name=name: replace(make_params().link_s, **{name: v}), 3, (0, -2.0))
       for name in ("omega", "distance", "pathloss_exp")},
    "lambda_tilde": (lambda v: NakagamiLink.from_lambda_tilde(2, v, 1.0, 2.0), 3, (0, -1.0)),
    "p_max": (lambda v: replace(EH_DEFAULT, p_max=v), 3, (0, -1e-6)),
    "xi0": (lambda v: replace(EH_DEFAULT, xi0=v), 0, (-5e-6,)),
    "xi1": (lambda v: replace(EH_DEFAULT, xi1=v), 3, (0, -1.0)),
    "xi2": (lambda v: replace(EH_DEFAULT, xi1=1.0, xi2=v), 3, (0, -1.0)),
    "p_c": (lambda v: replace(EH_DEFAULT, p_max=10.0, p_c=v), 3, (0, -1e-6)),
}
NOT_REALS = (True, False, "3", None, 1j, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("key", REAL_FIELDS)
def test_real_rule(key):
    build, valid, out_of_range = REAL_FIELDS[key]
    field = key.rpartition(".")[2]
    for value in NOT_REALS + out_of_range:
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            build(value)
    stored = getattr(build(valid), field)
    assert type(stored) is float and stored == valid
