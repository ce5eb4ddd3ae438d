"""Scenario assembly: SNR wiring, secrecy capacity, tag-selection rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backsec.channel import NakagamiLink
from backsec.errors import ValidationError
from backsec.system import (
    ProtocolKind,
    Receiver,
    SystemParams,
    TagRealization,
    draw_realizations,
    secrecy_capacity,
    select_tag,
    snr_at,
)

from conftest import EH_DEFAULT, make_params


def realization(g_s, g_d, g_e, params):
    link = params.links_of("s")[0]
    from backsec.ehmodel import optimal_reflection
    beta = optimal_reflection(params.eh, params.p_tx, link, g_s)
    return TagRealization(g_s, g_d, g_e, beta)


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
        assert p.eta1 == pytest.approx(p.zeta * ls.path_gain * ld.path_gain / p.gamma_p)
        assert p.eta2 == pytest.approx(p.zeta * ls.path_gain * le.path_gain / p.gamma_p)

    def test_gain_threshold(self):
        p = make_params()
        a = p.gain_threshold
        assert a == pytest.approx(p.eh.phi / (p.p_tx * p.links_of("s")[0].path_gain))

    def test_per_tag_links_accepted_but_checked(self):
        p = make_params()
        link = p.links_of("d")[0]
        per_tag = (link,) * p.n_tags
        q = SystemParams(p_tx=p.p_tx, gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta,
                         n_tags=p.n_tags, rate_threshold=p.rate_threshold,
                         link_s=p.link_s, link_d=per_tag, link_e=p.link_e, eh=p.eh)
        assert q.is_homogeneous
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
        assert same.is_homogeneous
        same.require_homogeneous()
        assert same.eta2 == p.eta2
        het = SystemParams(link_e=(link, other), **fields)
        assert not het.is_homogeneous
        with pytest.raises(ValidationError, match="link_e"):
            het.require_homogeneous()
        with pytest.raises(ValidationError):
            het.eta1

    def test_invalid_params_rejected(self):
        p = make_params()
        with pytest.raises(ValidationError):
            SystemParams(p_tx=0.0, gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta,
                         n_tags=3, rate_threshold=0.5, link_s=p.link_s, link_d=p.link_d,
                         link_e=p.link_e, eh=p.eh)
        with pytest.raises(ValidationError):
            SystemParams(p_tx=1.0, gamma_t=p.gamma_t, gamma_p=p.gamma_p, zeta=p.zeta,
                         n_tags=3, rate_threshold=-0.5, link_s=p.link_s, link_d=p.link_d,
                         link_e=p.link_e, eh=p.eh)


class TestSnr:
    def test_zero_when_unpowered(self):
        p = make_params()
        r = TagRealization(g_sk_sq=1e-9, g_kd_sq=1.0, g_ke_sq=1.0, beta_star=0.0)
        assert snr_at(p, r, Receiver.D) == 0.0
        assert snr_at(p, r, Receiver.E) == 0.0

    def test_identity_case(self):
        # unit gains, distances, coefficients: SNR collapses to beta*
        link = NakagamiLink.from_lambda_tilde(1, 1.0, 1.0, 2.0)
        p = SystemParams(p_tx=1.0, gamma_t=1.0, gamma_p=1.0, zeta=1.0, n_tags=1,
                         rate_threshold=0.5, link_s=link, link_d=link, link_e=link,
                         eh=EH_DEFAULT)
        r = TagRealization(1.0, 1.0, 1.0, 1.0)
        assert snr_at(p, r, Receiver.D) == pytest.approx(1.0)

    def test_independent_recomputation(self):
        # spreadsheet-style recomputation from raw fields
        p = make_params(gamma_t_db=20.0)
        r = realization(0.9, 1.4, 0.6, p)
        ls, ld = p.links_of("s")[0], p.links_of("d")[0]
        expected = (p.zeta * r.beta_star
                    * ls.distance ** -2 * ld.distance ** -2
                    * r.g_sk_sq * r.g_kd_sq * p.gamma_t / p.gamma_p)
        assert snr_at(p, r, Receiver.D) == pytest.approx(expected, rel=1e-12)


class TestSecrecyCapacity:
    def test_equal_snrs(self):
        assert secrecy_capacity(1.7, 1.7) == 0.0

    def test_exact_arithmetic(self):
        assert secrecy_capacity(3.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_clamped(self):
        assert secrecy_capacity(0.7, 2.3) == 0.0

    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, gd, ge):
        assert secrecy_capacity(gd, ge) >= 0.0

    def test_tau_reformulation(self):
        # C < R  <=>  (1+gd)/(1+ge) < 2^R for R > 0
        rate = 0.7
        tau = 2.0 ** rate
        for gd, ge in [(0.5, 0.1), (3.0, 1.0), (10.0, 9.0), (0.0, 0.0), (5.0, 0.2)]:
            lhs = secrecy_capacity(gd, ge) < rate
            rhs = (1 + gd) / (1 + ge) < tau
            assert lhs == rhs


class TestSelectTag:
    def test_single_tag_all_protocols(self):
        p = make_params(n_tags=1)
        rng = np.random.default_rng(0)
        rs = draw_realizations(p, rng)
        for proto in ProtocolKind:
            assert select_tag(p, proto, rs, rng) == 0

    def test_sots_picks_strongest_destination(self):
        p = make_params(n_tags=3)
        rs = tuple(realization(1.0, g, 0.5, p) for g in (0.2, 0.9, 0.5))
        assert select_tag(p, ProtocolKind.SOTS, rs) == 1

    def test_mets_picks_weakest_eavesdropper(self):
        p = make_params(n_tags=3)
        rs = tuple(realization(1.0, 0.5, g, p) for g in (0.4, 0.2, 0.9))
        assert select_tag(p, ProtocolKind.METS, rs) == 1

    def test_ots_matches_brute_force(self):
        p = make_params(n_tags=3)
        rng = np.random.default_rng(17)
        for _ in range(50):
            rs = draw_realizations(p, rng)
            caps = [secrecy_capacity(snr_at(p, r, Receiver.D, k), snr_at(p, r, Receiver.E, k))
                    for k, r in enumerate(rs)]
            best = max(range(len(rs)), key=lambda k: (caps[k], -k))
            assert select_tag(p, ProtocolKind.OTS, rs) == best

    def test_ots_dominates_every_other_choice(self):
        p = make_params(n_tags=4)
        rng = np.random.default_rng(3)
        for _ in range(200):
            rs = draw_realizations(p, rng)
            caps = [secrecy_capacity(snr_at(p, r, Receiver.D, k), snr_at(p, r, Receiver.E, k))
                    for k, r in enumerate(rs)]
            chosen = caps[select_tag(p, ProtocolKind.OTS, rs)]
            for proto in (ProtocolKind.SOTS, ProtocolKind.METS, ProtocolKind.RTS):
                assert chosen >= caps[select_tag(p, proto, rs, rng)]

    def test_rts_uniform_and_deterministic(self):
        p = make_params(n_tags=4)
        rng = np.random.default_rng(5)
        rs = draw_realizations(p, rng)
        picks_a = [select_tag(p, ProtocolKind.RTS, rs, np.random.default_rng(11))
                   for _ in range(1)]
        picks_b = [select_tag(p, ProtocolKind.RTS, rs, np.random.default_rng(11))
                   for _ in range(1)]
        assert picks_a == picks_b
        rng2 = np.random.default_rng(2)
        counts = np.bincount([select_tag(p, ProtocolKind.RTS, rs, rng2)
                              for _ in range(40000)], minlength=4)
        assert counts.min() > 40000 / 4 * 0.9

    def test_rts_requires_stream(self):
        p = make_params(n_tags=2)
        rs = draw_realizations(p, np.random.default_rng(0))
        with pytest.raises(ValueError):
            select_tag(p, ProtocolKind.RTS, rs)

    def test_empty_rejected(self):
        p = make_params()
        with pytest.raises(ValueError):
            select_tag(p, ProtocolKind.SOTS, ())

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scale):
        p = make_params(n_tags=3)
        rng = np.random.default_rng(21)
        rs = draw_realizations(p, rng)
        scaled_d = tuple(TagRealization(r.g_sk_sq, r.g_kd_sq * scale, r.g_ke_sq, r.beta_star)
                         for r in rs)
        assert (select_tag(p, ProtocolKind.SOTS, scaled_d)
                == select_tag(p, ProtocolKind.SOTS, rs))
        scaled_e = tuple(TagRealization(r.g_sk_sq, r.g_kd_sq, r.g_ke_sq * scale, r.beta_star)
                         for r in rs)
        assert (select_tag(p, ProtocolKind.METS, scaled_e)
                == select_tag(p, ProtocolKind.METS, rs))


class TestDrawRealizations:
    def test_beta_consistency(self):
        p = make_params()
        rng = np.random.default_rng(8)
        from backsec.ehmodel import optimal_reflection
        for r in draw_realizations(p, rng):
            expected = optimal_reflection(p.eh, p.p_tx, p.links_of("s")[0], r.g_sk_sq)
            assert r.beta_star == expected
