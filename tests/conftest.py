from dataclasses import replace

import pytest

from backsec.channel import NakagamiLink
from backsec.config import apply_axis, loads_config, preset_text
from backsec.ehmodel import EhParams
from backsec.system import SystemParams

# Stock harvester constants with the circuit draw pinned at 100 uW (the stock
# p_c equals p_max, which leaves the activation threshold undefined).
EH_DEFAULT = EhParams(p_max=200e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=100e-6)

DB = lambda x: 10.0 ** (x / 10.0)


def make_params(gamma_t_db=30.0, n_tags=3, m=2, m_s=None, m_d=None, m_e=None,
                d_s=1.0, d_d=2.0, d_e=4.0, rate=0.5, zeta=2.2, gamma_p_db=5.0,
                lam_s_db=2.0, lam_d_db=3.0, lam_e_db=5.0, eh=EH_DEFAULT,
                noise_ref_p_tx=1.0, noise_ref_gamma_t_db=30.0):
    """Reference scenario: noise power is fixed by (noise_ref_p_tx at
    noise_ref_gamma_t_db), then the point is moved to gamma_t_db with
    transmit power co-varying."""
    base = SystemParams(
        p_tx=noise_ref_p_tx,
        gamma_t=DB(noise_ref_gamma_t_db),
        gamma_p=DB(gamma_p_db),
        zeta=zeta,
        n_tags=n_tags,
        rate_threshold=rate,
        link_s=NakagamiLink.from_lambda_tilde(m_s or m, DB(lam_s_db), d_s, 2.0),
        link_d=NakagamiLink.from_lambda_tilde(m_d or m, DB(lam_d_db), d_d, 2.0),
        link_e=NakagamiLink.from_lambda_tilde(m_e or m, DB(lam_e_db), d_e, 2.0),
        eh=eh,
    )
    return base.with_transmit_snr(DB(gamma_t_db))


def mixed_m_params(rate):
    """N = 4 with m = 1, 2, 3 on the s, d, e families and two odd tags."""
    base = make_params(gamma_t_db=12.0, n_tags=4, m_s=1, m_d=2, m_e=3, rate=rate)
    link_d = base.links_of("d")[0]
    link_e = base.links_of("e")[0]
    return replace(
        base,
        link_d=(link_d, replace(link_d, m=3), link_d, replace(link_d, distance=3.0)),
        link_e=(link_e, replace(link_e, m=1), link_e, link_e))


def per_tag_source_params():
    """mixed_m_params with a different source distance on tag 1, so the
    activation threshold differs across tags too."""
    p = mixed_m_params(0.4)
    link_s = p.links_of("s")[0]
    return replace(p, link_s=(link_s, replace(link_s, distance=1.5), link_s, link_s))


def split_lambda_params():
    """N = 4 with m = 2 on every link and lambda~ differing across tags."""
    base = make_params(gamma_t_db=12.0, n_tags=4, m=2, rate=0.4)
    link_d = base.links_of("d")[0]
    link_e = base.links_of("e")[0]
    return replace(
        base,
        link_d=(link_d, replace(link_d, omega=0.5), replace(link_d, omega=0.5), link_d),
        link_e=(replace(link_e, omega=2.0), link_e, link_e, link_e))


def fig2_at(gamma_t_db):
    """The fig2 preset's base scenario at gamma_t_db."""
    return apply_axis(loads_config(preset_text("fig2")).base, "gamma_t_db", gamma_t_db)


@pytest.fixture
def params_default():
    return make_params()
