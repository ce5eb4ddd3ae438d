"""Simulator checks: determinism, stream replay, and statistical sanity.

The stream-level reference below re-derives every uniform draw with plain
Python integer arithmetic and replays the event logic independently of the
kernel, so a slot-mapping or selection bug in it cannot hide.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from backsec import analytic
from backsec._kernels import _TILE_UNIFORMS, _workspace, mix64, resolve_backend
from backsec.errors import ValidationError
from backsec.montecarlo import (
    McConfig,
    MetricEstimate,
    PROTOCOL_ORDER,
    estimate_all,
    ip_mc,
    sop_mc,
)
from backsec.system import ProtocolKind, SystemParams

from conftest import make_params

def reference_counts(params, mc):
    """Slow per-trial replay of the kernel's draw stream and event logic."""
    links_s = params.links_of("s")
    links_d = params.links_of("d")
    links_e = params.links_of("e")
    n = params.n_tags
    phi = params.eh.phi
    thr = [phi / (params.p_tx * l.path_gain) for l in links_s]
    scale = params.zeta * params.gamma_t / params.gamma_p
    e1g = [scale * ls.path_gain * ld.path_gain for ls, ld in zip(links_s, links_d)]
    e2g = [scale * ls.path_gain * le.path_gain for ls, le in zip(links_s, links_e)]
    tau = params.tau
    r_pos = params.rate_threshold > 0.0
    slots = sum(l.m for fam in (links_s, links_d, links_e) for l in fam) + 1
    golden = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1

    counts = np.zeros((4, 3), dtype=np.int64)
    n_batches = -(-mc.trials // mc.batch_size)
    for b in range(n_batches):
        bs = mix64((mc.seed + (b + 1) * golden) & mask)
        size = min(mc.batch_size, mc.trials - b * mc.batch_size)
        for t in range(size):
            c = t * slots

            def u01():
                nonlocal c
                z = mix64((bs + (c + 1) * golden) & mask)
                c += 1
                return ((z >> 11) + 1) * 2.0 ** -53

            def gamma_draw(m, lam):
                acc = 0.0
                for _ in range(m):
                    acc += math.log(u01())
                return acc / (-lam)

            gs = [gamma_draw(links_s[k].m, links_s[k].lambda_tilde) for k in range(n)]
            gd = [gamma_draw(links_d[k].m, links_d[k].lambda_tilde) for k in range(n)]
            ge = [gamma_draw(links_e[k].m, links_e[k].lambda_tilde) for k in range(n)]
            u_rts = u01()

            w1 = [max(g - a, 0.0) for g, a in zip(gs, thr)]
            ratio = [(1.0 + (w1[k] * gd[k]) * e1g[k]) / (1.0 + (w1[k] * ge[k]) * e2g[k])
                     for k in range(n)]
            picks = [
                max(range(n), key=lambda k: (gd[k], -k)),
                min(range(n), key=lambda k: (ge[k], k)),
                max(range(n), key=lambda k: (max(ratio[k], 1.0), -k)),
                min(int(u_rts * n), n - 1),
            ]
            for p, idx in enumerate(picks):
                if w1[idx] == 0.0:
                    counts[p, 0] += 1
                else:
                    if r_pos and ratio[idx] < tau:
                        counts[p, 1] += 1
                    if ratio[idx] < 1.0:
                        counts[p, 2] += 1
    return counts


def _replay_counts_of(res):
    """estimate_all's results as reference_counts' (4, 3) table."""
    got = np.zeros((4, 3), dtype=np.int64)
    for i, proto in enumerate(PROTOCOL_ORDER):
        got[i] = (res[(proto, "sop")].n_case1, res[(proto, "sop")].n_case2,
                  res[(proto, "ip")].n_case2)
    return got


class TestDeterminism:
    def test_repeat_runs_identical(self):
        p = make_params(gamma_t_db=10.0)
        mc = McConfig(trials=50_000, seed=11, batch_size=8192)
        a = estimate_all(p, mc)
        b = estimate_all(p, mc)
        assert a == b

    def test_worker_count_invariance(self):
        p = make_params(gamma_t_db=20.0, n_tags=4)
        base = McConfig(trials=200_000, seed=31, batch_size=16384, workers=1)
        ref = estimate_all(p, base)
        for workers in (2, 5):
            got = estimate_all(p, replace(base, workers=workers))
            assert got == ref

    def test_seed_changes_stream(self):
        p = make_params(gamma_t_db=10.0)
        a = estimate_all(p, McConfig(trials=50_000, seed=1))
        b = estimate_all(p, McConfig(trials=50_000, seed=2))
        assert a != b

    def test_batch_size_is_part_of_the_stream_key(self):
        p = make_params(gamma_t_db=10.0)
        a = estimate_all(p, McConfig(trials=50_000, seed=1, batch_size=10_000))
        b = estimate_all(p, McConfig(trials=50_000, seed=1, batch_size=50_000))
        assert a != b


class TestBackendChoice:
    def test_auto_mode_picks_a_kernel_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert resolve_backend() == "numpy"
            estimate_all(make_params(), McConfig(trials=2_000, seed=1))
            sop_mc(ProtocolKind.SOTS, make_params(), McConfig(trials=2_000, seed=1))

    def test_stale_backend_setting_is_ignored(self, monkeypatch):
        p = make_params(gamma_t_db=15.0, n_tags=3)
        mc = McConfig(trials=20_000, seed=404)
        monkeypatch.delenv("BACKSEC_BACKEND", raising=False)
        unset = estimate_all(p, mc)
        monkeypatch.setenv("BACKSEC_BACKEND", "numba")
        assert estimate_all(p, mc) == unset


class TestStreamReference:
    def test_counts_match_python_replay(self):
        p = make_params(gamma_t_db=12.0, n_tags=3, m=2, rate=0.4)
        mc = McConfig(trials=2_000, seed=555, batch_size=700)
        ref = reference_counts(p, mc)
        got = _replay_counts_of(estimate_all(p, mc))
        assert np.abs(got - ref).max() <= 1

    def test_heterogeneous_tags_match_python_replay(self):
        base = make_params(gamma_t_db=12.0, n_tags=3)
        link_d = base.links_of("d")[0]
        link_e = base.links_of("e")[0]
        het = SystemParams(
            p_tx=base.p_tx, gamma_t=base.gamma_t, gamma_p=base.gamma_p, zeta=base.zeta,
            n_tags=3, rate_threshold=base.rate_threshold,
            link_s=base.link_s,
            link_d=(link_d, replace(link_d, m=3, omega=0.8), replace(link_d, distance=3.0)),
            link_e=(link_e, replace(link_e, m=1), link_e),
            eh=base.eh)
        mc = McConfig(trials=1_500, seed=777, batch_size=512)
        ref = reference_counts(het, mc)
        got = _replay_counts_of(estimate_all(het, mc))
        assert np.abs(got - ref).max() <= 1


def _mixed_m_params(rate):
    """N = 4 with m = 1, 2, 3 on the s, d, e families and two odd tags."""
    base = make_params(gamma_t_db=12.0, n_tags=4, m_s=1, m_d=2, m_e=3, rate=rate)
    link_d = base.links_of("d")[0]
    link_e = base.links_of("e")[0]
    return replace(
        base,
        link_d=(link_d, replace(link_d, m=3), link_d, replace(link_d, distance=3.0)),
        link_e=(link_e, replace(link_e, m=1), link_e, link_e))


class TestTiling:
    """The kernel walks a batch in tiles of _TILE_UNIFORMS // slots
    trials; counts must not depend on where the tile seams fall."""

    @pytest.mark.parametrize("rate", [0.4, 0.0])
    @pytest.mark.parametrize("tiles, extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_counts_match_python_replay_across_tile_seams(self, rate, tiles, extra):
        p = _mixed_m_params(rate)
        slots = sum(l.m for fam in "sde" for l in p.links_of(fam)) + 1
        tile = _TILE_UNIFORMS // slots
        trials = tiles * tile + extra
        mc = McConfig(trials=trials, seed=2718, batch_size=trials)
        ref = reference_counts(p, mc)
        got = _replay_counts_of(estimate_all(p, mc))
        # exact, unlike the looser replay checks above: a seam slip moves
        # single trials, and a last-ulp log() difference flips an event only
        # within ~1e-16 of a decision boundary
        np.testing.assert_array_equal(got, ref)
        dead, outage, intercept = ref.sum(axis=0)
        assert dead > 0 and intercept > 0
        assert (outage > 0) == (rate > 0)

    def test_kernel_memory_does_not_grow_with_batch_size(self):
        # one batch of 262144 trials at 19 draws each: an untiled kernel
        # holds several (batch, slots) arrays, about 200 MB
        p = make_params(gamma_t_db=30.0, n_tags=3, m=2)
        mc = McConfig(trials=262_144, seed=1, batch_size=262_144)
        tracemalloc.start()
        try:
            estimate_all(p, mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestWorkspace:
    def test_every_array_starts_on_a_cache_line(self):
        # held at once, so each workspace is a separate allocation at
        # whatever offset the allocator gives it
        spaces = [_workspace(((k, 3 * k + 1), np.float64), ((2 * k + 1,), np.bool_),
                             ((k, 5), np.intp), ((4 ** k,), np.uint8))
                  for k in range(1, 10)]
        for space in spaces:
            for a in space:
                assert a.ctypes.data % 64 == 0


class TestStatisticalSanity:
    def test_zero_rate_reduces_to_dead_tag_probability(self):
        p = make_params(gamma_t_db=0.0, rate=0.0)
        est = sop_mc(ProtocolKind.RTS, p, McConfig(trials=300_000, seed=6))
        p1v = analytic.p1(p)
        assert abs(est.p_hat - p1v) <= 3 * est.stderr
        assert est.n_case2 == 0

    def test_case1_fraction_matches_p1(self):
        # selection under SOTS/METS/RTS ignores the source gain, so the
        # selected tag is dead with probability p1 exactly; the capacity-
        # optimal rule dodges dead tags, so its fraction can only be lower
        p = make_params(gamma_t_db=5.0)
        est = estimate_all(p, McConfig(trials=300_000, seed=13))
        p1v = analytic.p1(p)
        for proto in (ProtocolKind.SOTS, ProtocolKind.METS, ProtocolKind.RTS):
            e = est[(proto, "sop")]
            frac = e.n_case1 / e.trials
            se = math.sqrt(max(p1v * (1 - p1v), 1e-12) / e.trials)
            assert abs(frac - p1v) <= max(4 * se, 1e-4)
        ots = est[(ProtocolKind.OTS, "sop")]
        assert ots.n_case1 / ots.trials <= p1v

    def test_everything_vanishes_at_high_power_distant_eavesdropper(self):
        p = make_params(gamma_t_db=60.0, d_e=200.0)
        est = estimate_all(p, McConfig(trials=100_000, seed=21))
        for proto in PROTOCOL_ORDER:
            assert est[(proto, "sop")].p_hat < 5e-4

    def test_symmetric_links_make_rts_intercept_a_coin_flip(self):
        p = make_params(gamma_t_db=60.0, lam_e_db=3.0, d_e=2.0)
        est = ip_mc(ProtocolKind.RTS, p, McConfig(trials=200_000, seed=3))
        assert abs(est.p_hat - 0.5) <= 4 * est.stderr

    def test_ots_dominates_on_shared_draws(self):
        # per-trial dominance: the capacity-optimal pick fails only when every
        # tag fails, so its counts are bounded by each rival's exactly
        p = make_params(gamma_t_db=20.0, n_tags=4)
        res = estimate_all(p, McConfig(trials=200_000, seed=42))
        for metric in ("sop", "ip"):
            ots = res[(ProtocolKind.OTS, metric)].p_hat
            for proto in (ProtocolKind.SOTS, ProtocolKind.METS, ProtocolKind.RTS):
                assert ots <= res[(proto, metric)].p_hat


class TestEstimateApi:
    def test_stderr_formula(self):
        p = make_params(gamma_t_db=10.0)
        est = sop_mc(ProtocolKind.SOTS, p, McConfig(trials=50_000, seed=9))
        expected = math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
        assert est.stderr == pytest.approx(expected, rel=1e-12)
        assert est.p_hat == (est.n_case1 + est.n_case2) / est.trials
        assert est.breakdown == {"case1": est.n_case1, "case2": est.n_case2}

    def test_single_protocol_helpers_match_bulk(self):
        p = make_params(gamma_t_db=10.0)
        mc = McConfig(trials=50_000, seed=12)
        bulk = estimate_all(p, mc)
        assert sop_mc(ProtocolKind.METS, p, mc) == bulk[(ProtocolKind.METS, "sop")]
        assert ip_mc(ProtocolKind.OTS, p, mc) == bulk[(ProtocolKind.OTS, "ip")]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            McConfig(trials=0)
        with pytest.raises(ValidationError):
            McConfig(trials=100, workers=0)
        with pytest.raises(ValidationError):
            McConfig(trials=100, seed=-1)


class TestRegressionFixtures:
    """Frozen after a first run verified against the closed forms (within
    one standard error); with the replay above they pin the draw stream and
    the event model."""

    def test_sots_sop_reference_point(self):
        p = make_params(gamma_t_db=30.0, n_tags=3, m=2)
        est = sop_mc(ProtocolKind.SOTS, p, McConfig(trials=200_000, seed=20240601))
        assert est.p_hat == pytest.approx(0.005035, abs=1e-12)
        assert (est.n_case1, est.n_case2) == (1, 1006)

    def test_ots_ip_reference_point(self):
        p = make_params(gamma_t_db=30.0, n_tags=4, m=2)
        est = ip_mc(ProtocolKind.OTS, p, McConfig(trials=200_000, seed=20240601))
        assert est.p_hat == pytest.approx(5e-06, abs=1e-12)
        assert (est.n_case1, est.n_case2) == (0, 1)
