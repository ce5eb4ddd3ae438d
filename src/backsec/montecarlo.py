"""Ground-truth stochastic estimator of SOP and IP for every protocol.

All four selection rules are evaluated on the same fading draws (common
random numbers), so protocol comparisons are exact per seed and both metrics
come out of one pass.  Work is split into fixed-size batches whose streams
are hashed from (seed, batch index); totals are therefore invariant to the
number of workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import batch_seed, mc_batch
from .errors import ValidationError
from .system import ProtocolKind, SystemParams

__all__ = ["McConfig", "MetricEstimate", "PROTOCOL_ORDER", "estimate_all", "ip_mc", "sop_mc"]

PROTOCOL_ORDER = (ProtocolKind.SOTS, ProtocolKind.METS, ProtocolKind.OTS, ProtocolKind.RTS)


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and reproducibility knobs.  Estimates quoted in
    reports should use at least 1e4 trials; smaller counts are fine for
    smoke tests."""

    trials: int
    seed: int = 1
    batch_size: int = 65536
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be positive, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError(f"seed must fit in 64 bits, got {self.seed}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        if self.workers < 1:
            raise ValidationError(f"workers must be positive, got {self.workers}")


@dataclass(frozen=True)
class MetricEstimate:
    """Point estimate with binomial standard error and the event split
    between dead-tag trials (case 1) and powered-but-failing trials (case 2)."""

    p_hat: float
    stderr: float
    trials: int
    n_case1: int
    n_case2: int

    @property
    def breakdown(self) -> dict:
        return {"case1": self.n_case1, "case2": self.n_case2}


def _kernel_args(params: SystemParams):
    n = params.n_tags
    links_s = params.links_of("s")
    links_d = params.links_of("d")
    links_e = params.links_of("e")
    m_s = np.array([l.m for l in links_s], dtype=np.int64)
    lam_s = np.array([l.lambda_tilde for l in links_s])
    m_d = np.array([l.m for l in links_d], dtype=np.int64)
    lam_d = np.array([l.lambda_tilde for l in links_d])
    m_e = np.array([l.m for l in links_e], dtype=np.int64)
    lam_e = np.array([l.lambda_tilde for l in links_e])
    phi = params.eh.phi
    thr = np.array([phi / (params.p_tx * l.path_gain) for l in links_s])
    scale = params.zeta * params.gamma_t / params.gamma_p
    e1g = np.array([scale * ls.path_gain * ld.path_gain
                    for ls, ld in zip(links_s, links_d)])
    e2g = np.array([scale * ls.path_gain * le.path_gain
                    for ls, le in zip(links_s, links_e)])
    tau = params.tau
    r_pos = params.rate_threshold > 0.0
    return (n, m_s, lam_s, m_d, lam_d, m_e, lam_e, thr, e1g, e2g, tau, r_pos)


def _run_counts(params: SystemParams, mc: McConfig) -> np.ndarray:
    args = _kernel_args(params)
    n_batches = -(-mc.trials // mc.batch_size)

    def one(b: int) -> np.ndarray:
        size = min(mc.batch_size, mc.trials - b * mc.batch_size)
        return mc_batch(batch_seed(mc.seed, b), size, *args)

    if mc.workers == 1 or n_batches == 1:
        parts = [one(b) for b in range(n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=mc.workers) as pool:
            parts = list(pool.map(one, range(n_batches)))

    total = np.zeros((4, 3), dtype=np.int64)
    for part in parts:  # ordered reduction over batch index
        total += part
    return total


def _estimate(row: np.ndarray, metric: str, trials: int) -> MetricEstimate:
    case1 = int(row[0])
    case2 = int(row[1] if metric == "sop" else row[2])
    p_hat = (case1 + case2) / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return MetricEstimate(p_hat, stderr, trials, case1, case2)


def estimate_all(params: SystemParams, mc: McConfig) -> dict:
    """One simulation pass; returns {(protocol, 'sop'|'ip'): MetricEstimate}."""
    counts = _run_counts(params, mc)
    out = {}
    for i, proto in enumerate(PROTOCOL_ORDER):
        out[(proto, "sop")] = _estimate(counts[i], "sop", mc.trials)
        out[(proto, "ip")] = _estimate(counts[i], "ip", mc.trials)
    return out


def sop_mc(protocol: ProtocolKind, params: SystemParams, mc: McConfig) -> MetricEstimate:
    """Monte Carlo secrecy outage probability for one protocol."""
    counts = _run_counts(params, mc)
    return _estimate(counts[PROTOCOL_ORDER.index(protocol)], "sop", mc.trials)


def ip_mc(protocol: ProtocolKind, params: SystemParams, mc: McConfig) -> MetricEstimate:
    """Monte Carlo intercept probability for one protocol."""
    counts = _run_counts(params, mc)
    return _estimate(counts[PROTOCOL_ORDER.index(protocol)], "ip", mc.trials)
