"""Ground-truth stochastic estimator of SOP and IP for every protocol.

All four selection rules are evaluated on the same fading draws (common
random numbers), so protocol comparisons are exact per seed and both metrics
come out of one pass.  Work is split into fixed-size batches whose streams
are hashed from (seed, batch index); totals are therefore invariant to the
number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import batch_seed, mc_batch
from .errors import ValidationError, integer_field
from .system import ProtocolKind, SystemParams

__all__ = ["McConfig", "MetricEstimate", "PROTOCOL_ORDER", "estimate_all"]

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
        for name, low, high in (("trials", 1, math.inf), ("seed", 0, 2 ** 64 - 1),
                                ("batch_size", 1, math.inf), ("workers", 1, math.inf)):
            object.__setattr__(self, name, integer_field(name, getattr(self, name), low, high))


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
    """The kernel's two inputs (see `_kernels`): rows, the (m, lambda~) of
    each (family, tag) gain row in draw order, and point, (thr, e1g, e2g, tau,
    r_pos) with per-tag arrays thr, e1g and e2g."""
    links_s, links_d, links_e = (params.links_of(fam) for fam in "sde")
    rows = tuple((l.m, l.lambda_tilde) for links in (links_s, links_d, links_e) for l in links)
    thr = np.array([params.eh.phi / (params.p_tx * l.path_gain) for l in links_s])
    scale = params.zeta * params.gamma_t / params.gamma_p
    e1g = np.array([scale * ls.path_gain * ld.path_gain for ls, ld in zip(links_s, links_d)])
    e2g = np.array([scale * ls.path_gain * le.path_gain for ls, le in zip(links_s, links_e)])
    return rows, (thr, e1g, e2g, params.tau, params.rate_threshold > 0.0)


def _run_counts(params: SystemParams, mc: McConfig) -> np.ndarray:
    rows, point = _kernel_args(params)
    n_batches = -(-mc.trials // mc.batch_size)

    def one(b: int) -> np.ndarray:
        size = min(mc.batch_size, mc.trials - b * mc.batch_size)
        # an SNR that overflows to inf still compares exactly; inf/inf does not.
        # numpy error modes are per thread, so each batch sets its own
        try:
            with np.errstate(over="ignore", invalid="raise"):
                return mc_batch(batch_seed(mc.seed, b), size, rows, point)
        except FloatingPointError as exc:
            raise ValidationError("Monte Carlo cannot be evaluated here: a trial's SNRs "
                                  "leave the float range and their ratio is undefined") from exc

    if mc.workers == 1 or n_batches == 1:
        parts = [one(b) for b in range(n_batches)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import
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

