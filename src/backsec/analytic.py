"""Exact and asymptotic closed-form evaluators for secrecy outage probability
(SOP) and intercept probability (IP) under all four tag-selection rules.

Structure of every outage expression: with a = phi / (P d_s^-u_s) the squared
source-gain activation threshold,

    SOP = P1 + P2,   P1 = P(g_s^2 < a)          (tag cannot power itself)
                     P2 = P(g_s^2 > a, ratio < tau)

where ratio = (1 + gamma_d) / (1 + gamma_e) and, because the reflection
coefficient satisfies beta* g_s^2 = g_s^2 - a on the active branch, the inner
event is

    W2 < A / (g_s^2 - a) + B W3,   A = (tau-1)/(eta1 Gamma_t),  B = tau eta2/eta1,

with W2 the (order-statistic) tag->destination gain and W3 the
tag->eavesdropper gain.  Expanding the CDF of W2 into exponentials and powers
turns the g_s^2 integral into int v^k exp(-p v - q/v) dv, i.e. a Bessel-K
term, and the W3 integral into an elementary Gamma moment.  IP is the tau-
independent event gamma_d < gamma_e, and the high-power asymptotes drop the
activation threshold; both reduce to the same Gamma-moment comparisons.

Several of the tabulated source expressions contain transcription slips; the
forms implemented here are re-derived and validated against the Monte Carlo
estimator (see FORMULA_NOTES.md for the exact list of corrections).

All raw sums are kept unclamped in `raw_value`; `value` clamps to [0, 1] at
the reporting layer only.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import NumericalInstabilityWarning
from .specfun import (
    CompensatedSum,
    bessel_k,
    compositions,
    multinomial_delta,
    reg_lower_inc_gamma,
    reg_upper_inc_gamma,
)
from .system import ProtocolKind, SystemParams

__all__ = [
    "CANCELLATION_THRESHOLD",
    "ClosedFormReport",
    "ip_asymptotic",
    "ip_exact",
    "p1",
    "sop_asymptotic",
    "sop_exact",
]

# Alternating sums whose magnitude/result ratio exceeds this raise a
# NumericalInstabilityWarning (the CLI maps it to a dedicated exit code).
CANCELLATION_THRESHOLD = 1e12


@dataclass(frozen=True)
class ClosedFormReport:
    """One evaluated closed form: clamped value for reporting, raw value for
    diagnosing formula trouble, and the named partial sums it was built from."""

    value: float
    raw_value: float
    protocol: ProtocolKind
    kind: str  # exact_sop | exact_ip | asymptotic_sop | asymptotic_ip
    term_breakdown: Mapping[str, float]

    @classmethod
    def build(cls, raw: float, protocol: ProtocolKind, kind: str,
              breakdown: dict) -> "ClosedFormReport":
        return cls(
            value=min(max(raw, 0.0), 1.0),
            raw_value=raw,
            protocol=protocol,
            kind=kind,
            term_breakdown=MappingProxyType(dict(breakdown)),
        )


class _Derived:
    """Scalars of one SystemParams object (see `_derived`) and the pure values
    all its closed forms share (expansion tables and their term labels, Bessel
    order tables, W1 tails, W3 moments, the weakest-eavesdropper expansion
    rows and whole sums with their breakdown terms), never a verdict.  Each
    value is published complete, in one store, and never changed after (a
    longer Bessel table replaces a shorter one whole), so threads racing on
    one object build and read equal values."""

    __slots__ = ("ms", "lam_s", "md", "lam_d", "me", "lam_e", "a", "eta1", "eta2",
                 "tau", "c", "n", "cap_a", "cap_b", "tables", "labels", "bessel",
                 "w1_tails", "moments", "min_rows", "min_sums", "sums")

    def __init__(self, params: SystemParams):
        params.require_homogeneous()
        ls = params.links_of("s")[0]
        ld = params.links_of("d")[0]
        le = params.links_of("e")[0]
        self.ms, self.lam_s = ls.m, ls.lambda_tilde
        self.md, self.lam_d = ld.m, ld.lambda_tilde
        self.me, self.lam_e = le.m, le.lambda_tilde
        self.a = params.gain_threshold
        self.eta1 = params.eta1
        self.eta2 = params.eta2
        self.tau = params.tau
        self.c = self.eta2 / self.eta1
        self.n = params.n_tags
        self.cap_a = (self.tau - 1.0) / (self.eta1 * params.gamma_t)
        self.cap_b = self.tau * self.c
        self.tables = {}
        self.labels = {}
        self.bessel = {}
        self.w1_tails = {}
        self.moments = {}
        self.min_rows = None
        self.min_sums = {}
        self.sums = {}

    def expansion(self, n_power: int, m: int, lam: float) -> tuple:
        """(parts, DeltaTerm) for every term of the multinomial expansion of
        (F_{g^2})^n_power, in `compositions` order; built once per scenario."""
        key = (n_power, m, lam)
        if key not in self.tables:
            self.tables.setdefault(key, tuple((c.parts, multinomial_delta(n_power, c, m, lam))
                                              for c in compositions(n_power, m + 1)))
        return self.tables[key]

    def term_labels(self, n_power: int, m: int, lam: float) -> tuple:
        """The breakdown label f"comp{parts}" of each term of `expansion`."""
        key = (n_power, m, lam)
        if key not in self.labels:
            self.labels.setdefault(key, tuple(f"comp{parts}" for parts, _
                                              in self.expansion(n_power, m, lam)))
        return self.labels[key]

    def bessel_orders(self, x: float, order: int) -> tuple:
        """K_0(x), ..., K_n(x) for some n >= order, bit for bit equal to
        `bessel_k(n, x)`: its K0/K1 base and its own upward recurrence.  A
        longer table replaces a shorter one whole."""
        table = self.bessel.get(x)
        if table is None or len(table) <= order:
            ks = list(table or (bessel_k(0, x), bessel_k(1, x)))
            for j in range(len(ks) - 1, order):
                ks.append(ks[j - 1] + (2.0 * j / x) * ks[j])
            table = self.bessel[x] = tuple(ks)
        return table


def _derived(params: SystemParams) -> _Derived:
    """The one _Derived of this params object, built on first use and kept as a
    private attribute: no dataclass field, so never in ==, hash, repr or replace."""
    d = params.__dict__.get("_derived")
    if d is None:
        d = _Derived(params)
        object.__setattr__(params, "_derived", d)
    return d


def _checked(acc: CompensatedSum, label: str, threshold: Optional[float]) -> float:
    limit = CANCELLATION_THRESHOLD if threshold is None else threshold
    if acc.condition > limit:
        warnings.warn(
            f"{label}: cancellation ratio {acc.condition:.3g} exceeds {limit:.3g}; "
            "the returned value may be unreliable",
            NumericalInstabilityWarning,
            stacklevel=3,
        )
    return acc.value


def _g_integral(alpha: int, p: float, q: float, k_orders: Optional[tuple]) -> float:
    """int_0^inf v^(alpha-1) exp(-p v - q/v) dv for integer alpha; equals
    2 (q/p)^(alpha/2) K_alpha(2 sqrt(pq)), with K_alpha = K_|alpha| taken from
    k_orders, or Gamma(alpha)/p^alpha at q=0."""
    if q == 0.0:
        if alpha <= 0:
            raise ValueError("q=0 requires alpha >= 1")
        return math.exp(math.lgamma(alpha) - alpha * math.log(p))
    return 2.0 * (q / p) ** (alpha / 2.0) * k_orders[abs(alpha)]


def _w1_tail_integral(d: _Derived, q_coef: float, k: int) -> float:
    """int_a^inf (w - a)^k exp(-q_coef / (w - a)) f_{g_s^2}(w) dw.

    Binomial-expands (v + a)^(ms-1) around the shifted variable v = w - a,
    leaving one Bessel-type integral per power of v, of orders k+1 .. k+ms."""
    if (q_coef, k) in d.w1_tails:
        return d.w1_tails[q_coef, k]
    k_orders = None
    if q_coef != 0.0:
        k_orders = d.bessel_orders(2.0 * math.sqrt(d.lam_s * q_coef),
                                   max(abs(k + 1), abs(k + d.ms)))
    pref = math.exp(d.ms * math.log(d.lam_s) - math.lgamma(d.ms) - d.lam_s * d.a)
    total = 0.0
    for p in range(d.ms):
        total += (math.comb(d.ms - 1, p) * d.a ** (d.ms - 1 - p)
                  * _g_integral(p + k + 1, d.lam_s, q_coef, k_orders))
    return d.w1_tails.setdefault((q_coef, k), pref * total)


def _w3_moment(d: _Derived, q: int, rate_shift: float) -> float:
    """int_0^inf w^q exp(-rate_shift w) f_{g_e^2}(w) dw."""
    return math.exp(d.me * math.log(d.lam_e) - math.lgamma(d.me)
                    + math.lgamma(d.me + q)
                    - (d.me + q) * math.log(d.lam_e + rate_shift))


def _w3_min_moments(d: _Derived, count: int, rate_shift: float,
                    threshold: Optional[float]) -> list:
    """The moments q = 0..count-1 against the minimum-order-statistic density
    of the eavesdropper gains: int w^q exp(-rate_shift w) f_min(w) dw.

    Termwise, d/dt [t^t4 e^{-lam t3 t}] = (t4 t^(t4-1) - lam t3 t^t4) e^{...},
    so each expansion term contributes
        t4 Gamma(q+t4) / s^(q+t4) - lam_e t3 Gamma(q+t4+1) / s^(q+t4+1)
    with s = lam_e t3 + rate_shift (the t4 part vanishes when t4 == 0).
    That factor depends on (t3, t4) alone, so it is evaluated once per pair;
    each q-sum adds (outer delta) * factor over the rows of `_w3_min_rows`."""
    key = (count, rate_shift)
    if key not in d.min_sums:
        pairs, coefs = _w3_min_rows(d)
        factors = [{} for _ in range(count)]  # per q: (t3, t4) -> factor
        for t3, t4 in dict.fromkeys(pairs):
            log_s = math.log(d.lam_e * t3 + rate_shift)
            for q in range(count):
                term = -d.lam_e * t3 * math.exp(math.lgamma(q + t4 + 1)
                                                - (q + t4 + 1) * log_s)
                if t4 > 0:
                    term += t4 * math.exp(math.lgamma(q + t4) - (q + t4) * log_s)
                factors[q][t3, t4] = term
        accs = []
        for factor in factors:
            acc = CompensatedSum()
            acc.add_all(map(operator.mul, coefs, map(factor.__getitem__, pairs)))
            accs.append(acc)
        d.min_sums.setdefault(key, accs)
    return [_checked(acc, "weakest-eavesdropper moment", threshold)
            for acc in d.min_sums[key]]


def _w3_min_rows(d: _Derived) -> tuple:
    """The expansion terms of the weakest-of-n density, shared by every rate
    shift: the (t3, t4) of each term and its coefficient outer * delta, where
    outer = C(n, ell) (-1)^(ell+1), in table order and without the t3 == 0
    terms (the constant term of F^ell has zero derivative)."""
    if d.min_rows is None:
        pairs, coefs = [], []
        for ell in range(1, d.n + 1):
            outer = math.comb(d.n, ell) * (-1.0) ** (ell + 1)
            for _, (value, t3, t4) in d.expansion(ell, d.me, d.lam_e):
                if t3 != 0:
                    pairs.append((t3, t4))
                    coefs.append(outer * value)
        d.min_rows = (tuple(pairs), tuple(coefs))
    return d.min_rows


def _w3_moments(d: _Derived, rate_shift: float, threshold: Optional[float],
                minimum_stat: bool) -> Sequence[float]:
    """W3 moments q = 0..md-1; against the weakest of n if minimum_stat."""
    if minimum_stat:
        return _w3_min_moments(d, d.md, rate_shift, threshold)
    if rate_shift not in d.moments:
        d.moments.setdefault(rate_shift, tuple(_w3_moment(d, q, rate_shift)
                                               for q in range(d.md)))
    return d.moments[rate_shift]


def p1(params: SystemParams) -> float:
    """Probability the selected tag cannot power its circuit,
    P(g_s^2 < phi / (P d_s^-u_s))."""
    d = _derived(params)
    return reg_lower_inc_gamma(d.ms, d.lam_s * d.a)


def _p1_parts(d: _Derived) -> tuple[float, float]:
    x = d.lam_s * d.a
    return reg_lower_inc_gamma(d.ms, x), reg_upper_inc_gamma(d.ms, x)


def _cmp_max(d: _Derived, x: float, threshold: Optional[float],
             breakdown: Optional[dict] = None) -> float:
    """P(max of n destination gains < x * W3); the sum and its terms are
    built once per x and checked on every use."""
    key = ("max", x)
    if key not in d.sums:
        terms, w3 = [], {}
        for _, (value, t1, t2) in d.expansion(d.n, d.md, d.lam_d):
            if (t1, t2) not in w3:
                w3[t1, t2] = (x ** t2, _w3_moment(d, t2, d.lam_d * t1 * x))
            x_pow, moment = w3[t1, t2]
            terms.append(value * x_pow * moment)
        acc = CompensatedSum()
        acc.add_all(terms)
        labels = d.term_labels(d.n, d.md, d.lam_d)
        d.sums.setdefault(key, (acc, tuple(zip(labels, terms))))
    acc, terms = d.sums[key]
    if breakdown is not None:
        breakdown.update(terms)
    return _checked(acc, "best-destination comparison", threshold)


def _cmp_single(d: _Derived, x: float, threshold: Optional[float] = None,
                breakdown: Optional[dict] = None, minimum_stat: bool = False) -> float:
    """P(single destination gain < x * W3); W3 is the weakest of n if minimum_stat."""
    moments = _w3_moments(d, d.lam_d * x, threshold, minimum_stat)
    total = 0.0
    fact = 1.0
    for j in range(d.md):
        if j > 0:
            fact *= j
        term = (d.lam_d ** j / fact) * x ** j * moments[j]
        total += term
        if breakdown is not None:
            breakdown[f"j={j}"] = term
    return 1.0 - total


def _sots_p2(d: _Derived, threshold: Optional[float], breakdown: dict) -> float:
    """One term per composition; its inner q-sum depends on the composition
    only through (theta1, theta2), so each such sum is evaluated once."""
    if "sots_p2" not in d.sums:
        terms, inners, w3 = [], {}, {}
        for _, (value, t1, t2) in d.expansion(d.n, d.md, d.lam_d):
            if (t1, t2) not in inners:
                q_coef = d.lam_d * t1 * d.cap_a
                inner = 0.0
                for q in range(t2 + 1):
                    if (t1, q) not in w3:
                        w3[t1, q] = _w3_moment(d, q, d.lam_d * t1 * d.cap_b)
                    inner += (math.comb(t2, q) * d.cap_b ** q * d.cap_a ** (t2 - q)
                              * _w1_tail_integral(d, q_coef, q - t2) * w3[t1, q])
                inners[t1, t2] = inner
            terms.append(value * inners[t1, t2])
        acc = CompensatedSum()
        acc.add_all(terms)
        labels = ["p2." + label for label in d.term_labels(d.n, d.md, d.lam_d)]
        d.sums.setdefault("sots_p2", (acc, tuple(zip(labels, terms))))
    acc, terms = d.sums["sots_p2"]
    breakdown.update(terms)
    return _checked(acc, "best-destination outage tail", threshold)


def _single_tail(d: _Derived, threshold: Optional[float],
                 breakdown: Optional[dict] = None, minimum_stat: bool = False) -> float:
    """P(g_s^2 > a, ratio >= tau) for one tag (minimum_stat=False) or with the
    eavesdropper gain replaced by the weakest of n (minimum_stat=True)."""
    # the W3 moment depends on q alone: evaluate it once per q, not per (j, q)
    w3 = _w3_moments(d, d.lam_d * d.cap_b, threshold, minimum_stat)
    key = ("tail", minimum_stat)
    if key not in d.sums:
        q_coef = d.lam_d * d.cap_a
        terms = []
        fact = 1.0
        for j in range(d.md):
            if j > 0:
                fact *= j
            inner = 0.0
            for q in range(j + 1):
                inner += (math.comb(j, q) * d.cap_b ** q * d.cap_a ** (j - q)
                          * _w1_tail_integral(d, q_coef, q - j) * w3[q])
            terms.append((d.lam_d ** j / fact) * inner)
        total = CompensatedSum()
        total.add_all(terms)
        d.sums.setdefault(key, (total, tuple((f"tail.j={j}", term)
                                             for j, term in enumerate(terms))))
    total, terms = d.sums[key]
    if breakdown is not None:
        breakdown.update(terms)
    return _checked(total, "survival tail", threshold)


def _build_exact_sop(protocol: ProtocolKind, params: SystemParams,
                     threshold: Optional[float]) -> tuple[float, dict]:
    d = _derived(params)
    p1_val, _ = _p1_parts(d)
    breakdown: dict = {"p1": p1_val}

    if params.rate_threshold == 0.0:
        # Capacity is clamped at zero, so it can never fall below R = 0; only
        # the dead-tag event remains.
        breakdown["p2"] = 0.0
        return p1_val, breakdown

    if protocol is ProtocolKind.SOTS:
        p2 = _sots_p2(d, threshold, breakdown)
        breakdown["p2"] = p2
        return p1_val + p2, breakdown

    if protocol is ProtocolKind.METS:
        tail = _single_tail(d, threshold, breakdown, minimum_stat=True)
        breakdown["p2"] = 1.0 - p1_val - tail
        return 1.0 - tail, breakdown

    # OTS / RTS build on the single-tag outage.
    tail = _single_tail(d, threshold, breakdown)
    single = 1.0 - tail
    breakdown["single_tag_sop"] = single
    if protocol is ProtocolKind.OTS:
        breakdown["p2"] = single - p1_val
        return single ** d.n, breakdown
    if protocol is ProtocolKind.RTS:
        breakdown["p2"] = single - p1_val
        return single, breakdown
    raise ValueError(f"unknown protocol {protocol!r}")


def _build_exact_ip(protocol: ProtocolKind, params: SystemParams,
                    threshold: Optional[float]) -> tuple[float, dict]:
    d = _derived(params)
    p1_val, survive = _p1_parts(d)
    breakdown: dict = {"p1": p1_val}

    if protocol is ProtocolKind.SOTS:
        cmp_val = _cmp_max(d, d.c, threshold, breakdown)
    elif protocol is ProtocolKind.METS:
        cmp_val = _cmp_single(d, d.c, threshold, breakdown, minimum_stat=True)
    else:
        cmp_val = _cmp_single(d, d.c)
    breakdown["p3"] = survive * cmp_val

    single = p1_val + survive * cmp_val
    if protocol is ProtocolKind.OTS:
        breakdown["single_tag_ip"] = single
        return single ** d.n, breakdown
    return single, breakdown


def _build_asymptotic(protocol: ProtocolKind, params: SystemParams, metric: str,
                      threshold: Optional[float]) -> tuple[float, dict]:
    d = _derived(params)
    breakdown: dict = {"p1": 0.0}
    if metric == "sop" and params.rate_threshold == 0.0:
        breakdown["p2"] = 0.0
        return 0.0, breakdown
    x = d.cap_b if metric == "sop" else d.c

    if protocol is ProtocolKind.SOTS:
        val = _cmp_max(d, x, threshold, breakdown)
    elif protocol is ProtocolKind.METS:
        val = _cmp_single(d, x, threshold, breakdown, minimum_stat=True)
    else:
        single = _cmp_single(d, x)
        breakdown["single_tag"] = single
        val = single ** d.n if protocol is ProtocolKind.OTS else single
    return val, breakdown


def sop_exact(protocol: ProtocolKind, params: SystemParams,
              cancellation_threshold: Optional[float] = None) -> ClosedFormReport:
    """Exact secrecy outage probability for the given selection rule."""
    raw, breakdown = _build_exact_sop(protocol, params, cancellation_threshold)
    return ClosedFormReport.build(raw, protocol, "exact_sop", breakdown)


def ip_exact(protocol: ProtocolKind, params: SystemParams,
             cancellation_threshold: Optional[float] = None) -> ClosedFormReport:
    """Exact intercept probability (dead tag, or eavesdropper SNR above the
    destination's) for the given selection rule."""
    raw, breakdown = _build_exact_ip(protocol, params, cancellation_threshold)
    return ClosedFormReport.build(raw, protocol, "exact_ip", breakdown)


def sop_asymptotic(protocol: ProtocolKind, params: SystemParams,
                   cancellation_threshold: Optional[float] = None) -> ClosedFormReport:
    """High-transmit-power SOP limit; independent of gamma_t by construction."""
    raw, breakdown = _build_asymptotic(protocol, params, "sop", cancellation_threshold)
    return ClosedFormReport.build(raw, protocol, "asymptotic_sop", breakdown)


def ip_asymptotic(protocol: ProtocolKind, params: SystemParams,
                  cancellation_threshold: Optional[float] = None) -> ClosedFormReport:
    """High-transmit-power IP limit; independent of gamma_t by construction."""
    raw, breakdown = _build_asymptotic(protocol, params, "ip", cancellation_threshold)
    return ClosedFormReport.build(raw, protocol, "asymptotic_ip", breakdown)
