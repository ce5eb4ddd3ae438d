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

import functools
import itertools
import math
import operator
import sys
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .errors import NumericalInstabilityWarning, ValidationError
from .specfun import (
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

# Alternating sums and one-tag complements 1 - x whose magnitude/result ratio
# exceeds this raise a NumericalInstabilityWarning (the CLI maps it to a
# dedicated exit code).
CANCELLATION_THRESHOLD = 1e12


@dataclass(frozen=True)
class ClosedFormReport:
    """One evaluated closed form: clamped value for reporting, raw value for
    diagnosing formula trouble, and the named partial sums it was built from.

    Every term_breakdown has ``p1``, the dead-tag probability (0.0 in the
    asymptotes), and ``single_tag``, the value of the one tag the rule selects
    (of any one tag for OTS): raw_value is single_tag, or single_tag ** n for
    OTS.  Exact SOP adds ``p2``, single_tag less p1, with its terms
    (``p2.comp…`` for SOTS, ``tail.j=…`` otherwise); exact IP adds ``p3``, with
    single_tag = p1 + p3; exact IP and the asymptotes add their comparison
    terms (``comp…`` for SOTS, ``j=…`` otherwise).  The R = 0 SOP has p1 and
    p2 = 0.0, and raw_value is p1: the selected tag is dead.  OTS keeps tag 0
    unless some tag's ratio exceeds 1, so its exact R = 0 SOP adds the parts of
    the one-tag exact IP, single_tag among them, and raw_value is
    p1 * single_tag ** (n - 1).  An exact SOP with 2^R == 1 has the parts of the
    exact IP."""

    value: float
    raw_value: float
    protocol: ProtocolKind
    kind: str  # exact_sop | exact_ip | asymptotic_sop | asymptotic_ip
    term_breakdown: Mapping[str, float]


class _Derived:
    """Scalars of one SystemParams object (see `_derived`) and one store,
    `memo`, of the pure values all its closed forms share: expansion tables,
    destination rows, one Bessel order table per theta1, W1 tails, W3 moments,
    the weakest-eavesdropper rows and the row terms with their sums, never a
    verdict.  Keys start with the kind of value.  Each value is built
    on first use, published complete with one setdefault and never changed
    after, so threads racing on one object build and read equal values."""

    __slots__ = ("ms", "lam_s", "md", "lam_d", "me", "lam_e", "a", "eta1", "eta2",
                 "tau", "c", "n", "cap_a", "cap_b", "_memo")

    def __init__(self, params: SystemParams):
        params.require_homogeneous()
        ls = params.links_of("s")[0]
        ld = params.links_of("d")[0]
        le = params.links_of("e")[0]
        self.ms, self.lam_s = ls.m, ls.lambda_tilde
        self.md, self.lam_d = ld.m, ld.lambda_tilde
        self.me, self.lam_e = le.m, le.lambda_tilde
        self.a = params.eh.phi / (params.p_tx * ls.path_gain)
        self.eta1 = params.zeta * ls.path_gain * ld.path_gain / params.gamma_p
        self.eta2 = params.zeta * ls.path_gain * le.path_gain / params.gamma_p
        self.tau = params.tau
        self.c = self.eta2 / self.eta1
        self.n = params.n_tags
        self.cap_a = (self.tau - 1.0) / (self.eta1 * params.gamma_t)
        self.cap_b = self.tau * self.c
        self._memo = {}

    def memo(self, key: tuple, build: Callable[[], object]):
        """The value stored under key; build() makes it on first use."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo.setdefault(key, build())
        return value

    def expansion(self, n_power: int, m: int, lam: float) -> tuple:
        """(parts, (delta, theta1, theta2)) for every term of the multinomial
        expansion of (F_{g^2})^n_power, in `compositions` order."""
        return self.memo(("expansion", n_power, m, lam), lambda: tuple(
            (c, multinomial_delta(n_power, c, m, lam)) for c in compositions(n_power, m + 1)))


def _derived(params: SystemParams) -> _Derived:
    """The one _Derived of this params object, built on first use and kept as a
    private attribute: no dataclass field, so never in ==, hash, repr or replace."""
    d = params.__dict__.get("_derived")
    if d is None:
        d = _Derived(params)
        object.__setattr__(params, "_derived", d)
    return d


def _sum(terms: Sequence[float]) -> tuple:
    """(value, condition) of a sum: math.fsum, correctly rounded in any term
    order, and sum |term| / |value|, which is 1.0 for no terms, inf for a zero
    sum of non-zero terms or a magnitude that overflows, and nan for inf - inf."""
    try:
        value = math.fsum(terms)
    except ValueError:  # inf - inf
        return math.nan, math.nan
    try:
        magnitude = math.fsum(map(abs, terms))
    except OverflowError:
        magnitude = math.inf
    if value == 0.0:
        return value, 1.0 if magnitude == 0.0 else math.inf
    return value, magnitude / abs(value)


def _checked(total: tuple, label: str) -> float:
    value, condition = total
    if condition > CANCELLATION_THRESHOLD:
        warnings.warn(
            f"{label}: cancellation ratio {condition:.3g} exceeds {CANCELLATION_THRESHOLD:.3g}; "
            "the returned value may be unreliable",
            NumericalInstabilityWarning,
            stacklevel=5,  # past _single and _report: the caller of the closed form
        )
    return value


def _g_integral(alpha: int, p: float, q: float, k_orders: Optional[tuple]) -> float:
    """int_0^inf v^(alpha-1) exp(-p v - q/v) dv for integer alpha; equals
    2 (q/p)^(alpha/2) K_alpha(2 sqrt(pq)), with K_alpha = K_|alpha| taken from
    k_orders, or Gamma(alpha)/p^alpha at q=0."""
    if q == 0.0:
        if alpha <= 0:  # only reached when q underflowed to 0
            raise OverflowError(f"the integral of order {alpha} diverges at q = 0")
        return math.exp(math.lgamma(alpha) - alpha * math.log(p))
    return 2.0 * (q / p) ** (alpha / 2.0) * k_orders[abs(alpha)]


def _bessel_table(d: _Derived, t1: int, x: float) -> tuple:
    """K_0(x), ..., K_n(x), bit for bit equal to `bessel_k(n, x)`: its K0/K1
    base and its own upward recurrence.  The W1 tails of theta1 = t1 have
    k >= -theta2 >= -(md-1) t1, so n = max((md-1) t1 - 1, ms) is the highest
    order any of them asks for."""
    if x == 0.0:  # only reached when lam_s * q underflowed to 0
        raise OverflowError("K_n diverges at a Bessel argument that underflowed to 0")
    ks = [bessel_k(0, x), bessel_k(1, x)]
    for j in range(1, max((d.md - 1) * t1 - 1, d.ms)):
        ks.append(ks[j - 1] + (2.0 * j / x) * ks[j])
    return tuple(ks)


def _w1_tail_integral(d: _Derived, t1: int, k: int) -> float:
    """int_a^inf (w - a)^k exp(-q_coef / (w - a)) f_{g_s^2}(w) dw with
    q_coef = lam_d t1 A.

    Binomial-expands (v + a)^(ms-1) around the shifted variable v = w - a,
    leaving one Bessel-type integral per power of v, of orders k+1 .. k+ms."""
    def build():
        q_coef = d.lam_d * t1 * d.cap_a
        k_orders = None
        if q_coef != 0.0:
            k_orders = d.memo(("bessel", t1), lambda: _bessel_table(
                d, t1, 2.0 * math.sqrt(d.lam_s * q_coef)))
        pref = math.exp(d.ms * math.log(d.lam_s) - math.lgamma(d.ms) - d.lam_s * d.a)
        total = 0.0
        for p in range(d.ms):
            total += (math.comb(d.ms - 1, p) * d.a ** (d.ms - 1 - p)
                      * _g_integral(p + k + 1, d.lam_s, q_coef, k_orders))
        return pref * total

    return d.memo(("w1_tail", t1, k), build)


def _w3_moment(d: _Derived, q: int, rate_shift: float) -> float:
    """int_0^inf w^q exp(-rate_shift w) f_{g_e^2}(w) dw."""
    return math.exp(d.me * math.log(d.lam_e) - math.lgamma(d.me)
                    + math.lgamma(d.me + q)
                    - (d.me + q) * math.log(d.lam_e + rate_shift))


def _w3_min_moments(d: _Derived, rate_shift: float) -> tuple:
    """The `_sum`s of the moments q = 0..md-1 against the minimum-order-statistic
    density of the eavesdropper gains: int w^q exp(-rate_shift w) f_min(w) dw.

    Termwise, d/dt [t^t4 e^{-lam t3 t}] = (t4 t^(t4-1) - lam t3 t^t4) e^{...},
    so each expansion term contributes
        t4 Gamma(q+t4) / s^(q+t4) - lam_e t3 Gamma(q+t4+1) / s^(q+t4+1)
    with s = lam_e t3 + rate_shift (the t4 part vanishes when t4 == 0).
    That factor depends on (t3, t4) alone, so it is evaluated once per pair;
    each q-sum adds (outer delta) * factor over the rows of `_w3_min_rows`."""
    def build():
        pairs, coefs = _w3_min_rows(d)
        factors = [{} for _ in range(d.md)]  # per q: (t3, t4) -> factor
        for t3, t4 in dict.fromkeys(pairs):
            log_s = math.log(d.lam_e * t3 + rate_shift)
            for q in range(d.md):
                term = -d.lam_e * t3 * math.exp(math.lgamma(q + t4 + 1)
                                                - (q + t4 + 1) * log_s)
                if t4 > 0:
                    term += t4 * math.exp(math.lgamma(q + t4) - (q + t4) * log_s)
                factors[q][t3, t4] = term
        return tuple(_sum(list(map(operator.mul, coefs, map(factor.__getitem__, pairs))))
                     for factor in factors)

    return d.memo(("min_moments", rate_shift), build)


def _w3_min_rows(d: _Derived) -> tuple:
    """The expansion terms of the weakest-of-n density, shared by every rate
    shift: the (t3, t4) of each term and its coefficient outer * delta, where
    outer = C(n, ell) (-1)^(ell+1), in table order and without the t3 == 0
    terms (the constant term of F^ell has zero derivative)."""
    def build():
        pairs, coefs = [], []
        for ell in range(1, d.n + 1):
            outer = math.comb(d.n, ell) * (-1.0) ** (ell + 1)
            for _, (value, t3, t4) in d.expansion(ell, d.me, d.lam_e):
                if t3 != 0:
                    pairs.append((t3, t4))
                    coefs.append(outer * value)
        return tuple(pairs), tuple(coefs)

    return d.memo(("min_rows",), build)


def p1(params: SystemParams) -> float:
    """Probability the selected tag cannot power its circuit,
    P(g_s^2 < phi / (P d_s^-u_s))."""
    d = _derived(params)
    return reg_lower_inc_gamma(d.ms, d.lam_s * d.a)


def _rows(d: _Derived, protocol: ProtocolKind) -> tuple:
    """The rule's destination law as (label, coef, theta1, theta2) rows of
    sum coef x^theta2 exp(-lam_d theta1 x): for SOTS the CDF of the best of n
    destination gains, one row per composition; for the other rules the
    survival function of one gain, coef = lam_d^j / j! with j! a running
    float product."""
    if protocol is ProtocolKind.SOTS:
        return d.memo(("rows", "best"), lambda: tuple(
            (f"comp{parts}", value, t1, t2)
            for parts, (value, t1, t2) in d.expansion(d.n, d.md, d.lam_d)))
    return d.memo(("rows", "one"), lambda: tuple(
        (f"j={j}", d.lam_d ** j / f, 1, j) for j, f in enumerate(
            itertools.accumulate(range(1, d.md), operator.mul, initial=1.0))))


def _w3(d: _Derived, protocol: ProtocolKind, t1: int, x: float) -> Sequence[float]:
    """The rule's eavesdropper law: W3 moments q = 0, 1, ... at rate shift
    lam_d t1 x, against the weakest of n eavesdropper gains for METS (whose
    rows have t1 = 1), else against one gain, up to q = (md - 1) t1, the
    largest theta2 of that theta1."""
    rate_shift = d.lam_d * t1 * x
    if protocol is ProtocolKind.METS:
        return [value for value, _ in _w3_min_moments(d, rate_shift)]
    return d.memo(("moments", t1, x), lambda: tuple(
        _w3_moment(d, q, rate_shift) for q in range((d.md - 1) * t1 + 1)))


def _tail_inner(d: _Derived, t1: int, power: int, moments: Sequence[float]) -> float:
    """sum_q C(power, q) B^q A^(power-q) I(t1, q - power) moments[q], with I the
    W1 tail integral: the binomial q-sum of every outage-tail term."""
    inner = 0.0
    for q in range(power + 1):
        inner += (math.comb(power, q) * d.cap_b ** q * d.cap_a ** (power - q)
                  * _w1_tail_integral(d, t1, q - power) * moments[q])
    return inner


def _terms(d: _Derived, protocol: ProtocolKind, x: float, tail: bool) -> tuple:
    """((label, term) pairs, total, moments) over the rule's destination rows,
    with term = coef * f1 * f2 and (f1, f2) built once per (theta1, theta2).
    For the comparison P(W2 < x W3) they are x^theta2 and the W3 moment
    q = theta2 at rate shift lam_d theta1 x; for the outage tail (x = B) they
    are 1.0, which leaves coef exact, and the W1-tail q-sum `_tail_inner`, and
    the labels take the prefix p2. (SOTS) or tail.  total is the `_sum` of the
    rule's probability: of the terms (SOTS rows are a CDF), else (1, -s), s the
    sum of the survival terms; moments holds the `_sum`s of the METS moments
    they read, else ().  Built once per laws, x and tail: OTS and RTS share it."""
    best, mets = protocol is ProtocolKind.SOTS, protocol is ProtocolKind.METS

    def build():
        prefix = ("p2." if best else "tail.") if tail else ""
        factors, pairs, w3 = {}, [], {}
        for label, coef, t1, t2 in _rows(d, protocol):
            if (t1, t2) not in factors:
                if t1 not in w3:
                    w3[t1] = _w3(d, protocol, t1, x)
                factors[t1, t2] = ((1.0, _tail_inner(d, t1, t2, w3[t1])) if tail
                                   else (x ** t2, w3[t1][t2]))
            f1, f2 = factors[t1, t2]
            pairs.append((prefix + label, coef * f1 * f2))
        moments = _w3_min_moments(d, d.lam_d * x) if mets else ()  # theta1 = 1
        terms = [term for _, term in pairs]
        if best:
            return tuple(pairs), _sum(terms), moments
        # the comparison's s is added left to right, not with fsum: the pinned
        # values carry its rounding
        survival = _sum(terms)[0] if tail else functools.reduce(operator.add, terms, 0.0)
        return tuple(pairs), _sum((1.0, -survival)), moments

    return d.memo(("terms", best, mets, x, tail), build)


# (SOTS, exact SOP) -> the label of the probability sum of `_terms`
_LABELS = {(True, True): "best-destination outage tail",
           (True, False): "best-destination comparison",
           (False, True): "outage complement", (False, False): "comparison complement"}


def _single(d: _Derived, protocol: ProtocolKind, kind: str, breakdown: dict) -> float:
    """The SOP or IP of the one tag the rule selects, or for OTS of any one tag
    (OTS fails only when every tag does).  Every sum the value reads is checked
    here, on every evaluation, memo hit or not: the weakest-eavesdropper
    moments first, then the rule's probability sum."""
    best, sop = protocol is ProtocolKind.SOTS, kind == "exact_sop"
    pairs, total, moments = _terms(d, protocol, d.c if kind.endswith("ip") else d.cap_b, sop)
    for moment in moments:
        _checked(moment, "weakest-eavesdropper moment")
    breakdown.update(pairs)
    value = _checked(total, _LABELS[best, sop])
    if sop:  # the SOTS sum is p2, the one-tag complement the tag's SOP
        breakdown["p2"] = value if best else value - breakdown["p1"]
        return breakdown["p1"] + value if best else value
    if kind.startswith("asymptotic"):
        return value
    p3 = breakdown["p3"] = reg_upper_inc_gamma(d.ms, d.lam_s * d.a) * value
    return breakdown["p1"] + p3


def _report(kind: str, protocol: ProtocolKind, params: SystemParams) -> ClosedFormReport:
    """The report of one closed form; an intermediate that leaves the float
    range (an overflow, or a divisor that underflowed to 0) or a result that is
    not finite is a ValidationError."""
    if not isinstance(protocol, ProtocolKind):
        raise ValidationError(f"{kind}: protocol must be a ProtocolKind, got {protocol!r}")
    try:
        d = _derived(params)
        breakdown: dict = {"p1": p1(params) if kind.startswith("exact") else 0.0}
        if kind.endswith("sop") and params.rate_threshold == 0.0:
            # Capacity is clamped at zero, so it can never fall below R = 0;
            # only the dead-tag event remains.
            breakdown["p2"] = 0.0
            raw = breakdown["p1"]
            if protocol is ProtocolKind.OTS and kind == "exact_sop":
                # OTS keeps tag 0 unless some tag's ratio exceeds 1, so it picks
                # a dead tag when tag 0 is dead and every other tag is dead or
                # intercepted
                single = breakdown["single_tag"] = _single(d, protocol, "exact_ip", breakdown)
                raw = raw * single ** (d.n - 1)
        else:
            # 0 < R but 2^R rounds to 1, so A = 0: the outage event is the
            # intercept event
            rule = "exact_ip" if kind == "exact_sop" and d.tau == 1.0 else kind
            single = breakdown["single_tag"] = _single(d, protocol, rule, breakdown)
            raw = single ** d.n if protocol is ProtocolKind.OTS else single
    except ArithmeticError as exc:
        raise ValidationError(
            f"{kind} ({protocol.value}) cannot be evaluated here: an intermediate "
            f"term leaves the float range (largest float {sys.float_info.max:.4g})") from exc
    if not math.isfinite(raw):
        raise ValidationError(
            f"{kind} ({protocol.value}) cannot be evaluated here: its terms sum to {raw!r}")
    return ClosedFormReport(value=min(max(raw, 0.0), 1.0), raw_value=raw, protocol=protocol,
                            kind=kind, term_breakdown=MappingProxyType(breakdown))


def sop_exact(protocol: ProtocolKind, params: SystemParams) -> ClosedFormReport:
    """Exact secrecy outage probability for the given selection rule."""
    return _report("exact_sop", protocol, params)


def ip_exact(protocol: ProtocolKind, params: SystemParams) -> ClosedFormReport:
    """Exact intercept probability (dead tag, or eavesdropper SNR above the
    destination's) for the given selection rule."""
    return _report("exact_ip", protocol, params)


def sop_asymptotic(protocol: ProtocolKind, params: SystemParams) -> ClosedFormReport:
    """High-transmit-power SOP limit; independent of gamma_t by construction."""
    return _report("asymptotic_sop", protocol, params)


def ip_asymptotic(protocol: ProtocolKind, params: SystemParams) -> ClosedFormReport:
    """High-transmit-power IP limit; independent of gamma_t by construction."""
    return _report("asymptotic_ip", protocol, params)
