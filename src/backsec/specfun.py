"""Special functions and combinatorial machinery behind the closed forms.

Everything here is pure and stateless, so it is safe to call from any number
of threads.  The incomplete-gamma and Bessel evaluators are self-contained
(series / continued-fraction implementations); the test suite checks them
against independent quadrature oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Composition",
    "CompensatedSum",
    "DeltaTerm",
    "bessel_k",
    "compositions",
    "ln_gamma",
    "multinomial_delta",
    "reg_lower_inc_gamma",
    "reg_upper_inc_gamma",
    "upper_inc_gamma",
]

_EPS = 2.220446049250313e-16
_FPMIN = 1e-300
_MAXIT = 500
_EULER_GAMMA = 0.5772156649015328606


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _lower_series(m: float, x: float) -> float:
    # gamma(m, x)/Gamma(m) as a power series; converges fast for x < m + 1.
    ap = m
    term = 1.0 / m
    total = term
    for _ in range(_MAXIT):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + m * math.log(x) - math.lgamma(m))
    raise RuntimeError(f"incomplete gamma series failed to converge (m={m}, x={x})")


def _upper_contfrac(m: float, x: float) -> float:
    # Gamma(m, x)/Gamma(m) by modified Lentz continued fraction; for x >= m + 1.
    b = x + 1.0 - m
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAXIT + 1):
        an = -i * (i - m)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return math.exp(-x + m * math.log(x) - math.lgamma(m)) * h
    raise RuntimeError(f"incomplete gamma continued fraction failed (m={m}, x={x})")


def _check_inc_gamma_args(m: float, x: float) -> None:
    if m <= 0.0:
        raise ValueError(f"shape must be positive, got {m}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")


def reg_lower_inc_gamma(m: float, x: float) -> float:
    """Regularized lower incomplete gamma P(m, x) = gamma(m, x)/Gamma(m)."""
    _check_inc_gamma_args(m, x)
    if x == 0.0:
        return 0.0
    if x < m + 1.0:
        return _lower_series(m, x)
    return 1.0 - _upper_contfrac(m, x)


def reg_upper_inc_gamma(m: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(m, x) = 1 - P(m, x).

    Evaluated directly by the continued fraction where P(m, x) is close to
    one, so the complement does not lose precision there.
    """
    _check_inc_gamma_args(m, x)
    if x == 0.0:
        return 1.0
    if x < m + 1.0:
        return 1.0 - _lower_series(m, x)
    return _upper_contfrac(m, x)


def upper_inc_gamma(m: float, x: float) -> float:
    """Unnormalized upper incomplete gamma Gamma(m, x)."""
    return math.exp(math.lgamma(m)) * reg_upper_inc_gamma(m, x)


def _k0_k1_series(x: float) -> tuple[float, float]:
    # Ascending series for K0, K1; accurate to machine precision on (0, 2].
    u = 0.25 * x * x
    lg = math.log(0.5 * x)

    i0 = 1.0
    i1 = 0.5
    k0_sum = 0.0
    k1_sum = 1.0  # harmonic part for k = 0: H_0 + H_1 = 1
    term_i0 = 1.0
    term_i1 = 0.5
    harmonic = 0.0
    for k in range(1, 60):
        harmonic += 1.0 / k
        term_i0 *= u / (k * k)
        term_i1 *= u / (k * (k + 1))
        i0 += term_i0
        i1 += term_i1
        k0_sum += term_i0 * harmonic
        k1_sum += 2.0 * term_i1 * (2.0 * harmonic + 1.0 / (k + 1))
        if term_i0 < _EPS * i0 and term_i1 < _EPS * i1:
            break
    i1 *= x
    k0 = -(lg + _EULER_GAMMA) * i0 + k0_sum
    k1 = 1.0 / x + (lg + _EULER_GAMMA) * i1 - 0.25 * x * k1_sum
    return k0, k1


def _k0_k1_contfrac(x: float) -> tuple[float, float]:
    # Temme/Steed continued fraction for K0, K1; full precision for x > 2.
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d
    delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAXIT + 1):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < _EPS:
            break
    else:
        raise RuntimeError(f"K0/K1 continued fraction failed to converge (x={x})")
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    k1 = k0 * (x + 0.5 - h) / x
    return k0, k1


def bessel_k(order: int, x: float) -> float:
    """Modified Bessel function of the second kind K_n(x) for integer n.

    Uses the ascending series on (0, 2], a continued fraction beyond, and the
    (stable) upward recurrence K_{n+1} = K_{n-1} + (2n/x) K_n for higher
    orders.  K_{-n} == K_n by construction.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    n = int(order)
    if n != order:
        raise ValueError(f"bessel_k order must be an integer, got {order!r}")
    n = abs(n)
    if x <= 2.0:
        km, k = _k0_k1_series(x)
    else:
        km, k = _k0_k1_contfrac(x)
    if n == 0:
        return km
    for j in range(1, n):
        km, k = k, km + (2.0 * j / x) * k
    return k


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of non-negative integers with a fixed sum."""

    parts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if any(p < 0 for p in self.parts):
            raise ValueError(f"composition parts must be non-negative: {self.parts}")
        if sum(self.parts) != self.total:
            raise ValueError(f"parts {self.parts} do not sum to {self.total}")

    @classmethod
    def of(cls, parts) -> "Composition":
        parts = tuple(int(p) for p in parts)
        return cls(parts, sum(parts))


def _composition_tuples(total: int, parts: int) -> list:
    # level[t]: every composition of t into k parts in ascending lexicographic
    # order, for k = 1, 2, ..., parts; first part ascending, then the rest
    level = [[(t,)] for t in range(total + 1)]
    for _ in range(parts - 1):
        level = [[(first,) + rest for first in range(t + 1) for rest in level[t - first]]
                 for t in range(total + 1)]
    return level[total]


def compositions(total: int, parts: int) -> tuple[Composition, ...]:
    """All ordered non-negative integer tuples of length `parts` summing to
    `total`, in ascending lexicographic order (bit-reproducible)."""
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    return tuple(_generated(p, total) for p in _composition_tuples(total, parts))


def _generated(parts: tuple, total: int) -> Composition:
    # parts from _composition_tuples are valid by construction, so skip
    # __post_init__'s checks; a public Composition(...) still runs them
    comp = object.__new__(Composition)
    comp.__dict__.update(parts=parts, total=total)
    return comp


class DeltaTerm(NamedTuple):
    value: float
    theta1: int
    theta2: int


def _lgamma_table(size: int) -> tuple:
    """math.lgamma(k) at index k for k = 1..size-1 (index 0, a pole, is unused)."""
    return (math.inf,) + tuple(math.lgamma(k) for k in range(1, size))


_LGAMMA = _lgamma_table(257)


def multinomial_delta(n_power: int, comp: Composition, m: int, lambda_tilde: float) -> DeltaTerm:
    """Coefficient of one term in the multinomial expansion of the order-
    statistic CDF power (F_{g^2})^n_power.

    For parts (n_1, ..., n_{m+1}) the expansion term is
    delta * t^theta2 * exp(-lambda_tilde * theta1 * t) with

        theta1 = n_2 + ... + n_{m+1}
        theta2 = n_3 + 2 n_4 + ... + (m-1) n_{m+1}
        delta  = (-1)^theta1 lambda_tilde^theta2 n_power!
                 / (prod_i n_i! * prod_{i=1..m} ((i-1)!)^{n_{i+1}})

    The log magnitude subtracts lgamma(n_i + 1) for every part, then
    n_{i+1} lgamma(i) for i = 1..m; the steps that subtract an exact zero
    (lgamma(1) == lgamma(2) == 0.0, or a zero part) are skipped, which leaves
    every other step, and so the result, bit for bit as written.
    """
    if len(comp.parts) != m + 1:
        raise ValueError(
            f"composition has {len(comp.parts)} parts, expected m+1 = {m + 1}"
        )
    if comp.total != n_power:
        raise ValueError(f"composition sums to {comp.total}, expected {n_power}")
    if lambda_tilde <= 0.0:
        raise ValueError(f"lambda_tilde must be positive, got {lambda_tilde}")
    parts = comp.parts
    theta1 = n_power - parts[0]
    theta2 = 0
    for i in range(2, m + 1):
        theta2 += (i - 1) * parts[i]
    size = max(n_power + 2, m + 1)
    lg = _LGAMMA if size <= len(_LGAMMA) else _lgamma_table(size)
    log_mag = theta2 * math.log(lambda_tilde) + lg[n_power + 1]
    for ni in parts:
        if ni > 1:
            log_mag -= lg[ni + 1]
    for i in range(3, m + 1):
        if parts[i]:
            log_mag -= parts[i] * lg[i]
    sign = -1.0 if theta1 % 2 else 1.0
    return DeltaTerm(sign * math.exp(log_mag), theta1, theta2)


class CompensatedSum:
    """Neumaier compensated accumulator; also tracks the sum of magnitudes so
    callers can estimate how much cancellation occurred."""

    __slots__ = ("_s", "_c", "abs_sum")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0
        self.abs_sum = 0.0

    def add(self, term: float) -> None:
        self.add_all((term,))

    def add_all(self, terms) -> None:
        """Add each term in order, with the running sum in local variables."""
        s, c, abs_sum = self._s, self._c, self.abs_sum
        for term in terms:
            a = abs(term)
            abs_sum += a
            t = s + term
            if abs(s) >= a:
                c += (s - t) + term
            else:
                c += (term - t) + s
            s = t
        self._s, self._c, self.abs_sum = s, c, abs_sum

    @property
    def value(self) -> float:
        return self._s + self._c

    @property
    def condition(self) -> float:
        """Ratio of accumulated magnitude to result magnitude; large values
        mean the sum is dominated by cancellation."""
        v = abs(self.value)
        if v == 0.0:
            return 1.0 if self.abs_sum == 0.0 else math.inf
        return self.abs_sum / v
