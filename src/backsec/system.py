"""Scenario assembly: link budgets, per-tag SNRs, secrecy capacity, and the
four tag-selection rules applied to realized fading draws."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .channel import NakagamiLink, sample_gain_sq
from .ehmodel import EhParams, optimal_reflection
from .errors import ValidationError

__all__ = [
    "ProtocolKind",
    "Receiver",
    "SystemParams",
    "TagRealization",
    "draw_realizations",
    "secrecy_capacity",
    "select_tag",
    "snr_at",
]

LinkSpec = Union[NakagamiLink, tuple]


class ProtocolKind(enum.Enum):
    """Tag-selection rules: strongest tag-to-destination link, weakest
    tag-to-eavesdropper link, best instantaneous secrecy capacity, uniform
    random pick."""

    SOTS = "sots"
    METS = "mets"
    OTS = "ots"
    RTS = "rts"


class Receiver(enum.Enum):
    D = "d"
    E = "e"


def _check_links(name: str, value: LinkSpec, n_tags: int) -> None:
    if isinstance(value, NakagamiLink):
        return
    if isinstance(value, tuple) and value and all(isinstance(l, NakagamiLink) for l in value):
        if len(value) != n_tags:
            raise ValidationError(
                f"{name}: per-tag link tuple has {len(value)} entries, expected n_tags={n_tags}"
            )
        return
    raise ValidationError(f"{name} must be a NakagamiLink or a tuple of them, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Full scenario description.

    Each link family (source->tag, tag->destination, tag->eavesdropper) is
    either one shared NakagamiLink or a per-tag tuple; the closed forms
    require the shared (i.i.d.) form, the simulator accepts both.
    """

    p_tx: float                       # transmit power, W
    gamma_t: float                    # average transmit SNR, linear
    gamma_p: float                    # modulation performance gap, linear
    zeta: float                       # tag scattering coefficient
    n_tags: int
    rate_threshold: float             # secrecy rate threshold, bits/s/Hz
    link_s: LinkSpec
    link_d: LinkSpec
    link_e: LinkSpec
    eh: EhParams

    def __post_init__(self):
        for name in ("p_tx", "gamma_t", "gamma_p", "zeta"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if isinstance(self.n_tags, bool) or int(self.n_tags) != self.n_tags or self.n_tags < 1:
            raise ValidationError(f"n_tags must be a positive integer, got {self.n_tags!r}")
        object.__setattr__(self, "n_tags", int(self.n_tags))
        if self.rate_threshold < 0:
            raise ValidationError(f"rate_threshold must be non-negative, got {self.rate_threshold}")
        for name in ("link_s", "link_d", "link_e"):
            _check_links(name, getattr(self, name), self.n_tags)
        if not isinstance(self.eh, EhParams):
            raise ValidationError(f"eh must be EhParams, got {self.eh!r}")

    @property
    def tau(self) -> float:
        """Secrecy threshold factor 2^R (>= 1)."""
        return 2.0 ** self.rate_threshold

    @property
    def noise_power(self) -> float:
        """Receiver noise power implied by (p_tx, gamma_t), W."""
        return self.p_tx / self.gamma_t

    def with_transmit_snr(self, gamma_t: float) -> "SystemParams":
        """Rescale to a new transmit SNR at fixed noise power (p_tx co-varies)."""
        if not gamma_t > 0:
            raise ValidationError(f"gamma_t must be positive, got {gamma_t}")
        return replace(self, gamma_t=gamma_t, p_tx=self.noise_power * gamma_t)

    def links_of(self, family: str) -> tuple:
        """Per-tag link tuple for family 's', 'd' or 'e'."""
        value = {"s": self.link_s, "d": self.link_d, "e": self.link_e}[family]
        if isinstance(value, NakagamiLink):
            return (value,) * self.n_tags
        return value

    @property
    def is_homogeneous(self) -> bool:
        # a single shared NakagamiLink is homogeneous by construction; only a
        # per-tag tuple needs comparing
        return all(isinstance(v, NakagamiLink) or len(set(v)) == 1
                   for v in (self.link_s, self.link_d, self.link_e))

    def require_homogeneous(self) -> None:
        for name in ("link_s", "link_d", "link_e"):
            value = getattr(self, name)
            if not isinstance(value, NakagamiLink) and len(set(value)) != 1:
                raise ValidationError(
                    f"{name} differs across tags; the closed forms require "
                    "identically distributed tags"
                )

    def _shared(self, family: str) -> NakagamiLink:
        self.require_homogeneous()
        return self.links_of(family)[0]

    @property
    def eta1(self) -> float:
        """zeta * d_s^-u_s * d_d^-u_d / gamma_p."""
        return self.zeta * self._shared("s").path_gain * self._shared("d").path_gain / self.gamma_p

    @property
    def eta2(self) -> float:
        """zeta * d_s^-u_s * d_e^-u_e / gamma_p."""
        return self.zeta * self._shared("s").path_gain * self._shared("e").path_gain / self.gamma_p

    @property
    def gain_threshold(self) -> float:
        """Squared-gain activation threshold phi / (P d_s^-u_s)."""
        return self.eh.phi / (self.p_tx * self._shared("s").path_gain)


@dataclass(frozen=True)
class TagRealization:
    """One fading draw for one tag.  beta_star must equal
    optimal_reflection(...) for the stored g_sk_sq; build these through
    draw_realizations to keep that invariant."""

    g_sk_sq: float
    g_kd_sq: float
    g_ke_sq: float
    beta_star: float


def draw_realizations(params: SystemParams, rng: np.random.Generator) -> tuple:
    """Draw one TagRealization per tag from the scenario's link families."""
    out = []
    for k in range(params.n_tags):
        ls = params.links_of("s")[k]
        g_s = float(sample_gain_sq(ls, rng))
        g_d = float(sample_gain_sq(params.links_of("d")[k], rng))
        g_e = float(sample_gain_sq(params.links_of("e")[k], rng))
        beta = optimal_reflection(params.eh, params.p_tx, ls, g_s)
        out.append(TagRealization(g_s, g_d, g_e, beta))
    return tuple(out)


def snr_at(params: SystemParams, realization: TagRealization, receiver: Receiver,
           tag_index: int = 0) -> float:
    """Instantaneous SNR at the destination or eavesdropper for one tag:
    zeta * beta* * d_s^-u_s * d_x^-u_x * g_sk^2 * g_kx^2 * Gamma_t / Gamma_p."""
    if realization.beta_star == 0.0:
        return 0.0
    family = "d" if receiver is Receiver.D else "e"
    link_s = params.links_of("s")[tag_index]
    link_x = params.links_of(family)[tag_index]
    g_kx = realization.g_kd_sq if receiver is Receiver.D else realization.g_ke_sq
    return (params.zeta * realization.beta_star * link_s.path_gain * link_x.path_gain
            * realization.g_sk_sq * g_kx * params.gamma_t / params.gamma_p)


def secrecy_capacity(gamma_d: float, gamma_e: float) -> float:
    """max(log2((1 + gamma_d) / (1 + gamma_e)), 0) in bits/s/Hz."""
    if gamma_d < 0 or gamma_e < 0:
        raise ValueError("SNRs must be non-negative")
    if gamma_d <= gamma_e:
        return 0.0
    return math.log2((1.0 + gamma_d) / (1.0 + gamma_e))


def select_tag(params: SystemParams, protocol: ProtocolKind,
               realizations: Sequence[TagRealization],
               rng: Optional[np.random.Generator] = None) -> int:
    """Index of the tag the given protocol picks; ties go to the lowest index."""
    if not realizations:
        raise ValueError("select_tag needs at least one realization")
    if protocol is ProtocolKind.SOTS:
        return max(range(len(realizations)), key=lambda k: (realizations[k].g_kd_sq, -k))
    if protocol is ProtocolKind.METS:
        return min(range(len(realizations)), key=lambda k: (realizations[k].g_ke_sq, k))
    if protocol is ProtocolKind.OTS:
        def capacity(k: int) -> float:
            r = realizations[k]
            return secrecy_capacity(
                snr_at(params, r, Receiver.D, k), snr_at(params, r, Receiver.E, k)
            )
        return max(range(len(realizations)), key=lambda k: (capacity(k), -k))
    if protocol is ProtocolKind.RTS:
        if rng is None:
            raise ValueError("RTS selection needs a random stream")
        return int(rng.integers(0, len(realizations)))
    raise ValueError(f"unknown protocol {protocol!r}")
