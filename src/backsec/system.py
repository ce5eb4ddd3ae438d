"""Scenario parameters: the selection rules, the per-family links of every
tag, the harvester, and the link-budget constants (eta1, eta2, the source-gain
activation threshold) that the closed forms and the simulator derive from
them."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Union

from .channel import NakagamiLink
from .ehmodel import EhParams
from .errors import ValidationError

__all__ = ["ProtocolKind", "SystemParams"]

LinkSpec = Union[NakagamiLink, tuple]


class ProtocolKind(enum.Enum):
    """Tag-selection rules: strongest tag-to-destination link, weakest
    tag-to-eavesdropper link, best instantaneous secrecy capacity, uniform
    random pick."""

    SOTS = "sots"
    METS = "mets"
    OTS = "ots"
    RTS = "rts"


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if isinstance(self.n_tags, bool) or int(self.n_tags) != self.n_tags or self.n_tags < 1:
            raise ValidationError(f"n_tags must be a positive integer, got {self.n_tags!r}")
        object.__setattr__(self, "n_tags", int(self.n_tags))
        if not 0 <= self.rate_threshold < 1024:
            raise ValidationError(f"rate_threshold must be in [0, 1024), where 2^R is a finite "
                                  f"float, got {self.rate_threshold}")
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
        """Noise power at each receiver implied by (p_tx, gamma_t), W."""
        return self.p_tx / self.gamma_t

    def with_transmit_snr(self, gamma_t: float) -> "SystemParams":
        """Rescale to a new transmit SNR at fixed noise power (p_tx co-varies)."""
        if not 0 < gamma_t < math.inf:
            raise ValidationError(f"gamma_t must be positive and finite, got {gamma_t}")
        return replace(self, gamma_t=gamma_t, p_tx=self.noise_power * gamma_t)

    def links_of(self, family: str) -> tuple:
        """Per-tag link tuple for family 's', 'd' or 'e'."""
        value = {"s": self.link_s, "d": self.link_d, "e": self.link_e}[family]
        if isinstance(value, NakagamiLink):
            return (value,) * self.n_tags
        return value

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

