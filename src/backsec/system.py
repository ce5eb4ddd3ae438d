"""Scenario parameters: the selection rules, the per-family links of every
tag, the harvester and the link budget (transmit power and SNR, modulation
gap, scattering coefficient, rate threshold).  The closed forms
(`analytic._Derived`) and the simulator (`montecarlo._kernel_args`) each
derive their constants from these fields."""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, replace
from typing import Union

from .channel import NakagamiLink
from .ehmodel import EhParams
from .errors import ValidationError, integer_field, real_field

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
            object.__setattr__(self, name, real_field(name, getattr(self, name)))
        object.__setattr__(self, "rate_threshold",  # 2^R must be a finite float
                           real_field("rate_threshold", self.rate_threshold, 0.0, 1024.0, True))
        object.__setattr__(self, "n_tags", integer_field("n_tags", self.n_tags, 1, sys.maxsize))
        for name in ("link_s", "link_d", "link_e"):
            _check_links(name, getattr(self, name), self.n_tags)
        if not isinstance(self.eh, EhParams):
            raise ValidationError(f"eh must be EhParams, got {self.eh!r}")
        phi = self.eh.phi
        # a shared link once, not once per tag: n_tags may be far too large to
        # build a tuple of
        links_s = self.link_s if isinstance(self.link_s, tuple) else (self.link_s,)
        for k, link in enumerate(links_s):
            received = self.p_tx * link.path_gain
            if not received > 0 or not phi / received <= sys.float_info.max:
                raise ValidationError(
                    f"activation threshold phi/(p_tx d_s^-u_s) = {phi}/{received} of tag {k} "
                    f"must be at most {sys.float_info.max:.4g}")

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
        gamma_t = real_field("gamma_t", gamma_t)
        return replace(self, gamma_t=gamma_t, p_tx=self.noise_power * gamma_t)

    def links_of(self, family: str) -> tuple:
        """Per-tag link tuple for family 's', 'd' or 'e'."""
        value = {"s": self.link_s, "d": self.link_d, "e": self.link_e}[family]
        if isinstance(value, NakagamiLink):
            return (value,) * self.n_tags
        return value

    def require_homogeneous(self) -> tuple:
        """The shared (s, d, e) links, without building a per-tag tuple;
        ValidationError if a family differs across tags."""
        shared = []
        for name in ("link_s", "link_d", "link_e"):
            value = getattr(self, name)
            if isinstance(value, tuple) and len(set(value)) != 1:
                raise ValidationError(
                    f"{name} differs across tags; the closed forms require "
                    "identically distributed tags"
                )
            shared.append(value[0] if isinstance(value, tuple) else value)
        return tuple(shared)
