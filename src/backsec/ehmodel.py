"""Non-linear energy harvester and the dynamic reflection coefficient.

A tag splits its received power between harvesting and backscatter; the
reflection coefficient is pushed as high as the harvester allows while the
harvested output still covers the circuit draw.  `phi` is the input power at
which harvested output exactly equals the circuit draw, so a tag reflects iff
its received power exceeds `phi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import NakagamiLink
from .errors import ValidationError, real_field

__all__ = ["EhParams", "harvested_power", "optimal_reflection"]


@dataclass(frozen=True)
class EhParams:
    """Harvester constants, all powers in watts.

    p_max : saturation output power
    xi0   : sensitivity threshold (input power where output crosses zero)
    xi1   : steepness (inverse-resistance scale)
    xi2   : knee position (capacitance scale)
    p_c   : circuit power the tag must cover before it can reflect
    """

    p_max: float
    xi0: float
    xi1: float
    xi2: float
    p_c: float

    def __post_init__(self):
        for name in ("p_max", "xi0", "xi1", "xi2", "p_c"):
            object.__setattr__(self, name, real_field(name, getattr(self, name), closed=name == "xi0"))
        if self.p_c >= self.p_max:
            raise ValidationError(
                f"p_c ({self.p_c} W) must be below p_max ({self.p_max} W): "
                f"phi2 = p_max - p_c = {self.p_max - self.p_c} W must be positive "
                "or the activation threshold phi is undefined"
            )
        try:
            phi = self.phi
        except OverflowError:
            phi = math.inf
        if not math.isfinite(phi):
            raise ValidationError("the activation threshold phi is outside the float range")

    @property
    def phi2(self) -> float:
        return self.p_max - self.p_c

    @property
    def phi1(self) -> float:
        # Orientation of the exponents is fixed by the defining property
        # harvested_power(phi) == p_c; see FORMULA_NOTES.md.
        return self.p_max * math.exp(self.xi1 * self.xi0) + self.p_c * math.exp(self.xi1 * self.xi2)

    @property
    def phi(self) -> float:
        """Input power at which harvested output equals the circuit draw."""
        return math.log(self.phi1 / self.phi2) / self.xi1


def harvested_power(eh: EhParams, p_in: float) -> float:
    """Harvested output for input power p_in (W); sigmoid-saturating model,
    clamped at zero below the sensitivity threshold."""
    p_in = real_field("p_in", p_in, closed=True)
    num = 1.0 - math.exp(-eh.xi1 * p_in + eh.xi1 * eh.xi0)
    den = 1.0 + math.exp(-eh.xi1 * p_in + eh.xi1 * eh.xi2)
    return max(eh.p_max * num / den, 0.0)


def optimal_reflection(eh: EhParams, p_tx: float, link_sk: NakagamiLink,
                       g_sk_sq: float) -> float:
    """Largest reflection coefficient that still powers the circuit:
    max(1 - phi / (P d^-u g^2), 0).  Zero means the tag stays silent."""
    p_tx = real_field("p_tx", p_tx)
    g_sk_sq = real_field("g_sk_sq", g_sk_sq)
    received = p_tx * link_sk.path_gain * g_sk_sq
    if received <= eh.phi:
        return 0.0
    return 1.0 - eh.phi / received
