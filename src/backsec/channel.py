"""Nakagami-m link model.

The squared envelope of a Nakagami-m fade is Gamma distributed with integer
shape m and rate lambda_tilde = m / omega, so every closed form downstream
reduces to finite sums; non-integer m is rejected at construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError, integer_field, real_field

__all__ = ["NakagamiLink"]


@dataclass(frozen=True)
class NakagamiLink:
    """One fading link: shape m, mean squared gain omega, geometry."""

    m: int
    omega: float
    distance: float
    pathloss_exp: float

    def __post_init__(self):
        object.__setattr__(self, "m", integer_field("m", self.m, 1, sys.maxsize))
        for name in ("omega", "distance", "pathloss_exp"):
            object.__setattr__(self, name, real_field(name, getattr(self, name)))
        try:
            gain = self.path_gain
        except OverflowError:
            gain = math.inf
        if not 0 < gain < math.inf:
            raise ValidationError(
                f"path gain d^-u = {self.distance}^-{self.pathloss_exp} is outside the float range")

    @property
    def lambda_tilde(self) -> float:
        return self.m / self.omega

    @property
    def path_gain(self) -> float:
        """Distance attenuation d^(-u)."""
        return self.distance ** (-self.pathloss_exp)

    @classmethod
    def from_lambda_tilde(cls, m: int, lambda_tilde: float, distance: float,
                          pathloss_exp: float) -> "NakagamiLink":
        return cls(m, m / real_field("lambda_tilde", lambda_tilde), distance, pathloss_exp)

