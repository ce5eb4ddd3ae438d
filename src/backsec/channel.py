"""Nakagami-m link model.

The squared envelope of a Nakagami-m fade is Gamma distributed with integer
shape m and rate lambda_tilde = m / omega, so every closed form downstream
reduces to finite sums; non-integer m is rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["NakagamiLink"]


@dataclass(frozen=True)
class NakagamiLink:
    """One fading link: shape m, mean squared gain omega, geometry."""

    m: int
    omega: float
    distance: float
    pathloss_exp: float

    def __post_init__(self):
        if isinstance(self.m, bool) or int(self.m) != self.m or self.m < 1:
            raise ValidationError(f"fading shape m must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not self.omega > 0:
            raise ValidationError(f"omega must be positive, got {self.omega}")
        if not self.distance > 0:
            raise ValidationError(f"distance must be positive, got {self.distance}")
        if not self.pathloss_exp > 0:
            raise ValidationError(f"pathloss_exp must be positive, got {self.pathloss_exp}")

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
        if not lambda_tilde > 0:
            raise ValidationError(f"lambda_tilde must be positive, got {lambda_tilde}")
        return cls(m, m / lambda_tilde, distance, pathloss_exp)

