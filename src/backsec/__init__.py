"""Secrecy performance of an energy-harvesting backscatter network with tag
selection under Nakagami-m fading: Monte Carlo estimation plus exact and
asymptotic closed forms for secrecy outage and intercept probability."""

from .analytic import (
    ClosedFormReport,
    ip_asymptotic,
    ip_exact,
    p1,
    sop_asymptotic,
    sop_exact,
)
from .channel import NakagamiLink
from .config import SweepSpec, load_config, loads_config
from .ehmodel import EhParams, harvested_power, optimal_reflection
from .errors import ConfigParseError, NumericalInstabilityWarning, ValidationError
from .montecarlo import McConfig, MetricEstimate, estimate_all
from .system import ProtocolKind, SystemParams

__all__ = [
    "ClosedFormReport",
    "ConfigParseError",
    "EhParams",
    "McConfig",
    "MetricEstimate",
    "NakagamiLink",
    "NumericalInstabilityWarning",
    "ProtocolKind",
    "SweepSpec",
    "SystemParams",
    "ValidationError",
    "estimate_all",
    "harvested_power",
    "ip_asymptotic",
    "ip_exact",
    "load_config",
    "loads_config",
    "optimal_reflection",
    "p1",
    "sop_asymptotic",
    "sop_exact",
]

__version__ = "0.1.0"
