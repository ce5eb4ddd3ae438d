"""Flat key-value config documents, sweep specifications, and CSV emission.

Config syntax: one `key = value` per line, `#` comments, blank lines ignored.
Values may carry a unit suffix: dB (converted as 10^(x/10)), m, uW, W.  Bare
numbers are linear / SI base units.  Every number, `axis_values` items too,
has one grammar and must be finite once its unit is applied.  The circuit
draw `p_c` has no default on purpose: the bundled harvester constants are
internally inconsistent without an explicit choice, so every config must
state it.
"""

from __future__ import annotations

import importlib.resources
import math
import re
from dataclasses import dataclass, replace
from operator import attrgetter

from .channel import NakagamiLink
from .ehmodel import EhParams
from .errors import ConfigParseError, ValidationError
from .montecarlo import McConfig, PROTOCOL_ORDER
from .system import ProtocolKind, SystemParams

__all__ = ["SweepSpec", "load_config", "loads_config", "preset_names", "preset_text"]

AXES = ("gamma_t_db", "d_d", "d_e", "rate", "m_all")
METHODS = ("exact", "asymptotic", "mc")

_DB = "db"
_POWER = "power"
_DISTANCE = "dist"
_PLAIN = "plain"
_INT = "int"
_WORDS = "words"
_FLOATS = "floats"


def _link(family: str, attr: str):
    return lambda spec: getattr(spec.base.links_of(family)[0], attr)


# key -> (kind, default in config syntax or None where the config must set the
# key, reader of the resolved value from a SweepSpec).  Defaults are parsed
# like user values; to_text emits str() of each reader, in this order.
_KEYS = {
    "metric": (_WORDS, "sop", attrgetter("metric")),
    "methods": (_WORDS, "exact, asymptotic, mc", lambda s: ", ".join(s.methods)),
    "protocols": (_WORDS, "sots, mets, ots, rts",
                  lambda s: ", ".join(p.value for p in s.protocols)),
    "axis": (_WORDS, "gamma_t_db", attrgetter("axis")),
    "axis_values": (_FLOATS, "0, 5, 10, 15, 20, 25, 30, 35, 40",
                    lambda s: ", ".join(map(str, s.axis_values))),
    "gamma_t": (_DB, "30 dB", attrgetter("base.gamma_t")),
    "p_tx": (_POWER, "1 W", attrgetter("base.p_tx")),
    "gamma_p": (_DB, "5 dB", attrgetter("base.gamma_p")),
    "zeta": (_PLAIN, "2.2", attrgetter("base.zeta")),
    "n_tags": (_INT, "3", attrgetter("base.n_tags")),
    "rate": (_PLAIN, "0.5", attrgetter("base.rate_threshold")),
    "m_sk": (_INT, "2", _link("s", "m")),
    "m_kd": (_INT, "2", _link("d", "m")),
    "m_ke": (_INT, "2", _link("e", "m")),
    "lambda_sk": (_DB, "2 dB", _link("s", "lambda_tilde")),
    "lambda_kd": (_DB, "3 dB", _link("d", "lambda_tilde")),
    "lambda_ke": (_DB, "5 dB", _link("e", "lambda_tilde")),
    "d_s": (_DISTANCE, "1 m", _link("s", "distance")),
    "d_d": (_DISTANCE, "2 m", _link("d", "distance")),
    "d_e": (_DISTANCE, "4 m", _link("e", "distance")),
    "u_s": (_PLAIN, "2", _link("s", "pathloss_exp")),
    "u_d": (_PLAIN, "2", _link("d", "pathloss_exp")),
    "u_e": (_PLAIN, "2", _link("e", "pathloss_exp")),
    # not "200 uW" / "5 uW": 200 * 1e-6 and 5 * 1e-6 are not 2e-4 and 5e-6
    "p_max": (_POWER, "2e-4 W", attrgetter("base.eh.p_max")),
    "xi0": (_POWER, "5e-6 W", attrgetter("base.eh.xi0")),
    "xi1": (_PLAIN, "5000", attrgetter("base.eh.xi1")),
    "xi2": (_PLAIN, "2e-4", attrgetter("base.eh.xi2")),
    "p_c": (_POWER, None, attrgetter("base.eh.p_c")),
    "trials": (_INT, "1000000", attrgetter("mc.trials")),
    "seed": (_INT, "1", attrgetter("mc.seed")),
    "batch_size": (_INT, "65536", attrgetter("mc.batch_size")),
    "workers": (_INT, "1", attrgetter("mc.workers")),
}

_NUM_UNIT = re.compile(
    r"^\s*([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z]*)\s*$")


def _from_db(x: float) -> float:
    """10^(x/10), or inf where that leaves the float range."""
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        return math.inf


# kind -> the unit suffixes its keys accept, each with its conversion to SI units
_UNITS = {_DB: {"dB": _from_db}, _DISTANCE: {"m": float},
          _POWER: {"W": float, "uW": lambda x: x * 1e-6}}


def _parse_scalar(key: str, kind: str, raw: str, line_no: int) -> float:
    """One number with an optional unit suffix, in linear SI units; it must
    be finite once the unit is applied."""
    m = _NUM_UNIT.match(raw)
    if not m:
        raise ConfigParseError(f"cannot parse value {raw!r} for key {key!r}", line_no)
    value, unit = float(m.group(1)), m.group(2)
    if unit:
        convert = _UNITS.get(kind, {}).get(unit)
        if convert is None:
            raise ConfigParseError(f"key {key!r} does not accept the unit {unit!r}", line_no)
        value = convert(value)
    if not math.isfinite(value):
        raise ConfigParseError(f"value {raw!r} for key {key!r} is outside the float range", line_no)
    return value


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved sweep: which metric/methods/protocols to evaluate,
    the axis to walk, the base scenario, and the simulation budget."""

    metric: str
    methods: tuple
    protocols: tuple
    axis: str
    axis_values: tuple
    base: SystemParams
    mc: McConfig

    def to_text(self) -> str:
        """Emit the resolved configuration (all linear units); reloading the
        result reproduces this spec exactly."""
        self.base.require_homogeneous()
        lines = ["# resolved configuration (linear units)"]
        lines += [f"{key} = {read(self)}" for key, (_, _, read) in _KEYS.items()]
        return "\n".join(lines) + "\n"


def _parse_lines(text: str) -> dict:
    parsed = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {raw_line.strip()!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigParseError(f"unknown key {key!r}", line_no)
        if not value:
            raise ConfigParseError(f"empty value for key {key!r}", line_no)
        parsed[key] = (value, line_no)
    return parsed


def loads_config(text: str) -> SweepSpec:
    """Parse and validate a config document from a string."""
    parsed = _parse_lines(text)

    def get(key: str):
        kind, default, _ = _KEYS[key]
        value, line_no = parsed.get(key, (default, 0))
        if value is None:
            raise ValidationError(
                f"config must set {key!r} explicitly (e.g. 'p_c = 100 uW'); "
                "the stock harvester constants leave it ambiguous"
            )
        if kind == _WORDS:
            return tuple(w.strip().lower() for w in value.split(",") if w.strip())
        if kind == _FLOATS:
            return tuple(_parse_scalar(key, _PLAIN, tok, line_no)
                         for tok in map(str.strip, value.split(",")) if tok)
        scalar = _parse_scalar(key, kind, value, line_no)
        if kind == _INT:
            if scalar != int(scalar):
                raise ConfigParseError(f"key {key!r} must be an integer", line_no)
            return int(scalar)
        return scalar

    metric_words = get("metric")
    if len(metric_words) != 1 or metric_words[0] not in ("sop", "ip"):
        raise ValidationError(f"metric must be 'sop' or 'ip', got {metric_words}")
    metric = metric_words[0]

    methods = get("methods")
    bad = [m for m in methods if m not in METHODS]
    if bad or not methods:
        raise ValidationError(f"methods must be a subset of {METHODS}, got {methods}")
    methods = tuple(m for m in METHODS if m in methods)

    proto_words = get("protocols")
    try:
        chosen = tuple(ProtocolKind(w) for w in proto_words)
    except ValueError:
        raise ValidationError(f"protocols must be among sots/mets/ots/rts, got {proto_words}") from None
    if not chosen:
        raise ValidationError("protocols must not be empty")
    protocols = tuple(p for p in PROTOCOL_ORDER if p in chosen)

    axis_words = get("axis")
    if len(axis_words) != 1 or axis_words[0] not in AXES:
        raise ValidationError(f"axis must be one of {AXES}, got {axis_words}")
    axis = axis_words[0]

    axis_values = get("axis_values")
    if not axis_values:
        raise ValidationError("axis_values must not be empty")
    if any(b <= a for a, b in zip(axis_values, axis_values[1:])):
        raise ValidationError(f"axis_values must be strictly increasing, got {axis_values}")

    eh = EhParams(p_max=get("p_max"), xi0=get("xi0"), xi1=get("xi1"),
                  xi2=get("xi2"), p_c=get("p_c"))
    base = SystemParams(
        p_tx=get("p_tx"),
        gamma_t=get("gamma_t"),
        gamma_p=get("gamma_p"),
        zeta=get("zeta"),
        n_tags=get("n_tags"),
        rate_threshold=get("rate"),
        link_s=NakagamiLink.from_lambda_tilde(get("m_sk"), get("lambda_sk"), get("d_s"), get("u_s")),
        link_d=NakagamiLink.from_lambda_tilde(get("m_kd"), get("lambda_kd"), get("d_d"), get("u_d")),
        link_e=NakagamiLink.from_lambda_tilde(get("m_ke"), get("lambda_ke"), get("d_e"), get("u_e")),
        eh=eh,
    )
    for value in axis_values:  # every sweep point must be a valid scenario
        apply_axis(base, axis, value)
    mc = McConfig(trials=get("trials"), seed=get("seed"),
                  batch_size=get("batch_size"), workers=get("workers"))
    return SweepSpec(metric=metric, methods=methods, protocols=protocols,
                     axis=axis, axis_values=axis_values, base=base, mc=mc)


def load_config(path) -> SweepSpec:
    """Parse and validate a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def _map_links(base: SystemParams, families: str, change) -> SystemParams:
    """Apply change to every tag's link of each family, so per-tag links
    keep their differences in every field the change leaves alone."""
    new = {}
    for fam in families:
        value = getattr(base, "link_" + fam)
        new["link_" + fam] = (change(value) if isinstance(value, NakagamiLink)
                              else tuple(change(link) for link in value))
    return replace(base, **new)


def apply_axis(base: SystemParams, axis: str, value: float) -> SystemParams:
    """Scenario at one sweep point.  gamma_t_db rescales transmit power at
    fixed noise; m_all changes the shapes keeping each lambda_tilde fixed."""
    if axis == "gamma_t_db":
        return base.with_transmit_snr(_from_db(value))
    if axis in ("d_d", "d_e"):
        return _map_links(base, axis[-1], lambda link: replace(link, distance=value))
    if axis == "rate":
        return replace(base, rate_threshold=value)
    if axis == "m_all":
        return _map_links(base, "sde", lambda link: NakagamiLink.from_lambda_tilde(
            value, link.lambda_tilde, link.distance, link.pathloss_exp))
    raise ValidationError(f"unknown axis {axis!r}")


def preset_names() -> tuple:
    root = importlib.resources.files("backsec") / "presets"
    return tuple(sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg")))


def preset_text(name: str) -> str:
    resource = importlib.resources.files("backsec") / "presets" / f"{name}.cfg"
    try:
        return resource.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
