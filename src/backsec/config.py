"""Flat key-value config documents and sweep specifications (the sweep CSV is
written by `cli.run_sweep`).

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
from decimal import Decimal

from .channel import NakagamiLink
from .ehmodel import EhParams
from .errors import ConfigParseError, ValidationError
from .montecarlo import McConfig, PROTOCOL_ORDER
from .system import ProtocolKind, SystemParams

__all__ = ["SweepSpec", "load_config", "loads_config", "preset_names", "preset_text"]

AXES = ("gamma_t_db", "d_d", "d_e", "rate", "m_all")
METHODS = ("exact", "asymptotic", "mc")
# word-valued key -> (its allowed values in canonical order, whether it takes
# exactly one); a value's word is how to_text prints it
_CHOICES = {"metric": (("sop", "ip"), True), "methods": (METHODS, False),
            "protocols": (PROTOCOL_ORDER, False), "axis": (AXES, True)}

_DB = "db"
_POWER = "power"
_DISTANCE = "dist"
_PLAIN = "plain"
_INT = "int"
_WORDS = "words"
_FLOATS = "floats"


# key -> (kind, default in config syntax or None where the config must set the
# key, owner, field): the field of the SweepSpec ("spec"), of its base scenario
# ("base"), harvester ("eh"), link family ("s", "d", "e") or budget ("mc") that
# the key sets.  Defaults are parsed like user values; to_text prints each
# field back, in this order.
_KEYS = {
    "metric": (_WORDS, "sop", "spec", "metric"),
    "methods": (_WORDS, "exact, asymptotic, mc", "spec", "methods"),
    "protocols": (_WORDS, "sots, mets, ots, rts", "spec", "protocols"),
    "axis": (_WORDS, "gamma_t_db", "spec", "axis"),
    "axis_values": (_FLOATS, "0, 5, 10, 15, 20, 25, 30, 35, 40", "spec", "axis_values"),
    "gamma_t": (_DB, "30 dB", "base", "gamma_t"),
    "p_tx": (_POWER, "1 W", "base", "p_tx"),
    "gamma_p": (_DB, "5 dB", "base", "gamma_p"),
    "zeta": (_PLAIN, "2.2", "base", "zeta"),
    "n_tags": (_INT, "3", "base", "n_tags"),
    "rate": (_PLAIN, "0.5", "base", "rate_threshold"),
    "m_sk": (_INT, "2", "s", "m"),
    "m_kd": (_INT, "2", "d", "m"),
    "m_ke": (_INT, "2", "e", "m"),
    "lambda_sk": (_DB, "2 dB", "s", "lambda_tilde"),
    "lambda_kd": (_DB, "3 dB", "d", "lambda_tilde"),
    "lambda_ke": (_DB, "5 dB", "e", "lambda_tilde"),
    "d_s": (_DISTANCE, "1 m", "s", "distance"),
    "d_d": (_DISTANCE, "2 m", "d", "distance"),
    "d_e": (_DISTANCE, "4 m", "e", "distance"),
    "u_s": (_PLAIN, "2", "s", "pathloss_exp"),
    "u_d": (_PLAIN, "2", "d", "pathloss_exp"),
    "u_e": (_PLAIN, "2", "e", "pathloss_exp"),
    # not "200 uW" / "5 uW": 200 * 1e-6 and 5 * 1e-6 are not 2e-4 and 5e-6
    "p_max": (_POWER, "2e-4 W", "eh", "p_max"),
    "xi0": (_POWER, "5e-6 W", "eh", "xi0"),
    "xi1": (_PLAIN, "5000", "eh", "xi1"),
    "xi2": (_PLAIN, "2e-4", "eh", "xi2"),
    "p_c": (_POWER, None, "eh", "p_c"),
    "trials": (_INT, "1000000", "mc", "trials"),
    "seed": (_INT, "1", "mc", "seed"),
    "batch_size": (_INT, "65536", "mc", "batch_size"),
    "workers": (_INT, "1", "mc", "workers"),
}


def _show(value) -> str:
    """A resolved field in config syntax: a tuple as its items joined by ', ',
    a ProtocolKind as its value."""
    if isinstance(value, tuple):
        return ", ".join(map(_show, value))
    return value.value if isinstance(value, ProtocolKind) else str(value)


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
        owners = {"spec": self, "base": self.base, "eh": self.base.eh, "mc": self.mc,
                  **dict(zip("sde", self.base.require_homogeneous()))}
        lines = ["# resolved configuration (linear units)"]
        lines += [f"{key} = {_show(getattr(owners[owner], field))}"
                  for key, (_, _, owner, field) in _KEYS.items()]
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


def _read(key: str, kind: str, raw: str, line_no: int):
    """The resolved value of one key.  A word-valued key names exactly one
    allowed value, or a non-empty subset of them returned in canonical order."""
    if kind == _WORDS:
        choices, single = _CHOICES[key]
        given = [w.strip().lower() for w in raw.split(",") if w.strip()]
        words = [_show(c) for c in choices]
        if not given or not set(given) <= set(words) or single and len(given) != 1:
            rule = "one of" if single else "a non-empty subset of"
            raise ValidationError(f"{key} must be {rule} {', '.join(words)}; got {raw!r}")
        chosen = tuple(c for c, w in zip(choices, words) if w in given)
        return chosen[0] if single else chosen
    if kind == _FLOATS:
        return tuple(_parse_scalar(key, _PLAIN, tok, line_no)
                     for tok in map(str.strip, raw.split(",")) if tok)
    scalar = _parse_scalar(key, kind, raw, line_no)
    if kind == _INT:
        # the literal itself, not its float: 2^53 + 1 and 2^64 - 1 are exact
        exact = Decimal(_NUM_UNIT.match(raw).group(1))
        if exact != exact.to_integral_value():
            raise ConfigParseError(f"key {key!r} must be an integer", line_no)
        return int(exact)
    return scalar


def loads_config(text: str) -> SweepSpec:
    """Parse and validate a config document from a string."""
    parsed = _parse_lines(text)
    fields = {owner: {} for _, _, owner, _ in _KEYS.values()}
    for key, (kind, default, owner, field) in _KEYS.items():
        raw, line_no = parsed.get(key, (default, 0))
        if raw is None:
            raise ValidationError(
                f"config must set {key!r} explicitly (e.g. 'p_c = 100 uW'); "
                "the stock harvester constants leave it ambiguous"
            )
        fields[owner][field] = _read(key, kind, raw, line_no)

    axis, axis_values = fields["spec"]["axis"], fields["spec"]["axis_values"]
    if not axis_values:
        raise ValidationError("axis_values must not be empty")
    if any(b <= a for a, b in zip(axis_values, axis_values[1:])):
        raise ValidationError(f"axis_values must be strictly increasing, got {axis_values}")
    base = SystemParams(**fields["base"], eh=EhParams(**fields["eh"]),
                        **{f"link_{fam}": NakagamiLink.from_lambda_tilde(**fields[fam])
                           for fam in "sde"})
    for value in axis_values:  # every sweep point must be a valid scenario
        apply_axis(base, axis, value)
    return SweepSpec(**fields["spec"], base=base, mc=McConfig(**fields["mc"]))


def load_config(path) -> SweepSpec:
    """Parse and validate a config file; a file that cannot be read as UTF-8
    text is a ValidationError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"config file {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return loads_config(text)


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
