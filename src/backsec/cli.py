"""Command-line interface: parameter sweeps to CSV, config validation, and a
single-point comparison of exact, asymptotic, and simulated values.

Exit codes: 0 success, 2 configuration error, 3 a closed form raised the
numerical-instability flag (output is still written in full).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace

from . import analytic
from .config import SweepSpec, apply_axis, load_config, loads_config, preset_names, preset_text
from .errors import ConfigParseError, NumericalInstabilityWarning, ValidationError
from .montecarlo import PROTOCOL_ORDER, estimate_all
from .system import ProtocolKind

__all__ = ["main", "run_sweep"]

CSV_HEADER = "axis_name,axis_value,protocol,method,value,stderr,trials"

_EXACT = {"sop": analytic.sop_exact, "ip": analytic.ip_exact}
_ASYMPTOTIC = {"sop": analytic.sop_asymptotic, "ip": analytic.ip_asymptotic}


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the sweep and return the full CSV document (LF endings).

    One row per (axis value, protocol, method); stderr and trials are empty
    for the closed forms.  Nothing is emitted until every point succeeded.
    """
    lines = [CSV_HEADER]
    for value in spec.axis_values:
        params = apply_axis(spec.base, spec.axis, value)
        mc_results = estimate_all(params, spec.mc) if "mc" in spec.methods else None
        for proto in spec.protocols:
            for method in spec.methods:
                if method == "exact":
                    v, se, tr = _EXACT[spec.metric](proto, params).value, "", ""
                elif method == "asymptotic":
                    v, se, tr = _ASYMPTOTIC[spec.metric](proto, params).value, "", ""
                else:
                    est = mc_results[(proto, spec.metric)]
                    v, se, tr = est.p_hat, repr(est.stderr), str(est.trials)
                lines.append(
                    f"{spec.axis},{value!r},{proto.value},{method},{v!r},{se},{tr}"
                )
    return "\n".join(lines) + "\n"


def _load_spec(args) -> SweepSpec:
    if getattr(args, "point", None):
        bad = [tok for tok in args.point if "=" not in tok]
        if bad:
            raise ValidationError(f"oracle point entries must look like key=value, got {bad}")
        spec = loads_config("\n".join(" = ".join(part.strip() for part in tok.split("=", 1))
                                      for tok in args.point))
    elif args.preset:
        spec = loads_config(preset_text(args.preset))
    else:
        spec = load_config(args.config)
    mc = spec.mc
    if getattr(args, "seed", None) is not None:
        mc = replace(mc, seed=args.seed)
    if getattr(args, "trials", None) is not None:
        mc = replace(mc, trials=args.trials)
    return replace(spec, mc=mc)


def _write(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _run_flagged(compute, emit) -> int:
    """emit(compute()); then one stderr line per NumericalInstabilityWarning
    that compute raised, and exit code 3 if there was any, else 0.  Every
    other warning compute raised is issued again after the output, with its
    category, file and line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NumericalInstabilityWarning)
        result = compute()
    emit(result)
    flagged = 0
    for w in caught:
        if issubclass(w.category, NumericalInstabilityWarning):
            print(f"instability: {w.message}", file=sys.stderr)
            flagged += 1
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)
    return 3 if flagged else 0


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        # fail before the sweep runs, not after
        raise ValidationError(f"cannot write --out {args.out}: no such directory")
    return _run_flagged(lambda: run_sweep(spec), lambda csv_doc: _write(csv_doc, args.out))


def _cmd_validate(args) -> int:
    spec = _load_spec(args)
    sys.stdout.write(spec.to_text())
    return 0


def _cmd_oracle(args) -> int:
    spec = _load_spec(args)
    params, mc = spec.base, spec.mc

    def compute():
        estimates = estimate_all(params, mc)
        return [(metric, proto.value,
                 _EXACT[metric](proto, params).value,
                 _ASYMPTOTIC[metric](proto, params).value,
                 estimates[(proto, metric)].p_hat, estimates[(proto, metric)].stderr)
                for metric in ("sop", "ip") for proto in PROTOCOL_ORDER]

    def emit(rows):
        print(f"{'metric':6s} {'protocol':8s} {'exact':>12s} {'asymptotic':>12s} "
              f"{'mc':>12s} {'mc_stderr':>12s}")
        for metric, proto, ex, asym, mc_v, se in rows:
            print(f"{metric:6s} {proto:8s} {ex:12.6g} {asym:12.6g} {mc_v:12.6g} {se:12.3g}")
        print(f"(mc trials = {mc.trials}, seed = {mc.seed}, batch_size = {mc.batch_size})")

    return _run_flagged(compute, emit)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backsec",
        description="Secrecy outage / intercept probability of an energy-harvesting "
                    "backscatter network with tag selection under Nakagami-m fading.",
        epilog="Config values accept unit suffixes dB, m, uW, W; bare numbers are "
               "linear (SI base) units.  Power-ratio quantities given in dB are "
               "converted as 10^(x/10).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    validate = sub.add_parser("validate", help="parse a config and echo resolved values")
    for command in (sweep, validate):  # giving both or neither is a usage error
        source = command.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="path to a config file")
        source.add_argument("--preset", choices=preset_names(), help="bundled sweep preset")
    sweep.add_argument("--out", help="output CSV path (default: stdout)")
    sweep.add_argument("--seed", type=int, help="override the Monte Carlo seed")
    sweep.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
    sweep.set_defaults(func=_cmd_sweep)
    validate.set_defaults(func=_cmd_validate)

    oracle = sub.add_parser(
        "oracle", help="exact vs asymptotic vs Monte Carlo at one parameter point")
    oracle.add_argument("--point", nargs="+", required=True, metavar="KEY=VALUE",
                        help="inline parameters, e.g. gamma_t=30dB n_tags=4 p_c=100uW")
    oracle.add_argument("--seed", type=int, help="override the Monte Carlo seed")
    oracle.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
    oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0), already printed
        return exc.code
    try:
        return args.func(args)
    except (ConfigParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
