"""Digest of every closed-form result over a fixed set of 18,752 evaluations.

Run from the repository root:

    PYTHONPATH=src python3 tools/closed_form_digest.py

The set is the 16 closed forms (SOP and IP, exact and asymptotic, four
selection rules) at each of 1172 parameter points:

- the 900 scenarios of the ``oracle_mixed`` benchmark workload at seeds 1, 7
  and 11 (read from ``perfbench/workloads.py``, which is only imported);
- the 44 points of the six bundled presets;
- the (8, 4), (16, 3), (12, 4) and (6, 6) cells (N, m) of the fig2 base at
  gamma_t 0, 30 and 60 dB;
- an extreme grid on the fig2 base: N 2/4/8, m 1..3, gamma_t -20/40/100 dB,
  d_d and d_e 0.5/50, R 0.1/3 (216 points).

Each evaluation contributes ``repr(raw_value)``, ``repr(dict(term_breakdown))``
and the message of every ``NumericalInstabilityWarning`` it raised.  The set is
evaluated three ways: the 16 forms forward on one params object, in reverse on
one object, and each form on its own ``dataclasses.replace(params)``.  Each
way hashes the evaluations in the forward order, so the three digests agree
when sharing terms between the forms of one object changes nothing.  A change
that keeps the closed forms bit for bit leaves the digest and both counts as
they were.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from backsec import analytic
from backsec.config import apply_axis, loads_config, preset_names, preset_text
from backsec.errors import NumericalInstabilityWarning
from backsec.montecarlo import PROTOCOL_ORDER

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import OracleMixed  # noqa: E402

FORMS = tuple((fn, proto) for fn in (analytic.sop_exact, analytic.sop_asymptotic,
                                     analytic.ip_exact, analytic.ip_asymptotic)
              for proto in PROTOCOL_ORDER)
ORACLE_SEEDS = (1, 7, 11)
CELLS = ((8, 4), (16, 3), (12, 4), (6, 6))
CELL_GAMMA_T_DB = (0.0, 30.0, 60.0)


def _with_axes(params, settings):
    for axis, value in settings:
        params = apply_axis(params, axis, value)
    return params


def points() -> list:
    """The 1172 parameter points, in digest order."""
    out = []
    for seed in ORACLE_SEEDS:
        workload = OracleMixed(seed)
        for n, m, gamma_db, d_d, d_e, rate in workload.points:
            out.append(_with_axes(workload.bases[n], (
                ("m_all", m), ("gamma_t_db", gamma_db), ("d_d", d_d),
                ("d_e", d_e), ("rate", rate))))
    for name in preset_names():
        spec = loads_config(preset_text(name))
        out += [apply_axis(spec.base, spec.axis, v) for v in spec.axis_values]
    base = loads_config(preset_text("fig2")).base
    for gamma_db in CELL_GAMMA_T_DB:
        for n, m in CELLS:
            out.append(_with_axes(replace(base, n_tags=n),
                                  (("m_all", m), ("gamma_t_db", gamma_db))))
    for n, m, gamma_db, d_d, d_e, rate in itertools.product(
            (2, 4, 8), (1, 2, 3), (-20.0, 40.0, 100.0), (0.5, 50.0), (0.5, 50.0),
            (0.1, 3.0)):
        out.append(_with_axes(replace(base, n_tags=n), (
            ("m_all", m), ("gamma_t_db", gamma_db), ("d_d", d_d), ("d_e", d_e),
            ("rate", rate))))
    return out


def _evaluate(fn, proto, params) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NumericalInstabilityWarning)
        report = fn(proto, params)
    messages = tuple(str(w.message) for w in caught
                     if issubclass(w.category, NumericalInstabilityWarning))
    return repr(report.raw_value), repr(dict(report.term_breakdown)), messages


def _results(params, way: str) -> list:
    """The 16 results of one point, in FORMS order, evaluated the given way."""
    if way == "fresh":
        return [_evaluate(fn, proto, replace(params)) for fn, proto in FORMS]
    order = range(len(FORMS)) if way == "forward" else reversed(range(len(FORMS)))
    results = {i: _evaluate(*FORMS[i], params) for i in order}
    return [results[i] for i in range(len(FORMS))]


def digest(way: str) -> tuple:
    """(SHA-256 hex, evaluations, warnings, flagged evaluations) for one way."""
    h = hashlib.sha256()
    evaluations = n_warnings = flagged = 0
    for params in points():
        for raw, breakdown, messages in _results(replace(params), way):
            h.update(f"{raw}\n{breakdown}\n".encode())
            for message in messages:
                h.update(f"! {message}\n".encode())
            evaluations += 1
            n_warnings += len(messages)
            flagged += bool(messages)
    return h.hexdigest(), evaluations, n_warnings, flagged


def main() -> int:
    rows = {way: digest(way) for way in ("forward", "reversed", "fresh")}
    for way, (hexdigest, evaluations, n_warnings, flagged) in rows.items():
        print(f"{way:9s} sha256={hexdigest} evaluations={evaluations} "
              f"warnings={n_warnings} flagged={flagged}")
    agree = len(set(rows.values())) == 1
    print("ways agree" if agree else "WAYS DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
