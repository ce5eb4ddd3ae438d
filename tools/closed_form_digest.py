"""Digests of every closed-form result over two fixed sets of evaluations.

Run from the repository root:

    PYTHONPATH=src python3 tools/closed_form_digest.py

The main set is the 16 closed forms (SOP and IP, exact and asymptotic, four
selection rules) at each of 1172 parameter points, 18,752 evaluations:

- the 900 scenarios of the ``oracle_mixed`` benchmark workload at seeds 1, 7
  and 11 (read from ``perfbench/workloads.py``, which is only imported);
- the 44 points of the six bundled presets;
- the (8, 4), (16, 3), (12, 4) and (6, 6) cells (N, m) of the fig2 base at
  gamma_t 0, 30 and 60 dB;
- an extreme grid on the fig2 base: N 2/4/8, m 1..3, gamma_t -20/40/100 dB,
  d_d and d_e 0.5/50, R 0.1/3 (216 points).

Every link has one shape m in that set.  The mixed-shape set, printed on its
own lines, gives the source, destination and eavesdropper links their own
shapes (m_s, m_d, m_e): every triple over 1/3/6 that is not one m on all
links, plus (1, 6, 2), (6, 1, 3) and (4, 4, 1), each with N 2/3/7, gamma_t
0/30/60 dB and R 0.5/3 on the fig2 base (486 points, 7776 evaluations).  It
covers m_s above and below (m_d - 1) theta1, which sets the order of the
Bessel tables the exact SOP reads.

Each evaluation contributes ``repr(raw_value)``, ``repr(dict(term_breakdown))``
and the message of every ``NumericalInstabilityWarning`` it raised to the full
digest (``sha256=``), and the same without the breakdown to the values digest
(``values=``).  The raw values alone go to the raw digest (``raw=``): a change
that adds or removes warnings but moves no value keeps it.  The raw values of
the evaluations that raised no warning go to a fourth digest (``unflagged=``):
a change that moves only flagged values keeps it.  A last line per set counts
the warnings by label, the message text before the first ``:``, so a change
that moves only flags names the check that moved.  The tool reads only public
names, so the same file runs against an older ``src/``.

The set is evaluated three ways: the 16 forms forward on one params object, in
reverse on one object, and each form on its own
``dataclasses.replace(params)``.  Each way hashes the evaluations in the
forward order, so the three ways agree when sharing terms between the forms of
one object changes nothing.  A change that keeps the closed forms bit for bit
leaves every digest and count as they were; one that renames or adds
breakdown parts but keeps every number and warning moves the full digest and
keeps the values digest.

The wall time of each set and way goes to stderr, so stdout stays the same
from run to run and a speed-up is measured by the same run that shows it
kept every bit.  Ways after the first reuse what the package caches for the
life of the process (the composition lists and deltas of `backsec.specfun`),
so the first way of each set pays for filling those caches.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

from backsec import analytic
from backsec.channel import NakagamiLink
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
MIXED_SHAPES = tuple(s for s in itertools.product((1, 3, 6), repeat=3)
                     if len(set(s)) > 1) + ((1, 6, 2), (6, 1, 3), (4, 4, 1))


def _with_axes(params, settings):
    for axis, value in settings:
        params = apply_axis(params, axis, value)
    return params


def points() -> list:
    """The 1172 parameter points of the main set, in digest order."""
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


def mixed_points() -> list:
    """The 486 mixed-shape parameter points, in digest order."""
    base = loads_config(preset_text("fig2")).base
    out = []
    for shapes, n, gamma_db, rate in itertools.product(
            MIXED_SHAPES, (2, 3, 7), CELL_GAMMA_T_DB, (0.5, 3.0)):
        links = {}
        for field, fam, m in zip(("link_s", "link_d", "link_e"), "sde", shapes):
            link = base.links_of(fam)[0]
            links[field] = NakagamiLink.from_lambda_tilde(
                m, link.lambda_tilde, link.distance, link.pathloss_exp)
        out.append(_with_axes(replace(base, n_tags=n, **links),
                              (("gamma_t_db", gamma_db), ("rate", rate))))
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


def digest(point_set: list, way: str) -> tuple:
    """(full, values, raw and unflagged SHA-256 hex, evaluations, warnings,
    flagged evaluations, sorted (label, warnings) pairs) of one set, evaluated
    one way."""
    full, values, raws, unflagged = (hashlib.sha256() for _ in range(4))
    evaluations = n_warnings = flagged = 0
    labels = collections.Counter()
    for params in point_set:
        for raw, breakdown, messages in _results(replace(params), way):
            full.update(f"{raw}\n{breakdown}\n".encode())
            values.update(f"{raw}\n".encode())
            raws.update(f"{raw}\n".encode())
            for message in messages:
                full.update(f"! {message}\n".encode())
                values.update(f"! {message}\n".encode())
                labels[message.split(":", 1)[0]] += 1
            if not messages:
                unflagged.update(f"{raw}\n".encode())
            evaluations += 1
            n_warnings += len(messages)
            flagged += bool(messages)
    return (full.hexdigest(), values.hexdigest(), raws.hexdigest(), unflagged.hexdigest(),
            evaluations, n_warnings, flagged, tuple(sorted(labels.items())))


def main() -> int:
    agree = True
    for prefix, point_set in (("", points()), ("mixed ", mixed_points())):
        rows = {}
        for way in ("forward", "reversed", "fresh"):
            start = time.perf_counter()
            rows[way] = digest(point_set, way)
            print(f"{prefix}{way:9s} {time.perf_counter() - start:.2f} s", file=sys.stderr)
        for way, (full, values, raw, unflagged, evaluations, n_warnings, flagged,
                  _) in rows.items():
            print(f"{prefix}{way:9s} sha256={full} values={values} raw={raw} "
                  f"unflagged={unflagged} evaluations={evaluations} warnings={n_warnings} "
                  f"flagged={flagged}")
        labels = rows["forward"][-1]
        print(f"{prefix}warnings by label: "
              + "; ".join(f"{label}={count}" for label, count in labels))
        agree = agree and len(set(rows.values())) == 1
    print("ways agree" if agree else "WAYS DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
