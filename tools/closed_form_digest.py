"""Digests of every closed-form result over two fixed sets of evaluations, and
the committed file of pinned closed-form values.

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

Pinned values.  ``tests/data/closed_forms.jsonl`` holds one JSON line per
closed form at each pinned point (``pinned_points``), the 16 forms evaluated
forward on one params object.  Apart from the preset points, each pinned
point is the reference scenario, ``make_params`` of ``tests/conftest.py``
(the builder the tests use), called with the point's keyword arguments:

- at 46 points, the whole report: ``raw`` (the ``repr`` of ``raw_value``),
  ``messages`` (every instability message, in order) and ``terms`` (every
  breakdown label with the ``repr`` of its term, in order).  The points are
  ``make_params(**METS_FLAGGED)`` and ``make_params(n_tags=8, m=4)``, whose
  sums cancel, and the 44 preset points;
- at the other cells of ``RAW_CELLS`` (N, m) and ``MIXED_CELLS``
  (N, m_s, m_d, m_e), ``raw`` alone.

The ``repr`` strings are those of x86-64 Linux with glibc's libm.

``TestBitIdentity`` in ``tests/test_analytic.py`` compares its slices of the
file exactly.  After the agreement check, every run prints to stderr each
pinned entry that differs from the file, with its relative move, and then
rewrites the file; a run whose ways disagree leaves the file as it is.  So a
deliberate value move is this stderr list plus the file's git diff.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from conftest import make_params  # noqa: E402

PIN_FILE = ROOT / "tests" / "data" / "closed_forms.jsonl"

FORMS = tuple((fn, proto) for fn in (analytic.sop_exact, analytic.sop_asymptotic,
                                     analytic.ip_exact, analytic.ip_asymptotic)
              for proto in PROTOCOL_ORDER)
ORACLE_SEEDS = (1, 7, 11)
CELLS = ((8, 4), (16, 3), (12, 4), (6, 6))
CELL_GAMMA_T_DB = (0.0, 30.0, 60.0)
MIXED_SHAPES = tuple(s for s in itertools.product((1, 3, 6), repeat=3)
                     if len(set(s)) > 1) + ((1, 6, 2), (6, 1, 3), (4, 4, 1))

# Pinned points, as keyword arguments of make_params.  The weakest-eavesdropper
# moment sums trip the instability flag in both METS SOP forms at METS_FLAGGED.
# RAW_CELLS are (N, m) and MIXED_CELLS (N, m_s, m_d, m_e); a mixed cell
# separates m_s from (m_d - 1) theta1, which sizes the exact SOP's Bessel
# tables.
METS_FLAGGED = dict(n_tags=8, m=3, d_d=50.0, d_e=0.5, rate=3.0)
RAW_CELLS = {(n, m): dict(n_tags=n, m=m) for n, m in ((3, 2), (8, 4), (16, 3), (12, 4))}
MIXED_CELLS = {(n, s, d, e): dict(n_tags=n, m_s=s, m_d=d, m_e=e)
               for n in (3, 7) for s, d, e in ((1, 6, 2), (6, 1, 3), (4, 4, 1))}


def reference_name(kwargs: dict) -> str:
    return "reference " + " ".join(f"{key}={value!r}" for key, value in kwargs.items())


def preset_points() -> dict:
    """name -> params of the 44 preset points, e.g. 'fig2 gamma_t_db=0.0'."""
    out = {}
    for name in preset_names():
        spec = loads_config(preset_text(name))
        for value in spec.axis_values:
            out[f"{name} {spec.axis}={value!r}"] = apply_axis(spec.base, spec.axis, value)
    return out


def pinned_points() -> dict:
    """name -> (params, whole) of every pinned point, in file order.  whole is
    True at the 46 points whose reports are pinned whole: METS_FLAGGED, the
    (8, 4) cell and the preset points.  At the other cells only raw values are
    pinned."""
    points = {reference_name(kw): (make_params(**kw), True)
              for kw in (METS_FLAGGED, RAW_CELLS[8, 4])}
    points.update((name, (params, True)) for name, params in preset_points().items())
    for kw in (*RAW_CELLS.values(), *MIXED_CELLS.values()):
        points.setdefault(reference_name(kw), (make_params(**kw), False))
    return points


def _with_axes(params, settings):
    for axis, value in settings:
        params = apply_axis(params, axis, value)
    return params


def points() -> list:
    """The 1172 parameter points of the main set, in digest order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import OracleMixed

    out = []
    for seed in ORACLE_SEEDS:
        workload = OracleMixed(seed)
        for n, m, gamma_db, d_d, d_e, rate in workload.points:
            out.append(_with_axes(workload.bases[n], (
                ("m_all", m), ("gamma_t_db", gamma_db), ("d_d", d_d),
                ("d_e", d_e), ("rate", rate))))
    out += preset_points().values()
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
    """(report, instability messages in order) of one closed form."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NumericalInstabilityWarning)
        report = fn(proto, params)
    return report, tuple(str(w.message) for w in caught
                         if issubclass(w.category, NumericalInstabilityWarning))


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
        for report, messages in _results(replace(params), way):
            raw = repr(report.raw_value)
            full.update(f"{raw}\n{dict(report.term_breakdown)!r}\n".encode())
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


def pin_records(points: dict) -> dict:
    """{(point, form, rule): record} of the 16 forms at each point of a
    pinned_points() mapping, forward on one params object: raw, and for a whole
    point messages and terms too."""
    records = {}
    for name, (params, whole) in points.items():
        for (fn, proto), (report, messages) in zip(FORMS, _results(params, "forward")):
            record = {"point": name, "form": fn.__name__, "rule": proto.value,
                      "raw": repr(report.raw_value)}
            if whole:
                record["messages"] = list(messages)
                record["terms"] = {label: repr(term)
                                   for label, term in report.term_breakdown.items()}
            records[name, fn.__name__, proto.value] = record
    return records


def dumps(records: dict) -> str:
    """The records as the file holds them, one JSON line each."""
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records.values())


def read_pins() -> dict:
    """The records of the committed file, keyed as pin_records keys them."""
    records = {}
    for line in PIN_FILE.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        records[record["point"], record["form"], record["rule"]] = record
    return records


def _entries(record: dict) -> dict:
    """entry name -> pinned text of one record, in file order."""
    out = {"raw": record["raw"]} if "raw" in record else {}
    out.update((f"term {label}", term) for label, term in record.get("terms", {}).items())
    out.update((f"message {i}", text)
               for i, text in enumerate(record.get("messages", ()), start=1))
    return out


def _relative(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return ""
    return f" (relative move {(b - a) / abs(a):+.1e})" if a else ""


def moves(old: dict, new: dict) -> list:
    """One line per entry that differs between two record mappings, with its
    relative move where both sides are numbers, in file order."""
    lines = []
    for key in {**old, **new}:
        was, now = _entries(old.get(key, {})), _entries(new.get(key, {}))
        where = " ".join(key)
        for entry in {**was, **now}:
            a, b = was.get(entry), now.get(entry)
            if a == b:
                continue
            if a is None or b is None:
                lines.append(f"{where} {entry}: {'new' if a is None else 'gone'} "
                             f"{b if a is None else a}")
            else:
                lines.append(f"{where} {entry}: {a} -> {b}{_relative(a, b)}")
        if [e for e in was if e in now] != [e for e in now if e in was]:
            lines.append(f"{where}: entries reordered")
    if [k for k in old if k in new] != [k for k in new if k in old]:
        lines.append("records reordered")
    return lines


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
    records = pin_records(pinned_points())
    moved = moves(read_pins(), records)
    for line in moved:
        print(f"moved: {line}", file=sys.stderr)
    if agree:
        PIN_FILE.write_text(dumps(records), encoding="utf-8")
    print(f"{PIN_FILE.relative_to(ROOT)}: {len(moved)} entries moved, "
          f"{'rewritten' if agree else 'left as it is'}", file=sys.stderr)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
