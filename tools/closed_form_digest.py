"""Every closed-form value over two fixed sets of points, pinned in one
committed file, and a digest of every breakdown.

Run from the repository root:

    PYTHONPATH=src python3 tools/closed_form_digest.py

The main set is the 16 closed forms (SOP and IP, exact and asymptotic, four
selection rules) at each of 1172 named parameter points, 18,752 evaluations:

- ``oracle seed=S #K N=n m=m``: the 900 scenarios of the ``oracle_mixed``
  benchmark workload at seeds 1, 7 and 11 (read from
  ``perfbench/workloads.py``, which ``points()`` loads by file path, leaving
  ``sys.path`` and ``sys.modules`` as they were);
- ``fig2 gamma_t_db=0.0`` and so on: the 44 points of the six bundled presets;
- ``cell N=8 m=4 gamma_t_db=30.0`` and so on: the (8, 4), (16, 3), (12, 4)
  and (6, 6) cells (N, m) of the fig2 base at gamma_t 0, 30 and 60 dB;
- ``grid N=2 m=1 gamma_t_db=-20.0 d_d=0.5 d_e=0.5 rate=0.1`` and so on: an
  extreme grid on the fig2 base, N 2/4/8, m 1..3, gamma_t -20/40/100 dB, d_d
  and d_e 0.5/50, R 0.1/3 (216 points).

Every link has one shape m in that set.  The mixed-shape set gives the
source, destination and eavesdropper links their own shapes
(``mixed m_s=1 m_d=1 m_e=3 N=2 gamma_t_db=0.0 rate=0.5`` and so on): every
triple over 1/3/6 that is not one m on all links, plus (1, 6, 2), (6, 1, 3)
and (4, 4, 1), each with N 2/3/7, gamma_t 0/30/60 dB and R 0.5/3 on the fig2
base (486 points, 7776 evaluations).  (6, 1, 3) is also a triple over
1/3/6, so its second 18 points repeat the first and their names end in
``again``.  The set covers m_s above and below
(m_d - 1) theta1, which sets the order of the Bessel tables the exact SOP
reads.

``tests/data/closed_forms.jsonl`` holds one JSON line per point of both sets,
main set first: the point's name, the ``repr`` of each form's raw value in
``FORMS`` order (``raw``), and each form's instability messages in order
(``messages``).  At 46 points whose reports are pinned whole, the 44 preset
points and the two of ``WHOLE``, the line also holds each form's breakdown
terms, every label with the ``repr`` of its term (``terms``).  The ``repr``
strings are those of x86-64 Linux with glibc's libm.
``tests/test_analytic.py`` compares the file exactly with one forward pass of
``evaluate``.

Every breakdown term at every point goes to one digest per set
(``sha256=``): each evaluation's ``repr(raw_value)``,
``repr(dict(term_breakdown))`` and instability messages.  With it the tool
prints the evaluation, warning and flagged-evaluation counts of each set and
its warnings by label, the message text before the first ``:``.  The tool
reads only public names, so the same file runs against an older ``src/``.

Each set is evaluated three ways: the 16 forms forward on one params object,
in reverse on one object, and each form on its own
``dataclasses.replace(params)``.  Each way records the evaluations in the
forward order, so the three ways agree when sharing terms between the forms
of one object changes nothing.  After that check, every run prints to stderr
each entry that differs from the file, with its relative move, and then
rewrites the file; a run whose ways disagree leaves the file as it is.  So a
deliberate value move is this stderr list plus the file's git diff.

The wall time of each set and way goes to stderr, so stdout stays the same
from run to run and a speed-up is measured by the same run that shows it
kept every bit.  Ways after the first reuse what the package caches for the
life of the process (the composition lists and deltas of `backsec.specfun`),
so the first way of each set pays for filling those caches.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib.util
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
PIN_FILE = ROOT / "tests" / "data" / "closed_forms.jsonl"

FORMS = tuple((fn, proto) for fn in (analytic.sop_exact, analytic.sop_asymptotic,
                                     analytic.ip_exact, analytic.ip_asymptotic)
              for proto in PROTOCOL_ORDER)
FORM_NAMES = tuple(f"{fn.__name__} {proto.value}" for fn, proto in FORMS)
ORACLE_SEEDS = (1, 7, 11)
CELLS = ((8, 4), (16, 3), (12, 4), (6, 6))
CELL_GAMMA_T_DB = (0.0, 30.0, 60.0)
MIXED_SHAPES = tuple(s for s in itertools.product((1, 3, 6), repeat=3)
                     if len(set(s)) > 1) + ((1, 6, 2), (6, 1, 3), (4, 4, 1))
# Besides the preset points, the file pins the whole report at these two: the
# (8, 4) cell, whose sums cancel, and a grid point where the
# weakest-eavesdropper moment sums trip the instability flag six times in the
# two METS SOP forms.
WHOLE = ("cell N=8 m=4 gamma_t_db=30.0",
         "grid N=8 m=3 gamma_t_db=40.0 d_d=50.0 d_e=0.5 rate=3.0")


def preset_points() -> dict:
    """name -> params of the 44 preset points, e.g. 'fig2 gamma_t_db=0.0'."""
    out = {}
    for name in preset_names():
        spec = loads_config(preset_text(name))
        for value in spec.axis_values:
            out[f"{name} {spec.axis}={value!r}"] = apply_axis(spec.base, spec.axis, value)
    return out


def _at(params, **axes):
    """params moved along each named apply_axis axis in turn."""
    for axis, value in axes.items():
        params = apply_axis(params, axis, value)
    return params


@functools.cache
def _workloads():
    """perfbench/workloads.py, loaded once by file path and kept out of
    sys.modules, so no benchmark module takes a top-level name."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def points() -> dict:
    """name -> params of the 1172 points of the main set, in file order."""
    base = loads_config(preset_text("fig2")).base
    out = {}
    oracle = _workloads().OracleMixed
    for seed in ORACLE_SEEDS:
        for k, (n, m, gamma_db, d_d, d_e, rate) in enumerate(
                oracle.scenarios(seed, oracle.SCENARIOS)):
            out[f"oracle seed={seed} #{k} N={n} m={m}"] = _at(
                replace(base, n_tags=n), m_all=m, gamma_t_db=gamma_db, d_d=d_d, d_e=d_e,
                rate=rate)
    out.update(preset_points())
    for gamma_db in CELL_GAMMA_T_DB:
        for n, m in CELLS:
            out[f"cell N={n} m={m} gamma_t_db={gamma_db!r}"] = _at(
                replace(base, n_tags=n), m_all=m, gamma_t_db=gamma_db)
    for n, m, gamma_db, d_d, d_e, rate in itertools.product(
            (2, 4, 8), (1, 2, 3), (-20.0, 40.0, 100.0), (0.5, 50.0), (0.5, 50.0),
            (0.1, 3.0)):
        out[f"grid N={n} m={m} gamma_t_db={gamma_db!r} d_d={d_d!r} d_e={d_e!r} "
            f"rate={rate!r}"] = _at(replace(base, n_tags=n), m_all=m, gamma_t_db=gamma_db,
                                    d_d=d_d, d_e=d_e, rate=rate)
    return out


def mixed_points() -> dict:
    """name -> params of the 486 mixed-shape points, in file order."""
    base = loads_config(preset_text("fig2")).base
    out = {}
    for shapes, n, gamma_db, rate in itertools.product(
            MIXED_SHAPES, (2, 3, 7), CELL_GAMMA_T_DB, (0.5, 3.0)):
        links = {}
        for field, fam, m in zip(("link_s", "link_d", "link_e"), "sde", shapes):
            link = getattr(base, field)
            links[field] = NakagamiLink.from_lambda_tilde(
                m, link.lambda_tilde, link.distance, link.pathloss_exp)
        m_s, m_d, m_e = shapes
        name = f"mixed m_s={m_s} m_d={m_d} m_e={m_e} N={n} gamma_t_db={gamma_db!r} rate={rate!r}"
        if name in out:  # (6, 1, 3) is also a triple over 1/3/6
            name += " again"
        out[name] = _at(replace(base, n_tags=n, **links), gamma_t_db=gamma_db, rate=rate)
    return out


def _results(params, way: str) -> list:
    """(report, instability messages in order) of the 16 forms at one point, in
    FORMS order, evaluated the given way."""
    order = range(len(FORMS)) if way != "reversed" else reversed(range(len(FORMS)))
    results = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NumericalInstabilityWarning)
        for i in order:
            fn, proto = FORMS[i]
            del caught[:]
            report = fn(proto, replace(params) if way == "fresh" else params)
            results[i] = report, tuple(str(w.message) for w in caught if issubclass(
                w.category, NumericalInstabilityWarning))
    return [results[i] for i in range(len(FORMS))]


def evaluate(point_set: dict, way: str = "forward") -> tuple:
    """(records, summary) of one set of points evaluated one way.  records maps
    each point name to its line of the file; summary holds the set's breakdown
    digest, its evaluation, warning and flagged-evaluation counts, and its
    sorted (label, warnings) pairs."""
    whole = {*preset_points(), *WHOLE}
    full = hashlib.sha256()
    records = {}
    flagged = 0
    labels = collections.Counter()
    for name, params in point_set.items():
        results = _results(replace(params), way)
        record = {"point": name, "raw": [repr(report.raw_value) for report, _ in results],
                  "messages": [list(messages) for _, messages in results]}
        if name in whole:
            record["terms"] = [{label: repr(term) for label, term in report.term_breakdown.items()}
                               for report, _ in results]
        records[name] = record
        for report, messages in results:
            full.update(f"{report.raw_value!r}\n{dict(report.term_breakdown)!r}\n".encode())
            for message in messages:
                full.update(f"! {message}\n".encode())
                labels[message.split(":", 1)[0]] += 1
            flagged += bool(messages)
    return records, {"sha256": full.hexdigest(), "evaluations": len(FORMS) * len(records),
                     "warnings": sum(labels.values()), "flagged": flagged,
                     "labels": tuple(sorted(labels.items()))}


def dumps(records: dict) -> str:
    """The records as the file holds them, one JSON line each."""
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records.values())


def read_pins() -> dict:
    """The records of the committed file, keyed by point name."""
    records = {}
    for line in PIN_FILE.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        records[record["point"]] = record
    return records


def _entries(record: dict) -> dict:
    """entry name -> pinned text of one record, in file order."""
    raws = record.get("raw", [])
    out = {}
    for form, raw, terms, messages in zip(FORM_NAMES, raws,
                                          record.get("terms", [{}] * len(raws)),
                                          record.get("messages", [[]] * len(raws))):
        out[f"{form} raw"] = raw
        out.update((f"{form} term {label}", term) for label, term in terms.items())
        out.update((f"{form} message {j}", text) for j, text in enumerate(messages, start=1))
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
    for point in {**old, **new}:
        was, now = _entries(old.get(point, {})), _entries(new.get(point, {}))
        for entry in {**was, **now}:
            a, b = was.get(entry), now.get(entry)
            if a == b:
                continue
            if a is None or b is None:
                lines.append(f"{point} {entry}: {'new' if a is None else 'gone'} "
                             f"{b if a is None else a}")
            else:
                lines.append(f"{point} {entry}: {a} -> {b}{_relative(a, b)}")
        if [e for e in was if e in now] != [e for e in now if e in was]:
            lines.append(f"{point}: entries reordered")
    if [k for k in old if k in new] != [k for k in new if k in old]:
        lines.append("records reordered")
    return lines


def main() -> int:
    agree = True
    records = {}
    for prefix, point_set in (("", points()), ("mixed ", mixed_points())):
        runs = {}
        for way in ("forward", "reversed", "fresh"):
            start = time.perf_counter()
            runs[way] = evaluate(point_set, way)
            print(f"{prefix}{way:9s} {time.perf_counter() - start:.2f} s", file=sys.stderr)
        for way, (_, summary) in runs.items():
            print(f"{prefix}{way:9s} sha256={summary['sha256']} "
                  f"evaluations={summary['evaluations']} warnings={summary['warnings']} "
                  f"flagged={summary['flagged']}")
        print(f"{prefix}warnings by label: "
              + "; ".join(f"{label}={count}" for label, count in runs["forward"][1]["labels"]))
        agree = agree and all(run == runs["forward"] for run in runs.values())
        records.update(runs["forward"][0])
    print("ways agree" if agree else "WAYS DISAGREE")
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
