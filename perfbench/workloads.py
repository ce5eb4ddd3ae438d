"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is the
set-up the benchmark times), lists its parameter points, evaluates one point
through an ``layers.Api``, and checks a pass's outputs against the stored
references in ``refs.json``.  A point is the unit of latency and of failure.

``smoke=True`` keeps a subset of the points at full size per point, so the
stored references still apply; the benchmark's own tests use it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import replace

from backsec.cli import CSV_HEADER
from backsec.config import loads_config, preset_names, preset_text
from backsec.montecarlo import PROTOCOL_ORDER, McConfig

REL_TOL = 1e-13          # closed forms: ROADMAP aim 2's "same"
MC_ABS_FLOOR = 0.01      # MC vs exact: |mc - exact| <= max(floor, 5 stderr)
MC_SIGMAS = 5.0

METHODS = ("exact", "asymptotic")
METRICS = ("sop", "ip")


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(abs(value), abs(ref))


def _plausible(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _mc_agrees(mc: float, stderr: float, exact: float) -> bool:
    return abs(mc - exact) <= max(MC_ABS_FLOOR, MC_SIGMAS * stderr)


def _single_point_specs(spec):
    """One spec per axis value.  ``run_sweep`` evaluates each value on its own
    with the same McConfig, so the rows of the single-value sweeps, joined in
    order, are byte for byte the rows of the full sweep."""
    return [(v, replace(spec, axis_values=(v,))) for v in spec.axis_values]


def _rows(csv_doc: str) -> str:
    header, _, rows = csv_doc.partition("\n")
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    return rows


class _CsvChecks:
    """Checks shared by the two workloads that go through ``run_sweep``."""

    def _check_rows(self, rows: str, flags: dict, ref_closed: dict, prefix: str,
                    metric: str) -> list:
        errors = []
        exact = {}
        mc_rows = []
        for row in rows.splitlines():
            _, value, proto, method, v, se, _ = row.split(",")
            v = float(v)
            if method == "mc":
                mc_rows.append((proto, v, float(se)))
                continue
            if method == "exact":
                exact[proto] = v
            key = f"{prefix}|{value}|{proto}|{method}"
            ref = ref_closed.get(key)
            if ref is None:
                errors.append(f"{key}: no stored reference")
            elif not _plausible(v):
                errors.append(f"{key}: {v!r} is not a probability")
            elif not ref[1] and not _close(v, ref[0]):
                errors.append(f"{key}: {v!r} differs from stored {ref[0]!r}")
        for proto, v, se in mc_rows:
            if flags.get((f"{metric}_exact", proto)):
                continue
            if not _mc_agrees(v, se, exact[proto]):
                errors.append(f"{prefix}|{proto}: mc {v!r} +- {se!r} vs exact {exact[proto]!r}")
        return errors

    @staticmethod
    def _closed_refs(rows: str, flags: dict, prefix: str, metric: str) -> dict:
        out = {}
        for row in rows.splitlines():
            _, value, proto, method, v, _, _ = row.split(",")
            if method != "mc":
                flagged = flags.get((f"{metric}_{method}", proto), False)
                out[f"{prefix}|{value}|{proto}|{method}"] = [float(v), flagged]
        return out


class PresetsMc(_CsvChecks):
    """Every bundled preset through the CLI sweep path at 2e5 trials a point."""

    name = "presets_mc"
    tail_q = 0.92       # highest with >= 10 of the 3 x 44 samples beyond it
    min_passes = 3
    TRIALS = 200_000

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        names = ("fig6",) if smoke else preset_names()
        self.specs = {}
        self.points = []
        for name in names:
            spec = loads_config(preset_text(name))
            spec = replace(spec, mc=replace(spec.mc, seed=seed, trials=self.TRIALS))
            self.specs[name] = spec
            self.points += [(name, v, one) for v, one in _single_point_specs(spec)]

    @staticmethod
    def evaluate(api, point):
        return _rows(api.run_sweep(point[2]))

    def check(self, outputs: list, refs: dict) -> dict:
        """{point index: [error, ...]} for the points of one pass."""
        failed = {}
        preset_rows = {}
        for i, ((name, _, _), (rows, flags)) in enumerate(zip(self.points, outputs)):
            preset_rows.setdefault(name, []).append((i, rows))
            errors = self._check_rows(rows, flags, refs["closed"], name,
                                      self.specs[name].metric)
            if errors:
                failed[i] = errors
        if self.seed == refs["seed"]:
            for name, parts in preset_rows.items():
                digest = hashlib.sha256(
                    (CSV_HEADER + "\n" + "".join(r for _, r in parts)).encode()).hexdigest()
                if digest != refs["sha256"].get(name):
                    for i, _ in parts:
                        failed.setdefault(i, []).append(f"{name}: CSV sha256 {digest}")
        return failed

    def reference(self, outputs: list) -> dict:
        closed, sha = {}, {}
        texts = {}
        for (name, _, _), (rows, flags) in zip(self.points, outputs):
            texts[name] = texts.get(name, CSV_HEADER + "\n") + rows
            closed.update(self._closed_refs(rows, flags, name, self.specs[name].metric))
        for name, text in texts.items():
            sha[name] = hashlib.sha256(text.encode()).hexdigest()
        return {"seed": self.seed, "sha256": sha, "closed": closed}


class ClosedFormGrid(_CsvChecks):
    """All 16 closed forms over an (N, m) x gamma_t grid on the fig2 base,
    through the CLI sweep path with the MC method off: a point is one
    (N, m, gamma_t) cell, one SOP and one IP sweep value.  The seed is unused."""

    name = "closed_form_grid"
    tail_q = 0.84       # highest with >= 10 of the 3 x 21 samples beyond it
    min_passes = 3
    CELLS = ((3, 2), (8, 2), (4, 4), (8, 4), (16, 3), (6, 6), (12, 4))
    GAMMA_T_DB = (0.0, 30.0, 60.0)

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        cells = self.CELLS[:2] if smoke else self.CELLS
        base_text = preset_text("fig2")
        values = ", ".join(repr(g) for g in self.GAMMA_T_DB)
        specs = {}
        for n, m in cells:
            for metric in METRICS:
                text = (base_text + f"\nn_tags = {n}\nm_sk = {m}\nm_kd = {m}\nm_ke = {m}\n"
                        f"metric = {metric}\nmethods = exact, asymptotic\n"
                        f"axis = gamma_t_db\naxis_values = {values}\n")
                specs[(n, m, metric)] = dict(_single_point_specs(loads_config(text)))
        # gamma_t outermost: the samples of one cell spread over the whole pass,
        # so a slow spell on the host does not land on all of them at once
        self.points = [(f"n{n}m{m}", specs[(n, m, "sop")][g], specs[(n, m, "ip")][g])
                       for g in self.GAMMA_T_DB for n, m in cells]

    @staticmethod
    def evaluate(api, point):
        return _rows(api.run_sweep(point[1])), _rows(api.run_sweep(point[2]))

    def check(self, outputs: list, refs: dict) -> dict:
        failed = {}
        for i, ((cell, _, _), ((sop_rows, ip_rows), flags)) in enumerate(
                zip(self.points, outputs)):
            errors = (self._check_rows(sop_rows, flags, refs["closed"], cell + "|sop", "sop")
                      + self._check_rows(ip_rows, flags, refs["closed"], cell + "|ip", "ip"))
            if errors:
                failed[i] = errors
        return failed

    def reference(self, outputs: list) -> dict:
        closed = {}
        for (cell, _, _), ((sop_rows, ip_rows), flags) in zip(self.points, outputs):
            closed.update(self._closed_refs(sop_rows, flags, cell + "|sop", "sop"))
            closed.update(self._closed_refs(ip_rows, flags, cell + "|ip", "ip"))
        return {"closed": closed}


class OracleMixed:
    """Seeded scenarios, each evaluated the way ``backsec oracle`` does it:
    one estimate_all at 2e4 trials plus the 16 closed forms."""

    name = "oracle_mixed"
    tail_q = 0.98       # highest with >= 10 of the 3 x 300 samples beyond it
    min_passes = 3
    SCENARIOS = 300
    TRIALS = 20_000
    N_RANGE = (2, 8)
    M_RANGE = (1, 3)
    GAMMA_T_DB = (-10.0, 60.0)
    D_D = (1.0, 4.0)
    D_E = (2.0, 6.0)
    RATES = (0.25, 0.5, 1.0, 2.0)
    # order of the 16 closed-form values stored per scenario
    ORDER = tuple((metric, proto, method) for metric in METRICS
                  for proto in PROTOCOL_ORDER for method in METHODS)

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        base = loads_config(preset_text("fig2")).base
        self.bases = {n: replace(base, n_tags=n)
                      for n in range(self.N_RANGE[0], self.N_RANGE[1] + 1)}
        self.mc = McConfig(trials=self.TRIALS, seed=seed)
        self.points = self.scenarios(seed, 5 if smoke else self.SCENARIOS)

    @classmethod
    def scenarios(cls, seed: int, count: int) -> list:
        """(N, m, gamma_t dB, d_d, d_e, R) tuples; a smaller count is a prefix.

        Every (N, m) pair appears equally often (the first few pairs once
        more), in an order drawn from the seed, so the work in a pass, which
        (N, m) sets, is the same for every seed; the seed draws the rest."""
        rng = random.Random(seed)
        pairs = [(n, m) for n in range(cls.N_RANGE[0], cls.N_RANGE[1] + 1)
                 for m in range(cls.M_RANGE[0], cls.M_RANGE[1] + 1)]
        layout = [pairs[i % len(pairs)] for i in range(cls.SCENARIOS)]
        rng.shuffle(layout)
        return [(n, m, rng.uniform(*cls.GAMMA_T_DB), rng.uniform(*cls.D_D),
                 rng.uniform(*cls.D_E), rng.choice(cls.RATES))
                for n, m in layout][:count]

    def evaluate(self, api, point):
        n, m, gamma_db, d_d, d_e, rate = point
        params = self.bases[n]
        for axis, value in (("m_all", m), ("gamma_t_db", gamma_db), ("d_d", d_d),
                            ("d_e", d_e), ("rate", rate)):
            params = api.apply_axis(params, axis, value)
        estimates = api.estimate_all(params, self.mc)
        values = [api.closed_forms[(metric, method)](proto, params).value
                  for metric, proto, method in self.ORDER]
        counts = [[est.n_case1, est.n_case2] for est in estimates.values()]
        mc = {(proto.value, metric): (est.p_hat, est.stderr)
              for (proto, metric), est in estimates.items()}
        return values, counts, mc

    def check(self, outputs: list, refs: dict) -> dict:
        failed = {}
        at_ref_seed = self.seed == refs["seed"]
        for i, ((values, counts, mc), flags) in enumerate(outputs):
            errors = []
            if at_ref_seed:
                if counts != refs["counts"][i]:
                    errors.append(f"scenario {i}: MC counts {counts} != {refs['counts'][i]}")
                for (metric, proto, method), v, ref, ref_flag in zip(
                        self.ORDER, values, refs["closed"][i], refs["flagged"][i]):
                    if not _plausible(v):
                        errors.append(f"scenario {i} {metric}/{proto.value}/{method}: {v!r}")
                    elif not ref_flag and not _close(v, ref):
                        errors.append(f"scenario {i} {metric}/{proto.value}/{method}: "
                                      f"{v!r} differs from stored {ref!r}")
            else:
                errors += [f"scenario {i}: {v!r} is not a probability"
                           for v in values if not _plausible(v)]
            for (metric, proto, method), v in zip(self.ORDER, values):
                if method != "exact" or flags.get((f"{metric}_exact", proto.value)):
                    continue
                p_hat, stderr = mc[(proto.value, metric)]
                if not _mc_agrees(p_hat, stderr, v):
                    errors.append(f"scenario {i} {metric}/{proto.value}: mc {p_hat!r} "
                                  f"+- {stderr!r} vs exact {v!r}")
            if errors:
                failed[i] = errors
        return failed

    def reference(self, outputs: list) -> dict:
        return {
            "seed": self.seed,
            "closed": [values for (values, _, _), _ in outputs],
            "flagged": [[flags.get((f"{metric}_{method}", proto.value), False)
                         for metric, proto, method in self.ORDER]
                        for _, flags in outputs],
            "counts": [counts for (_, counts, _), _ in outputs],
        }


WORKLOADS = {cls.name: cls for cls in (PresetsMc, ClosedFormGrid, OracleMixed)}
