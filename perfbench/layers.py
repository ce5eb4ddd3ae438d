"""Timers at the boundaries between the benchmark and the backsec modules.

The benchmark never edits the package.  It reaches each layer through the
handles in an ``Api``, and for calls that one backsec module makes into
another it swaps the name the calling module bound at import time (for
example ``backsec.cli.estimate_all``) for a timed wrapper, restoring it on
exit.

Two levels:

* untraced (end-to-end runs): only the four ``analytic`` entry points are
  wrapped.  Their time gives ``closed_form_evals_per_s``, and each call is
  matched to the ``NumericalInstabilityWarning`` records it produced.
* traced: every layer boundary on a workload path is a span, so each
  layer's self time (its spans minus the spans nested inside them) can be
  summed and checked against the pass wall time.

Spans are aggregated in memory per name: calls, total time, self time.
Calls from ``analytic`` into ``specfun`` are not spans: they are too many
and too short to time one by one, so the probes measure ``specfun`` per call
and its time shows inside ``analytic``.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from backsec import analytic, cli, config, montecarlo
from backsec.errors import NumericalInstabilityWarning

# (metric, method) -> analytic entry point name
CLOSED_FORMS = {
    ("sop", "exact"): "sop_exact",
    ("sop", "asymptotic"): "sop_asymptotic",
    ("ip", "exact"): "ip_exact",
    ("ip", "asymptotic"): "ip_asymptotic",
}

# span name -> the layer (module) it times
LAYER_OF = {
    "cli.run_sweep": "cli",
    "config.apply_axis": "config",
    "montecarlo.estimate_all": "montecarlo",
    "kernels.mc_batch": "kernels",
    **{f"analytic.{name}": "analytic" for name in CLOSED_FORMS.values()},
}
LAYERS = ("bench", "cli", "config", "analytic", "montecarlo", "kernels")


class Recorder:
    """Layer timers for one pass, plus the per-point record of which closed
    forms tripped the instability flag."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.stats: dict = {}       # span name -> [calls, total_s, self_s]
        self._child = [0.0]         # child time of each open span; [0] is the root
        self._log: list = []        # warnings recorded for the current point
        self.point_flags: dict = {} # (entry point, protocol value) -> flagged
        self.flag_count = 0

    def timed(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = child.pop()
                child[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner

        return wrapper

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name`` when tracing, else ``fn`` itself."""
        return self.timed(name, fn) if self.traced else fn

    def closed_form(self, name: str) -> Callable:
        """An analytic entry point, always timed, that notes whether each call
        added a NumericalInstabilityWarning to the current point's log."""
        timed = self.timed(f"analytic.{name}", getattr(analytic, name))

        def call(protocol, params, *rest):
            before = len(self._log)
            report = timed(protocol, params, *rest)
            self.point_flags[(name, protocol.value)] = len(self._log) > before
            return report

        return call

    @contextmanager
    def point(self):
        """Collect instability warnings for one point, as ``backsec sweep`` and
        ``backsec oracle`` do.  They are counted, never dropped."""
        self.point_flags = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NumericalInstabilityWarning)
            self._log = caught
            try:
                yield self.point_flags
            finally:
                self._log = []
                self.flag_count += sum(
                    issubclass(w.category, NumericalInstabilityWarning) for w in caught)

    def total(self, prefix: str) -> tuple:
        """(calls, seconds) summed over the spans whose name starts with prefix."""
        rows = [v for k, v in self.stats.items() if k.startswith(prefix)]
        return sum(r[0] for r in rows), sum(r[1] for r in rows)

    def layer_table(self, wall_s: float) -> dict:
        """Self seconds per layer; ``bench`` is the pass time outside every span,
        so the values sum to ``wall_s``."""
        table = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            table[LAYER_OF[name]] += self_s
        table["bench"] = wall_s - self._child[0]
        return table


@dataclass(frozen=True)
class Api:
    """The package entry points a workload calls, timed per the recorder."""

    run_sweep: Callable
    apply_axis: Callable
    estimate_all: Callable
    closed_forms: dict  # (metric, method) -> callable(protocol, params)


@contextmanager
def instrumented(rec: Recorder):
    """Yield an Api bound to ``rec`` and route the package's own cross-module
    calls on workload paths through the same timers until exit."""
    closed = {key: rec.closed_form(name) for key, name in CLOSED_FORMS.items()}
    api = Api(
        run_sweep=rec.span("cli.run_sweep", cli.run_sweep),
        apply_axis=rec.span("config.apply_axis", config.apply_axis),
        estimate_all=rec.span("montecarlo.estimate_all", montecarlo.estimate_all),
        closed_forms=closed,
    )
    saved = [(cli, "apply_axis", cli.apply_axis),
             (cli, "estimate_all", cli.estimate_all),
             (montecarlo, "mc_batch", montecarlo.mc_batch)]
    saved_tables = {"sop": (cli._EXACT["sop"], cli._ASYMPTOTIC["sop"]),
                    "ip": (cli._EXACT["ip"], cli._ASYMPTOTIC["ip"])}
    try:
        cli.apply_axis = api.apply_axis
        cli.estimate_all = api.estimate_all
        montecarlo.mc_batch = rec.span("kernels.mc_batch", montecarlo.mc_batch)
        for metric in ("sop", "ip"):
            cli._EXACT[metric] = closed[(metric, "exact")]
            cli._ASYMPTOTIC[metric] = closed[(metric, "asymptotic")]
        yield api
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
        for metric, (exact, asym) in saved_tables.items():
            cli._EXACT[metric] = exact
            cli._ASYMPTOTIC[metric] = asym
