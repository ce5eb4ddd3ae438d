"""Per-layer probes for the traced run.

Each probe times one layer at fixed inputs, independent of the workload, so a
probe metric means the same on every workload and a change to that layer
moves it whichever workload the traced run was asked for.  The workload's
own traced pass supplies the span table and the counts (see run.py).
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import replace
from time import perf_counter

from backsec import analytic, specfun
from backsec.config import apply_axis, loads_config, preset_names, preset_text
from backsec.errors import NumericalInstabilityWarning
from backsec.montecarlo import PROTOCOL_ORDER, McConfig, estimate_all
from backsec.system import ProtocolKind

from layers import CLOSED_FORMS, Recorder, instrumented
from workloads import ClosedFormGrid

KERNEL_BATCHES = (4096, 8192, 16384, 32768, 65536, 131072, 262144)
SPECFUN = ("bessel_k", "reg_lower_inc_gamma", "reg_upper_inc_gamma",
           "compositions", "multinomial_delta")
SPECFUN_CELL = (8, 4)       # the grid cell whose calls give the specfun arguments
SCALING_TRIALS = 2 ** 19    # 8 batches of the default 65536
PRESET_POINT_TRIALS = 200_000


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _per_call_seconds(fn, calls: int, min_s: float = 0.02, reps: int = 5) -> float:
    """Median over reps of (time of enough loops to last min_s) / calls made."""
    loops = 1
    while True:
        t0 = perf_counter()
        for _ in range(loops):
            fn()
        if perf_counter() - t0 >= min_s:
            break
        loops *= 2
    return _median_seconds(lambda: [fn() for _ in range(loops)], reps) / (loops * calls)


def _cell_params(n: int, m: int, gamma_t_db: float = 30.0):
    text = preset_text("fig2") + f"\nn_tags = {n}\nm_sk = {m}\nm_kd = {m}\nm_ke = {m}\n"
    return apply_axis(loads_config(text).base, "gamma_t_db", gamma_t_db)


def _all_closed_forms(params) -> None:
    for name in CLOSED_FORMS.values():
        for proto in PROTOCOL_ORDER:
            getattr(analytic, name)(proto, params)


def _kernel_rate(params, batch: int, min_s: float = 0.25) -> float:
    """Median trials/s of estimate_all with exactly one batch per call."""
    mc = McConfig(trials=batch, seed=1, batch_size=batch)
    rates, spent = [], 0.0
    while len(rates) < 2 or spent < min_s:
        t0 = perf_counter()
        estimate_all(params, mc)
        dt = perf_counter() - t0
        spent += dt
        rates.append(batch / dt)
    return statistics.median(rates)


def _uniforms_per_trial(params) -> int:
    return sum(link.m for fam in "sde" for link in params.links_of(fam)) + 1


def _kernel_bytes_per_trial(params) -> int:
    """Bytes per trial of the arrays the numpy kernel holds at its peak,
    from their shapes: four (B, slots) arrays (counter, hash, uniforms, logs)
    and seven (B, N) float64 arrays (three gain families, w1, two SNRs,
    ratio)."""
    return 8 * (4 * _uniforms_per_trial(params) + 7 * params.n_tags)


def cli_and_config() -> dict:
    specs = [loads_config(preset_text(name)) for name in preset_names()]
    texts = [preset_text(name) for name in preset_names()]
    axis_calls = [(s.base, s.axis, v) for s in specs for v in s.axis_values]
    fig2 = loads_config(preset_text("fig2"))
    fig2 = replace(fig2, mc=replace(fig2.mc, trials=20_000))

    cli_self = []
    for _ in range(3):
        rec = Recorder(traced=True)
        with instrumented(rec) as api, rec.point():
            api.run_sweep(fig2)
        cli_self.append(rec.stats["cli.run_sweep"][2])
    return {
        "cli.self_ms": (1e3 * statistics.median(cli_self), "ms"),
        "config.loads_config_ms": (1e3 * _per_call_seconds(
            lambda: [loads_config(t) for t in texts], len(texts)), "ms"),
        "config.apply_axis_us": (1e6 * _per_call_seconds(
            lambda: [apply_axis(*c) for c in axis_calls], len(axis_calls)), "us"),
    }


def closed_forms() -> dict:
    """Each entry point at the fig2 point, the 16 forms per grid cell at
    gamma_t = 30 dB, and the one expensive cell the closed-form engine work
    targets."""
    out = {}
    fig2 = loads_config(preset_text("fig2")).base
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always", NumericalInstabilityWarning)
        for name in CLOSED_FORMS.values():
            fn = getattr(analytic, name)
            for proto in PROTOCOL_ORDER:
                secs = _median_seconds(lambda: fn(proto, fig2), 7)
                out[f"analytic.{name}.{proto.value}_ms"] = (1e3 * secs, "ms")
        for n, m in ClosedFormGrid.CELLS:
            params = _cell_params(n, m)
            t0 = perf_counter()
            _all_closed_forms(params)
            out[f"analytic.n{n}m{m}_ms"] = (1e3 * (perf_counter() - t0), "ms")
        params = _cell_params(10, 6)
        t0 = perf_counter()
        analytic.sop_exact(ProtocolKind.SOTS, params)
        out["analytic.sop_exact.sots.n10m6_ms"] = (1e3 * (perf_counter() - t0), "ms")
    return out


def special_functions(max_args: int = 512) -> dict:
    """Per-call cost of each specfun entry point over the arguments that the
    16 closed forms pass it at one closed_form_grid cell (an evenly spaced
    subset of at most max_args calls)."""
    recorded = {name: [] for name in SPECFUN}
    originals = {name: getattr(analytic, name) for name in SPECFUN}

    def recorder(name):
        fn, args_seen = originals[name], recorded[name]

        def call(*args):
            args_seen.append(args)
            return fn(*args)
        return call

    try:
        for name in SPECFUN:
            setattr(analytic, name, recorder(name))
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always", NumericalInstabilityWarning)
            _all_closed_forms(_cell_params(*SPECFUN_CELL))
    finally:
        for name, fn in originals.items():
            setattr(analytic, name, fn)

    out = {}
    for name in SPECFUN:
        fn, calls = getattr(specfun, name), recorded[name]
        calls = calls[::-(-len(calls) // max_args)]
        secs = _per_call_seconds(lambda: [fn(*a) for a in calls], len(calls))
        out[f"specfun.{name}_us"] = (1e6 * secs, "us")
    return out


def monte_carlo() -> dict:
    fig2 = loads_config(preset_text("fig2")).base
    wide = apply_axis(replace(fig2, n_tags=8), "m_all", 3)
    point = McConfig(trials=PRESET_POINT_TRIALS, seed=1)
    out = {"montecarlo.estimate_all_ms": (
        1e3 * _median_seconds(lambda: estimate_all(fig2, point), 3), "ms")}
    rates = {}
    for workers in (1, 2):
        mc = McConfig(trials=SCALING_TRIALS, seed=1, workers=workers)
        rates[workers] = SCALING_TRIALS / _median_seconds(lambda: estimate_all(fig2, mc), 3)
        out[f"montecarlo.trials_per_s.w{workers}"] = (rates[workers], "1/s")
    out["montecarlo.scaling_eff_w2"] = (rates[2] / (2 * rates[1]), "ratio")

    for label, params in (("fig2", fig2), ("wide", wide)):
        for batch in KERNEL_BATCHES:
            rate = _kernel_rate(params, batch)
            out[f"kernels.trials_per_s.{label}.b{batch}"] = (rate, "1/s")
    fig2_rate = out["kernels.trials_per_s.fig2.b65536"][0]
    out["kernels.ns_per_uniform"] = (1e9 / (fig2_rate * _uniforms_per_trial(fig2)), "ns")
    out["kernels.uniforms_per_trial"] = (_uniforms_per_trial(fig2), "count")
    out["kernels.bytes_per_trial"] = (_kernel_bytes_per_trial(fig2), "B")
    return out


def run_all() -> dict:
    """{metric name: (value, unit)} for every probe."""
    return {**cli_and_config(), **closed_forms(), **special_functions(), **monte_carlo()}
