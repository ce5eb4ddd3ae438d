#!/usr/bin/env python3
"""backsec benchmark: one workload, end-to-end or traced, checked against
stored references.

    python3 perfbench/run.py --workload presets_mc --seed 1 --seconds 60 --trace 0

Run from the repository root; the package is imported from ./src and from
nowhere else.  Untraced (``--trace 0``) runs repeat fixed-work passes of the
workload until the next pass would overrun ``--seconds`` (at least the
workload's ``min_passes``) and report the end-to-end metrics.  A traced run
(``--trace 1``) makes one untraced and one traced pass, prints the per-layer
span table, runs the layer probes and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import numpy  # imported before the set-up clock starts: its cost is not backsec's

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs.json")
SETUP_SAMPLES = 7           # this process plus six fresh ones


def _import_package():
    """Import backsec from this checkout's src/ only; exit if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "backsec", "__init__.py")):
        sys.exit(f"error: no backsec package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import backsec
    if not os.path.abspath(backsec.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported backsec from {backsec.__file__}, not {SRC}")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("presets_mc", "closed_form_grid", "oracle_mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few of the workload's points, each at full size")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up seconds and exit")
    parser.add_argument("--write-refs", action="store_true",
                        help="recompute refs.json at the reference seed (all workloads)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_refs:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    return args


def _host_facts(backend: str) -> dict:
    def read(path):
        try:
            with open(path, encoding="ascii") as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, size = read(base + "level").strip(), read(base + "size").strip()
        if level in ("2", "3") and size:
            caches[f"l{level}"] = size
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **caches,
        "ram_gb": round(ram / 2 ** 30, 1),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backend,
    }


def _resolve_backend() -> str:
    """Record the kernel backend once, then silence the per-call fallback
    notice.  NumericalInstabilityWarning is never filtered."""
    from backsec._kernels import resolve_backend
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        backend = resolve_backend()
    warnings.filterwarnings("ignore", message="numba is not available",
                            category=RuntimeWarning)
    return backend


class Pass:
    """Points of one workload run through one recorder: wall time, per-point
    latency, outputs with their instability flags, and layer times."""

    def __init__(self, wl, traced: bool):
        from layers import Recorder
        self.wl = wl
        self.rec = Recorder(traced)
        self.latency, self.outputs = [], []
        self.attempted = 0
        self.wall = 0.0
        self.error = None

    def run(self, points) -> "Pass":
        from layers import instrumented
        self.attempted += len(points)
        with instrumented(self.rec) as api:
            t0 = time.perf_counter()
            for point in points:
                t = time.perf_counter()
                try:
                    with self.rec.point() as flags:
                        out = self.wl.evaluate(api, point)
                except Exception:  # every point of the pass counts as failed
                    self.error = traceback.format_exc()
                    break
                self.latency.append(time.perf_counter() - t)
                self.outputs.append((out, flags))
            self.wall += time.perf_counter() - t0
        return self

    def failures(self, refs: dict) -> dict:
        """{point index: [error, ...]}; reported on stderr."""
        if self.error is not None:
            print(self.error, file=sys.stderr)
            failed = {i: ["pass aborted"] for i in range(self.attempted)}
        else:
            failed = self.wl.check(self.outputs, refs)
        for i, errors in sorted(failed.items())[:10]:
            print(f"FAILED point {i}: " + "; ".join(errors[:3]), file=sys.stderr)
        return failed


def _setup_samples(args, own: float) -> list:
    """Set-up seconds of this process and of fresh processes doing the same."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + ["--smoke"] * args.smoke
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _end_to_end(wl, seconds: float, refs, setup) -> tuple:
    Pass(wl, False).run(wl.points[:1])  # warm-up, not counted
    passes, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        gc.collect()
        p = Pass(wl, False).run(wl.points)
        attempted += p.attempted
        failed += len(p.failures(refs))
        p.outputs.clear()  # keep the live-object count, and so GC work, flat
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall for q in passes)
        if len(passes) >= wl.min_passes and elapsed + typical > seconds:
            break
    latency = [t for p in passes for t in p.latency]
    closed = [p.rec.total("analytic.") for p in passes]  # (evaluations, seconds) a pass
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"passes: {len(passes)}, wall_s each: "
          + ", ".join(f"{p.wall:.3f}" for p in passes))
    print(f"point latency: {len(latency)} samples; tail = p{round(100 * wl.tail_q)}")
    print(f"instability flags per pass: {passes[0].rec.flag_count}")
    print(f"error_rate: {failed}/{attempted}")
    metrics = {
        "wall_s": (statistics.fmean(p.wall for p in passes), "s"),
        "point_ms_p50": (1e3 * _quantile(latency, 0.5), "ms"),
        "point_ms_tail": (1e3 * _quantile(latency, wl.tail_q), "ms"),
        "closed_form_evals_per_s": (sum(c for c, _ in closed) / sum(t for _, t in closed),
                                    "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, attempted, failed


def _traced(wl, refs) -> tuple:
    import probes
    from layers import LAYERS

    # Each point runs untraced and traced back to back, in alternating order:
    # the difference of the two sums is the tracing overhead, with slow drift
    # in host speed and any first-run cost cancelled pair by pair.
    Pass(wl, False).run(wl.points[:1])
    plain, traced = Pass(wl, False), Pass(wl, True)
    gc.collect()
    for i, point in enumerate(wl.points):
        for p in (plain, traced) if i % 2 == 0 else (traced, plain):
            p.run([point])
    attempted = plain.attempted + traced.attempted
    failed = len(plain.failures(refs)) + len(traced.failures(refs))

    table = traced.rec.layer_table(traced.wall)
    print(f"traced pass of {wl.name}: wall {traced.wall:.3f} s "
          f"(untraced {plain.wall:.3f} s)")
    print(f"{'span':28s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name, (calls, total, self_s) in sorted(traced.rec.stats.items()):
        print(f"{name:28s} {calls:8d} {total:10.4f} {self_s:10.4f}")
    print(f"{'layer':12s} {'self_s':>10s} {'share':>7s}")
    for layer in LAYERS:
        print(f"{layer:12s} {table[layer]:10.4f} {table[layer] / traced.wall:7.1%}")
    print(f"{'sum':12s} {sum(table.values()):10.4f}  (traced wall {traced.wall:.4f})")

    metrics = probes.run_all()
    metrics.update({
        "analytic.instability_flags": (traced.rec.flag_count, "count"),
        "montecarlo.batches": (traced.rec.stats.get("kernels.mc_batch", [0])[0], "count"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.overhead_s": (traced.wall - plain.wall, "s"),
        "bench.self_ms": (1e3 * table["bench"], "ms"),
    })
    return metrics, attempted, failed


def _write_refs() -> None:
    from workloads import WORKLOADS
    refs = {"seed": 1}
    for name, cls in WORKLOADS.items():
        wl = cls(refs["seed"])
        p = Pass(wl, False).run(wl.points)
        if p.error:
            sys.exit(p.error)
        refs[name] = wl.reference(p.outputs)
        print(f"{name}: {p.attempted} points, {p.rec.flag_count} flagged evaluations")
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    t0 = time.perf_counter()  # set-up: backsec's import, parsing, scenario generation
    _import_package()
    sys.path.insert(0, HERE)
    backend = _resolve_backend()
    if args.write_refs:
        _write_refs()
        return 0

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    own_setup = time.perf_counter() - t0
    if args.setup_only:
        print(own_setup)
        return 0

    with open(REFS, encoding="utf-8") as fh:
        all_refs = json.load(fh)
    refs = {"seed": all_refs["seed"], **all_refs[args.workload]}
    print("host: " + json.dumps(_host_facts(backend)))
    print(f"workload {args.workload}, seed {args.seed}, {len(wl.points)} points per pass")

    if args.trace:
        metrics, attempted, failed = _traced(wl, refs)
    else:
        setup = _setup_samples(args, own_setup)
        metrics, attempted, failed = _end_to_end(wl, args.seconds, refs, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
