"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The whole module targets a commodity-laptop budget
(well under ten minutes).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from backsec import analytic
from backsec.cli import run_sweep
from backsec.config import apply_axis, loads_config, preset_text
from backsec.montecarlo import McConfig, PROTOCOL_ORDER, estimate_all
from backsec.specfun import bessel_k, reg_lower_inc_gamma, reg_upper_inc_gamma
from backsec.system import ProtocolKind

from conftest import make_params

TRIALS = 1_000_000


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    return ok


def _closed_vs_mc(p, mc_seed):
    """max |analytic - mc| normalized by the criterion tolerance, over all
    protocols and both metrics at one grid point."""
    est = estimate_all(p, McConfig(trials=TRIALS, seed=mc_seed))
    worst = 0.0
    for proto in PROTOCOL_ORDER:
        for metric, fn in (("sop", analytic.sop_exact), ("ip", analytic.ip_exact)):
            e = est[(proto, metric)]
            tol = max(0.01, 3.0 * e.stderr)
            worst = max(worst, abs(fn(proto, p).value - e.p_hat) / tol)
    return worst


def test_criterion_1_closed_form_vs_monte_carlo():
    """Every protocol x metric on the reference grid agrees with simulation
    within max(0.01, 3 stderr) at 1e6 trials."""
    worst = 0.0
    seed = 10_000
    for gamma_db in (0.0, 10.0, 20.0, 30.0, 40.0):
        for n in (1, 3, 4):
            for m in (1, 2):
                seed += 1
                p = make_params(gamma_t_db=gamma_db, n_tags=n, m=m)
                worst = max(worst, _closed_vs_mc(p, seed))
    ok = worst <= 1.0
    assert _report("1 closed-form vs MC grid", ok,
                   f"worst normalized deviation {worst:.3f} (<= 1 required)")


def test_criterion_2_asymptote_convergence():
    """Exact curves approach the power-independent asymptotes: within 1% at
    60 dB and 0.1% at 80 dB for both metrics, every protocol."""
    worst = {60.0: 0.0, 80.0: 0.0}
    for db in (60.0, 80.0):
        p = make_params(gamma_t_db=db)
        for proto in PROTOCOL_ORDER:
            for exact_fn, asym_fn in ((analytic.sop_exact, analytic.sop_asymptotic),
                                      (analytic.ip_exact, analytic.ip_asymptotic)):
                exact = exact_fn(proto, p).raw_value
                asym = asym_fn(proto, p).raw_value
                worst[db] = max(worst[db], abs(exact - asym) / asym)
    ok = worst[60.0] <= 0.01 and worst[80.0] <= 0.001
    assert _report("2 asymptote convergence", ok,
                   f"rel gap {worst[60.0]:.2e} @60dB (<=1e-2), {worst[80.0]:.2e} @80dB (<=1e-3)")


def test_criterion_3_rayleigh_reduction():
    """m=1 everywhere: closed forms still track simulation, and the
    composition machinery degenerates to binomial sums (term counts)."""
    worst = 0.0
    for gamma_db, n in ((10.0, 3), (30.0, 4)):
        p = make_params(gamma_t_db=gamma_db, n_tags=n, m=1)
        worst = max(worst, _closed_vs_mc(p, 77_000 + n))
        sots = analytic.sop_exact(ProtocolKind.SOTS, p)
        comps = [k for k in sots.term_breakdown if k.startswith("p2.comp")]
        assert len(comps) == n + 1  # binomial: compositions of n into 2 parts
    ok = worst <= 1.0
    assert _report("3 Rayleigh reduction", ok,
                   f"worst normalized deviation {worst:.3f}; binomial term counts verified")


def test_criterion_4_protocol_ordering():
    """Common random numbers at 30 dB, N=4, m=2: estimated SOP ordered
    OTS <= SOTS <= METS <= RTS with every gap beyond 3 combined stderr."""
    p = make_params(gamma_t_db=30.0, n_tags=4, m=2)
    est = estimate_all(p, McConfig(trials=TRIALS, seed=2718))
    chain = [ProtocolKind.OTS, ProtocolKind.SOTS, ProtocolKind.METS, ProtocolKind.RTS]
    vals = [est[(proto, "sop")] for proto in chain]
    ordered = all(a.p_hat <= b.p_hat for a, b in zip(vals, vals[1:]))
    min_z = min((b.p_hat - a.p_hat) / math.sqrt(a.stderr ** 2 + b.stderr ** 2)
                for a, b in zip(vals, vals[1:]))
    ok = ordered and min_z > 3.0
    detail = (" | ".join(f"{pr.value}={v.p_hat:.5f}" for pr, v in zip(chain, vals))
              + f" | min gap z={min_z:.1f}")
    if not ok:
        detail += " | FLAGGED FOR REVIEW"
    assert _report("4 protocol ordering", ok, detail)


def test_criterion_5_trend_suite():
    """Preset grids: SOP rises with destination distance and threshold rate,
    falls with eavesdropper distance and fading shape; every consecutive
    step significant beyond 3 combined stderr."""
    directions = {"fig3": +1, "fig4": -1, "fig5": +1, "fig6": -1}
    worst_z = math.inf
    for name, sign in directions.items():
        spec = loads_config(preset_text(name))
        mc = McConfig(trials=TRIALS, seed=5150)
        series = {proto: [] for proto in spec.protocols}
        for v in spec.axis_values:
            est = estimate_all(apply_axis(spec.base, spec.axis, v), mc)
            for proto in spec.protocols:
                series[proto].append(est[(proto, "sop")])
        for proto, vals in series.items():
            for a, b in zip(vals, vals[1:]):
                z = (sign * (b.p_hat - a.p_hat)
                     / math.sqrt(a.stderr ** 2 + b.stderr ** 2 + 1e-300))
                worst_z = min(worst_z, z)
    ok = worst_z > 3.0
    assert _report("5 trend suite (fig3-fig6)", ok,
                   f"weakest directed step z={worst_z:.1f} (> 3 required)")


def test_criterion_6_structural_identities():
    """Capacity-optimal power law, zero-rate collapse, and single-tag
    coincidence, all at 1e-12."""
    single = make_params(n_tags=1)
    ots_ok = True
    for n in (2, 3, 4):
        multi = make_params(n_tags=n)
        ots_ok &= abs(analytic.sop_exact(ProtocolKind.OTS, multi).value
                      - analytic.sop_exact(ProtocolKind.OTS, single).value ** n) <= 1e-12
    # at R = 0 the selected tag is dead; OTS keeps tag 0 unless some ratio
    # exceeds 1, so it picks a dead tag when every other tag fails as well
    p0 = make_params(rate=0.0)
    ip_one = analytic.ip_exact(ProtocolKind.RTS, p0).value
    zero_rate = {pr: analytic.p1(p0) for pr in PROTOCOL_ORDER}
    zero_rate[ProtocolKind.OTS] *= ip_one ** (p0.n_tags - 1)
    rate_ok = all(abs(analytic.sop_exact(pr, p0).value - v) <= 1e-12
                  for pr, v in zero_rate.items())
    sops = [analytic.sop_exact(pr, single).value for pr in PROTOCOL_ORDER]
    ips = [analytic.ip_exact(pr, single).value for pr in PROTOCOL_ORDER]
    coincide_ok = (max(sops) - min(sops) <= 1e-12) and (max(ips) - min(ips) <= 1e-12)
    ok = ots_ok and rate_ok and coincide_ok
    assert _report("6 structural identities", ok,
                   f"ots_power={ots_ok} zero_rate={rate_ok} single_tag={coincide_ok}")


def test_criterion_7_special_function_accuracy():
    """Quadrature-oracle accuracy for the special functions and the
    Bessel-integral identity behind the closed forms."""
    worst_gamma = 0.0
    for m in (0.5, 1.0, 2.0, 3.5, 6.0):
        norm = math.gamma(m)
        for x in (0.2, 1.0, 3.0, 8.0):
            ref, _ = integrate.quad(lambda t: t ** (m - 1) * math.exp(-t), 0.0, x,
                                    epsabs=1e-14, epsrel=1e-13)
            worst_gamma = max(worst_gamma, abs(reg_lower_inc_gamma(m, x) - ref / norm))
            ref_u, _ = integrate.quad(lambda t: t ** (m - 1) * math.exp(-t), x, np.inf,
                                      epsabs=1e-14, epsrel=1e-13)
            worst_gamma = max(worst_gamma,
                              abs(reg_upper_inc_gamma(m, x) - ref_u / norm) / (ref_u / norm))

    worst_bessel = 0.0
    for n in (0, 1, 3, 7, 12):
        for x in (1e-3, 0.1, 2.0, 10.0, 50.0):
            upper = math.acosh(max(750.0 / x, 2.0)) + 1.0
            ref, _ = integrate.quad(
                lambda t: math.exp(-x * math.cosh(t)) * math.cosh(n * t),
                0.0, upper, epsabs=1e-300, epsrel=1e-13, limit=400)
            worst_bessel = max(worst_bessel, abs(bessel_k(n, x) / ref - 1.0))

    worst_identity = 0.0
    for a in range(-3, 5):
        for pp in (0.5, 2.0, 10.0):
            for q in (0.5, 2.0, 10.0):
                closed = 2.0 * (q / pp) ** (a / 2.0) * bessel_k(a, 2.0 * math.sqrt(pp * q))
                ref, _ = integrate.quad(lambda v: v ** (a - 1) * math.exp(-pp * v - q / v),
                                        0.0, 200.0, epsabs=1e-13, epsrel=1e-12, limit=400)
                worst_identity = max(worst_identity, abs(closed - ref) / abs(ref))
    ok = worst_gamma <= 1e-12 and worst_bessel <= 1e-10 and worst_identity <= 1e-8
    assert _report("7 special-function accuracy", ok,
                   f"gamma {worst_gamma:.1e} (<=1e-12), bessel {worst_bessel:.1e} (<=1e-10), "
                   f"identity {worst_identity:.1e} (<=1e-8)")


def test_criterion_8_sweep_determinism():
    """Identical config and seed give byte-identical CSV regardless of
    worker count, and across repeated runs."""
    base = loads_config(preset_text("fig2"))
    spec = replace(base, axis_values=(10.0, 30.0),
                   mc=replace(base.mc, trials=120_000, batch_size=16_384))
    doc1 = run_sweep(spec)
    doc2 = run_sweep(spec)
    doc_w3 = run_sweep(replace(spec, mc=replace(spec.mc, workers=3)))
    doc_w8 = run_sweep(replace(spec, mc=replace(spec.mc, workers=8)))
    ok = doc1 == doc2 == doc_w3 == doc_w8 and doc1.startswith("axis_name,")
    assert _report("8 sweep determinism", ok,
                   f"{len(doc1.splitlines()) - 1} rows byte-identical across runs and workers")
