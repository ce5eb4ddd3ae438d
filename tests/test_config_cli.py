"""Config parsing, presets, CSV sweeps, and CLI exit codes."""

import contextlib
import io
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backsec import cli, config
from backsec.channel import NakagamiLink
from backsec.config import (
    SweepSpec,
    apply_axis,
    load_config,
    loads_config,
    preset_names,
    preset_text,
)
from backsec.ehmodel import EhParams
from backsec.errors import ConfigParseError, ValidationError
from backsec.montecarlo import McConfig
from backsec.system import ProtocolKind, SystemParams

MINIMAL = "p_c = 100 uW\n"

# Frozen to_text() of fig2.  A format change that parses back equal (1000.0
# written as 1e3, say) passes the round trip but must fail here.
FIG2_TEXT = """\
# resolved configuration (linear units)
metric = sop
methods = exact, asymptotic, mc
protocols = sots, mets, ots, rts
axis = gamma_t_db
axis_values = 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0
gamma_t = 1000.0
p_tx = 1.0
gamma_p = 3.1622776601683795
zeta = 2.2
n_tags = 3
rate = 0.5
m_sk = 2
m_kd = 2
m_ke = 2
lambda_sk = 1.5848931924611134
lambda_kd = 1.9952623149688793
lambda_ke = 3.162277660168379
d_s = 1.0
d_d = 2.0
d_e = 4.0
u_s = 2.0
u_d = 2.0
u_e = 2.0
p_max = 0.00019999999999999998
xi0 = 4.9999999999999996e-06
xi1 = 5000.0
xi2 = 0.0002
p_c = 9.999999999999999e-05
trials = 1000000
seed = 1
batch_size = 65536
workers = 1
"""

# The lines where the other presets and the minimal config differ from fig2.
TEXT_CHANGES = {
    "fig2": [],
    "fig3": ["axis = d_d", "axis_values = 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0"],
    "fig4": ["axis = d_e", "axis_values = 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0"],
    "fig5": ["axis = rate", "axis_values = 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0"],
    "fig6": ["protocols = sots", "axis = m_all", "axis_values = 1.0, 2.0, 3.0, 4.0"],
    "fig7": ["metric = ip"],
    "minimal": ["p_max = 0.0002", "xi0 = 5e-06"],
}

# Entries the CLI must reject with exit code 2, not a traceback: a number past
# the float range, before or after its unit, or a derived value (2^R, d^-u,
# phi) past it.
N4M3 = "n_tags=4 m_sk=3 m_kd=3 m_ke=3 "
OUT_OF_RANGE_POINTS = [
    "trials=1e400", "d_d=1e400", "gamma_t=1e400", "gamma_t=4000dB",
    "rate=1100", "d_d=1e-300m", "d_d=1e300m", "xi1=1e300",
    "lambda_sk=1e-310", "p_tx=1e-320",
    # accepted inputs whose closed-form intermediates leave the float range
    "rate=345", "lambda_sk=1e-200", "lambda_kd=1e300", "lambda_ke=1e200",
    "gamma_t=1e-200", "gamma_p=1e200", "zeta=1e-200", "d_s=1e100", "d_d=1e100",
    "d_e=1e-100", N4M3 + "p_tx=1e-200", N4M3 + "xi1=1e-200",
    # ... by a divisor that underflows to 0, by an infinite special-function
    # argument, by a W1 tail coefficient and by a Bessel argument that
    # underflow to 0
    "n_tags=1 zeta=6e-298 d_d=2e147",
    "n_tags=4 m_sk=1 m_kd=1 m_ke=1 xi1=6.5e-270 lambda_sk=5.1e225",
    "n_tags=1 m_sk=3 m_kd=3 m_ke=3 lambda_sk=1.7e283 gamma_t=1.56e-44",
    "n_tags=2 m_sk=3 m_kd=3 m_ke=3 d_d=4.27e-44 gamma_t=1.04e263",
    "n_tags=3 m_sk=1 m_kd=1 m_ke=1 lambda_sk=6e-270 lambda_kd=1.4e-119",
    # simulated SNRs whose ratio is inf/inf
    "n_tags=2 m_sk=1 m_kd=1 m_ke=1 zeta=1e274 gamma_t=1e284",
    # a closed-form sum that is inf * 0 (SOTS exact SOP), so NaN
    "n_tags=4 m_sk=2 m_kd=2 m_ke=2 gamma_p=2.6450996970736533e-137",
    # a closed-form sum with terms inf and -inf (SOTS exact SOP), so NaN
    "n_tags=3 m_sk=3 m_kd=1 m_ke=1 p_tx=1.2325426454030978e+148 "
    "lambda_kd=1.9615621205034033e-209 d_e=4.61062933115609e+149",
]

# keys whose values the property test keeps small: N <= 4, m <= 3
SMALL_INT_KEYS = {"n_tags": 4, "m_sk": 3, "m_kd": 3, "m_ke": 3}


@st.composite
def oracle_points(draw):
    """--point entries: fixed p_c and shapes, then one or two keys of the
    config grammar with values log-uniform over the float range."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    point = ["p_c=100uW", f"n_tags={n}", f"m_sk={m}", f"m_kd={m}", f"m_ke={m}"]
    keys = draw(st.lists(st.sampled_from(sorted(config._KEYS)), min_size=1, max_size=2,
                         unique=True))
    for key in keys:
        if key in SMALL_INT_KEYS:
            value = draw(st.integers(0, SMALL_INT_KEYS[key]))
        else:
            value = 10.0 ** draw(st.floats(-310.0, 308.0))
        point.append(f"{key}={value!r}")
    return point


def fast_spec(**overrides):
    spec = loads_config(MINIMAL)
    mc = McConfig(trials=overrides.pop("trials", 20_000), seed=overrides.pop("seed", 3),
                  batch_size=8192, workers=overrides.pop("workers", 1))
    return replace(spec, mc=mc, **overrides)


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        link = NakagamiLink.from_lambda_tilde
        expected = SweepSpec(
            metric="sop", methods=("exact", "asymptotic", "mc"), protocols=tuple(ProtocolKind),
            axis="gamma_t_db", axis_values=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
            base=SystemParams(
                p_tx=1.0, gamma_t=1000.0, gamma_p=10 ** 0.5, zeta=2.2, n_tags=3,
                rate_threshold=0.5, link_s=link(2, 10 ** 0.2, 1.0, 2.0),
                link_d=link(2, 10 ** 0.3, 2.0, 2.0), link_e=link(2, 10 ** 0.5, 4.0, 2.0),
                # 100 * 1e-6 is what "100 uW" parses to (not 100e-6)
                eh=EhParams(p_max=200e-6, xi0=5e-6, xi1=5000.0, xi2=2e-4, p_c=100 * 1e-6)),
            mc=McConfig(trials=1_000_000, seed=1, batch_size=65536, workers=1))
        assert loads_config(MINIMAL) == expected

    def test_db_and_power_units(self):
        spec = loads_config(MINIMAL + "gamma_t = 20 dB\nlambda_sk = 1.6\np_max = 0.0005 W\n")
        assert spec.base.gamma_t == pytest.approx(100.0)
        assert spec.base.links_of("s")[0].lambda_tilde == pytest.approx(1.6)
        assert spec.base.eh.p_max == pytest.approx(5e-4)

    def test_comments_and_blank_lines(self):
        spec = loads_config("# top comment\n\np_c = 100 uW  # inline\n\nn_tags = 4\n")
        assert spec.base.n_tags == 4

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigParseError) as err:
            loads_config("p_c = 100 uW\nn_tags four\n")
        assert "line 2" in str(err.value)
        assert err.value.line_no == 2

    def test_key_given_twice_takes_its_last_value(self, tmp_path):
        # perfbench/probes.py and ClosedFormGrid append n_tags, m_* and sweep
        # keys to fig2's text, which already sets them
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(MINIMAL + "d_e = 4 m\nd_e = 9 m\n")
        assert load_config(str(cfg)).base.links_of("e")[0].distance == 9.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigParseError) as err:
            loads_config("p_c = 100 uW\nbogus = 1\n")
        assert "bogus" in str(err.value)

    @pytest.mark.parametrize("line", [
        "axis_values = 0, nan", "axis_values = 0, inf", "axis_values = 0, 1_0",
        "axis_values = 0, 10 dB", "trials = 1e400", "d_d = 1e400 m", "gamma_t = 4000 dB",
    ])
    def test_one_number_grammar(self, line):
        # list items and scalars share one grammar: finite numbers only, and a
        # unit only where the key takes one
        with pytest.raises(ConfigParseError) as err:
            loads_config(MINIMAL + line + "\n")
        assert err.value.line_no == 2 and "line 2" in str(err.value)

    @pytest.mark.parametrize("line, value", [
        ("trials = 2e5", 200_000), ("n_tags = 4.", 4), ("seed = +0.0e0", 0),
        ("seed = 9007199254740993", 2 ** 53 + 1),
        ("seed = 18446744073709551615", 2 ** 64 - 1),
        ("batch_size = 12345678901234567.000", 12345678901234567),
    ])
    def test_integer_keys_read_the_literal_exactly(self, line, value):
        key = line.split()[0]
        assert f"\n{key} = {value}\n" in loads_config(MINIMAL + line + "\n").to_text()

    @pytest.mark.parametrize("line", ["n_tags = 2.5", "seed = 9007199254740992.5",
                                      "trials = 1e-400"])
    def test_integer_keys_reject_fractions(self, line):
        with pytest.raises(ConfigParseError, match="must be an integer"):
            loads_config(MINIMAL + line + "\n")

    def test_wrong_unit_rejected(self):
        with pytest.raises(ConfigParseError):
            loads_config("p_c = 100 uW\nd_d = 3 dB\n")
        with pytest.raises(ConfigParseError):
            loads_config("p_c = 100 uW\np_tx = 1 dB\n")

    def test_missing_p_c_rejected(self):
        with pytest.raises(ValidationError, match="p_c"):
            loads_config("n_tags = 3\n")

    def test_saturated_circuit_draw_names_phi2(self):
        with pytest.raises(ValidationError, match="phi2"):
            loads_config("p_c = 200 uW\np_max = 200 uW\n")

    def test_axis_values_must_increase(self):
        with pytest.raises(ValidationError):
            loads_config(MINIMAL + "axis_values = 0, 10, 10\n")

    def test_m_axis_values_must_be_integers(self):
        with pytest.raises(ValidationError):
            loads_config(MINIMAL + "axis = m_all\naxis_values = 1, 2.5\n")

    @pytest.mark.parametrize("key, raw, expected", [
        ("metric", "SOP", "sop"), ("metric", "ipp", None), ("metric", ",", None),
        ("metric", "sop, ip", None), ("metric", "sop, sop", None),
        ("methods", "MC, mc, Exact", ("exact", "mc")), ("methods", "exact, wrong", None),
        ("methods", ",", None),
        ("protocols", "RTS, sots, rts", (ProtocolKind.SOTS, ProtocolKind.RTS)),
        ("protocols", "sots, best", None), ("protocols", ",", None),
        ("axis", "D_E", "d_e"), ("axis", "distance", None), ("axis", ",", None),
        ("axis", "d_d, d_e", None),
    ])
    def test_word_keys_take_one_rule(self, key, raw, expected):
        # metric and axis name exactly one allowed word; methods and protocols
        # a non-empty subset, read in canonical order; case and repeats do not
        # matter, and every rejection names the key, the words and the input
        allowed = {"metric": "sop, ip", "methods": "exact, asymptotic, mc",
                   "protocols": "sots, mets, ots, rts",
                   "axis": "gamma_t_db, d_d, d_e, rate, m_all"}[key]
        text = MINIMAL + f"{key} = {raw}\naxis_values = 2, 3\n"
        if expected is not None:
            assert getattr(loads_config(text), key) == expected
            return
        with pytest.raises(ValidationError) as err:
            loads_config(text)
        message = str(err.value)
        assert message.startswith(f"{key} must be ")
        assert allowed in message and repr(raw) in message

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigParseError, match="empty value for key 'p_c'"):
            loads_config("p_c =\n")

    def test_empty_axis_values_rejected(self):
        with pytest.raises(ValidationError, match="axis_values must not be empty"):
            loads_config(MINIMAL + "axis_values = ,\n")

    @pytest.mark.parametrize("line, field", [
        ("u_s = 0", "pathloss_exp"), ("lambda_sk = 0", "lambda_tilde"),
        ("xi2 = 0", "xi2"), ("p_c = 0 W", "p_c"),
    ])
    def test_non_positive_value_names_the_field(self, line, field):
        with pytest.raises(ValidationError, match=f"^{field} must be positive"):
            loads_config(MINIMAL + line + "\n")

    def test_method_and_protocol_subsets(self):
        spec = loads_config(MINIMAL + "methods = mc\nprotocols = ots, sots\n")
        assert spec.methods == ("mc",)
        assert spec.protocols == (ProtocolKind.SOTS, ProtocolKind.OTS)
        with pytest.raises(ValidationError):
            loads_config(MINIMAL + "methods = exact, wrong\n")


class TestRoundTrip:
    def test_emit_and_reload_identical(self):
        spec = loads_config(MINIMAL + "gamma_t = 17 dB\nrate = 0.75\nm_kd = 3\nseed = 99\n")
        again = loads_config(spec.to_text())
        assert again == spec

    def test_round_trip_all_presets(self):
        for name in preset_names():
            spec = loads_config(preset_text(name))
            assert loads_config(spec.to_text()) == spec

    @pytest.mark.parametrize("name", sorted(TEXT_CHANGES))
    def test_text_frozen(self, name):
        changed = {line.split(" = ")[0]: line for line in TEXT_CHANGES[name]}
        expected = "".join(changed.get(line.split(" = ")[0], line) + "\n"
                           for line in FIG2_TEXT.splitlines())
        spec = loads_config(MINIMAL if name == "minimal" else preset_text(name))
        assert spec.to_text() == expected


class TestPresets:
    def test_all_six_exist(self):
        assert preset_names() == ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

    def test_headers_name_the_preset(self):
        for name in preset_names():
            first_line = preset_text(name).splitlines()[0]
            assert first_line.startswith(f"# {name}:")

    def test_fig2_reference_parameters(self):
        spec = loads_config(preset_text("fig2"))
        base = spec.base
        assert spec.metric == "sop" and spec.axis == "gamma_t_db"
        assert base.links_of("s")[0].lambda_tilde == pytest.approx(10 ** 0.2)
        assert base.links_of("d")[0].lambda_tilde == pytest.approx(10 ** 0.3)
        assert base.links_of("e")[0].lambda_tilde == pytest.approx(10 ** 0.5)
        assert (base.links_of("s")[0].distance,
                base.links_of("d")[0].distance,
                base.links_of("e")[0].distance) == (1.0, 2.0, 4.0)
        assert base.rate_threshold == 0.5
        assert base.gamma_p == pytest.approx(10 ** 0.5)
        assert base.zeta == 2.2
        assert all(l.pathloss_exp == 2.0 for fam in "sde" for l in base.links_of(fam))
        assert base.links_of("s")[0].m == 2

    def test_fig6_is_shape_sweep(self):
        spec = loads_config(preset_text("fig6"))
        assert spec.axis == "m_all"
        assert spec.protocols == (ProtocolKind.SOTS,)
        assert spec.axis_values == (1.0, 2.0, 3.0, 4.0)

    def test_fig7_is_intercept(self):
        assert loads_config(preset_text("fig7")).metric == "ip"

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_text("fig99")


def per_tag_base():
    """The minimal scenario with three different links in every family."""
    def spread(link):
        return (link, replace(link, m=3, omega=0.8), replace(link, distance=link.distance * 1.5))
    base = loads_config(MINIMAL).base
    return replace(base, link_s=spread(base.link_s), link_d=spread(base.link_d),
                   link_e=spread(base.link_e))


class TestApplyAxis:
    def test_gamma_axis_rescales_power_at_fixed_noise(self):
        base = loads_config(MINIMAL).base
        moved = apply_axis(base, "gamma_t_db", 40.0)
        assert moved.gamma_t == pytest.approx(1e4)
        assert moved.noise_power == pytest.approx(base.noise_power)

    def test_distance_axes(self):
        base = loads_config(MINIMAL).base
        assert apply_axis(base, "d_d", 3.5).links_of("d")[0].distance == 3.5
        assert apply_axis(base, "d_e", 6.0).links_of("e")[0].distance == 6.0

    def test_m_axis_keeps_lambda(self):
        base = loads_config(MINIMAL).base
        moved = apply_axis(base, "m_all", 4)
        for fam in "sde":
            assert moved.links_of(fam)[0].m == 4
            assert moved.links_of(fam)[0].lambda_tilde == pytest.approx(
                base.links_of(fam)[0].lambda_tilde)
        assert apply_axis(base, "m_all", 4.0) == moved

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValidationError, match="unknown axis 'bogus'"):
            apply_axis(loads_config(MINIMAL).base, "bogus", 1.0)

    def test_m_axis_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            apply_axis(loads_config(MINIMAL).base, "m_all", 2.5)

    def test_gamma_axis_rejects_overflow(self):
        with pytest.raises(ValidationError):
            apply_axis(loads_config(MINIMAL).base, "gamma_t_db", 4000.0)

    def test_m_axis_keeps_per_tag_links(self):
        base = per_tag_base()
        moved = apply_axis(base, "m_all", 3)
        for fam in "sde":
            assert moved.links_of(fam) == tuple(
                NakagamiLink.from_lambda_tilde(3, l.lambda_tilde, l.distance, l.pathloss_exp)
                for l in base.links_of(fam))

    @pytest.mark.parametrize("axis", ["d_d", "d_e"])
    def test_distance_axes_keep_per_tag_links(self, axis):
        base = per_tag_base()
        moved = apply_axis(base, axis, 5.0)
        fam = axis[-1]
        assert moved.links_of(fam) == tuple(replace(l, distance=5.0) for l in base.links_of(fam))
        assert [moved.links_of(f) for f in "sde" if f != fam] == [
            base.links_of(f) for f in "sde" if f != fam]


class TestRunSweep:
    def test_csv_layout(self):
        spec = fast_spec(axis_values=(10.0, 20.0))
        doc = cli.run_sweep(spec)
        lines = doc.splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 2 * len(spec.protocols) * len(spec.methods)
        first = lines[1].split(",")
        assert first[0] == "gamma_t_db" and first[2] == "sots" and first[3] == "exact"
        assert first[5] == "" and first[6] == ""  # closed forms carry no stderr/trials
        mc_rows = [l for l in lines[1:] if l.split(",")[3] == "mc"]
        assert all(r.split(",")[6] == str(spec.mc.trials) for r in mc_rows)

    def test_byte_identical_across_runs_and_workers(self):
        spec = fast_spec(axis_values=(15.0,))
        doc1 = cli.run_sweep(spec)
        doc2 = cli.run_sweep(spec)
        doc4 = cli.run_sweep(replace(spec, mc=replace(spec.mc, workers=4)))
        assert doc1 == doc2 == doc4

    def test_seed_reproducibility(self):
        spec = fast_spec(axis_values=(15.0,))
        assert cli.run_sweep(spec) == cli.run_sweep(fast_spec(axis_values=(15.0,)))
        other = fast_spec(axis_values=(15.0,), seed=4)
        assert cli.run_sweep(spec) != cli.run_sweep(other)

    def test_exact_only_single_point(self):
        spec = fast_spec(axis_values=(25.0,), methods=("exact",))
        lines = cli.run_sweep(spec).splitlines()
        assert len(lines) == 1 + len(spec.protocols)


    @pytest.mark.parametrize("name", preset_names())
    def test_whole_preset_equals_its_single_value_runs(self, name):
        # the benchmark's presets_mc workload sweeps each preset one axis value
        # at a time and checks the joined rows against whole-sweep references
        spec = loads_config(preset_text(name))
        spec = replace(spec, mc=replace(spec.mc, trials=3000))
        rows = [cli.run_sweep(replace(spec, axis_values=(v,))).split("\n", 1)[1]
                for v in spec.axis_values]
        assert cli.run_sweep(spec) == cli.CSV_HEADER + "\n" + "".join(rows)


class TestCliCommands:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL)
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "gamma_t = 1000.0" in out

    def test_validate_preset(self, capsys):
        assert cli.main(["validate", "--preset", "fig5"]) == 0
        assert "axis = rate" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p_c = 300 uW\n")
        assert cli.main(["validate", "--config", str(cfg)]) == 2
        assert "phi2" in capsys.readouterr().err

    def test_missing_config_argument(self, capsys):
        assert cli.main(["sweep"]) == 2

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_neither_config_nor_preset_is_a_usage_error(self, command, capsys):
        assert cli.main([command]) == 2
        assert "one of the arguments --config --preset is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_config_and_preset_together_are_a_usage_error(self, command, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(MINIMAL)
        assert cli.main([command, "--config", str(cfg), "--preset", "fig3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "not allowed with argument" in err

    def test_sweep_writes_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL + "axis_values = 10, 20\nmethods = exact, mc\n"
                       "trials = 20000\nbatch_size = 8192\n")
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith(cli.CSV_HEADER)
        assert text.endswith("\n") and "\r" not in text

    def test_sweep_trials_and_seed_overrides(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(MINIMAL + "axis_values = 10\nmethods = mc\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out1),
                         "--trials", "9000", "--seed", "5"]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out2),
                         "--trials", "9000", "--seed", "5"]) == 0
        assert out1.read_text() == out2.read_text()
        assert ",9000" in out1.read_text()

    def test_instability_exit_code(self, tmp_path):
        # a pathologically distant eavesdropper collapses the asymptotic
        # comparison sum to pure cancellation, which must flag exit code 3
        cfg = tmp_path / "unstable.cfg"
        cfg.write_text(MINIMAL + "d_e = 5000 m\nmethods = asymptotic\n"
                       "protocols = sots\naxis_values = 10\n")
        out = tmp_path / "out.csv"
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert out.read_text().startswith(cli.CSV_HEADER)  # output still written

    def test_oracle_point(self, capsys):
        rc = cli.main(["oracle", "--point", "p_c=100uW", "gamma_t=20dB",
                       "--trials", "20000", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sots" in out and "exact" in out and "mc" in out

    def test_oracle_footer_names_the_whole_stream_key(self, capsys):
        # counts are reproducible for a fixed (seed, trials, batch_size)
        rc = cli.main(["oracle", "--point", "p_c=100uW", "batch_size=4096",
                       "--trials", "10000", "--seed", "2"])
        assert rc == 0
        footer = capsys.readouterr().out.splitlines()[-1]
        assert footer == "(mc trials = 10000, seed = 2, batch_size = 4096)"

    @pytest.mark.parametrize("seed", ["9007199254740993", "18446744073709551615"])
    def test_large_seed_survives_validate_and_oracle(self, seed, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(MINIMAL + f"seed = {seed}\n")
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        assert f"\nseed = {seed}\n" in capsys.readouterr().out
        assert cli.main(["oracle", "--point", "p_c=100uW", f"seed={seed}",
                         "--trials", "1000"]) == 0
        footer = capsys.readouterr().out.splitlines()[-1]
        assert footer == f"(mc trials = 1000, seed = {seed}, batch_size = 65536)"

    @pytest.mark.parametrize("command", ["validate", "oracle"])
    def test_tag_count_no_index_can_hold_exits_2(self, command, tmp_path, capsys):
        if command == "validate":
            cfg = tmp_path / "huge.cfg"
            cfg.write_text(MINIMAL + "n_tags = 1e300\n")
            argv = ["validate", "--config", str(cfg)]
        else:
            argv = ["oracle", "--point", "p_c=100uW", "n_tags=1e300"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: n_tags must be an integer")

    def test_validate_builds_no_tuple_of_n_tags_links(self, tmp_path, capsys):
        # 8e18 bytes of tuple would not fit in any address space
        cfg = tmp_path / "many.cfg"
        cfg.write_text(MINIMAL + "n_tags = 1e18\n")
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        assert "\nn_tags = 1000000000000000000\n" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", OUT_OF_RANGE_POINTS)
    def test_out_of_range_point_exits_2(self, entry, capsys):
        argv = ["oracle", "--point", "p_c=100uW", *entry.split(), "--trials", "1000"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_sweep_point_that_overflows_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(MINIMAL + "axis = rate\naxis_values = 0.5, 345\nmethods = exact\n")
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: exact_sop (sots)") and "1.798e+308" in err
        assert not out.exists()  # nothing is written unless every point succeeded

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nonexistent.cfg"
        assert cli.main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file") and str(path) in err

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err and "UTF-8" in err

    def test_sweep_out_in_missing_directory_exits_2_before_the_sweep(
            self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "nonexistent" / "x.csv"
        monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("the sweep ran"))
        assert cli.main(["sweep", "--preset", "fig2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write --out") and str(out) in err
        assert not out.parent.exists()

    def test_sweep_out_naming_a_directory_exits_2_before_the_sweep(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "estimate_all", lambda *a: pytest.fail("the sweep ran"))
        assert cli.main(["sweep", "--preset", "fig2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: cannot write --out {tmp_path}: " \
                                          "Is a directory\n"

    def test_oracle_point_key_given_twice_takes_its_last_value(self, monkeypatch, capsys):
        real, seen = cli.estimate_all, []
        monkeypatch.setattr(cli, "estimate_all",
                            lambda params, mc: seen.append(params.n_tags) or real(params, mc))
        assert cli.main(["oracle", "--point", "p_c=100uW", "n_tags=3", "n_tags=5",
                         "--trials", "1000"]) == 0
        assert seen == [5]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(point=oracle_points())
    def test_any_point_exits_0_2_or_3(self, point):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["oracle", "--point", *point, "--trials", "200"])
        assert rc in (0, 2, 3)
        if rc != 2:  # a printed table holds numbers only
            assert not re.search(r"\b(nan|inf)\b", out.getvalue()), out.getvalue()

    def test_other_warnings_reach_the_caller(self, monkeypatch, capsys):
        real = cli.estimate_all

        def noisy(params, mc):
            warnings.warn("estimator note", UserWarning)
            return real(params, mc)

        monkeypatch.setattr(cli, "estimate_all", noisy)
        with pytest.warns(UserWarning, match="estimator note"):
            assert cli.main(["oracle", "--point", "p_c=100uW", "--trials", "1000"]) == 0
        assert "instability" not in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0, inf", "0, 4000"])
    def test_out_of_range_axis_exits_2(self, values, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL + f"axis_values = {values}\nmethods = exact\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_oracle_point_without_equals_exits_2(self, capsys):
        assert cli.main(["oracle", "--point", "foo"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: oracle point entries must look like key=value")

    def test_oracle_requires_p_c(self, capsys):
        assert cli.main(["oracle", "--point", "gamma_t=20dB", "--trials", "1000"]) == 2

    def test_module_entry_point(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "backsec", "validate", "--preset", "fig2"],
            capture_output=True, text=True, cwd=str(root), env=env,
        )
        assert proc.returncode == 0
        assert "axis = gamma_t_db" in proc.stdout
