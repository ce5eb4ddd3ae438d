"""Config parsing, presets, CSV sweeps, and CLI exit codes."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from backsec import cli
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
OUT_OF_RANGE_POINTS = ["trials=1e400", "d_d=1e400", "gamma_t=1e400", "gamma_t=4000dB",
                       "rate=1100", "d_d=1e-300m", "d_d=1e300m", "xi1=1e300"]


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

    @pytest.mark.parametrize("entry", OUT_OF_RANGE_POINTS)
    def test_out_of_range_point_exits_2(self, entry, capsys):
        assert cli.main(["oracle", "--point", "p_c=100uW", entry, "--trials", "1000"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("values", ["0, inf", "0, 4000"])
    def test_out_of_range_axis_exits_2(self, values, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL + f"axis_values = {values}\nmethods = exact\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

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
