"""Config parsing, object building, and end-to-end CLI runs."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bilodyne.analytic import psd_analytic
from bilodyne.cli import main
from bilodyne.config import _CHOICES, SCHEMA, RunConfig, parse_config
from bilodyne.errors import BilodyneError, ConfigViolation, ParseError, UnknownKey
from bilodyne.io import read_spectrum_csv, read_trace_bin
from bilodyne.model import (
    TWO_PI,
    Hypothesis,
    ModeLabel,
    calibrate_photon_energy,
    photon_flux,
)
from bilodyne.montecarlo import ExperimentReport

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE_CFG = """
field.signal_flux      = 1e3
lo.flux                = 1e6
lo.f_het_hz            = 1e5
detector.eta           = 0.7
measurement.duration_s = 2.0
"""


def write_cfg(tmp_path, text: str, name: str = "run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_empty_file_yields_defaults(self, tmp_path):
        values = parse_config(write_cfg(tmp_path, "\n"))
        assert values["field.signal_flux"] == 1e3
        assert values["measurement.seed"] == 20260815
        assert values["scan.powers_nw"] == (0.5, 1.0, 2.0)
        assert values["output.write_trace"] is False

    def test_comments_and_types(self, tmp_path):
        text = """
        # full-line comment
        field.signal_flux = 2e4   # inline comment
        field.phase_averaged = true
        measurement.n_segments = 32
        scan.powers_nw = 1.0, 3.0
        """
        values = parse_config(write_cfg(tmp_path, text))
        assert values["field.signal_flux"] == 2e4
        assert values["field.phase_averaged"] is True
        assert values["measurement.n_segments"] == 32
        assert values["scan.powers_nw"] == (1.0, 3.0)

    def test_unknown_key_with_location(self, tmp_path):
        path = write_cfg(tmp_path, "lo.fluxx = 1\n")
        with pytest.raises(UnknownKey) as err:
            parse_config(path)
        assert ":1:" in str(err.value)
        assert "lo.fluxx" in str(err.value)

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, "field.signal_flux 1e3\n"))

    def test_empty_value(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, "field.signal_flux =\n"))

    def test_bad_float(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, "field.signal_flux = fast\n"))

    def test_bad_bool(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, "field.phase_averaged = maybe\n"))

    def test_bad_choice(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, "lo.kind = trichromatic\n"))

    def test_exponential_needs_timescale(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, "detector.pulse = exponential\n"))
        values = parse_config(
            write_cfg(tmp_path, "detector.pulse = exponential\ndetector.pulse_tau_s = 1e-7\n")
        )
        assert values["detector.pulse_tau_s"] == 1e-7


class TestRunConfigBuilders:
    def test_default_state(self, tmp_path):
        cfg = RunConfig.load("analytic", write_cfg(tmp_path, BASE_CFG))
        state = cfg.build_state()
        assert len(state.modes) == 1
        assert state.modes[0].amplitude == pytest.approx(math.sqrt(2e3))
        assert state.modes[0].frequency == pytest.approx(TWO_PI * 2.82e14)
        assert state.hypothesis is Hypothesis.ONE_FIELD
        assert state.theta_s == 0.0

    def test_squeezed_state_image_placement(self, tmp_path):
        text = BASE_CFG + "squeeze.enabled = true\nsqueeze.offset_hz = 2e5\n"
        cfg = RunConfig.load("analytic", write_cfg(tmp_path, text))
        state = cfg.build_state()
        labels = [m.label for m in state.modes]
        assert labels == [ModeLabel.SIGNAL, ModeLabel.IMAGE1, ModeLabel.IMAGE2]
        assert state.is_squeezed()
        assert state.squeeze[0].r == 0.5

    @pytest.mark.parametrize("r", [-0.1, 35.3, 200.0, math.inf, math.nan])
    def test_squeeze_beyond_the_flux_bound_is_refused(self, r):
        # sinh(r)^2 above MAX_PHOTON_FLUX; from r ~ 177 the moment table
        # overflowed with numpy warnings before the strong-LO check refused it
        cfg = RunConfig.defaults({"squeeze.enabled": True, "squeeze.r": r})
        with pytest.raises(ConfigViolation, match="squeeze.r"):
            cfg.build_state()
        assert RunConfig.defaults({"squeeze.enabled": True, "squeeze.r": 35.2}).build_state()

    def test_squeezed_state_sideband_placement(self, tmp_path):
        text = BASE_CFG + "squeeze.enabled = true\nsqueeze.placement = sideband\n"
        cfg = RunConfig.load("analytic", write_cfg(tmp_path, text))
        labels = [m.label for m in cfg.build_state().modes]
        assert labels == [ModeLabel.SIGNAL, ModeLabel.SIDEBAND, ModeLabel.SIDEBAND]

    def test_phase_averaged_state(self, tmp_path):
        text = BASE_CFG + "field.phase_averaged = true\n"
        cfg = RunConfig.load("analytic", write_cfg(tmp_path, text))
        assert cfg.build_state().theta_s is None

    def test_lo_kinds(self, tmp_path):
        cfg = RunConfig.load("analytic", write_cfg(tmp_path, BASE_CFG))
        lo = cfg.build_lo()
        assert lo.is_bichromatic
        assert lo.amplitude == pytest.approx(1e3)
        assert lo.omega_het == pytest.approx(TWO_PI * 1e5, rel=1e-6)
        cfg_mono = RunConfig.load(
            "analytic", write_cfg(tmp_path, BASE_CFG + "lo.kind = mono\n", "mono.cfg")
        )
        assert not cfg_mono.build_lo().is_bichromatic

    def test_detector_and_measurement(self, tmp_path):
        text = BASE_CFG + (
            "detector.pulse = exponential\ndetector.pulse_tau_s = 2e-7\n"
            "measurement.rbw_hz = 2e3\nmeasurement.seed = 99\n"
        )
        cfg = RunConfig.load("analytic", write_cfg(tmp_path, text))
        det = cfg.build_detector()
        assert det.eta == 0.7
        assert det.pulse_tau == 2e-7
        assert cfg.build_measurement().rbw == 2e3
        assert cfg.values["measurement.seed"] == 99

    def test_seed_override(self, tmp_path):
        cfg = RunConfig.load("analytic", write_cfg(tmp_path, BASE_CFG), seed_override=7)
        assert cfg.values["measurement.seed"] == 7

    def test_scan_scenes(self, tmp_path):
        text = BASE_CFG + (
            "scan.powers_nw = 0.5, 4.0\nscan.count_windows = 8\n"
            "lo.theta_1 = 0.3\nlo.theta_2 = 0.1\n"
        )
        scan = RunConfig.load("simulate", write_cfg(tmp_path, text)).build_scan()
        assert scan.photon_energy_j == calibrate_photon_energy(0.5e-9, 1e-3, 0.7, 62.68)
        assert scan.count_windows == 8
        assert scan.window_s == 1e-3
        assert scan.powers_w == (0.5e-9, 4.0e-9)
        for power, scene in zip(scan.powers_w, scan.scenes):
            flux = power / scan.photon_energy_j
            assert photon_flux(scene.state) == pytest.approx(flux, rel=1e-12)
            assert scene.lo.amplitude**2 == pytest.approx(100.0 * flux, rel=1e-12)
            assert scene.lo.omega_het == pytest.approx(TWO_PI * 2e6, rel=1e-6)
            assert (scene.lo.theta_1, scene.lo.theta_2) == (0.3, 0.1)
            assert scene.state.theta_s == scene.lo.theta_bar
            assert scene.f_het_hz == 2e6
            assert (scene.meas.duration, scene.meas.rbw, scene.meas.sample_rate) == (
                1.7e-4, 2e5, 4e7
            )


# keys the scene builders do not read: the Monte Carlo choice, the trace
# switch, the run's seed, and the scan block (checked against build_scan
# instead)
NON_SCENE_KEYS = {"simulate.scenario", "output.write_trace", "measurement.seed"}
# settings under which a key is live (squeeze.* needs squeezing enabled,
# the pulse time needs an exponential pulse)
LIVE_WITH = {
    "squeeze.r": {"squeeze.enabled": True},
    "squeeze.phi": {"squeeze.enabled": True},
    "squeeze.offset_hz": {"squeeze.enabled": True},
    "squeeze.placement": {"squeeze.enabled": True},
    "detector.pulse": {"detector.pulse_tau_s": 1e-7},
    "detector.pulse_tau_s": {"detector.pulse": "exponential", "detector.pulse_tau_s": 1e-7},
}


def _other_value(key):
    """A valid value for key that differs from its SCHEMA default."""
    default = SCHEMA[key][1]
    if key in _CHOICES:
        return next(c for c in _CHOICES[key] if c != default)
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, tuple):
        return tuple(0.5 * x + 0.125 for x in default)
    return 0.5 * default + 0.125


def _changes_or_raises(key, build):
    base = LIVE_WITH.get(key, {})
    before = build(RunConfig.defaults(base))
    changed = dict(base, **{key: _other_value(key)})
    try:
        after = build(RunConfig.defaults(changed))
    except BilodyneError:
        return True
    return after != before


class TestNoSilentKeys:
    """Every config key reaches the scene it describes, or is refused."""

    @pytest.mark.parametrize(
        "key", sorted(k for k in SCHEMA if not k.startswith("scan.") and k not in NON_SCENE_KEYS)
    )
    def test_scene_key_is_read(self, key):
        assert _changes_or_raises(key, RunConfig.build_scene)

    @pytest.mark.parametrize("key", sorted(k for k in SCHEMA if k.startswith("scan.")))
    def test_scan_key_is_read(self, key):
        assert _changes_or_raises(key, RunConfig.build_scan)

    @pytest.mark.parametrize(
        "extra",
        ["", "field.signal_flux = 2e3\nlo.theta_1 = 0.3\nmeasurement.rbw_hz = 2e3\n"],
        ids=["default.cfg", "changed"],
    )
    def test_simulate_and_analytic_run_one_scene(self, tmp_path, monkeypatch, extra):
        import bilodyne.cli as cli

        seen = {}

        def fake_run(scenario, scene, **kwargs):
            seen["simulate"] = scene
            seen["seed"] = kwargs["seed"]
            return ExperimentReport(scenario=scenario, seed=kwargs["seed"])

        def spy_psd(state, lo, det, meas):
            seen["analytic"] = (state, lo, det, meas)
            return psd_analytic(state, lo, det, meas)

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        monkeypatch.setattr(cli, "psd_analytic", spy_psd)
        cfg = str(write_cfg(tmp_path, (CONFIGS / "default.cfg").read_text() + extra))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        sim = seen["simulate"]
        assert (sim.state, sim.lo, sim.det, sim.meas) == seen["analytic"]
        assert sim == RunConfig.load("analytic", cfg).build_scene()
        assert seen["seed"] == parse_config(cfg)["measurement.seed"] == 20260815


FAST_SIM_CFG = BASE_CFG + (
    "simulate.scenario = shot-floor\n"
    "measurement.duration_s = 0.5\n"
)


class TestCliRuns:
    def test_analytic_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        freqs, psd = read_spectrum_csv(out / "spectrum.csv")
        assert freqs.size == psd.size > 1000
        np.testing.assert_array_equal(psd, np.full(psd.size, 1400000.0))
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "analytic"
        assert report["results"]["shot_floor"] == 1400000.0
        assert report["results"]["beat_freq_hz"] == 1e5
        assert report["config"]["field.signal_flux"] == 1e3

    def test_analytic_noise_figure_is_the_snr_difference(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert math.isfinite(results["nf_db"])
        assert results["nf_db"] == results["snr_in_db"] - results["snr_out_db"]

    def test_analytic_mono_has_no_snr_block(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + "lo.kind = mono\n")
        out = tmp_path / "out"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "snr_out_db" not in report["results"]
        assert report["results"]["shot_floor"] == 1400000.0

    def test_table_scenario_exact_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 0
        expected = (
            "power_nw,snr_in_db,snr_out_db,nf_db\n"
            "0.50,62.68,62.68,0.00\n"
            "1.00,65.69,65.69,0.00\n"
            "2.00,68.70,68.70,0.00\n"
        )
        assert (out / "table.csv").read_text() == expected
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["photon_energy_j"] == pytest.approx(
            1.8882871788029474e-19, rel=1e-12
        )

    def test_squeezed_compare_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + "squeeze.enabled = true\n")
        out = tmp_path / "out"
        assert main(["squeezed-compare", "--config", str(cfg), "--out", str(out)]) == 0
        _, one = read_spectrum_csv(out / "spectrum_one_field.csv")
        _, three = read_spectrum_csv(out / "spectrum_three_fields.csv")
        assert one.size == three.size
        report = json.loads((out / "report.json").read_text())
        diff = float(np.max(np.abs(one - three)))
        assert report["results"]["max_abs_difference"] == pytest.approx(diff, rel=1e-12)
        assert diff > 0.0
        assert min(one.min(), three.min()) >= 0.0

    def test_squeezed_compare_requires_squeezing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        assert main(["squeezed-compare", "--config", str(cfg), "--out", str(out)]) == 1
        assert "squeeze.enabled" in capsys.readouterr().err

    def test_simulate_passing_run(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["passed"] is True
        names = [c["name"] for c in report["results"]["checks"]]
        assert names == ["shot_floor_level", "shot_floor_flatness_t"]
        freqs, psd = read_spectrum_csv(out / "spectrum.csv")
        assert freqs.size == 5001

    def test_simulate_failing_run_exits_two(self, tmp_path):
        # a quadrature-phase signal has no beatnote, so the beatnote
        # power check must fail and the process must say so
        text = BASE_CFG + (
            "simulate.scenario = beatnote\n"
            "measurement.duration_s = 0.5\n"
            "field.theta_s = 1.5707963267948966\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["passed"] is False
        failed = {c["name"]: c["passed"] for c in report["results"]["checks"]}
        assert failed["beatnote_power"] is False

    def test_simulate_runs_the_lo_phases(self, tmp_path):
        # the quadrature signal of the test above, matched by turning both
        # LO tones to pi/2: the beat is back at its full matched power
        text = BASE_CFG + (
            "simulate.scenario = beatnote\n"
            "measurement.duration_s = 0.5\n"
            "field.theta_s = 1.5707963267948966\n"
            "lo.theta_1 = 1.5707963267948966\n"
            "lo.theta_2 = 1.5707963267948966\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) in (0, 2)
        scalars = json.loads((out / "report.json").read_text())["results"]["scalars"]
        x = math.pi * 1e5 / 1e7
        matched = 2.0 * (0.7 * math.sqrt(2e3) * 1e3) ** 2 * (math.sin(x) / x) ** 2
        assert scalars["beat_target"] == pytest.approx(matched, rel=1e-9)
        assert scalars["beat_power"] > 0.5 * matched

    def test_simulate_writes_trace_when_asked(self, tmp_path):
        text = FAST_SIM_CFG.replace("0.5", "0.05") + "output.write_trace = true\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        dt, samples = read_trace_bin(out / "trace.bin")
        assert dt == pytest.approx(1e-7)
        assert samples.size == 500000

    def test_simulate_that_fails_after_the_pass_leaves_no_trace(self, tmp_path):
        # so faint a detector that no photon is counted: the whole trace is
        # written, then the Parseval check finds a constant current
        text = (
            FAST_SIM_CFG.replace("0.5", "0.05")
            .replace("shot-floor", "default")
            .replace("0.7", "1e-302")
            + "output.write_trace = true\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert list(out.iterdir()) == []

    def test_seed_override_lands_in_report(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        assert main(["analytic", "--config", str(cfg), "--out", str(out), "--seed", "31"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 31

    @pytest.mark.parametrize("scenario", ["analytic", "simulate"])
    @pytest.mark.parametrize(
        "setting", [("", ["--seed", "-1"]), ("measurement.seed = -3\n", [])], ids=["flag", "file"]
    )
    def test_negative_seed_is_refused(self, tmp_path, capsys, scenario, setting):
        text, flags = setting
        cfg = write_cfg(tmp_path, FAST_SIM_CFG + text)
        out = tmp_path / "out"
        assert main([scenario, "--config", str(cfg), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err


class TestCliDeterminism:
    def _strip_timestamp(self, path) -> str:
        lines = path.read_text().splitlines()
        return "\n".join(l for l in lines if '"generated_at"' not in l)

    def test_analytic_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["analytic", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["analytic", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()
        assert self._strip_timestamp(out_a / "report.json") == self._strip_timestamp(
            out_b / "report.json"
        )

    def test_simulate_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()
        assert self._strip_timestamp(out_a / "report.json") == self._strip_timestamp(
            out_b / "report.json"
        )


class TestCliErrors:
    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "lo.fluxx = 1\n")
        assert main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "lo.fluxx" in err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["analytic", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_geometry_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "measurement.rbw_hz = 5e4\n")
        assert main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_null_phase_validates_geometry(self, tmp_path, capsys):
        # the beat at 4 kHz does not clear 10 x rbw, as for shot-floor
        text = BASE_CFG + "lo.f_het_hz = 4e3\nsimulate.scenario = null-phase\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "heterodyne frequency" in err

    @pytest.mark.parametrize(
        "argv", [["table1"], ["simulate"]], ids=["table1", "simulate-sensitivity"]
    )
    def test_empty_power_list_exits_one(self, tmp_path, capsys, argv):
        cfg = write_cfg(tmp_path, "simulate.scenario = sensitivity\nscan.powers_nw = ,\n")
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "scan.powers_nw" in err

    @pytest.mark.parametrize("scenario", ["analytic", "simulate"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ("measurement.sample_rate_hz = 1e300", "MAX_RECORD_SAMPLES"),
            ("measurement.duration_s = 1e9", "MAX_RECORD_SAMPLES"),
            ("measurement.rbw_hz = 1e-300", "MAX_SEGMENT_SAMPLES"),
            ("measurement.rbw_hz = 1", "MAX_SEGMENT_SAMPLES"),
        ],
    )
    def test_oversized_record_exits_one(self, tmp_path, capsys, scenario, setting, message):
        # refused by the config layer, before any array is allocated
        cfg = write_cfg(tmp_path, BASE_CFG + setting + "\n")
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err and setting.split()[0] in err

    @pytest.mark.parametrize("scenario", ["analytic", "simulate"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("key", ["field.signal_flux", "lo.flux"])
    def test_bad_flux_exits_one(self, tmp_path, capsys, scenario, value, key):
        cfg = write_cfg(tmp_path, f"{key} = {value}\n")
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err

    @pytest.mark.parametrize(
        "setting",
        [
            "lo.kind = mono",
            "field.phase_averaged = true",
            "squeeze.enabled = true",
            "detector.pulse = exponential",
        ],
    )
    def test_unmodelled_simulate_setting_exits_one(self, tmp_path, capsys, setting):
        text = BASE_CFG + setting + "\ndetector.pulse_tau_s = 1e-7\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and setting in err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("measurement.duration_s = inf", "measurement.duration_s"),
            ("measurement.duration_s = nan", "measurement.duration_s"),
            ("measurement.sample_rate_hz = nan", "measurement.sample_rate_hz"),
            ("measurement.rbw_hz = inf", "measurement.rbw_hz"),
            ("lo.theta_1 = nan", "lo.theta_1"),
            ("field.theta_s = inf", "field.theta_s"),
            ("squeeze.enabled = true\nsqueeze.phi = nan", "squeeze.phi"),
        ],
    )
    def test_non_finite_scene_value_exits_one(self, tmp_path, capsys, setting, message):
        cfg = write_cfg(tmp_path, BASE_CFG + setting + "\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    @pytest.mark.parametrize("argv", [["table1"], ["simulate"]], ids=["table1", "simulate"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ("scan.window_s = nan", "scan.window_s"),
            ("scan.anchor_snr_db = -inf", "scan.anchor_snr_db"),
            ("scan.anchor_snr_db = 1e4", "input SNR 10000.0 dB"),
            ("scan.duration_s = inf", "scan.duration_s"),
            ("scan.count_windows = 0", "scan.count_windows"),
            ("scan.sample_rate_hz = 1e300", "scan.sample_rate_hz"),
            ("scan.rbw_hz = 1e-3", "scan.rbw_hz"),
            ("scan.lo_ratio = -1", "scan.lo_ratio"),
            ("scan.lo_ratio = inf", "scan.lo_ratio"),
            ("scan.lo_ratio = 1e40", "scan.powers_nw = 0.5 nW: lo.flux"),
        ],
    )
    def test_bad_scan_value_exits_one(self, tmp_path, capsys, argv, setting, message):
        cfg = write_cfg(tmp_path, f"simulate.scenario = sensitivity\n{setting}\n")
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    @pytest.mark.parametrize(
        "argv, setting, message",
        [
            (["simulate"], "field.signal_flux = 1e28", "Poisson draw"),
            (["simulate"], "lo.flux = 1e31", "MAX_PHOTON_FLUX"),
            (["analytic"], "field.signal_flux = 1e300", "MAX_PHOTON_FLUX"),
            (["simulate"], "detector.eta = 1e-302", "Parseval ratio"),
            (["table1"], "scan.window_s = 4e-170", "MAX_PHOTON_FLUX"),
            (["simulate"], "simulate.scenario = sensitivity\nscan.count_windows = 10000000000",
             "scan.count_windows"),
            (["simulate"], "simulate.scenario = sensitivity\nscan.powers_nw = 0.5, 1e-9", "SNR"),
            (["simulate"], "simulate.scenario = sensitivity\nscan.powers_nw = 0.5, 1e-6", "SNR"),
            (["analytic"], "squeeze.enabled = true\nsqueeze.r = 711", "squeeze parameter"),
        ],
    )
    def test_value_out_of_numeric_range_exits_one(self, tmp_path, capsys, argv, setting, message):
        # each of these ended in a traceback (overflow, a Poisson mean numpy
        # refuses, a division by zero, the log of zero) before it was refused
        text = "measurement.duration_s = 0.01\nmeasurement.rbw_hz = 2e3\n" + setting + "\n"
        cfg = write_cfg(tmp_path, text)
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_unknown_scenario_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test requirement only: neither start-up nor a default
    # simulate run loads it, and every scenario runs where it cannot load
    import bilodyne

    src = str(Path(bilodyne.__file__).resolve().parents[1])
    cfg = write_cfg(tmp_path, "measurement.duration_s = 0.25\n")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]
    listing = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bilodyne.cli; {listing}; "
        f"print(bilodyne.cli.main({argv!r})); {listing}"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
    # a 0.25 s record's lock-in line scatters by ~9 %, so the 5 % beatnote
    # gate may go either way: the run must reach a verdict and report it
    assert lines[-2] in ("0", "2")
    results = json.loads((tmp_path / "o" / "report.json").read_text())["results"]
    assert results["passed"] is (lines[-2] == "0")

    configs = ("default.cfg", "sensitivity.cfg", "squeezed.cfg")
    runs = [(scenario, name) for scenario in ("analytic", "table1") for name in configs]
    runs.append(("squeezed-compare", "squeezed.cfg"))
    argvs = [
        [scenario, "--config", str(CONFIGS / name), "--out", str(tmp_path / f"{scenario}-{name}")]
        for scenario, name in runs
    ]
    argvs.append(["simulate", "--config", str(cfg), "--out", str(tmp_path / "blocked")])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); sys.modules['scipy'] = None; "
        f"import bilodyne, bilodyne.cli; print([bilodyne.cli.main(a) for a in {argvs!r}])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    *analytic, simulate = json.loads(out.stdout.strip().splitlines()[-1])
    assert analytic == [0] * len(runs)
    assert simulate in (0, 2)


def test_cli_and_a_scan_load_no_numpy_ma(tmp_path):
    # the beatnote floor's median is taken without np.median, whose first
    # call imports numpy.ma (10-12 ms of start-up)
    import bilodyne

    src = str(Path(bilodyne.__file__).resolve().parents[1])
    cfg = write_cfg(tmp_path, "simulate.scenario = sensitivity\nscan.powers_nw = 0.5\n")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]
    loaded = "print('numpy.ma' in sys.modules)"
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bilodyne.cli; {loaded}; "
        f"print(bilodyne.cli.main({argv!r})); {loaded}"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[-2] in ("0", "2")
    assert lines[-1] == "False"
    # the one row's output SNR comes from the beatnote above its median floor
    (row,) = json.loads((tmp_path / "o" / "report.json").read_text())["results"]["scalars"]["rows"]
    assert math.isfinite(row["snr_out_db"])
