"""Round trips and format guards for spectrum, report, and trace files."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from bilodyne.analytic import Spectrum, SpectrumKind
from bilodyne.errors import ParseError
from bilodyne.io import (
    TRACE_MAGIC,
    read_spectrum_csv,
    read_trace_bin,
    write_report_json,
    write_spectrum_csv,
    write_trace_bin,
)
from bilodyne.montecarlo import CurrentTrace


def _spectrum() -> Spectrum:
    rng = np.random.default_rng(13)
    freqs = np.arange(0.0, 100.0)
    psd = np.abs(rng.standard_normal(100)) + 0.5
    return Spectrum(freqs_hz=freqs, psd=psd, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)


def _trace() -> CurrentTrace:
    rng = np.random.default_rng(14)
    j1 = rng.standard_normal(1000)
    j2 = rng.standard_normal(1000)
    return CurrentTrace(j1=j1, j2=j2, jdiff=j1 - j2, dt=1e-7)


class TestSpectrumCsv:
    def test_round_trip_is_exact(self, tmp_path):
        spec = _spectrum()
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        freqs, psd = read_spectrum_csv(path)
        np.testing.assert_array_equal(freqs, spec.freqs_hz)
        np.testing.assert_array_equal(psd, spec.psd)

    def test_header_line(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, _spectrum())
        assert path.read_text().splitlines()[0] == "freq_hz,psd"

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_spectrum_csv(a, _spectrum())
        write_spectrum_csv(b, _spectrum())
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("time,volts\n0,1\n")
        with pytest.raises(ParseError):
            read_spectrum_csv(path)


class TestReportJson:
    def test_sorted_and_readable(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(path, {"b": 2, "a": {"z": 1, "y": [1, 2]}})
        loaded = json.loads(path.read_text())
        assert loaded == {"b": 2, "a": {"z": 1, "y": [1, 2]}}
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


class TestTraceBin:
    def test_round_trip_is_exact(self, tmp_path):
        trace = _trace()
        path = tmp_path / "trace.bin"
        write_trace_bin(path, trace)
        dt, samples = read_trace_bin(path)
        assert dt == trace.dt
        np.testing.assert_array_equal(samples, trace.jdiff)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _trace())
        raw = path.read_bytes()
        assert raw[:8] == TRACE_MAGIC
        assert len(raw) == 32 + 8 * 1000

    def test_write_makes_no_copy_of_the_record(self, tmp_path):
        n = 1_000_000
        samples = np.arange(n, dtype=float)
        trace = CurrentTrace(j1=samples, j2=samples, jdiff=samples, dt=1e-7)
        path = tmp_path / "trace.bin"
        tracemalloc.start()
        try:
            write_trace_bin(path, trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copy of the samples would take 8 n bytes
        assert peak < n
        np.testing.assert_array_equal(read_trace_bin(path)[1], samples)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        path.write_bytes(b"BLDTRC01\x01")
        with pytest.raises(ParseError):
            read_trace_bin(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _trace())
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTATRAC"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            read_trace_bin(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _trace())
        raw = bytearray(path.read_bytes())
        raw[8] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            read_trace_bin(path)

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _trace())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            read_trace_bin(path)
