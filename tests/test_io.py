"""Round trips and format guards for spectrum, report, and trace files."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from bilodyne import io
from bilodyne.analytic import Spectrum, SpectrumKind
from bilodyne.errors import ParseError
from bilodyne.io import (
    TRACE_MAGIC,
    TraceWriter,
    read_spectrum_csv,
    read_trace_bin,
    write_report_json,
    write_spectrum_csv,
)


def _spectrum() -> Spectrum:
    rng = np.random.default_rng(13)
    freqs = np.arange(0.0, 100.0)
    psd = np.abs(rng.standard_normal(100)) + 0.5
    return Spectrum(freqs_hz=freqs, psd=psd, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)


DT = 1e-7


def _samples() -> np.ndarray:
    rng = np.random.default_rng(14)
    return rng.standard_normal(1000) - rng.standard_normal(1000)


def write_trace_bin(path, samples: np.ndarray, blocks: int = 3) -> None:
    """The samples written to a trace file in a few blocks, as a run writes them."""
    with TraceWriter(path) as trace:
        trace.start(DT, samples.size)
        for part in np.array_split(samples, blocks):
            trace.write(part)


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

    def test_rows_written_in_chunks_are_the_rows_of_one_join(self, tmp_path):
        # two whole chunks of _CSV_ROWS rows and a part of a third
        n = 2 * io._CSV_ROWS + 5
        rng = np.random.default_rng(15)
        spec = Spectrum(
            freqs_hz=np.arange(float(n)), psd=rng.exponential(size=n) * 1e-3, rbw_hz=1.0,
            kind=SpectrumKind.ESTIMATED,
        )
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        rows = [f"{f:.17g},{p:.17g}" for f, p in zip(spec.freqs_hz, spec.psd)]
        assert path.read_text() == "\n".join(["freq_hz,psd", *rows]) + "\n"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("time,volts\n0,1\n")
        with pytest.raises(ParseError):
            read_spectrum_csv(path)

    def test_rows_match_per_row_formatting_at_the_float_edges(self, tmp_path):
        edges = [
            5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3,
            1000.0000000000001, 9007199254740993.0,
        ]
        rng = np.random.default_rng(16)
        spread = 10.0 ** rng.uniform(-300, 300, 2000)
        freqs = np.unique(np.concatenate([edges, np.negative(edges), spread, -spread]))
        freqs = np.insert(freqs, np.searchsorted(freqs, 0.0), -0.0)
        psd = np.resize(np.concatenate([[-0.0, 0.0], edges, spread]), freqs.size)
        spec = Spectrum(freqs_hz=freqs, psd=psd, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        rows = [f"{f:.17g},{p:.17g}" for f, p in zip(spec.freqs_hz, spec.psd)]
        assert path.read_text() == "\n".join(["freq_hz,psd", *rows]) + "\n"
        # -0.0 stays signed in both columns
        assert any(r.startswith("-0,") for r in rows) and any(r.endswith(",-0") for r in rows)

    def test_memory_is_bounded_by_one_chunk(self, tmp_path):
        def peak(n: int) -> int:
            spec = Spectrum(
                freqs_hz=np.arange(float(n)) + 0.1, psd=np.full(n, 1 / 3), rbw_hz=1.0,
                kind=SpectrumKind.ESTIMATED,
            )
            tracemalloc.start()
            try:
                write_spectrum_csv(tmp_path / "spec.csv", spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(io._CSV_ROWS), peak(4 * io._CSV_ROWS)
        assert four <= 1.15 * one

    def test_header_only_file_reads_as_an_empty_spectrum(self, tmp_path):
        empty = np.empty(0)
        spec = Spectrum(freqs_hz=empty, psd=empty, rbw_hz=1.0, kind=SpectrumKind.ESTIMATED)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        assert path.read_text() == "freq_hz,psd\n"
        freqs, psd = read_spectrum_csv(path)
        assert freqs.shape == psd.shape == (0,)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("freq_hz,psd\n0,1\n1,lots\n")
        with pytest.raises(ParseError):
            read_spectrum_csv(path)

    def test_row_of_three_cells_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("freq_hz,psd\n0,1\n1,2,3\n")
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
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _samples())
        dt, samples = read_trace_bin(path)
        assert dt == DT
        np.testing.assert_array_equal(samples, _samples())

    def test_header_layout(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _samples())
        raw = path.read_bytes()
        assert raw[:8] == TRACE_MAGIC
        assert len(raw) == 32 + 8 * 1000

    def test_write_makes_no_copy_of_the_record(self, tmp_path):
        n = 1_000_000
        samples = np.arange(n, dtype=float)
        path = tmp_path / "trace.bin"
        tracemalloc.start()
        try:
            write_trace_bin(path, samples, blocks=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copy of the samples would take 8 n bytes
        assert peak < n
        np.testing.assert_array_equal(read_trace_bin(path)[1], samples)

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "trace.bin"
        with pytest.raises(RuntimeError):
            with TraceWriter(path) as trace:
                trace.start(DT, 1000)
                trace.write(_samples()[:500])
                raise RuntimeError("the run failed half way")
        assert list(tmp_path.iterdir()) == []

    def test_file_appears_only_when_the_writer_closes(self, tmp_path):
        path = tmp_path / "trace.bin"
        with TraceWriter(path) as trace:
            trace.start(DT, 1000)
            trace.write(_samples())
            assert not path.exists()
        assert path.exists() and list(tmp_path.iterdir()) == [path]

    def test_writer_never_started_writes_nothing(self, tmp_path):
        with TraceWriter(tmp_path / "trace.bin"):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        path.write_bytes(b"BLDTRC01\x01")
        with pytest.raises(ParseError):
            read_trace_bin(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _samples())
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTATRAC"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            read_trace_bin(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _samples())
        raw = bytearray(path.read_bytes())
        raw[8] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            read_trace_bin(path)

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace_bin(path, _samples())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            read_trace_bin(path)
