"""Round trips and format guards for spectrum, report, and trace files."""

from __future__ import annotations

import json
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilodyne import io
from bilodyne.analytic import Spectrum
from bilodyne.errors import ParseError
from bilodyne.io import (
    TRACE_MAGIC,
    TraceWriter,
    read_trace_bin,
    write_report_json,
    write_spectrum_csv,
)
from tests.conftest import read_spectrum_csv


def _spectrum() -> Spectrum:
    rng = np.random.default_rng(13)
    freqs = np.arange(0.0, 100.0)
    psd = np.abs(rng.standard_normal(100)) + 0.5
    return Spectrum(freqs_hz=freqs, psd=psd, rbw_hz=1.0)


DT = 1e-7


def _samples() -> np.ndarray:
    rng = np.random.default_rng(14)
    return rng.standard_normal(1000) - rng.standard_normal(1000)


def _unchecked(freqs, psd) -> SimpleNamespace:
    """The two arrays the writer reads, without Spectrum's checks (which refuse NaN PSDs)."""
    return SimpleNamespace(freqs_hz=np.asarray(freqs, dtype=float), psd=np.asarray(psd, dtype=float))


def _written(path, spec) -> str:
    write_spectrum_csv(path, spec)
    return Path(path).read_text()


def _per_row(spec) -> str:
    """The file the per-row f"{f:.17g},{p:.17g}" rows make."""
    rows = [f"{f:.17g},{p:.17g}" for f, p in zip(spec.freqs_hz, spec.psd)]
    return "\n".join(["freq_hz,psd", *rows]) + "\n"


def _runs(values, lengths) -> np.ndarray:
    return np.repeat(np.asarray(values, dtype=float), lengths)


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
        spec = Spectrum(freqs_hz=freqs, psd=psd, rbw_hz=1.0)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        rows = [f"{f:.17g},{p:.17g}" for f, p in zip(spec.freqs_hz, spec.psd)]
        assert path.read_text() == "\n".join(["freq_hz,psd", *rows]) + "\n"
        # -0.0 stays signed in both columns
        assert any(r.startswith("-0,") for r in rows) and any(r.endswith(",-0") for r in rows)

    @pytest.mark.parametrize(
        "distinct, offset",
        [(False, 0.0), (True, 0.0), (False, 0.1)],
        ids=["one-run", "all-distinct", "float-grid"],
    )
    def test_integral_grid_memory_is_bounded_by_one_chunk(self, tmp_path, distinct, offset):
        # the analytic grid rbw * arange(n): with one PSD run its column goes
        # through %d; with every value distinct the chunk takes the one-% path.
        # Shifted off the integers, one run's frequencies go through %.17g.
        # Chunks of 2^13 rows keep tracemalloc's cost down; a chunk's values
        # kept alive into the next would still double the peak.
        def peak(n: int) -> int:
            psd = np.arange(n) / 3.0 + 1.0 if distinct else np.full(n, 1 / 3)
            spec = Spectrum(freqs_hz=np.arange(float(n)) + offset, psd=psd, rbw_hz=1.0)
            tracemalloc.start()
            try:
                write_spectrum_csv(tmp_path / "spec.csv", spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = 1 << 13
        with mock.patch.object(io, "_CSV_ROWS", rows):
            one, four = peak(rows), peak(4 * rows)
        assert four <= 1.15 * one

    def test_header_only_file_reads_as_an_empty_spectrum(self, tmp_path):
        empty = np.empty(0)
        spec = Spectrum(freqs_hz=empty, psd=empty, rbw_hz=1.0)
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


class TestSpectrumCsvRuns:
    """Chunks with runs of equal PSD values write the per-row bytes too."""

    def test_signed_zeros_stay_separate_runs(self, tmp_path):
        spec = _unchecked(np.arange(12.0), _runs([-0.0, 0.0, -0.0, 0.0], [3, 3, 1, 5]))
        text = _written(tmp_path / "spec.csv", spec)
        assert text == _per_row(spec)
        assert text.splitlines()[1:5] == ["0,-0", "1,-0", "2,-0", "3,0"]

    def test_nan_and_infinite_runs(self, tmp_path):
        psd = _runs([np.nan, np.inf, -np.inf, 1.0, np.nan], [4, 4, 4, 4, 4])
        spec = _unchecked(np.arange(20.0), psd)
        assert _written(tmp_path / "spec.csv", spec) == _per_row(spec)

    def test_subnormal_runs(self, tmp_path):
        psd = _runs([5e-324, 2.225073858507201e-308, 1e-310, 5e-324], [3, 5, 2, 6])
        spec = _unchecked(np.arange(16.0) * 0.1, psd)
        text = _written(tmp_path / "spec.csv", spec)
        assert text == _per_row(spec)
        assert "0,4.9406564584124654e-324" in text

    @pytest.mark.parametrize("top", [1e16 - 2, 1e16, 1e17])
    def test_integral_frequencies_near_the_bound(self, tmp_path, top):
        # below 1e16 the column goes through %d, at or above it through %.17g
        freqs = top - 2.0 * np.arange(10.0)[::-1]
        spec = _unchecked(freqs, np.full(10, 2.5))
        text = _written(tmp_path / "spec.csv", spec)
        assert text == _per_row(spec)
        assert text.splitlines()[-1] == f"{top:.17g},2.5"

    def test_negative_integral_frequencies(self, tmp_path):
        spec = _unchecked(np.arange(-8.0, 8.0), np.full(16, 3.0))
        text = _written(tmp_path / "spec.csv", spec)
        assert text == _per_row(spec)
        assert text.splitlines()[1] == "-8,3"

    def test_negative_zero_frequency_keeps_its_sign(self, tmp_path):
        spec = _unchecked([-0.0, 1.0, 2.0, 3.0], np.full(4, 1.0))
        text = _written(tmp_path / "spec.csv", spec)
        assert text == _per_row(spec)
        assert text.splitlines()[1] == "-0,1"

    def test_run_across_a_chunk_boundary(self, tmp_path):
        n = io._CSV_ROWS + 100
        psd = _runs([1 / 3, 0.1, 2 / 3], [io._CSV_ROWS - 50, 100, 50])
        spec = Spectrum(freqs_hz=np.arange(float(n)) * 2.0, psd=psd, rbw_hz=2.0)
        assert _written(tmp_path / "spec.csv", spec) == _per_row(spec)

    def test_float32_psd_written_as_its_float64_values(self, tmp_path):
        psd = np.array([0.1, 0.1, 0.1, 0.25, 0.25], dtype=np.float32)
        spec = Spectrum(freqs_hz=np.arange(5.0), psd=psd, rbw_hz=1.0)
        assert _written(tmp_path / "spec.csv", spec) == _per_row(spec)

    def test_chunks_on_either_side_of_the_crossover(self, tmp_path):
        # one chunk of runs of two rows (run by run), one all distinct (one %)
        rows = 2 * io._CSV_ROWS_PER_RUN * 8
        psd = np.concatenate([_runs(np.arange(8.0), io._CSV_ROWS_PER_RUN), np.arange(rows // 2) + 0.5])
        spec = _unchecked(np.arange(float(rows)), psd)
        with mock.patch.object(io, "_CSV_ROWS", rows // 2):
            assert _written(tmp_path / "spec.csv", spec) == _per_row(spec)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf]),
                ),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=12,
        ),
        grid=st.one_of(
            st.tuples(st.integers(-(10**17), 10**17), st.integers(-(10**15), 10**15)),
            st.tuples(st.floats(allow_nan=True, allow_infinity=True), st.floats(-1e300, 1e300)),
        ),
        chunk=st.integers(1, 40),
    )
    def test_rows_match_per_row_formatting(self, runs, grid, chunk):
        psd = _runs(*zip(*runs))
        start, step = grid
        with np.errstate(all="ignore"):
            freqs = float(start) + float(step) * np.arange(psd.size)
        spec = _unchecked(freqs, psd)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(io, "_CSV_ROWS", chunk):
            assert _written(Path(tmp) / "spec.csv", spec) == _per_row(spec)


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
