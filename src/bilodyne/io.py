"""File emission: spectra as CSV, reports as JSON, traces as binary.

Spectrum values are written with 17 significant digits ("%.17g"), which
reads back as the same double but is not repr: 0.1 is written as
0.10000000000000001.  Reruns of the same seed produce byte-identical
files; the only varying field is the report's generated_at timestamp.

Trace format: 32-byte little-endian header
    magic     8 bytes  b"BLDTRC01"
    version   u32      format version, currently 1
    reserved  u32      zero
    dt        f64      sample interval, seconds
    length    u64      number of samples
followed by length float64 samples of the difference current.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .analytic import Spectrum
from .errors import ParseError

TRACE_MAGIC = b"BLDTRC01"
TRACE_VERSION = 1
_HEADER = struct.Struct("<8sIIdQ")
# spectrum rows formatted per write; a full chunk peaks at ~8.6 MiB (tracemalloc),
# ~6.7 MiB when formatted run by run
_CSV_ROWS = 1 << 16
# a chunk is formatted run by run when its runs of bit-equal PSD values
# average at least this many rows.  Median time of run by run over the one-%
# path, 5,001- and 65,536-row chunks on a 2-vCPU VM: 0.16-0.26x (integral
# grid) and 0.55x (float grid) for one run, 0.5-0.8x at 0.3 runs per row,
# 0.8x / 1.03-1.07x at 0.5, 0.9-1.0x / 0.9-1.1x at 0.6, and 1.4-1.5x with
# every value distinct.  The two cross over at about one run per two rows.
_CSV_ROWS_PER_RUN = 2


def write_spectrum_csv(path: Path | str, spectrum: Spectrum) -> None:
    """One "freq_hz,psd" header line, then one row per bin.

    The rows are formatted and written _CSV_ROWS at a time, so a long
    spectrum never holds all its row strings.  Every chunk writes the
    bytes the per-row f"{f:.17g},{p:.17g}" would, in one of two ways:

    - Run by run, when its runs of bit-equal PSD values average at least
      _CSV_ROWS_PER_RUN rows (an analytic spectrum is one or a few runs).
      Each run's value is formatted once and repeated in the format
      string as a literal, so only the frequencies go through %.  An
      integral frequency column below 1e16 with no sign bit is formatted
      with %d, which writes what %.17g writes for it.
    - Otherwise (a Welch estimate, whose values are all distinct), the
      frequencies and PSD values are interleaved into one list of floats
      and formatted by one % operation.  With every value distinct that
      takes about 0.7x the time of run-by-run formatting; the two cross
      over at about one run per two rows.
    """
    # runs and integral frequencies are found on the float64 bits
    freqs = np.asarray(spectrum.freqs_hz, dtype=np.float64)
    psd = np.asarray(spectrum.psd, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write("freq_hz,psd\n")
        for start in range(0, freqs.size, _CSV_ROWS):
            part = slice(start, start + _CSV_ROWS)
            fh.write(_csv_rows(freqs[part], psd[part]))


def _csv_rows(freqs: np.ndarray, psd: np.ndarray) -> str:
    """The rows of one non-empty chunk of float64 frequencies and PSD values."""
    # compared as bits, so -0.0 and 0.0 are separate runs
    bits = psd.view(np.int64)
    changed = bits[1:] != bits[:-1]
    if (np.count_nonzero(changed) + 1) * _CSV_ROWS_PER_RUN > freqs.size:
        rows = np.column_stack([freqs, psd])
        return ("%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
    fmt, column = "%.17g", freqs
    # no sign bit: -0.0 would lose its sign under %d
    if freqs.view(np.int64).min() >= 0 and freqs.max() < 1e16:
        ints = freqs.astype(np.int64)
        if np.array_equal(ints, freqs):
            fmt, column = "%d", ints
    edges = [0, *(np.flatnonzero(changed) + 1).tolist(), freqs.size]
    template = "".join(
        f"{fmt},{value:.17g}\n" * (stop - start)
        for start, stop, value in zip(edges, edges[1:], psd[edges[:-1]].tolist())
    )
    return template % tuple(column.tolist())


def write_report_json(path: Path | str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class TraceWriter:
    """A trace file written block by block while the record is made.

    start(dt, length) writes the header, then write(samples) appends
    each block in record order.  Used as a context manager: the file is
    written under a ".part" name and takes its own name only when the
    with block ends without an error, so a failed run leaves no trace
    file.  A writer never started writes nothing.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._part = self.path.with_name(self.path.name + ".part")
        self._fh = None

    def start(self, dt: float, length: int) -> None:
        self._fh = open(self._part, "wb")
        self._fh.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, 0, dt, length))

    def write(self, samples: np.ndarray) -> None:
        # through the array's buffer: tobytes() would copy the block
        self._fh.write(memoryview(np.ascontiguousarray(samples, dtype="<f8")))

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if self._fh is None:
            return
        self._fh.close()
        if kind is None:
            os.replace(self._part, self.path)
        else:
            self._part.unlink(missing_ok=True)


def read_trace_bin(path: Path | str) -> tuple[float, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ParseError(f"{path}: truncated trace header")
    magic, version, _, dt, length = _HEADER.unpack_from(raw)
    if magic != TRACE_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != TRACE_VERSION:
        raise ParseError(f"{path}: unsupported trace version {version}")
    samples = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if samples.size != length:
        raise ParseError(f"{path}: header claims {length} samples, file has {samples.size}")
    return float(dt), samples
