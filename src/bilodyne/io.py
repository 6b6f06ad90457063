"""File emission: spectra as CSV, reports as JSON, traces as binary.

Numbers are written with repr-faithful formatting so reruns of the same
seed produce byte-identical files; the only varying field is the
report's generated_at timestamp.

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
import struct
from pathlib import Path

import numpy as np

from .analytic import Spectrum
from .errors import ParseError
from .montecarlo import CurrentTrace

TRACE_MAGIC = b"BLDTRC01"
TRACE_VERSION = 1
_HEADER = struct.Struct("<8sIIdQ")


def write_spectrum_csv(path: Path | str, spectrum: Spectrum) -> None:
    lines = ["freq_hz,psd"]
    for f, p in zip(spectrum.freqs_hz, spectrum.psd):
        lines.append(f"{f:.17g},{p:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_spectrum_csv(path: Path | str) -> tuple[np.ndarray, np.ndarray]:
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != "freq_hz,psd":
        raise ParseError(f"{path}: not a spectrum CSV")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    return data[:, 0], data[:, 1]


def write_report_json(path: Path | str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trace_bin(path: Path | str, trace: CurrentTrace) -> None:
    header = _HEADER.pack(
        TRACE_MAGIC, TRACE_VERSION, 0, trace.dt, trace.jdiff.size
    )
    with open(path, "wb") as fh:
        fh.write(header)
        # through the array's buffer: tobytes() would copy the whole record
        fh.write(memoryview(np.ascontiguousarray(trace.jdiff, dtype="<f8")))


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
