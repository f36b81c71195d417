"""Binary CIR archive format.

Layout, all little endian:

    magic "CIRB" | version u16 | n_time u32 | n_tx u8 | n_rx u8 |
    n_delay u32 | sample_period_s f64 | t0_s f64 | dt_s f64 | payload

The payload is float32 (re, im) pairs in (time, tx, rx, delay) row-major
order; its length must be exactly 8 * n_time * n_tx * n_rx * n_delay
bytes.  Values are stored at float32 precision (about -150 dB quantization
noise); readers get complex128 back.

Raw capture waveforms reuse the same container with n_tx = n_rx = 1 and
the sample axis in the delay slot.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from chantool.gbsm import CirSequence

MAGIC = b"CIRB"
VERSION = 1
_HEADER = struct.Struct("<4sHIBBIddd")


class ArchiveError(ValueError):
    """The file does not conform to the archive format."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the target directory plus rename, so a
    crash never leaves a partial file at the destination."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_archive(path: str, seq: CirSequence) -> int:
    """Serialize a sequence; returns the byte count written."""
    if seq.cir.ndim != 4:
        raise ArchiveError("sequence data must be (time, tx, rx, delay)")
    n_time, n_tx, n_rx, n_delay = seq.cir.shape
    if not 1 <= n_tx <= 255 or not 1 <= n_rx <= 255:
        raise ArchiveError(f"antenna counts {n_tx}x{n_rx} do not fit the format")
    if n_time >= 2**32 or n_delay >= 2**32:
        raise ArchiveError("time or delay axis too long for the format")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        n_time,
        n_tx,
        n_rx,
        n_delay,
        seq.sample_period_s,
        seq.t0_s,
        seq.dt_s,
    )
    payload = np.ascontiguousarray(seq.cir).astype("<c8").tobytes()
    atomic_write_bytes(path, header + payload)
    return len(header) + len(payload)


def read_archive(path: str) -> CirSequence:
    """Parse and validate an archive; every size field is checked exactly."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEADER.size:
        raise ArchiveError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, n_time, n_tx, n_rx, n_delay, period, t0, dt = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if magic != MAGIC:
        raise ArchiveError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ArchiveError(f"{path}: unsupported version {version}")
    expected = 8 * n_time * n_tx * n_rx * n_delay
    actual = len(blob) - _HEADER.size
    if actual != expected:
        raise ArchiveError(
            f"{path}: payload is {actual} bytes, header implies {expected}"
        )
    if not period > 0.0:
        raise ArchiveError(f"{path}: sample_period_s must be positive, got {period}")
    if not dt > 0.0:
        raise ArchiveError(f"{path}: dt_s must be positive, got {dt}")
    flat = np.frombuffer(blob, dtype="<c8", offset=_HEADER.size)
    cir = flat.astype(np.complex128).reshape(n_time, n_tx, n_rx, n_delay)
    return CirSequence(t0_s=t0, dt_s=dt, sample_period_s=period, cir=cir)


def capture_sequence(
    waveforms: np.ndarray, sample_rate_hz: float, dt_s: float
) -> CirSequence:
    """Wrap raw capture waveforms (n_snapshots, n_samples) for archiving."""
    waveforms = np.asarray(waveforms, dtype=np.complex128)
    if waveforms.ndim == 1:
        waveforms = waveforms[None, :]
    if waveforms.ndim != 2:
        raise ArchiveError("capture waveforms must be 1-D or 2-D")
    return CirSequence(
        t0_s=0.0,
        dt_s=dt_s,
        sample_period_s=1.0 / sample_rate_hz,
        cir=waveforms[:, None, None, :],
    )
