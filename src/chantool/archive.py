"""Binary CIR archive format.

Layout, all little endian:

    magic "CIRB" | version u16 | n_time u32 | n_tx u8 | n_rx u8 |
    n_delay u32 | sample_period_s f64 | t0_s f64 | dt_s f64 | payload

The payload is float32 (re, im) pairs in (time, tx, rx, delay) row-major
order; its length must be exactly 8 * n_time * n_tx * n_rx * n_delay
bytes, and only n_time may be 0.  Values must be finite and are stored at
float32 precision (about -150 dB quantization noise); readers get complex128
back.  Files stream in blocks of whole time steps of about BLOCK_BYTES, and
readers check every size against the header before reading the payload.

Raw capture waveforms reuse the same container with n_tx = n_rx = 1 and
the sample axis in the delay slot.
"""

from __future__ import annotations

import itertools
import os
import struct
import tempfile
from collections.abc import Iterable

import numpy as np

from chantool.gbsm import CirSequence

MAGIC = b"CIRB"
VERSION = 1
BLOCK_BYTES = 1 << 20
_HEADER = struct.Struct("<4sHIBBIddd")


class ArchiveError(ValueError):
    """The file does not conform to the archive format."""


def atomic_write_bytes(path: str, chunks: Iterable[bytes]) -> None:
    """Write C-contiguous buffers in order, lazily, via a temp file in the
    target directory plus rename, so a crash never leaves a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, (text.encode("utf-8"),))


def _finite(block: np.ndarray, t: int, path: str) -> np.ndarray:
    """Return a <c8 block of the time steps from t; raise at a NaN or infinity."""
    bad = ~np.isfinite(block.view("<f4")).reshape(len(block), -1).all(axis=1)
    if bad.any():
        raise ArchiveError(f"{path}: non-finite value at time step {t + bad.argmax()}")
    return block


def write_archive(path: str, seq: CirSequence) -> int:
    """Serialize a sequence; returns the byte count written."""
    if seq.cir.ndim != 4:
        raise ArchiveError("sequence data must be (time, tx, rx, delay)")
    n_time, n_tx, n_rx, n_delay = seq.cir.shape
    if not 1 <= n_tx <= 255 or not 1 <= n_rx <= 255:
        raise ArchiveError(f"antenna counts {n_tx}x{n_rx} do not fit the format")
    if n_time >= 2**32 or not 1 <= n_delay < 2**32:
        raise ArchiveError(f"time x delay {n_time}x{n_delay} does not fit the format")
    header = _HEADER.pack(MAGIC, VERSION, n_time, n_tx, n_rx, n_delay,
                          seq.sample_period_s, seq.t0_s, seq.dt_s)
    step = max(1, BLOCK_BYTES // (8 * n_tx * n_rx * n_delay))
    blocks = (
        _finite(seq.cir[t : t + step].astype("<c8", order="C"), t, path)
        for t in range(0, n_time, step)
    )
    atomic_write_bytes(path, itertools.chain((header,), blocks))
    return _HEADER.size + 8 * seq.cir.size


def read_archive(path: str) -> CirSequence:
    """Parse and validate an archive, checking every size before the payload."""
    with open(path, "rb") as handle:
        head = handle.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ArchiveError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, n_time, n_tx, n_rx, n_delay, period, t0, dt = (
            _HEADER.unpack(head)
        )
        if magic != MAGIC:
            raise ArchiveError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ArchiveError(f"{path}: unsupported version {version}")
        if 0 in (n_tx, n_rx, n_delay):
            raise ArchiveError(f"{path}: empty axis in {n_time}x{n_tx}x{n_rx}x{n_delay}")
        expected = 8 * n_time * n_tx * n_rx * n_delay
        actual = os.fstat(handle.fileno()).st_size - _HEADER.size
        if actual != expected:
            raise ArchiveError(
                f"{path}: payload is {actual} bytes, header implies {expected}"
            )
        if not period > 0.0:
            raise ArchiveError(f"{path}: sample_period_s must be positive, got {period}")
        if not dt > 0.0:
            raise ArchiveError(f"{path}: dt_s must be positive, got {dt}")
        cir = np.empty((n_time, n_tx, n_rx, n_delay), dtype=np.complex128)
        step = max(1, BLOCK_BYTES // (8 * n_tx * n_rx * n_delay))
        buffer = np.empty((min(step, n_time), n_tx, n_rx, n_delay), dtype="<c8")
        for t in range(0, n_time, step):
            block = buffer[: n_time - t]
            if handle.readinto(block) != block.nbytes:
                raise ArchiveError(f"{path}: payload ended before {expected} bytes")
            cir[t : t + len(block)] = _finite(block, t, path)
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
