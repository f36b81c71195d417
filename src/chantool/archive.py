"""Binary CIR archive format.

Layout, all little endian:

    magic "CIRB" | version u16 | n_time u32 | n_tx u8 | n_rx u8 |
    n_delay u32 | sample_period_s f64 | t0_s f64 | dt_s f64 | payload

The payload is float32 (re, im) pairs in (time, tx, rx, delay) row-major
order; its length must be exactly 8 * n_time * n_tx * n_rx * n_delay
bytes, and only n_time may be 0.  Values must be finite and are stored at
float32 precision (about -150 dB quantization noise); the header's times,
the last snapshot's t0_s + dt_s * (n_time - 1) and the last delay bin's
sample_period_s * (n_delay - 1) must be finite, and both spacings positive.
Files are written in blocks of whole time steps of about BLOCK_BYTES, from
a whole sequence or from a stream's blocks as they are made.  open_archive
checks every size against the file before the payload, then yields it in
such blocks through one reused <c8 buffer; read_archive collects them into
complex128.  staged holds the output rule of every file the command line
writes, archives and text alike.

Raw capture waveforms reuse the same container with n_tx = n_rx = 1 and
the sample axis in the delay slot.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import BinaryIO, NamedTuple

import numpy as np

from chantool.gbsm import CirSequence, CirStream

MAGIC = b"CIRB"
VERSION = 1
BLOCK_BYTES = 1 << 20
MAX_ANTENNAS = 255  # n_tx and n_rx are u8 header fields
_HEADER = struct.Struct("<4sHIBBIddd")


class ArchiveError(ValueError):
    """The file does not conform to the archive format."""


class ArchiveHeader(NamedTuple):
    """The header after magic and version: (time, tx, rx, delay), then times."""

    shape: tuple[int, int, int, int]
    sample_period_s: float
    t0_s: float
    dt_s: float

    def check_times(self, path: str) -> None:
        """The one check of the times, for writer and reader alike.  The last
        snapshot's time and the last delay bin's must be finite too, so every
        time a reader computes as t0_s + dt_s * t or sample_period_s * d is."""
        for name, value in zip(self._fields[1:], self[1:]):
            if not math.isfinite(value) or (name != "t0_s" and value <= 0.0):
                kind = "finite" if name == "t0_s" else "finite and positive"
                raise ArchiveError(f"{path}: {name} must be {kind}, got {value}")
        last_time = self.t0_s + self.dt_s * max(self.shape[0] - 1, 0)
        last_delay = self.sample_period_s * (self.shape[3] - 1)
        for what, value in (
            ("snapshot time t0_s + dt_s * (n_time - 1)", last_time),
            ("delay sample_period_s * (n_delay - 1)", last_delay),
        ):
            if not math.isfinite(value):
                raise ArchiveError(f"{path}: last {what} must be finite, got {value}")


@contextmanager
def staged(paths: Sequence[str]) -> Iterator[list[BinaryIO]]:
    """Yield one binary handle per path, on a temp file made beside its
    target before the block runs.  Once the block completes every temp file
    is renamed over its target; on any exception each one left is unlinked.
    A symlink is written through; an existing target that is not a regular
    file is refused.  Files get open()'s mode, 0o666 less the umask.  There
    is no fsync: a failed or killed process never leaves a target partly
    written (a killed one may leave .tmp-*~ files), a power loss may."""
    umask = os.umask(0)  # reading the umask means setting it
    os.umask(umask)
    temps, handles = [], []
    try:
        for path in paths:
            target = os.path.realpath(path)
            if os.path.lexists(target) and not os.path.isfile(target):
                raise ArchiveError(f"{path}: exists and is not a regular file")
            try:
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-", suffix="~")
            except OSError as err:  # the temp file's name means nothing to the caller
                raise OSError(err.errno, err.strerror, path) from None
            temps.append((tmp, target))
            handles.append(os.fdopen(fd, "wb"))
            os.fchmod(fd, 0o666 & ~umask)
        yield handles
        for handle in handles:
            handle.close()
        while temps:
            os.replace(*temps[0])
            temps.pop(0)
    except BaseException:
        for tmp, _ in temps:
            os.unlink(tmp)
        for handle in handles:
            handle.close()
        raise


def atomic_write_text(path: str, text: str) -> None:
    with staged([path]) as (handle,):
        handle.write(text.encode("utf-8"))


def _finite(block: np.ndarray, t: int, path: str) -> np.ndarray:
    """Return a <c8 block of the time steps from t; raise at a NaN or infinity."""
    bad = ~np.isfinite(block.view("<f4")).reshape(len(block), -1).all(axis=1)
    if bad.any():
        raise ArchiveError(f"{path}: non-finite value at time step {t + bad.argmax()}")
    return block


def write_archive(path: str, seq: CirSequence | CirStream) -> int:
    """Serialize a sequence, or a stream's blocks as they come; returns the
    byte count written.  The shape and times are checked and the file is
    staged before the first block is pulled, so a refused path costs no
    block; each block is written in pieces of at most BLOCK_BYTES."""
    if isinstance(seq, CirSequence):  # its cube is the one block
        seq = CirStream(seq.t0_s, seq.dt_s, seq.sample_period_s, seq.cir.shape, iter([seq.cir]))
    n_time, n_tx, n_rx, n_delay = seq.shape
    if not 1 <= n_tx <= MAX_ANTENNAS or not 1 <= n_rx <= MAX_ANTENNAS:
        raise ArchiveError(f"antenna counts {n_tx}x{n_rx} do not fit the format")
    if n_time >= 2**32 or not 1 <= n_delay < 2**32:
        raise ArchiveError(f"time x delay {n_time}x{n_delay} does not fit the format")
    times = seq.sample_period_s, seq.t0_s, seq.dt_s
    ArchiveHeader(seq.shape, *times).check_times(path)
    header = _HEADER.pack(MAGIC, VERSION, n_time, n_tx, n_rx, n_delay, *times)
    step = max(1, BLOCK_BYTES // (8 * n_tx * n_rx * n_delay))
    with staged([path]) as (handle,):
        handle.write(header)
        t = 0
        for block in seq.blocks:
            if block.shape[1:] != seq.shape[1:] or t + len(block) > n_time:
                raise ArchiveError(f"{path}: block {block.shape} at step {t} overruns {seq.shape}")
            for start in range(0, len(block), step):
                piece = block[start : start + step].astype("<c8", order="C")
                handle.write(_finite(piece, t + start, path))
            t += len(block)
        if t != n_time:
            raise ArchiveError(f"{path}: the blocks ended after {t} of {n_time} time steps")
    return _HEADER.size + 8 * math.prod(seq.shape)


@contextmanager
def open_archive(path: str) -> Iterator[tuple[ArchiveHeader, Iterator[tuple[int, np.ndarray]]]]:
    """Check the header against the file; yield it and an iterator of (t, block),
    block being the <c8 (time, tx, rx, delay) steps from t.  Blocks share one
    buffer, allocated when iteration starts and overwritten by the next block."""
    with open(path, "rb") as handle:
        head = handle.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ArchiveError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, *fields = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ArchiveError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ArchiveError(f"{path}: unsupported version {version}")
        header = ArchiveHeader(tuple(fields[:4]), *fields[4:])
        if 0 in header.shape[1:]:
            raise ArchiveError(f"{path}: empty axis in {'x'.join(map(str, header.shape))}")
        expected = 8 * math.prod(header.shape)
        actual = os.fstat(handle.fileno()).st_size - _HEADER.size
        if actual != expected:
            raise ArchiveError(
                f"{path}: payload is {actual} bytes, header implies {expected}"
            )
        header.check_times(path)

        def blocks() -> Iterator[tuple[int, np.ndarray]]:
            n_time, step_shape = header.shape[0], header.shape[1:]
            step = max(1, BLOCK_BYTES // (8 * math.prod(step_shape)))
            buffer = np.empty((min(step, n_time), *step_shape), dtype="<c8")
            for t in range(0, n_time, step):
                block = buffer[: n_time - t]
                if handle.readinto(block) != block.nbytes:
                    raise ArchiveError(f"{path}: payload ended before {expected} bytes")
                yield t, _finite(block, t, path)

        yield header, blocks()


def read_archive(path: str) -> CirSequence:
    """Parse and validate a whole archive into complex128."""
    with open_archive(path) as (header, blocks):
        cir = np.empty(header.shape, dtype=np.complex128)
        for t, block in blocks:
            cir[t : t + len(block)] = block
    return CirSequence(header.t0_s, header.dt_s, header.sample_period_s, cir)


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
