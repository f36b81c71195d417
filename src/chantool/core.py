"""Shared value types and helpers for the channel toolkit.

Everything downstream (blockage, path loss, channel synthesis, sounder
processing) builds on the small immutable types and array helpers (dB, PDP)
defined here plus a deterministic substream scheme for random numbers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# Linear power of exactly zero maps to this floor instead of -inf.
DB_FLOOR = -300.0


def to_db(linear: np.ndarray | float) -> np.ndarray | float:
    """10*log10 with exact zeros clamped to DB_FLOOR."""
    arr = np.asarray(linear, dtype=float)
    out = np.full(arr.shape, DB_FLOOR)
    nz = arr > 0.0
    out[nz] = 10.0 * np.log10(arr[nz])
    if out.ndim == 0:
        return float(out)
    return out


def from_db(level_db: np.ndarray | float) -> np.ndarray | float:
    return 10.0 ** (np.asarray(level_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class Point3:
    """3-D point or vector, coordinates in meters."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, k: float) -> "Point3":
        return Point3(k * self.x, k * self.y, k * self.z)

    def dot(self, other: "Point3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def distance_to(self, other: "Point3") -> float:
        return (self - other).norm()

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class FrequencyBand:
    """Carrier frequency, Hz."""

    carrier_hz: float

    def __post_init__(self) -> None:
        if not (self.carrier_hz > 0.0 and math.isfinite(self.carrier_hz)):
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber k = 2*pi/lambda, rad/m."""
        return 2.0 * math.pi * self.carrier_hz / SPEED_OF_LIGHT

    @classmethod
    def preset(cls, carrier_ghz: float) -> "FrequencyBand":
        return cls(carrier_ghz * 1e9)


# Measurement-campaign carriers this toolkit was validated against.
BAND_28 = FrequencyBand.preset(28.0)
BAND_32 = FrequencyBand.preset(32.0)
BAND_39 = FrequencyBand.preset(39.0)


@dataclass(frozen=True)
class CirSnapshot:
    """One complex baseband channel impulse response on a uniform delay grid."""

    t_s: float
    sample_period_s: float
    samples: np.ndarray  # complex, delay-indexed

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0.0:
            raise ValueError("sample_period_s must be positive")
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.complex128)
        )


@dataclass(frozen=True)
class Mpc:
    """A resolved multipath component.

    power_db is redundant with amplitude (20*log10|amplitude|) and is kept
    because most consumers only need the scalar; the constructor enforces
    consistency.
    """

    delay_s: float
    amplitude: complex
    power_db: float

    def __post_init__(self) -> None:
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be non-negative")
        mag = abs(self.amplitude)
        expect = 20.0 * math.log10(mag) if mag > 0.0 else DB_FLOOR
        if abs(self.power_db - expect) > 1e-9:
            raise ValueError(
                f"power_db {self.power_db} inconsistent with amplitude "
                f"(expected {expect})"
            )

    @classmethod
    def from_amplitude(cls, delay_s: float, amplitude: complex) -> "Mpc":
        mag = abs(amplitude)
        power_db = 20.0 * math.log10(mag) if mag > 0.0 else DB_FLOOR
        return cls(delay_s, amplitude, power_db)


def pdp_from_cir(samples: np.ndarray) -> np.ndarray:
    """Power delay profile 10*log10(|s|^2) in dB (zero bins at DB_FLOOR) along
    the delay axis, the last; a (time, delay) block gives one PDP per row."""
    return to_db(np.abs(samples) ** 2)


@dataclass(frozen=True)
class RandomStream:
    """A named, independently seeded random substream.

    Substreams are derived from (seed, label, index) via SHA-256 keying of a
    counter-based Philox generator, so a stream's output is a pure function
    of those three values: independent of platform, process history, and of
    any other substream.  Draw from the wrapped numpy Generator via ``rng``.
    """

    seed: int
    label: str
    index: int
    rng: np.random.Generator = field(repr=False, compare=False)


def derive_substream(seed: int, label: str, index: int) -> RandomStream:
    """Derive an independent substream keyed by (seed, label, index)."""
    material = f"{seed}\x1f{label}\x1f{index}".encode()
    digest = hashlib.sha256(material).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return RandomStream(seed=seed, label=label, index=index, rng=rng)
