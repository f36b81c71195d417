"""Shared value types and helpers for the channel toolkit.

Everything downstream (blockage, path loss, channel synthesis, sounder
processing) builds on the small immutable types and array helpers (dB, PDP)
defined here plus a deterministic substream scheme for random numbers.
Each type stores only what it cannot derive: an Mpc computes its power from
its amplitude, and a CirSnapshot carries no time (its sequence knows it).
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
    positive = arr > 0.0
    return _levels_db(positive, arr[positive])


def _levels_db(positive: np.ndarray, values: np.ndarray) -> np.ndarray | float:
    """to_db of an array whose positive entries, in order, are `values`: one
    contiguous log10 call turns that fresh array into levels in place, and
    the output is the only other array of the full size."""
    np.log10(values, out=values)
    np.multiply(values, 10.0, out=values)
    out = np.full(positive.shape, DB_FLOOR)
    out[positive] = values
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

    power_db is derived once from the amplitude, 20*log10|amplitude|, or
    DB_FLOOR for a zero amplitude; most consumers need only that scalar.
    """

    delay_s: float
    amplitude: complex
    power_db: float = field(init=False)

    def __post_init__(self) -> None:
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be non-negative")
        mag = abs(self.amplitude)
        power_db = 20.0 * math.log10(mag) if mag > 0.0 else DB_FLOOR
        object.__setattr__(self, "power_db", power_db)


def pdp_from_cir(samples: np.ndarray) -> np.ndarray:
    """Power delay profile 10*log10(|s|^2) in dB (zero bins at DB_FLOOR) along
    the delay axis, the last; a (time, delay) block gives one PDP per row."""
    power = np.asarray(np.abs(samples))  # a fresh array, squared where it lies
    np.square(power, out=power)
    power = power.astype(float, copy=False)
    positive = power > 0.0
    values = power[positive]
    del power  # freed before the output is allocated
    return _levels_db(positive, values)


def derive_substream(seed: int, label: str, index: int) -> np.random.Generator:
    """An independent random substream keyed by (seed, label, index).

    The key is the SHA-256 digest of the three values, fed to a
    counter-based Philox generator, so a substream's draws are a pure
    function of them: independent of platform, process history, and of
    any other substream.
    """
    material = f"{seed}\x1f{label}\x1f{index}".encode()
    digest = hashlib.sha256(material).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
