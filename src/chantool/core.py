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
from dataclasses import astuple, dataclass, field, fields

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# Linear power of exactly zero maps to this floor instead of -inf.
DB_FLOOR = -300.0


class FieldError(ValueError):
    """A config value refused on its own: field names the parameter field,
    axis the component ("x", "y" or "z") of a Point3 field, else None, and
    rule, for a non-finite value, "must be finite, got <the value alone>"."""

    def __init__(self, message: str, field: str, axis: str | None = None, rule: str = "") -> None:
        super().__init__(message)
        self.field = field
        self.axis = axis
        self.rule = rule


def check_fields(obj, *rules) -> None:
    """The one refusal of a single field of the dataclass (or dict) obj.  It
    raises FieldError("<name> must be finite, got <value>") for the first float
    field, Python's or numpy's, that is not finite, checking a Point3
    field's coordinates each with its axis; then FieldError("<name> must be
    <text>") for the first field, in rule order, that breaks a rule (text,
    test, names): test(value) is false for a field named in names.
    Refusals of several fields together stay with their types."""
    values = obj if isinstance(obj, dict) else {f.name: getattr(obj, f.name) for f in fields(obj)}
    for name, value in values.items():
        axes = zip("xyz", astuple(value)) if isinstance(value, Point3) else [(None, value)]
        for axis, x in axes:
            if isinstance(x, (float, np.floating)) and not math.isfinite(x):
                rule = f"must be finite, got {x}"
                raise FieldError(f"{name} must be finite, got {value}", name, axis, rule)
    for text, test, names in rules:
        for name in names:
            if not test(values[name]):
                raise FieldError(f"{name} must be {text}", name)


def to_db(linear: np.ndarray | float) -> np.ndarray | float:
    """10*log10 with exact zeros clamped to DB_FLOOR."""
    out = levels_db(np.array(linear, dtype=float))
    if out.ndim == 0:
        return float(out)
    return out


def levels_db(power: np.ndarray) -> np.ndarray:
    """to_db of a float64 array, written over it and returned: one contiguous
    log10 call turns a fresh array of its positive entries into levels in
    place, and that is the only other array of the full size."""
    positive = power > 0.0
    values = power[positive]
    np.log10(values, out=values)
    np.multiply(values, 10.0, out=values)
    power.fill(DB_FLOOR)
    power[positive] = values
    return power


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


@dataclass(frozen=True)
class FrequencyBand:
    """Carrier frequency, Hz."""

    carrier_hz: float

    def __post_init__(self) -> None:
        if not (self.carrier_hz > 0.0 and math.isfinite(self.carrier_hz)):
            raise ValueError(f"carrier_hz must be finite and positive, got {self.carrier_hz}")
        if not math.isfinite(self.wavelength_m):
            raise ValueError(f"carrier_hz {self.carrier_hz} gives an infinite wavelength")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber k = 2*pi/lambda, rad/m."""
        return 2.0 * math.pi * self.carrier_hz / SPEED_OF_LIGHT


# check_fields' rule of a carrier_ghz field: the carriers FrequencyBand(carrier_ghz * 1e9) takes.
CARRIER_RULE = ("positive, with a finite frequency in Hz and wavelength in m",
                lambda ghz: 0.0 < ghz * 1e9 < math.inf and SPEED_OF_LIGHT / (ghz * 1e9) < math.inf,
                ("carrier_ghz",))

# Measurement-campaign carriers this toolkit was validated against.
BAND_28 = FrequencyBand(28e9)
BAND_32 = FrequencyBand(32e9)
BAND_39 = FrequencyBand(39e9)


@dataclass(frozen=True)
class CirSnapshot:
    """A complex baseband CIR on a uniform delay grid, or one per row of a block."""

    sample_period_s: float
    samples: np.ndarray  # complex, delay-indexed along the last axis

    def __post_init__(self) -> None:
        if not (self.sample_period_s > 0.0 and math.isfinite(self.sample_period_s)):
            raise ValueError(
                f"sample_period_s must be finite and positive, got {self.sample_period_s}"
            )
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
        if not (self.delay_s >= 0.0 and math.isfinite(self.delay_s)):
            raise ValueError(f"delay_s must be finite and non-negative, got {self.delay_s}")
        mag = abs(self.amplitude)
        if not math.isfinite(mag):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        power_db = 20.0 * math.log10(mag) if mag > 0.0 else DB_FLOOR
        object.__setattr__(self, "power_db", power_db)


def pdp_from_cir(samples: np.ndarray) -> np.ndarray:
    """Power delay profile 10*log10(|s|^2) in dB (zero bins at DB_FLOOR) along
    the delay axis, the last; a (time, delay) block gives one PDP per row."""
    power = np.asarray(np.abs(samples))  # a fresh array, squared and leveled where it lies
    np.square(power, out=power)
    return levels_db(power.astype(float, copy=False))


def _substream_key(seed: int, label: str, index: int) -> list[int]:
    """The SHA-256 digest of the three values, its first 16 bytes read as
    two native-order uint64 words."""
    material = f"{seed}\x1f{label}\x1f{index}".encode()
    return memoryview(hashlib.sha256(material).digest()).cast("Q")[:2].tolist()


def derive_substream(seed: int, label: str, index: int) -> np.random.Generator:
    """An independent random substream keyed by (seed, label, index).

    The key is the SHA-256 digest of the three values, fed to a
    counter-based Philox generator, so a substream's draws are a pure
    function of them: independent of platform, process history, and of
    any other substream.
    """
    key = np.array(_substream_key(seed, label, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reset_substream(rng: np.random.Generator, seed: int, label: str, index: int) -> None:
    """Put rng, a generator on a Philox bit generator, in the state that
    derive_substream(seed, label, index) starts in.

    Philox(key=) first seeds itself from OS entropy, then discards that for
    the key, so a loop over many indices resets one generator instead.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": _substream_key(seed, label, index)},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
