"""Strict INI-style configuration.

Three sections, each holding exactly the keys its subcommand reads:

* [blockage]: the keys of one defaults table, which blockage_settings
  merges the section into;
* [gbsm]: carrier_ghz, every int or float field of GbsmConfig, and its
  Point3 fields as <field>_<x|y|z>_<unit> keys;
* [sounder]: band_fraction and every int or float field of LinkBudget and
  MpcExtractionPolicy.

An int field takes a base-10 integer and a float field a finite float.
Unknown sections, unknown keys, duplicate keys, and malformed or non-finite
values are hard errors carrying the file line number, so typos never pass
silently.  All dimensioned keys carry a unit suffix (_m, _ghz, _db, _s, ...).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

from chantool.blockage import (
    DEFAULT_ANTENNA_HEIGHT_M,
    DEFAULT_BLOCKER_CENTER_Z_M,
    DEFAULT_CYLINDER_HEIGHT_M,
    DEFAULT_CYLINDER_RADIUS_M,
    DEFAULT_SCREEN_HEIGHT_M,
    DEFAULT_SCREEN_WIDTH_M,
)
from chantool.core import FrequencyBand, Point3
from chantool.gbsm import FieldError, GbsmConfig
from chantool.sounder import DEFAULT_BAND_FRACTION, LinkBudget, MpcExtractionPolicy


class ConfigError(ValueError):
    """Configuration file problem, formatted as path:line: message."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
        return raw

    return parse


def _float(raw: str) -> float:
    value = float(raw)
    # inf and nan parse as floats but no key means them: refuse them here,
    # where the error can still name the line.
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _int(raw: str) -> int:
    return int(raw, 10)


# [blockage] keys and their defaults; along_position_m defaults to the
# midpoint of the link.
_BLOCKAGE_DEFAULTS: dict[str, object] = {
    "scenario": "crossing",
    "carrier_ghz": 28.0,
    "link_length_m": 10.0,
    "antenna_height_m": DEFAULT_ANTENNA_HEIGHT_M,
    "screen_width_m": DEFAULT_SCREEN_WIDTH_M,
    "screen_height_m": DEFAULT_SCREEN_HEIGHT_M,
    "cylinder_radius_m": DEFAULT_CYLINDER_RADIUS_M,
    "cylinder_height_m": DEFAULT_CYLINDER_HEIGHT_M,
    "blocker_center_z_m": DEFAULT_BLOCKER_CENTER_Z_M,
    "along_position_m": None,
    "lateral_offset_m": 0.0,
}

# The Point3 fields of GbsmConfig, each given as three keys
# <field>_<x|y|z>_<unit>, with its unit suffix.
_VECTORS = {"tx_velocity": "mps", "rx_velocity": "mps", "tx_position": "m", "rx_position": "m"}


def _vector_keys(name: str) -> list[str]:
    return [f"{name}_{axis}_{_VECTORS[name]}" for axis in "xyz"]


def field_key(err: FieldError) -> str:
    """The [gbsm] key that sets the GbsmConfig value err refuses."""
    return err.field if err.axis is None else _vector_keys(err.field)["xyz".index(err.axis)]


def _scalar_fields(*classes) -> dict[str, object]:
    """A parser per int or float field of the dataclasses, keyed by its name."""
    parsers = {"int": _int, "float": _float}
    return {f.name: parsers[f.type] for cls in classes for f in fields(cls) if f.type in parsers}


SCHEMA: dict[str, dict[str, object]] = {
    "blockage": {
        **dict.fromkeys(_BLOCKAGE_DEFAULTS, _float),
        "scenario": _choice("crossing", "along"),
    },
    "gbsm": {
        "carrier_ghz": _float,
        **_scalar_fields(GbsmConfig),
        **{key: _float for name in _VECTORS for key in _vector_keys(name)},
    },
    "sounder": {"band_fraction": _float, **_scalar_fields(LinkBudget, MpcExtractionPolicy)},
}


@dataclass(frozen=True)
class Config:
    """Validated configuration: section name -> key -> typed value, and in
    lines the file line of each header, keyed (section, None), and of each
    key, keyed (section, key), for errors found after parsing."""

    path: str
    sections: dict[str, dict[str, object]]
    lines: dict[tuple[str, str | None], int]

    def section(self, name: str) -> dict[str, object] | None:
        return self.sections.get(name)

    def error(self, section: str, key: str | None, message: str) -> ConfigError:
        """A ConfigError at the line of the key, or of the section header
        when key is None; line 0 when the file does not have it."""
        return ConfigError(self.path, self.lines.get((section, key), 0), message)


def parse_config(text: str, path: str = "<config>") -> Config:
    sections: dict[str, dict[str, object]] = {}
    lines: dict[tuple[str, str | None], int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigError(
                    path, lineno,
                    f"unknown section [{name}]; expected one of "
                    f"{', '.join(sorted(SCHEMA))}",
                )
            if name in sections:
                raise ConfigError(path, lineno, f"duplicate section [{name}]")
            sections[name] = {}
            lines[name, None] = lineno
            current = name
            continue
        if "=" not in line:
            raise ConfigError(path, lineno, f"expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(path, lineno, "key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        section_schema = SCHEMA[current]
        if key not in section_schema:
            raise ConfigError(path, lineno, f"unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(path, lineno, f"duplicate key {key!r} in [{current}]")
        try:
            sections[current][key] = section_schema[key](value)
        except ValueError as err:
            raise ConfigError(path, lineno, f"bad value for {key!r}: {err}") from None
        lines[current, key] = lineno
    return Config(path=path, sections=sections, lines=lines)


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), path)


# ---------------------------------------------------------------------------
# Builders: turn validated sections into module-level parameter objects.


def blockage_settings(section: dict[str, object]) -> dict[str, object]:
    out = {**_BLOCKAGE_DEFAULTS, **section}
    if out["along_position_m"] is None:
        out["along_position_m"] = out["link_length_m"] / 2.0
    return out


def _overrides(cls, section: dict[str, object]) -> dict[str, object]:
    """The section's values for keys that name fields of dataclass cls."""
    return {f.name: section[f.name] for f in fields(cls) if f.name in section}


def gbsm_config(section: dict[str, object]) -> GbsmConfig:
    base = GbsmConfig()
    values = _overrides(GbsmConfig, section)
    if "carrier_ghz" in section:
        values["band"] = FrequencyBand.preset(section["carrier_ghz"])
    for name in _VECTORS:
        keys = _vector_keys(name)
        if any(key in section for key in keys):
            default = astuple(getattr(base, name))
            values[name] = Point3(*(section.get(k, d) for k, d in zip(keys, default)))
    return replace(base, **values)


def sounder_settings(
    section: dict[str, object],
) -> tuple[LinkBudget, MpcExtractionPolicy, float]:
    budget = LinkBudget(**_overrides(LinkBudget, section))
    policy = MpcExtractionPolicy(**_overrides(MpcExtractionPolicy, section))
    band_fraction = float(section.get("band_fraction", DEFAULT_BAND_FRACTION))
    if not 0.0 < band_fraction <= 1.0:  # calibrate's rule, checked before any capture
        raise FieldError("band_fraction must be in (0, 1]", "band_fraction")
    return budget, policy, band_fraction
