"""Strict INI-style configuration.

Sections [blockage], [pathloss], [gbsm], [sounder]; each holds exactly the
keys its subcommand reads.  Unknown sections, unknown keys, duplicate keys,
and malformed or non-finite values are hard errors carrying the file line
number, so typos never pass silently.  All dimensioned keys carry a unit
suffix (_m, _ghz, _db, _s, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from chantool.blockage import (
    DEFAULT_ANTENNA_HEIGHT_M,
    DEFAULT_BLOCKER_CENTER_Z_M,
    DEFAULT_CYLINDER_HEIGHT_M,
    DEFAULT_CYLINDER_RADIUS_M,
    DEFAULT_SCREEN_HEIGHT_M,
    DEFAULT_SCREEN_WIDTH_M,
)
from chantool.core import FrequencyBand, Point3
from chantool.gbsm import GbsmConfig
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


SCHEMA: dict[str, dict[str, object]] = {
    "blockage": {
        "scenario": _choice("crossing", "along"),
        "carrier_ghz": _float,
        "link_length_m": _float,
        "antenna_height_m": _float,
        "screen_width_m": _float,
        "screen_height_m": _float,
        "cylinder_radius_m": _float,
        "cylinder_height_m": _float,
        "blocker_center_z_m": _float,
        "along_position_m": _float,
        "lateral_offset_m": _float,
    },
    "pathloss": {
        "model": _choice("ci", "fi", "abg"),
    },
    "gbsm": {
        "carrier_ghz": _float,
        "n_tx": _int,
        "n_rx": _int,
        "antenna_spacing_m": _float,
        "k_factor_db": _float,
        "mean_clusters": _float,
        "rays_per_cluster": _int,
        "delay_scale_s": _float,
        "per_cluster_shadow_db": _float,
        "birth_rate_hz": _float,
        "death_rate_hz": _float,
        "snapshot_interval_s": _float,
        "duration_s": _float,
        "seed": _int,
        "tx_velocity_x_mps": _float,
        "tx_velocity_y_mps": _float,
        "tx_velocity_z_mps": _float,
        "rx_velocity_x_mps": _float,
        "rx_velocity_y_mps": _float,
        "rx_velocity_z_mps": _float,
        "tx_position_x_m": _float,
        "tx_position_y_m": _float,
        "tx_position_z_m": _float,
        "rx_position_x_m": _float,
        "rx_position_y_m": _float,
        "rx_position_z_m": _float,
        "ray_angle_spread_rad": _float,
        "ray_delay_scale_s": _float,
        "delay_resolution_s": _float,
    },
    "sounder": {
        "band_fraction": _float,
        "gt_dbi": _float,
        "gr_dbi": _float,
        "p_pa_dbm": _float,
        "p_cal_dbm": _float,
        "g_lna_db": _float,
        "l_cable_db": _float,
        "max_paths": _int,
        "rel_threshold_db": _float,
        "noise_margin_db": _float,
        "noise_tail_fraction": _float,
    },
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
    out = {
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
    out.update(section)
    if out["along_position_m"] is None:
        out["along_position_m"] = out["link_length_m"] / 2.0
    return out


def _overrides(cls, section: dict[str, object]) -> dict[str, object]:
    """The section's values for keys that name fields of dataclass cls."""
    return {f.name: section[f.name] for f in fields(cls) if f.name in section}


def gbsm_config(section: dict[str, object], seed: int | None = None) -> GbsmConfig:
    base = GbsmConfig()

    def vec(prefix: str, unit: str, default: Point3) -> Point3:
        keys = [f"{prefix}_{axis}_{unit}" for axis in "xyz"]
        if not any(k in section for k in keys):
            return default
        return Point3(
            float(section.get(keys[0], default.x)),
            float(section.get(keys[1], default.y)),
            float(section.get(keys[2], default.z)),
        )

    values = _overrides(GbsmConfig, section)
    if "carrier_ghz" in section:
        values["band"] = FrequencyBand.preset(float(section["carrier_ghz"]))
    if seed is not None:
        values["seed"] = seed
    return replace(
        base,
        **values,
        tx_velocity=vec("tx_velocity", "mps", base.tx_velocity),
        rx_velocity=vec("rx_velocity", "mps", base.rx_velocity),
        tx_position=vec("tx_position", "m", base.tx_position),
        rx_position=vec("rx_position", "m", base.rx_position),
    )


def sounder_settings(
    section: dict[str, object],
) -> tuple[LinkBudget, MpcExtractionPolicy, float]:
    budget = LinkBudget(**_overrides(LinkBudget, section))
    policy = MpcExtractionPolicy(**_overrides(MpcExtractionPolicy, section))
    return budget, policy, float(section.get("band_fraction", DEFAULT_BAND_FRACTION))
