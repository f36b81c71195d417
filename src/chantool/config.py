"""Strict INI-style configuration.

Three sections, each holding exactly the keys its subcommand reads, each
key declared once, by the field of the parameter type it sets:

* [blockage]: every field of BlockageConfig, scenario its one str field;
* [gbsm]: every int or float field of GbsmConfig, and its Point3 fields
  as <field>_<x|y|z>_<unit> keys;
* [sounder]: band_fraction and every int or float field of LinkBudget and
  MpcExtractionPolicy.

A str field takes the text as given, an int field a base-10 integer and a
float field any float, inf and nan included: the parameter type refuses a
value it cannot honour, non-finite ones among them, and the caller cites
the key's line.  Unknown sections, unknown keys, duplicate keys, and
malformed values are hard errors carrying the file line number, so typos
never pass silently.  All dimensioned keys carry a unit suffix (_m, _ghz,
_db, _s, ...).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace

from chantool.blockage import BlockageConfig
from chantool.core import FieldError, Point3, check_fields
from chantool.gbsm import GbsmConfig
from chantool.sounder import BAND_FRACTION_RULE, DEFAULT_BAND_FRACTION
from chantool.sounder import LinkBudget, MpcExtractionPolicy


class ConfigError(ValueError):
    """Configuration file problem, formatted as path:line: message."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _int(raw: str) -> int:
    return int(raw, 10)


# The Point3 fields of GbsmConfig, each given as three keys
# <field>_<x|y|z>_<unit>, with its unit suffix.
_VECTORS = {"tx_velocity": "mps", "rx_velocity": "mps", "tx_position": "m", "rx_position": "m"}


def _vector_keys(name: str) -> list[str]:
    return [f"{name}_{axis}_{_VECTORS[name]}" for axis in "xyz"]


def field_key(err: FieldError) -> str:
    """The key that sets the field err refuses: the field's name, or the
    <field>_<axis>_<unit> key of a component of a GbsmConfig Point3 field."""
    return err.field if err.axis is None else _vector_keys(err.field)["xyz".index(err.axis)]


def _scalar_fields(*classes) -> dict[str, object]:
    """A parser per str, int or float field of the dataclasses, keyed by its
    name; an optional float field, None by default, takes a float too."""
    parsers = {"str": str, "int": _int, "float": float, "float | None": float}
    return {f.name: parsers[f.type] for cls in classes for f in fields(cls) if f.type in parsers}


SCHEMA: dict[str, dict[str, object]] = {
    "blockage": _scalar_fields(BlockageConfig),
    "gbsm": {
        **_scalar_fields(GbsmConfig),
        **{key: float for name in _VECTORS for key in _vector_keys(name)},
    },
    "sounder": {"band_fraction": float, **_scalar_fields(LinkBudget, MpcExtractionPolicy)},
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
# [blockage] needs none: its section is BlockageConfig's keyword arguments.


def _overrides(cls, section: dict[str, object]) -> dict[str, object]:
    """The section's values for keys that name fields of dataclass cls."""
    return {f.name: section[f.name] for f in fields(cls) if f.name in section}


def gbsm_config(section: dict[str, object]) -> GbsmConfig:
    base = GbsmConfig()
    values = _overrides(GbsmConfig, section)
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
    check_fields({"band_fraction": band_fraction}, BAND_FRACTION_RULE)  # before any capture
    return budget, policy, band_fraction
