"""Strict INI-style configuration.

Three sections, each holding exactly the keys its subcommand reads:
[blockage] those of BlockageConfig, [gbsm] those of GbsmConfig, and
[sounder] band_fraction and those of LinkBudget and MpcExtractionPolicy.
One walk over a parameter type's fields declares its keys and builds it
from a section: a str, int or float field is its own key, and a Point3
field is three <field>_<x|y|z>_<unit> keys.  A str field takes the text as
given, an int field a base-10 integer and a float field any float, inf and
nan included: the parameter type refuses a value it cannot honour,
non-finite ones among them, and Config.cited cites that refusal at the
key's line.  Unknown sections, unknown keys, duplicate keys, and malformed
values are hard errors carrying the file line number, so typos never pass
silently.  All dimensioned keys carry a unit suffix (_m, _ghz, _db, _s, ...).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields

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


# The Point3 fields of GbsmConfig, each given as three keys
# <field>_<x|y|z>_<unit>, with its unit suffix.
_VECTORS = {"tx_velocity": "mps", "rx_velocity": "mps", "tx_position": "m", "rx_position": "m"}

# The parser of a key by the type of its field; an optional float field,
# None by default, takes a float too, and so does each Point3 coordinate.
_PARSERS = {"str": str, "int": int, "float": float, "float | None": float, "Point3": float}


def _keys_of(name: str) -> list[str]:
    """The keys that set field name: its own, or a Point3 field's three."""
    return [f"{name}_{axis}_{_VECTORS[name]}" for axis in "xyz"] if name in _VECTORS else [name]


def _keys(*classes) -> dict[str, object]:
    """A parser per key of the dataclasses' fields; the Point3 fields' keys
    follow all the others."""
    walk = sorted((f for cls in classes for f in fields(cls)), key=lambda f: f.name in _VECTORS)
    return {key: _PARSERS[f.type] for f in walk for key in _keys_of(f.name)}


SCHEMA: dict[str, dict[str, object]] = {
    "blockage": _keys(BlockageConfig),
    "gbsm": _keys(GbsmConfig),
    "sounder": {"band_fraction": float, **_keys(LinkBudget, MpcExtractionPolicy)},
}


def build(cls, section: dict[str, object]):
    """The dataclass cls with each field a key of section sets: a Point3
    field given any of its keys takes the rest from its default, and a
    field given none keeps its default.  Keys of other fields are ignored."""
    values = {}
    for f in fields(cls):
        keys = _keys_of(f.name)
        if f.name in _VECTORS and any(key in section for key in keys):
            default = astuple(f.default_factory())
            values[f.name] = Point3(*(section.get(k, d) for k, d in zip(keys, default)))
        elif f.name in section:
            values[f.name] = section[f.name]
    return cls(**values)


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

    @contextmanager
    def cited(self, name: str, required: bool = True):
        """Yield section name's values, or {} if it is absent and not
        required; a missing required section is refused at line 0.  A
        ValueError raised while its parameter objects are built becomes a
        ConfigError: a FieldError at the line of the key that sets its field
        or coordinate, by that key if the value is not finite, and any other
        at the line of the section's header."""
        section = self.section(name)
        if section is None and required:
            raise self.error(name, None, f"missing [{name}] section")
        try:
            yield section or {}
        except FieldError as err:
            key = err.field if err.axis is None else _keys_of(err.field)["xyz".index(err.axis)]
            raise self.error(name, key, f"{key} {err.rule}" if err.rule else str(err)) from None
        except ValueError as err:
            raise self.error(name, None, str(err)) from None


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


def gbsm_config(section: dict[str, object]) -> GbsmConfig:
    return build(GbsmConfig, section)


def sounder_settings(
    section: dict[str, object],
) -> tuple[LinkBudget, MpcExtractionPolicy, float]:
    budget = build(LinkBudget, section)
    policy = build(MpcExtractionPolicy, section)
    band_fraction = float(section.get("band_fraction", DEFAULT_BAND_FRACTION))
    check_fields({"band_fraction": band_fraction}, BAND_FRACTION_RULE)  # before any capture
    return budget, policy, band_fraction
