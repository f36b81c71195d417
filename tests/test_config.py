"""Tests for strict INI configuration parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chantool.config import (
    SCHEMA,
    ConfigError,
    blockage_settings,
    field_key,
    gbsm_config,
    parse_config,
    sounder_settings,
)
from chantool.core import Point3
from chantool.gbsm import FieldError, GbsmConfig


def float_keys():
    """(section, key) for every key whose value parses as a float."""
    out = []
    for section, keys in SCHEMA.items():
        for key, parse in keys.items():
            try:
                parse("0.5")
            except ValueError:
                continue
            out.append((section, key))
    return out


# Lines that reach past the header checks: schema sections and keys with
# arbitrary values, mixed with arbitrary text.
CONFIG_LINES = st.one_of(
    st.sampled_from([f"[{name}]" for name in SCHEMA]),
    st.builds(
        "{} = {}".format,
        st.sampled_from([key for keys in SCHEMA.values() for key in keys]),
        st.one_of(st.sampled_from(["1", "0.5", "-2", "inf", "nan", "1e999", "ci"]), st.text()),
    ),
    st.text(),
)

# Keys of the int fields of GbsmConfig and MpcExtractionPolicy; every other
# number key is a float.
INT_KEYS = {
    ("gbsm", "n_tx"),
    ("gbsm", "n_rx"),
    ("gbsm", "rays_per_cluster"),
    ("gbsm", "seed"),
    ("sounder", "max_paths"),
}

GOOD = """\
# demo configuration
[blockage]
scenario = along   ; trailing comment
carrier_ghz = 39.0
link_length_m = 8.0

[gbsm]
seed = 21
mean_clusters = 6.5
tx_velocity_x_mps = 1.5
rx_position_x_m = 25.0

[sounder]
max_paths = 10
gr_dbi = 25.0
"""


class TestParsing:
    def test_valid_file(self):
        cfg = parse_config(GOOD, "demo.ini")
        assert cfg.section("blockage")["scenario"] == "along"
        assert cfg.section("blockage")["carrier_ghz"] == 39.0
        assert cfg.section("gbsm")["seed"] == 21
        assert isinstance(cfg.section("gbsm")["seed"], int)
        assert cfg.section("sounder")["max_paths"] == 10
        assert isinstance(cfg.section("sounder")["max_paths"], int)
        assert cfg.section("pathloss") is None

    def test_errors_after_parsing_cite_lines(self):
        cfg = parse_config(GOOD, "demo.ini")
        assert str(cfg.error("gbsm", None, "m")) == "demo.ini:7: m"
        assert str(cfg.error("gbsm", "rx_position_x_m", "m")) == "demo.ini:11: m"
        assert str(cfg.error("sounder", "gr_dbi", "m")) == "demo.ini:15: m"
        # absent from the file: no line to cite
        assert str(cfg.error("pathloss", None, "m")) == "demo.ini:0: m"
        assert str(cfg.error("gbsm", "n_tx", "m")) == "demo.ini:0: m"

    def test_unknown_key_reports_line(self):
        cases = [
            ("[gbsm]\nseed = 1\nmean_clutsers = 5\n", 3, "mean_clutsers"),
            # keys no command read, removed from the schema
            ("[gbsm]\nseed = 1\nfix_gamma = 0.0\n", 3, "fix_gamma"),
            ("[gbsm]\nbandwidth_ghz = 1.0\n", 2, "bandwidth_ghz"),
            ("[sounder]\npn_order = 12\n", 2, "pn_order"),
            ("[sounder]\ngr_dbi = 25.0\npad_head = 104\n", 3, "pad_head"),
            ("[sounder]\npad_tail = 800\n", 2, "pad_tail"),
            ("\n[sounder]\ninterp_factor = 4\n", 3, "interp_factor"),
            ("[sounder]\nrrc_rolloff = 0.5\n", 2, "rrc_rolloff"),
            ("[sounder]\n\n\nsample_rate_ghz = 1.28\n", 4, "sample_rate_ghz"),
        ]
        for text, line, key in cases:
            with pytest.raises(ConfigError, match=rf"x\.ini:{line}: unknown key '{key}'"):
                parse_config(text, "x.ini")

    def test_unknown_section_reports_line(self):
        with pytest.raises(ConfigError, match=r":2: unknown section \[gbms\]"):
            parse_config("\n[gbms]\n", "x.ini")
        # removed: [analysis] had no reader, and pathloss-fit takes its
        # model from --model alone
        with pytest.raises(ConfigError, match=r":2: unknown section \[analysis\]"):
            parse_config("\n[analysis]\nthreshold = 0.8\n", "x.ini")
        with pytest.raises(ConfigError, match=r":2: unknown section \[pathloss\]"):
            parse_config("\n[pathloss]\nmodel = ci\n", "x.ini")

    def test_duplicate_key_rejected(self):
        text = "[gbsm]\nseed = 1\nseed = 2\n"
        with pytest.raises(ConfigError, match=r":3: duplicate key 'seed'"):
            parse_config(text, "x.ini")

    def test_duplicate_section_rejected(self):
        with pytest.raises(ConfigError, match=r":3: duplicate section"):
            parse_config("[gbsm]\nseed = 1\n[gbsm]\n", "x.ini")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match=r":1: key outside"):
            parse_config("seed = 1\n", "x.ini")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match=r":2: expected key = value"):
            parse_config("[gbsm]\njust some words\n", "x.ini")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match=r":2: bad value for 'seed'"):
            parse_config("[gbsm]\nseed = banana\n", "x.ini")
        with pytest.raises(ConfigError, match=r"bad value for 'scenario'"):
            parse_config("[blockage]\nscenario = sideways\n", "x.ini")

    def test_fuzzed_unknown_keys_always_rejected(self):
        # no unknown key may ever pass, wherever it lands
        rng = np.random.default_rng(77)
        sections = sorted(SCHEMA)
        letters = "abcdefghijklmnopqrstuvwxyz_"
        for trial in range(200):
            section = sections[rng.integers(len(sections))]
            name = "".join(
                letters[i] for i in rng.integers(len(letters), size=rng.integers(3, 15))
            )
            name = f"zz_{name}"  # never collides with a schema key
            pad = int(rng.integers(0, 4))
            text = "\n" * pad + f"[{section}]\n" + f"{name} = 1.0\n"
            with pytest.raises(ConfigError, match=f":{pad + 2}:"):
                parse_config(text, "fuzz.ini")


    @pytest.mark.parametrize("section, key", float_keys())
    def test_non_finite_float_rejected(self, section, key):
        for raw in ("inf", "-inf", "nan", "1e999"):
            text = f"[{section}]\n{key} = {raw}\n"
            with pytest.raises(
                ConfigError, match=rf"x\.ini:2: bad value for '{key}': must be finite"
            ):
                parse_config(text, "x.ini")

    @pytest.mark.parametrize(
        "section, key",
        [(s, k) for s, keys in SCHEMA.items() for k in keys if k != "scenario"],
    )
    def test_number_keys_follow_the_field_type(self, section, key):
        def parse(raw):
            return parse_config(f"[{section}]\n{key} = {raw}\n", "x.ini").section(section)[key]

        if (section, key) in INT_KEYS:
            with pytest.raises(ConfigError, match=rf"x\.ini:2: bad value for '{key}'"):
                parse("2.0")
            assert type(parse("3")) is int
        else:
            assert type(parse("3")) is float
        assert parse("3") == 3

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.one_of(st.text(), st.lists(CONFIG_LINES, max_size=8).map("\n".join)))
    def test_fuzzed_text_raises_only_config_error(self, text):
        try:
            parse_config(text, "fuzz.ini")
        except ConfigError:
            pass


class TestBuilders:
    def test_blockage_defaults_and_overrides(self):
        settings = blockage_settings({})
        assert settings["scenario"] == "crossing"
        assert settings["link_length_m"] == 10.0
        assert settings["along_position_m"] == 5.0
        assert settings["screen_width_m"] == 0.4
        custom = blockage_settings({"link_length_m": 8.0, "along_position_m": 2.0})
        assert custom["along_position_m"] == 2.0

    def test_gbsm_builder_maps_vectors(self):
        section = parse_config(GOOD, "demo.ini").section("gbsm")
        cfg = gbsm_config(section)
        assert cfg.seed == 21
        assert cfg.mean_clusters == 6.5
        assert cfg.tx_velocity == Point3(1.5, 0.0, 0.0)
        assert cfg.rx_position == Point3(25.0, 0.0, 1.5)
        assert cfg.n_tx == 1  # untouched default

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"n_rx": 0}, "n_rx"),
            ({"rays_per_cluster": 0}, "rays_per_cluster"),
            ({"ray_delay_scale_s": 0.0}, "ray_delay_scale_s"),
            ({"tx_velocity": Point3(0.0, 0.0, 1.0)}, "tx_velocity_z_mps"),
            ({"rx_position": Point3(10.0, float("nan"), 1.5)}, "rx_position_y_m"),
        ],
    )
    def test_field_refusal_names_its_key(self, kwargs, key):
        with pytest.raises(FieldError) as info:
            GbsmConfig(**kwargs)
        assert field_key(info.value) == key
        assert key in SCHEMA["gbsm"]

    def test_sounder_builder(self):
        section = parse_config(GOOD, "demo.ini").section("sounder")
        budget, policy, band_fraction = sounder_settings(section)
        assert budget.gr_dbi == 25.0
        assert budget.gt_dbi == 20.0
        assert policy.max_paths == 10
        assert policy.rel_threshold_db == 25.0
        assert band_fraction == 0.6
