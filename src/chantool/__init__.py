"""Millimeter-wave channel modeling toolkit.

Subpackages cover diffraction-based blockage models, path loss fitting,
non-stationary cluster channel synthesis, channel-sounder waveform
processing, and stationarity analysis, plus a batch CLI over all of them.

The public names resolve lazily, on first use, so `import chantool` loads
neither numpy nor scipy.  That lets `python -m chantool` and the `chantool`
script reach `chantool.cli`, which sets its OpenBLAS default before numpy
loads, while library callers keep OpenBLAS's own.
"""

import importlib

_EXPORTS = {
    "analysis": ("CorrelationMatrix", "StationaryReport", "los_power_track",
                 "pdp_correlation_matrix", "stationary_intervals"),
    "archive": ("ArchiveError", "capture_sequence", "read_archive", "write_archive"),
    "blockage": ("BlockageConfig", "BlockageScenario", "Cylinder", "GeometryError", "Screen",
                 "airy_zero", "default_cylinder", "default_screen", "gtd_cylinder_attenuation",
                 "kirchhoff_screen_attenuation", "metis_screen_attenuation", "sweep_blocker"),
    "config": ("Config", "ConfigError", "parse_config"),
    "core": ("BAND_28", "BAND_32", "BAND_39", "DB_FLOOR", "SPEED_OF_LIGHT", "CirSnapshot",
             "FrequencyBand", "Mpc", "Point3", "derive_substream", "from_db",
             "pdp_from_cir", "to_db"),
    "gbsm": ("CirSequence", "CirStream", "GbsmConfig", "SizingError", "run_scenario",
             "stream_scenario"),
    "pathloss": ("AbgModel", "CiModel", "abg_eval", "abg_fit", "ci_eval",
                 "ci_fit", "ci_preset", "sample_columns"),
    "sounder": ("Calibration", "LinkBudget", "MpcExtractionPolicy", "WaveformSpec",
                "build_tx_waveform", "calibrate", "deconvolve_cir", "extract_mpcs",
                "noise_floor_db", "path_loss_from_power", "received_power",
                "rms_delay_spread", "simulate_capture"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
