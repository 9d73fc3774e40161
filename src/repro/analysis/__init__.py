"""Post-processing analysis of LS3DF results (band-edge states, spectra)."""

from repro import exports

__all__, __getattr__ = exports(__name__, {
    "states": "inverse_participation_ratio localization_report band_structure_summary oxygen_band_analysis",
})
