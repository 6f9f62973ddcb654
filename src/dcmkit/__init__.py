"""Hybrid wireless channel model with pre-built dynamic channel maps.

Static multipath comes from image-method ray tracing against a facet
scene; dynamic multipath comes from seeded geometry-based scatter
clusters; the two are mixed by their power ratios relative to the line of
sight.  Maps of traced static paths persist to disk and support fast
online snapshot updates, and the statistics layer derives correlation
functions, power spectra, spreads, and level crossing rates from the same
model objects.
"""

from importlib import import_module as _import_module

from .scene import (Facet, Material, Scene, SceneError, load_scene,
                    loads_scene, scene_text_hash)
from .raytrace import (Mpc, PathSet, direction_angles, fresnel_coefficients,
                       friis_path_gain, trace_static_mpcs, unit_from_angles)
from .gbsm import (AntennaArray, ClusterSet, GbsmConfig, Taps, dynamic_cir,
                   spawn_clusters)
from .hybrid import (ChannelModel, ChannelSnapshot, KFactors, combine_cir,
                     rician_params, static_cir)
from .dcm import (DcmLookupError, DcmMap, DcmRecord, MatchResult, build_map,
                  dumps_map, estimate_k_split, grid_points, load_map,
                  loads_map, match_mpcs, model_from_map, query, save_map,
                  update_snapshot, worker_count)

__version__ = "0.1.0"

__all__ = [
    "AntennaArray", "ChannelModel", "ChannelSnapshot", "ClusterSet",
    "DcmLookupError", "DcmMap", "DcmRecord", "Facet", "GbsmConfig",
    "KFactors", "LcrInputs", "MatchResult", "Material", "Mpc", "PathSet",
    "Psd", "Scene", "SceneError", "Taps", "angular_psd",
    "branch_power_coefficients", "build_map", "combine_cir", "delay_psd",
    "direction_angles", "doppler_psd", "doppler_psd_from_lags",
    "dumps_map", "dynamic_cir", "empirical_cdf", "estimate_k_split",
    "fcf_closed_form", "fresnel_coefficients", "friis_path_gain",
    "grid_points", "lcr_analytic", "lcr_empirical", "lcr_time_inputs",
    "load_map", "load_scene", "loads_map", "loads_scene", "match_mpcs",
    "model_from_map", "query", "rician_params", "rms_spread", "save_map",
    "scene_text_hash", "spawn_clusters", "static_cir", "stfcf",
    "trace_static_mpcs", "unit_from_angles", "update_snapshot",
    "worker_count",
]

# The statistics layer is imported on first use of one of its names
# (PEP 562), so `import dcmkit` and the commands that never derive a
# statistic do not pay for it.
_STATS = frozenset((
    "LcrInputs", "Psd", "angular_psd", "branch_power_coefficients", "delay_psd",
    "doppler_psd", "doppler_psd_from_lags", "empirical_cdf", "fcf_closed_form",
    "lcr_analytic", "lcr_empirical", "lcr_time_inputs", "rms_spread", "stfcf",
))


def __getattr__(name):
    if name in _STATS or name == "stats":
        stats = _import_module(".stats", __name__)
        return stats if name == "stats" else getattr(stats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_STATS, "stats"})
