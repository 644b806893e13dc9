"""Ambiguity-aware adaptive-margin contrastive learning for point clouds."""

from ambiseg.cloud import PointCloud, SceneSpec, synth_scene
from ambiseg.ambiguity import AmbiguityMap, ambiguity_map
from ambiseg.margin import margin_map

__all__ = [
    "PointCloud",
    "SceneSpec",
    "synth_scene",
    "AmbiguityMap",
    "ambiguity_map",
    "margin_map",
]
