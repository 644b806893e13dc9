"""Ambiguity-aware adaptive-margin contrastive learning for point clouds."""

from ambiseg.cloud import PointCloud, SceneSpec, rigid_transform, synth_scene
from ambiseg.ambiguity import AefConfig, AmbiguityMap, ambiguity_map
from ambiseg.margin import MarginConfig, MarginMap, margin_map

__all__ = [
    "PointCloud",
    "SceneSpec",
    "rigid_transform",
    "synth_scene",
    "AefConfig",
    "AmbiguityMap",
    "ambiguity_map",
    "MarginConfig",
    "MarginMap",
    "margin_map",
]
