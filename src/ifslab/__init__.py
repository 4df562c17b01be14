"""Numerical laboratory for finitely generated map systems on flat charts
and the circle: Hutchinson attractors with verified covers and absorbing
balls, bounded-distortion estimates along reverse words, minimality and
ergodicity probes, and disjoint-disk packing feasibility checks.
"""

from .geometry import Disk, Domain, GridSet
from .maps import (
    AffineSimilarity,
    CircleNorthSouth,
    CircleRotation,
    Map,
    Perturbed,
    SystemSpec,
    Word,
    apply_word,
    complex_eigenvalue_check,
    parse_system,
    word_jacobian_det,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSimilarity",
    "CircleNorthSouth",
    "CircleRotation",
    "Disk",
    "Domain",
    "GridSet",
    "Map",
    "Perturbed",
    "SystemSpec",
    "Word",
    "apply_word",
    "complex_eigenvalue_check",
    "parse_system",
    "word_jacobian_det",
]
