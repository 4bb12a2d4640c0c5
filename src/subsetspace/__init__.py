"""Finite subset spaces of finite simplicial sets: construction, exact
integer homology, and connectivity verification."""

from .simplicial import (SimplicialSet, SimplicialError, apply_face,
                         compose_degeneracy, enumerate_level,
                         load_simplicial_set, validate)
from .spaces import WedgeSpec, sphere, subdivided_circle, wedge
from .expk import ExpkSpace, ResourceCapError, build_expk
from .homology import (ChainComplex, ChainComplexError, HomologyResult,
                       SmithResult, homology, normalized_chains,
                       smith_normal_form, space_homology)

__all__ = [
    "SimplicialSet", "SimplicialError",
    "apply_face", "compose_degeneracy", "enumerate_level",
    "load_simplicial_set", "validate",
    "WedgeSpec", "sphere", "subdivided_circle", "wedge",
    "ExpkSpace", "ResourceCapError", "build_expk",
    "ChainComplex", "ChainComplexError", "HomologyResult", "SmithResult",
    "homology", "normalized_chains", "smith_normal_form", "space_homology",
]

__version__ = "0.1.0"
