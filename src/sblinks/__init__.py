"""Exact constructions on non-trivial Severi-Brauer surfaces over radical
towers of Q(zeta)(t1..tn): twisted planes, closed points, Sarkisov 3- and
6-links, cubic birational models, and the word algebra of link classes."""

from .errors import SblinksError
from .field_tower import (
    CubicExtension,
    FieldElement,
    GaloisAction,
    RationalFunction,
    TowerField,
    TriState,
    is_cube,
    is_norm,
    is_square,
    norm,
)
from .severi_brauer import (
    ClosedPoint,
    SBSurface,
    TwistedAutomorphism,
    auto_between_3points,
    coordinate_3point,
    has_rational_point,
    is_isomorphic,
    make_closed_point,
    make_surface,
    normalize_3point,
    opposite,
    second_3point,
    sixpoint_from_sqrt,
    unit_3point,
)
from .birational import (
    Link,
    RationalMap,
    TwistedMap,
    base_points,
    compose,
    equals,
    is_equivariant,
    link_from_3point,
    link_from_6point,
    transport_point,
)
from .cubic_models import (
    SingularCubicModel,
    SmoothCubicModel,
    build_singular_model,
    build_smooth_model,
    order3_selfmap,
    section_of_contraction,
    verify_singular_model,
    verify_smooth_model,
)
from .word_algebra import (
    GroupWord,
    LinkClass,
    class_of_point,
    hexagon,
    project_basepoint,
    psi_compose,
    psi_link,
    reduce,
    word_from_list,
)
from .genus_bounds import CoverParams, covgen_from_min_degree, covgen_lower_bound

__all__ = [n for n in dir() if not n.startswith("_")]
