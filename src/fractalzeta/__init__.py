"""Fractal zeta functions: distance and tube zetas of bounded sets and
relative drums, their complex dimensions, and residue-based tube formulas.

The catalog covers generalized ternary sets, the two- and three-dimensional
middle-cell carpets, polynomial strings, a fractal nest, and a flat drum
whose relative dimension escapes to minus infinity.
"""
from __future__ import annotations

from .dims import (
    ContentEnvelope,
    DimFit,
    box_dim_fit,
    content_envelope,
    log_grid,
    relative_box_dim_fit,
    relative_content_envelope,
)
from .geometry import (
    FractalString,
    SetDescriptor,
    a_string,
    a_string_set,
    box_boundary,
    cantor_set,
    carpet,
    distance,
    distance_many,
    flat_drum,
    fractal_nest,
    full_tube_volume,
    log_tube_volume,
    region_volume,
    saturation_threshold,
    scaled,
    string_set,
    tube_breakpoints,
    tube_volume,
)
from .quasi import (
    DependenceError,
    ExponentVector,
    HyperfractalTruncation,
    QPReport,
    exponent_vector,
    find_relation,
    hyperfractal_truncation,
    ordinate_min_gap,
    rationally_independent,
    two_qp_set,
)
from .spectrum import (
    PoleSet,
    Window,
    fourier_residues,
    poles,
    residue_analytic,
    residue_contour,
    residue_exact,
    spray_dims,
    window_for_lattice,
)
from .tubeformula import (
    MeasurabilityVerdict,
    TubeFormulaReport,
    measurability_check,
    spray_tube,
    spray_tube_oracle,
    truncated_tube,
)
from .zeta import (
    HPReport,
    MeromorphicForm,
    NonconvergenceError,
    ZetaEstimate,
    ZetaTerm,
    abscissa_of,
    abscissa_scan,
    catalog_form,
    cube_generator,
    distance_zeta_closed,
    distance_zeta_mc,
    functional_eq_residual,
    geometric_zeta,
    hp_integrability_probe,
    interval_generator,
    scaling_check,
    spray_zeta,
    square_generator,
    tube_zeta_closed,
    tube_zeta_quad,
    tube_zeta_residue,
)

__version__ = "0.1.0"

__all__ = [
    "ContentEnvelope", "DimFit", "box_dim_fit", "content_envelope",
    "log_grid", "relative_box_dim_fit", "relative_content_envelope",
    "FractalString", "SetDescriptor", "a_string", "a_string_set",
    "box_boundary", "cantor_set", "carpet", "distance", "distance_many",
    "flat_drum", "fractal_nest", "full_tube_volume", "log_tube_volume",
    "region_volume", "saturation_threshold", "scaled", "string_set",
    "tube_breakpoints", "tube_volume",
    "DependenceError", "ExponentVector", "HyperfractalTruncation", "QPReport",
    "exponent_vector", "find_relation", "hyperfractal_truncation",
    "ordinate_min_gap", "rationally_independent", "two_qp_set",
    "PoleSet", "Window", "fourier_residues", "poles", "residue_analytic",
    "residue_contour", "residue_exact", "spray_dims", "window_for_lattice",
    "MeasurabilityVerdict", "TubeFormulaReport", "measurability_check",
    "spray_tube", "spray_tube_oracle", "truncated_tube",
    "HPReport", "MeromorphicForm", "NonconvergenceError", "ZetaEstimate",
    "ZetaTerm", "abscissa_of", "abscissa_scan", "catalog_form",
    "cube_generator", "distance_zeta_closed", "distance_zeta_mc",
    "functional_eq_residual", "geometric_zeta", "hp_integrability_probe",
    "interval_generator", "scaling_check", "spray_zeta", "square_generator",
    "tube_zeta_closed", "tube_zeta_quad", "tube_zeta_residue",
    "__version__",
]
