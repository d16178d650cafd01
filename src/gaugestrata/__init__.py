"""Orbit-type lattices of pointed gauge orbit spaces for SU(n)-bundles."""

from .diophantine import (BudgetExceededError, cp2_solvable, d_s2xs2, d_s4,
                          gcd_seq, jones_solvable, l_coefficients, quad_value,
                          reduced_k)
from .labels import (HasseDiagram, HoweLabel, LabelError,
                     TransitiveReductionError, canonicalize, covering_relation,
                     descendants, direct_successors, dual, enumerate_labels,
                     format_label, hasse_diagram, leq, merge, parse_label, split)
from .strata import (BundleSpec, Manifold, StratumAnnotation, annotate,
                     orbit_types, stratification_graph, type_count)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "BundleSpec", "HasseDiagram", "HoweLabel",
    "LabelError", "Manifold", "StratumAnnotation", "TransitiveReductionError",
    "annotate", "canonicalize", "covering_relation", "cp2_solvable", "d_s2xs2",
    "d_s4", "descendants", "direct_successors", "dual", "enumerate_labels",
    "format_label", "gcd_seq", "hasse_diagram", "jones_solvable",
    "l_coefficients", "leq", "merge", "orbit_types", "parse_label",
    "quad_value", "reduced_k", "split", "stratification_graph", "type_count",
]
