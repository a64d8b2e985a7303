"""Exact invariants of finite directed graphs and their towers.

The package computes, in exact integer/rational arithmetic: graph
classification and products, admissible embeddings, the path-algebra
(Leavitt-style) relations and normal forms, tower (Bratteli) data, K0
presentations with their canonical classes and recursions, the shift
matrix, and Picard groups of finite-dimensional algebras.  See the
``afcore`` command-line tool or the README for a tour.
"""

from .errors import (
    ArtifactError,
    CertificateError,
    GuardError,
    MorphismError,
    NotUnimodular,
    ParseError,
    SinkError,
    SourceError,
)
from .graphs import (
    Edge,
    Graph,
    GraphReport,
    adjacency,
    classify,
    directed_cycle_count,
    directed_walks,
    parse_graph,
    serialize_graph,
    transpose,
)
from .linalg import Matrix
from .ops import (
    AdmissibilityVerdict,
    Morphism,
    check_morphism,
    compose,
    diagonal_embedding,
    enumerate_admissible_embeddings,
    hereditary_saturated,
    identity_morphism,
    line_graph,
    parse_morphism_document,
    product,
    quotient_graph,
    vertical_embedding,
)
from .report import CheckItem, CheckReport

__version__ = "0.1.0"

__all__ = [
    "ArtifactError",
    "CertificateError",
    "GuardError",
    "MorphismError",
    "NotUnimodular",
    "ParseError",
    "SinkError",
    "SourceError",
    "Edge",
    "Graph",
    "GraphReport",
    "adjacency",
    "classify",
    "directed_cycle_count",
    "directed_walks",
    "parse_graph",
    "serialize_graph",
    "transpose",
    "Matrix",
    "AdmissibilityVerdict",
    "Morphism",
    "check_morphism",
    "compose",
    "diagonal_embedding",
    "enumerate_admissible_embeddings",
    "hereditary_saturated",
    "identity_morphism",
    "line_graph",
    "parse_morphism_document",
    "product",
    "quotient_graph",
    "vertical_embedding",
    "CheckItem",
    "CheckReport",
    "__version__",
]
