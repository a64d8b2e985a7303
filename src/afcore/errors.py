"""Typed exceptions shared across the package.

Every error raised deliberately by this package derives from
:class:`ArtifactError`, so callers can catch one base class.  Plain
``ValueError`` is still used for petty argument mistakes (unknown vertex
name, length mismatch) where a dedicated class would add nothing.
"""

from __future__ import annotations


class ArtifactError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ArtifactError):
    """A graph, morphism, or expression document is malformed.

    ``line`` carries the 1-based source line when the input is
    line-oriented; expression parsing reports a character position in the
    message instead.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotUnimodular(ArtifactError):
    """An integer matrix inverse was requested but the determinant is not +-1."""

    def __init__(self, det: int, what: str = "matrix"):
        super().__init__(f"{what} is not unimodular (det = {det})")
        self.det = det


class CertificateError(ArtifactError):
    """An exact self-check on a computed result failed (an internal fault)."""


class SinkError(ArtifactError):
    """An operation needed to expand at a vertex that emits no edges."""


class SourceError(ArtifactError):
    """An operation needed an incoming edge at a vertex that receives none."""


class MorphismError(ArtifactError):
    """A graph morphism is structurally invalid (totality or commutation fails)."""


class GuardError(ArtifactError):
    """An enumeration or search exceeded its configured size guard."""
