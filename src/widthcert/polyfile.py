"""Structured text format for polytopes and affine lattices.

Scalars are written exactly, never as floating point: ``p``, ``p/q``,
``r/s*sqrt2``, or ``p/q + r/s*sqrt2`` (also with ``-``).  Coordinates on a
line are comma-separated.  Layout::

    # comments and blank lines are ignored
    vertices:
    2 + 1*sqrt2, 1*sqrt2, 2 + 1*sqrt2
    ...
    lattice origin:
    -1, -1, -1
    lattice basis:
    0, 2, 2
    2, 0, 2
    2, 2, 0

The lattice block is optional; without it the standard integer lattice is
used.  Decimal literals are rejected so inputs stay unambiguous.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactnum import QSqrt2
from .widthlab import AffineLattice, Polytope


class PolytopeFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_rational(tok: str, line: int | None = None) -> Fraction:
    tok = tok.strip()
    if "." in tok or "e" in tok.lower():
        raise PolytopeFileError(f"floating-point literal not allowed: {tok!r}", line)
    if not _RATIONAL.match(tok):
        raise PolytopeFileError(f"invalid rational literal: {tok!r}", line)
    return Fraction(tok)


def parse_scalar(text: str, line: int | None = None) -> QSqrt2:
    """Parse one exact scalar: rational part and/or sqrt2 multiple."""
    s = text.strip()
    if not s:
        raise PolytopeFileError("empty scalar", line)
    # split into signed terms at top level
    terms = re.findall(r"[+-]?[^+-]+", s.replace(" ", ""))
    rat = Fraction(0)
    irr = Fraction(0)
    seen_rat = seen_irr = False
    for term in terms:
        if not term:
            continue
        if "sqrt2" in term:
            if seen_irr:
                raise PolytopeFileError(f"repeated sqrt2 term in {text!r}", line)
            seen_irr = True
            coeff = term.replace("sqrt2", "")
            coeff = coeff.rstrip("*")
            if coeff in ("", "+"):
                irr = Fraction(1)
            elif coeff == "-":
                irr = Fraction(-1)
            else:
                irr = _parse_rational(coeff, line)
        else:
            if seen_rat:
                raise PolytopeFileError(f"repeated rational term in {text!r}", line)
            seen_rat = True
            rat = _parse_rational(term, line)
    return QSqrt2(rat, irr)


def format_scalar(x: QSqrt2) -> str:
    return str(x)


def _parse_vector(text: str, line: int) -> tuple[QSqrt2, QSqrt2, QSqrt2]:
    parts = text.split(",")
    if len(parts) != 3:
        raise PolytopeFileError(f"expected 3 comma-separated coordinates, got {len(parts)}", line)
    return tuple(parse_scalar(p, line) for p in parts)  # type: ignore[return-value]


def parse_polytope_file(text: str) -> tuple[Polytope, AffineLattice]:
    section = None
    vertices = []
    origin = None
    basis = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lowered = stripped.lower().rstrip(":")
        if lowered == "vertices":
            section = "vertices"
            continue
        if lowered == "lattice origin":
            section = "origin"
            continue
        if lowered == "lattice basis":
            section = "basis"
            continue
        if section is None:
            raise PolytopeFileError(f"content before any section header: {stripped!r}", lineno)
        if section == "vertices":
            vertices.append(_parse_vector(stripped, lineno))
        elif section == "origin":
            if origin is not None:
                raise PolytopeFileError("repeated lattice origin", lineno)
            origin = _parse_vector(stripped, lineno)
        else:
            basis.append(_parse_vector(stripped, lineno))
    if not vertices:
        raise PolytopeFileError("no vertices section")
    if (origin is None) != (not basis):
        raise PolytopeFileError("lattice origin and lattice basis must appear together")
    if origin is None:
        lattice = AffineLattice.standard()
    else:
        if len(basis) != 3:
            raise PolytopeFileError(f"lattice basis needs 3 vectors, got {len(basis)}")
        lattice = AffineLattice(origin, basis)
    try:
        polytope = Polytope(vertices)
    except ValueError as err:
        raise PolytopeFileError(str(err)) from err
    return polytope, lattice

