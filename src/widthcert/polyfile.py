"""Structured text format for polytopes and affine lattices.

Scalars are written exactly, never as floating point: ``p``, ``p/q``,
``r/s*sqrt2``, or ``p/q + r/s*sqrt2`` (also with ``-``), where ``r/s*`` may
be left out and the whole may carry one leading sign.  Spaces may surround
the operators; anything else is an error.  Coordinates on a line are
comma-separated.  Layout::

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


# the docstring's forms; {q} is an unsigned p or p/q
_SCALAR = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<rat>{q})(?:\s*(?P<op>[+-])\s*(?P<irr>{q}\s*\*\s*)?sqrt2)?"
    r"|(?P<lone>{q}\s*\*\s*)?sqrt2)".format(q=r"\d+(?:\s*/\s*\d+)?"))


def _rational(tok: str | None, line: int | None) -> Fraction:
    if tok is None:
        return Fraction(1)
    tok = re.sub(r"[\s*]", "", tok)
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise PolytopeFileError(f"zero denominator in {tok!r}", line) from None
    except ValueError as err:  # more digits than int() converts
        raise PolytopeFileError(str(err), line) from None


def parse_scalar(text: str, line: int | None = None) -> QSqrt2:
    """Parse one exact scalar: rational part and/or sqrt2 multiple."""
    s = text.strip()
    if not s:
        raise PolytopeFileError("empty scalar", line)
    if "." in s or "e" in s.lower():
        raise PolytopeFileError(f"floating-point literal not allowed: {s!r}", line)
    m = _SCALAR.fullmatch(s)
    if m is None:
        raise PolytopeFileError(f"invalid scalar {s!r}: expected p/q + r/s*sqrt2 or a part of it",
                                line)
    sign = -1 if m["sign"] == "-" else 1
    if m["rat"] is None:
        return QSqrt2(0, sign * _rational(m["lone"], line))
    irr = Fraction(0)
    if m["op"]:
        irr = (-1 if m["op"] == "-" else 1) * _rational(m["irr"], line)
    return QSqrt2(sign * _rational(m["rat"], line), irr)


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
    if basis and len(basis) != 3:
        raise PolytopeFileError(f"lattice basis needs 3 vectors, got {len(basis)}")
    try:
        lattice = AffineLattice(origin, basis) if basis else AffineLattice.standard()
        polytope = Polytope(vertices)
    except ValueError as err:
        raise PolytopeFileError(str(err)) from err
    return polytope, lattice

