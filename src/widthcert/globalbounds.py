"""Certified constant chains bounding any lattice-width maximizer among
hollow 3-bodies: width window, volume window, and volume caps for inscribed
empty lattice polytopes.

The covering minima, successive minima and volumes of a general body are
never computed here; they enter only as names in the derivation notes.  What
gets certified is every numeric inequality between the closed-form constants
those derivations produce, through rational interval enclosures.  Each
inequality is stated once, in `INEQUALITIES`; the reports and the replayed
chain are two views of that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactnum import (
    AlgExpr,
    QSqrt2,
    RatInterval,
    alg,
    cbrt,
    certify_less,
    interval_eval,
    sqrt,
)

DEFAULT_PRECISION = Fraction(1, 10**9)


# closed-form constants of the chains -------------------------------------------------

def width_record_expr() -> AlgExpr:
    """2 + sqrt2, the width of the known extremal tetrahedron."""
    return alg(QSqrt2(2, 1))


def planar_flatness_expr() -> AlgExpr:
    """1 + 2/sqrt3, the exact two-dimensional flatness constant."""
    return 1 + 2 / sqrt(3)


def flatness3_cap_expr() -> AlgExpr:
    """1 + 2/sqrt3 + 2*(3/4)^(1/3): no hollow 3-body can be wider."""
    return planar_flatness_expr() + 2 * cbrt(Fraction(3, 4))


def min_shrink_expr() -> AlgExpr:
    """1 - (1 + 2/sqrt3)/(2 + sqrt2): lower bound on the first successive
    minimum of the difference body of a maximizer."""
    return 1 - planar_flatness_expr() / width_record_expr()


# the inequality table --------------------------------------------------------------


@dataclass(frozen=True)
class Inequality:
    """One certified comparison `expression relation claimed`, named once as
    a step of the chain and (unless `report_name` is None) once as a report.
    `integer_cap`, when set, is the largest integer strictly below `claimed`
    that the quantity 6 vol(P) can take.  `verdict` is decided once per row:
    the chain and the report of a row share it."""

    chain_name: str
    statement: str
    expression: AlgExpr
    relation: str  # "<" or ">"
    claimed: Fraction | AlgExpr
    report_name: str | None = None
    note: str = ""
    integer_cap: int | None = None

    @cached_property
    def verdict(self) -> bool:
        if self.relation == "<":
            return certify_less(self.expression, self.claimed)
        if self.relation == ">":
            return certify_less(self.claimed, self.expression)
        raise ValueError(f"relation must be '<' or '>', got {self.relation!r}")


# Symbols: mu1..mu3 covering minima of a maximizer K, lam1..lam3 successive
# minima of K-K, w = width = 1/mu1.  Cited facts used as derivation rules
# (not re-proved here):
#   [C1] mu3 <= mu2 + lam1            (covering minima chain)
#   [C2] mu2 <= (1 + 2/sqrt3) mu1     (planar flatness, exact)
#   [C3] lam1^3 vol(K-K) <= 8         (symmetric-body volume bound)
#   [C4] vol((K-K)*) <= 8 mu1^3       (dual-body volume bound)
#   [C5] 8 vol(K) <= vol(K-K) <= 20 vol(K)
#   [C6] 32/3 <= vol(K-K) vol((K-K)*) (symmetric-body duality bound)
#   [C7] 1 <= mu3 for hollow K
#   [C8] w >= 2 + sqrt2 for a maximizer (witness tetrahedron)
INEQUALITIES = (
    # 1 <= (1 + 2/sqrt3) mu1 + lam1 from [C7], [C1], [C2];
    # with mu1 <= 1/(2+sqrt2) from [C8]: lam1 >= 1 - (1+2/sqrt3)/(2+sqrt2) > 0
    Inequality(
        "lam1_lower",
        "lam1 >= 1 - (1+2/sqrt3)/(2+sqrt2), and that constant is positive",
        min_shrink_expr(), ">", Fraction(0),
        "lam1_floor", "lam1(K-K) >= 1 - (1+2/sqrt3)/(2+sqrt2)",
    ),
    # 1 <= (1+2/sqrt3) mu1 + 2/vol(K-K)^(1/3) <= (1+2/sqrt3+2(3/4)^(1/3)) mu1
    # via [C3] then [C6]+[C4]: 4 <= 3 mu1^3 vol(K-K); hence w <= flatness cap
    Inequality(
        "width_cap",
        "w <= 1 + 2/sqrt3 + 2*(3/4)^(1/3) < 3.972",
        flatness3_cap_expr(), "<", Fraction("3.972"),
        "width_cap", "w(K) <= 1 + 2/sqrt3 + 2*(3/4)^(1/3)",
    ),
    # sanity: the record width sits strictly inside the proven window
    Inequality(
        "window_contains_record",
        "2 + sqrt2 < width cap",
        width_record_expr(), "<", flatness3_cap_expr(),
    ),
    Inequality(
        "record_above_floor",
        "3.414 < 2 + sqrt2",
        width_record_expr(), ">", Fraction("3.414"),
        "width_floor", "w(K) >= 2 + sqrt2 via the record tetrahedron",
    ),
    # vol(K) >= vol(K-K)/20 >= (4/(3 mu1^3))/20 = w^3/15 >= (2+sqrt2)^3/15 > 2.653
    Inequality(
        "volume_floor",
        "vol(K) >= (2+sqrt2)^3/15 > 2.653",
        width_record_expr()**3 / 15, ">", Fraction("2.653"),
        "volume_floor", "vol(K) >= (2+sqrt2)^3/15 = (20+14*sqrt2)/15",
    ),
    # vol(K) <= vol(K-K)/8 <= 1/lam1^3 <= 1/shrink^3 < 19.919
    Inequality(
        "volume_cap",
        "vol(K) <= 1/lam1^3 < 19.919",
        1 / min_shrink_expr()**3, "<", Fraction("19.919"),
        "volume_cap", "vol(K) <= 1/lam1(K-K)^3",
    ),
    # inscribed empty 3-polytope P: lam3(P-P) = 1 (width-one slab), so
    # vol(P-P) <= 8/lam1^2 and vol(P) <= 1/lam1(K-K)^2; 6 vol(P) integer
    Inequality(
        "inscribed_general",
        "6 vol(P) <= 6/lam1^2 < 45, so vol(P) <= 44/6 = 22/3",
        6 / min_shrink_expr()**2, "<", Fraction(45),
        "inscribed_general", "6 vol(P) <= 6/lam1^2; integer below 45 is at most 44",
        integer_cap=44,
    ),
    # tetrahedron case: vol(P-P) = 20 vol(P), so vol(P) <= 8/(20 lam1^2)
    Inequality(
        "inscribed_tetrahedron",
        "6 vol(P) <= 6*0.4/lam1^2 < 18, so vol(P) <= 17/6",
        6 * Fraction(2, 5) / min_shrink_expr()**2, "<", Fraction(18),
        "inscribed_tetrahedron", "6 vol(P) <= 2.4/lam1^2; integer below 18 is at most 17",
        integer_cap=17,
    ),
)

#: order of `all_reports`: the width window, lam1, the volume window, the
#: inscribed caps
_REPORT_ORDER = ("width_floor", "width_cap", "lam1_floor", "volume_floor", "volume_cap",
                 "inscribed_general", "inscribed_tetrahedron")


# the chain, replayed step by step ---------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    name: str
    statement: str
    certified: bool


def replay_inequality_chain() -> list[ChainStep]:
    """Re-derive the width/volume window for a maximizer K, certifying every
    numeric comparison along the way (the derivation is annotated on
    `INEQUALITIES`)."""
    return [ChainStep(row.chain_name, row.statement, row.verdict)
            for row in INEQUALITIES]


# the reports -----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    name: str
    expression: AlgExpr
    enclosure: RatInterval
    claimed: Fraction
    relation: str  # "<" or ">"
    verdict: bool
    note: str = ""


def _report(row: Inequality, precision: Fraction) -> BoundReport:
    rep = BoundReport(name=row.report_name, expression=row.expression,
                      enclosure=interval_eval(row.expression, precision),
                      claimed=Fraction(row.claimed), relation=row.relation,
                      verdict=row.verdict, note=row.note)
    if row.integer_cap is not None:
        if not rep.verdict:
            raise AssertionError(f"certification failed for {rep.name}")
        if not rep.enclosure.hi < rep.claimed:
            raise AssertionError(f"enclosure of {rep.name} does not clear its integer cap")
    return rep


def all_reports(precision: Fraction = DEFAULT_PRECISION) -> list[BoundReport]:
    """Width window (above 3.414, below 3.972), a positive floor on lam1, the
    volume window, and the inscribed volume caps, in that order."""
    rows = {row.report_name: row for row in INEQUALITIES}
    return [_report(rows[name], precision) for name in _REPORT_ORDER]


@dataclass(frozen=True)
class InscribedBound:
    report: BoundReport
    integer_cap: int
    volume_cap: Fraction


def inscribed_volume_bounds(precision: Fraction = DEFAULT_PRECISION) -> list[InscribedBound]:
    """Volume caps for an inscribed empty 3-polytope P, via the integrality
    of 6 vol(P): the general cap 22/3 and the tetrahedron cap 17/6."""
    return [InscribedBound(_report(row, precision), row.integer_cap,
                           Fraction(row.integer_cap, 6))
            for row in INEQUALITIES if row.integer_cap is not None]
