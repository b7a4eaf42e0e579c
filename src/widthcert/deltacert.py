"""Certification pipeline for the extremal hollow tetrahedron.

The model: a tetrahedron with vertex coordinates in Q(sqrt2), hollow for an
affine lattice spanned by one lattice point per facet, attaining lattice
width 2 + sqrt2 in seven dual directions at once.  Moving the four facet
points by a perturbation vector t (eight free coordinates after the facet
coplanarity constraints) moves the lattice; the pipeline certifies that the
width of the tetrahedron strictly drops for every small nonzero t, and
produces an explicit neighborhood radius in symmetry-adapted coordinates.

Everything here is exact.  The only approximate-looking outputs are the
certified rational lower bounds of radii, which are one-sided by
construction; displayed 5-decimal figures are rounded separately and are
presentation only.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from .exactnum import QS2_ONE, QS2_ZERO, QSqrt2, SQRT2
from .exactlinalg import (
    PolyMatrix,
    QMatrix,
    adjugate_poly,
    det_field,
    det_poly,
    inverse_field,
    is_negative_definite,
    kernel_basis,
    rank,
    restrict_quadratic_form,
    spans_same_space,
)
from .mvpoly import (
    LinearSubstitution,
    MvPoly,
    cauchy_companion,
    companion_root_enclosure,
    linear_combination,
)
from .widthlab import (
    AffineLattice,
    HollownessResult,
    Polytope,
    WidthResult,
    barycentric_coordinates,
    dual_functional,
    dual_lattice,
    facet_hyperplanes,
    hollow_check,
    lattice_width,
)

NVARS = 8
WIDTH_VALUE = QSqrt2(2, 1)  # the width being defended: 2 + sqrt2


class CertificationError(AssertionError):
    """A structural check of the model failed (implementation bug signal)."""


class IndefiniteWeightError(ValueError):
    """The aggregate Hessian is not negative definite at 0 for this weight c."""


# ---------------------------------------------------------------------------
# fixed model data
# ---------------------------------------------------------------------------

_A_VERTICES = (
    (QSqrt2(2, 1), QSqrt2(0, 1), QSqrt2(2, 1)),
    (QSqrt2(0, -1), QSqrt2(2, 1), QSqrt2(-2, -1)),
    (QSqrt2(-2, -1), QSqrt2(0, -1), QSqrt2(2, 1)),
    (QSqrt2(0, 1), QSqrt2(-2, -1), QSqrt2(-2, -1)),
)

_FACET_POINTS = (
    (-1, -1, -1),
    (1, -1, 1),
    (1, 1, -1),
    (-1, 1, 1),
)

#: integer dual-basis coefficient vectors of the seven width-attaining
#: directions (with respect to the lattice basis built from the facet points)
_DUAL_INT_VECTORS = (
    (1, 1, 1),
    (1, 0, 0),
    (0, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (1, 0, 1),
    (1, 1, 0),
)

#: index pairs (i, j) with difference-body vertex a_i - a_j attaining the
#: width for the first six directions; the seventh direction ties at two
#: vertex pairs and is excluded from the perturbation analysis (no loss of
#: generality: its width stays >= the minimum of the others near t = 0)
_ATTAINMENT_PAIRS = ((0, 3), (2, 3), (1, 2), (0, 1), (0, 2), (1, 3))

_MULTIPLIERS = (QS2_ONE, QS2_ONE, QS2_ONE, QS2_ONE, SQRT2, SQRT2)


class DeltaModel(NamedTuple):
    """Fixed data of the extremal configuration."""

    vertices: tuple
    facet_points: tuple
    dual_int_vectors: tuple
    attainment_diffs: tuple
    multipliers: tuple
    lattice: AffineLattice
    polytope: Polytope


def build_delta_model(check: bool = True) -> DeltaModel:
    """Construct the model constants and (by default) verify every structural
    invariant with `check_model`."""
    a = tuple(tuple(QSqrt2.coerce(x) for x in v) for v in _A_VERTICES)
    p = tuple(tuple(QSqrt2.coerce(x) for x in v) for v in _FACET_POINTS)
    basis = tuple(
        tuple(p[j][k] - p[0][k] for k in range(3)) for j in (3, 1, 2)
    )
    lattice = AffineLattice(p[0], basis)
    poly = Polytope(a)
    diffs = tuple(
        tuple(a[i][k] - a[j][k] for k in range(3)) for i, j in _ATTAINMENT_PAIRS
    )
    model = DeltaModel(
        vertices=a,
        facet_points=p,
        dual_int_vectors=_DUAL_INT_VECTORS,
        attainment_diffs=diffs,
        multipliers=_MULTIPLIERS,
        lattice=lattice,
        polytope=poly,
    )
    if check:
        check_model(model)
    return model


class ModelCheck(NamedTuple):
    """What `check_model` verified; `barycentric[i]` holds facet point i's.
    `ring` and `h_polys` are the perturbation model it checked them on."""

    width: WidthResult
    hollowness: HollownessResult
    barycentric: tuple
    ring: PerturbationRing
    h_polys: list[MvPoly]


def check_model(model: DeltaModel) -> ModelCheck:
    """Verify facet incidences, hollowness, the exact width with exactly
    seven attaining directions, their match with the dual-basis vectors, and
    the multiplier dependence of the gradients (`CertificationError` if not)."""
    # each facet point lies strictly inside the facet opposite the same-index vertex
    facets = facet_hyperplanes(model.polytope)
    rows = []
    for i in range(4):
        if facets[i](model.facet_points[i]).sign() != 0:
            raise CertificationError(f"facet point {i} is off its facet plane")
        bary = barycentric_coordinates(model.facet_points[i], model.polytope)
        if bary[i].sign() != 0:
            raise CertificationError(f"facet point {i} has nonzero coordinate on its vertex")
        if any(bary[j].sign() <= 0 for j in range(4) if j != i):
            raise CertificationError(f"facet point {i} is not interior to its facet")
        rows.append(bary)

    hollowness = hollow_check(model.polytope, model.lattice)
    if not hollowness.hollow:
        raise CertificationError(f"model polytope is not hollow: witness {hollowness.witness}")

    wr = lattice_width(model.polytope, model.lattice)
    if wr.width != WIDTH_VALUE:
        raise CertificationError(f"lattice width is {wr.width}, expected {WIDTH_VALUE}")
    if len(wr.minimizers) != 7:
        raise CertificationError(f"expected 7 width minimizers, got {len(wr.minimizers)}")
    duals = dual_lattice(model.lattice)
    expected = {dual_functional(duals, u).canonical_sign() for u in model.dual_int_vectors}
    if set(wr.minimizers) != expected:
        raise CertificationError("width minimizers do not match the dual-basis vectors")

    ring = PerturbationRing(model)
    h_polys = build_h_polys(ring, model)
    if not check_dependence([hp.gradient_at_zero() for hp in h_polys], model.multipliers):
        raise CertificationError(
            "multiplier combination of gradients is not zero, or their rank is not 5")
    return ModelCheck(width=wr, hollowness=hollowness, barycentric=tuple(rows),
                      ring=ring, h_polys=h_polys)


# ---------------------------------------------------------------------------
# perturbation polynomials
# ---------------------------------------------------------------------------


class PerturbationRing:
    """Polynomial model of the perturbed lattice basis.

    Free variables (t_11, t_12, t_21, t_22, t_31, t_32, t_41, t_42): the
    first two displacement coordinates of each facet point.  The third
    coordinates are eliminated by keeping each moved point on its facet
    plane; the elimination forms are derived from the facet normals.
    """

    def __init__(self, model: DeltaModel):
        self.model = model
        facets = facet_hyperplanes(model.polytope)
        self.elimination: list[MvPoly] = []
        for i in range(4):
            n = facets[i].normal
            if not n[2]:
                raise CertificationError("facet normal has zero third coordinate")
            inv = -n[2].inverse()
            self.elimination.append(linear_combination(
                NVARS, ((n[k] * inv, MvPoly.variable(2 * i + k, NVARS)) for k in range(2))))
        points = [self.perturbed_point(i) for i in range(4)]
        rows = []
        for j in (3, 1, 2):
            rows.append([points[j][k] - points[0][k] for k in range(3)])
        self.matrix = PolyMatrix(rows)
        if self.matrix.evaluate([QS2_ZERO] * NVARS) != model.lattice.basis_matrix():
            raise CertificationError("perturbation matrix does not restrict to the lattice basis")
        self.adjugate = adjugate_poly(self.matrix)
        # row-0 cofactor expansion; adj[j, 0] is the (0, j) cofactor
        self.det = sum((self.matrix[0, j] * self.adjugate[j, 0] for j in range(3)),
                       MvPoly.zero(NVARS))

    def perturbed_point(self, i: int) -> list[MvPoly]:
        base = self.model.facet_points[i]
        return [
            MvPoly.constant(base[0], NVARS) + MvPoly.variable(2 * i, NVARS),
            MvPoly.constant(base[1], NVARS) + MvPoly.variable(2 * i + 1, NVARS),
            MvPoly.constant(base[2], NVARS) + self.elimination[i],
        ]


def build_h_polys(ring: PerturbationRing, model: DeltaModel) -> list[MvPoly]:
    """The six degree-3 deficit polynomials: directional width times the
    basis determinant, shifted so the value at t = 0 is zero.  Positivity of
    h_i near 0 is equivalent to direction i still giving width >= 2+sqrt2."""
    out = []
    for idx in range(6):
        adj_u = _times_vector(ring.adjugate, model.dual_int_vectors[idx])
        h = linear_combination(NVARS, [*zip(model.attainment_diffs[idx], adj_u),
                                       (-WIDTH_VALUE, ring.det)])
        if h.constant_term():
            raise CertificationError(f"deficit polynomial {idx} does not vanish at 0")
        if h.degree() != 3:
            raise CertificationError(f"deficit polynomial {idx} has degree {h.degree()}")
        out.append(h)
    return out


def _times_vector(adj: PolyMatrix, u) -> list[MvPoly]:
    """adj . u for a constant vector u; v . adj . u is then the linear
    combination of these entries with the v_r."""
    return [linear_combination(adj.nvars, zip(u, row)) for row in adj.rows]


def check_dependence(grads: list[list[QSqrt2]], multipliers) -> bool:
    """Exact test that the multiplier combination of the gradients vanishes
    and that the gradients span a rank-5 space."""
    combo = QMatrix(grads).transpose().apply(multipliers)
    return not any(combo) and rank(grads) == 5


#: the six gradient vectors of the deficit polynomials at 0, pinned as
#: published: row i is (integer part vector, sqrt2 part vector) with the
#: scale factors (4, 2) for the first four rows and (8, 8) for the last two
_GRADIENT_TABLE = (
    (4, (-1, 1, -1, -2, 0, 0, -2, 1), 2, (-2, 0, 1, -1, 0, 0, -3, 1)),
    (4, (-2, 1, 0, 0, 1, 2, 1, 1), 2, (-1, -1, 0, 0, 1, 3, 0, 2)),
    (4, (0, 0, 2, -1, 1, -1, 1, 2), 2, (0, 0, 3, -1, 2, 0, -1, 1)),
    (4, (-1, -2, -1, -1, 2, -1, 0, 0), 2, (-1, -3, 0, -2, 1, 1, 0, 0)),
    (8, (1, 0, -1, 0, -1, 0, 1, 0), 8, (1, 0, 0, 0, -1, 0, 0, 0)),
    (8, (0, 1, 0, 1, 0, -1, 0, -1), 8, (0, 0, 0, 1, 0, 0, 0, -1)),
)


def expected_gradients() -> list[list[QSqrt2]]:
    """The pinned gradient table as exact vectors."""
    out = []
    for s_rat, rat, s_irr, irr in _GRADIENT_TABLE:
        out.append([QSqrt2(s_rat * a, s_irr * b) for a, b in zip(rat, irr)])
    return out


#: kernel parametrization of the common null space of the six gradients,
#: pinned as published; the computed kernel must span the same space
KERNEL_PARAMETRIZATION = (
    (QS2_ONE, QS2_ZERO, QS2_ZERO, QS2_ZERO,
     QSqrt2(0, Fraction(1, 2)), QSqrt2(0, Fraction(1, 2)),
     QSqrt2(0, Fraction(-1, 2)), QSqrt2(-1, Fraction(1, 2))),
    (QS2_ZERO, QS2_ONE, QS2_ZERO, QSqrt2(0, -1),
     QSqrt2(1, Fraction(-1, 2)), QSqrt2(1, Fraction(-1, 2)),
     QSqrt2(0, Fraction(1, 2)), QSqrt2(1, Fraction(-3, 2))),
    (QS2_ZERO, QS2_ZERO, QS2_ONE, QSqrt2(-1),
     QSqrt2(1, -1), QS2_ONE, QS2_ZERO, QSqrt2(0, -1)),
)


class LocalCertificate(NamedTuple):
    c: Fraction
    gradients_match_published: bool
    dependence_ok: bool
    gradient_rank: int
    kernel_dim: int
    kernel_matches: bool
    restricted_hessian: QMatrix
    restricted_negative_definite: bool
    full_hessian_negative_definite: bool

    @property
    def verdict(self) -> bool:
        return (
            self.gradients_match_published
            and self.dependence_ok
            and self.gradient_rank == 5
            and self.kernel_dim == 3
            and self.kernel_matches
            and self.restricted_negative_definite
            and self.full_hessian_negative_definite
        )


def local_maximality_certificate(c: Fraction) -> LocalCertificate:
    """Second-order certificate that t = 0 is an isolated solution of the
    six deficit inequalities.

    The quadratic form restricted to the gradients' kernel is normalized by
    the unperturbed basis determinant, which rescales the deficit polynomials
    back to actual width differences (their multiplier combination has no
    linear part, so the normalization is exactly that constant).

    Only `full_hessian_negative_definite` depends on c: it tests c*A0 + B0
    (`Pipeline.hessian_at_zero`).  The other fields are the pipeline's
    `local_parts`, computed once.
    """
    pl = get_pipeline()
    full_h = pl.hessian_at_zero(c)
    return LocalCertificate(c=Fraction(c), **pl.local_parts,
                            full_hessian_negative_definite=is_negative_definite(full_h))


# ---------------------------------------------------------------------------
# symmetry-adapted coordinates
# ---------------------------------------------------------------------------


class SCoords:
    """The 8x8 change to the symmetry-adapted facet coordinates
    (s^h_1, s^v_1, ..., s^h_4, s^v_4) and its exact inverse.

    Per facet, s^v is the barycentric coordinate of the moved point along the
    facet's middle vertex and s^h the difference of the two outer ones, so an
    L_infty ball in s is a direct product of squares drawn on the facets.
    """

    def __init__(self):
        quarter = Fraction(1, 4)
        r2m1 = QSqrt2(-1, 1)   # sqrt2 - 1
        onemr2 = QSqrt2(1, -1)  # 1 - sqrt2
        one = QS2_ONE
        neg = -QS2_ONE
        zero = QS2_ZERO
        blocks = (
            ((r2m1, neg), (neg, onemr2)),
            ((one, r2m1), (r2m1, neg)),
            ((onemr2, one), (one, r2m1)),
            ((neg, onemr2), (onemr2, one)),
        )
        rows = []
        for bi, block in enumerate(blocks):
            for r in range(2):
                row = [zero] * NVARS
                for cc in range(2):
                    row[2 * bi + cc] = block[r][cc] * quarter
                rows.append(row)
        self.s_from_t = QMatrix(rows)
        self.t_from_s = inverse_field(self.s_from_t)
        self._t_of_s = LinearSubstitution(self.t_from_s.rows)

    def to_s(self, p: MvPoly) -> MvPoly:
        """Rewrite a polynomial in t as a polynomial in s (substitute t = T s).

        Every call goes through one `LinearSubstitution`, so the s-image of
        each monomial is expanded once for all the polynomials rewritten here:
        the pipeline's linear parts, adjugate and Hessian entries."""
        return p.substitute_linear(self._t_of_s)


class SymmetryCheck(NamedTuple):
    vertex_cycle_ok: bool
    facet_point_cycle_ok: bool
    elimination_equivariant: bool
    s_shift_is_pair_rotation: bool

    @property
    def verdict(self) -> bool:
        return (
            self.vertex_cycle_ok
            and self.facet_point_cycle_ok
            and self.elimination_equivariant
            and self.s_shift_is_pair_rotation
        )


def _rotary_reflection(v):
    """Order-4 symmetry of the configuration: (x, y, z) -> (-y, x, -z)."""
    return (-v[1], v[0], -v[2])


def symmetry_check() -> SymmetryCheck:
    """Verify the order-4 symmetry: vertices and facet points advance
    cyclically, the facet-plane eliminations are equivariant, and the induced
    map on s-coordinates is the cyclic shift of the four (s^h, s^v) pairs
    (a shift by two places in the flat coordinate vector)."""
    pl = get_pipeline()
    model = pl.model
    vertex_ok = all(
        _rotary_reflection(model.vertices[i]) == model.vertices[(i + 1) % 4]
        for i in range(4)
    )
    point_ok = all(
        _rotary_reflection(model.facet_points[i]) == model.facet_points[(i + 1) % 4]
        for i in range(4)
    )

    # induced action on the free displacement coordinates:
    # block i+1 of the image is (-t_i2, t_i1)
    perm = [[QS2_ZERO] * NVARS for _ in range(NVARS)]
    for i in range(4):
        j = (i + 1) % 4
        perm[2 * j][2 * i + 1] = -QS2_ONE
        perm[2 * j + 1][2 * i] = QS2_ONE
    P = QMatrix(perm)

    # eliminations must transform like the third coordinate: z -> -z
    elim_ok = True
    for i in range(4):
        j = (i + 1) % 4
        image = pl.ring.elimination[j].substitute_linear(P.rows)
        if image != -pl.ring.elimination[i]:
            elim_ok = False

    # conjugate to s coordinates and compare to the pair shift
    PS = pl.scoords.s_from_t.matmul(P).matmul(pl.scoords.t_from_s)
    shift = [[QS2_ZERO] * NVARS for _ in range(NVARS)]
    for i in range(4):
        j = (i + 1) % 4
        shift[2 * j][2 * i] = QS2_ONE
        shift[2 * j + 1][2 * i + 1] = QS2_ONE
    shift_ok = PS == QMatrix(shift)

    return SymmetryCheck(
        vertex_cycle_ok=vertex_ok,
        facet_point_cycle_ok=point_ok,
        elimination_equivariant=elim_ok,
        s_shift_is_pair_rotation=shift_ok,
    )


# ---------------------------------------------------------------------------
# pipeline cache
# ---------------------------------------------------------------------------


class Pipeline:
    """What the conditions share and the weight c does not change, built on
    a model that `check_model` has verified.

    Built at once: the model, the ring, the deficit polynomials h_i, the
    s-coordinates, the linear parts l_i of lam_i * h_i in s, the adjugate in
    s, and the constant Hessians in t at 0, A0 = Hess(sum q_i) and
    B0 = -Hess(sum l_i^2), with q_i the quadratic part of lam_i * h_i.  The
    aggregate sum((c - l_i) * lam_i * h_i) has quadratic part
    c * sum q_i - sum l_i^2, so its Hessian at 0 is c*A0 + B0
    (`hessian_at_zero`).

    Built lazily on first use, then kept: `local_parts`, the weight-free
    parts of (iv)'s matrix as `hessian_parts`, and through their
    module-level functions `symmetry`, condition (i) as `orientation` and
    condition (iii) per tolerance as `attainment(tol)`.  Those functions
    read the installed pipeline (`get_pipeline`), so the lazy members are
    meant for that one.  A run of (iv) alone pays for `hessian_parts` only;
    a sweep pays for each once.
    """

    def __init__(self):
        self.model = build_delta_model(check=False)
        checked = check_model(self.model)
        self.ring = checked.ring
        self.h_polys = checked.h_polys
        self.scoords = SCoords()
        weights = list(zip(self.model.multipliers, self.h_polys))
        linear = [h.graded_part(1).scale(lam) for lam, h in weights]
        self.linear_s = [self.scoords.to_s(l) for l in linear]
        self.adjugate_s = self.ring.adjugate.map_entries(self.scoords.to_s)
        origin = [QS2_ZERO] * NVARS
        q_sum = linear_combination(NVARS, ((lam, h.graded_part(2)) for lam, h in weights))
        minus_l_square = linear_combination(NVARS, ((-1, l * l) for l in linear))
        self.a0 = PolyMatrix(q_sum.hessian()).evaluate(origin)
        self.b0 = PolyMatrix(minus_l_square.hessian()).evaluate(origin)
        self._attainment: dict[Fraction, RadiusBound] = {}

    def hessian_at_zero(self, c: Fraction) -> QMatrix:
        """c*A0 + B0, the aggregate's Hessian at 0 for the weight c > 0."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("aggregate weight c must be positive")
        return QMatrix([[a * c + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.a0.rows, self.b0.rows)])

    @cached_property
    def local_parts(self) -> dict:
        """The weight-free fields of `LocalCertificate`: the gradients against
        the published table, their dependence, rank and kernel, and the form
        A0 / det M(0) restricted to `KERNEL_PARAMETRIZATION`."""
        grads = [h.gradient_at_zero() for h in self.h_polys]
        kern = kernel_basis(grads)
        inv_det0 = det_field(self.model.lattice.basis_matrix()).inverse()
        restricted = restrict_quadratic_form(
            QMatrix([[x * inv_det0 for x in row] for row in self.a0.rows]),
            KERNEL_PARAMETRIZATION)
        return {
            "gradients_match_published": grads == expected_gradients(),
            "dependence_ok": check_dependence(grads, self.model.multipliers),
            "gradient_rank": rank(grads),
            "kernel_dim": len(kern),
            "kernel_matches": spans_same_space(kern, KERNEL_PARAMETRIZATION),
            "restricted_hessian": restricted,
            "restricted_negative_definite": is_negative_definite(restricted),
        }

    @cached_property
    def hessian_parts(self) -> tuple[PolyMatrix, PolyMatrix]:
        """(A(s), B(s)) with c*A(s) + B(s) the Hessian in t, rewritten in
        s, of the aggregate sum((c - l_i) * lam_i * h_i) for every weight c:
        the Hessians of sum lam_i * h_i and of -sum l_i * lam_i * h_i.  The
        aggregate's gradient at 0 vanishes for every c because it vanishes
        for both parts, which is checked here.

        Each part f is differentiated in t (`MvPoly.hessian`, one `partial`
        per mixed pair), and each of the 36 distinct entries is rewritten in
        s through `SCoords.to_s`.  With t = T s, the chain rule gives
        H_t(f)(T s) = S^T H_s(f o T) S for S = T^-1, so these are the
        entries of the congruence of the Hessian in s of the rewritten part,
        without rewriting the part itself."""
        # l_i * lam_i * h_i = lam_i^2 * (linear part of h_i) * h_i
        weights = list(zip(self.model.multipliers, self.h_polys))
        parts = (linear_combination(NVARS, weights),
                 linear_combination(NVARS, ((-lam * lam, h.graded_part(1) * h)
                                            for lam, h in weights)))
        if any(x for part in parts for x in part.gradient_at_zero()):
            raise CertificationError("aggregate gradient at 0 is not zero")

        hessians = [part.hessian() for part in parts]
        return tuple(_symmetric_matrix(lambda i, j: self.scoords.to_s(h[i][j])) for h in hessians)

    @cached_property
    def symmetry(self) -> SymmetryCheck:
        return symmetry_check()

    @cached_property
    def orientation(self) -> RadiusBound:
        return det_orientation_bound()

    def attainment(self, tol: Fraction) -> RadiusBound:
        tol = Fraction(tol)
        if tol not in self._attainment:
            self._attainment[tol] = attainment_bound(tol)
        return self._attainment[tol]


_PIPELINE: Pipeline | None = None


def get_pipeline() -> Pipeline:
    global _PIPELINE
    if _PIPELINE is None:
        _PIPELINE = Pipeline()
    return _PIPELINE


# ---------------------------------------------------------------------------
# decimal formatting (exact integer arithmetic; no floats)
# ---------------------------------------------------------------------------


def format_decimals(x: Fraction, places: int = 5) -> str:
    """Fixed-point decimal string of a rational, rounded half away from zero."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**places
    n = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    digits = str(n).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def truncate_rational(x: Fraction, places: int = 7) -> Fraction:
    """Largest multiple of 10^-places that is <= x (for x >= 0)."""
    scale = 10**places
    return Fraction((x.numerator * scale) // x.denominator, scale)


def _display_5(lo: Fraction, hi: Fraction) -> str:
    """Rounded 5-decimal display of a value known to lie in [lo, hi]; the
    enclosure must be tight enough that both ends agree."""
    out = format_decimals(lo, 5)
    if format_decimals(hi, 5) != out:
        raise CertificationError("enclosure too wide for a 5-decimal display")
    return out


# ---------------------------------------------------------------------------
# the four condition bounds
# ---------------------------------------------------------------------------


class RadiusBound(NamedTuple):
    """One certified neighborhood radius: a rational lower bound `certified`
    on the true threshold, a tight enclosure of that threshold, and the
    rounded table figure.  `detail` holds the condition's own figures; each
    bound has a dict of its own."""

    label: str
    certified: Fraction
    enclosure_lo: Fraction
    enclosure_hi: Fraction
    display: str
    detail: dict

    @classmethod
    def from_enclosure(cls, label: str, lo: Fraction, hi: Fraction, **detail) -> "RadiusBound":
        """The bound for a threshold known to lie in [lo, hi]: `certified` is
        lo truncated to 7 places; the display raises `CertificationError`
        when the enclosure is too wide for 5 decimals."""
        return cls(label, truncate_rational(lo, 7), lo, hi, _display_5(lo, hi), detail)


def _positive_radius(p: MvPoly, tol: Fraction, what: str) -> tuple[Fraction, Fraction]:
    """Enclosure, of width <= tol, of a radius within which p stays positive.

    p must be positive at 0 (checked exactly); the radius is then the unique
    positive root of its coefficient companion."""
    if p.constant_term().sign() <= 0:
        raise CertificationError(f"{what} is not positive at 0")
    return companion_root_enclosure(cauchy_companion(p), tol)


def det_orientation_bound() -> RadiusBound:
    """Condition (i): the perturbed basis determinant keeps its sign.

    The exact threshold is (sqrt2 - 1)/4: each facet point stays inside the
    open middle triangle of its facet as long as its (s^h, s^v) pair moves
    less than that, and any four points from the middle triangles span a
    tetrahedron with the same orientation.  The four corners of the closed
    square of that radius around the base point are verified against the
    middle triangle's inequalities.
    """
    pl = get_pipeline()
    radius = QSqrt2(Fraction(-1, 4), Fraction(1, 4))  # (sqrt2 - 1)/4

    # all four facet points sit at the same (s^h, s^v) by symmetry; verify.
    # s_from_t is block-diagonal, so pair i of s depends on t_i1, t_i2 alone
    sh0, sv0 = QSqrt2(Fraction(1, 2), Fraction(-1, 4)), QSqrt2(0, Fraction(1, 4))
    s = pl.scoords.s_from_t.apply([x for pt in pl.model.facet_points for x in pt[:2]])
    for i in range(4):
        if s[2 * i:2 * i + 2] != (sh0, sv0):
            raise CertificationError(f"facet point {i} is not at the base facet coordinates")

    corners_ok = []
    for ds in (-radius, radius):
        for dv in (-radius, radius):
            sh, sv = sh0 + ds, sv0 + dv
            ok = (
                (QSqrt2(Fraction(1, 2)) - sv).sign() >= 0
                and (sv + sh).sign() >= 0
                and (sv - sh).sign() >= 0
            )
            corners_ok.append(ok)
    if not all(corners_ok):
        raise CertificationError("middle-triangle corner check failed")

    enc = radius.enclosure(Fraction(1, 10**9))
    return RadiusBound.from_enclosure("(i)", enc.lo, enc.hi,
                                      exact=str(radius), corners_checked=len(corners_ok))


_LINEAR_SUM_SMALL = QSqrt2(112, 64)
_LINEAR_SUM_LARGE = QSqrt2(192, 128)


def linear_bound(c: Fraction) -> RadiusBound:
    """Condition (ii): the six linear forms stay below c.

    The L_infty distance from the origin to {l = c} is c over the sum of
    absolute coefficient values; the sums are verified to be exactly
    112 + 64*sqrt2 (first four forms) and 192 + 128*sqrt2 (last two), so the
    binding radius is c / (192 + 128*sqrt2).
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    pl = get_pipeline()
    sums = []
    for ls in pl.linear_s:
        total = QS2_ZERO
        for coeff in ls.terms.values():
            total = total + abs(coeff)
        sums.append(total)
    if sums[:4] != [_LINEAR_SUM_SMALL] * 4 or sums[4:] != [_LINEAR_SUM_LARGE] * 2:
        raise CertificationError("linear coefficient sums do not match the pinned values")
    exact = QSqrt2.coerce(c) / _LINEAR_SUM_LARGE
    enc = exact.enclosure(Fraction(1, 10**9))
    return RadiusBound.from_enclosure("(ii)", enc.lo, enc.hi, exact=str(exact),
                                      coefficient_sums=[str(s) for s in sums])


def attainment_bound(tol: Fraction = Fraction(1, 10**9)) -> RadiusBound:
    """Condition (iii): each of the six directions keeps attaining its width
    at its designated vertex v_i of Delta - Delta.

    6 directions x 11 competing differences give 66 quadratic comparisons;
    each is positive at 0 (verified exactly) and stays positive inside the
    ball whose radius is the unique positive root of its coefficient
    companion.  Returns the minimum over all 66.

    Premise: the width of Delta in any direction is the maximum over all
    differences a_i - a_j of its vertices, so the comparisons must run over
    exactly those twelve; `attainment_polynomials` checks that.  That each
    v_i is a vertex of Delta - Delta needs no check of its own: positivity
    at 0 makes v_i the strict maximizer of its direction over the other
    eleven differences, and a strict maximizer is a vertex.
    """
    polys = attainment_polynomials()
    if len(polys) != 66:
        raise CertificationError(f"expected 66 comparison polynomials, got {len(polys)}")
    # min keeps the first of equal lower ends
    lo, hi = min((_positive_radius(p, tol, "comparison polynomial") for p in polys),
                 key=lambda enc: enc[0])
    return RadiusBound.from_enclosure("(iii)", lo, hi, count=len(polys))


def attainment_polynomials() -> list[MvPoly]:
    """The 66 quadratics (v_i - w) . adj(M)(s) . u_i over the competing
    differences w.

    The twelve comparison vectors, the six v_i and their negatives, must be
    exactly the differences {a_i - a_j : i != j} of the vertices of Delta,
    since the width is a maximum over all of them (see `attainment_bound`);
    `CertificationError` otherwise."""
    pl = get_pipeline()
    model = pl.model
    comparison = list(model.attainment_diffs) + [
        tuple(-x for x in v) for v in model.attainment_diffs
    ]
    differences = {tuple(x - y for x, y in zip(a, b))
                   for a in model.vertices for b in model.vertices if a != b}
    if len(set(comparison)) != len(comparison) or set(comparison) != differences:
        raise CertificationError(
            "the comparison vectors of (iii) are not the differences a_i - a_j")
    out = []
    for idx in range(6):
        vi = model.attainment_diffs[idx]
        adj_u = _times_vector(pl.adjugate_s, model.dual_int_vectors[idx])
        for w in comparison:
            if w != vi:
                out.append(linear_combination(NVARS, zip((x - y for x, y in zip(vi, w)), adj_u)))
    return out


def hessian_matrix_s(c: Fraction) -> PolyMatrix:
    """Second-derivative matrix of the aggregate (derivatives in t), with
    entries rewritten in s: c*A(s) + B(s) from `Pipeline.hessian_parts`;
    entries are quadratic polynomials."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("aggregate weight c must be positive")
    a, b = get_pipeline().hessian_parts
    return _symmetric_matrix(
        lambda i, j: linear_combination(NVARS, ((c, a[i, j]), (QS2_ONE, b[i, j]))))


def _symmetric_matrix(entry) -> PolyMatrix:
    """The NVARS x NVARS matrix whose entries (i, j) and (j, i) are both
    entry(i, j), for i <= j."""
    rows: list[list[MvPoly]] = [[None] * NVARS for _ in range(NVARS)]
    for i in range(NVARS):
        for j in range(i, NVARS):
            rows[i][j] = rows[j][i] = entry(i, j)
    return PolyMatrix(rows)


def hessian_bound(c: Fraction, tol: Fraction = Fraction(1, 10**9)) -> RadiusBound:
    """Condition (iv): the aggregate's second-derivative matrix stays
    negative definite.

    It is negative definite at 0, so by continuity it remains so on any
    connected neighborhood where its determinant never vanishes; the
    coefficient-companion root of the degree-16 determinant polynomial gives
    such a neighborhood.  This is the expensive step; the determinant is
    computed by the certified modular engine.

    Definiteness at 0 is decided first, on the pipeline's constant c*A0 + B0
    (`Pipeline.hessian_at_zero`), before the polynomial matrix is built or
    any determinant computed.  Since t = T s has no offset, that is the
    matrix's value at s = 0, and it is the matrix
    `local_maximality_certificate` tests for `full_hessian_negative_definite`.

    The determinant must be invariant under the (s^h, s^v) pair shift that
    `symmetry_check` verifies; every coefficient is checked.
    """
    return hessian_section_bound(c, NVARS, tol)


def _check_pair_shift_invariant(p: MvPoly) -> None:
    """Raise `CertificationError` unless p(s) is unchanged when the four
    (s^h, s^v) pairs are shifted cyclically, that is, unless every exponent
    tuple rotated by two places keeps its coefficient.  The shift permutes
    monomials, so looking up each rotated tuple in p's own terms reads every
    coefficient once."""
    coeff_at = p.terms.get
    if not all(coeff == coeff_at(m[-2:] + m[:-2]) for m, coeff in p.terms.items()):
        raise CertificationError("Hessian determinant is not invariant under the pair shift")


def hessian_section_bound(c: Fraction, keep_vars: int = 4,
                          tol: Fraction = Fraction(1, 10**9)) -> RadiusBound:
    """Smoke-mode variant of the Hessian condition: restricts to the section
    where the last 8 - keep_vars coordinates are zero.  NOT a certifying
    bound for the full neighborhood (a section cannot see all directions);
    only positivity and stability of the reduced computation are meaningful.
    With keep_vars = NVARS it is condition (iv) itself (`hessian_bound`).

    Definiteness is decided on the full matrix at s = 0, which is also the
    section's matrix there, so both refuse the same weights c, and do so
    before `hessian_matrix_s` is built.
    """
    c = Fraction(c)
    if not is_negative_definite(get_pipeline().hessian_at_zero(c)):
        raise IndefiniteWeightError(
            f"aggregate Hessian is not negative definite at 0 for c={c}")
    matrix = hessian_matrix_s(c)

    def section(p: MvPoly) -> MvPoly:
        return MvPoly(keep_vars, {m[:keep_vars]: coeff for m, coeff in p.terms.items()
                                  if not any(m[keep_vars:])})

    det = det_poly(matrix.map_entries(section))
    lo, hi = _positive_radius(det, tol, "Hessian determinant")
    if keep_vars == NVARS:
        _check_pair_shift_invariant(det)
        return RadiusBound.from_enclosure("(iv)", lo, hi, det_degree=det.degree(),
                                          det_terms=len(det.terms))
    return RadiusBound.from_enclosure("(iv-section)", lo, hi, non_certifying=True,
                                      kept_vars=keep_vars)


# ---------------------------------------------------------------------------
# full certificate
# ---------------------------------------------------------------------------


class CertificateReport(NamedTuple):
    c: Fraction
    local: LocalCertificate
    symmetry: SymmetryCheck
    bounds: dict
    overall: Fraction
    overall_display: str
    barycentric: Fraction
    barycentric_display: str

    @property
    def verdict(self) -> bool:
        return self.local.verdict and self.symmetry.verdict and self.overall > 0


def certify(c: Fraction, with_hessian: bool = False,
            tol: Fraction = Fraction(1, 10**9)) -> CertificateReport:
    """Run the complete neighborhood certification for a given weight c.

    Without `with_hessian` the expensive degree-16 determinant condition is
    skipped and the overall radius covers the other three conditions only.
    The symmetry check and conditions (i) and (iii) do not depend on c; they
    are read from the pipeline, which computes them on the first call.
    """
    c = Fraction(c)
    pl = get_pipeline()
    local = local_maximality_certificate(c)
    bounds = {
        "i": pl.orientation,
        "ii": linear_bound(c),
        "iii": pl.attainment(tol),
        "iv": hessian_bound(c, tol) if with_hessian else None,
    }
    present = [b for b in bounds.values() if b is not None]
    binding = min(present, key=lambda b: b.certified)
    overall = binding.certified
    return CertificateReport(
        c=c,
        local=local,
        symmetry=pl.symmetry,
        bounds=bounds,
        overall=overall,
        overall_display=binding.display,
        barycentric=overall / 2,
        barycentric_display=_display_5(binding.enclosure_lo / 2, binding.enclosure_hi / 2),
    )
