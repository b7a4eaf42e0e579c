import random
from fractions import Fraction as Fr

import pytest

from widthcert import deltacert as dc
from widthcert.exactnum import QS2_ZERO, QSqrt2, SQRT2
from widthcert.exactlinalg import QMatrix, det_field, inverse_field
from widthcert.mvpoly import MvPoly

from test_exactlinalg import det_laplace
from test_mvpoly import fraction_bisection


# -- model construction ------------------------------------------------------------


def test_build_model_with_all_checks():
    model = dc.build_delta_model(check=True)
    assert len(model.vertices) == 4
    assert len(model.dual_int_vectors) == 7


def test_elimination_forms_match_published_display(pipeline):
    half = Fr(1, 2)
    t = [MvPoly.variable(i, dc.NVARS) for i in range(8)]
    expected = [
        t[0].scale(QSqrt2(-1, -half)) + t[1].scale(QSqrt2(0, -half)),
        t[2].scale(QSqrt2(0, -half)) + t[3].scale(QSqrt2(1, half)),
        t[4].scale(QSqrt2(1, half)) + t[5].scale(QSqrt2(0, half)),
        t[6].scale(QSqrt2(0, half)) + t[7].scale(QSqrt2(-1, -half)),
    ]
    assert pipeline.ring.elimination == expected


def test_perturbed_matrix_restricts_to_basis(pipeline, delta_model):
    assert pipeline.ring.matrix.evaluate([QS2_ZERO] * 8) == delta_model.lattice.basis_matrix()


def test_ring_determinant_is_the_laplace_determinant(pipeline):
    # the ring expands its determinant from the adjugate's first column
    assert pipeline.ring.det == det_laplace(pipeline.ring.matrix)


# -- deficit polynomials ----------------------------------------------------------------


def test_h_polys_vanish_at_zero_with_degree_three(pipeline):
    for h in pipeline.h_polys:
        assert h.constant_term() == QS2_ZERO
        assert h.degree() == 3


def test_gradients_match_published_table(pipeline):
    grads = [h.gradient_at_zero() for h in pipeline.h_polys]
    assert grads == dc.expected_gradients()


def test_fifth_gradient_value(pipeline):
    g5 = pipeline.h_polys[4].gradient_at_zero()
    expected = [QSqrt2(8 * a, 8 * b) for a, b in
                zip((1, 0, -1, 0, -1, 0, 1, 0), (1, 0, 0, 0, -1, 0, 0, 0))]
    assert g5 == expected


def test_dependence_with_published_multipliers(pipeline):
    grads = [h.gradient_at_zero() for h in pipeline.h_polys]
    assert dc.check_dependence(grads, pipeline.model.multipliers)


def test_dependence_fails_with_unit_multipliers(pipeline):
    grads = [h.gradient_at_zero() for h in pipeline.h_polys]
    assert not dc.check_dependence(grads, [QSqrt2(1)] * 6)


def test_deficit_identity_at_random_points(pipeline):
    # the deficit polynomial equals det(M(t)) * (directional width - target),
    # with the directional width computed through the exact matrix inverse
    rng = random.Random(31)
    model = pipeline.model
    for _ in range(25):
        t = [QSqrt2(Fr(rng.randint(-3, 3), rng.randint(2, 9))) for _ in range(8)]
        M = pipeline.ring.matrix.evaluate(t)
        det = det_field(M)
        if not det:
            continue
        Minv = inverse_field(M)
        for idx in (0, 3, 5):
            v = model.attainment_diffs[idx]
            u = model.dual_int_vectors[idx]
            Mu = Minv.apply([QSqrt2.coerce(x) for x in u])
            f_val = sum((v[r] * Mu[r] for r in range(3)), QS2_ZERO)
            expected = det * (f_val - dc.WIDTH_VALUE)
            assert pipeline.h_polys[idx].evaluate(t) == expected


def test_graded_decomposition_of_weighted_deficits(pipeline):
    for h, lam in zip(pipeline.h_polys, pipeline.model.multipliers):
        weighted = h.scale(lam)
        parts = [weighted.graded_part(d) for d in range(4)]
        assert parts[0] == MvPoly.zero(8)
        assert parts[1] + parts[2] + parts[3] == weighted
        assert parts[1].degree() == 1 and parts[2].degree() == 2 and parts[3].degree() == 3


# -- aggregate ----------------------------------------------------------------------------


def build_h_aggregate(pipeline, c):
    """The multiplier-weighted aggregate sum((c - l_i) * lam_i * h_i), built
    for one weight: the oracle of `Pipeline.hessian_parts`."""
    total = MvPoly.zero(dc.NVARS)
    for h, lam in zip(pipeline.h_polys, pipeline.model.multipliers):
        weighted = h.scale(lam)
        total = total + (MvPoly.constant(c, dc.NVARS) - weighted.graded_part(1)) * weighted
    return total


def test_aggregate_gradient_vanishes(pipeline):
    h = build_h_aggregate(pipeline, Fr(39, 4))
    assert h.gradient_at_zero() == [QS2_ZERO] * 8
    assert h.constant_term() == QS2_ZERO
    assert h.degree() == 4


def _hessian_at_origin(p):
    # the constant Hessian of p's quadratic part, read term by term
    entries = [[QS2_ZERO] * dc.NVARS for _ in range(dc.NVARS)]
    for m, coeff in p.graded_part(2).terms.items():
        i, j = [k for k, e in enumerate(m) for _ in range(e)]
        entries[i][j] = entries[i][j] + coeff * (2 if i == j else 1)
        if i != j:
            entries[j][i] = entries[j][i] + coeff
    return QMatrix(entries)


def test_aggregate_quadratic_part_identity(pipeline):
    # degree-2 part of the aggregate = c * sum(q_i) - sum(l_i^2), so its
    # Hessian at 0 is c*A0 + B0 with A0 and B0 built from the q_i and l_i
    q_sum = MvPoly.zero(8)
    l_square = MvPoly.zero(8)
    for hp, lam in zip(pipeline.h_polys, pipeline.model.multipliers):
        q_sum = q_sum + hp.scale(lam).graded_part(2)
        l_square = l_square + hp.scale(lam).graded_part(1) ** 2
    assert pipeline.a0 == _hessian_at_origin(q_sum)
    assert pipeline.b0 == _hessian_at_origin(-l_square)
    for c in (Fr(39, 4), Fr(14)):
        h = build_h_aggregate(pipeline, c)
        assert h.graded_part(2) == q_sum.scale(c) - l_square
        assert pipeline.hessian_at_zero(c) == _hessian_at_origin(h)


def test_hessian_at_zero_rejects_nonpositive_c(pipeline):
    with pytest.raises(ValueError):
        pipeline.hessian_at_zero(0)


def test_aggregate_rejects_nonpositive_c(pipeline):
    for c in (0, Fr(-39, 4)):
        with pytest.raises(ValueError):
            dc.hessian_matrix_s(c)


@pytest.mark.parametrize("c", [Fr(7), Fr(39, 4), Fr(12)])
def test_hessian_matrix_is_the_aggregate_hessian(pipeline, c):
    # c*A(s) + B(s) from the weight-free parts equals the Hessian of the
    # aggregate built for this one weight, entry by entry and exactly
    hess_t = build_h_aggregate(pipeline, c).hessian()
    want = [[pipeline.scoords.to_s(e) for e in row] for row in hess_t]
    assert [list(row) for row in dc.hessian_matrix_s(c).rows] == want


def hessian_parts_by_congruence(pipeline):
    """(A(s), B(s)) by rewriting each aggregate part in s first: the
    congruence S^T H_s S of its Hessian in s, with s = S t.  The oracle of
    `Pipeline.hessian_parts`, which differentiates in t and rewrites the
    entries instead."""
    weighted = [h.scale(lam) for h, lam in zip(pipeline.h_polys, pipeline.model.multipliers)]
    parts = (sum(weighted, MvPoly.zero(dc.NVARS)),
             -sum((w.graded_part(1) * w for w in weighted), MvPoly.zero(dc.NVARS)))
    S = pipeline.scoords.s_from_t.rows
    out = []
    for part in parts:
        h = pipeline.scoords.to_s(part).hessian()
        out.append([[sum((h[k][l].scale(S[k][i] * S[l][j])
                          for k in range(dc.NVARS) for l in range(dc.NVARS)), MvPoly.zero(dc.NVARS))
                     for j in range(dc.NVARS)] for i in range(dc.NVARS)])
    return out


def test_hessian_parts_are_the_congruence_of_the_hessian_in_s():
    # H_t(f)(T s) = S^T H_s(f o T) S, entry by entry for both parts
    pl = dc.Pipeline()
    for got, want in zip(pl.hessian_parts, hessian_parts_by_congruence(pl)):
        for i in range(dc.NVARS):
            for j in range(dc.NVARS):
                assert got[i, j] == want[i][j]


def test_hessian_parts_are_built_once():
    # on first use, not with the pipeline, and then kept for every weight
    pl = dc.Pipeline()
    assert "hessian_parts" not in vars(pl)
    first = pl.hessian_parts
    assert pl.hessian_parts is first
    assert all(e.degree() <= 1 for row in first[0].rows for e in row)
    assert all(e.degree() <= 2 for row in first[1].rows for e in row)


# -- local certificate -------------------------------------------------------------------------


EXPECTED_RESTRICTED = QMatrix([
    [QSqrt2(-13, Fr(-19, 2)), QSqrt2(-4, Fr(-5, 2)), QSqrt2(-2, -1)],
    [QSqrt2(-4, Fr(-5, 2)), QSqrt2(-27, Fr(-39, 2)), QSqrt2(-22, -16)],
    [QSqrt2(-2, -1), QSqrt2(-22, -16), QSqrt2(-26, -19)],
])


def test_local_certificate_at_default_weight():
    cert = dc.local_maximality_certificate(Fr(39, 4))
    assert cert.verdict
    assert cert.gradient_rank == 5
    assert cert.kernel_dim == 3
    assert cert.restricted_hessian == EXPECTED_RESTRICTED
    assert cert.restricted_negative_definite


def test_full_hessian_definiteness_range():
    assert dc.local_maximality_certificate(Fr(39, 4)).full_hessian_negative_definite
    assert not dc.local_maximality_certificate(Fr(14)).full_hessian_negative_definite
    # bracketing of the experimental definiteness threshold
    assert dc.local_maximality_certificate(Fr(1325, 100)).full_hessian_negative_definite
    assert not dc.local_maximality_certificate(Fr(1326, 100)).full_hessian_negative_definite


def test_local_certificate_rejects_nonpositive_c():
    with pytest.raises(ValueError):
        dc.local_maximality_certificate(0)


# -- symmetry-adapted coordinates ------------------------------------------------------------------


def test_scoords_of_base_facet_point(pipeline):
    sh, sv = pipeline.scoords.s_from_t.apply([-1, -1] + [0] * 6)[:2]
    assert sh == QSqrt2(Fr(1, 2), Fr(-1, 4))  # (2 - sqrt2)/4
    assert sv == QSqrt2(0, Fr(1, 4))          # sqrt2/4


def test_scoords_round_trip_on_random_polys(pipeline):
    rng = random.Random(37)
    for _ in range(10):
        terms = {}
        for _ in range(6):
            m = [0] * 8
            for _ in range(rng.randint(0, 3)):
                m[rng.randrange(8)] += 1
            terms[tuple(m)] = QSqrt2(rng.randint(-5, 5), rng.randint(-3, 3))
        p = MvPoly(8, terms)
        back = pipeline.scoords.to_s(p).substitute_linear(pipeline.scoords.s_from_t.rows)
        assert back == p


def test_linear_parts_in_s_match_published_displays(pipeline):
    table = [
        (8, (-2, 2, -1, 3, 0, 0, 3, 3), (-1, 1, -1, 1, 0, 0, 2, 2)),
        (8, (-1, 3, 0, 0, 3, 3, -2, 2), (-1, 1, 0, 0, 2, 2, -1, 1)),
        (8, (0, 0, 3, 3, -2, 2, -1, 3), (0, 0, 2, 2, -1, 1, -1, 1)),
        (8, (3, 3, -2, 2, -1, 3, 0, 0), (2, 2, -1, 1, -1, 1, 0, 0)),
        (16, (1, -3, -1, -1, 1, -3, -1, -1), (1, -2, -1, 0, 1, -2, -1, 0)),
        (16, (-1, -1, 1, -3, -1, -1, 1, -3), (-1, 0, 1, -2, -1, 0, 1, -2)),
    ]
    for ls, (scale, rat, irr) in zip(pipeline.linear_s, table):
        expected = [QSqrt2(scale * a, scale * b) for a, b in zip(rat, irr)]
        assert ls.gradient_at_zero() == expected


def test_barycentric_relation_of_facet_coordinates(pipeline):
    # for a displaced point on the first facet plane, s^v equals the
    # barycentric coordinate on the facet's third vertex and s^h the
    # difference of the other two; exact affine identity checked at samples
    model = pipeline.model
    facet = [model.vertices[1], model.vertices[2], model.vertices[3]]
    from widthcert.widthlab import Polytope, barycentric_coordinates

    rng = random.Random(41)
    for _ in range(8):
        t1 = QSqrt2(Fr(rng.randint(-4, 4), 3), Fr(rng.randint(-2, 2), 5))
        t2 = QSqrt2(Fr(rng.randint(-4, 4), 3), Fr(rng.randint(-2, 2), 5))
        base = model.facet_points[0]
        elim = pipeline.ring.elimination[0]
        t_full = [QS2_ZERO] * 8
        t_full[0], t_full[1] = t1, t2
        point = (base[0] + t1, base[1] + t2, base[2] + elim.evaluate(t_full))
        # barycentric relative to the facet triangle, via the full simplex
        bary = barycentric_coordinates(point, model.polytope)
        assert bary[0] == QS2_ZERO
        sh, sv = pipeline.scoords.s_from_t.apply([base[0] + t1, base[1] + t2] + [0] * 6)[:2]
        assert sv == bary[2]
        assert sh == bary[3] - bary[1]


def test_symmetry_check_passes():
    sym = dc.symmetry_check()
    assert sym.vertex_cycle_ok
    assert sym.facet_point_cycle_ok
    assert sym.elimination_equivariant
    assert sym.s_shift_is_pair_rotation
    assert sym.verdict


def test_rotary_reflection_cycles_vertices(delta_model):
    # the map (x, y, z) -> (-y, x, -z) advances vertex and facet-point
    # indices by one, with wraparound at the fourth
    assert dc._rotary_reflection(delta_model.vertices[0]) == delta_model.vertices[1]
    assert dc._rotary_reflection(delta_model.facet_points[3]) == delta_model.facet_points[0]


# -- condition bounds ----------------------------------------------------------------------------------


def test_orientation_bound_value():
    bound = dc.det_orientation_bound()
    assert bound.display == "0.10355"
    assert bound.certified == Fr(1035533, 10**7)
    # exact threshold is (sqrt2 - 1)/4
    assert Fr("0.1035533") <= bound.certified < Fr("0.1035534")


def test_radius_bounds_do_not_share_their_detail():
    first, second = (dc.RadiusBound.from_enclosure("(x)", Fr(1, 10), Fr(1, 10)) for _ in "ab")
    assert first == second and first.detail is not second.detail
    first.detail["seen"] = True
    assert second.detail == {}


def test_orientation_corner_becomes_infeasible_with_slack():
    # radius (sqrt2-1)/4 + 1/100 pushes a corner outside the middle triangle
    pl = dc.get_pipeline()
    sh0, sv0 = pl.scoords.s_from_t.apply([-1, -1] + [0] * 6)[:2]
    rho = QSqrt2(Fr(-1, 4), Fr(1, 4)) + Fr(1, 100)
    violated = False
    for ds in (-rho, rho):
        for dv in (-rho, rho):
            sh, sv = sh0 + ds, sv0 + dv
            if ((QSqrt2(Fr(1, 2)) - sv).sign() < 0
                    or (sv + sh).sign() < 0 or (sv - sh).sign() < 0):
                violated = True
    assert violated


@pytest.mark.parametrize("c,display", [
    (Fr(7), "0.01877"),
    (Fr(8), "0.02145"),
    (Fr(9), "0.02413"),
    (Fr(39, 4), "0.02614"),
    (Fr(10), "0.02681"),
    (Fr(11), "0.02949"),
    (Fr(12), "0.03217"),
])
def test_linear_bound_column(c, display):
    bound = dc.linear_bound(c)
    assert bound.display == display


def test_linear_bound_coefficient_sums():
    bound = dc.linear_bound(Fr(39, 4))
    assert bound.detail["coefficient_sums"][:4] == ["112 + 64*sqrt2"] * 4
    assert bound.detail["coefficient_sums"][4:] == ["192 + 128*sqrt2"] * 2


def test_linear_bound_certified_value():
    bound = dc.linear_bound(Fr(39, 4))
    # exact threshold is (39/4) / (192 + 128 sqrt2) = 117/256 - (39/128) sqrt2
    exact = QSqrt2(Fr(117, 256), Fr(-39, 128))
    assert (exact - bound.certified).sign() > 0
    assert bound.certified > Fr("0.0261379")


def test_attainment_bound_value():
    bound = dc.attainment_bound()
    assert bound.display == "0.04423"
    assert bound.detail["count"] == 66
    assert Fr("0.0442285") <= bound.certified < Fr("0.0442286")


def test_attainment_polynomials_positive_constants(pipeline):
    polys = dc.attainment_polynomials()
    assert len(polys) == 66
    for p in polys:
        assert p.constant_term().sign() > 0
        assert p.degree() <= 2


def test_pipeline_builds_its_perturbation_model_once(monkeypatch):
    rings, h_builds = [], []
    build_h_polys = dc.build_h_polys

    class CountedRing(dc.PerturbationRing):
        def __init__(self, model):
            rings.append(model)
            super().__init__(model)

    def counted_h_polys(ring, model):
        h_builds.append(ring)
        return build_h_polys(ring, model)

    monkeypatch.setattr(dc, "PerturbationRing", CountedRing)
    monkeypatch.setattr(dc, "build_h_polys", counted_h_polys)
    fresh = dc.Pipeline()
    assert len(rings) == len(h_builds) == 1
    assert fresh.ring is h_builds[0]


def test_attainment_premise_rejects_a_duplicate_pair(monkeypatch):
    # with one pair repeated, the twelve comparison vectors miss two of the
    # differences a_i - a_j, over which the width is a maximum
    fresh = dc.Pipeline()
    monkeypatch.setattr(dc, "_PIPELINE", fresh)
    original = dc._ATTAINMENT_PAIRS
    for idx in range(6):
        for dup in original:
            if dup == original[idx]:
                continue
            monkeypatch.setattr(dc, "_ATTAINMENT_PAIRS",
                                original[:idx] + (dup,) + original[idx + 1:])
            fresh.model = dc.build_delta_model(check=False)
            with pytest.raises(dc.CertificationError, match="not the differences a_i - a_j"):
                dc.attainment_polynomials()
    with pytest.raises(dc.CertificationError, match="not the differences a_i - a_j"):
        dc.attainment_bound()


def test_attainment_soundness_spot_check(pipeline):
    # inside the certified radius every comparison polynomial stays positive
    rng = random.Random(43)
    bound = dc.attainment_bound()
    polys = dc.attainment_polynomials()
    for _ in range(30):
        s = [QSqrt2(Fr(rng.randint(-999, 999), 1000) * bound.certified) for _ in range(8)]
        for p in random.Random(rng.random()).sample(polys, 6):
            assert p.evaluate(s).sign() > 0


def test_hessian_matrix_entries_quadratic(pipeline):
    matrix = dc.hessian_matrix_s(Fr(39, 4))
    assert all(matrix[i, j] == matrix[j, i] for i in range(8) for j in range(i + 1, 8))
    assert matrix.max_entry_degree() == 2


def test_hessian_section_smoke_is_labeled_non_certifying():
    bound = dc.hessian_section_bound(Fr(39, 4))
    assert bound.detail["non_certifying"] is True
    assert bound.certified > 0


def test_companion_brackets_equal_the_fraction_bisection(monkeypatch):
    # the 66 companions of (iii) and the section companion of (iv): the
    # dyadic bisection returns the brackets of the Fraction bisection
    calls = []
    enclosure = dc.companion_root_enclosure

    def recorded(f0, tol):
        calls.append((f0, tol))
        return enclosure(f0, tol)

    monkeypatch.setattr(dc, "companion_root_enclosure", recorded)
    monkeypatch.setattr(dc, "_PIPELINE", dc.Pipeline())
    dc.attainment_bound()
    section = dc.hessian_section_bound(Fr(39, 4), keep_vars=6)
    assert len(calls) == 67 and section.display == "0.03477"
    for f0, tol in calls:
        assert enclosure(f0, tol) == fraction_bisection(f0, tol)


# -- full certification (without the long determinant) ----------------------------------------------------


def test_certify_without_hessian():
    report = dc.certify(Fr(39, 4))
    assert report.verdict
    assert report.bounds["iv"] is None
    assert report.overall == report.bounds["ii"].certified
    assert report.overall_display == "0.02614"
    assert report.barycentric == report.overall / 2
    assert report.barycentric_display == "0.01307"


def test_format_decimals_modes():
    assert dc.format_decimals(Fr("0.0261380"), 5) == "0.02614"
    assert dc.format_decimals(Fr("-0.0261380"), 5) == "-0.02614"
    assert dc.format_decimals(Fr(1, 3), 5) == "0.33333"


def test_truncate_rational():
    assert dc.truncate_rational(Fr("0.12345678"), 7) == Fr(1234567, 10**7)


# -- the full Hessian condition (its published column: test_acceptance criterion 4) -----------------


def test_pair_shift_invariance_check_reads_every_coefficient():
    rng = random.Random(17)
    terms = {}
    for _ in range(40):
        m = tuple(rng.randrange(3) for _ in range(dc.NVARS))
        coeff = QSqrt2(rng.randint(1, 9), rng.randint(-9, 9))
        for places in (0, 2, 4, 6):
            terms[m[places:] + m[:places]] = coeff
    dc._check_pair_shift_invariant(MvPoly(dc.NVARS, terms))
    for m in rng.sample(sorted(terms), 10):
        tampered = dict(terms)
        tampered[m] = tampered[m] + QSqrt2(0, 1)
        with pytest.raises(dc.CertificationError):
            dc._check_pair_shift_invariant(MvPoly(dc.NVARS, tampered))
    # invariant under the shift by four places only: s^h_1 + s^h_3
    half_turn = MvPoly.variable(0, dc.NVARS) + MvPoly.variable(4, dc.NVARS)
    with pytest.raises(dc.CertificationError):
        dc._check_pair_shift_invariant(half_turn)


def test_pair_shift_check_catches_one_changed_or_missing_term():
    def orbit(m):
        return {m[places:] + m[:places] for places in (0, 2, 4, 6)}

    # whole orbits of the shift, each with one coefficient, and fixed points
    rng = random.Random(29)
    terms = {(0,) * dc.NVARS: QSqrt2(-3), (1,) * dc.NVARS: QSqrt2(0, -2)}
    for _ in range(30):
        m = tuple(rng.randrange(3) for _ in range(dc.NVARS))
        coeff = QSqrt2(Fr(rng.randint(-9, 9), rng.randint(1, 4)), Fr(rng.randint(-9, 9), 3))
        terms.update(dict.fromkeys(orbit(m), coeff or QSqrt2(1)))
    dc._check_pair_shift_invariant(MvPoly(dc.NVARS, terms))
    for m in terms:
        missing = {k: v for k, v in terms.items() if k != m}
        changed = {**terms, m: -terms[m]}
        for broken in (missing, changed):
            if len(orbit(m)) > 1:
                with pytest.raises(dc.CertificationError):
                    dc._check_pair_shift_invariant(MvPoly(dc.NVARS, broken))
            else:  # a fixed monomial is its own image
                dc._check_pair_shift_invariant(MvPoly(dc.NVARS, broken))
    # dropping a whole orbit keeps the invariance
    m = next(m for m in terms if len(orbit(m)) == 4)
    dc._check_pair_shift_invariant(
        MvPoly(dc.NVARS, {k: v for k, v in terms.items() if k not in orbit(m)}))


def no_determinant(*args, **kwargs):
    raise AssertionError("determinant computed before the definiteness check")


def test_hessian_bound_rejects_indefinite_weight(pipeline, monkeypatch):
    monkeypatch.setattr(dc, "det_poly", no_determinant)
    with pytest.raises(dc.IndefiniteWeightError):
        dc.hessian_bound(Fr(14))


@pytest.mark.parametrize("c", [Fr(14), Fr(20)])
def test_hessian_section_rejects_indefinite_weight(monkeypatch, c):
    # at s = 0 the section's matrix is the full one, so the smoke mode refuses
    # the same weights as condition (iv), before any determinant
    monkeypatch.setattr(dc, "det_poly", no_determinant)
    with pytest.raises(dc.IndefiniteWeightError):
        dc.hessian_section_bound(c)


@pytest.mark.parametrize("c", [Fr(39, 4), Fr(14)])
def test_hessian_matrix_at_zero_is_quadratic_form_hessian(pipeline, c):
    # condition (iv) decides definiteness on c*A0 + B0, the Hessian of the
    # aggregate's quadratic form; with no offset in t = T s that is the
    # polynomial s-matrix evaluated at 0
    at_zero = dc.hessian_matrix_s(c).evaluate([QS2_ZERO] * dc.NVARS)
    assert at_zero == pipeline.hessian_at_zero(c)
    cert = dc.local_maximality_certificate(c)
    assert cert.full_hessian_negative_definite == (c == Fr(39, 4))


def test_hessian_section_refuses_before_building_the_matrix(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("hessian_matrix_s built before the definiteness check")

    monkeypatch.setattr(dc, "hessian_matrix_s", no_matrix)
    with pytest.raises(dc.IndefiniteWeightError):
        dc.hessian_section_bound(Fr(14))


def test_certify_sweep_runs_the_weight_free_work_once(monkeypatch):
    # three weights on one pipeline: the 66 bisections of (iii) run once,
    # and every row equals a single-weight run on a fresh pipeline
    weights = (Fr(7), Fr(39, 4), Fr(12))
    bisections = []
    enclosure = dc.companion_root_enclosure

    def counted(*args, **kwargs):
        bisections.append(args)
        return enclosure(*args, **kwargs)

    monkeypatch.setattr(dc, "companion_root_enclosure", counted)
    monkeypatch.setattr(dc, "_PIPELINE", dc.Pipeline())
    swept = [dc.certify(c) for c in weights]
    assert len(bisections) == 66
    for c, report in zip(weights, swept):
        monkeypatch.setattr(dc, "_PIPELINE", dc.Pipeline())
        assert dc.certify(c) == report
    assert len(bisections) == 4 * 66
