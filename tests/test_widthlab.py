import random
from fractions import Fraction as Fr
from itertools import product

import pytest

from widthcert.exactnum import QSqrt2
from widthcert.widthlab import (
    AffineLattice,
    DegeneratePolytopeError,
    Functional,
    Polytope,
    barycentric_coordinates,
    dual_lattice,
    facet_hyperplanes,
    hollow_check,
    lattice_width,
    width_in_direction,
)

UNIT_CUBE = Polytope(list(product((0, 1), repeat=3)))
UNIT_SIMPLEX = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
Z3 = AffineLattice.standard()


# -- directional width ------------------------------------------------------------


def test_width_of_cube_along_axis():
    assert width_in_direction(UNIT_CUBE, Functional((1, 0, 0))) == QSqrt2(1)


def test_width_of_model_along_half_x(delta_model):
    f = Functional((Fr(1, 2), 0, 0))
    assert width_in_direction(delta_model.polytope, f) == QSqrt2(2, 1)


def test_width_of_model_along_quarter_diagonal(delta_model):
    f = Functional((Fr(1, 4), Fr(1, 4), Fr(1, 4)))
    assert width_in_direction(delta_model.polytope, f) == QSqrt2(2, 1)


def test_width_matches_difference_body_view():
    rng = random.Random(2)
    for _ in range(20):
        verts = [tuple(Fr(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
                 for _ in range(4)]
        try:
            K = Polytope(verts)
        except ValueError:
            continue
        f = Functional([rng.randint(-3, 3) or 1 for _ in range(3)])
        diffs = set()
        for a in K.vertices:
            for b in K.vertices:
                diffs.add(tuple(x - y for x, y in zip(a, b)))
        centered = Polytope(list(diffs))
        assert width_in_direction(K, f) * 2 == width_in_direction(centered, f)


# -- dual lattices ------------------------------------------------------------------


def test_dual_of_standard_lattice():
    duals = dual_lattice(Z3)
    assert [d.coeffs for d in duals] == [
        (QSqrt2(1), QSqrt2(0), QSqrt2(0)),
        (QSqrt2(0), QSqrt2(1), QSqrt2(0)),
        (QSqrt2(0), QSqrt2(0), QSqrt2(1)),
    ]


def test_dual_of_doubled_lattice():
    L = AffineLattice((0, 0, 0), ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    duals = dual_lattice(L)
    assert duals[0].coeffs == (QSqrt2(Fr(1, 2)), QSqrt2(0), QSqrt2(0))


def test_dual_generates_the_attaining_directions(delta_model):
    duals = dual_lattice(delta_model.lattice)
    combos = set()
    for u in delta_model.dual_int_vectors:
        f = tuple(
            sum((duals[k].coeffs[r] * u[k] for k in range(3)), QSqrt2(0))
            for r in range(3)
        )
        combos.add(f)
    expected = {
        (QSqrt2(Fr(1, 4)), QSqrt2(Fr(1, 4)), QSqrt2(Fr(1, 4))),
        (QSqrt2(Fr(-1, 4)), QSqrt2(Fr(1, 4)), QSqrt2(Fr(1, 4))),
        (QSqrt2(Fr(1, 4)), QSqrt2(Fr(1, 4)), QSqrt2(Fr(-1, 4))),
        (QSqrt2(Fr(1, 4)), QSqrt2(Fr(-1, 4)), QSqrt2(Fr(1, 4))),
        (QSqrt2(Fr(1, 2)), QSqrt2(0), QSqrt2(0)),
        (QSqrt2(0), QSqrt2(Fr(1, 2)), QSqrt2(0)),
        (QSqrt2(0), QSqrt2(0), QSqrt2(Fr(1, 2))),
    }
    assert combos == expected


# -- lattice width ---------------------------------------------------------------------


def test_cube_width_and_minimizers():
    result = lattice_width(UNIT_CUBE, Z3)
    assert result.width == QSqrt2(1)
    assert len(result.minimizers) == 3


def test_model_width_and_seven_minimizers(delta_model):
    result = lattice_width(delta_model.polytope, delta_model.lattice)
    assert result.width == QSqrt2(2, 1)
    assert len(result.minimizers) == 7


def test_degenerate_polytope_rejected():
    flat = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegeneratePolytopeError):
        lattice_width(flat, Z3)


def _brute_force_width(scaled_vertices, box=20):
    best = None
    count = 0
    for f in product(range(-box, box + 1), repeat=3):
        if f == (0, 0, 0):
            continue
        first = next(x for x in f if x)
        if first < 0:
            continue
        values = [sum(c * v for c, v in zip(f, vert)) for vert in scaled_vertices]
        w = max(values) - min(values)
        if best is None or w < best:
            best = w
            count = 1
        elif w == best:
            count += 1
    return best, count


def _random_rational_tetrahedron(rng):
    while True:
        verts = [tuple(Fr(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(3))
                 for _ in range(4)]
        if any(abs(x) > 3 for v in verts for x in v):
            continue
        try:
            K = Polytope(verts)
        except ValueError:
            continue
        if K.is_simplex():
            return K


def random_tetrahedron_oracle_check(rng, box_cap=20):
    """One comparison of lattice_width against the brute-force oracle over
    integer functionals; resamples until the enumeration box fits inside the
    oracle's search box so both scan the same candidate set."""
    from widthcert.widthlab import _coefficient_box

    while True:
        K = _random_rational_tetrahedron(rng)
        duals = dual_lattice(Z3)
        w0 = min((width_in_direction(K, d) for d in duals))
        bounds = _coefficient_box(K, Z3, w0)
        if max(bounds) <= box_cap:
            break
    result = lattice_width(K, Z3)
    from math import lcm

    scale = 1
    for v in K.vertices:
        for x in v:
            scale = lcm(scale, x.rat.denominator)
    scaled = [tuple(int(x.rat * scale) for x in v) for v in K.vertices]
    brute_width, brute_count = _brute_force_width(scaled, box_cap)
    assert result.width == QSqrt2(Fr(brute_width, scale))
    assert len(result.minimizers) == brute_count
    return True


def test_width_matches_brute_force_oracle_sample():
    rng = random.Random(42)
    for _ in range(10):
        random_tetrahedron_oracle_check(rng)


def test_width_invariant_under_unimodular_rebasing(delta_model):
    K = delta_model.polytope
    L = delta_model.lattice
    b = L.basis
    rebased = AffineLattice(
        L.origin,
        (
            tuple(b[0][k] + b[1][k] for k in range(3)),
            b[1],
            tuple(b[2][k] - b[1][k] for k in range(3)),
        ),
    )
    r1 = lattice_width(K, L)
    r2 = lattice_width(K, rebased)
    assert r1.width == r2.width
    assert len(r1.minimizers) == len(r2.minimizers)
    assert set(r1.minimizers) == set(r2.minimizers)


def test_width_invariant_under_translation(delta_model):
    K = delta_model.polytope
    L = delta_model.lattice
    offset = (Fr(3, 7), QSqrt2(0, 1), Fr(-2, 5))
    moved = Polytope([tuple(x + o for x, o in zip(v, offset)) for v in K.vertices])
    r1 = lattice_width(K, L)
    r2 = lattice_width(moved, L)
    assert r1.width == r2.width
    assert set(r1.minimizers) == set(r2.minimizers)


def test_width_result_internal_consistency(delta_model):
    result = lattice_width(delta_model.polytope, delta_model.lattice)
    for f in result.minimizers:
        assert width_in_direction(delta_model.polytope, f) == result.width


# -- hollowness ---------------------------------------------------------------------------


def test_model_is_hollow(delta_model):
    assert hollow_check(delta_model.polytope, delta_model.lattice).hollow


def test_unit_simplex_is_hollow():
    assert hollow_check(UNIT_SIMPLEX, Z3).hollow


def test_dilated_simplex_hollowness_threshold():
    # the k-fold unit simplex first gains an interior lattice point at k = 4:
    # the open version needs x, y, z >= 1 with x + y + z < k
    tripled = Polytope([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert hollow_check(tripled, Z3).hollow
    quadrupled = Polytope([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
    result = hollow_check(quadrupled, Z3)
    assert not result.hollow
    assert result.witness == (QSqrt2(1), QSqrt2(1), QSqrt2(1))
    facets = facet_hyperplanes(quadrupled)
    assert all(f(result.witness).sign() > 0 for f in facets)


def test_hollow_check_needs_simplex():
    with pytest.raises(DegeneratePolytopeError):
        hollow_check(UNIT_CUBE, Z3)


def _brute_force_hollow(K, L, margin=1):
    facets = facet_hyperplanes(K)
    coords = [L.coordinates(v) for v in K.vertices]
    ranges = []
    for i in range(3):
        lo = min(c[i] for c in coords).floor() - margin
        hi = -((-max(c[i] for c in coords)).floor()) + margin
        ranges.append(range(lo, hi + 1))
    for coeffs in product(*ranges):
        x = L.point(coeffs)
        if all(f(x).sign() > 0 for f in facets):
            return False
    return True


def test_hollow_agrees_with_wider_brute_force():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        K = _random_rational_tetrahedron(rng)
        assert hollow_check(K, Z3).hollow == _brute_force_hollow(K, Z3)
        checked += 1


# -- facets and barycentrics -------------------------------------------------------------------


def test_unit_simplex_facets():
    facets = facet_hyperplanes(UNIT_SIMPLEX)
    opposite_origin = facets[0]
    # facet opposite the origin is x + y + z = 1, positive at the origin side
    assert opposite_origin((0, 0, 0)).sign() > 0
    for v in UNIT_SIMPLEX.vertices[1:]:
        assert opposite_origin(v).sign() == 0


def test_facet_points_on_their_facets(delta_model):
    facets = facet_hyperplanes(delta_model.polytope)
    for i in range(4):
        assert facets[i](delta_model.facet_points[i]).sign() == 0
        assert facets[i](delta_model.vertices[i]).sign() > 0


def test_facet_points_strictly_interior(delta_model):
    for i in range(4):
        bary = barycentric_coordinates(delta_model.facet_points[i], delta_model.polytope)
        assert bary[i] == QSqrt2(0)
        for j in range(4):
            if j != i:
                assert bary[j].sign() > 0
        assert sum(bary, QSqrt2(0)) == QSqrt2(1)
