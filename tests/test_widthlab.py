import random
from fractions import Fraction as Fr
from itertools import product
from math import prod

import numpy as np
import pytest

from widthcert import widthlab
from widthcert.exactlinalg import inverse_field
from widthcert.exactnum import QSqrt2
from widthcert.polyfile import format_scalar
from widthcert.widthlab import (
    AffineLattice,
    DegeneratePolytopeError,
    Functional,
    Polytope,
    SweepTooLargeError,
    WidthResult,
    _coefficient_box,
    barycentric_coordinates,
    dual_functional,
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
    """The smallest width max - min of f over the vertices, and how many f
    attain it, for every integer f in [-box, box]^3 whose first nonzero
    coordinate is positive, in int64."""
    vertices = np.array(scaled_vertices, dtype=object)
    # |f . v| <= 3 * box * max|v|, and a width is the difference of two
    assert 2 * 3 * box * int(abs(vertices).max()) < 2**63
    axis = np.arange(-box, box + 1, dtype=np.int64)
    f = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    first = f[np.arange(len(f)), np.argmax(f != 0, axis=1)]
    values = f[first > 0] @ vertices.astype(np.int64).T
    widths = values.max(axis=1) - values.min(axis=1)
    best = widths.min()
    return int(best), int(np.count_nonzero(widths == best))


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


def given_box(K, L, w0):
    """`_coefficient_box` in the given dual basis of L, unreduced."""
    diffs = widthlab._independent_differences(K)
    return _coefficient_box([[d(e) for e in diffs] for d in dual_lattice(L)], w0)


def random_tetrahedron_oracle_check(rng, box_cap=20):
    """One comparison of lattice_width against the brute-force oracle over
    integer functionals; resamples until the enumeration box fits inside the
    oracle's search box so both scan the same candidate set."""
    while True:
        K = _random_rational_tetrahedron(rng)
        duals = dual_lattice(Z3)
        w0 = min((width_in_direction(K, d) for d in duals))
        bounds = given_box(K, Z3, w0)
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


def _lattice_coordinates(L, x):
    """Coefficients of x - origin in the basis of L."""
    diff = [a - b for a, b in zip(x, L.origin)]
    return inverse_field(L.basis_matrix().transpose()).apply(diff)


def _brute_force_hollow(K, L, margin=1):
    facets = facet_hyperplanes(K)
    coords = [_lattice_coordinates(L, v) for v in K.vertices]
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


# -- the reduced sweeps against the box sweep in the given basis ---------------------------


def box_sweep_lattice_width(K, L):
    """`lattice_width` as it was before the basis reduction: it sweeps the
    whole coefficient box of the given dual basis.  The oracle of the reduced
    sweep, which must give the same width and the same minimizers in the
    same order."""
    duals = dual_lattice(L)
    w0 = None
    for d in duals:
        w = width_in_direction(K, d)
        if w0 is None or w < w0:
            w0 = w
    assert w0 is not None
    bounds = given_box(K, L, w0)
    best = w0
    best_coeffs = []
    for c in product(*[range(-b, b + 1) for b in bounds]):
        if c == (0, 0, 0):
            continue
        first = next(x for x in c if x)
        if first < 0:
            continue  # -c covered by c
        w = width_in_direction(K, dual_functional(duals, c))
        cmp = (w - best).sign()
        if cmp < 0:
            best = w
            best_coeffs = [c]
        elif cmp == 0:
            best_coeffs.append(c)
    best_coeffs.sort()
    minimizers = tuple(dual_functional(duals, c).canonical_sign() for c in best_coeffs)
    return WidthResult(width=best, minimizers=minimizers)


def _random_unimodular(rng, steps=3):
    """A seeded integer matrix of determinant +-1: row shears, then a signed
    permutation of the rows."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        q = rng.choice((-1, 1))
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[x * sign for x in row] for row, sign in zip(m, rng.choices((-1, 1), k=3))]


def _rebased(L, u, shift=(0, 0, 0)):
    """L with basis u . basis and its origin moved by a lattice vector."""
    basis = [tuple(sum((L.basis[k][r] * u[i][k] for k in range(3)), QSqrt2(0))
                   for r in range(3)) for i in range(3)]
    return AffineLattice(L.point(shift), basis)


def _delta_images(delta_model, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        u = _random_unimodular(rng)
        shift = [rng.randint(-3, 3) for _ in range(3)]
        yield delta_model.polytope, _rebased(delta_model.lattice, u, shift)


def test_reduced_width_matches_box_sweep_on_delta_images(delta_model):
    for K, L in _delta_images(delta_model, 20, seed=5):
        result = lattice_width(K, L)
        oracle = box_sweep_lattice_width(K, L)
        assert result.width == oracle.width == QSqrt2(2, 1)
        assert result.minimizers == oracle.minimizers
        assert len(result.minimizers) == 7


def test_reduced_width_matches_box_sweep_on_random_tetrahedra():
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        K = _random_rational_tetrahedron(rng)
        L = Z3 if checked % 2 == 0 else _rebased(Z3, _random_unimodular(rng, steps=2))
        # the oracle's box reaches 201 x 111 x 57 here; keep it to seconds
        w0 = min(width_in_direction(K, d) for d in dual_lattice(L))
        if prod(2 * b + 1 for b in given_box(K, L, w0)) > 20000:
            continue
        checked += 1
        result = lattice_width(K, L)
        oracle = box_sweep_lattice_width(K, L)
        assert result.width == oracle.width
        assert result.minimizers == oracle.minimizers


def test_reduced_width_matches_box_sweep_on_short_needles():
    for n in range(1, 7):
        K = _needle(n)
        assert lattice_width(K, Z3) == box_sweep_lattice_width(K, Z3)


def test_hollow_check_matches_brute_force_on_rebased_bodies(delta_model):
    rng = random.Random(31)
    bodies = [(K, L, True) for K, L in _delta_images(delta_model, 4, seed=6)]
    for k in (3, 4, 5):
        dilated = Polytope([(0, 0, 0), (k, 0, 0), (0, k, 0), (0, 0, k)])
        bodies.append((dilated, _rebased(Z3, _random_unimodular(rng)), k < 4))
    for _ in range(8):
        K = _random_rational_tetrahedron(rng)
        bodies.append((K, _rebased(Z3, _random_unimodular(rng, steps=2)), None))
    for K, L, expected in bodies:
        result = hollow_check(K, L)
        assert result.hollow == _brute_force_hollow(K, L)
        if expected is not None:
            assert result.hollow == expected
        if not result.hollow:
            assert all(x.floor() == x for x in _lattice_coordinates(L, result.witness))
            assert all(f(result.witness).sign() > 0 for f in facet_hyperplanes(K))


# -- needles: bounded work whatever their length -----------------------------------------


def _needle(n):
    """conv{0, (n, n, n+1), e1, e2}: lattice width 1 or 2, length about n."""
    return Polytope([(0, 0, 0), (n, n, n + 1), (1, 0, 0), (0, 1, 0)])


# width, number of minimizers and hollowness of each needle over Z^3
NEEDLES = {
    1: ("1", 3, True),
    2: ("1", 1, True),
    3: ("2", 9, False),
    10: ("2", 3, False),
    30: ("2", 3, False),
    1000: ("2", 3, False),
}
# a skew unimodular basis, so the given basis is far from reduced
SKEW = ((1, 1, 0), (1, 2, 1), (0, 1, 2))


@pytest.mark.parametrize("skew", [False, True])
@pytest.mark.parametrize("n", sorted(NEEDLES))
def test_needle_invariants_within_a_fixed_amount_of_work(n, skew, monkeypatch):
    calls = {"candidates": 0, "points": 0}
    width = widthlab.width_in_direction
    point = AffineLattice.point

    def counted_width(K, f):
        calls["candidates"] += 1
        return width(K, f)

    def counted_point(self, coeffs):
        calls["points"] += 1
        return point(self, coeffs)

    L = _rebased(Z3, SKEW) if skew else Z3
    monkeypatch.setattr(widthlab, "width_in_direction", counted_width)
    monkeypatch.setattr(AffineLattice, "point", counted_point)
    result = lattice_width(_needle(n), L)
    hollow = hollow_check(_needle(n), L).hollow
    assert (format_scalar(result.width), len(result.minimizers), hollow) == NEEDLES[n]
    assert calls["candidates"] <= 200
    assert calls["points"] <= 20


@pytest.mark.parametrize("skew", [False, True])
def test_long_hollow_simplex_takes_one_fibre(skew, monkeypatch):
    # conv{0, 2e1, 2e2, 10^7 e3}: one integer strictly inside the range of x
    # and of y, 10^7 - 1 inside that of z; fibres must run along z
    monkeypatch.setattr(widthlab, "MAX_SWEEP", 1)
    K = Polytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 10**7)])
    assert hollow_check(K, _rebased(Z3, SKEW) if skew else Z3).hollow


def test_sweeps_over_the_cap_are_refused_before_they_start(delta_model, monkeypatch):
    calls = []
    width = widthlab.width_in_direction

    def counted_width(K, f):
        calls.append(f)
        return width(K, f)

    monkeypatch.setattr(widthlab, "width_in_direction", counted_width)
    monkeypatch.setattr(widthlab, "MAX_SWEEP", 2)
    with pytest.raises(SweepTooLargeError, match="lattice width candidate sweep"):
        lattice_width(delta_model.polytope, delta_model.lattice)
    assert len(calls) == 3  # the three reduced dual directions that bound w0
    with pytest.raises(SweepTooLargeError, match="hollowness fibre sweep"):
        hollow_check(Polytope([(0, 0, 0), (9, 0, 0), (0, 9, 0), (0, 0, 9)]), Z3)


# -- the exact reduction ------------------------------------------------------------------


def _random_qsqrt2_tetrahedron(rng):
    def coordinate():
        return QSqrt2(rng.randint(-4, 4), rng.randint(-4, 4)) / rng.randint(1, 3)

    while True:
        try:
            K = Polytope([[coordinate() for _ in range(3)] for _ in range(4)])
        except ValueError:
            continue
        if K.is_simplex():
            return K


def _reduction_bodies(delta_model):
    """Seeded unimodular images of Delta, needles N = 1 ... 10^300 over Z^3 and a
    skew basis, and random Q(sqrt2) tetrahedra over rebased Q(sqrt2) lattices."""
    yield from _delta_images(delta_model, 8, seed=7)
    for n in (1, 2, 3, 10, 10**3, 10**10, 10**30, 10**100, 10**300):
        yield _needle(n), Z3
        yield _needle(n), _rebased(Z3, SKEW)
    rng = random.Random(43)
    sqrt2_basis = AffineLattice((0, 0, 0), ((1, QSqrt2(0, 1), 0), (0, 1, QSqrt2(0, 1)), (1, 0, 2)))
    for _ in range(12):
        yield _random_qsqrt2_tetrahedron(rng), _rebased(sqrt2_basis, _random_unimodular(rng, 4))


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _gram_schmidt(rows):
    """Squared norms of the Gram-Schmidt vectors b*_i and the mu[i, j]."""
    star, norms, mu = [], [], {}
    for i, row in enumerate(rows):
        v = row
        for j in range(i):
            mu[i, j] = sum((x * y for x, y in zip(row, star[j])), QSqrt2(0)) / norms[j]
            v = [x - mu[i, j] * y for x, y in zip(v, star[j])]
        star.append(v)
        norms.append(sum((x * x for x in v), QSqrt2(0)))
    return norms, mu


def test_lll_rows_are_size_reduced_and_lovasz_exactly(delta_model):
    for K, L in _reduction_bodies(delta_model):
        diffs = widthlab._independent_differences(K)
        G = [[d(e) for e in diffs] for d in dual_lattice(L)]
        U, reduced = widthlab._lll(G)
        assert abs(_det3(U)) == 1
        assert reduced == tuple(
            tuple(sum((G[k][j] * U[i][k] for k in range(3)), QSqrt2(0)) for j in range(3))
            for i in range(3))
        norms, mu = _gram_schmidt(reduced)
        assert all(abs(m) <= QSqrt2(Fr(1, 2)) for m in mu.values())
        for k in (1, 2):
            assert norms[k] >= (QSqrt2(Fr(3, 4)) - mu[k, k - 1] ** 2) * norms[k - 1]


def test_reduced_basis_pairs_with_reduced_duals(delta_model):
    for K, L in _reduction_bodies(delta_model):
        lattice, duals, U, G = widthlab._reduce(K, L)
        assert abs(_det3(U)) == 1
        diffs = widthlab._independent_differences(K)
        assert G == tuple(tuple(d(e) for e in diffs) for d in duals)
        assert lattice.origin == L.origin
        assert duals == tuple(dual_functional(dual_lattice(L), row) for row in U)
        for i, b in enumerate(lattice.basis):
            assert [d(b) for d in duals] == [QSqrt2(int(i == j)) for j in range(3)]


@pytest.fixture
def lll_calls(monkeypatch):
    """The rows of every `_lll` call from here on, with the reduction cache empty."""
    calls = []
    lll = widthlab._lll

    def counted_lll(rows):
        calls.append(rows)
        return lll(rows)

    monkeypatch.setattr(widthlab, "_lll", counted_lll)
    widthlab._reduce.cache_clear()
    return calls


def test_one_reduction_serves_width_and_hollowness(delta_model, lll_calls):
    K, L = delta_model.polytope, delta_model.lattice
    assert lattice_width(K, L).width == QSqrt2(2, 1)
    assert hollow_check(K, L).hollow
    assert len(lll_calls) == 1
    needle = _needle(3)
    assert not hollow_check(needle, Z3).hollow
    assert lattice_width(needle, Z3).width == QSqrt2(2)
    assert len(lll_calls) == 2


def test_consecutive_bodies_never_share_a_reduction(delta_model, lll_calls):
    bodies = list(_reduction_bodies(delta_model))
    fresh = []
    for K, L in bodies:
        widthlab._reduce.cache_clear()
        fresh.append((lattice_width(K, L), hollow_check(K, L)))
    widthlab._reduce.cache_clear()
    del lll_calls[:]
    # each body after another, the first again, then a copy of its polytope
    for (K, L), expected in zip(bodies + bodies[:1], fresh + fresh[:1]):
        assert lattice_width(K, L) == expected[0]
        assert hollow_check(K, L) == expected[1]
    K, L = bodies[0]
    assert lattice_width(Polytope(K.vertices), L) == fresh[0][0]
    assert len(lll_calls) == len(bodies) + 2


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
