import random
from fractions import Fraction as Fr

import pytest

from widthcert.exactnum import QSqrt2
from widthcert.mvpoly import (
    LinearSubstitution,
    MvPoly,
    UniPoly,
    cauchy_companion,
    companion_root_enclosure,
    graded_lex_key,
    linear_combination,
)


def x(i, n=3):
    return MvPoly.variable(i, n)


def const(c, n=3):
    return MvPoly.constant(c, n)


# -- ring operations -------------------------------------------------------------


def test_conjugate_factorization():
    p = (x(0) + const(QSqrt2(0, 1))) * (x(0) - const(QSqrt2(0, 1)))
    assert p == x(0) * x(0) - const(2)


def test_additive_identity():
    p = x(0) * x(1) + const(5)
    assert p + MvPoly.zero(3) == p


def test_binomial_cube():
    p = (x(0) + x(1)) ** 3
    assert len(p.terms) == 4
    assert p.terms[(3, 0, 0)] == QSqrt2(1)
    assert p.terms[(2, 1, 0)] == QSqrt2(3)
    assert p.terms[(1, 2, 0)] == QSqrt2(3)
    assert p.terms[(0, 3, 0)] == QSqrt2(1)


def test_variable_count_mismatch_raises():
    with pytest.raises(ValueError):
        x(0, 3) + x(0, 4)


def _random_poly(rng, nvars=4, max_degree=3, terms=6):
    out = {}
    for _ in range(terms):
        m = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            m[rng.randrange(nvars)] += 1
        out[tuple(m)] = QSqrt2(Fr(rng.randint(-9, 9), rng.randint(1, 4)),
                               Fr(rng.randint(-9, 9), rng.randint(1, 4)))
    return MvPoly(nvars, out)


def _random_point(rng, nvars=4):
    return [QSqrt2(Fr(rng.randint(-3, 3), rng.randint(1, 3)),
                   Fr(rng.randint(-2, 2), rng.randint(1, 3)))
            for _ in range(nvars)]


def test_graded_parts_sum_to_poly():
    rng = random.Random(7)
    for _ in range(20):
        p = _random_poly(rng)
        total = MvPoly.zero(p.nvars)
        for d in range(p.degree() + 1):
            total = total + p.graded_part(d)
        assert total == p


def test_graded_part_of_missing_degree_is_zero():
    p = x(0) * x(0) + x(0) + const(1)
    assert p.graded_part(3) == MvPoly.zero(3)


# -- evaluation ----------------------------------------------------------------------


def _naive_evaluate(poly, point):
    """Reference value: the plain QSqrt2 sum over terms of c_m * x^m."""
    total = QSqrt2(0)
    for m, c in poly.terms.items():
        v = c
        for xi, e in zip(point, m):
            v = v * xi ** e
        total = total + v
    return total


def _random_scalar(rng, zero_rat=False, zero_irr=False):
    rat = 0 if zero_rat else Fr(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
    irr = 0 if zero_irr else Fr(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
    return QSqrt2(rat, irr)


def test_evaluate_matches_naive_sum_of_terms():
    rng = random.Random(11)
    nvars = 3
    polys = [MvPoly(nvars), MvPoly.constant(QSqrt2(Fr(-5, 6), Fr(3, 4)), nvars)]
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            m = tuple(rng.randint(0, 4) for _ in range(nvars))
            terms[m] = _random_scalar(rng, zero_rat=rng.random() < 0.3,
                                      zero_irr=rng.random() < 0.3)
        polys.append(MvPoly(nvars, terms))
    points = [
        [_random_scalar(rng) for _ in range(nvars)],
        [_random_scalar(rng, zero_rat=True), _random_scalar(rng, zero_irr=True),
         QSqrt2(Fr(1, 9))],
        [QSqrt2(0), QSqrt2(0, Fr(-2, 5)), QSqrt2(Fr(7, 4), Fr(1, 6))],
        [Fr(3, 8), 2, Fr(-1, 3)],
    ]
    for poly in polys:
        for point in points:
            assert poly.evaluate(point) == _naive_evaluate(poly, [QSqrt2.coerce(x) for x in point])


# -- term maps built without the constructor's checks ------------------------------------


def _assert_clean(p):
    """p's term map is what the public constructor makes of it, with no zero."""
    assert all(type(m) is tuple and len(m) == p.nvars and all(type(e) is int and e >= 0 for e in m)
               for m in p.terms)
    assert all(type(c) is QSqrt2 and c for c in p.terms.values())
    assert MvPoly(p.nvars, dict(p.terms)) == p


def test_ring_operations_build_clean_term_maps():
    rng = random.Random(5)
    matrix = [[_random_scalar(rng) for _ in range(3)] for _ in range(3)]
    for _ in range(12):
        p, q = _random_poly(rng, nvars=3, terms=10), _random_poly(rng, nvars=3, terms=10)
        # overlapping terms that cancel exactly
        r = q + MvPoly(3, {m: -c for m, c in list(p.terms.items())[::2]})
        results = [p + q, p + r, p - p, p - q, -p, p * q, p * (q - q), p.scale(QSqrt2(Fr(-2, 3), 1)),
                   p.scale(0), p.substitute_linear(matrix),
                   (p + x(0)).substitute_linear([[1, 0, 0], [1, 0, 0], [0, 0, 0]])]
        for result in results:
            _assert_clean(result)
        assert p - p == MvPoly.zero(3) and (p + r) - r == p
    # a result never shares its term map with an operand
    p = _random_poly(rng, nvars=3)
    assert (p + MvPoly.zero(3)).terms is not p.terms


def test_substitute_linear_cancels_to_zero():
    # p(A x) with A sending x0 and x1 to the same form: x0 - x1 -> 0
    p = x(0) - x(1) + (x(0) * x(0) - x(1) * x(1)).scale(QSqrt2(0, 1))
    image = p.substitute_linear([[1, 2, 0], [1, 2, 0], [0, 0, 1]])
    assert image == MvPoly.zero(3) and image.terms == {}


# -- differential check against per-term QSqrt2 arithmetic -------------------------------


def _naive_sum(nvars, products):
    """The reference polynomial of a list of (monomial, QSqrt2) products: each
    is added into the term map by one `QSqrt2` sum, with no common
    denominator, and a sum that reaches zero is dropped."""
    terms = {}
    for m, c in products:
        total = terms.get(m, QSqrt2(0)) + c
        if total:
            terms[m] = total
        else:
            terms.pop(m, None)
    return MvPoly(nvars, terms)


def _naive_mul(p, q):
    return _naive_sum(p.nvars, [(tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
                                for m1, c1 in p.terms.items() for m2, c2 in q.terms.items()])


def _naive_substitute(p, matrix):
    products = []
    for m, c in p.terms.items():
        image = [((0,) * p.nvars, c)]
        for i, e in enumerate(m):
            for _ in range(e):
                image = [(y[:j] + (y[j] + 1,) + y[j + 1:], v * QSqrt2.coerce(a))
                         for y, v in image for j, a in enumerate(matrix[i])]
        products += image
    return _naive_sum(p.nvars, products)


def _mixed_polys(rng, nvars, count):
    """Seeded pairs (p, q) with denominators 1 to 12, sqrt2 parts, and terms
    that cancel exactly in p + q, in p - q or in p * q."""
    def poly():
        return MvPoly(nvars, {tuple(rng.randint(0, 2) for _ in range(nvars)):
                              _random_scalar(rng, zero_rat=rng.random() < 0.2,
                                             zero_irr=rng.random() < 0.3)
                              for _ in range(rng.randint(1, 8))})

    pairs = []
    for _ in range(count):
        p, q, r = poly(), poly(), poly()
        half = MvPoly(nvars, dict(list(p.terms.items())[::2]))
        pairs += [(p, q), (p, q - half), (p, q + half), (p + r, p - r), (p, p)]
    return pairs


def test_ring_operations_match_per_term_arithmetic():
    rng = random.Random(43)
    matrix = [[_random_scalar(rng) if rng.random() < 0.7 else 0 for _ in range(3)]
              for _ in range(3)]
    matrix[1] = list(matrix[0])  # x0 - x1 maps to zero
    sub = LinearSubstitution(matrix)
    weight = QSqrt2(Fr(-5, 6), Fr(7, 4))
    for p, q in _mixed_polys(rng, 3, 12):
        items = list(p.terms.items())
        checks = [
            (p * q, _naive_mul(p, q)),
            (p + q, _naive_sum(3, items + list(q.terms.items()))),
            (p - q, _naive_sum(3, items + [(m, -c) for m, c in q.terms.items()])),
            (p.scale(weight), _naive_sum(3, [(m, c * weight) for m, c in items])),
            (linear_combination(3, [(weight, p), (Fr(3, 10), q), (-weight, p)]),
             _naive_sum(3, [(m, c * Fr(3, 10)) for m, c in q.terms.items()])),
            (p.substitute_linear(sub), _naive_substitute(p, matrix)),
            (q.substitute_linear(sub), _naive_substitute(q, matrix)),
        ]
        checks += [(p.partial(i), _naive_sum(3, [(m[:i] + (m[i] - 1,) + m[i + 1:], c * m[i])
                                                  for m, c in items if m[i]]))
                   for i in range(3)]
        checks += [(p.graded_part(d), _naive_sum(3, [(m, c) for m, c in items if sum(m) == d]))
                   for d in range(7)]
        for result, expected in checks:
            assert result == expected
            _assert_clean(result)


# -- calculus ------------------------------------------------------------------------


def test_gradient_of_product_at_zero():
    p = x(0) * x(1)
    assert p.gradient_at_zero() == [QSqrt2(0)] * 3


def test_hessian_of_quadratic_is_constant():
    p = x(0) * x(0) + x(0) * x(1)
    h = p.hessian()
    assert h[0][0] == const(2)
    assert h[0][1] == const(1)
    assert h[1][0] == const(1)
    assert h[1][1] == MvPoly.zero(3)


def _fd_gradient(p, point, i, h):
    # five-point central difference: exact for polynomials of degree <= 4
    def shift(k):
        q = list(point)
        q[i] = q[i] + QSqrt2.coerce(h) * k
        return q

    num = (-p.evaluate(shift(2)) + p.evaluate(shift(1)) * 8
           - p.evaluate(shift(-1)) * 8 + p.evaluate(shift(-2)))
    return num / (QSqrt2.coerce(h) * 12)


def test_gradient_matches_finite_differences_exactly():
    rng = random.Random(11)
    for _ in range(10):
        p = _random_poly(rng, max_degree=3)
        point = _random_point(rng)
        grad = p.gradient()
        i = rng.randrange(p.nvars)
        fd = _fd_gradient(p, point, i, Fr(1, 7))
        assert fd == grad[i].evaluate(point)


def test_hessian_matches_finite_differences_exactly():
    rng = random.Random(13)
    for _ in range(6):
        p = _random_poly(rng, max_degree=3)
        point = _random_point(rng)
        hess = p.hessian()
        i = rng.randrange(p.nvars)
        j = rng.randrange(p.nvars)
        fd = _fd_gradient(p.partial(j), point, i, Fr(1, 5))
        assert fd == hess[j][i].evaluate(point)
        assert hess[i][j] == hess[j][i]


def _cancelling_polys(rng, nvars, max_degree, count):
    """Seeded polynomials, each a sum whose operands cancel in some terms."""
    out = []
    for _ in range(count):
        p = _random_poly(rng, nvars=nvars, max_degree=max_degree, terms=12)
        q = _random_poly(rng, nvars=nvars, max_degree=max_degree, terms=12)
        out.append(p + q - MvPoly(nvars, dict(list(p.terms.items())[::2])))
    return out


def test_hessian_is_the_partial_of_the_partial():
    # the symmetric fill of `hessian` against every ordered pair of partials
    rng = random.Random(23)
    polys = _cancelling_polys(rng, nvars=8, max_degree=4, count=12)
    for p in polys + [MvPoly.zero(8), const(QSqrt2(2, -1), 8)]:
        hess = p.hessian()
        for i in range(8):
            for j in range(8):
                assert hess[i][j] == p.partial(i).partial(j)
                _assert_clean(hess[i][j])


# -- substitution -----------------------------------------------------------------------


def expand_linear(p, matrix):
    """p(A*x) from each term's product of powers of the row forms, with no
    monomial kept between terms or calls: the oracle of `LinearSubstitution`."""
    n = p.nvars
    images = [MvPoly(n, {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(row)})
              for row in matrix]
    out = MvPoly.zero(n)
    for m, c in p.terms.items():
        term = MvPoly.constant(c, n)
        for i, e in enumerate(m):
            term = term * images[i] ** e
        out = out + term
    return out


def test_cached_substitution_is_the_expansion():
    # one substitution serves every polynomial, so later ones reuse the
    # monomial images of earlier ones; each equals its own expansion
    rng = random.Random(29)
    matrix = [[_random_scalar(rng) if rng.random() < 0.6 else 0 for _ in range(5)]
              for _ in range(5)]
    sub = LinearSubstitution(matrix)
    polys = _cancelling_polys(rng, nvars=5, max_degree=4, count=10)
    polys += [MvPoly.zero(5), const(0, 5), const(QSqrt2(Fr(-3, 2), 1), 5)]
    for p in polys + polys[::-1]:
        image = p.substitute_linear(sub)
        assert image == expand_linear(p, matrix) == p.substitute_linear(matrix)
        _assert_clean(image)
    assert MvPoly.zero(5).substitute_linear(sub).terms == {}
    assert const(7, 5).substitute_linear(sub) == const(7, 5)


def test_substitution_rejects_a_mismatched_matrix():
    with pytest.raises(ValueError):
        LinearSubstitution([[1, 0], [0]])
    with pytest.raises(ValueError):
        x(0).substitute_linear([[1, 0], [0, 1]])




def test_substitute_identity():
    p = x(0)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert p.substitute_linear(eye) == p


def test_substitute_scaling():
    p = x(0) * x(0)
    two = [[2 if i == j else 0 for j in range(3)] for i in range(3)]
    assert p.substitute_linear(two) == p.scale(4)


def test_substitute_round_trip():
    from widthcert.exactlinalg import QMatrix, inverse_field

    rng = random.Random(17)
    entries = [[QSqrt2(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(4)]
               for _ in range(4)]
    entries[0][0] = entries[0][0] + QSqrt2(3)  # push away from singular
    entries[1][1] = entries[1][1] + QSqrt2(3)
    entries[2][2] = entries[2][2] + QSqrt2(3)
    entries[3][3] = entries[3][3] + QSqrt2(3)
    A = QMatrix(entries)
    Ainv = inverse_field(A)
    for _ in range(10):
        p = _random_poly(rng)
        assert p.substitute_linear(A.rows).substitute_linear(Ainv.rows) == p


def test_substitute_degree_does_not_increase():
    rng = random.Random(19)
    p = _random_poly(rng)
    A = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    assert p.substitute_linear(A).degree() <= p.degree()


# -- term order ---------------------------------------------------------------------------


def test_graded_lex_order_on_serialization():
    # repr is the one text form; it lists terms by total degree, then lex
    p = x(1) * x(1) + x(0) * x(1) + x(0) * x(0) + x(1) + x(0) + const(3)
    assert repr(p) == "(3) + (1)*x0 + (1)*x1 + (1)*x0^2 + (1)*x0*x1 + (1)*x1^2"
    assert sorted(p.terms, key=graded_lex_key) == [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 2, 0)]


# -- companion root bound ---------------------------------------------------------------------


def test_companion_linear_example():
    f = x(0) + x(1) - const(1)
    f0 = cauchy_companion(f)
    assert f0 == UniPoly([QSqrt2(-1), QSqrt2(2)])


def test_companion_with_sqrt2_coefficients():
    f = (x(0) * x(1)).scale(3) - x(0).scale(QSqrt2(0, 1)) - const(1)
    f0 = cauchy_companion(f)
    assert f0 == UniPoly([QSqrt2(-1), QSqrt2(0, 1), QSqrt2(3)])


def _companion_per_term(f):
    """Reference: the plain QSqrt2 sum of |c| per degree, term by term."""
    out = [QSqrt2(0)] * (f.degree() + 1)
    for m, c in f.terms.items():
        out[sum(m)] = out[sum(m)] + abs(c)
    out[0] = -abs(f.constant_term())
    return UniPoly(out)


def test_companion_matches_the_per_term_sum():
    rng = random.Random(23)
    polys = [x(0) + x(1) - const(1), const(QSqrt2(Fr(-1, 3), Fr(1, 2)))]
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 30)):
            m = tuple(rng.randint(0, 3) for _ in range(3))
            # negative irrational parts, and rational parts of either sign
            # so that a + b*sqrt2 changes sign against its parts
            terms[m] = QSqrt2(Fr(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 7))),
                              Fr(-rng.randint(0, 7), rng.choice((1, 2, 3, 5))))
        terms[(0, 0, 0)] = _random_scalar(rng) or QSqrt2(1)
        polys.append(MvPoly(3, terms))
    for f in polys:
        assert cauchy_companion(f) == _companion_per_term(f)


def test_companion_rejects_zero_constant():
    with pytest.raises(ValueError):
        cauchy_companion(x(0))


def test_root_bound_linear():
    f0 = UniPoly([QSqrt2(-1), QSqrt2(2)])
    r = companion_root_enclosure(f0, Fr(1, 10**7))[0]
    assert Fr("0.4999999") <= r < Fr(1, 2)


def test_root_bound_quadratic_against_closed_form():
    # x^2 + 3x - 2 has positive root (-3 + sqrt(17))/2
    f0 = UniPoly([QSqrt2(-2), QSqrt2(3), QSqrt2(1)])
    lo, hi = companion_root_enclosure(f0, Fr(1, 10**9))
    # closed-form check: the root r satisfies r^2 + 3r - 2 = 0
    assert (lo * lo + 3 * lo - 2) < 0 <= (hi * hi + 3 * hi - 2)
    assert Fr("0.5615527") < lo < Fr("0.5615529")


def test_root_bound_rejects_wrong_shape():
    with pytest.raises(ValueError):
        companion_root_enclosure(UniPoly([QSqrt2(1), QSqrt2(1)]))  # positive constant
    with pytest.raises(ValueError):
        companion_root_enclosure(UniPoly([QSqrt2(-1), QSqrt2(-1), QSqrt2(1)]))


@pytest.mark.parametrize("tol", [Fr(0), Fr(-1, 10**7)])
def test_root_bound_rejects_nonpositive_tolerance(tol):
    # the bisection would never reach a width of 0 or below
    with pytest.raises(ValueError, match="tolerance must be positive"):
        companion_root_enclosure(UniPoly([QSqrt2(-1), QSqrt2(1)]), tol)


def test_root_bound_bracket_grows_when_needed():
    # root is 100: the seeded upper bracket is too small and must be grown
    f0 = UniPoly([QSqrt2(-100), QSqrt2(1)])
    r = companion_root_enclosure(f0, Fr(1, 10**4))[0]
    assert Fr(100) - Fr(1, 10**4) <= r < Fr(100)


def fraction_bisection(f0, tol):
    """The bisection on `Fraction` midpoints, each decided by
    `UniPoly.evaluate`: the oracle of `companion_root_enclosure`'s
    brackets, for companions of the valid shape."""
    tol = Fr(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    coeffs = f0.coeffs
    total = QSqrt2(0)
    for c in coeffs[1:]:
        total = total + c
    hi = 1 + (total / abs(coeffs[0])).enclosure(Fr(1, 4)).hi
    while f0.evaluate(hi).sign() <= 0:
        hi = 2 * hi + 1
    lo = Fr(0)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f0.evaluate(mid).sign() < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _random_companion(rng, degree):
    def scalar():
        return QSqrt2(Fr(rng.randint(0, 9), rng.choice((1, 2, 3, 7))),
                      Fr(rng.randint(0, 5), rng.choice((1, 2, 5))))
    coeffs = [-(scalar() or QSqrt2(1))] + [rng.choice((QSqrt2(0), scalar())) for _ in range(degree)]
    coeffs[-1] = coeffs[-1] or QSqrt2(Fr(1, 3), 1)
    return UniPoly(coeffs)


def test_root_bound_matches_the_fraction_bisection():
    rng = random.Random(41)
    for degree in range(1, 17):
        for _ in range(4):
            f0 = _random_companion(rng, degree)
            for tol in (Fr(1, 10**7), Fr(1, 10**9), Fr(3, 7), Fr(10**6)):
                assert companion_root_enclosure(f0, tol) == fraction_bisection(f0, tol)


def test_root_bound_with_the_root_at_a_midpoint():
    # -1 + x + 2x^2 = (2x - 1)(x + 1): the bracket is [0, 4] and the third
    # midpoint, 1/2, is the root, where the companion is exactly 0
    f0 = UniPoly([QSqrt2(-1), QSqrt2(1), QSqrt2(2)])
    lo, hi = companion_root_enclosure(f0, Fr(1, 10**7))
    assert (lo, hi) == fraction_bisection(f0, Fr(1, 10**7))
    assert hi == Fr(1, 2) and lo < hi
    # with the root 1 = 2/2 the first midpoint already hits it
    f0 = UniPoly([QSqrt2(-1), QSqrt2(1)])
    assert companion_root_enclosure(f0, Fr(1, 10**5)) == fraction_bisection(f0, Fr(1, 10**5))
    assert companion_root_enclosure(f0, Fr(1, 10**5))[1] == 1


@pytest.mark.parametrize("c", [QSqrt2(3, -2), QSqrt2(-3, 2), QSqrt2(7, -5), QSqrt2(-7, 5),
                               QSqrt2(99, -70), QSqrt2(-99, 70), QSqrt2(Fr(99, 4), Fr(-35, 2))])
def test_companion_signs_near_the_boundary(c):
    # |a| close to sqrt2*|b|: the sign of a + b*sqrt2 hangs on a^2 against 2b^2
    for f in (x(0).scale(c) + const(1), (x(0) * x(1)).scale(c) + x(2).scale(-c) - const(c),
              x(0).scale(c) + x(1).scale(-c) + x(2).scale(QSqrt2(Fr(1, 3), 1)) + const(c)):
        assert cauchy_companion(f) == _companion_per_term(f)


def test_sign_constancy_inside_certified_ball():
    rng = random.Random(29)
    checked = 0
    for _ in range(40):
        f = _random_poly(rng, nvars=3, max_degree=3, terms=5)
        if not f.constant_term():
            continue
        r = companion_root_enclosure(cauchy_companion(f), Fr(1, 10**6))[0]
        base_sign = f.constant_term().sign()
        for _ in range(40):
            z = [QSqrt2(Fr(rng.randint(-999, 999), 1000) * r * Fr(99, 100)) for _ in range(3)]
            assert f.evaluate(z).sign() == base_sign
            checked += 1
    assert checked > 500
