from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthcert.exactnum import (
    IntervalDomainError,
    QSqrt2,
    RatInterval,
    SQRT2,
    UndecidedComparison,
    alg,
    cbrt,
    certify_less,
    interval_eval,
    nth_root_enclosure,
    sqrt,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
qsqrt2s = st.builds(QSqrt2, rationals, rationals)
nonzero_qsqrt2s = qsqrt2s.filter(lambda x: bool(x))


# -- arithmetic ----------------------------------------------------------------


def test_square_of_two_plus_sqrt2():
    a = QSqrt2(2, 1)
    assert a * a == QSqrt2(6, 4)


def test_conjugate_product_is_rational():
    assert QSqrt2(1, 1) * QSqrt2(-1, 1) == QSqrt2(1)


def test_cube_of_two_plus_sqrt2():
    assert QSqrt2(2, 1) ** 3 == QSqrt2(20, 14)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QSqrt2(1) / QSqrt2(0)


def test_inverse_via_conjugate():
    a = QSqrt2(Fr(3, 4), Fr(-2, 7))
    assert a * a.inverse() == QSqrt2(1)


@given(qsqrt2s, qsqrt2s, qsqrt2s)
def test_field_axioms_add_mul(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(nonzero_qsqrt2s)
def test_field_axioms_inverse(a):
    assert a * a.inverse() == QSqrt2(1)


# -- sign and floor --------------------------------------------------------------


def test_sign_examples():
    assert QSqrt2(0, 0).sign() == 0
    assert QSqrt2(-1, 1).sign() == 1
    # difference of the two linear-form coefficient sums
    assert (QSqrt2(112, 64) - QSqrt2(192, 128)).sign() == -1
    assert QSqrt2(-80, -64).sign() == -1


def test_floor_examples():
    assert SQRT2.floor() == 1
    assert QSqrt2(2, 1).floor() == 3
    assert (-QSqrt2(2, 1)).floor() == -4
    assert QSqrt2(Fr(7, 2)).floor() == 3
    assert QSqrt2(-3).floor() == -3


@given(qsqrt2s)
@settings(max_examples=200)
def test_sign_matches_interval_evaluation(a):
    enc = a.enclosure(Fr(1, 10**30))
    if enc.lo > 0:
        assert a.sign() == 1
    elif enc.hi < 0:
        assert a.sign() == -1
    else:
        # only the exact zero straddles at this precision
        assert a.sign() == 0 or enc.width() > 0


@given(qsqrt2s)
def test_floor_brackets_value(a):
    f = a.floor()
    assert (a - f).sign() >= 0
    assert (a - (f + 1)).sign() < 0


def test_ordering_total():
    values = [QSqrt2(2, -1), QSqrt2(0, 1), QSqrt2(1), QSqrt2(-1, 1)]
    ordered = sorted(values)
    signs = [(ordered[i + 1] - ordered[i]).sign() for i in range(len(ordered) - 1)]
    assert all(s >= 0 for s in signs)


# -- intervals ---------------------------------------------------------------------


def test_interval_requires_order():
    with pytest.raises(ValueError):
        RatInterval(Fr(1), Fr(0))


def test_interval_mul_contains_products():
    a = RatInterval(Fr(-2), Fr(3))
    b = RatInterval(Fr(1, 2), Fr(5))
    prod = a * b
    for x in (Fr(-2), Fr(0), Fr(3)):
        for y in (Fr(1, 2), Fr(2), Fr(5)):
            assert prod.lo <= x * y <= prod.hi


def test_interval_reciprocal_zero_raises():
    with pytest.raises(IntervalDomainError):
        RatInterval(Fr(-1), Fr(1)).reciprocal()


def test_cbrt_of_eight():
    enc = interval_eval(cbrt(8), Fr(1, 10**6))
    assert enc.lo <= 2 <= enc.hi
    assert enc.width() <= Fr(1, 10**6)


def test_flatness_cap_enclosure():
    expr = 1 + 2 / sqrt(3) + 2 * cbrt(Fr(3, 4))
    enc = interval_eval(expr, Fr(1, 10**6))
    assert Fr("3.9718") < enc.lo and enc.hi < Fr("3.9719")


def test_volume_floor_enclosure():
    expr = alg(QSqrt2(2, 1)) ** 3 / 15
    enc = interval_eval(expr, Fr(1, 10**6))
    assert Fr("2.6532") < enc.lo and enc.hi < Fr("2.6534")
    # the exact value is (20 + 14 sqrt2)/15
    exact = (QSqrt2(2, 1) ** 3) / 15
    assert exact == QSqrt2(Fr(20, 15), Fr(14, 15))


def test_interval_eval_rejects_bad_precision():
    with pytest.raises(ValueError):
        interval_eval(alg(1), Fr(0))


def test_division_by_exact_zero_interval_raises():
    with pytest.raises(IntervalDomainError):
        interval_eval(alg(1) / (alg(1) - alg(1)), Fr(1, 100))


@given(st.fractions(min_value=Fr(1, 100), max_value=100, max_denominator=100), st.integers(2, 3))
def test_nth_root_enclosure_contains_root(x, n):
    enc = nth_root_enclosure(RatInterval.point(x), n, 80)
    assert enc.lo**n <= x <= enc.hi**n


def test_enclosure_refinement_is_nested():
    expr = 1 + 2 / sqrt(3) + 2 * cbrt(Fr(3, 4))
    coarse = interval_eval(expr, Fr(1, 10**3))
    fine = interval_eval(expr, Fr(1, 10**9))
    finer = interval_eval(expr, Fr(1, 10**15))
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    assert fine.lo <= finer.lo and finer.hi <= fine.hi


def test_interval_eval_contains_high_precision_reference():
    cases = [
        1 + 2 / sqrt(3) + 2 * cbrt(Fr(3, 4)),
        alg(QSqrt2(2, 1)) ** 3 / 15,
        1 - (1 + 2 / sqrt(3)) / alg(QSqrt2(2, 1)),
    ]
    for expr in cases:
        rough = interval_eval(expr, Fr(1, 10**6))
        reference = interval_eval(expr, Fr(1, 10**100))
        assert rough.lo <= reference.lo <= rough.hi
        assert rough.lo <= reference.hi <= rough.hi


# -- certified comparisons ------------------------------------------------------------


def test_certify_less_simple():
    assert certify_less(alg(QSqrt2(2, 1)), alg(Fr("3.4143")))


def test_certify_less_flatness():
    expr = 1 + 2 / sqrt(3) + 2 * cbrt(Fr(3, 4))
    assert certify_less(expr, alg(Fr("3.972")))


def test_certify_less_reciprocal_cube_both_directions():
    shrink = 1 - (1 + 2 / sqrt(3)) / alg(QSqrt2(2, 1))
    bound = 1 / shrink**3
    assert certify_less(alg(Fr("19.919")), bound) is False
    assert certify_less(bound, alg(Fr("19.919"))) is True


def test_certify_less_equal_values_undecided():
    with pytest.raises(UndecidedComparison):
        certify_less(sqrt(2), sqrt(2), min_width=Fr(1, 10**6))
