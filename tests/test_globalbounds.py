from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from widthcert import globalbounds as gb
from widthcert.exactnum import interval_eval


def reports_named(*names):
    by_name = {r.name: r for r in gb.all_reports()}
    return [by_name[name] for name in names]


def test_width_window_reports():
    floor, cap = reports_named("width_floor", "width_cap")
    assert floor.verdict and floor.relation == ">" and floor.claimed == Fr("3.414")
    assert cap.verdict and cap.relation == "<" and cap.claimed == Fr("3.972")
    assert Fr("3.9718") < cap.enclosure.lo and cap.enclosure.hi < Fr("3.9719")


def test_record_width_sits_inside_window():
    from widthcert.exactnum import alg, certify_less

    assert certify_less(gb.width_record_expr(), gb.flatness3_cap_expr())
    assert certify_less(alg(Fr("3.414")), gb.width_record_expr())


def test_shrink_constant_enclosure_and_positivity():
    (report,) = reports_named("lam1_floor")
    assert report.verdict
    assert Fr("0.3688") < report.enclosure.lo and report.enclosure.hi < Fr("0.3690")


def test_reciprocal_cube_enclosure():
    enc = interval_eval(1 / gb.min_shrink_expr() ** 3, Fr(1, 10**6))
    assert Fr("19.91") < enc.lo and enc.hi < Fr("19.92")


def test_volume_window_reports():
    lower, upper = reports_named("volume_floor", "volume_cap")
    assert lower.verdict and lower.claimed == Fr("2.653")
    assert upper.verdict and upper.claimed == Fr("19.919")


def test_volume_floor_exact_value():
    from widthcert.exactnum import QSqrt2

    # (2 + sqrt2)^3 / 15 = (20 + 14 sqrt2)/15
    assert (QSqrt2(2, 1) ** 3) / 15 == QSqrt2(Fr(20, 15), Fr(14, 15))


def test_inscribed_bounds_with_integrality_floor():
    general, tetra = gb.inscribed_volume_bounds()
    assert general.integer_cap == 44
    assert general.volume_cap == Fr(22, 3)
    assert tetra.integer_cap == 17
    assert tetra.volume_cap == Fr(17, 6)
    enc = interval_eval(1 / gb.min_shrink_expr() ** 2, Fr(1, 10**6))
    assert Fr("7.34") < enc.lo and enc.hi < Fr("7.35")
    enc6 = interval_eval(6 / gb.min_shrink_expr() ** 2, Fr(1, 10**6))
    assert Fr("44.0") < enc6.lo and enc6.hi < Fr("44.1")
    enc_t = interval_eval(Fr(2, 5) / gb.min_shrink_expr() ** 2, Fr(1, 10**6))
    assert Fr("2.93") < enc_t.lo and enc_t.hi < Fr("2.94")
    enc_t6 = interval_eval(6 * Fr(2, 5) / gb.min_shrink_expr() ** 2, Fr(1, 10**6))
    assert Fr("17.6") < enc_t6.lo and enc_t6.hi < Fr("17.7")


def test_integer_cap_rejects_a_failed_certificate():
    row = next(r for r in gb.INEQUALITIES if r.report_name == "inscribed_general")
    with pytest.raises(AssertionError, match="certification failed"):
        gb._report(replace(row, claimed=Fr(44)), gb.DEFAULT_PRECISION)


def test_global_bounds_certifies_each_inequality_once(monkeypatch, capsys):
    from widthcert.cli import EXIT_OK, main
    from widthcert.exactnum import certify_less

    calls = []

    def counting_certify_less(a, b):
        calls.append((a, b))
        return certify_less(a, b)

    # fresh rows: a row keeps its verdict once decided
    monkeypatch.setattr(gb, "INEQUALITIES", tuple(replace(row) for row in gb.INEQUALITIES))
    monkeypatch.setattr(gb, "certify_less", counting_certify_less)
    assert main(["--format", "kv", "global-bounds"]) == EXIT_OK
    assert "verdict=pass" in capsys.readouterr().out
    assert len(calls) == len(gb.INEQUALITIES) == 8


def test_all_reports_certified():
    reports = gb.all_reports()
    assert [r.name for r in reports] == [
        "width_floor", "width_cap", "lam1_floor", "volume_floor", "volume_cap",
        "inscribed_general", "inscribed_tetrahedron",
    ]
    assert all(r.verdict for r in reports)


def test_chain_replay_all_certified():
    steps = gb.replay_inequality_chain()
    assert [s.name for s in steps] == [
        "lam1_lower", "width_cap", "window_contains_record", "record_above_floor",
        "volume_floor", "volume_cap", "inscribed_general", "inscribed_tetrahedron",
    ]
    assert all(s.certified for s in steps)


def test_reports_contain_high_precision_reference():
    for report in gb.all_reports():
        tight = interval_eval(report.expression, Fr(1, 10**50))
        assert report.enclosure.lo <= tight.lo
        assert tight.hi <= report.enclosure.hi


def test_tightening_precision_preserves_verdicts():
    coarse = gb.all_reports(Fr(1, 10**6))
    fine = gb.all_reports(Fr(1, 10**12))
    for a, b in zip(coarse, fine):
        assert a.name == b.name
        assert a.verdict == b.verdict
        assert a.enclosure.contains_interval(b.enclosure)
