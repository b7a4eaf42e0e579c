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
    general, tetra = (row for row in gb.INEQUALITIES if row.integer_cap is not None)
    assert (general.report_name, tetra.report_name) == ("inscribed_general",
                                                        "inscribed_tetrahedron")
    assert general.integer_cap == 44
    assert Fr(general.integer_cap, 6) == Fr(22, 3)
    assert tetra.integer_cap == 17
    assert Fr(tetra.integer_cap, 6) == Fr(17, 6)
    assert all(row.verdict for row in (general, tetra))
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
        gb._report(row._replace(claimed=Fr(44)), gb.DEFAULT_PRECISION)


def counting_rows(monkeypatch):
    """Fresh copies of the rows in place of `INEQUALITIES`, by report name
    (a row keeps its verdict once decided), and the list of certify_less
    calls."""
    from widthcert.exactnum import certify_less

    calls = []

    def counting_certify_less(a, b):
        calls.append((a, b))
        return certify_less(a, b)

    monkeypatch.setattr(gb, "INEQUALITIES", tuple(row._replace() for row in gb.INEQUALITIES))
    monkeypatch.setattr(gb, "certify_less", counting_certify_less)
    return {row.report_name: row for row in gb.INEQUALITIES}, calls


def test_global_bounds_certifies_each_inequality_once(monkeypatch, capsys):
    from widthcert.cli import EXIT_OK, main

    rows, calls = counting_rows(monkeypatch)
    assert main(["--format", "kv", "global-bounds"]) == EXIT_OK
    assert "verdict=pass" in capsys.readouterr().out
    # one certify_less per row: a reported row's report and its chain step
    # share the one verdict
    assert len(rows) == len(gb.INEQUALITIES) == 8
    want = [(row.expression, row.claimed) if row.relation == "<"
            else (row.claimed, row.expression) for row in gb.INEQUALITIES]
    assert sorted((id(a), id(b)) for a, b in calls) == sorted((id(a), id(b)) for a, b in want)


def test_report_verdict_of_a_wrong_claim_comes_from_certify_less(monkeypatch):
    # 6/lam1^2 is about 44.05: the enclosure lies on the wrong side of 44
    rows, calls = counting_rows(monkeypatch)
    row = rows["inscribed_general"]._replace(claimed=Fr(44), integer_cap=None)
    assert gb._report(row, gb.DEFAULT_PRECISION).verdict is False
    assert len(calls) == 1


def test_report_with_an_unknown_relation_raises(monkeypatch):
    rows, _ = counting_rows(monkeypatch)
    with pytest.raises(ValueError, match="relation"):
        gb._report(rows["volume_floor"]._replace(relation="="), gb.DEFAULT_PRECISION)


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
        assert a.enclosure.lo <= b.enclosure.lo and b.enclosure.hi <= a.enclosure.hi
