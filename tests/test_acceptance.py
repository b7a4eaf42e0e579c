"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Criterion 4 runs the full degree-16 determinant condition (iv) at the
three published weights, through one `certify-neighborhood --with-hessian`
call checked against its golden output."""

import random
import time
from fractions import Fraction as Fr

from widthcert import deltacert as dc
from widthcert import fastdet
from widthcert import globalbounds as gb
from widthcert.cli import EXIT_OK
from widthcert.exactnum import QSqrt2, interval_eval
from widthcert.exactlinalg import adjugate_poly
from widthcert.mvpoly import MvPoly, cauchy_companion, companion_root_enclosure
from widthcert.widthlab import Functional, dual_lattice, hollow_check, lattice_width

from test_cli import GOLDEN, run_cli
from test_exactlinalg import det_laplace


class _Criterion:
    def __init__(self, number, description, limit_seconds=None):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {status} ({elapsed:.1f}s): {self.description}")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_1_model_verification():
    with _Criterion(1, "width 2+sqrt2 with 7 minimizers, hollow, interior facet points",
                    limit_seconds=60):
        model = dc.build_delta_model(check=True)
        result = lattice_width(model.polytope, model.lattice)
        assert result.width == QSqrt2(2, 1)
        assert len(result.minimizers) == 7
        duals = dual_lattice(model.lattice)
        expected = {
            Functional([
                sum((duals[k].coeffs[r] * u[k] for k in range(3)), QSqrt2(0))
                for r in range(3)
            ]).canonical_sign()
            for u in model.dual_int_vectors
        }
        assert set(result.minimizers) == expected
        assert hollow_check(model.polytope, model.lattice).hollow
        from widthcert.widthlab import barycentric_coordinates

        for i in range(4):
            bary = barycentric_coordinates(model.facet_points[i], model.polytope)
            assert bary[i] == QSqrt2(0)
            assert all(bary[j].sign() > 0 for j in range(4) if j != i)


def test_criterion_2_local_certificate():
    with _Criterion(2, "gradients match published table, dependence, rank 5, pinned "
                       "restricted Hessian, negative definite", limit_seconds=60):
        cert = dc.local_maximality_certificate(Fr(39, 4))
        assert cert.gradients_match_published
        assert cert.dependence_ok
        assert cert.gradient_rank == 5
        from test_deltacert import EXPECTED_RESTRICTED

        assert cert.restricted_hessian == EXPECTED_RESTRICTED
        assert cert.restricted_negative_definite
        assert cert.verdict


def test_criterion_3_radius_table():
    with _Criterion(3, "radius table over the c grid (conditions i-iii)",
                    limit_seconds=600):
        column_ii = {
            Fr(7): "0.01877",
            Fr(8): "0.02145",
            Fr(9): "0.02413",
            Fr(39, 4): "0.02614",
            Fr(10): "0.02681",
            Fr(11): "0.02949",
            Fr(12): "0.03217",
        }
        attain = dc.attainment_bound()
        assert attain.display == "0.04423"
        orientation = dc.det_orientation_bound()
        assert orientation.display == "0.10355"
        for c, expected in column_ii.items():
            assert dc.linear_bound(c).display == expected


#: condition (iv) at the paper's published weights: display and certificate
PUBLISHED_IV = {
    Fr(7): ("0.03185", Fr(318501, 10**7)),
    Fr(39, 4): ("0.02646", Fr(264573, 10**7)),
    Fr(12): ("0.01501", Fr(37521, 2500000)),
}


def test_criterion_4_hessian_column(monkeypatch, capsys):
    # one CLI sweep over the three weights: its kv output is golden, and each
    # weight's determinant is checked as it runs
    primes, runs = [], []
    one_prime, hessian_bound = fastdet._det_one_prime, dc.hessian_bound

    def recording_prime(*args):
        primes.append(args[5])
        return one_prime(*args)

    def recording_bound(c, *args):
        primes.clear()
        bound = hessian_bound(c, *args)
        runs.append((c, bound, list(primes)))
        return bound

    monkeypatch.setattr(fastdet, "_det_one_prime", recording_prime)
    monkeypatch.setattr(dc, "hessian_bound", recording_bound)
    with _Criterion(4, "degree-16 determinant condition at c in {7, 9.75, 12}",
                    limit_seconds=600):
        code, out, err = run_cli(capsys, "--format", "kv", "certify-neighborhood",
                                 "--with-hessian", "--sweep", "7,39/4,12", "--tol", "1e-9")
        assert (code, err) == (EXIT_OK, "")
        assert out == (GOLDEN / "neighborhood_hessian.kv").read_text(encoding="utf-8")
        assert [c for c, _, _ in runs] == list(PUBLISHED_IV)
        for c, bound, used in runs:
            assert (bound.display, bound.certified) == PUBLISHED_IV[c], f"c={c}"
            assert bound.detail == {"det_degree": 16, "det_terms": 374459}
            assert len(used) == 5
            assert all(p % 8 == 7 for p in used)


def test_criterion_5_global_bounds():
    with _Criterion(5, "certified width/volume window and inscribed volume caps",
                    limit_seconds=60):
        from widthcert.exactnum import alg, certify_less

        assert certify_less(alg(Fr("3.414")), alg(QSqrt2(2, 1)))
        assert certify_less(gb.flatness3_cap_expr(), alg(Fr("3.972")))
        assert certify_less(alg(Fr("2.653")), alg(QSqrt2(Fr(20, 15), Fr(14, 15))))
        assert certify_less(1 / gb.min_shrink_expr() ** 3, alg(Fr("19.919")))
        caps = {row.report_name: Fr(row.integer_cap, 6)
                for row in gb.INEQUALITIES if row.integer_cap is not None}
        assert caps == {"inscribed_general": Fr(22, 3), "inscribed_tetrahedron": Fr(17, 6)}
        assert all(r.verdict for r in gb.all_reports())


def _random_poly(rng, nvars, max_degree, terms):
    out = {}
    for _ in range(terms):
        m = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            m[rng.randrange(nvars)] += 1
        out[tuple(m)] = QSqrt2(Fr(rng.randint(-9, 9), rng.randint(1, 4)),
                               Fr(rng.randint(-9, 9), rng.randint(1, 4)))
    return MvPoly(nvars, out)


def test_criterion_6_property_suites():
    with _Criterion(6, "root-bound soundness, width oracle, adjugate identity, "
                       "field and interval axioms", limit_seconds=900):
        rng = random.Random(2024)

        # root-bound soundness: 200 random polynomials x 200 points each
        polys_done = 0
        while polys_done < 200:
            f = _random_poly(rng, nvars=3, max_degree=3, terms=4)
            if not f.constant_term():
                continue
            r = companion_root_enclosure(cauchy_companion(f), Fr(1, 10**6))[0]
            base = f.constant_term().sign()
            for _ in range(200):
                z = [QSqrt2(Fr(rng.randint(-999, 999), 1000) * r * Fr(999, 1000))
                     for _ in range(3)]
                assert f.evaluate(z).sign() == base
            polys_done += 1

        # lattice width equals the brute-force oracle on 100 random tetrahedra
        from test_widthlab import random_tetrahedron_oracle_check

        for _ in range(100):
            random_tetrahedron_oracle_check(rng)

        # adjugate identity on the perturbed basis matrix
        pl = dc.get_pipeline()
        M = pl.ring.matrix
        det = det_laplace(M)
        adj = adjugate_poly(M)
        for i in range(3):
            for j in range(3):
                acc = MvPoly.zero(M.nvars)
                for k in range(3):
                    acc = acc + M[i, k] * adj[k, j]
                assert acc == (det if i == j else MvPoly.zero(M.nvars))

        # field axioms on random elements
        for _ in range(500):
            a = QSqrt2(Fr(rng.randint(-50, 50), rng.randint(1, 20)),
                       Fr(rng.randint(-50, 50), rng.randint(1, 20)))
            b = QSqrt2(Fr(rng.randint(-50, 50), rng.randint(1, 20)),
                       Fr(rng.randint(-50, 50), rng.randint(1, 20)))
            c = QSqrt2(rng.randint(-9, 9), rng.randint(-9, 9))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == QSqrt2(1)

        # interval enclosure axioms: results contain exact sample products
        from widthcert.exactnum import RatInterval

        for _ in range(300):
            lo1, hi1 = sorted(Fr(rng.randint(-60, 60), rng.randint(1, 9))
                              for _ in range(2))
            lo2, hi2 = sorted(Fr(rng.randint(-60, 60), rng.randint(1, 9))
                              for _ in range(2))
            i1, i2 = RatInterval(lo1, hi1), RatInterval(lo2, hi2)
            x = (lo1 + hi1) / 2
            y = (lo2 + hi2) / 2
            for image, value in ((i1 + i2, x + y), (i1 - i2, x - y), (i1 * i2, x * y)):
                assert image.lo <= value <= image.hi


def test_criterion_7_barycentric_radius():
    with _Criterion(7, "overall radius 0.02614 at c = 9.75 and barycentric "
                       "radius exactly half, displaying 0.01307", limit_seconds=120):
        report = dc.certify(Fr(39, 4))
        assert report.overall_display == "0.02614"
        assert report.overall == report.bounds["ii"].certified
        assert report.barycentric == report.overall / 2
        assert report.barycentric_display == "0.01307"
