import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from widthcert import deltacert
from widthcert.cli import (
    EXIT_MATH_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_EXPONENT,
    MIN_RESOLUTION,
    build_parser,
    main,
)
from widthcert.exactnum import QSqrt2, UndecidedComparison
from widthcert.polyfile import (
    PolytopeFileError,
    format_scalar,
    parse_polytope_file,
    parse_scalar,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODEL_FILE = """
# the extremal tetrahedron and its lattice
vertices:
2 + 1*sqrt2, 1*sqrt2, 2 + 1*sqrt2
-1*sqrt2, 2 + 1*sqrt2, -2 - 1*sqrt2
-2 - 1*sqrt2, -1*sqrt2, 2 + 1*sqrt2
1*sqrt2, -2 - 1*sqrt2, -2 - 1*sqrt2
lattice origin:
-1, -1, -1
lattice basis:
0, 2, 2
2, 0, 2
2, 2, 0
"""

CUBE_FILE = """
vertices:
0, 0, 0
1, 0, 0
0, 1, 0
0, 0, 1
1, 1, 0
1, 0, 1
0, 1, 1
1, 1, 1
"""


# -- scalar and file parsing -------------------------------------------------------


def test_parse_scalar_forms():
    from fractions import Fraction as Fr

    from widthcert.exactnum import QSqrt2

    assert parse_scalar("3/4 + 1/2*sqrt2") == QSqrt2(Fr(3, 4), Fr(1, 2))
    assert parse_scalar("-2") == QSqrt2(-2)
    assert parse_scalar("sqrt2") == QSqrt2(0, 1)
    assert parse_scalar("-sqrt2") == QSqrt2(0, -1)
    assert parse_scalar("2 - 1*sqrt2") == QSqrt2(2, -1)


def test_parse_scalar_rejects_floats():
    with pytest.raises(PolytopeFileError):
        parse_scalar("0.5")
    with pytest.raises(PolytopeFileError):
        parse_scalar("1e-3")


MALFORMED_SCALARS = ["2 - -1*sqrt2", "--1", "-+1", "1 2", "sqrt2sqrt2", "1-", "3 - sqrt2 - ",
                     "sqrt2 + 1", "1 + 2", "- 1", "2sqrt2", "sqrt2*2", "1/2/3", "1*", "+", "1/0",
                     "1 + 1/0*sqrt2", "1" * 5000]


def test_parse_scalar_accepts_spaces_around_operators():
    assert parse_scalar(" 1 / 2 - 3 * sqrt2 ") == QSqrt2(Fraction(1, 2), -3)
    assert parse_scalar("1/2+sqrt2") == QSqrt2(Fraction(1, 2), 1)
    assert parse_scalar("+sqrt2") == parse_scalar("1*sqrt2") == QSqrt2(0, 1)
    assert parse_scalar("-3/4*sqrt2") == QSqrt2(0, Fraction(-3, 4))
    assert parse_scalar("+7") == QSqrt2(7)


@pytest.mark.parametrize("text", MALFORMED_SCALARS, ids=lambda t: t[:20])
def test_parse_scalar_rejects_malformed_scalars(text):
    with pytest.raises(PolytopeFileError, match="^line 5: "):
        parse_scalar(text, 5)


@pytest.mark.parametrize("text", ["2 - -1*sqrt2", "1 2", "1/0"])
def test_width_subcommand_rejects_malformed_scalars(tmp_path, capsys, text):
    path = tmp_path / "bad.poly"
    path.write_text(f"vertices:\n0, 0, 0\n1, 0, 0\n0, 1, {text}\n0, 0, 1\n")
    code, out, err = run_cli(capsys, "width", "--polytope", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: line 4: ") and err.count("\n") == 1


def test_shipped_polytope_files_parse_to_the_model(delta_model):
    root = Path(__file__).resolve().parents[1]
    for path in (root / "tests" / "golden" / "delta.poly", root / "perfbench" / "data" / "delta.poly"):
        if path.exists():
            K, L = parse_polytope_file(path.read_text())
            assert K.vertices == delta_model.polytope.vertices
            assert (L.origin, L.basis) == (delta_model.lattice.origin, delta_model.lattice.basis)


def test_scalar_format_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        # either part may be zero
        x = QSqrt2(Fraction(rng.choice((0, rng.randint(-10**6, 10**6))), rng.randint(1, 10**4)),
                   Fraction(rng.choice((0, rng.randint(-999, 999))), rng.randint(1, 999)))
        assert parse_scalar(format_scalar(x)) == x


def test_polytope_file_reports_line_numbers():
    bad = "vertices:\n1, 2\n"
    with pytest.raises(PolytopeFileError) as err:
        parse_polytope_file(bad)
    assert "line 2" in str(err.value)


# -- subcommands ------------------------------------------------------------------------


def test_verify_delta_text(capsys):
    code, out, err = run_cli(capsys, "verify-delta")
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN / "verify_delta.txt").read_text(encoding="utf-8")


def test_verify_delta_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify-delta")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["width"] == "2 + 1*sqrt2"
    assert data["minimizer_count"] == 7
    assert data["hollow"] is True
    assert len(data["facet_points"]) == 4


def test_certify_local_default(capsys):
    code, out, _ = run_cli(capsys, "certify-local", "--c", "39/4")
    assert code == EXIT_OK
    assert "verdict: pass" in out
    assert "gradient rank" in out


def test_certify_local_fails_above_definiteness_range(capsys):
    code, out, _ = run_cli(capsys, "certify-local", "--c", "14")
    assert code == EXIT_MATH_FAIL
    assert "verdict: fail" in out


def test_certify_neighborhood_hessian_rejects_indefinite_weight(capsys):
    code, out, err = run_cli(capsys, "--format", "kv", "certify-neighborhood",
                             "--with-hessian", "--c", "20")
    assert code == EXIT_MATH_FAIL
    assert out == ""
    assert err.startswith("error: ") and "not negative definite" in err
    assert "Traceback" not in err


def test_certify_neighborhood_smoke_hessian_rejects_indefinite_weight(capsys):
    code, out, err = run_cli(capsys, "certify-neighborhood", "--c", "20", "--smoke-hessian")
    assert code == EXIT_MATH_FAIL
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not negative definite" in err


def test_certify_local_rejects_zero_c(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify-local", "--c", "0"])
    assert exc.value.code == EXIT_USAGE


def test_certify_neighborhood_row(capsys):
    code, out, _ = run_cli(capsys, "certify-neighborhood", "--c", "39/4")
    assert code == EXIT_OK
    assert "0.10355" in out
    assert "0.02614" in out
    assert "0.04423" in out
    assert "skipped (long-running)" in out
    assert "0.01307" in out


def test_certify_neighborhood_decimal_c(capsys):
    code, out, _ = run_cli(capsys, "certify-neighborhood", "--c", "9.75")
    assert code == EXIT_OK
    assert "0.02614" in out


def test_certify_neighborhood_sweep(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "certify-neighborhood",
                           "--sweep", "7,8,9")
    assert code == EXIT_OK
    data = json.loads(out)
    displays = [row["bounds"]["ii"]["display"] for row in data["rows"]]
    assert displays == ["0.01877", "0.02145", "0.02413"]
    for row in data["rows"]:
        assert row["bounds"]["i"]["display"] == "0.10355"
        assert row["bounds"]["iii"]["display"] == "0.04423"


def test_certify_neighborhood_smoke_hessian(capsys):
    code, out, _ = run_cli(capsys, "certify-neighborhood", "--c", "39/4",
                           "--smoke-hessian")
    assert code == EXIT_OK
    assert "NON-CERTIFYING" in out


def test_width_subcommand_on_model_file(tmp_path, capsys):
    path = tmp_path / "model.poly"
    path.write_text(MODEL_FILE)
    code, out, _ = run_cli(capsys, "width", "--polytope", str(path))
    assert code == EXIT_OK
    assert "width: 2 + 1*sqrt2" in out
    assert "minimizers: 7" in out


def test_width_subcommand_on_cube(tmp_path, capsys):
    path = tmp_path / "cube.poly"
    path.write_text(CUBE_FILE)
    code, out, _ = run_cli(capsys, "width", "--polytope", str(path))
    assert code == EXIT_OK
    assert "width: 1" in out
    assert "minimizers: 3" in out


def test_width_subcommand_on_a_long_needle(tmp_path, capsys):
    # conv{0, (1000, 1000, 1001), e1, e2}: a box sweep in the given basis
    # would need about 1.6e10 candidates
    path = tmp_path / "needle.poly"
    path.write_text("vertices:\n0, 0, 0\n1000, 1000, 1001\n1, 0, 0\n0, 1, 0\n")
    code, out, err = run_cli(capsys, "--format", "kv", "width", "--polytope", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == [
        "minimizer_count=3",
        "minimizers.0.0=0", "minimizers.0.1=1", "minimizers.0.2=-1",
        "minimizers.1.0=1", "minimizers.1.1=-1", "minimizers.1.2=0",
        "minimizers.2.0=1", "minimizers.2.1=0", "minimizers.2.2=-1",
        "width=2",
        "width_decimal_high=2.000000000",
        "width_decimal_low=2.000000000",
    ]


def test_width_sweep_over_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    from widthcert import widthlab

    monkeypatch.setattr(widthlab, "MAX_SWEEP", 1)
    path = tmp_path / "delta.poly"
    path.write_text(MODEL_FILE)
    code, out, err = run_cli(capsys, "width", "--polytope", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: lattice width candidate sweep of ")
    assert err.endswith("exceeds the cap of 1 (MAX_SWEEP)\n")
    assert err.count("\n") == 1


def test_width_subcommand_rejects_floats(tmp_path, capsys):
    path = tmp_path / "bad.poly"
    path.write_text("vertices:\n0.5, 0, 0\n1, 0, 0\n0, 1, 0\n0, 0, 1\n")
    code, out, err = run_cli(capsys, "width", "--polytope", str(path))
    assert code == EXIT_USAGE
    assert "line 2" in err


@pytest.mark.parametrize("content, message", [
    (b"vertices:\n0, 0, 0\n1, 0, 0\n0, 1, 0\n0, 0, 1\nlattice origin:\n0, 0, 0\n"
     b"lattice basis:\n1, 0, 0\n0, 1, 0\n1, 1, 0\n",
     "error: lattice basis is linearly dependent\n"),
    (b"vertices:\n# one \xff byte\n0, 0, 0\n1, 0, 0\n0, 1, 0\n0, 0, 1\n",
     "error: line 2: not UTF-8 text: invalid start byte\n"),
])
def test_width_subcommand_rejects_bad_files(tmp_path, capsys, content, message):
    path = tmp_path / "bad.poly"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "width", "--polytope", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", message)


def test_width_subcommand_missing_file(capsys):
    code, _, err = run_cli(capsys, "width", "--polytope", "/nonexistent.poly")
    assert code == EXIT_USAGE


def test_width_matches_oracle_on_random_tetrahedron(tmp_path, capsys):
    import random

    from test_widthlab import random_tetrahedron_oracle_check

    assert random_tetrahedron_oracle_check(random.Random(77))


def test_global_bounds(capsys):
    code, out, _ = run_cli(capsys, "global-bounds")
    assert code == EXIT_OK
    assert "verdict: pass" in out
    assert "lam1_floor" in out
    assert out.count("certified") >= 6


def test_global_bounds_precision_flag(capsys):
    code1, out1, _ = run_cli(capsys, "--format", "json", "global-bounds")
    code2, out2, _ = run_cli(capsys, "--format", "json", "global-bounds",
                             "--precision", "1/1000000000000")
    assert code1 == code2 == EXIT_OK
    verdicts1 = [r["verdict"] for r in json.loads(out1)["reports"]]
    verdicts2 = [r["verdict"] for r in json.loads(out2)["reports"]]
    assert verdicts1 == verdicts2


@pytest.mark.parametrize("argv", [
    ("global-bounds", "--precision", "1e-101"),
    ("global-bounds", "--precision", "1/1" + "0" * 3000),
    ("certify-neighborhood", "--tol", "1e-300"),
    ("certify-neighborhood", "--tol", "1e-1000"),  # at the exponent cap
    ("certify-neighborhood", "--tol", "1/1" + "0" * 3000),
])
def test_resolution_flags_reject_values_below_the_floor(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert out == ""
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert line.endswith(f"{argv[1]}: must be at least 1e-100")


def test_resolution_floor_itself_is_accepted():
    parser = build_parser()
    assert parser.parse_args(["global-bounds", "--precision", "1e-100"]).precision \
        == MIN_RESOLUTION == Fraction(1, 10**100)
    assert parser.parse_args(["certify-neighborhood", "--tol", "1e-100"]).tol == MIN_RESOLUTION


@pytest.mark.parametrize("argv", [
    ("certify-local", "--c", "1e-101"),
    ("certify-local", "--c", "1e101"),
    ("certify-neighborhood", "--c", "1e-101"),
    ("certify-neighborhood", "--sweep", "7,1e-5000"),
    ("certify-neighborhood", "--sweep", ","),
    ("certify-neighborhood", "--sweep", "7,x"),
    ("certify-neighborhood", "--sweep", "7,-1"),
])
def test_weight_flags_reject_unbounded_or_empty_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert out == ""
    assert f"argument {argv[1]}: " in err


@pytest.mark.parametrize("argv", [
    ("certify-neighborhood", "--c", "7", "--sweep", "8"),
    ("certify-neighborhood", "--sweep", "8", "--c", "39/4"),
])
def test_certify_neighborhood_refuses_c_with_sweep(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert out == ""
    assert f"argument {argv[3]}: not allowed with argument {argv[1]}" in err


@pytest.mark.parametrize("argv", [
    ("certify-local", "--c", "1e-10000000"),
    ("certify-neighborhood", "--c", "1E+10000000"),
    ("certify-neighborhood", "--sweep", "7,1e-10000000"),
    ("certify-neighborhood", "--tol", "1e-10000000"),
    ("certify-neighborhood", "--tol", "1e-1_0000000"),
    ("global-bounds", "--precision", "1e-10000000"),
])
def test_long_decimal_exponents_are_refused_from_the_text(argv, capsys):
    # Fraction would first expand the exponent into a ten-million-digit integer
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert time.monotonic() - start < 0.5
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert out == ""
    assert f"argument {argv[1]}: decimal exponent beyond {MAX_EXPONENT}" in err


def test_weight_bound_itself_is_accepted():
    parser = build_parser()
    for command in ("certify-local", "certify-neighborhood"):
        for text, value in (("1e-100", Fraction(1, 10**100)), ("1e100", Fraction(10**100)),
                            ("1e-0000000100", Fraction(1, 10**100))):
            assert parser.parse_args([command, "--c", text]).c == value
    assert parser.parse_args(["certify-neighborhood", "--sweep", " 7, 1e-100 ,"]).sweep \
        == [7, Fraction(1, 10**100)]


# -- byte-stable machine output --------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"

#: golden file stem of each subcommand call.  `<stem>.kv` and `<stem>.json`
#: hold the stdout of `python -m widthcert.cli --format {kv,json} <call>`
#: (run from the repository root), which must be reproduced byte for byte;
#: exit_codes.json holds the exit code of each.
GOLDEN_CALLS = {
    ("verify-delta",): "verify_delta",
    ("certify-local",): "certify_local",
    ("certify-neighborhood",): "neighborhood",
    ("global-bounds",): "global_bounds",
    ("certify-neighborhood", "--sweep", "7,8,9,39/4,10,11,12"): "sweep",
    ("certify-neighborhood", "--smoke-hessian"): "smoke_hessian",
    ("width", "--polytope", str(GOLDEN / "delta.poly")): "width",
}
# every call in both machine formats; the first four keep their long-standing
# parameter ids argv0-argv3
_FIRST_ARGVS = [
    ("--format", "kv", "verify-delta"),
    ("--format", "kv", "certify-local"),
    ("--format", "kv", "certify-neighborhood"),
    ("--format", "json", "global-bounds"),
]
GOLDEN_ARGVS = _FIRST_ARGVS + [
    argv for argv in (("--format", fmt) + call for fmt in ("kv", "json") for call in GOLDEN_CALLS)
    if argv not in _FIRST_ARGVS
]


@pytest.mark.parametrize("argv", GOLDEN_ARGVS)
def test_machine_output_is_deterministic(argv, capsys):
    name = f"{GOLDEN_CALLS[argv[2:]]}.{argv[1]}"
    code, out, err = run_cli(capsys, *argv)
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert err == ""


def test_golden_cases_cover_every_file():
    names = {f"{GOLDEN_CALLS[argv[2:]]}.{argv[1]}" for argv in GOLDEN_ARGVS}
    assert len(names) == len(GOLDEN_ARGVS) == 2 * len(GOLDEN_CALLS)
    assert names == set(json.loads((GOLDEN / "exit_codes.json").read_text()))


# -- exit-code contract -----------------------------------------------------------------------


def test_certify_neighborhood_too_coarse_tolerance_is_an_error(capsys):
    code, out, err = run_cli(capsys, "certify-neighborhood", "--tol", "1")
    assert code == EXIT_MATH_FAIL
    assert out == ""
    assert err.startswith("error: ") and "5-decimal display" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("exc", [
    deltacert.CertificationError, deltacert.IndefiniteWeightError, UndecidedComparison,
])
def test_main_maps_mathematical_failures_to_exit_1(exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc("injected failure")

    monkeypatch.setattr(deltacert, "local_maximality_certificate", fail)
    code, out, err = run_cli(capsys, "--format", "kv", "certify-local")
    assert code == EXIT_MATH_FAIL
    assert out == ""
    assert err == "error: injected failure\n"


@pytest.mark.parametrize("command", ["certify-local", "certify-neighborhood"])
def test_certifying_commands_check_their_model(command, monkeypatch, capsys):
    # a fresh pipeline against a wrong width: `check_model` must refuse it
    monkeypatch.setattr(deltacert, "_PIPELINE", None)
    monkeypatch.setattr(deltacert, "WIDTH_VALUE", QSqrt2(3, 1))
    code, out, err = run_cli(capsys, command)
    assert (code, out) == (EXIT_MATH_FAIL, "")
    assert err == "error: lattice width is 2 + 1*sqrt2, expected 3 + 1*sqrt2\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE
