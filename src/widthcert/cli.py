"""Command-line front end.  One subcommand per verification:

  verify-delta          structural checks of the extremal configuration
  certify-local         second-order local maximality certificate
  certify-neighborhood  explicit neighborhood radii for a weight c
  width                 exact lattice width of a polytope from a file
  global-bounds         certified width/volume window for any maximizer

Exit codes, all decided in `main`:

  0  every certificate passes
  1  a mathematical check failed: a certificate's verdict is fail, or a
     `CertificationError`, `IndefiniteWeightError` or
     `UndecidedComparison` was raised
  2  usage or parse error: bad arguments, an unreadable or malformed
     polytope file, a degenerate polytope, or a polytope whose width
     sweep would exceed `widthlab.MAX_SWEEP` candidates

`--precision` and `--tol` accept no value below `MIN_RESOLUTION` (1e-100),
and the weight c (`--c` and each `--sweep` value) must be a positive
rational whose numerator and denominator are at most `MAX_WEIGHT_TERM`
(10^100), so neither a resolution nor a weight can stall the tool.  The
text of each is refused first if its decimal exponent exceeds
`MAX_EXPONENT` (1000) in size.  `certify-neighborhood` takes either `--c`
or `--sweep`; given both, it exits 2.
`--smoke-hessian` fails with exit 1, as `--with-hessian` does, for a weight
c at which the aggregate Hessian is not negative definite at 0.

Any exception `main` maps prints one `error: ...` line on stderr and
nothing on stdout; no failure ends in a traceback.  Output formats: human
text (default), `kv` (sorted key=value lines) and `json`; the machine
formats are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import deltacert, globalbounds
from .deltacert import format_decimals
from .exactnum import UndecidedComparison
from .polyfile import PolytopeFileError, format_scalar, parse_polytope_file
from .widthlab import DegeneratePolytopeError, SweepTooLargeError, lattice_width

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2

#: the finest --precision and --tol accepted.  The enclosures and bisections
#: grow with the digits asked for, and past about 4300 digits Python's
#: int-to-str limit makes printing the result fail.
MIN_RESOLUTION = Fraction(1, 10**100)
#: the largest numerator or denominator accepted for the weight c, for the
#: same reason: the certificates' exact arithmetic grows with its digits.
MAX_WEIGHT_TERM = 10**100
#: the largest decimal exponent read from the text of a rational.  `Fraction`
#: expands an exponent into a full integer before either bound above can be
#: checked (1e-10000000 takes seconds), so the text is screened first; 1000
#: is far past any exponent a bounded value needs.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def _positive_rational(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or "0") > MAX_EXPONENT:
            raise argparse.ArgumentTypeError(f"decimal exponent beyond {MAX_EXPONENT}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({err})")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _resolution(text: str) -> Fraction:
    value = _positive_rational(text)
    if value < MIN_RESOLUTION:
        raise argparse.ArgumentTypeError("must be at least 1e-100")
    return value


def _weight(text: str) -> Fraction:
    value = _positive_rational(text)
    if max(value.numerator, value.denominator) > MAX_WEIGHT_TERM:
        raise argparse.ArgumentTypeError(
            f"numerator and denominator must be at most 1e100: {text}")
    return value


def _weights(text: str) -> list[Fraction]:
    values = [_weight(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthcert",
        description="Exact certification of lattice-width extremality for the "
                    "hollow tetrahedron of width 2 + sqrt2.",
    )
    parser.add_argument("--format", choices=("text", "kv", "json"), default="text",
                        help="output format (machine formats are deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-delta", help="verify width, hollowness and facet incidences")

    p_local = sub.add_parser("certify-local", help="local maximality certificate")
    p_local.add_argument("--c", type=_weight, default=Fraction(39, 4),
                         help="aggregate weight (default 39/4; positive, numerator "
                              "and denominator at most 1e100)")

    p_n = sub.add_parser("certify-neighborhood", help="explicit neighborhood radii")
    weights = p_n.add_mutually_exclusive_group()
    weights.add_argument("--c", type=_weight, default=Fraction(39, 4),
                         help="aggregate weight (default 39/4; positive, numerator "
                              "and denominator at most 1e100)")
    p_n.add_argument("--with-hessian", action="store_true",
                     help="include the long-running degree-16 determinant condition")
    p_n.add_argument("--smoke-hessian", action="store_true",
                     help="run the non-certifying 4-variable section of the "
                          "Hessian condition as a smoke test; like --with-hessian "
                          "it fails where the Hessian is indefinite at 0")
    p_n.add_argument("--tol", type=_resolution, default=Fraction(1, 10**7),
                     help="root-bound bisection tolerance (default 1e-7, at least 1e-100)")
    weights.add_argument("--sweep", type=_weights, default=None,
                         help="comma-separated list of c values, each bounded as --c; "
                              "prints one row each (not with --c)")

    p_w = sub.add_parser("width", help="exact lattice width of a polytope file")
    p_w.add_argument("--polytope", required=True, help="input file path")

    p_g = sub.add_parser("global-bounds", help="certified maximizer bounds")
    p_g.add_argument("--precision", type=_resolution, default=Fraction(1, 10**9),
                     help="enclosure width for reported intervals (default 1e-9, "
                          "at least 1e-100)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler = {
            "verify-delta": _cmd_verify_delta,
            "certify-local": _cmd_certify_local,
            "certify-neighborhood": _cmd_certify_neighborhood,
            "width": _cmd_width,
            "global-bounds": _cmd_global_bounds,
        }[args.command]
        return handler(args)
    except (PolytopeFileError, DegeneratePolytopeError, SweepTooLargeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (deltacert.CertificationError, deltacert.IndefiniteWeightError,
            UndecidedComparison) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH_FAIL


def _emit(args, data: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        # imported here: the kv and text formats do not pay for loading json
        import json

        print(json.dumps(data, sort_keys=True, indent=2))
    elif args.format == "kv":
        flat = _flatten(data)
        for key in sorted(flat):
            print(f"{key}={flat[key]}")
    else:
        for line in text_lines:
            print(line)


def _flatten(data, prefix="") -> dict:
    out = {}
    if isinstance(data, dict):
        for k, v in data.items():
            out.update(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            out.update(_flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = data
    return out


# ---------------------------------------------------------------------------


def _cmd_verify_delta(args) -> int:
    checked = deltacert.check_model(deltacert.build_delta_model(check=False))
    wr = checked.width
    hollow = checked.hollowness
    facet_rows = []
    for i, bary in enumerate(checked.barycentric):
        facet_rows.append({
            "facet_point": i + 1,
            # barycentric coordinate i vanishes exactly on the facet opposite vertex i
            "on_facet_plane": bary[i].sign() == 0,
            "barycentric": [str(b) for b in bary],
            "strictly_interior": all(b.sign() > 0 for j, b in enumerate(bary) if j != i),
        })

    data = {
        "width": format_scalar(wr.width),
        "minimizer_count": len(wr.minimizers),
        "minimizers": [[format_scalar(x) for x in f.coeffs] for f in wr.minimizers],
        "hollow": hollow.hollow,
        "facet_points": facet_rows,
        "verdict": "pass",
    }
    text = [
        f"width: {format_scalar(wr.width)}",
        f"minimizers: {len(wr.minimizers)}",
    ]
    for f in wr.minimizers:
        text.append("  (" + ", ".join(format_scalar(x) for x in f.coeffs) + ")")
    text.append(f"hollow: {hollow.hollow}")
    text.append("facet incidence (point index: barycentric coordinates):")
    for row in facet_rows:
        mark = "interior" if row["strictly_interior"] else "NOT interior"
        text.append(f"  p{row['facet_point']}: ({', '.join(row['barycentric'])}) {mark}")
    text.append("verdict: pass")
    _emit(args, data, text)
    return EXIT_OK


def _cmd_certify_local(args) -> int:
    cert = deltacert.local_maximality_certificate(args.c)
    data = {
        "c": str(args.c),
        "gradients_match_published": cert.gradients_match_published,
        "dependence_ok": cert.dependence_ok,
        "gradient_rank": cert.gradient_rank,
        "kernel_dim": cert.kernel_dim,
        "kernel_matches": cert.kernel_matches,
        "restricted_hessian": [[str(x) for x in row] for row in cert.restricted_hessian.rows],
        "restricted_negative_definite": cert.restricted_negative_definite,
        "full_hessian_negative_definite": cert.full_hessian_negative_definite,
        "verdict": "pass" if cert.verdict else "fail",
    }
    text = [
        f"c = {args.c}",
        f"gradients match published table: {cert.gradients_match_published}",
        f"multiplier dependence holds:     {cert.dependence_ok}",
        f"gradient rank:                   {cert.gradient_rank} (expected 5)",
        f"kernel dimension:                {cert.kernel_dim} (expected 3)",
        f"kernel matches parametrization:  {cert.kernel_matches}",
        "restricted quadratic form:",
    ]
    for row in cert.restricted_hessian.rows:
        text.append("  [" + ", ".join(str(x) for x in row) + "]")
    text.append(f"restricted form negative definite: {cert.restricted_negative_definite}")
    text.append(f"aggregate Hessian negative definite at 0: {cert.full_hessian_negative_definite}")
    text.append(f"verdict: {'pass' if cert.verdict else 'fail'}")
    _emit(args, data, text)
    return EXIT_OK if cert.verdict else EXIT_MATH_FAIL


def _row_data(report: deltacert.CertificateReport) -> dict:
    bounds = {}
    for key, bound in report.bounds.items():
        if bound is None:
            bounds[key] = "skipped (long-running)"
        else:
            bounds[key] = {
                "display": bound.display,
                "certified": str(bound.certified),
            }
    return {
        "c": str(report.c),
        "bounds": bounds,
        "overall": {"display": report.overall_display, "certified": str(report.overall)},
        "barycentric": {"display": report.barycentric_display,
                        "certified": str(report.barycentric)},
        "verdict": "pass" if report.verdict else "fail",
    }


def _row_text(report: deltacert.CertificateReport) -> list[str]:
    cells = []
    for key in ("i", "ii", "iii", "iv"):
        bound = report.bounds[key]
        cells.append(bound.display if bound is not None else "skipped (long-running)")
    return [
        f"c = {report.c}",
        f"  (i) determinant orientation   : {cells[0]}",
        f"  (ii) linear margins           : {cells[1]}",
        f"  (iii) width attainment        : {cells[2]}",
        f"  (iv) Hessian definiteness     : {cells[3]}",
        f"  overall radius                : {report.overall_display}"
        f"  (certified {report.overall})",
        f"  barycentric radius            : {report.barycentric_display}"
        f"  (certified {report.barycentric})",
    ]


def _cmd_certify_neighborhood(args) -> int:
    cs = args.sweep or [args.c]
    rows = []
    texts = []
    ok = True
    for c in cs:
        report = deltacert.certify(c, with_hessian=args.with_hessian, tol=args.tol)
        ok = ok and report.verdict
        rows.append(_row_data(report))
        texts.extend(_row_text(report))
        if args.smoke_hessian:
            section = deltacert.hessian_section_bound(c, tol=args.tol)
            rows[-1]["hessian_section_smoke"] = {
                "display": section.display,
                "certified": str(section.certified),
                "non_certifying": True,
            }
            texts.append(
                f"  (iv) 4-variable section smoke : {section.display} "
                "[NON-CERTIFYING: section only]"
            )
    data = {"rows": rows, "verdict": "pass" if ok else "fail"}
    texts.append(f"verdict: {'pass' if ok else 'fail'}")
    _emit(args, data, texts)
    return EXIT_OK if ok else EXIT_MATH_FAIL


def _cmd_width(args) -> int:
    try:
        with open(args.polytope, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        line = err.object.count(b"\n", 0, err.start) + 1
        raise PolytopeFileError(f"not UTF-8 text: {err.reason}", line) from err
    polytope, lattice = parse_polytope_file(text)
    result = lattice_width(polytope, lattice)
    enc = result.width.enclosure(Fraction(1, 10**9))
    data = {
        "width": format_scalar(result.width),
        "width_decimal_low": format_decimals(enc.lo, 9),
        "width_decimal_high": format_decimals(enc.hi, 9),
        "minimizer_count": len(result.minimizers),
        "minimizers": [[format_scalar(x) for x in f.coeffs] for f in result.minimizers],
    }
    text_lines = [
        f"width: {format_scalar(result.width)}",
        f"decimal enclosure: [{data['width_decimal_low']}, {data['width_decimal_high']}]",
        f"minimizers: {len(result.minimizers)}",
    ]
    for f in result.minimizers:
        text_lines.append("  (" + ", ".join(format_scalar(x) for x in f.coeffs) + ")")
    _emit(args, data, text_lines)
    return EXIT_OK


def _cmd_global_bounds(args) -> int:
    reports = globalbounds.all_reports(args.precision)
    chain = globalbounds.replay_inequality_chain()
    ok = all(r.verdict for r in reports) and all(s.certified for s in chain)
    data = {
        "reports": [
            {
                "name": r.name,
                "enclosure_low": str(r.enclosure.lo),
                "enclosure_high": str(r.enclosure.hi),
                "relation": r.relation,
                "claimed": str(r.claimed),
                "verdict": r.verdict,
                "note": r.note,
            }
            for r in reports
        ],
        "chain": [
            {"name": s.name, "statement": s.statement, "certified": s.certified}
            for s in chain
        ],
        "verdict": "pass" if ok else "fail",
    }
    text = ["name | enclosure | claimed | verdict", "-" * 60]
    for r in reports:
        text.append(
            f"{r.name} | [{format_decimals(r.enclosure.lo, 6)}, "
            f"{format_decimals(r.enclosure.hi, 6)}] | {r.relation} {r.claimed} | "
            f"{'certified' if r.verdict else 'FAILED'}"
        )
    text.append("")
    text.append("derivation chain:")
    for s in chain:
        text.append(f"  {s.name}: {s.statement} ... {'certified' if s.certified else 'FAILED'}")
    text.append(f"verdict: {'pass' if ok else 'fail'}")
    _emit(args, data, text)
    return EXIT_OK if ok else EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
