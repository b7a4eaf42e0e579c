"""Child process of the benchmark: every call into widthcert runs here.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py setup <workload>
    python3 perfbench/worker.py env
    python3 perfbench/worker.py microbench --seed N
    python3 perfbench/worker.py hessian-section --seconds S [--trace FILE]
    python3 perfbench/worker.py width-scan --seed N --seconds S [--trace FILE]

A traced run passes ``--seconds 0``, which runs exactly one round.
    python3 perfbench/worker.py cli FILE -- <widthcert.cli arguments>

Each mode but ``cli`` prints one JSON object on stdout.  ``cli`` runs
``widthcert.cli.main`` under the tracer, leaves its stdout untouched so it
can be compared with the golden files, and writes the trace to FILE.
Timestamps exchanged with the parent are ``time.monotonic()``, which is one
system-wide clock on Linux.  Importing this module imports no widthcert code.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HESSIAN_C = Fraction(39, 4)
HESSIAN_KEEP_VARS = 6


def timed_rounds(run_round, seconds: float) -> list[list[float]]:
    """Run rounds until the next one would end past `seconds`; at least one.

    Returns the [start, end] monotonic time of each round.
    """
    start = time.monotonic()
    rounds: list[list[float]] = []
    while True:
        t0 = time.monotonic()
        run_round()
        rounds.append([t0, time.monotonic()])
        median = statistics.median(t1 - t0 for t0, t1 in rounds)
        if time.monotonic() - start + median > seconds:
            return rounds


def _setup(workload: str, seed: int):
    """What a fresh interpreter does before its first item is ready."""
    if workload == "cli-certify":
        import widthcert.cli  # noqa: F401

        return None
    from widthcert import deltacert

    model = deltacert.build_delta_model(check=True)
    if workload == "hessian-section":
        deltacert.get_pipeline()
        return None
    from widthitems import build_items

    return build_items(seed, model)


def _start_tracer(trace_file: str | None):
    if trace_file is None:
        return None
    import widthcert  # noqa: F401  (load every module before wrapping)
    from tracing import Tracer

    return Tracer().install()


def _finish_tracer(tracer, trace_file: str | None, **fields) -> None:
    if tracer is None:
        return
    tracer.restore()
    Path(trace_file).write_text(json.dumps({**tracer.dump(), **fields}))


def _hessian_section(args) -> dict:
    tracer = _start_tracer(args.trace)
    _setup("hessian-section", args.seed)
    ready = time.monotonic()
    from widthcert import deltacert

    outputs: list[dict] = []
    terms: list[int] = []

    # the determinant's term count is one of the checked outputs; observe it
    # where deltacert resolves `det_poly`
    det_poly = getattr(deltacert, "det_poly", None)
    if det_poly is not None:
        def counting_det_poly(*a, **kw):
            det = det_poly(*a, **kw)
            terms.append(len(det.terms))
            return det

        deltacert.det_poly = counting_det_poly

    def one_round():
        try:
            bound = deltacert.hessian_section_bound(HESSIAN_C, keep_vars=HESSIAN_KEEP_VARS)
            outputs.append({"display": bound.display, "certified": str(bound.certified),
                            "terms": terms[-1] if terms else None})
        except Exception as err:  # a failed item, reported, not fatal
            outputs.append({"error": repr(err)})

    try:
        rounds = timed_rounds(one_round, args.seconds)
    finally:
        if det_poly is not None:
            deltacert.det_poly = det_poly
    _finish_tracer(tracer, args.trace)
    return {"ready": ready, "rounds": rounds, "outputs": outputs}


def _width_scan(args) -> dict:
    tracer = _start_tracer(args.trace)
    items = _setup("width-scan", args.seed)
    ready = time.monotonic()
    from widthcert.polyfile import format_scalar
    from widthcert.widthlab import hollow_check, lattice_width

    samples: list[list] = []

    def one_pass():
        for index, (base, polytope, lattice) in enumerate(items):
            t0 = time.monotonic()
            try:
                wr = lattice_width(polytope, lattice)
                hollow = hollow_check(polytope, lattice)
                out = {"width": format_scalar(wr.width), "minimizers": len(wr.minimizers),
                       "hollow": hollow.hollow}
            except Exception as err:  # a failed item, reported, not fatal
                out = {"error": repr(err)}
            samples.append([index, base, t0, time.monotonic(), out])

    rounds = timed_rounds(one_pass, args.seconds)
    _finish_tracer(tracer, args.trace)
    return {"ready": ready, "rounds": rounds, "items": samples}


def _microbench(args) -> dict:
    """Microseconds per QSqrt2 multiply, add and sign on a seeded operand set."""
    from widthcert.exactnum import QSqrt2

    rng = random.Random(args.seed)

    def rand_q():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))

    xs = [QSqrt2(rand_q(), rand_q()) for _ in range(2000)]
    ys = [QSqrt2(rand_q(), rand_q()) for _ in range(2000)]
    pairs = list(zip(xs, ys))

    def per_op(fn) -> float:
        reps = []
        for _ in range(7):
            t0 = time.perf_counter()
            for x, y in pairs:
                fn(x, y)
            reps.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        return statistics.median(reps)

    return {
        "exactnum.qs2_mul_us": per_op(lambda x, y: x * y),
        "exactnum.qs2_add_us": per_op(lambda x, y: x + y),
        "exactnum.qs2_sign_us": per_op(lambda x, y: x.sign()),
    }


def _env(args) -> dict:
    import numpy

    from widthcert import _kernels

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    backend = getattr(_kernels, "active_backend", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": backend() if backend else "unavailable",
        "numba_imports": numba_imports,
    }


def _cli(trace_file: str, argv: list[str]) -> int:
    import widthcert.cli as cli

    imported = time.monotonic()
    tracer = _start_tracer(trace_file)
    code = 1
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        _finish_tracer(tracer, trace_file, imported=imported)
    return code


def main(argv: list[str]) -> int:
    if argv and argv[0] == "cli":
        if len(argv) < 3 or argv[2] != "--":
            print("usage: worker.py cli FILE -- ARGS...", file=sys.stderr)
            return 2
        return _cli(argv[1], argv[3:])
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "env", "microbench",
                                         "hessian-section", "width-scan"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(args.workload, args.seed)
        result = {"ready": time.monotonic()}
    else:
        result = {"env": _env, "microbench": _microbench,
                  "hessian-section": _hessian_section, "width-scan": _width_scan}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
