import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import widthcert
from widthcert import deltacert, exactnum, globalbounds, widthlab

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from widthcert import *", namespace)
    assert len(set(widthcert.__all__)) == len(widthcert.__all__)
    for name in widthcert.__all__:
        assert namespace[name] is getattr(widthcert, name)


# -- start-up -----------------------------------------------------------------------


_STARTUP = """
import sys
import widthcert.cli as cli
code = cli.main(["--format", "kv", "verify-delta"])
print(code, *sorted(m for m in ("dataclasses", "inspect", "json", "numpy") if m in sys.modules))
"""


def test_a_kv_call_loads_no_dataclasses_inspect_json_or_numpy():
    # each CLI call is a fresh process, often without a bytecode cache: these
    # imports would cost it tens of milliseconds before any work starts
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", _STARTUP], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.splitlines()[-1] == "0"


# -- records ------------------------------------------------------------------------


RECORDS = [
    deltacert.DeltaModel, deltacert.ModelCheck, deltacert.LocalCertificate,
    deltacert.SymmetryCheck, deltacert.RadiusBound, deltacert.CertificateReport,
    globalbounds.Inequality, globalbounds.ChainStep, globalbounds.BoundReport,
    widthlab.WidthResult, widthlab.AffineFunctional, widthlab.HollownessResult,
    exactnum.RatInterval,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_are_read_only_and_equal_by_fields(record):
    names = getattr(record, "_fields", None) or record.__slots__
    values = [Fraction(i) for i in range(len(names))]
    first, second = record(*values), record(*values)
    assert first == second and hash(first) == hash(second)
    assert first != record(*values[:-1], values[-1] + 1)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(first, name, Fraction(-1))
    assert first == second and [getattr(first, name) for name in names] == values


# -- one BLAS thread ----------------------------------------------------------------


def _openblas_library():
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    if not libs:
        pytest.skip("numpy has no bundled scipy-openblas library")
    return libs[0]


_THREADS = """
import ctypes, sys
import widthcert, numpy
get_threads = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_
get_threads.argtypes, get_threads.restype = [], ctypes.c_int
print(get_threads())
"""


def _threads_in_fresh_process(library, **env):
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-c", _THREADS, str(library)], env={**environ, **env},
                         capture_output=True, text=True, timeout=60, check=True)
    return int(out.stdout)


def test_importing_widthcert_first_gives_numpy_one_blas_thread():
    import ctypes

    library = _openblas_library()
    try:
        get_threads = ctypes.CDLL(str(library)).scipy_openblas_get_num_threads64_
    except AttributeError:
        pytest.skip("the bundled OpenBLAS does not report its thread count")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    cores = len(os.sched_getaffinity(0))
    assert _threads_in_fresh_process(library) == 1
    # a value the user set still wins; OpenBLAS caps it at the usable cores
    assert _threads_in_fresh_process(library, OPENBLAS_NUM_THREADS="2") == min(2, cores)
    # and this test session itself runs on one thread, unless told otherwise
    assert get_threads() == min(int(os.environ["OPENBLAS_NUM_THREADS"]), cores)


# -- what the benchmark imports from the package ----------------------------------


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ in this checkout")
@pytest.mark.parametrize("mode", [["env"], ["setup", "cli-certify"],
                                  ["setup", "hessian-section"], ["setup", "width-scan"]])
def test_benchmark_worker_starts(mode):
    # `worker.py env` imports widthcert._kernels; a run whose worker exits
    # early prints no report line at all
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), *mode], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert isinstance(json.loads(proc.stdout.splitlines()[-1]), dict)


def test_section_bound_resolves_det_poly_through_deltacert(monkeypatch):
    # the hessian-section worker reads the determinant's term count by
    # wrapping `deltacert.det_poly`
    from widthcert import deltacert

    terms = []
    det_poly = deltacert.det_poly

    def counting_det_poly(*args, **kwargs):
        det = det_poly(*args, **kwargs)
        terms.append(len(det.terms))
        return det

    monkeypatch.setattr(deltacert, "det_poly", counting_det_poly)
    deltacert.hessian_section_bound(Fraction(39, 4), keep_vars=2)
    assert len(terms) == 1 and terms[0] > 0


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ in this checkout")
def test_benchmark_tracer_reads_a_section_determinant(monkeypatch):
    # every hook a traced benchmark run reads, on one small determinant: a
    # renamed target or a changed argument order fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    from widthcert import deltacert

    with Tracer() as tracer:
        deltacert.hessian_section_bound(Fraction(39, 4), keep_vars=2)
    assert tracer.missing == []
    [det] = tracer.dets
    assert det["primes"] and all(p % 8 == 7 for p in det["primes"])
    assert det["bound_bits"] >= det["actual_bits"]
    # the hook reads the live CRT values only; the largest coefficient is
    # the same as over the full-length arrays
    assert det["actual_bits"] == 90
    assert det["terms"] > 0
    # the Laplace kernel is the tests' oracle now; the determinant runs one
    # evaluation-interpolation pass per prime
    assert tracer.counts.get("kernels.level_pass", 0) == 0
    assert tracer.counts["fastdet.per_prime"] == len(det["primes"])
