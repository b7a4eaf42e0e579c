"""widthcert benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is loaded from ``src/`` next to this
directory, and the run fails (exit 2, no result) when it is not there.

Workloads (all load comes from one process, one item at a time, with at most
one child process alive):

* ``cli-certify``   one round is six fresh ``python -m widthcert.cli --format
  kv`` calls; stdout and exit code are compared byte for byte with
  ``golden/cli``.
* ``hessian-section`` ``deltacert.hessian_section_bound(39/4, keep_vars=6)``
  in a fresh worker process: the hot path of condition (iv).
* ``width-scan``    ``lattice_width`` plus ``hollow_check`` on seeded
  unimodular images of bodies with known invariants (``widthitems.py``).

End-to-end metrics (``--trace 0``), the same names on every workload.  Times
are scaled to a reference machine speed by `speed.SpeedProbe`, because the
speed of a shared VM swings by up to 2x within a run; the times as measured
are in the report line under ``measured``.

* ``setup_s``     median over fresh interpreters of spawn-to-first-item-ready.
* ``round_s``     median time of one round: the six CLI calls
  (``cli_round_s``), one section bound (``det_s``), one pass over all width
  items (``width_run_s``).
* ``item_p50_ms`` / ``item_p95_ms``  per-item latency: per CLI call, per
  section bound, per width item (``width_p50_ms`` / ``width_p95_ms``).
* ``peak_rss_mb`` largest peak resident set of any child doing the work.

Failures (wrong output, non-zero exit, exception) count against attempts in
``failed``/``attempted``; ``fail_ratio`` is printed in the report line.

``--trace 1`` repeats the workload untraced, then runs one traced round in
the same process layout and prints the per-layer metrics (`PER_LAYER`) and
the tracing overhead.  Counts come from a single fresh-process round, so
they repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from speed import PERIOD_S, SpeedProbe  # noqa: E402
from tracing import span_times  # noqa: E402
from widthitems import check_item  # noqa: E402
from worker import timed_rounds  # noqa: E402

WORKLOADS = ("cli-certify", "hessian-section", "width-scan")
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0

CLI_CALLS = (
    ("verify_delta", ["verify-delta"]),
    ("certify_local", ["certify-local"]),
    # the paper's radius grid for conditions (i)-(iii); c >= 14 fails by design
    ("sweep", ["certify-neighborhood", "--sweep", "7,8,9,39/4,10,11,12"]),
    ("smoke_hessian", ["certify-neighborhood", "--smoke-hessian"]),
    ("global_bounds", ["global-bounds"]),
    ("width", ["width", "--polytope", "perfbench/data/delta.poly"]),
)
GOLDEN = HERE / "golden" / "cli"

# pinned from the unmodified package
HESSIAN_EXPECTED = {"display": "0.03477", "certified": "173859/5000000", "terms": 37436}

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# the design names of `round_s` and the item percentiles, per workload
ALIASES = {
    "cli-certify": {"round_s": ("cli_round_s", "s")},
    "hessian-section": {"round_s": ("det_s", "s")},
    "width-scan": {"round_s": ("width_run_s", "s"), "item_p50_ms": ("width_p50_ms", "ms"),
                   "item_p95_ms": ("width_p95_ms", "ms")},
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed item)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Children:
    """Starts one child at a time and reaps it with its own resource usage.

    While a child runs, the parent samples machine speed (`speed.SpeedProbe`)
    on the same CPU, so that the child's times can be scaled.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.peak_rss_kb = 0
        self.probe = SpeedProbe()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def run(self, argv: list[str]) -> dict:
        if time.monotonic() >= self.deadline:
            raise BenchError("time budget exhausted")
        with tempfile.TemporaryFile(dir=WORKDIR) as err_file:
            self.probe.sample()
            spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err_file)
            done: dict = {}

            def reap():
                done["out"] = proc.stdout.read()
                proc.stdout.close()
                _, done["status"], done["usage"] = os.wait4(proc.pid, 0)
                done["end"] = time.monotonic()

            waiter = threading.Thread(target=reap)
            waiter.start()
            killed = False
            while True:
                waiter.join(PERIOD_S)
                if not waiter.is_alive():
                    break
                if time.monotonic() >= self.deadline and not killed:
                    os.kill(proc.pid, signal.SIGKILL)  # not yet reaped: the pid is ours
                    killed = True
                self.probe.sample()
            self.probe.sample()
            proc.returncode = os.waitstatus_to_exitcode(done["status"])
            err_file.seek(0)
            err = err_file.read().decode(errors="replace")
        self.peak_rss_kb = max(self.peak_rss_kb, done["usage"].ru_maxrss)
        if killed:
            raise BenchError(f"child exceeded the time budget: {argv[:3]}")
        return {"rc": proc.returncode, "out": done["out"], "err": err, "spawn": spawn,
                "end": done["end"]}

    def json(self, argv: list[str]) -> dict:
        res = self.run(argv)
        if res["rc"] != 0:
            raise BenchError(f"worker {argv[1:3]} exited {res['rc']}: {res['err'][-2000:]}")
        lines = res["out"].decode().strip().splitlines()
        return {**json.loads(lines[-1]), "_spawn": res["spawn"], "_end": res["end"]}


def worker(*args) -> list[str]:
    return [str(HERE / "worker.py"), *map(str, args)]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def golden(name: str) -> tuple[bytes, int]:
    meta = json.loads((GOLDEN / "exit_codes.json").read_text())
    return (GOLDEN / f"{name}.kv").read_bytes(), meta[name]


def check_cli(name: str, rc: int, out: bytes) -> str | None:
    want_out, want_rc = golden(name)
    if rc != want_rc:
        return f"{name}: exit code {rc}, expected {want_rc}"
    if out != want_out:
        return f"{name}: stdout differs from golden/cli/{name}.kv"
    return None


def check_hessian(output: dict) -> str | None:
    if "error" in output:
        return f"hessian-section raised {output['error']}"
    got = {k: output.get(k) for k in HESSIAN_EXPECTED}
    if got != HESSIAN_EXPECTED:
        return f"hessian-section: expected {HESSIAN_EXPECTED}, got {got}"
    return None


def check_width(base: str, output: dict) -> str | None:
    if "error" in output:
        return f"{base} raised {output['error']}"
    return check_item(base, output)


# ---------------------------------------------------------------------------
# workloads (untraced)
# ---------------------------------------------------------------------------


class Outcome:
    """Latencies per item, round times and failures of one untraced run.

    Every time is kept twice: as measured, and scaled to the reference speed
    (`speed.py`); the metrics use the scaled times.  An item (one CLI call,
    one section bound, one width input) runs once per round; its latency is
    its median over the rounds, so the percentiles describe the fixed item
    mix rather than how many rounds fitted.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.items: dict[object, list[tuple[float, float]]] = {}
        self.rounds: list[tuple[float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.detail: dict = {}

    def _times(self, start: float, end: float) -> tuple[float, float]:
        return end - start, self.probe.scaled(start, end)

    def record(self, item, start: float, end: float, problem: str | None) -> None:
        self.items.setdefault(item, []).append(self._times(start, end))
        self.attempted += 1
        if problem:
            self.failures.append(problem)

    def set_rounds(self, intervals: list[list[float]]) -> None:
        self.rounds = [self._times(start, end) for start, end in intervals]

    def item_latencies(self, scaled: bool = True) -> list[float]:
        return [statistics.median(t[scaled] for t in v) for v in self.items.values()]

    def round_time(self, scaled: bool = True) -> float:
        return statistics.median(t[scaled] for t in self.rounds)


def cli_call(children: Children, name: str, args: list[str], trace_file: Path | None = None):
    if trace_file is None:
        argv = ["-m", "widthcert.cli", "--format", "kv", *args]
    else:
        argv = worker("cli", trace_file, "--", "--format", "kv", *args)
    res = children.run(argv)
    return res, check_cli(name, res["rc"], res["out"])


def run_cli_certify(children: Children, seed: int, seconds: float) -> Outcome:
    outcome = Outcome(children.probe)
    calls = []

    def one_round():
        for name, args in CLI_CALLS:
            res, problem = cli_call(children, name, args)
            calls.append((name, res["spawn"], res["end"], problem))

    rounds = timed_rounds(one_round, seconds)
    for call in calls:
        outcome.record(*call)
    outcome.set_rounds(rounds)
    outcome.detail["per_call_median_s"] = dict(zip(outcome.items, outcome.item_latencies()))
    return outcome


def run_hessian_section(children: Children, seed: int, seconds: float) -> Outcome:
    outcome = Outcome(children.probe)
    res = children.json(worker("hessian-section", "--seconds", seconds))
    for (start, end), output in zip(res["rounds"], res["outputs"]):
        outcome.record("section", start, end, check_hessian(output))
    outcome.set_rounds(res["rounds"])
    return outcome


def run_width_scan(children: Children, seed: int, seconds: float) -> Outcome:
    outcome = Outcome(children.probe)
    res = children.json(worker("width-scan", "--seed", seed, "--seconds", seconds))
    for index, base, start, end, output in res["items"]:
        outcome.record(index, start, end, check_width(base, output))
    outcome.set_rounds(res["rounds"])
    return outcome


RUNNERS = {
    "cli-certify": run_cli_certify,
    "hessian-section": run_hessian_section,
    "width-scan": run_width_scan,
}


def setup_samples(children: Children, workload: str, seed: int) -> list[tuple[float, float]]:
    """(measured, scaled) seconds from spawn to ready, per fresh interpreter."""
    out = []
    for _ in range(SETUP_SAMPLES):
        res = children.json(worker("setup", workload, "--seed", seed))
        out.append((res["ready"] - res["_spawn"],
                    children.probe.scaled(res["_spawn"], res["ready"])))
    return out


# ---------------------------------------------------------------------------
# traced round and per-layer metrics
# ---------------------------------------------------------------------------


def _cnt(name):
    return lambda t: t.counts.get(name, 0), name


def _incl(name):
    return lambda t: t.inclusive.get(name, 0.0), name


def _extra(key, source):
    return lambda t: t.extra.get(key, 0), source


def _per_prime(t):
    primes = t.counts.get("fastdet.per_prime", 0)
    return t.inclusive.get("fastdet.per_prime", 0.0) / primes if primes else 0.0


def _yield(t):
    candidates = t.counts.get("widthlab.candidates", 0)
    return t.extra.get("widthlab.minimizers", 0) / candidates if candidates else 0.0


def _det_field(key, reduce):
    return lambda t: reduce([d.get(key, 0) for d in t.dets] or [0])


# name -> (unit, (function of the merged trace, wrap target it depends on))
# A metric whose target is missing is dropped and named in the report.
PER_LAYER = {
    "exactnum.qs2_mul.calls": ("count", _cnt("exactnum.qs2_mul")),
    "exactnum.qs2_add.calls": ("count", _cnt("exactnum.qs2_add")),
    "exactnum.qs2_sign.calls": ("count", _cnt("exactnum.qs2_sign")),
    "exactnum.qs2_mul_us": ("us", None),
    "exactnum.qs2_add_us": ("us", None),
    "exactnum.qs2_sign_us": ("us", None),
    "mvpoly.mul.calls": ("count", _cnt("mvpoly.mul")),
    "mvpoly.mul_s": ("s", _incl("mvpoly.mul")),
    "mvpoly.substitute_linear_s": ("s", _incl("mvpoly.substitute_linear")),
    "mvpoly.evaluate_s": ("s", _incl("mvpoly.evaluate")),
    "mvpoly.companion_root.calls": ("count", _cnt("mvpoly.companion_root")),
    "mvpoly.companion_root_s": ("s", _incl("mvpoly.companion_root")),
    "exactlinalg.det_field.calls": ("count", _cnt("exactlinalg.det_field")),
    "exactlinalg.det_field_s": ("s", _incl("exactlinalg.det_field")),
    "exactlinalg.inverse_field.calls": ("count", _cnt("exactlinalg.inverse_field")),
    "exactlinalg.adjugate_poly_s": ("s", _incl("exactlinalg.adjugate_poly")),
    "widthlab.lattice_width_s": ("s", _incl("widthlab.lattice_width")),
    "widthlab.hollow_check_s": ("s", _incl("widthlab.hollow_check")),
    "widthlab.candidates": ("count", _cnt("widthlab.candidates")),
    "widthlab.hollow_points": ("count", _cnt("widthlab.hollow_points")),
    "widthlab.minimizer_yield": ("ratio", (_yield, "widthlab.lattice_width")),
    "fastdet.det_poly_modular_s": ("s", _incl("fastdet.det_poly_modular")),
    "fastdet.table_s": ("s", _incl("fastdet.table")),
    "fastdet.primes": ("count", _cnt("fastdet.per_prime")),
    "fastdet.per_prime_s": ("s", (_per_prime, "fastdet.per_prime")),
    "fastdet.crt_s": ("s", _incl("fastdet.crt")),
    "fastdet.verify_s": ("s", _incl("fastdet.verify")),
    "fastdet.det_terms": ("count", (_det_field("terms", sum), "fastdet.det_poly_modular")),
    "fastdet.bound_bits": ("bits", (_det_field("bound_bits", max), "fastdet.bound")),
    "fastdet.actual_bits": ("bits", (_det_field("actual_bits", max), "fastdet.crt")),
    "kernels.level_pass.calls": ("count", _cnt("kernels.level_pass")),
    "kernels.level_pass_s": ("s", _incl("kernels.level_pass")),
    "kernels.madds": ("madd", _extra("kernels.madds", "kernels.level_pass")),
    "kernels.bytes_moved": ("B-computed", _extra("kernels.bytes_moved", "kernels.level_pass")),
    "deltacert.pipeline_s": ("s", _incl("deltacert.pipeline")),
    "deltacert.local_certificate_s": ("s", _incl("deltacert.local_certificate")),
    "deltacert.symmetry_check_s": ("s", _incl("deltacert.symmetry_check")),
    "deltacert.attainment_bound_s": ("s", _incl("deltacert.attainment_bound")),
    "deltacert.hessian_matrix_build_s": ("s", _incl("deltacert.hessian_matrix_build")),
    "globalbounds.all_reports_s": ("s", _incl("globalbounds.all_reports")),
    "globalbounds.chain_s": ("s", _incl("globalbounds.chain")),
    "cli.startup_s": ("s", None),
    **{f"cli.{name}_s": ("s", None) for name, _ in CLI_CALLS},
    "trace.overhead_s": ("s", None),
}


class MergedTrace:
    """Counts, span times and determinant provenance of one traced round.

    Span times are scaled by each dump's ``scale``: the speed factor of the
    process that recorded it.
    """

    def __init__(self, dumps: list[dict]):
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.dets: list[dict] = []
        self.scales: list[float] = []
        missing_targets: set[str] = set()
        self.missing_names: set[str] = set()
        for dump in dumps:
            for src, dst in ((dump["counts"], self.counts), (dump["extra"], self.extra)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
            inclusive, self_time = span_times(dump["spans"])
            for src, dst in ((inclusive, self.inclusive), (self_time, self.self_time)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0.0) + v * dump["scale"]
            self.dets.extend(dump["dets"])
            self.scales.append(dump["scale"])
            missing_targets.update(dump["missing"])
            self.missing_names.update(dump["missing_names"])
        self.missing_targets = sorted(missing_targets)


def traced_round(children: Children, workload: str, seed: int, trace_dir: Path):
    """One traced round: (merged trace, scaled seconds, cli splits, items, failures)."""
    splits: dict[str, float] = {}
    failures: list[str] = []
    if workload == "cli-certify":
        dumps = []
        scaled = 0.0
        startup = 0.0
        for name, args in CLI_CALLS:
            trace_file = trace_dir / f"cli-{name}.json"
            res, problem = cli_call(children, name, args, trace_file)
            if problem:
                failures.append(problem)
            if not trace_file.is_file():
                raise BenchError(f"traced call {name} wrote no trace: {res['err'][-2000:]}")
            dump = json.loads(trace_file.read_text())
            dump["scale"] = children.probe.factor(res["spawn"], res["end"])
            dumps.append(dump)
            startup += children.probe.scaled(res["spawn"], dump["imported"])
            splits[f"cli.{name}_s"] = children.probe.scaled(dump["imported"], res["end"])
            scaled += children.probe.scaled(res["spawn"], res["end"])
        splits["cli.startup_s"] = startup
        items = len(CLI_CALLS)
    else:
        trace_file = trace_dir / f"{workload}.json"
        args = ["--seed", seed, "--seconds", 0, "--trace", trace_file]
        res = children.json(worker(workload, *args))
        scaled = children.probe.scaled(*res["rounds"][0])
        if workload == "hessian-section":
            problems = [check_hessian(o) for o in res["outputs"]]
        else:
            problems = [check_width(b, o) for _, b, _, _, o in res["items"]]
        items = len(problems)
        failures += [p for p in problems if p]
        dumps = [{**json.loads(trace_file.read_text()),
                  "scale": children.probe.factor(res["_spawn"], res["_end"])}]
    return MergedTrace(dumps), scaled, splits, items, failures


def per_layer_metrics(trace: MergedTrace, micro: dict, splits: dict,
                      overhead: float) -> tuple[dict, list[str]]:
    direct = {**micro, **splits, "trace.overhead_s": overhead}
    metrics, missing = {}, []
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            value = direct.get(name, 0.0)
        else:
            fn, target = source
            if target in trace.missing_names:
                missing.append(name)
                continue
            value = fn(trace)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpu_model": "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts["caches"][f"L{level}"] = size
        elif kind == "Data":
            facts["caches"]["L1d"] = size
    return facts


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result, report): the contract's result object and the details."""
    if not (ROOT / "src" / "widthcert" / "__init__.py").is_file():
        raise BenchError(f"no widthcert package under {ROOT / 'src'}")
    WORKDIR.mkdir(exist_ok=True)
    # the parent, its speed probe and every child share one CPU
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    children = Children(time.monotonic() + RUN_BUDGET_S)
    environment = {**machine_facts(), **children.json(worker("env")),
                   "commit": git_commit()}
    for key in ("_spawn", "_end"):
        environment.pop(key)
    children.peak_rss_kb = 0

    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": {**environment, "pinned_cpu": cpu}}
    setups = [] if trace else setup_samples(children, workload, seed)
    outcome = RUNNERS[workload](children, seed, seconds)
    untraced_round = outcome.round_time()
    peak_rss_mb = children.peak_rss_kb / 1024
    report.update({
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "fail_ratio": len(outcome.failures) / outcome.attempted,
        "failures": outcome.failures[:10],
        "rounds_s": {"measured": [t[0] for t in outcome.rounds],
                     "scaled": [t[1] for t in outcome.rounds]},
        "item_samples": sum(map(len, outcome.items.values())),
        "speed_samples": len(children.probe.costs),
        **outcome.detail,
    })

    if not trace:
        values = {}
        for scaled, label in ((True, "scaled"), (False, "measured")):
            latencies = outcome.item_latencies(scaled)
            values[label] = {
                "setup_s": statistics.median(t[scaled] for t in setups),
                "round_s": outcome.round_time(scaled),
                "item_p50_ms": statistics.median(latencies) * 1e3,
                "item_p95_ms": percentile(latencies, 0.95) * 1e3,
                "peak_rss_mb": peak_rss_mb,
            }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values["scaled"].items()}
        report["setup_samples_s"] = setups
        report["measured"] = values["measured"]
        report["by_design_name"] = {
            alias: {"value": metrics[k]["value"], "unit": unit}
            for k, (alias, unit) in ALIASES[workload].items()
        }
        report["by_design_name"]["fail_ratio"] = {"value": report["fail_ratio"], "unit": "ratio"}
    else:
        trace_dir = WORKDIR / f"trace-{workload}-seed{seed}"
        trace_dir.mkdir(exist_ok=True)
        merged, traced_round_s, splits, traced_items, traced_failures = traced_round(
            children, workload, seed, trace_dir)
        micro = children.json(worker("microbench", "--seed", seed))
        micro_scale = children.probe.factor(micro.pop("_spawn"), micro.pop("_end"))
        report["microbench_measured_us"] = micro
        micro = {k: v * micro_scale for k, v in micro.items()}
        overhead = traced_round_s - untraced_round
        metrics, missing = per_layer_metrics(merged, micro, splits, overhead)
        report["failures"] += traced_failures[:10]
        report["failed"] += len(traced_failures)
        report["attempted"] += traced_items
        report.update({
            "missing_metrics": missing,
            "missing_wrap_targets": merged.missing_targets,
            "trace_overhead": {"untraced_round_s": untraced_round,
                               "traced_round_s": traced_round_s,
                               "overhead_s": overhead,
                               "overhead_ratio": overhead / untraced_round},
            "determinants": merged.dets,
            "self_time_s": merged.self_time,
            "speed_factors": merged.scales + [micro_scale],
            "trace_files": str(trace_dir.relative_to(ROOT)),
        })

    report["fail_ratio"] = report["failed"] / report["attempted"]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
