"""Run every workload once and print its end-to-end metrics by name and unit.

    python3 perfbench/report.py --seed 1 --seconds 35 [--trace] [--out FILE]

Each workload runs as in ``run.py``; the table gives the names used in the
benchmark's design (``cli_round_s``, ``det_s``, ``width_p50_ms``, ...) next
to the names ``BENCHMARK.json`` declares, plus ``fail_ratio``.  With
``--trace`` a traced run of each workload follows and its per-layer metrics,
overhead and determinant provenance are added.  ``--out`` writes every
result and report as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="report.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        try:
            result, report = run.run(workload, args.seed, args.seconds, False)
        except run.BenchError as err:
            print(f"benchmark error: {err}", file=sys.stderr)
            return 2
        entry = {"result": result, "report": report}
        print(f"{workload}  (attempted {result['attempted']}, failed {result['failed']})")
        rows = {**report["by_design_name"],
                **{f"{k} [BENCHMARK.json]": v for k, v in result["metrics"].items()}}
        for name, m in rows.items():
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
        if args.trace:
            traced, traced_report = run.run(workload, args.seed, args.seconds, True)
            entry["traced"] = {"result": traced, "report": traced_report}
            overhead = traced_report["trace_overhead"]
            print(f"  traced: {len(traced['metrics'])} per-layer metrics, "
                  f"missing {traced_report['missing_metrics']}, "
                  f"overhead {overhead['overhead_s']:+.3f} s "
                  f"({overhead['overhead_ratio']:+.1%})")
        record["workloads"][workload] = entry
        record["environment"] = report["environment"]
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
