"""Record one untraced and one traced run of every workload into
``perfbench/runs/BENCH_<label>.json`` (end-to-end metrics with quartiles,
per-layer split, kernel table, machine facts).  Run from the root of a
checkout::

    python3 perfbench/record.py --label baseline --seed 1 --seconds 25

It prints every end-to-end metric of every workload, with its unit,
quartiles over passes and sample count, and each run's error rate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from bench import HERE, ROOT, WORKLOADS

REPORT_PREFIX = "# report "


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    report = next(json.loads(line[len(REPORT_PREFIX) :]) for line in lines if line.startswith(REPORT_PREFIX))
    return {"result": json.loads(lines[-1]), "report": report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    doc = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = {mode: bench_run(name, args.seed, args.seconds, trace) for mode, trace in (("untraced", 0), ("traced", 1))}
        doc["workloads"][name] = runs
        samples = runs["untraced"]["report"]["samples"]
        for key, metric in runs["untraced"]["result"]["metrics"].items():
            q = samples[key]
            print(f"{name:16} {key:13} {metric['value']:12.6g} {metric['unit']:4} "
                  f"q1={q['q1']:.6g} q3={q['q3']:.6g} n={q['n']}")
        for mode, run in runs.items():
            print(f"{name:16} error_rate {mode}: {run['report']['failed']}/{run['report']['attempted']}")
    out = HERE / "runs" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
