"""hdrelay benchmark: four CLI workloads driven in-process through
``hdrelay.cli.run``, with output checks, and a traced per-layer split.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/bench.py --workload campaign-single --seed 1 --seconds 25 --trace 0

One run measures one workload.  It makes one warm-up pass, then repeats
the workload's command until ``--seconds`` have passed, timing a fresh
interpreter up to a ready parser (``setup_s``) between passes.  Every pass
and every set-up is checked; one that exits non-zero or fails its check
counts as failed, and
failed / attempted is the error rate.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics (medians over passes); with
``--trace 1`` untraced and traced passes alternate, and it carries the
per-layer split of the traced passes, the tracing overhead and the kernel
scaling table.  Lines before it (prefixed ``#``) give quartiles, sample
counts, machine facts and the full report.

The workload seed feeds the hdrelay ``--seed`` (campaigns, verify) or picks
the multiplexing gains (exponent sweep); the same seed gives the same inputs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

MIN_PASSES = 3
SETUP_REPS = 15
# two-proportion z-score allowed between a campaign row and the reference;
# at |z| <= 5 a correct program fails a row about once in 1.7 million
Z_BOUND = 5.0

# the split quoted in ROADMAP.md before this benchmark existed (ad-hoc scripts)
ROADMAP_SPLIT = (
    "single-relay campaign 7 x 1e6 trials 1.96 s on 1 worker, Philox about 85-90%, "
    "bound under 10%; two-hop RNG under 10%; one oracle call at step 0.005 0.58 s"
)

Doc = dict[str, Any]


class BenchError(Exception):
    """The checkout cannot be benchmarked (e.g. the package is missing)."""


def import_hdrelay():
    """Import hdrelay from this checkout's src/, never from elsewhere."""
    if not (SRC / "hdrelay" / "cli.py").is_file():
        raise BenchError(f"no hdrelay sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hdrelay
    import hdrelay.cli

    if SRC not in Path(hdrelay.__file__).resolve().parents:
        raise BenchError(f"hdrelay was imported from {hdrelay.__file__}, not from {SRC}")
    return hdrelay


# ---------------------------------------------------------------- checks


def _counts(doc: Doc) -> list[int]:
    return [row["outage_count"] for row in doc["rows"]]


def z_score(count: int, trials: int, ref_count: int, ref_trials: int) -> float:
    """Pooled two-proportion z-score; 0 when both proportions are 0 or 1."""
    pooled = (count + ref_count) / (trials + ref_trials)
    var = pooled * (1.0 - pooled) * (1.0 / trials + 1.0 / ref_trials)
    if var == 0.0:
        return 0.0
    return (count / trials - ref_count / ref_trials) / math.sqrt(var)


def check_campaign(doc: Doc, first: Doc | None, reference: Doc) -> list[str]:
    """Counts repeat bit-identically across passes; every row lies within
    Z_BOUND of the reference probability at its SNR point."""
    problems = []
    if first is not None and _counts(doc) != _counts(first):
        problems.append(f"counts {_counts(doc)} differ from the first pass {_counts(first)}")
    ref_rows = {row["snr_db"]: row for row in reference["rows"]}
    if sorted(ref_rows) != sorted(row["snr_db"] for row in doc["rows"]):
        problems.append("SNR grid differs from the reference")
        return problems
    for row in doc["rows"]:
        ref = ref_rows[row["snr_db"]]
        z = z_score(row["outage_count"], row["trials"], ref["outage_count"], ref["trials"])
        if abs(z) > Z_BOUND:
            problems.append(
                f"{row['snr_db']} dB: {row['outage_count']}/{row['trials']} vs reference "
                f"{ref['outage_count']}/{ref['trials']}, z = {z:.2f}"
            )
    return problems


def check_exponent(doc: Doc, first: Doc | None, reference: Doc) -> list[str]:
    """Every oracle exponent lies within dim*step of the exact 2(1-r)."""
    tolerance = 3 * doc["metadata"]["oracle_step"] + 1e-9
    problems = []
    for row in doc["rows"]:
        exact = 2.0 * (1.0 - row["r"])
        if row["d_oracle"] is None or abs(row["d_oracle"] - exact) > tolerance:
            problems.append(f"r={row['r']}: d_oracle {row['d_oracle']} is not within {tolerance} of {exact}")
    return problems


def check_verify(doc: Doc, first: Doc | None, reference: Doc) -> list[str]:
    """The suite ran every instance and found no violation."""
    (row,) = doc["rows"]
    problems = []
    if row["violations"] != 0:
        problems.append(f"{row['violations']} violations")
    if row["instances"] != VERIFY_INSTANCES:
        problems.append(f"ran {row['instances']} instances, expected {VERIFY_INSTANCES}")
    return problems


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """A CLI command per seed, its work count and its output check.

    Why each workload was chosen is recorded in BENCHMARK.json.
    """

    name: str
    argv: Callable[[int], list[str]]
    items: Callable[[Doc], int]
    item_unit: str
    check: Callable[[Doc, Doc | None, Doc], list[str]]


def campaign_argv(model_args: list[str], trials: int, workers: int) -> Callable[[int], list[str]]:
    def argv(seed: int) -> list[str]:
        return ["outage", *model_args, "--trials", str(trials), "--workers", str(workers),
                "--seed", str(seed), "--format", "json"]

    return argv


SINGLE_ARGS = ["--model", "single-relay-ub", "--t", "0.5", "--r", "0.5", "--snr-db", "10:40:5"]
TWOHOP_ARGS = ["--model", "two-hop-zlb", "--relays", "6", "--r", "0.75", "--snr-db", "10:30:10"]
SINGLE_TRIALS = 250_000
TWOHOP_TRIALS = 8_192
EXPONENT_RATES = 2
EXPONENT_STEP = 0.005
VERIFY_INSTANCES = 7_500


def exponent_argv(seed: int) -> list[str]:
    # gains (k + u) / EXPONENT_RATES spread over [0, 1), shifted by a seed-drawn u
    u = random.Random(seed).random()
    rates = ",".join(repr(round((k + u) / EXPONENT_RATES, 6)) for k in range(EXPONENT_RATES))
    return ["exponent", "--relays", "1", "--t", "0.5", "--r-grid", rates,
            "--oracle-step", str(EXPONENT_STEP), "--format", "json"]


def verify_argv(seed: int) -> list[str]:
    return ["verify", "--kind", "cut-avg", "--instances", str(VERIFY_INSTANCES),
            "--max-relays", "6", "--seed", str(seed), "--format", "json"]


def _trials(doc: Doc) -> int:
    return sum(row["trials"] for row in doc["rows"])


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "campaign-single",
            campaign_argv(SINGLE_ARGS, SINGLE_TRIALS, 1), _trials, "trials", check_campaign,
        ),
        Workload(
            "campaign-twohop",
            campaign_argv(TWOHOP_ARGS, TWOHOP_TRIALS, 2), _trials, "trials", check_campaign,
        ),
        Workload(
            "exponent-sweep",
            exponent_argv, lambda doc: len(doc["rows"]), "rows", check_exponent,
        ),
        Workload(
            "verify-cutavg",
            verify_argv, lambda doc: doc["rows"][0]["instances"], "instances", check_verify,
        ),
    ]
}


def load_reference(name: str) -> Doc:
    """Stored reference rows of a campaign workload ({} for the others)."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"].get(name, {})


# ------------------------------------------------------------ measurement


@dataclass
class Tally:
    """Operations attempted and the reasons of those that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def checked_pass(
    cli_run: Callable[[list[str]], int],
    workload: Workload,
    argv: list[str],
    first: Doc | None,
    reference: Doc,
    tally: Tally,
) -> tuple[float, Doc | None]:
    """One in-process pass, its output check recorded in `tally`; (wall, parsed output)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli_run(argv)
        wall = time.perf_counter() - start
    if code != 0:
        tally.record([f"exit code {code}: {err.getvalue().strip()}"])
        return wall, None
    try:
        doc = json.loads(out.getvalue())
        problems = workload.check(doc, first, reference)
    except (ValueError, KeyError, TypeError) as exc:
        doc, problems = None, [f"unreadable output: {type(exc).__name__}: {exc}"]
    tally.record(problems)
    return wall, doc


def setup_time(tally: Tally) -> float:
    """Seconds from a fresh interpreter to a parsed ``--version``."""
    import hdrelay

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hdrelay.cli", "--version"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    expected = f"hdrelay {hdrelay.__version__}"
    printed = proc.stdout.strip()
    ok = proc.returncode == 0 and printed == expected
    tally.record([] if ok else [f"setup: exit {proc.returncode}, printed {printed!r}, expected {expected!r}"])
    return seconds


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _passes(seconds: float, step: Callable[[], None], count: Callable[[], int]) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or count() < MIN_PASSES:
        step()


def measure_plain(
    cli_run: Callable[[list[str]], int],
    workload: Workload,
    seed: int,
    seconds: float,
    tally: Tally,
    setup_reps: int = 0,
) -> dict[str, list[float]]:
    """Untraced passes after one warm-up: wall time and items/s per pass.

    With `setup_reps`, set-up times are taken between the passes, so they
    sample the same stretch of machine time as the passes do.
    """
    argv, reference = workload.argv(seed), load_reference(workload.name)
    _, first = checked_pass(cli_run, workload, argv, None, reference, tally)
    samples: dict[str, list[float]] = {"wall_s": [], "items_per_s": []}
    setups: list[float] = []

    def step() -> None:
        if len(setups) < setup_reps:
            setups.append(setup_time(tally))
        wall, doc = checked_pass(cli_run, workload, argv, first, reference, tally)
        samples["wall_s"].append(wall)
        samples["items_per_s"].append(workload.items(doc) / wall if doc else 0.0)

    _passes(seconds, step, lambda: len(samples["wall_s"]))
    while len(setups) < setup_reps:
        setups.append(setup_time(tally))
    if setups:
        samples["setup_s"] = setups
    return samples


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 for layers the pass never entered)."""
    from spans import layer_summary

    busy, work, work_busy = layer_summary(spans)
    total = sum(busy.values())
    b = lambda layer: busy.get(layer, 0.0)
    w = lambda key: work.get(key, 0.0)
    per = lambda num, den: num / den if den > 0 else 0.0
    share = lambda layer: per(100.0 * b(layer), total)
    return {
        "rng.self_s": b("rng"),
        "rng.words_per_s": per(w("rng.words"), b("rng")),
        "rng.share": share("rng"),
        "channel.self_s": b("channel"),
        "channel.gains_per_s": per(w("channel.gains"), b("channel")),
        "channel.share": share("channel"),
        "cutset.self_s": b("cutset"),
        "cutset.bound_trials_per_s": per(w("cutset.bound_trials"), work_busy.get("cutset.bound_trials", 0.0)),
        "cutset.cut_state_pairs": w("cutset.cut_state_pairs"),
        "cutset.scalar_flow_calls": w("cutset.scalar_flow_calls"),
        "cutset.scalar_flow_us_per_call": per(
            1e6 * work_busy.get("cutset.scalar_flow_calls", 0.0), w("cutset.scalar_flow_calls")
        ),
        "cutset.share": share("cutset"),
        "montecarlo.self_s": b("montecarlo"),
        "montecarlo.tasks": w("montecarlo.tasks"),
        "dmt.self_s": b("dmt"),
        "dmt.predicate_s": b("dmt.predicate"),
        "dmt.oracle_calls": w("dmt.oracle_calls"),
        "dmt.points_evaluated": w("dmt.points_evaluated"),
        "dmt.grid_points": w("dmt.grid_points"),
        "lemmas.self_s": b("lemmas"),
        "lemmas.instances": w("lemmas.instances"),
        "cli.self_s": b("cli"),
        "trace.busy_s": total,
    }


def measure_traced(
    cli_run: Callable[[list[str]], int], workload: Workload, seed: int, seconds: float, tally: Tally
) -> tuple[dict[str, list[float]], list[float], list[float]]:
    """Alternating untraced and traced passes after one warm-up.

    Returns the per-pass layer metrics of the traced passes and the wall
    times of both kinds.
    """
    from spans import Tracer, patched

    argv, reference = workload.argv(seed), load_reference(workload.name)
    _, first = checked_pass(cli_run, workload, argv, None, reference, tally)
    layers: dict[str, list[float]] = {}
    plain: list[float] = []
    traced: list[float] = []

    def step() -> None:
        plain.append(checked_pass(cli_run, workload, argv, first, reference, tally)[0])
        tracer = Tracer()
        with patched(tracer):
            wall, _ = checked_pass(tracer.wrap(cli_run, "cli"), workload, argv, first, reference, tally)
        traced.append(wall)
        for key, value in layer_metrics(tracer.spans).items():
            layers.setdefault(key, []).append(value)

    _passes(seconds, step, lambda: len(traced))
    return layers, plain, traced


# ------------------------------------------------------------ reporting


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    try:
        spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(hdrelay) -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hdrelay": hdrelay.__version__,
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # one process, at most nproc threads: the campaign's own pool, no BLAS pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        hdrelay = import_hdrelay()
        facts = machine_facts(hdrelay)
        workload = WORKLOADS[args.workload]
        cli_run = hdrelay.cli.run
        tally = Tally()
        units = declared_units(args.trace)
        report: dict[str, Any] = {"workload": workload.name, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "command": "hdrelay " + " ".join(workload.argv(args.seed))}
        if args.trace:
            from kernels import kernel_table

            layers, plain, traced = measure_traced(cli_run, workload, args.seed, args.seconds, tally)
            metrics = {key: statistics.median(values) for key, values in layers.items()}
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            table_metrics, table_rows = kernel_table(args.seed)
            metrics.update(table_metrics)
            report["wall_s"] = {"untraced": summary(plain), "traced": summary(traced)}
            report["kernel_table"] = table_rows
        else:
            samples = measure_plain(cli_run, workload, args.seed, args.seconds, tally, SETUP_REPS)
            samples["peak_rss_mib"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
            metrics = {key: statistics.median(values) for key, values in samples.items()}
            report["samples"] = {key: summary(values) for key, values in samples.items()}
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise BenchError(f"declared metrics not measured: {missing}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    facts["loadavg_end"] = list(os.getloadavg())
    report.update(machine=facts, attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / tally.attempted, failures=tally.failures[:10])

    print(f"# workload={workload.name} seed={args.seed} trace={args.trace}: {report['command']}")
    print(f"# machine {json.dumps(facts)}")
    for key, value in metrics.items():
        extra = report.get("samples", {}).get(key)
        spread = f"  q1={extra['q1']:.6g} q3={extra['q3']:.6g} n={extra['n']}" if extra else ""
        unit = units.get(key, "")
        if key == "items_per_s":
            unit += f" ({workload.item_unit}/s)"
        print(f"# {key} = {value:.6g} {unit}{spread}")
    if args.trace:
        shares = ", ".join(f"{key} {metrics[key]:.1f}%" for key in ("rng.share", "channel.share", "cutset.share"))
        print(f"# busy-time shares: {shares}; ROADMAP baseline: {ROADMAP_SPLIT}")
    print(f"# error_rate = {tally.failed}/{tally.attempted} = {report['error_rate']:.6g}")
    for failure in tally.failures[:10]:
        print(f"# failed: {failure}")
    print(f"# report {json.dumps(report)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
