"""Command-line front end: exponent sweeps, outage campaigns, slope fits,
schedule optimization, baseline curves, and inequality suites.

Results are emitted as CSV (metadata in leading ``# key=value`` comment
lines, then a header row and data rows) or as a JSON object with
``metadata`` and ``rows``.  Exit codes: 0 success, 1 runtime error, 2 usage
error, 3 verification violation.  Randomized subcommands require --seed and
echo it, together with the generator name, in the output metadata.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import math
import shlex
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence, get_type_hints

from ._version import __version__
from .cutset import SingleRelaySchedule, TwoHopSchedule
from .dmt import (
    DEFAULT_ORACLE_BUDGET,
    crossing_links_outage_region,
    exponent_grid_oracle,
    miso_dmt,
    optimize_schedule_single,
    single_relay_outage_region,
)
from .lemmas import CheckKind, run_randomized_suite
from .montecarlo import (
    MAX_WORKERS,
    OutageRow,
    RunConfig,
    estimate_diversity_slope,
    estimate_outage,
)
from .rng import GENERATOR_NAME

MAX_GRID_POINTS = 10_001  # of one grid, range or list

OUTAGE_COLUMNS = [f.name for f in fields(OutageRow)]

# what a command handler returns: columns, rows, and its own metadata keys
_Table = tuple[list[str], list[dict[str, Any]], dict[str, Any]]


def parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (endpoints inclusive within half a step),
    a comma-separated list, or a single number."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("start, stop and step must be finite")
            if step <= 0:
                raise ValueError("step must be > 0")
            if stop < start:
                raise ValueError("stop must be >= start")
            last = (stop - start) / step + 0.5  # may overflow to inf
            if last >= MAX_GRID_POINTS:
                raise ValueError(f"more than {MAX_GRID_POINTS} points")
            return [round(start + k * step, 12) for k in range(math.floor(last) + 1)]
        if "," in text:
            if text.count(",") >= MAX_GRID_POINTS:
                raise ValueError(f"more than {MAX_GRID_POINTS} points")
            return [float(p) for p in text.split(",")]
        return [float(text)]
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from exc


def parse_count(text: str) -> int:
    """Parse a positive integer, read exactly, in decimal or scientific notation like 1e6 or 7.0."""
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation as exc:
        raise ValueError(f"bad count {text!r}") from exc
    # past 4,300 digits Python will not print the integer back; an exponent
    # like 1e999999999 is rejected here, before its integer is formed
    if value.is_finite() and value.adjusted() >= 4300:
        raise ValueError(f"count {text!r} has more than 4300 digits")
    if not value.is_finite() or value < 1 or value != int(value):
        raise ValueError(f"count must be a positive integer, got {text!r}")
    return int(value)


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return repr(value)
    return str(value)


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def render(
    columns: Sequence[str],
    rows: Sequence[dict[str, Any]],
    metadata: dict[str, Any] | None,
    fmt: str,
) -> str:
    """Render a table to CSV or JSON text (LF line endings, '.' decimals)."""
    if fmt == "csv":
        buf = io.StringIO()
        if metadata:
            for key, value in metadata.items():
                buf.write(f"# {key}={json.dumps(_json_safe(value))}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])
        return buf.getvalue()
    if fmt == "json":
        doc = {
            "metadata": _json_safe(metadata or {}),
            "rows": [_json_safe({col: row.get(col) for col in columns}) for row in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit(
    columns: Sequence[str],
    rows: Sequence[dict[str, Any]],
    metadata: dict[str, Any] | None,
    fmt: str,
    target: str | None,
) -> None:
    """Serialize a table to `target` (a path, or stdout when None).

    The rendered text is written in one operation after it is fully built.
    """
    text = render(columns, rows, metadata, fmt)
    if target is None:
        sys.stdout.write(text)
        return
    try:
        Path(target).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {target!r}: {exc}") from exc


def _base_metadata(argv: Sequence[str]) -> dict[str, Any]:
    return {
        "tool": "hdrelay",
        "version": __version__,
        "command": "hdrelay " + shlex.join(argv),
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def _mode_flag(args: argparse.Namespace, name: str, default: Any, applies: bool, mode: str) -> Any:
    """An optional flag's value, `default` when unset; setting it where the
    value of the flag `mode` makes the command ignore it is a usage error."""
    value = getattr(args, name)
    if value is None:
        return default
    if not applies:
        raise ValueError(f"--{name.replace('_', '-')} does not apply to --{mode} {getattr(args, mode)}")
    return value


def _cmd_exponent(args: argparse.Namespace) -> _Table:
    r_values = parse_grid(args.r_grid)
    t = _mode_flag(args, "t", 0.5, args.relays == 1, "relays")
    step = args.oracle_step if args.oracle_step is not None else (0.005 if args.relays == 1 else 0.05)
    if args.relays == 1:
        region, dim = single_relay_outage_region(r_values, t), 3
        miso = 2 if t == 0.5 else None  # the closed form at the paper's t = 1/2
    else:
        # every cut constrains its own N+1 crossing links the same way,
        # so the per-cut minimum equals the one reduced search
        region, dim = crossing_links_outage_region(args.relays, r_values), args.relays + 1
        miso = dim
    d_oracle = exponent_grid_oracle(region, dim, step, args.budget, len(r_values)).tolist()
    rows = [
        {
            "r": r,
            "d_analytic": None if miso is None else miso_dmt(miso, r),
            "d_oracle": None if math.isinf(d) else d,
        }
        for r, d in zip(r_values, d_oracle)
    ]
    metadata = {"relays": args.relays, "t": t if args.relays == 1 else None, "oracle_step": step}
    return ["r", "d_analytic", "d_oracle"], rows, metadata


def _cmd_outage(args: argparse.Namespace) -> _Table:
    trials = parse_count(args.trials)
    single = args.model == SingleRelaySchedule.model
    t = _mode_flag(args, "t", 0.5, single, "model")
    weights = _mode_flag(args, "weights", None, not single, "model")
    if single:
        if args.relays != 1:
            raise ValueError("--model single-relay-ub requires --relays 1")
        schedule: SingleRelaySchedule | TwoHopSchedule = SingleRelaySchedule(t)
    elif weights is not None:
        try:
            parsed = tuple(float(w) for w in weights.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --weights {weights!r}: {exc}") from exc
        schedule = TwoHopSchedule(args.relays, parsed)
    else:
        schedule = TwoHopSchedule.uniform(args.relays)
    cfg = RunConfig(
        schedule=schedule,
        r=args.r,
        snr_db_grid=tuple(parse_grid(args.snr_db)),
        trials_per_point=trials,
        seed=args.seed,
        gap_bits=args.gap_bits,
    )
    rows, metadata = estimate_outage(cfg, workers=args.workers)
    return OUTAGE_COLUMNS, [asdict(row) for row in rows], {**metadata, "workers": args.workers}


def _json_count(value: Any) -> int:
    """A JSON count read exactly: an integer that is not a bool, or an integral finite float."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"count {value!r} is not an integer")
    return value


def _json_float(value: Any) -> float:
    """A JSON float column read as a number: an int or a float, not a bool, a string or null."""
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _read_table(path: str) -> tuple[tuple[OutageRow, ...], dict[str, Any]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc
    metadata: dict[str, Any] = {}
    raw_rows: list[dict[str, Any]] = []
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path!r} is not valid JSON: {exc}") from exc
        metadata = doc.get("metadata", {})
        raw_rows = doc.get("rows", [])
        read = {int: _json_count, float: _json_float}
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        data_lines = []
        for ln in lines:
            if ln.startswith("#"):
                key, _, value = ln[1:].strip().partition("=")
                try:
                    metadata[key.strip()] = json.loads(value)
                except json.JSONDecodeError:
                    metadata[key.strip()] = value
            else:
                data_lines.append(ln)
        reader = csv.DictReader(data_lines)
        raw_rows = list(reader)
        read = {int: int, float: float}  # each type parses its own text, a count exactly
    types = get_type_hints(OutageRow)
    try:
        rows = [OutageRow(**{col: read[types[col]](raw[col]) for col in OUTAGE_COLUMNS}) for raw in raw_rows]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path!r} is not an outage table: {exc}") from exc
    return tuple(rows), metadata


def _cmd_slope(args: argparse.Namespace) -> _Table:
    source_rows, source = _read_table(args.input)
    slope, stderr = estimate_diversity_slope(source_rows, min_count=args.min_count)
    used = sum(1 for row in source_rows if row.outage_count >= args.min_count)
    metadata: dict[str, Any] = {"input": args.input, "min_count": args.min_count}
    if source:
        metadata["source"] = source
    rows = [{"slope": slope, "stderr": stderr, "points_used": used}]
    return ["slope", "stderr", "points_used"], rows, metadata


def _cmd_schedule_opt(args: argparse.Namespace) -> _Table:
    r_values = parse_grid(args.r_grid)
    rows = []
    for r in r_values:
        t_star, d_star = optimize_schedule_single(r, args.t_step, args.oracle_step, args.budget)
        rows.append({"r": r, "t_star": t_star, "d_star": d_star})
    return ["r", "t_star", "d_star"], rows, {"t_step": args.t_step, "oracle_step": args.oracle_step}


def _cmd_curves(args: argparse.Namespace) -> _Table:
    r_values = parse_grid(args.r_grid)
    rows = [{"r": r, "d": miso_dmt(args.miso, r)} for r in r_values]
    if any(b <= a for a, b in zip(r_values, r_values[1:])):
        raise ValueError("multiplexing gains must be strictly increasing")
    return ["r", "d"], rows, {"curve": f"miso-{args.miso}x1"}


def _cmd_verify(args: argparse.Namespace) -> _Table:
    cut_avg = args.kind == CheckKind.CUT_AVG.value
    report = run_randomized_suite(
        CheckKind(args.kind),
        parse_count(args.instances),
        args.seed,
        max_len=_mode_flag(args, "max_len", 8, not cut_avg, "kind"),
        max_relays=_mode_flag(args, "max_relays", 6, cut_avg, "kind"),
    )
    row = {**asdict(report), "kind": report.kind.value}
    return list(row), [row], {"seed": args.seed, "generator": GENERATOR_NAME}


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default="csv", help="output format")
    sub.add_argument("--output", default=None, help="output path (default: stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdrelay",
        description="Cut-set bounds, outage Monte Carlo, and diversity-multiplexing "
        "exponents for half-duplex relay channels.",
    )
    parser.add_argument("--version", action="version", version=f"hdrelay {__version__}")
    subs = parser.add_subparsers(dest="subcommand")

    p = subs.add_parser("exponent", help="analytic vs grid-oracle outage exponents")
    p.add_argument("--relays", type=int, default=1, help="number of relays (1 = single relay)")
    p.add_argument("--t", type=float, default=None, help="listen fraction, --relays 1 (default 0.5)")
    p.add_argument("--r-grid", default="0:1:0.1", help="multiplexing gains, start:stop:step")
    p.add_argument(
        "--oracle-step",
        type=float,
        default=None,
        help="grid step of the oracle (default 0.005 single relay, 0.05 otherwise)",
    )
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET, help="oracle evaluation budget")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_exponent)

    p = subs.add_parser("outage", help="Monte Carlo outage probability over an SNR grid")
    p.add_argument("--model", choices=[SingleRelaySchedule.model, TwoHopSchedule.model],
                   default=SingleRelaySchedule.model)
    p.add_argument("--relays", type=int, default=1)
    p.add_argument("--t", type=float, default=None, help="listen fraction, single-relay-ub (default 0.5)")
    p.add_argument("--weights", default=None, help="two-hop-zlb state weights, comma separated (default uniform)")
    p.add_argument("--r", type=float, required=True, help="multiplexing gain; rate = r*log2(snr)")
    p.add_argument("--snr-db", required=True,
                   help="SNR grid in dB, start:stop:step; write a negative start as --snr-db=-10:30:5")
    p.add_argument("--trials", default="100000", help="trials per SNR point (accepts 1e6)")
    p.add_argument("--seed", type=int, required=True, help="master seed in [0, 2**64) (echoed in metadata)")
    p.add_argument("--gap-bits", type=float, default=0.0, help="constant gap subtracted from the bound")
    p.add_argument("--workers", type=int, default=1,
                   help=f"worker threads in [1, {MAX_WORKERS}] (default 1); results do not depend on it")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_outage)

    p = subs.add_parser("slope", help="diversity slope fit from an outage table")
    p.add_argument("--input", required=True, help="CSV or JSON table produced by the outage command")
    p.add_argument("--min-count", type=int, default=50, help="drop rows with fewer outage events")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_slope)

    p = subs.add_parser("schedule-opt", help="optimize the single-relay listen fraction")
    p.add_argument("--r-grid", default="0:1:0.1", help="multiplexing gains, start:stop:step")
    p.add_argument("--t-step", type=float, default=0.05, help="listen-fraction grid step")
    p.add_argument("--oracle-step", type=float, default=0.005, help="grid step of the exponent oracle")
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET, help="evaluation budget of one r's t sweep")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_schedule_opt)

    p = subs.add_parser("curves", help="closed-form baseline DMT curves")
    p.add_argument("--miso", type=int, required=True,
                   help="m x 1 MISO curve m*(1-r): m = 2 for one relay at t = 0.5 or the"
                   " parallel channel, m = N+1 for N two-hop relays")
    p.add_argument("--r-grid", default="0:1:0.05", help="multiplexing gains, start:stop:step")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_curves)

    p = subs.add_parser("verify", help="randomized inequality suites (exit 3 on violation)")
    p.add_argument("--kind", choices=[k.value for k in CheckKind], required=True)
    p.add_argument("--instances", default="10000", help="instances to check (accepts 1e6)")
    p.add_argument("--seed", type=int, required=True, help="master seed in [0, 2**64) (echoed in metadata)")
    p.add_argument("--max-len", type=int, default=None, help="max sequence/subset length (default 8)")
    p.add_argument("--max-relays", type=int, default=None, help="max relays of cut-avg instances (default 6)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    """Parse and execute one command; returns the process exit code.

    A handler returns its columns, rows and own metadata keys; `run` puts
    the tool, version, command and timestamp keys first, writes the table,
    and returns 3 when a row reports violations.

    The parser is built once per process and shared by every call: parsing
    never changes it, and every default is a constant.  Handlers look up the
    functions they call as module globals when they run, and argparse finds
    sys.stdout and sys.stderr when it prints, so patches and redirections
    made after the first call still take effect.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return 0 if exc.code is None else int(exc.code)
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        columns, rows, metadata = args.handler(args)
        emit(columns, rows, {**_base_metadata(argv), **metadata}, args.format, args.output)
    except ValueError as exc:  # every input check raises one
        print(f"hdrelay: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"hdrelay: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    violations = sum(row.get("violations", 0) for row in rows)
    if violations > 0:
        print(f"verification failed: {violations} violations", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
